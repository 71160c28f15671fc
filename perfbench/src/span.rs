//! The traced run's instrumentation, kept entirely outside the code under
//! measurement: an in-memory span store and two wrappers that time calls
//! into each layer's public API.
//!
//! - [`TimedCore`] wraps any [`ProtocolCore`] (trainer, aggregator,
//!   directory, storage). It times each `handle` call, keyed by role and
//!   event kind, then replays the drained actions unchanged and in push
//!   order, so the run is observationally identical to an unwrapped one.
//!   Every `Send` it replays also goes through the socket codec
//!   (`encode_frame`, then `read_frame`), which times the codec and gives
//!   the frame-size versus charged-size table per message variant.
//! - [`TimedModel`] wraps the model and times `loss_and_grad`.
//!
//! Spans carry the round number of the latest `round_start` record, so the
//! spans of one round share it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use dfl_backend_tokio::codec;
use dfl_ml::{Matrix, Model};
use dfl_netsim::{NodeId, SimTime};
use ipls::protocol::{Actions, ProtocolAction, ProtocolCore, ProtocolEvent};
use ipls::{labels, Msg};

/// The layer a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Trainer,
    Aggregator,
    Directory,
    Ipfs,
    Ml,
    Codec,
    Crypto,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trainer => "ipls.trainer",
            Layer::Aggregator => "ipls.aggregator",
            Layer::Directory => "ipls.directory",
            Layer::Ipfs => "ipfs",
            Layer::Ml => "ml",
            Layer::Codec => "codec",
            Layer::Crypto => "crypto",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub kind: &'static str,
    pub node: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Frame size versus simulated wire charge for one message variant.
#[derive(Clone, Copy, Debug, Default)]
pub struct GapRow {
    pub messages: u64,
    pub frame_bytes: u64,
    pub charged_bytes: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static ROUND: AtomicU64 = AtomicU64::new(0);
/// Total time spent inside `TimedCore::handle`, wrapper work included.
static OUTER_NS: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static GAP: Mutex<BTreeMap<&'static str, GapRow>> = Mutex::new(BTreeMap::new());
static DECODE_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Stores one span.
pub fn record(layer: Layer, kind: &'static str, node: u32, start_ns: u64, end_ns: u64) {
    let span = Span {
        layer,
        kind,
        node,
        round: ROUND.load(Ordering::Relaxed) as u32,
        start_ns,
        end_ns,
    };
    SPANS.lock().unwrap_or_else(|p| p.into_inner()).push(span);
}

/// Runs `f` inside a span.
pub fn timed<T>(layer: Layer, kind: &'static str, f: impl FnOnce() -> T) -> T {
    let start = now_ns();
    let out = f();
    record(layer, kind, 0, start, now_ns());
    out
}

/// Everything recorded since the last reset.
pub struct Recording {
    pub spans: Vec<Span>,
    pub outer_s: f64,
    pub gap: BTreeMap<&'static str, GapRow>,
    pub decode_errors: u64,
}

/// Clears every store, ready for the next traced run.
pub fn reset() {
    ROUND.store(0, Ordering::Relaxed);
    OUTER_NS.store(0, Ordering::Relaxed);
    DECODE_ERRORS.store(0, Ordering::Relaxed);
    SPANS.lock().unwrap_or_else(|p| p.into_inner()).clear();
    GAP.lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// Takes everything recorded since the last [`reset`].
pub fn take() -> Recording {
    Recording {
        spans: std::mem::take(&mut *SPANS.lock().unwrap_or_else(|p| p.into_inner())),
        outer_s: OUTER_NS.load(Ordering::Relaxed) as f64 * 1e-9,
        gap: std::mem::take(&mut *GAP.lock().unwrap_or_else(|p| p.into_inner())),
        decode_errors: DECODE_ERRORS.load(Ordering::Relaxed),
    }
}

/// A protocol core whose `handle` calls are timed.
pub struct TimedCore<C> {
    inner: C,
    layer: Layer,
    node: NodeId,
    buf: Actions<Msg>,
}

impl<C: ProtocolCore<Msg = Msg>> TimedCore<C> {
    pub fn new(inner: C, layer: Layer, node: NodeId) -> TimedCore<C> {
        TimedCore {
            inner,
            layer,
            node,
            buf: Actions::new(),
        }
    }

    /// Pushes one message through the socket codec: the frame the
    /// transport would write, then the read that would parse it.
    fn probe_codec(&self, msg: &Msg) {
        let node = self.node.index() as u32;
        let start = now_ns();
        let frame = codec::encode_frame(self.node, msg);
        let encoded = now_ns();
        record(Layer::Codec, "encode", node, start, encoded);
        let decoded = codec::read_frame(&mut frame.as_slice());
        record(Layer::Codec, "decode", node, encoded, now_ns());
        if !matches!(decoded, Ok(Some((from, _))) if from == self.node) {
            DECODE_ERRORS.fetch_add(1, Ordering::Relaxed);
        }
        let mut gap = GAP.lock().unwrap_or_else(|p| p.into_inner());
        let row = gap.entry(variant(msg)).or_default();
        row.messages += 1;
        row.frame_bytes += frame.len() as u64;
        row.charged_bytes += msg.wire_bytes();
    }
}

impl<C: ProtocolCore<Msg = Msg>> ProtocolCore for TimedCore<C> {
    type Msg = Msg;

    fn handle(&mut self, now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        let kind = event_kind(&event);
        let start = now_ns();
        self.inner.handle(now, event, &mut self.buf);
        let end = now_ns();
        let mut buf = std::mem::replace(&mut self.buf, Actions::new());
        for action in buf.drain() {
            match action {
                ProtocolAction::Send { to, msg } => {
                    self.probe_codec(&msg);
                    out.send(to, msg);
                }
                ProtocolAction::SetTimer { delay, token } => out.set_timer(delay, token),
                ProtocolAction::Record { label, value } => {
                    if label == labels::ROUND_START {
                        ROUND.store(value as u64, Ordering::Relaxed);
                    }
                    out.record(label, value);
                }
                ProtocolAction::Incr { label, delta } => out.incr(label, delta),
                ProtocolAction::Observe { label, value } => out.observe(label, value),
            }
        }
        self.buf = buf;
        // Recorded after the replay so that the span of the event that
        // starts a round carries that round's number.
        record(self.layer, kind, self.node.index() as u32, start, end);
        OUTER_NS.fetch_add(now_ns() - start, Ordering::Relaxed);
    }
}

/// A model whose `loss_and_grad` calls are timed.
#[derive(Clone)]
pub struct TimedModel<M>(pub M);

impl<M: Model> Model for TimedModel<M> {
    fn param_count(&self) -> usize {
        self.0.param_count()
    }

    fn params(&self) -> Vec<f32> {
        self.0.params()
    }

    fn set_params(&mut self, params: &[f32]) {
        self.0.set_params(params)
    }

    fn loss_and_grad(&self, x: &Matrix, y: &[f32]) -> (f32, Vec<f32>) {
        let start = now_ns();
        let out = self.0.loss_and_grad(x, y);
        record(Layer::Ml, "loss_and_grad", 0, start, now_ns());
        out
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        self.0.predict(x)
    }
}

/// The span kind of one event: the message variant for deliveries.
fn event_kind(event: &ProtocolEvent<Msg>) -> &'static str {
    match event {
        ProtocolEvent::Start => "Start",
        ProtocolEvent::Message { msg, .. } => variant(msg),
        ProtocolEvent::Timer { .. } => "Timer",
        ProtocolEvent::Fault { .. } => "Fault",
        ProtocolEvent::DeliveryFailure { .. } => "DeliveryFailure",
    }
}

/// The variant name of a message; storage wires are named `Ipfs.<wire>`.
pub fn variant(msg: &Msg) -> &'static str {
    use dfl_ipfs::IpfsWire as W;
    match msg {
        Msg::Ipfs(wire) => match wire {
            W::Put { .. } => "Ipfs.Put",
            W::Get { .. } => "Ipfs.Get",
            W::Merge { .. } => "Ipfs.Merge",
            W::Unpin { .. } => "Ipfs.Unpin",
            W::Subscribe { .. } => "Ipfs.Subscribe",
            W::Publish { .. } => "Ipfs.Publish",
            W::PutChunked { .. } => "Ipfs.PutChunked",
            W::ChunkFill { .. } => "Ipfs.ChunkFill",
            W::GetChunk { .. } => "Ipfs.GetChunk",
            W::PutAck { .. } => "Ipfs.PutAck",
            W::GetOk { .. } => "Ipfs.GetOk",
            W::GetErr { .. } => "Ipfs.GetErr",
            W::MergeOk { .. } => "Ipfs.MergeOk",
            W::MergeErr { .. } => "Ipfs.MergeErr",
            W::Deliver { .. } => "Ipfs.Deliver",
            W::ChunkWant { .. } => "Ipfs.ChunkWant",
            W::PutChunkedErr { .. } => "Ipfs.PutChunkedErr",
            W::FindProviders { .. } => "Ipfs.FindProviders",
            W::Providers { .. } => "Ipfs.Providers",
            W::Announce { .. } => "Ipfs.Announce",
            W::FetchBlock { .. } => "Ipfs.FetchBlock",
            W::FetchOk { .. } => "Ipfs.FetchOk",
            W::FetchErr { .. } => "Ipfs.FetchErr",
            W::Replicate { .. } => "Ipfs.Replicate",
            W::Retract { .. } => "Ipfs.Retract",
            W::UnpinReplica { .. } => "Ipfs.UnpinReplica",
            W::PubGossip { .. } => "Ipfs.PubGossip",
            #[allow(unreachable_patterns)]
            _ => "Ipfs.Other",
        },
        Msg::StartRound { .. } => "StartRound",
        Msg::RegisterGradient { .. } => "RegisterGradient",
        Msg::RegisterGradientBatch { .. } => "RegisterGradientBatch",
        Msg::QueryGradients { .. } => "QueryGradients",
        Msg::GradientList { .. } => "GradientList",
        Msg::QueryAccumulators { .. } => "QueryAccumulators",
        Msg::Accumulators { .. } => "Accumulators",
        Msg::QueryTotalAccumulator { .. } => "QueryTotalAccumulator",
        Msg::TotalAccumulator { .. } => "TotalAccumulator",
        Msg::RegisterUpdate { .. } => "RegisterUpdate",
        Msg::UpdateRejected { .. } => "UpdateRejected",
        Msg::QueryUpdate { .. } => "QueryUpdate",
        Msg::UpdateInfo { .. } => "UpdateInfo",
        Msg::TrainerDone { .. } => "TrainerDone",
        Msg::ReportMisbehavior { .. } => "ReportMisbehavior",
        Msg::DirectGradient { .. } => "DirectGradient",
        Msg::OverlayPartial { .. } => "OverlayPartial",
        Msg::OverlayUpdate { .. } => "OverlayUpdate",
        #[allow(unreachable_patterns)]
        _ => "Other",
    }
}
