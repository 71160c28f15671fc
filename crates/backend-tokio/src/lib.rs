//! Real-socket backend for the sans-io IPLS protocol cores.
//!
//! The netsim backend ([`ipls::runner::run_task`]) interprets
//! [`ProtocolAction`]s against a simulated
//! network; this crate interprets the *same* actions against localhost TCP
//! sockets and wall-clock timers, driving the *same* cores, built by the
//! same [`ipls::runner::deployment`], unmodified. Nothing protocol-specific
//! lives here — only transport, on plain `std::net` sockets and
//! `std::thread`s:
//!
//! - every node gets a TCP listener on an ephemeral port; [`codec`] frames
//!   messages as `[u32 len][u64 sender][payload]`;
//! - each node runs on its own thread, draining a channel fed by
//!   socket-reader threads and the fault driver, and firing its own armed
//!   timers from a deadline heap between events;
//! - `Send` actions go through supervised per-peer writers (`conn.rs`) with
//!   bounded queues and seeded exponential backoff — every way a frame
//!   can be lost is counted in the report's [`DeliveryReport`], never
//!   swallowed;
//! - the run honours the [`TaskConfig::fault_plan`] netsim executes:
//!   crashes, recoveries, partitions, and per-frame chaos are replayed
//!   against wall-clock time by the fault driver (`fault.rs`), so one
//!   scripted scenario exercises both backends.
//!
//! Because training is seeded per `(task seed, round, trainer)` and
//! aggregation is exact and order-independent, a healthy run produces the
//! **same final model bytes** as a simulation of the same [`TaskConfig`] —
//! the end-to-end test in this crate asserts exactly that, and the chaos
//! test asserts a faulted run degrades to `min_quorum` exactly as the
//! netsim oracle does.
//!
//! [`TaskConfig::fault_plan`]: ipls::config::TaskConfig

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dfl_ml::{Dataset, Model, SgdConfig};
use dfl_netsim::{Fault, NodeId, SimTime};
use ipls::config::TaskConfig;
use ipls::error::IplsError;
use ipls::labels;
use ipls::protocol::{Actions, ProtocolAction, ProtocolCore, ProtocolEvent};
use ipls::runner::{deployment, Deployment};
use ipls::Msg;

pub mod codec;
mod conn;
mod fault;

pub use conn::DeliveryReport;

use conn::{BackoffPolicy, DeliveryStats, PeerSender};
use fault::NetFaults;

/// Poison-tolerant locking: a panicking node thread must degrade that
/// node, not cascade a `PoisonError` panic through every thread sharing
/// the mutex (the waiter would otherwise hang the whole run).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a TCP task run produced. The socket backend has no [`Trace`], so
/// this carries the subset of [`ipls::runner::TaskReport`] that exists
/// outside the simulator — the learned model, progress, per-node
/// counters and records, and the transport's delivery accounting.
///
/// [`Trace`]: dfl_netsim::Trace
#[derive(Clone, Debug)]
pub struct TcpTaskReport {
    /// Final model parameters per trainer index.
    pub final_params: HashMap<usize, Vec<f32>>,
    /// Rounds that ran to completion.
    pub completed_rounds: u64,
    /// Per-node counter sink (`ProtocolAction::Incr`), indexed like the
    /// simulator's node ids: directory, storage nodes, aggregators,
    /// trainers.
    pub counters: Vec<HashMap<&'static str, u64>>,
    /// Per-node count of `ProtocolAction::Record` events by label.
    pub records: Vec<HashMap<&'static str, u64>>,
    /// The transport's frame-delivery accounting: every dropped,
    /// faulted, or crash-discarded frame of the run, by cause.
    pub delivery: DeliveryReport,
}

impl TcpTaskReport {
    /// The parameter vector all trainers converged to, if they agree
    /// (mirrors [`ipls::runner::TaskReport::consensus_params`]).
    pub fn consensus_params(&self) -> Option<Vec<f32>> {
        let mut iter = self.final_params.values();
        let first = iter.next()?.clone();
        for other in iter {
            if *other != first {
                return None;
            }
        }
        Some(first)
    }

    /// Total of `label` across every node's counter sink (mirrors
    /// `Trace::counter`).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters
            .iter()
            .filter_map(|node| node.get(label))
            .sum()
    }

    /// How many times `label` was recorded, across nodes (mirrors
    /// `Trace::count`).
    pub fn record_count(&self, label: &str) -> u64 {
        self.records.iter().filter_map(|node| node.get(label)).sum()
    }

    /// Rounds that completed on a degraded quorum (mirrors
    /// [`ipls::runner::TaskReport::quorum_degradations`]).
    pub fn quorum_degradations(&self) -> u64 {
        self.record_count(labels::QUORUM_DEGRADED)
    }
}

/// An event delivered to a node's protocol thread.
pub(crate) enum NodeEvent {
    /// A decoded frame from a peer.
    Msg { from: NodeId, msg: Msg },
    /// A timer the node armed fell due.
    Timer { token: u64 },
    /// The fault driver injected a fault on this node.
    Fault { fault: Fault },
    /// This node's transport gave up delivering a frame to `to`.
    SendFailed { to: NodeId },
    /// The run is over: leave the node loop.
    Stop,
}

/// The timers one node has armed, owned by its loop: earliest deadline
/// first, and same-deadline timers in arming order (the simulator's FIFO
/// tie-break).
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    armed: u64,
}

impl Timers {
    fn arm(&mut self, deadline: Instant, token: u64) {
        self.heap.push(Reverse((deadline, self.armed, token)));
        self.armed += 1;
    }

    /// Removes and returns the token of the earliest timer due by `now`.
    fn pop_due(&mut self, now: Instant) -> Option<u64> {
        let Reverse((deadline, _, token)) = *self.heap.peek()?;
        (deadline <= now).then(|| {
            self.heap.pop();
            token
        })
    }

    /// The node's next event. A due timer comes first, so timers cannot
    /// starve behind queued frames; otherwise the loop blocks on `rx`
    /// until the next deadline, or indefinitely when no timer is armed.
    /// `None` once every sender of `rx` is gone.
    fn next_event(&mut self, rx: &mpsc::Receiver<NodeEvent>) -> Option<NodeEvent> {
        loop {
            let now = Instant::now();
            if let Some(token) = self.pop_due(now) {
                return Some(NodeEvent::Timer { token });
            }
            let Some(Reverse((deadline, _, _))) = self.heap.peek() else {
                return rx.recv().ok();
            };
            match rx.recv_timeout(*deadline - now) {
                Ok(event) => return Some(event),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// What the runner waits for at the end of a task.
struct End {
    /// The directory recorded `task_complete`.
    task_complete: bool,
    /// Node id of trainer 0; the trainers hold the ids from there on.
    first_trainer: usize,
    /// The last round's index.
    last_round: u64,
    /// Per trainer: it recorded `trainer_round_done` for the last round.
    finished: Vec<bool>,
}

impl End {
    /// The run is over once the task is complete and every trainer that
    /// is not down has finished the last round. A quorum can complete the
    /// task before a late trainer (say, one just restarted) does; netsim
    /// runs to quiescence and lets that trainer finish, so the sockets
    /// must too.
    fn over(&self, faults: &NetFaults) -> bool {
        self.task_complete
            && self
                .finished
                .iter()
                .enumerate()
                .all(|(t, done)| *done || faults.is_down(NodeId(self.first_trainer + t)))
    }
}

/// Cross-thread state shared by every node of one run.
struct Shared {
    /// Listener address per node index.
    addrs: Vec<SocketAddr>,
    /// Run start; `now` for handlers is elapsed time since it.
    epoch: Instant,
    /// Set once at the end of the run to stop the acceptors and the fault
    /// driver.
    shutdown: Arc<AtomicBool>,
    /// Per-node `Incr` sink.
    counters: Vec<Mutex<HashMap<&'static str, u64>>>,
    /// Per-node `Record` occurrence counts.
    records: Vec<Mutex<HashMap<&'static str, u64>>>,
    /// End-of-run progress, guarded for `end_cv`.
    end: Mutex<End>,
    /// Signals a change that may end the run.
    end_cv: Condvar,
}

impl Shared {
    fn new(addrs: Vec<SocketAddr>, first_trainer: usize, trainers: usize, rounds: u64) -> Shared {
        let nodes = addrs.len();
        Shared {
            addrs,
            epoch: Instant::now(),
            shutdown: Arc::new(AtomicBool::new(false)),
            counters: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
            records: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
            end: Mutex::new(End {
                task_complete: false,
                first_trainer,
                last_round: rounds - 1,
                finished: vec![false; trainers],
            }),
            end_cv: Condvar::new(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Books one `Record` action of node `me`.
    fn record(&self, me: NodeId, label: &'static str, value: f64) {
        *lock(&self.records[me.index()]).entry(label).or_insert(0) += 1;
        match label {
            labels::TASK_COMPLETE => {
                lock(&self.end).task_complete = true;
                self.end_cv.notify_all();
            }
            labels::TRAINER_ROUND_DONE => {
                let mut end = lock(&self.end);
                if value == end.last_round as f64 {
                    if let Some(t) = me.index().checked_sub(end.first_trainer) {
                        end.finished[t] = true;
                    }
                }
                drop(end);
                self.end_cv.notify_all();
            }
            _ => {}
        }
    }

    /// Wakes the end-of-run wait to re-check (a node went down).
    fn notify(&self) {
        let _end = lock(&self.end);
        self.end_cv.notify_all();
    }

    /// Waits until the run is over ([`End::over`]) or `deadline` passes;
    /// `true` when the directory recorded `task_complete`.
    fn wait_done(&self, faults: &NetFaults, deadline: Duration) -> bool {
        let guard = lock(&self.end);
        let (guard, _) = self
            .end_cv
            .wait_timeout_while(guard, deadline, |end| !end.over(faults))
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.task_complete
    }
}

/// Everything one node's protocol thread needs to interpret actions:
/// supervised peer writers, its armed timers, and the observability
/// sinks.
struct NodeCtx {
    me: NodeId,
    senders: HashMap<usize, PeerSender>,
    timers: Timers,
    tx: mpsc::Sender<NodeEvent>,
    shared: Arc<Shared>,
    faults: Arc<NetFaults>,
    stats: Arc<DeliveryStats>,
    policy: BackoffPolicy,
}

impl NodeCtx {
    fn sender(&mut self, to: NodeId) -> &PeerSender {
        let NodeCtx {
            me,
            senders,
            tx,
            shared,
            faults,
            stats,
            policy,
            ..
        } = self;
        senders.entry(to.index()).or_insert_with(|| {
            PeerSender::spawn(
                *me,
                to,
                shared.addrs[to.index()],
                *policy,
                faults.clone(),
                stats.clone(),
                tx.clone(),
            )
        })
    }

    /// Interprets one batch of actions against sockets, the node's
    /// timers, and the counter and record sinks. `Observe` samples are
    /// dropped: the socket backend keeps no histograms, as it keeps no
    /// trace.
    fn flush(&mut self, out: &mut Actions<Msg>) {
        for action in out.drain() {
            match action {
                ProtocolAction::Send { to, msg } => self.sender(to).send(msg),
                ProtocolAction::SetTimer { delay, token } => self.timers.arm(
                    Instant::now() + Duration::from_micros(delay.as_micros()),
                    token,
                ),
                ProtocolAction::Record { label, value } => {
                    self.shared.record(self.me, label, value);
                }
                ProtocolAction::Incr { label, delta } => {
                    *lock(&self.shared.counters[self.me.index()])
                        .entry(label)
                        .or_insert(0) += delta;
                }
                ProtocolAction::Observe { .. } => {}
            }
        }
    }

    /// Discards a crashed node's actions wholesale (the backend contract
    /// allows this; netsim does the same), counting the dropped sends so
    /// the loss is never silent.
    fn discard(&mut self, out: &mut Actions<Msg>) {
        for action in out.drain() {
            if let ProtocolAction::Send { .. } = action {
                self.stats
                    .frames_dropped_down
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Accepts inbound connections for one node, spawning a frame-decoding
/// reader thread per connection. Woken by a dummy connect at shutdown.
/// Connections stay accepted even while the node is crashed — its node
/// loop discards (and counts) everything delivered during the outage, the
/// way netsim books undelivered flows to a down node.
fn accept_loop(listener: TcpListener, tx: mpsc::Sender<NodeEvent>, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(conn) = conn else { break };
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(conn);
            // A torn or malformed frame (chaos truncation, hostile
            // header) surfaces as Err: drop the connection cleanly and
            // let the peer's supervised writer reconnect.
            while let Ok(Some((from, msg))) = codec::read_frame(&mut reader) {
                if tx.send(NodeEvent::Msg { from, msg }).is_err() {
                    break;
                }
            }
        });
    }
}

/// Drives one protocol core: Start, then its timers and the events off
/// its channel until [`NodeEvent::Stop`]. The core never learns it is not
/// in the simulator.
///
/// Crash semantics mirror netsim exactly: while down, inbound frames and
/// timer firings are discarded (counted), the crash event's own actions
/// are discarded wholesale, and recovery resumes normal interpretation —
/// timers armed before the crash that fire during the outage die, and the
/// core re-arms its clocks from the protocol's own recovery paths (the
/// directory's next `StartRound`, the sync watchdog).
fn node_loop(
    me: NodeId,
    mut core: Box<dyn ProtocolCore<Msg = Msg> + Send>,
    rx: mpsc::Receiver<NodeEvent>,
    mut ctx: NodeCtx,
) {
    let mut out = Actions::new();
    let mut down = false;
    core.handle(ctx.shared.now(), ProtocolEvent::Start, &mut out);
    ctx.flush(&mut out);
    while let Some(event) = ctx.timers.next_event(&rx) {
        let event = match event {
            NodeEvent::Stop => break,
            NodeEvent::Msg { from, msg } => {
                if down {
                    ctx.stats
                        .frames_discarded_down
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                ProtocolEvent::Message { from, msg }
            }
            NodeEvent::Timer { token } => {
                if down {
                    ctx.stats
                        .timers_discarded_down
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                ProtocolEvent::Timer { token }
            }
            NodeEvent::SendFailed { to } => {
                if down {
                    continue;
                }
                ProtocolEvent::DeliveryFailure { to }
            }
            NodeEvent::Fault { fault } => {
                match fault {
                    Fault::Crash(n) if n == me => {
                        down = true;
                        core.handle(ctx.shared.now(), ProtocolEvent::Fault { fault }, &mut out);
                        ctx.discard(&mut out);
                        // A down trainer no longer holds the run open.
                        ctx.shared.notify();
                        continue;
                    }
                    Fault::Recover(n) if n == me => down = false,
                    _ => {}
                }
                ProtocolEvent::Fault { fault }
            }
        };
        core.handle(ctx.shared.now(), event, &mut out);
        if down {
            ctx.discard(&mut out);
        } else {
            ctx.flush(&mut out);
        }
    }
}

/// Runs a full task over localhost TCP and reports the outcome.
///
/// Mirrors [`ipls::runner::run_task`] with all aggregators honest: the
/// nodes are those of [`ipls::runner::deployment`], the configuration's
/// [`fault_plan`](TaskConfig::fault_plan) is replayed against wall-clock
/// time (crashes, partitions, per-frame chaos), and a wall-clock
/// completion deadline of `t_sync × rounds + 60 s` applies. Connections
/// are supervised with seeded backoff (the task seed).
///
/// The run ends once the directory records `task_complete` and every
/// trainer that is not down has finished the last round.
///
/// # Errors
///
/// Returns an error when the configuration is invalid, a listener cannot
/// be bound, or the task misses the deadline.
pub fn run_task_over_tcp<M: Model + Clone + Send + 'static>(
    cfg: TaskConfig,
    model: M,
    initial_params: Vec<f32>,
    datasets: Vec<Dataset>,
    sgd: SgdConfig,
) -> Result<TcpTaskReport, IplsError> {
    let Deployment {
        topology,
        cores,
        sink,
    } = deployment(cfg, model, initial_params, datasets, sgd, &[])?;
    let cfg = topology.config();
    let nodes = cores.len();
    let policy = BackoffPolicy {
        seed: cfg.seed,
        ..BackoffPolicy::default()
    };
    let deadline =
        Duration::from_micros(cfg.t_sync.as_micros() * cfg.rounds) + Duration::from_secs(60);

    // Bind every node's listener first so the address table is complete
    // before any core runs. Listeners stay bound for the whole run — a
    // crashed node keeps its port (rebinding an ephemeral port would
    // race), and "restart" clears the down flag.
    let io_error = |what: &str, e: std::io::Error| IplsError::InvalidConfig(format!("{what}: {e}"));
    let listeners = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_error("bind", e))?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_error("local_addr", e))?;
    let shared = Arc::new(Shared::new(
        addrs,
        nodes - cfg.trainers,
        cfg.trainers,
        cfg.rounds,
    ));
    let faults = Arc::new(NetFaults::new(nodes));
    let stats = Arc::new(DeliveryStats::default());

    // Channels first: the fault driver needs every node's sender before
    // any node runs.
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..nodes).map(|_| mpsc::channel()).unzip();
    if !cfg.fault_plan.is_empty() {
        let plan = cfg.fault_plan.clone();
        let epoch = shared.epoch;
        let driver_faults = faults.clone();
        let driver_txs = txs.clone();
        let driver_shutdown = shared.shutdown.clone();
        std::thread::spawn(move || {
            fault::drive_plan(plan, epoch, driver_faults, driver_txs, driver_shutdown)
        });
    }

    let mut threads = Vec::with_capacity(nodes);
    for (index, ((core, listener), rx)) in cores.into_iter().zip(listeners).zip(rxs).enumerate() {
        let me = NodeId(index);
        let tx = txs[index].clone();
        let acceptor_tx = tx.clone();
        let acceptor_shared = shared.clone();
        std::thread::spawn(move || accept_loop(listener, acceptor_tx, acceptor_shared));
        let ctx = NodeCtx {
            me,
            senders: HashMap::new(),
            timers: Timers::default(),
            tx,
            shared: shared.clone(),
            faults: faults.clone(),
            stats: stats.clone(),
            policy,
        };
        threads.push(std::thread::spawn(move || node_loop(me, core, rx, ctx)));
    }

    let done = shared.wait_done(&faults, deadline);

    // Stop the fault driver and the acceptors, wake every node loop, and
    // poke every listener so blocked accept() calls observe the flag.
    shared.shutdown.store(true, Ordering::Relaxed);
    for tx in &txs {
        let _ = tx.send(NodeEvent::Stop);
    }
    for addr in &shared.addrs {
        let _ = TcpStream::connect(*addr);
    }
    for thread in threads {
        let _ = thread.join();
    }

    let records: Vec<_> = shared.records.iter().map(|m| lock(m).clone()).collect();
    let completed_rounds = records
        .iter()
        .filter_map(|node| node.get(labels::ROUND_COMPLETE))
        .sum();
    if !done {
        return Err(IplsError::RoundFailed {
            round: completed_rounds,
            reason: format!("TCP task missed its completion deadline ({deadline:?})"),
        });
    }
    let final_params = lock(&sink).clone();
    Ok(TcpTaskReport {
        final_params,
        completed_rounds,
        counters: shared.counters.iter().map(|m| lock(m).clone()).collect(),
        records,
        delivery: stats.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(timers: &mut Timers, rx: &mpsc::Receiver<NodeEvent>, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| match timers.next_event(rx) {
                Some(NodeEvent::Timer { token }) => token,
                _ => panic!("expected a timer"),
            })
            .collect()
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let (_tx, rx) = mpsc::channel();
        let mut timers = Timers::default();
        let now = Instant::now();
        timers.arm(now + Duration::from_millis(30), 3);
        timers.arm(now + Duration::from_millis(10), 1);
        timers.arm(now + Duration::from_millis(20), 2);
        assert_eq!(tokens(&mut timers, &rx, 3), vec![1, 2, 3]);
        assert!(Instant::now() >= now + Duration::from_millis(30));
        assert_eq!(timers.pop_due(Instant::now()), None);
    }

    #[test]
    fn same_deadline_timers_fire_in_arming_order() {
        let (_tx, rx) = mpsc::channel();
        let mut timers = Timers::default();
        let now = Instant::now();
        for token in 0..8 {
            timers.arm(now, token);
        }
        assert_eq!(tokens(&mut timers, &rx, 8), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_due_timer_fires_before_queued_frames() {
        let (tx, rx) = mpsc::channel();
        let mut timers = Timers::default();
        tx.send(NodeEvent::Stop).unwrap();
        timers.arm(Instant::now(), 7);
        assert!(matches!(
            timers.next_event(&rx),
            Some(NodeEvent::Timer { token: 7 })
        ));
        assert!(matches!(timers.next_event(&rx), Some(NodeEvent::Stop)));
    }

    #[test]
    fn the_run_waits_for_every_live_trainer_to_finish_the_last_round() {
        // Node 0 is the directory, node 1 the only trainer; two rounds.
        let faults = NetFaults::new(2);
        let any = SocketAddr::from(([127, 0, 0, 1], 0));
        let shared = Shared::new(vec![any; 2], 1, 1, 2);
        shared.record(NodeId(0), labels::TASK_COMPLETE, 2.0);
        shared.record(NodeId(1), labels::TRAINER_ROUND_DONE, 0.0);

        // A live trainer short of the last round holds the run open until
        // the deadline; the task still counts as complete.
        let wait = Duration::from_millis(50);
        let started = Instant::now();
        assert!(shared.wait_done(&faults, wait));
        assert!(started.elapsed() >= wait);

        // The same trainer marked down does not.
        faults.apply(&Fault::Crash(NodeId(1)));
        let started = Instant::now();
        assert!(shared.wait_done(&faults, Duration::from_secs(60)));
        assert!(started.elapsed() < Duration::from_secs(30));

        // Nor does it once it finished the last round.
        faults.apply(&Fault::Recover(NodeId(1)));
        shared.record(NodeId(1), labels::TRAINER_ROUND_DONE, 1.0);
        assert!(shared.wait_done(&faults, Duration::from_secs(60)));
    }
}
