//! The trainer actor — the TRAINER procedure of Algorithm 1.
//!
//! Per round: train locally from the current model, split the updated
//! parameter vector into partitions, append the averaging counter, upload
//! each partition (to storage or directly to the aggregator depending on
//! the communication mode), register CIDs (and commitments) with the
//! directory, then poll for the globally updated partitions, divide by the
//! counter, and rebuild the model.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use dfl_ipfs::{Cid, IpfsWire};
use dfl_ml::{local_update, Dataset, Model, SgdConfig};
use dfl_netsim::{NodeId, SimDuration, SimTime};

use dfl_crypto::quantize::encode;
use dfl_crypto::schnorr::{Signature, SigningKey};

use crate::accountability::agg_verifying_key;
use crate::chunked::{ChunkProgress, ChunkedClient, ManifestOutcome};
use crate::config::{CommMode, Topology};
use crate::gradient::{
    build_blob, commit_blob, decode_blob, decode_update, flush_verify_queue, sum_gradients,
    verify_blobs_timed, ProtocolCommitment, ProtocolCurve, ProtocolKey,
};
use crate::labels;
use crate::messages::{
    batch_registration_message, overlay_partial_message, overlay_update_message,
    registration_message, Msg,
};
use crate::overlay::OverlayTree;
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent};

const TK_TRAIN: u64 = 1 << 32;
const TK_POLL: u64 = 2 << 32;
const TK_RETRY: u64 = 3 << 32;
/// Overlay-mode level deadline (low 32 bits carry the round it was armed
/// for, so stale timers from finished rounds are ignored).
const TK_OVERLAY: u64 = 4 << 32;

/// One buffered child partial: the child's trainer index, its composed
/// blob, the number of gradients folded into it, the claimed commitment,
/// and the child's signature (authenticated mode).
type ChildPartial = (usize, Vec<u8>, u64, [u8; 33], Option<[u8; 65]>);

/// Shared sink the runner reads trainers' final parameters from after the
/// run ends. `Arc<Mutex<..>>` so socket backends can host each trainer on
/// its own thread; in the single-threaded simulator the lock is free.
pub type ParamSink = Arc<Mutex<HashMap<usize, Vec<f32>>>>;

/// The trainer actor.
pub struct Trainer<M: Model> {
    t: usize,
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    model: M,
    dataset: Dataset,
    sgd: SgdConfig,
    /// Current global model parameters (updated every round).
    params: Vec<f32>,
    sink: ParamSink,

    // -- per-round state ----------------------------------------------------
    iter: u64,
    round_start: SimTime,
    finished: bool,
    /// Blob + commitment per partition for the current round.
    blobs: HashMap<usize, (Vec<u8>, Option<[u8; 33]>)>,
    /// Put request id → partition awaiting its ack.
    pending_acks: HashMap<u64, usize>,
    acked: usize,
    /// Partitions currently being fetched (update download de-dup).
    fetching: HashSet<usize>,
    /// Get request id → (partition, update cid), kept for retransmission.
    pending_gets: HashMap<u64, (usize, Cid)>,
    /// Downloaded averaged partitions.
    received: HashMap<usize, Vec<f32>>,
    /// Acked registrations awaiting the batched send (compact mode).
    batch_entries: Vec<(usize, Cid, Option<[u8; 33]>)>,
    /// Total accumulated commitment per partition (trainer-verification
    /// mode, §IV-B "can be performed by any participant").
    accumulators: HashMap<usize, ProtocolCommitment>,
    /// Update blobs awaiting an accumulator to verify against.
    unverified_updates: HashMap<usize, Vec<u8>>,
    /// Deferred verification queue (trainer-verification mode): update
    /// blobs accepted optimistically, settled with one RLC batch check
    /// when the last partition arrives and the round is about to finish.
    pending_verify: Vec<(usize, Vec<u8>, ProtocolCommitment)>,
    /// Blocks uploaded in the current round, released at the next round
    /// (ephemeral storage lifecycle, §VI).
    uploads: Vec<(NodeId, Cid)>,
    /// Chunked mode: the previous round's uploads, kept pinned one extra
    /// round so the new round's chunked put can dedup against them; the
    /// unpins go out at the following round start (pin-new-before-
    /// unpin-old).
    deferred_unpins: Vec<(NodeId, Cid)>,
    /// Chunk DAG planner ([`TaskConfig::chunked_storage`] mode).
    ///
    /// [`TaskConfig::chunked_storage`]: crate::config::TaskConfig::chunked_storage
    chunked: Option<ChunkedClient>,
    /// Registration signing key (authenticated mode).
    signing_key: Option<SigningKey<ProtocolCurve>>,
    polling: bool,
    /// Whether a storage-retransmission timer is armed.
    retrying: bool,
    next_req: u64,

    // -- overlay mode --------------------------------------------------------
    /// Child partials buffered per `(iter, partition)`. Keyed by round
    /// because a fast child can send its level's partial before this
    /// node's own `StartRound` arrives.
    overlay_children: HashMap<(u64, usize), Vec<ChildPartial>>,
    /// Children already counted into a `(iter, partition)` buffer —
    /// duplicates (retransmissions, Byzantine replays) are dropped.
    overlay_seen: HashSet<(u64, usize, usize)>,
    /// Own blobs are built and the node may compose/forward (set when the
    /// TK_TRAIN timer fires, i.e. local training finished).
    overlay_ready: bool,
    /// Partitions whose level partial already went up this round.
    overlay_sent: HashSet<usize>,
}

impl<M: Model> Trainer<M> {
    /// Creates a trainer with its local dataset.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        t: usize,
        topo: Arc<Topology>,
        key: Option<Arc<ProtocolKey>>,
        model: M,
        initial_params: Vec<f32>,
        dataset: Dataset,
        sgd: SgdConfig,
        sink: ParamSink,
    ) -> Trainer<M> {
        assert_eq!(
            initial_params.len(),
            topo.param_count(),
            "parameter count mismatch"
        );
        let signing_key = topo
            .config()
            .authenticate
            .then(|| SigningKey::derive(&topo.config().seed.to_be_bytes(), t as u64));
        let (chunked_storage, chunk_size) =
            (topo.config().chunked_storage, topo.config().chunk_size);
        Trainer {
            t,
            topo,
            key,
            model,
            dataset,
            sgd,
            params: initial_params,
            sink,
            iter: 0,
            round_start: SimTime::ZERO,
            finished: false,
            blobs: HashMap::new(),
            pending_acks: HashMap::new(),
            acked: 0,
            fetching: HashSet::new(),
            pending_gets: HashMap::new(),
            received: HashMap::new(),
            batch_entries: Vec::new(),
            accumulators: HashMap::new(),
            unverified_updates: HashMap::new(),
            pending_verify: Vec::new(),
            uploads: Vec::new(),
            deferred_unpins: Vec::new(),
            chunked: chunked_storage.then(|| ChunkedClient::new(chunk_size)),
            signing_key,
            polling: false,
            retrying: false,
            next_req: 0,
            overlay_children: HashMap::new(),
            overlay_seen: HashSet::new(),
            overlay_ready: false,
            overlay_sent: HashSet::new(),
        }
    }

    fn sign_registration(
        &self,
        partition: usize,
        cid: &Cid,
        commitment: &Option<[u8; 33]>,
    ) -> Option<[u8; 65]> {
        self.signing_key.as_ref().map(|key| {
            let message = registration_message(self.t, partition, self.iter, cid, commitment);
            key.sign(&message).to_bytes()
        })
    }

    fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Deterministic per-round training seed, aligned with
    /// [`dfl_ml::FedAvg::run`] so pipelines can be compared exactly.
    fn round_seed(&self) -> u64 {
        self.topo.config().seed + self.iter * 1000 + self.t as u64
    }

    fn begin_round(&mut self, now: SimTime, out: &mut Actions<Msg>, iter: u64) {
        self.iter = iter;
        self.round_start = now;
        self.finished = false;
        self.blobs.clear();
        self.pending_acks.clear();
        self.acked = 0;
        self.fetching.clear();
        self.pending_gets.clear();
        self.received.clear();
        self.batch_entries.clear();
        self.accumulators.clear();
        self.unverified_updates.clear();
        self.pending_verify.clear();
        self.overlay_ready = false;
        self.overlay_sent.clear();
        if let Some(planner) = &mut self.chunked {
            planner.reset();
        }
        // Keep buffered partials for this and later rounds (children may
        // race ahead of our StartRound); drop anything older.
        self.overlay_children.retain(|&(i, _), _| i >= iter);
        self.overlay_seen.retain(|&(i, _, _)| i >= iter);

        // Release last round's gradient blobs: they have served their
        // purpose once the round completed (§VI ephemeral-data lifecycle).
        // Chunked mode lags the release by one round — the previous
        // round's chunks must still be pinned when this round's manifest
        // negotiates, or there is nothing to dedup against.
        let replicate = self.topo.config().replication;
        if self.chunked.is_some() {
            for (target, cid) in std::mem::take(&mut self.deferred_unpins) {
                let unpin = IpfsWire::Unpin { cid, replicate };
                out.send(target, Msg::Ipfs(unpin));
            }
            self.deferred_unpins = std::mem::take(&mut self.uploads);
        } else {
            for (target, cid) in std::mem::take(&mut self.uploads) {
                let unpin = IpfsWire::Unpin { cid, replicate };
                out.send(target, Msg::Ipfs(unpin));
            }
        }

        // Train now (real computation), charge the virtual compute time,
        // and continue in the TK_TRAIN timer.
        let seed = self.round_seed();
        let new_params = local_update(
            &mut self.model,
            &self.params.clone(),
            &self.dataset,
            &self.sgd,
            seed,
        );

        let mut commit_elements = 0u64;
        for i in 0..self.topo.config().partitions {
            let (s, e) = self.topo.partition_range(i);
            let blob = build_blob(&new_params[s..e]);
            let commitment = self.key.as_ref().map(|key| {
                commit_elements += (e - s + 1) as u64;
                commit_blob(key, &blob)
                    .expect("locally built blob is well-formed")
                    .to_bytes()
            });
            self.blobs.insert(i, (blob, commitment));
        }

        let compute = self.topo.config().train_compute
            + SimDuration::from_micros(self.topo.config().commit_us_per_element * commit_elements);
        out.set_timer(compute, TK_TRAIN);
    }

    fn upload(&mut self, now: SimTime, out: &mut Actions<Msg>) {
        // Overlay mode replaces both the upload and the download path:
        // partials climb the aggregation tree, the final model rides the
        // same edges back down, and lateness is governed by the per-level
        // deadline rather than the flat t_train cut-off.
        if let Some(tree) = self.topo.overlay() {
            self.upload_overlay(out, &tree);
            return;
        }
        // Abort the round if training blew the t_train deadline
        // (Algorithm 1, lines 10–12): skip uploading, but keep polling so
        // the trainer still picks up the next global model.
        let deadline = self.round_start + self.topo.config().t_train;
        if now > deadline {
            out.record("train_abort", self.iter as f64);
            self.start_polling(out);
            return;
        }

        match self.topo.config().comm {
            CommMode::Direct => {
                for i in 0..self.topo.config().partitions {
                    let (blob, commitment) = &self.blobs[&i];
                    let j = self.topo.agg_for_trainer(i, self.t);
                    let to = self.topo.aggregator(self.topo.agg_index(i, j));
                    let msg = Msg::DirectGradient {
                        trainer: self.t,
                        partition: i,
                        iter: self.iter,
                        data: Bytes::from(blob.clone()),
                    };
                    out.send(to, msg);
                    // Register the hash (and commitment) with the directory
                    // so the aggregation-delay metric and the verification
                    // path work identically across communication modes.
                    let cid = Cid::of(blob);
                    let signature = self.sign_registration(i, &cid, commitment);
                    let register = Msg::RegisterGradient {
                        trainer: self.t,
                        partition: i,
                        iter: self.iter,
                        cid,
                        commitment: *commitment,
                        signature,
                    };
                    out.send(self.topo.directory(), register);
                }
                self.start_polling(out);
            }
            CommMode::Indirect | CommMode::MergeAndDownload => {
                out.record(labels::UPLOAD_START, self.iter as f64);
                for i in 0..self.topo.config().partitions {
                    let (blob, _) = &self.blobs[&i];
                    let req_id = self.next_req + 1;
                    self.next_req = req_id;
                    self.pending_acks.insert(req_id, i);
                    let replicate = self.topo.config().replication;
                    let put = match &mut self.chunked {
                        Some(planner) => planner.begin_upload(req_id, blob, replicate),
                        None => IpfsWire::Put {
                            data: Bytes::from(blob.clone()),
                            req_id,
                            replicate,
                        },
                    };
                    // Truly local invariant: this match arm only runs in the
                    // storage-backed comm modes, where every partition has a
                    // storage route by construction.
                    let to = self
                        .topo
                        .upload_target(i, self.t)
                        .expect("storage-backed mode routes uploads through storage");
                    out.send(to, Msg::Ipfs(put));
                }
                self.arm_retry(out);
            }
        }
    }

    /// Overlay upload: leaves forward their partial immediately; interior
    /// nodes arm the level deadline and forward each partition as its
    /// children complete (buffered partials may already be waiting).
    fn upload_overlay(&mut self, out: &mut Actions<Msg>, tree: &OverlayTree) {
        out.record(labels::UPLOAD_START, self.iter as f64);
        self.overlay_ready = true;
        if !tree.children(self.t).is_empty() {
            // Deeper interior nodes get earlier deadlines, so a partial
            // forwarded on timeout still has a level's budget to climb
            // each remaining hop before its ancestors give up in turn.
            let depth_below = (tree.levels() - tree.level(self.t)) as u64;
            let deadline =
                SimDuration::from_micros(self.topo.config().t_sync.as_micros() * depth_below);
            out.set_timer(deadline, TK_OVERLAY | (self.iter & 0xFFFF_FFFF));
        }
        for i in 0..self.topo.config().partitions {
            self.try_forward_overlay(out, tree, i, false);
        }
    }

    /// Composes and forwards one partition's level partial once every
    /// child contribution has arrived (or unconditionally when `force` —
    /// the level deadline — says so). Each child's Pedersen opening (and
    /// signature, when authenticated) is verified, the accepted blobs are
    /// summed with this node's own gradient, the commitments are combined
    /// homomorphically, and a single blob goes one hop up — to the parent
    /// trainer, or from the root to the partition's aggregator.
    fn try_forward_overlay(
        &mut self,
        out: &mut Actions<Msg>,
        tree: &OverlayTree,
        partition: usize,
        force: bool,
    ) {
        if !self.overlay_ready || self.overlay_sent.contains(&partition) {
            return;
        }
        let expected = tree.children(self.t).len();
        let arrived = self
            .overlay_children
            .get(&(self.iter, partition))
            .map_or(0, Vec::len);
        if arrived < expected {
            if !force {
                return;
            }
            out.record(labels::OVERLAY_TIMEOUT, (expected - arrived) as f64);
        }
        self.overlay_sent.insert(partition);
        let buffered = self
            .overlay_children
            .remove(&(self.iter, partition))
            .unwrap_or_default();

        // Validate the children: parseable commitment, authentic
        // signature, then one batched Pedersen opening check over the
        // survivors (the batch is empty at leaves and costs nothing).
        let key = self
            .key
            .as_ref()
            .expect("overlay requires verifiable mode") // TaskConfig::validate
            .clone();
        let seed = self.topo.config().seed.to_be_bytes();
        let mut candidates: Vec<(usize, Vec<u8>, u64, ProtocolCommitment)> = Vec::new();
        for (child, blob, count, commitment, signature) in buffered {
            let Some(point) = ProtocolCommitment::from_bytes(&commitment) else {
                out.record(labels::OVERLAY_CHILD_REJECTED, child as f64);
                continue;
            };
            if self.topo.config().authenticate {
                let vk = SigningKey::<ProtocolCurve>::derive(&seed, child as u64).verifying_key();
                let msg = overlay_partial_message(
                    child,
                    partition,
                    self.iter,
                    count,
                    &Cid::of(&blob),
                    &commitment,
                );
                let authentic = signature
                    .and_then(|b| Signature::<ProtocolCurve>::from_bytes(&b))
                    .is_some_and(|sig| vk.verify(&msg, &sig));
                if !authentic {
                    out.record(labels::OVERLAY_CHILD_REJECTED, child as f64);
                    continue;
                }
            }
            candidates.push((child, blob, count, point));
        }
        let items: Vec<(&[u8], &ProtocolCommitment)> = candidates
            .iter()
            .map(|(_, blob, _, point)| (blob.as_slice(), point))
            .collect();
        let culprits: HashSet<usize> = verify_blobs_timed(out, &key, &items).into_iter().collect();

        // Sum the accepted child partials with this node's own gradient.
        // The i128-exact summation makes the composed total bit-identical
        // to the flat aggregator's sum of the same leaves, independent of
        // tree shape — addition never rounds, so association is free.
        let (own_blob, own_commitment) = self.blobs[&partition].clone();
        let own_commitment = own_commitment.expect("overlay requires verifiable mode");
        let mut grads = Vec::with_capacity(1 + candidates.len());
        let mut commits = Vec::with_capacity(1 + candidates.len());
        let mut count = 1u64;
        grads.push(decode_blob(&own_blob).expect("locally built blob is well-formed"));
        commits.push(
            ProtocolCommitment::from_bytes(&own_commitment)
                .expect("locally built commitment is a curve point"),
        );
        for (i, (child, blob, child_count, point)) in candidates.iter().enumerate() {
            if culprits.contains(&i) {
                out.record(labels::OVERLAY_CHILD_REJECTED, *child as f64);
                continue;
            }
            let accepted = decode_blob(blob).filter(|d| d.len() == grads[0].len());
            let Some(decoded) = accepted else {
                // Opens its commitment but doesn't decode to this
                // partition's shape: drop it like any other bad child.
                out.record(labels::OVERLAY_CHILD_REJECTED, *child as f64);
                continue;
            };
            grads.push(decoded);
            commits.push(*point);
            count += child_count;
        }
        let summed = match sum_gradients(&grads) {
            Ok(s) => s,
            Err(_) => {
                out.record(labels::SUM_OVERFLOW, self.iter as f64);
                return;
            }
        };
        let blob = if grads.len() == 1 {
            own_blob // no accepted children: the partial is the own blob verbatim
        } else {
            encode(&summed)
        };
        let commitment = ProtocolCommitment::accumulate(commits.iter()).to_bytes();
        let cid = Cid::of(&blob);
        let signature = self.signing_key.as_ref().map(|k| {
            let msg =
                overlay_partial_message(self.t, partition, self.iter, count, &cid, &commitment);
            k.sign(&msg).to_bytes()
        });
        let to = match tree.parent(self.t) {
            Some(p) => self.topo.trainer(p),
            // The root hands the fully composed partial to the
            // partition's (single) aggregator slot.
            None => self.topo.aggregator(self.topo.agg_index(partition, 0)),
        };
        out.send(
            to,
            Msg::OverlayPartial {
                trainer: self.t,
                partition,
                iter: self.iter,
                data: Bytes::from(blob),
                count,
                commitment,
                signature,
            },
        );
        out.record(labels::OVERLAY_FORWARDED, partition as f64);
        if self.overlay_sent.len() == self.topo.config().partitions {
            out.record(labels::UPLOAD_DONE, self.iter as f64);
        }
    }

    /// Buffers one child partial (de-duplicated) and forwards the level if
    /// it is now complete. Partials for future rounds are held until this
    /// node's own `StartRound` catches up.
    #[allow(clippy::too_many_arguments)]
    fn on_overlay_partial(
        &mut self,
        out: &mut Actions<Msg>,
        tree: &OverlayTree,
        trainer: usize,
        partition: usize,
        iter: u64,
        data: Bytes,
        count: u64,
        commitment: [u8; 33],
        signature: Option<[u8; 65]>,
    ) {
        if iter < self.iter {
            return; // late for a level that already went up — harmless
        }
        // Only accept partials from this node's actual children: the tree
        // is a pure function of the shared config, so a partial arriving
        // from anywhere else is misrouted or forged.
        if trainer >= tree.len()
            || tree.parent(trainer) != Some(self.t)
            || partition >= self.topo.config().partitions
        {
            out.record(labels::OVERLAY_CHILD_REJECTED, trainer as f64);
            return;
        }
        if !self.overlay_seen.insert((iter, partition, trainer)) {
            return; // duplicate (retransmission or replay)
        }
        out.record(labels::OVERLAY_CHILD_RECV, partition as f64);
        self.overlay_children
            .entry((iter, partition))
            .or_default()
            .push((trainer, data.to_vec(), count, commitment, signature));
        if iter == self.iter {
            self.try_forward_overlay(out, tree, partition, false);
        }
    }

    /// Applies a final update pushed down the dissemination tree and
    /// relays it verbatim to this node's children.
    fn on_overlay_update(
        &mut self,
        out: &mut Actions<Msg>,
        tree: &OverlayTree,
        partition: usize,
        data: Bytes,
        signature: Option<[u8; 65]>,
    ) {
        if self.finished || self.received.contains_key(&partition) {
            return; // already applied — and already relayed downward
        }
        if self.topo.config().authenticate {
            let g = self.topo.agg_index(partition, 0);
            let vk = agg_verifying_key(self.topo.config().seed, g);
            let msg = overlay_update_message(g, partition, self.iter, &Cid::of(&data));
            let authentic = signature
                .and_then(|b| Signature::<ProtocolCurve>::from_bytes(&b))
                .is_some_and(|sig| vk.verify(&msg, &sig));
            if !authentic {
                out.record(labels::OVERLAY_UPDATE_REJECTED, partition as f64);
                return;
            }
        }
        // Relay before applying: the subtree is waiting on this hop.
        for child in tree.children(self.t) {
            out.send(
                self.topo.trainer(child),
                Msg::OverlayUpdate {
                    partition,
                    iter: self.iter,
                    data: data.clone(),
                    signature,
                },
            );
        }
        let Some((averaged, _count)) = decode_update(&data) else {
            return;
        };
        if averaged.len() != self.topo.partition_len(partition) {
            return;
        }
        self.received.insert(partition, averaged);
        if self.received.len() == self.topo.config().partitions {
            self.finish_round(out);
        }
    }

    /// Arms the storage-retransmission timer: a Put or Get sent to a
    /// storage node that crashes before answering is silently lost, so
    /// anything still unanswered after `fetch_timeout` is re-sent.
    fn arm_retry(&mut self, out: &mut Actions<Msg>) {
        if !self.retrying {
            self.retrying = true;
            let token = TK_RETRY | (self.iter & 0xFFFF_FFFF);
            out.set_timer(self.topo.config().fetch_timeout, token);
        }
    }

    fn on_retry(&mut self, out: &mut Actions<Msg>, iter: u64) {
        self.retrying = false;
        if iter != self.iter || self.finished {
            // Stale timer from a previous round; re-cover the current one.
            if !self.pending_acks.is_empty()
                || !self.pending_gets.is_empty()
                || self.chunked.as_ref().is_some_and(ChunkedClient::busy)
            {
                self.arm_retry(out);
            }
            return;
        }
        // Re-send in request order — iterating the maps directly would make
        // the wire order (and so the whole simulation) nondeterministic.
        let mut puts: Vec<(u64, usize)> = self.pending_acks.iter().map(|(&r, &p)| (r, p)).collect();
        puts.sort_unstable();
        for (req_id, partition) in puts {
            let (blob, _) = &self.blobs[&partition];
            // Chunked mode retransmits the manifest; the provider treats a
            // repeated PutChunked as a fresh negotiation.
            let put = match &self.chunked {
                Some(planner) => planner
                    .upload_wire(req_id)
                    .unwrap_or_else(|| panic!("pending ack {req_id} has no chunked upload")),
                None => IpfsWire::Put {
                    data: Bytes::from(blob.clone()),
                    req_id,
                    replicate: self.topo.config().replication,
                },
            };
            // Truly local invariant: pending_acks is only populated by the
            // storage-backed upload path, never from remote input.
            let to = self
                .topo
                .upload_target(partition, self.t)
                .expect("retries only exist for storage-backed uploads");
            out.send(to, Msg::Ipfs(put));
        }
        let mut gets: Vec<(u64, Cid)> = self
            .pending_gets
            .iter()
            .map(|(&r, &(_, cid))| (r, cid))
            .collect();
        gets.sort_unstable_by_key(|&(r, _)| r);
        let gateway = self.topo.trainer_gateway(self.t);
        for (req_id, cid) in gets {
            let get = IpfsWire::Get { cid, req_id };
            out.send(gateway, Msg::Ipfs(get));
        }
        if let Some(planner) = &self.chunked {
            for (to, wire) in planner.outstanding_chunk_wires() {
                out.send(to, Msg::Ipfs(wire));
            }
        }
        if !self.pending_acks.is_empty()
            || !self.pending_gets.is_empty()
            || self.chunked.as_ref().is_some_and(ChunkedClient::busy)
        {
            self.arm_retry(out);
        }
    }

    fn on_put_ack(&mut self, out: &mut Actions<Msg>, cid: Cid, req_id: u64) {
        let Some(partition) = self.pending_acks.remove(&req_id) else {
            return;
        };
        // A storage acknowledgment whose partition has no storage route is
        // a misrouted or duplicated frame from the backend — per-node
        // request ids are small integers, so a frame delivered to the
        // wrong node can collide with a live id here
        // ([`IplsError::MisroutedAck`](crate::IplsError)). Book and drop
        // it rather than killing the node.
        let Ok(target) = self.topo.upload_target(partition, self.t) else {
            out.incr(labels::MISROUTED_ACK, 1);
            return;
        };
        if let Some(planner) = &mut self.chunked {
            if let Some(stats) = planner.finish_upload(req_id) {
                out.incr(labels::CHUNKS_SENT, stats.sent);
                out.incr(labels::CHUNKS_DEDUPED, stats.deduped);
                out.incr(labels::DEDUP_BYTES_SAVED, stats.saved_bytes);
            }
        }
        self.uploads.push((target, cid));
        let commitment = self.blobs[&partition].1;
        if self.topo.config().compact_registration {
            // Accumulate; one batched registration goes out with the last
            // acknowledgment (§VI directory-load reduction).
            self.batch_entries.push((partition, cid, commitment));
        } else {
            let signature = self.sign_registration(partition, &cid, &commitment);
            let msg = Msg::RegisterGradient {
                trainer: self.t,
                partition,
                iter: self.iter,
                cid,
                commitment,
                signature,
            };
            out.send(self.topo.directory(), msg);
        }
        self.acked += 1;
        if self.acked == self.topo.config().partitions {
            if self.topo.config().compact_registration {
                let entries = std::mem::take(&mut self.batch_entries);
                let signature = self.signing_key.as_ref().map(|key| {
                    key.sign(&batch_registration_message(self.t, self.iter, &entries))
                        .to_bytes()
                });
                let msg = Msg::RegisterGradientBatch {
                    trainer: self.t,
                    iter: self.iter,
                    entries,
                    signature,
                };
                out.send(self.topo.directory(), msg);
            }
            // Upload delay = last store acknowledgment − upload start (§V).
            out.record(labels::UPLOAD_DONE, self.iter as f64);
            self.start_polling(out);
        }
    }

    fn start_polling(&mut self, out: &mut Actions<Msg>) {
        if !self.polling {
            self.polling = true;
            out.set_timer(self.topo.config().poll_interval, TK_POLL);
        }
    }

    fn poll(&mut self, out: &mut Actions<Msg>) {
        if self.finished {
            self.polling = false;
            return;
        }
        let mut outstanding = false;
        for i in 0..self.topo.config().partitions {
            if !self.received.contains_key(&i) && !self.fetching.contains(&i) {
                outstanding = true;
                let msg = Msg::QueryUpdate {
                    partition: i,
                    iter: self.iter,
                };
                out.send(self.topo.directory(), msg);
            }
            if self.topo.config().trainer_verifies
                && !self.received.contains_key(&i)
                && !self.accumulators.contains_key(&i)
            {
                outstanding = true;
                let msg = Msg::QueryTotalAccumulator {
                    partition: i,
                    iter: self.iter,
                };
                out.send(self.topo.directory(), msg);
            }
        }
        if outstanding || !self.fetching.is_empty() {
            out.set_timer(self.topo.config().poll_interval, TK_POLL);
        } else {
            self.polling = false;
        }
    }

    fn on_update_info(&mut self, out: &mut Actions<Msg>, partition: usize, cid: Option<Cid>) {
        let Some(cid) = cid else { return };
        if self.finished
            || self.received.contains_key(&partition)
            || self.unverified_updates.contains_key(&partition)
            || self.fetching.contains(&partition)
        {
            return;
        }
        self.fetching.insert(partition);
        let req_id = self.fresh_req();
        self.pending_gets.insert(req_id, (partition, cid));
        let get = IpfsWire::Get { cid, req_id };
        let gateway = self.topo.trainer_gateway(self.t);
        out.send(gateway, Msg::Ipfs(get));
        self.arm_retry(out);
    }

    fn on_update_blob(&mut self, out: &mut Actions<Msg>, req_id: u64, data: &[u8]) {
        let Some((partition, _)) = self.pending_gets.remove(&req_id) else {
            return;
        };
        self.fetching.remove(&partition);
        self.accept_update(out, partition, data.to_vec());
    }

    /// Chunked-mode `GetOk` routing: a response is either the manifest of
    /// a pending update download (then the chunk fan-out starts, striped
    /// across the storage nodes) or one chunk of an in-flight reassembly.
    fn on_chunked_get_ok(&mut self, out: &mut Actions<Msg>, req_id: u64, data: &Bytes) {
        let Some(planner) = &mut self.chunked else {
            return;
        };
        if let Some((partition, _)) = self.pending_gets.remove(&req_id) {
            match planner.on_manifest(req_id, partition as u64, data) {
                Ok(ManifestOutcome::Done { blob, .. }) => {
                    self.fetching.remove(&partition);
                    self.accept_update(out, partition, blob);
                }
                Ok(ManifestOutcome::Requests(requests)) => {
                    let ipfs_nodes = self.topo.config().ipfs_nodes;
                    for (index, cid) in requests {
                        let chunk_req = self.next_req + 1;
                        self.next_req = chunk_req;
                        // Stripe chunk requests round-robin over the
                        // storage nodes, starting from this trainer's
                        // gateway offset so concurrent downloaders spread
                        // their load.
                        let k = (self.t + index) % ipfs_nodes;
                        let to = self.topo.ipfs_node(k);
                        let planner = self.chunked.as_mut().expect("chunked mode");
                        planner.register_chunk_req(chunk_req, req_id, index, to, cid);
                        out.record(labels::CHUNK_STRIPE, k as f64);
                        out.send(
                            to,
                            Msg::Ipfs(IpfsWire::GetChunk {
                                cid,
                                req_id: chunk_req,
                            }),
                        );
                    }
                    self.arm_retry(out);
                }
                Err(_) => {
                    // Corrupt manifest bytes: drop the download and let
                    // the poll loop re-offer the update.
                    out.incr(labels::CHUNK_DECODE_FAILED, 1);
                    self.fetching.remove(&partition);
                }
            }
            return;
        }
        match planner.chunk_received(req_id, data) {
            ChunkProgress::NotMine | ChunkProgress::Progress => {}
            ChunkProgress::Done { tag, blob, .. } => {
                let partition = tag as usize;
                self.fetching.remove(&partition);
                self.accept_update(out, partition, blob);
            }
            ChunkProgress::Corrupt { tag, .. } => {
                out.incr(labels::CHUNK_DECODE_FAILED, 1);
                self.fetching.remove(&(tag as usize));
            }
        }
    }

    /// Validates (and in trainer-verification mode, queues for
    /// cryptographic verification) a downloaded update blob, then applies
    /// it.
    fn accept_update(&mut self, out: &mut Actions<Msg>, partition: usize, data: Vec<u8>) {
        if self.finished || self.received.contains_key(&partition) {
            return;
        }
        let Some((averaged, _count)) = decode_update(&data) else {
            return; // corrupt update: retry via polling
        };
        if averaged.len() != self.topo.partition_len(partition) {
            return;
        }
        if self.topo.config().trainer_verifies {
            let Some(&acc) = self.accumulators.get(&partition) else {
                // Accumulator not known yet; stash and re-check later.
                self.unverified_updates.insert(partition, data);
                return;
            };
            // Accept optimistically and queue the blob for the end-of-round
            // flush, which rejects it before the round may finish. Count it
            // now, so rounds that never complete still report it.
            out.incr(labels::BLOBS_VERIFIED, 1);
            self.pending_verify.push((partition, data, acc));
        }
        self.received.insert(partition, averaged);
        if self.received.len() == self.topo.config().partitions && self.flush_pending_verify(out) {
            self.finish_round(out);
        }
    }

    /// Settles the deferred update-verification queue with one RLC batch
    /// check; returns whether the round may finish (no culprits). A
    /// culprit partition is rejected: dropped from `received` so the poll
    /// loop re-fetches it, and never applied to the model.
    fn flush_pending_verify(&mut self, out: &mut Actions<Msg>) -> bool {
        if self.pending_verify.is_empty() {
            return true;
        }
        let Some(key) = self.key.clone() else {
            return true; // unreachable: entries only queue in verifiable mode
        };
        let pending = std::mem::take(&mut self.pending_verify);
        let items: Vec<(&[u8], &ProtocolCommitment)> = pending
            .iter()
            .map(|(_, blob, acc)| (blob.as_slice(), acc))
            .collect();
        // Blobs were counted at enqueue time; the flush books only the
        // wall-clock and batch-size metrics.
        let culprits = flush_verify_queue(out, &key, &items);
        for &i in &culprits {
            let partition = pending[i].0;
            out.record("trainer_rejected_update", partition as f64);
            self.received.remove(&partition);
        }
        culprits.is_empty()
    }

    fn finish_round(&mut self, out: &mut Actions<Msg>) {
        self.finished = true;
        // Rebuild the full model by concatenating updated partitions
        // (Algorithm 1, line 23).
        for (i, values) in self.received.drain() {
            let (s, e) = self.topo.partition_range(i);
            self.params[s..e].copy_from_slice(&values);
        }
        self.sink
            .lock()
            .expect("param sink")
            .insert(self.t, self.params.clone());
        out.record(labels::TRAINER_ROUND_DONE, self.iter as f64);
        let msg = Msg::TrainerDone {
            trainer: self.t,
            iter: self.iter,
        };
        out.send(self.topo.directory(), msg);
        self.polling = false;
    }
}

impl<M: Model> ProtocolCore for Trainer<M> {
    type Msg = Msg;

    fn handle(&mut self, now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        let (from, msg) = match event {
            ProtocolEvent::Message { from, msg } => (from, msg),
            ProtocolEvent::Timer { token } => {
                match token & !0xFFFF_FFFF {
                    TK_TRAIN => self.upload(now, out),
                    TK_POLL => self.poll(out),
                    TK_RETRY => self.on_retry(out, token & 0xFFFF_FFFF),
                    TK_OVERLAY
                        if (token & 0xFFFF_FFFF) == (self.iter & 0xFFFF_FFFF) && !self.finished =>
                    {
                        // Level deadline: forward every partition still
                        // waiting on children, with whatever arrived.
                        if let Some(tree) = self.topo.overlay() {
                            for i in 0..self.topo.config().partitions {
                                self.try_forward_overlay(out, &tree, i, true);
                            }
                        }
                    }
                    _ => {}
                }
                return;
            }
            ProtocolEvent::Start | ProtocolEvent::Fault { .. } => return,
            ProtocolEvent::DeliveryFailure { .. } => {
                out.incr(labels::DELIVERY_FAILED, 1);
                return;
            }
        };
        match msg {
            Msg::StartRound { iter } => self.begin_round(now, out, iter),
            Msg::UpdateInfo {
                partition,
                iter,
                cid,
            } if iter == self.iter => {
                self.on_update_info(out, partition, cid);
            }
            Msg::TotalAccumulator {
                partition,
                iter,
                accumulated,
            } if iter == self.iter => {
                if let Some(c) = accumulated.and_then(|b| ProtocolCommitment::from_bytes(&b)) {
                    self.accumulators.entry(partition).or_insert(c);
                    if let Some(blob) = self.unverified_updates.remove(&partition) {
                        self.accept_update(out, partition, blob);
                    }
                }
            }
            Msg::Ipfs(IpfsWire::PutAck { cid, req_id }) => self.on_put_ack(out, cid, req_id),
            Msg::Ipfs(IpfsWire::ChunkWant { cids, req_id })
                if self.pending_acks.contains_key(&req_id) =>
            {
                // A provider's want-list for one of our chunked uploads:
                // answer with exactly the requested chunk payloads. Stale
                // or forged want-lists are dropped by the planner.
                if let Some(planner) = &mut self.chunked {
                    if let Some(fill) = planner.on_chunk_want(req_id, &cids) {
                        out.send(from, Msg::Ipfs(fill));
                    }
                }
            }
            Msg::Ipfs(IpfsWire::PutChunkedErr { req_id, .. })
                if self.pending_acks.contains_key(&req_id) =>
            {
                // The provider refused the negotiation (e.g. its state was
                // lost mid-fill after a crash). Keep the pending ack: the
                // retransmission timer re-sends the manifest and the
                // negotiation starts over.
                out.record("put_chunked_rejected", req_id as f64);
            }
            Msg::Ipfs(IpfsWire::GetOk { data, req_id, .. }) => {
                if self.chunked.is_some() {
                    self.on_chunked_get_ok(out, req_id, &data);
                } else {
                    let data = data.to_vec();
                    self.on_update_blob(out, req_id, &data);
                }
            }
            Msg::Ipfs(IpfsWire::GetErr { req_id, .. }) => {
                // Allow the poll loop to retry the partition.
                if let Some((partition, _)) = self.pending_gets.remove(&req_id) {
                    self.fetching.remove(&partition);
                } else if let Some(planner) = &mut self.chunked {
                    // A failed chunk fetch abandons the whole reassembly;
                    // polling re-offers the manifest later.
                    if let Some((tag, _)) = planner.chunk_failed(req_id) {
                        self.fetching.remove(&(tag as usize));
                    }
                }
            }
            Msg::OverlayPartial {
                trainer,
                partition,
                iter,
                data,
                count,
                commitment,
                signature,
            } => {
                if let Some(tree) = self.topo.overlay() {
                    self.on_overlay_partial(
                        out, &tree, trainer, partition, iter, data, count, commitment, signature,
                    );
                }
            }
            Msg::OverlayUpdate {
                partition,
                iter,
                data,
                signature,
            } if iter == self.iter => {
                if let Some(tree) = self.topo.overlay() {
                    self.on_overlay_update(out, &tree, partition, data, signature);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;
    use crate::gradient::derive_key;
    use crate::protocol::ProtocolAction;
    use dfl_ml::{data, LogisticRegression};

    fn trainer(cfg: TaskConfig, key: Option<ProtocolKey>) -> Trainer<LogisticRegression> {
        let model = LogisticRegression::new(2, 2);
        let params = model.params();
        let topo = Arc::new(Topology::new(cfg, params.len()).unwrap());
        let dataset = data::make_blobs(8, 2, 2, 0.5, 1);
        let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));
        Trainer::new(
            0,
            topo,
            key.map(Arc::new),
            model,
            params,
            dataset,
            SgdConfig::default(),
            sink,
        )
    }

    /// Regression: a storage acknowledgment colliding with a live request
    /// id in a mode with no storage route must be booked
    /// ([`IplsError::MisroutedAck`](crate::IplsError)) and dropped — it
    /// used to kill the node via
    /// `.expect("puts are only acked in storage-backed modes")`.
    #[test]
    fn misrouted_put_ack_is_booked_not_fatal() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 1,
            comm: CommMode::Direct,
            ..TaskConfig::default()
        };
        let mut trainer = trainer(cfg, None);
        // A frame delivered to the wrong node whose req_id collides with
        // a live one — per-node request ids are small integers.
        trainer.pending_acks.insert(7, 0);
        let mut out = Actions::new();
        trainer.handle(
            SimTime::ZERO,
            ProtocolEvent::Message {
                from: NodeId(1),
                msg: Msg::Ipfs(IpfsWire::PutAck {
                    cid: Cid::of(b"x"),
                    req_id: 7,
                }),
            },
            &mut out,
        );
        let booked = out.drain().any(
            |a| matches!(a, ProtocolAction::Incr { label, .. } if label == labels::MISROUTED_ACK),
        );
        assert!(booked, "misrouted ack must increment the counter");
    }

    /// Regression: a malformed update blob must never enter the deferred
    /// verification queue. It used to be queued before decoding, and the
    /// end-of-round flush then convicted it and dropped the correct
    /// refetch of the same partition along with it.
    #[test]
    fn malformed_update_is_never_queued_for_verification() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 2,
            verifiable: true,
            trainer_verifies: true,
            ..TaskConfig::default()
        };
        let key = derive_key(3, cfg.seed, false);
        let mut trainer = trainer(cfg, Some(key.clone()));
        let updates: Vec<Vec<u8>> = (0..2)
            .map(|p| build_blob(&vec![0.5; trainer.topo.partition_len(p)]))
            .collect();
        for (p, blob) in updates.iter().enumerate() {
            trainer
                .accumulators
                .insert(p, commit_blob(&key, blob).unwrap());
        }
        let mut out = Actions::new();
        let truncated = updates[0][..updates[0].len() - 3].to_vec();
        trainer.accept_update(&mut out, 0, truncated);
        assert!(trainer.pending_verify.is_empty());
        trainer.accept_update(&mut out, 0, updates[0].clone());
        trainer.accept_update(&mut out, 1, updates[1].clone());
        assert!(
            trainer.finished,
            "both verified partitions must finish the round"
        );
        let rejected = out.drain().any(|a| {
            matches!(
                a,
                ProtocolAction::Record {
                    label: "trainer_rejected_update",
                    ..
                }
            )
        });
        assert!(!rejected, "no verified update may be rejected");
    }
}
