//! The directory service (§III-C) — run by the trusted bootstrapper.
//!
//! Maintains the map from addressing tuples to CIDs, accumulates Pedersen
//! commitments per partition and per aggregator slot (§IV-B), verifies
//! registered updates against the accumulated commitments, answers
//! participant queries, and drives the round schedule.
//!
//! With `accountability` on, the directory is also the eviction authority:
//! a registered update that fails verification under the aggregator's own
//! signature becomes a [`Misbehavior`] proof (the directory signs it as
//! detector [`DIRECTORY_DETECTOR`] and gossips it on the evidence topic),
//! and peer-reported evidence is independently re-verified before the
//! offender is evicted — evicted aggregators' registrations are dropped.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;

use dfl_ipfs::{Cid, IpfsWire};
use dfl_netsim::{NodeId, SimDuration, SimTime};

use dfl_crypto::schnorr::{Signature, SigningKey, VerifyingKey};

use crate::accountability::{
    agg_verifying_key, directory_signing_key, Misbehavior, MisbehaviorKind, DIRECTORY_DETECTOR,
    EVIDENCE_TOPIC,
};
use crate::chunked::{ChunkProgress, ChunkedClient, ManifestOutcome};
use crate::config::Topology;
use crate::gradient::{verify_blobs_timed, ProtocolCommitment, ProtocolCurve, ProtocolKey};
use crate::labels;
use crate::messages::{
    batch_registration_message, registration_message, update_message, Msg, SignatureBytes,
};
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent};

/// Timer token kinds (high 32 bits of the token).
const TK_VERIFY: u64 = 1 << 32;

/// A pending update verification: the blob arrived, the virtual compute
/// time is being charged before the verdict applies.
struct PendingVerify {
    partition: usize,
    iter: u64,
    aggregator: usize,
    cid: Cid,
    from: NodeId,
    verdict: bool,
    /// Claimed contributor set (quorum-degraded updates; `None` = full).
    contributors: Option<Vec<u32>>,
    /// The registrant's signature (accountability mode) — what turns a
    /// failed verification into transferable evidence.
    signature: Option<SignatureBytes>,
    /// The fetched update blob, kept for the evidence record.
    blob: Vec<u8>,
}

/// Directory + bootstrapper actor.
pub struct Directory {
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    /// Gradient registrations: (partition, iter) → (trainer → cid).
    gradients: HashMap<(usize, u64), HashMap<usize, Cid>>,
    /// Individual gradient commitments: (partition, iter) → trainer → C.
    commitments: HashMap<(usize, u64), HashMap<usize, ProtocolCommitment>>,
    /// Accepted global updates: (partition, iter) → cid.
    updates: HashMap<(usize, u64), Cid>,
    /// In-flight update verifications keyed by storage request id.
    fetching: HashMap<u64, PendingVerify>,
    verifying: HashMap<u64, PendingVerify>,
    /// Trainers that reported the round done.
    done: HashMap<u64, HashSet<usize>>,
    /// Rounds whose first gradient hash has been recorded.
    first_hash_seen: HashSet<u64>,
    /// Rounds already announced.
    announced: HashSet<u64>,
    /// Rounds already recorded complete (quorum completion would otherwise
    /// re-fire on each late `TrainerDone`).
    completed: HashSet<u64>,
    next_req: u64,
    next_verify: u64,
    /// Count of rejected updates (exposed for tests/reports via trace too).
    rejected: usize,
    /// Trainer verifying keys (authenticated mode).
    trainer_keys: Vec<VerifyingKey<ProtocolCurve>>,
    /// Evicted aggregators (global indices); their registrations are
    /// dropped for the rest of the task.
    evicted: HashSet<usize>,
    /// `(offender, iter)` pairs evidence was already issued for.
    evidence_issued: HashSet<(usize, u64)>,
    /// Contributor sets of accepted quorum-degraded updates, so
    /// `QueryTotalAccumulator` answers with the accumulator the accepted
    /// update actually opens.
    accepted_contributors: HashMap<(usize, u64), Vec<u32>>,
    /// Chunked-storage download planner: update CIDs address manifests, so
    /// audit fetches must reassemble before verifying
    /// (`TaskConfig::chunked_storage`).
    chunked: Option<ChunkedClient>,
}

impl Directory {
    /// Creates the directory actor. `key` must be `Some` exactly when the
    /// task runs in verifiable mode.
    pub fn new(topo: Arc<Topology>, key: Option<Arc<ProtocolKey>>) -> Directory {
        assert_eq!(
            key.is_some(),
            topo.config().verifiable,
            "commitment key must match the verifiable flag"
        );
        let trainer_keys = if topo.config().authenticate {
            let seed = topo.config().seed.to_be_bytes();
            (0..topo.config().trainers)
                .map(|t| SigningKey::<ProtocolCurve>::derive(&seed, t as u64).verifying_key())
                .collect()
        } else {
            Vec::new()
        };
        let (chunked_storage, chunk_size) =
            (topo.config().chunked_storage, topo.config().chunk_size);
        Directory {
            topo,
            key,
            gradients: HashMap::new(),
            commitments: HashMap::new(),
            updates: HashMap::new(),
            fetching: HashMap::new(),
            verifying: HashMap::new(),
            done: HashMap::new(),
            first_hash_seen: HashSet::new(),
            announced: HashSet::new(),
            completed: HashSet::new(),
            next_req: 0,
            next_verify: 0,
            rejected: 0,
            trainer_keys,
            evicted: HashSet::new(),
            evidence_issued: HashSet::new(),
            accepted_contributors: HashMap::new(),
            chunked: chunked_storage.then(|| ChunkedClient::new(chunk_size)),
        }
    }

    /// Authenticates a registration; `true` when valid (or when the task
    /// does not require authentication).
    fn registration_authentic(
        &self,
        trainer: usize,
        partition: usize,
        iter: u64,
        cid: &dfl_ipfs::Cid,
        commitment: &Option<[u8; 33]>,
        signature: &Option<[u8; 65]>,
    ) -> bool {
        if !self.topo.config().authenticate {
            return true;
        }
        let Some(vk) = self.trainer_keys.get(trainer) else {
            return false;
        };
        let Some(sig_bytes) = signature else {
            return false;
        };
        let Some(sig) = Signature::<ProtocolCurve>::from_bytes(sig_bytes) else {
            return false;
        };
        let message = registration_message(trainer, partition, iter, cid, commitment);
        vk.verify(&message, &sig)
    }

    fn broadcast_round(&mut self, out: &mut Actions<Msg>, iter: u64) {
        if !self.announced.insert(iter) {
            return;
        }
        out.record(labels::ROUND_START, iter as f64);
        let msg = Msg::StartRound { iter };
        for g in 0..self.topo.config().total_aggregators() {
            out.send(self.topo.aggregator(g), msg.clone());
        }
        for t in 0..self.topo.config().trainers {
            out.send(self.topo.trainer(t), msg.clone());
        }
    }

    fn accumulated_for_slot(
        &self,
        partition: usize,
        iter: u64,
        agg_j: usize,
    ) -> Option<ProtocolCommitment> {
        let commits = self.commitments.get(&(partition, iter))?;
        let trainers = self.topo.trainer_set(partition, agg_j);
        let mut acc = ProtocolCommitment::identity();
        for t in &trainers {
            acc = acc.combine(commits.get(t)?);
        }
        Some(acc)
    }

    /// Accumulated commitment over *all* trainers of a partition — what a
    /// full-membership global update must open (§IV-B).
    fn accumulated_total(&self, partition: usize, iter: u64) -> Option<ProtocolCommitment> {
        let commits = self.commitments.get(&(partition, iter))?;
        if commits.len() != self.topo.config().trainers {
            return None;
        }
        // Unordered map iteration is safe here: commitment accumulation is
        // an exact group operation, so the product is order-independent.
        Some(ProtocolCommitment::accumulate(commits.values()))
    }

    /// Product of the registered commitments of an explicit trainer subset
    /// (quorum-degraded verification). `None` when any member's commitment
    /// has not been registered.
    fn accumulated_subset(
        &self,
        partition: usize,
        iter: u64,
        trainers: &[u32],
    ) -> Option<ProtocolCommitment> {
        let commits = self.commitments.get(&(partition, iter))?;
        let mut acc = ProtocolCommitment::identity();
        for t in trainers {
            acc = acc.combine(commits.get(&(*t as usize))?);
        }
        Some(acc)
    }

    /// What an update claiming `contributors` must open: the full total
    /// when `None`, the per-member subset product otherwise.
    fn expected_for_update(
        &self,
        partition: usize,
        iter: u64,
        contributors: &Option<Vec<u32>>,
    ) -> Option<ProtocolCommitment> {
        match contributors {
            None => self.accumulated_total(partition, iter),
            Some(set) => self.accumulated_subset(partition, iter, set),
        }
    }

    /// Whether a claimed contributor set is even admissible: only under a
    /// configured quorum, well-formed (strictly ascending, in range), and
    /// at least the quorum large.
    fn contributors_admissible(&self, contributors: &Option<Vec<u32>>) -> bool {
        let Some(set) = contributors else {
            return true;
        };
        let Some(q) = self.topo.config().min_quorum else {
            return false; // no quorum configured: only full-set updates
        };
        set.len() >= q
            && set.windows(2).all(|w| w[0] < w[1])
            && set
                .last()
                .is_none_or(|&t| (t as usize) < self.topo.config().trainers)
    }

    #[allow(clippy::too_many_arguments)]
    fn on_register_update(
        &mut self,
        out: &mut Actions<Msg>,
        from: NodeId,
        aggregator: usize,
        partition: usize,
        iter: u64,
        cid: Cid,
        contributors: Option<Vec<u32>>,
        signature: Option<SignatureBytes>,
    ) {
        if self.evicted.contains(&aggregator) {
            // Evicted aggregators are out of the protocol: their
            // registrations are dropped unconditionally.
            out.record(labels::EVICTED_REJECTED, aggregator as f64);
            return;
        }
        if self.topo.config().accountability {
            // Accountability requires the registration to be signed by the
            // aggregator's identity key — the signature is what makes a
            // failed verification attributable (and evictable).
            let message = update_message(aggregator, partition, iter, &cid, &contributors);
            let authentic = signature
                .and_then(|b| Signature::<ProtocolCurve>::from_bytes(&b))
                .is_some_and(|sig| {
                    agg_verifying_key(self.topo.config().seed, aggregator).verify(&message, &sig)
                });
            if !authentic {
                out.record(labels::FORGED_REGISTRATION, aggregator as f64);
                return;
            }
        }
        if let Some(accepted) = self.updates.get(&(partition, iter)) {
            // Someone already registered a valid update; only the first
            // counts (§IV-B). But under accountability a *conflicting*
            // registration (different bits for the same slot) is still
            // audited: if the loser's blob fails verification, that is
            // provable misbehavior even though the round already has its
            // update — without the audit an attacker who loses the race
            // escapes detection forever.
            let audit = self.topo.config().accountability && self.key.is_some() && *accepted != cid;
            if !audit {
                return;
            }
        }
        if !self.contributors_admissible(&contributors) {
            let pv = PendingVerify {
                partition,
                iter,
                aggregator,
                cid,
                from,
                verdict: false,
                contributors,
                signature,
                blob: Vec::new(),
            };
            self.reject_update(out, &pv);
            return;
        }
        if self.key.is_some() {
            // Fetch the update blob from storage, then verify.
            self.next_req += 1;
            let req_id = self.next_req;
            self.fetching.insert(
                req_id,
                PendingVerify {
                    partition,
                    iter,
                    aggregator,
                    cid,
                    from,
                    verdict: false,
                    contributors,
                    signature,
                    blob: Vec::new(),
                },
            );
            let get = IpfsWire::Get { cid, req_id };
            out.send(self.topo.ipfs_node(0), Msg::Ipfs(get));
        } else {
            self.accept_update(out, partition, iter, cid, contributors);
        }
    }

    fn accept_update(
        &mut self,
        out: &mut Actions<Msg>,
        partition: usize,
        iter: u64,
        cid: Cid,
        contributors: Option<Vec<u32>>,
    ) {
        self.updates.insert((partition, iter), cid);
        if let Some(set) = contributors {
            self.accepted_contributors.insert((partition, iter), set);
        }
        out.record(labels::UPDATE_REGISTERED, partition as f64);
    }

    fn reject_update(&mut self, out: &mut Actions<Msg>, pv: &PendingVerify) {
        self.rejected += 1;
        out.record(labels::VERIFICATION_FAILED, pv.partition as f64);
        // A second event keyed by the offender, for forensic reports.
        out.record("verification_failed_by", pv.aggregator as f64);
        if !pv.blob.is_empty() {
            out.record(labels::WASTED_BYTES, pv.blob.len() as f64);
        }
        self.maybe_issue_evidence(out, pv);
        let msg = Msg::UpdateRejected {
            partition: pv.partition,
            iter: pv.iter,
            reason: "update does not open the accumulated commitment".to_string(),
        };
        out.send(pv.from, msg);
    }

    /// Turns a failed, *signed* update verification into a transferable
    /// `BadUpdate` proof: the directory evicts the offender directly (it
    /// verified first-hand) and gossips the evidence so peer aggregators
    /// blacklist the slot too.
    fn maybe_issue_evidence(&mut self, out: &mut Actions<Msg>, pv: &PendingVerify) {
        if !self.topo.config().accountability || pv.blob.is_empty() {
            return;
        }
        let Some(offender_sig) = pv.signature else {
            return;
        };
        let Some(expected) = self.expected_for_update(pv.partition, pv.iter, &pv.contributors)
        else {
            return; // commitments incomplete: nothing provable
        };
        if !self.evidence_issued.insert((pv.aggregator, pv.iter)) {
            return;
        }
        out.record(labels::MISBEHAVIOR_DETECTED, pv.aggregator as f64);
        let slots = self.topo.config().aggregators_per_partition;
        let mut record = Misbehavior {
            kind: MisbehaviorKind::BadUpdate,
            partition: pv.partition,
            agg_j: pv.aggregator % slots,
            iter: pv.iter,
            cid: pv.cid,
            contributors: pv.contributors.clone().unwrap_or_default(),
            accumulator: expected.to_bytes(),
            blob: pv.blob.clone(),
            offender_sig,
            detector: 0,
            detector_sig: [0u8; 65],
        };
        let sk = directory_signing_key(self.topo.config().seed);
        record.sign_as_detector(DIRECTORY_DETECTOR, &sk);
        self.evict(out, pv.aggregator);
        let publish = IpfsWire::Publish {
            topic: EVIDENCE_TOPIC.to_string(),
            data: Bytes::from(record.encode()),
        };
        out.send(self.topo.ipfs_node(0), Msg::Ipfs(publish));
    }

    fn evict(&mut self, out: &mut Actions<Msg>, offender: usize) {
        if self.evicted.insert(offender) {
            out.record(labels::EVICTED, offender as f64);
        }
    }

    /// Independently re-verifies peer-reported evidence and evicts the
    /// offender when the proof holds. The expected accumulator is derived
    /// from the directory's own registered commitments — never taken from
    /// the report.
    fn on_report(&mut self, out: &mut Actions<Msg>, record_bytes: &[u8]) {
        if !self.topo.config().accountability {
            return;
        }
        let Some(record) = Misbehavior::decode(record_bytes) else {
            return;
        };
        let slots = self.topo.config().aggregators_per_partition;
        let offender = record.offender(slots);
        if offender >= self.topo.config().total_aggregators() || self.evicted.contains(&offender) {
            return;
        }
        let expected = match record.kind {
            MisbehaviorKind::BadPartial => {
                let set = self.topo.trainer_set(record.partition, record.agg_j);
                let full_claim =
                    record.contributors.is_empty() || record.contributors.len() == set.len();
                if self.topo.config().min_quorum.is_none() || full_claim {
                    self.accumulated_for_slot(record.partition, record.iter, record.agg_j)
                } else {
                    let ranks: Option<Vec<u32>> = record
                        .contributors
                        .iter()
                        .map(|&r| set.get(r as usize).map(|&t| t as u32))
                        .collect();
                    ranks.and_then(|ts| self.accumulated_subset(record.partition, record.iter, &ts))
                }
            }
            MisbehaviorKind::BadUpdate => {
                let contributors = if record.contributors.is_empty() {
                    None
                } else {
                    Some(record.contributors.clone())
                };
                self.expected_for_update(record.partition, record.iter, &contributors)
            }
        };
        let (Some(expected), Some(key)) = (expected, self.key.as_ref()) else {
            return;
        };
        let chunk_size = self
            .topo
            .config()
            .chunked_storage
            .then(|| self.topo.config().chunk_size);
        if record.verify(key, self.topo.config().seed, slots, &expected, chunk_size) {
            self.evict(out, offender);
        }
    }

    fn on_update_blob(&mut self, out: &mut Actions<Msg>, req_id: u64, data: &[u8], ok: bool) {
        let Some(mut pv) = self.fetching.remove(&req_id) else {
            return;
        };
        // An update blob reply reaching the verification path without a
        // commitment key means a storage frame was spoofed or misrouted
        // into a non-verifiable task
        // ([`IplsError::MissingCommitKey`](crate::IplsError)): book it and
        // drop the reply instead of panicking.
        let Some(key) = self.key.clone() else {
            out.incr(labels::MISSING_COMMIT_KEY, 1);
            return;
        };
        // Audited updates arrive one storage reply at a time, so each is
        // checked as a singleton batch; the virtual TK_VERIFY charge below
        // models its simulated cost.
        let verdict = ok
            && match self.expected_for_update(pv.partition, pv.iter, &pv.contributors) {
                Some(acc) => verify_blobs_timed(out, &key, &[(data, &acc)]).is_empty(),
                None => false, // not all gradients registered: incomplete
            };
        pv.verdict = verdict;
        pv.blob = data.to_vec();
        // Charge the virtual verification time, then apply the verdict.
        let elements = (data.len() / 8).max(1) as u64;
        let us = self.topo.config().commit_us_per_element * elements;
        self.next_verify += 1;
        let token = TK_VERIFY | self.next_verify;
        self.verifying.insert(self.next_verify, pv);
        out.set_timer(SimDuration::from_micros(us), token);
    }

    /// Chunked-mode `GetOk` routing for audit fetches: a reply under a
    /// `fetching` request id is the update's manifest (the registered CID
    /// addresses it); anything else is a chunk. Chunk downloads stripe
    /// across the storage nodes by slot index.
    fn on_chunked_get_ok(&mut self, out: &mut Actions<Msg>, req_id: u64, data: &Bytes) {
        if self.fetching.contains_key(&req_id) {
            let planner = self
                .chunked
                .as_mut()
                .expect("chunked mode checked by caller");
            match planner.on_manifest(req_id, req_id, data) {
                Ok(ManifestOutcome::Done { blob, .. }) => {
                    self.on_update_blob(out, req_id, &blob, true);
                }
                Ok(ManifestOutcome::Requests(requests)) => {
                    let nodes = self.topo.config().ipfs_nodes;
                    for (index, cid) in requests {
                        self.next_req += 1;
                        let chunk_req = self.next_req;
                        let k = index % nodes;
                        let to = self.topo.ipfs_node(k);
                        self.chunked
                            .as_mut()
                            .expect("chunked mode checked by caller")
                            .register_chunk_req(chunk_req, req_id, index, to, cid);
                        out.record(labels::CHUNK_STRIPE, k as f64);
                        let get = IpfsWire::GetChunk {
                            cid,
                            req_id: chunk_req,
                        };
                        out.send(to, Msg::Ipfs(get));
                    }
                }
                Err(_) => {
                    out.incr(labels::CHUNK_DECODE_FAILED, 1);
                    self.on_update_blob(out, req_id, &[], false);
                }
            }
        } else if let Some(planner) = &mut self.chunked {
            match planner.chunk_received(req_id, data) {
                ChunkProgress::NotMine | ChunkProgress::Progress => {}
                ChunkProgress::Done {
                    manifest_req, blob, ..
                } => self.on_update_blob(out, manifest_req, &blob, true),
                ChunkProgress::Corrupt { manifest_req, .. } => {
                    out.incr(labels::CHUNK_DECODE_FAILED, 1);
                    self.on_update_blob(out, manifest_req, &[], false);
                }
            }
        }
    }

    /// Chunked-mode `GetErr` routing: a failed manifest fetch fails the
    /// audit outright; a failed chunk abandons the whole reassembly and
    /// fails the owning audit (its tag is the manifest request id).
    fn on_chunked_get_err(&mut self, out: &mut Actions<Msg>, req_id: u64) {
        if self.fetching.contains_key(&req_id) {
            self.on_update_blob(out, req_id, &[], false);
        } else {
            let failed = self
                .chunked
                .as_mut()
                .and_then(|planner| planner.chunk_failed(req_id));
            if let Some((manifest_req, _)) = failed {
                self.on_update_blob(out, manifest_req, &[], false);
            }
        }
    }

    fn maybe_finish_round(&mut self, out: &mut Actions<Msg>, iter: u64) {
        // With a quorum configured, the round completes once that many
        // trainers report done: a crashed trainer must not stall the task.
        let needed = self
            .topo
            .config()
            .min_quorum
            .unwrap_or(self.topo.config().trainers);
        let enough = self.done.get(&iter).is_some_and(|set| set.len() >= needed);
        if !enough || !self.completed.insert(iter) {
            return;
        }
        out.record(labels::ROUND_COMPLETE, iter as f64);
        if iter + 1 < self.topo.config().rounds {
            self.broadcast_round(out, iter + 1);
        } else {
            out.record(labels::TASK_COMPLETE, self.topo.config().rounds as f64);
        }
    }
}

impl ProtocolCore for Directory {
    type Msg = Msg;

    fn handle(&mut self, _now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        let (from, msg) = match event {
            ProtocolEvent::Start => {
                self.broadcast_round(out, 0);
                return;
            }
            ProtocolEvent::Timer { token } => {
                self.on_timer(out, token);
                return;
            }
            ProtocolEvent::Fault { .. } => return,
            ProtocolEvent::DeliveryFailure { .. } => {
                out.incr(labels::DELIVERY_FAILED, 1);
                return;
            }
            ProtocolEvent::Message { from, msg } => (from, msg),
        };
        self.on_message(out, from, msg);
    }
}

impl Directory {
    fn on_timer(&mut self, out: &mut Actions<Msg>, token: u64) {
        if token & TK_VERIFY != 0 {
            let Some(pv) = self.verifying.remove(&(token & 0xFFFF_FFFF)) else {
                return;
            };
            if pv.verdict {
                if !self.updates.contains_key(&(pv.partition, pv.iter)) {
                    let contributors = pv.contributors.clone();
                    self.accept_update(out, pv.partition, pv.iter, pv.cid, contributors);
                }
                // else: raced with an earlier valid registration; the
                // audited blob verified, so there is nothing to report.
            } else {
                self.reject_update(out, &pv);
            }
        }
    }

    fn on_message(&mut self, out: &mut Actions<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::RegisterGradientBatch {
                trainer,
                iter,
                entries,
                signature,
            } => {
                let authentic = if self.topo.config().authenticate {
                    let msg_bytes = batch_registration_message(trainer, iter, &entries);
                    self.trainer_keys.get(trainer).is_some_and(|vk| {
                        signature
                            .and_then(|b| Signature::<ProtocolCurve>::from_bytes(&b))
                            .is_some_and(|sig| vk.verify(&msg_bytes, &sig))
                    })
                } else {
                    true
                };
                if !authentic {
                    out.record(labels::FORGED_REGISTRATION, trainer as f64);
                    return;
                }
                if self.first_hash_seen.insert(iter) {
                    out.record(labels::FIRST_GRADIENT_HASH, iter as f64);
                }
                for (partition, cid, commitment) in entries {
                    self.gradients
                        .entry((partition, iter))
                        .or_default()
                        .insert(trainer, cid);
                    if let Some(bytes) = commitment {
                        if let Some(c) = ProtocolCommitment::from_bytes(&bytes) {
                            self.commitments
                                .entry((partition, iter))
                                .or_default()
                                .insert(trainer, c);
                        }
                    }
                }
            }
            Msg::RegisterGradient {
                trainer,
                partition,
                iter,
                cid,
                commitment,
                signature,
            } => {
                if !self.registration_authentic(
                    trainer,
                    partition,
                    iter,
                    &cid,
                    &commitment,
                    &signature,
                ) {
                    // Forged or unsigned registration: discard and flag.
                    out.record(labels::FORGED_REGISTRATION, trainer as f64);
                    return;
                }
                if self.first_hash_seen.insert(iter) {
                    out.record(labels::FIRST_GRADIENT_HASH, iter as f64);
                }
                self.gradients
                    .entry((partition, iter))
                    .or_default()
                    .insert(trainer, cid);
                if let Some(bytes) = commitment {
                    if let Some(c) = ProtocolCommitment::from_bytes(&bytes) {
                        self.commitments
                            .entry((partition, iter))
                            .or_default()
                            .insert(trainer, c);
                    }
                }
            }
            Msg::QueryGradients {
                partition,
                agg_j,
                iter,
            } => {
                let trainers = self.topo.trainer_set(partition, agg_j);
                let registered = self.gradients.get(&(partition, iter));
                let commits = self.commitments.get(&(partition, iter));
                let entries: Vec<(usize, Cid, Option<[u8; 33]>)> = trainers
                    .into_iter()
                    .filter_map(|t| {
                        let cid = registered.and_then(|m| m.get(&t))?;
                        let commitment = commits.and_then(|m| m.get(&t)).map(|c| c.to_bytes());
                        Some((t, *cid, commitment))
                    })
                    .collect();
                let reply = Msg::GradientList {
                    partition,
                    iter,
                    entries,
                };
                out.send(from, reply);
            }
            Msg::QueryAccumulators { partition, iter } => {
                let accumulated: Vec<Option<[u8; 33]>> =
                    (0..self.topo.config().aggregators_per_partition)
                        .map(|j| {
                            self.accumulated_for_slot(partition, iter, j)
                                .map(|c| c.to_bytes())
                        })
                        .collect();
                let reply = Msg::Accumulators {
                    partition,
                    iter,
                    accumulated,
                };
                out.send(from, reply);
            }
            Msg::RegisterUpdate {
                aggregator,
                partition,
                iter,
                cid,
                contributors,
                signature,
            } => {
                self.on_register_update(
                    out,
                    from,
                    aggregator,
                    partition,
                    iter,
                    cid,
                    contributors,
                    signature,
                );
            }
            Msg::ReportMisbehavior { record } => {
                self.on_report(out, &record);
            }
            Msg::QueryTotalAccumulator { partition, iter } => {
                // After a quorum-degraded round the accepted update opens
                // the product over its contributor set, not the full total
                // — answer with what the accepted update actually opens.
                let accumulated = match self.accepted_contributors.get(&(partition, iter)) {
                    Some(set) => self.accumulated_subset(partition, iter, set),
                    None => self.accumulated_total(partition, iter),
                }
                .map(|c| c.to_bytes());
                let reply = Msg::TotalAccumulator {
                    partition,
                    iter,
                    accumulated,
                };
                out.send(from, reply);
            }
            Msg::QueryUpdate { partition, iter } => {
                let cid = self.updates.get(&(partition, iter)).copied();
                let reply = Msg::UpdateInfo {
                    partition,
                    iter,
                    cid,
                };
                out.send(from, reply);
            }
            Msg::TrainerDone { trainer, iter } => {
                self.done.entry(iter).or_default().insert(trainer);
                self.maybe_finish_round(out, iter);
            }
            Msg::Ipfs(IpfsWire::GetOk { data, req_id, .. }) => {
                if self.chunked.is_some() {
                    self.on_chunked_get_ok(out, req_id, &data);
                } else {
                    let data = data.to_vec();
                    self.on_update_blob(out, req_id, &data, true);
                }
            }
            Msg::Ipfs(IpfsWire::GetErr { req_id, .. }) => {
                if self.chunked.is_some() {
                    self.on_chunked_get_err(out, req_id);
                } else {
                    self.on_update_blob(out, req_id, &[], false);
                }
            }
            // Other storage responses (acks for nothing we sent) and
            // protocol messages not addressed to the directory are ignored.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;

    fn topo(verifiable: bool) -> Arc<Topology> {
        let cfg = TaskConfig {
            trainers: 4,
            partitions: 2,
            aggregators_per_partition: 2,
            ipfs_nodes: 2,
            verifiable,
            ..TaskConfig::default()
        };
        Arc::new(Topology::new(cfg, 8).unwrap())
    }

    #[test]
    fn key_flag_mismatch_panics() {
        let result = std::panic::catch_unwind(|| Directory::new(topo(true), None));
        assert!(result.is_err());
    }

    #[test]
    fn accumulators_require_full_trainer_set() {
        use crate::gradient::{commit_blob, derive_key};
        let topo = topo(true);
        let key = Arc::new(derive_key(topo.max_partition_len(), 0, true));
        let mut dir = Directory::new(topo.clone(), Some(key.clone()));

        // Register commitments for trainers 0 and 2 (slot j=0 of |A_i|=2).
        let blob = crate::gradient::build_blob(&[1.0; 4]);
        let c = commit_blob(&key, &blob).unwrap();
        for t in [0usize, 2] {
            dir.commitments.entry((0, 0)).or_default().insert(t, c);
        }
        // Slot 0 (T_00 = {0, 2}) is complete; slot 1 (T_01 = {1, 3}) is not.
        assert!(dir.accumulated_for_slot(0, 0, 0).is_some());
        assert!(dir.accumulated_for_slot(0, 0, 1).is_none());
        // Total accumulation needs all 4 trainers.
        assert!(dir.accumulated_total(0, 0).is_none());
        for t in [1usize, 3] {
            dir.commitments.entry((0, 0)).or_default().insert(t, c);
        }
        assert!(dir.accumulated_total(0, 0).is_some());
    }

    /// Regression: a storage reply reaching the update-verification path
    /// in a non-verifiable task (spoofed or misrouted frame) must be
    /// booked ([`IplsError::MissingCommitKey`](crate::IplsError)) and
    /// dropped — it used to kill the directory via
    /// `.expect("verifiable mode")`.
    #[test]
    fn update_blob_without_commit_key_is_booked_not_fatal() {
        use crate::protocol::{Actions, ProtocolAction};
        let mut dir = Directory::new(topo(false), None);
        dir.fetching.insert(
            5,
            PendingVerify {
                partition: 0,
                iter: 0,
                aggregator: 0,
                cid: Cid::of(b"u"),
                from: NodeId(1),
                verdict: false,
                contributors: None,
                signature: None,
                blob: Vec::new(),
            },
        );
        let mut out = Actions::new();
        dir.on_update_blob(&mut out, 5, b"update-bytes", true);
        let booked = out.drain().any(|a| {
            matches!(a, ProtocolAction::Incr { label, .. } if label == labels::MISSING_COMMIT_KEY)
        });
        assert!(booked, "missing commit key must increment the counter");
        assert!(
            dir.verifying.is_empty(),
            "nothing must reach the verdict stage"
        );
    }
}
