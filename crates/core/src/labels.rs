//! Trace labels recorded by protocol actors; the runner turns these into
//! the delay metrics the paper reports.

/// Directory: round `iter` announced (value = iter).
pub const ROUND_START: &str = "round_start";
/// Directory: first gradient hash of the round written (value = iter).
/// Aggregation delay is measured from this instant (§V).
pub const FIRST_GRADIENT_HASH: &str = "first_gradient_hash";
/// Trainer: began uploading gradients (value = iter).
pub const UPLOAD_START: &str = "upload_start";
/// Trainer: all gradient uploads acknowledged (value = iter). The upload
/// delay is `UPLOAD_DONE − UPLOAD_START` (§V).
pub const UPLOAD_DONE: &str = "upload_done";
/// Aggregator: all of `T_ij`'s gradients aggregated (value = iter).
pub const GRADS_AGGREGATED: &str = "grads_aggregated";
/// Aggregator: all peer partials combined into the global partition
/// (value = iter). Sync delay is `SYNC_DONE − GRADS_AGGREGATED`.
pub const SYNC_DONE: &str = "sync_done";
/// Directory: a partition's global update registered and accepted
/// (value = partition index).
pub const UPDATE_REGISTERED: &str = "update_registered";
/// Directory: an update failed commitment verification (value = partition).
pub const VERIFICATION_FAILED: &str = "verification_failed";
/// Directory: every trainer finished the round (value = iter).
pub const ROUND_COMPLETE: &str = "round_complete";
/// Directory: all rounds finished (value = total rounds).
pub const TASK_COMPLETE: &str = "task_complete";
/// Trainer: rebuilt the model from updated partitions (value = iter).
pub const TRAINER_ROUND_DONE: &str = "trainer_round_done";
/// Aggregator: recovered a dead peer's trainer set at the sync deadline
/// (value = the missing peer's index).
pub const DROPOUT_RECOVERY: &str = "dropout_recovery";
/// Directory: a registration failed signature verification (value = the
/// claimed trainer index).
pub const FORGED_REGISTRATION: &str = "forged_registration";
/// Aggregator: the sync deadline passed and the round continued with a
/// quorum of the received gradients instead of the full trainer set
/// (value = number of gradients missing).
pub const QUORUM_DEGRADED: &str = "quorum_degraded";
/// Aggregator: a merge-and-download RPC failed and the aggregator fell
/// back to fetching that provider's gradients individually (value = number
/// of CIDs fetched individually).
pub const MERGE_FALLBACK: &str = "merge_fallback";
/// Aggregator: summing gradients overflowed the fixed-point range and the
/// aggregate was abandoned rather than silently clamped (value = iter).
pub const SUM_OVERFLOW: &str = "sum_overflow";
/// A commitment mismatch was pinned on a specific aggregator — by a peer
/// whose fetched partial failed verification, or by the directory whose
/// registered update failed verification (value = offending aggregator's
/// global index).
pub const MISBEHAVIOR_DETECTED: &str = "misbehavior_detected";
/// Directory: an aggregator was evicted on valid misbehavior evidence;
/// its future update registrations are ignored (value = offender index).
pub const EVICTED: &str = "evicted";
/// Directory: a registration from an evicted aggregator was dropped
/// (value = offender index).
pub const EVICTED_REJECTED: &str = "evicted_rejected";
/// Aggregator: a partition peer was locally blacklisted — either on
/// re-verified misbehavior evidence or on watchdog timeout suspicion
/// (value = the blacklisted slot's global aggregator index).
pub const PEER_BLACKLISTED: &str = "peer_blacklisted";
/// Aggregator: a round's partition sync completed using gradients
/// re-downloaded from storage in place of at least one peer partial
/// (value = iter).
pub const ROUND_RECOVERED: &str = "round_recovered";
/// Bytes fetched, stored, or uploaded for data that misbehavior later
/// invalidated (value = byte count; summed by the runner).
pub const WASTED_BYTES: &str = "wasted_bytes";
/// Aggregator: started gathering its trainers' gradients — the first
/// own-gradient fetch or merge RPC of the round (value = iter). The merge
/// delay is `GRADS_AGGREGATED − FETCH_START`.
pub const FETCH_START: &str = "fetch_start";
/// Histogram label: wall-clock milliseconds spent on one batch check of
/// gradient blobs against their commitments (trainer, aggregator, and
/// directory verify paths). Wall-clock — excluded from determinism
/// comparisons.
pub const VERIFY_MS: &str = "verify_ms";
/// Counter: total gradient blobs whose commitment was checked. Each blob
/// is counted when it is received for checking (enqueue time for deferred
/// queues, drain time for stash drains, arrival for singleton checks), so
/// rounds that stall before a flush still count it and `dfl report` never
/// under-counts verification work.
pub const BLOBS_VERIFIED: &str = "blobs_verified";
/// Histogram label: verification batch size — one sample per batch check
/// (the queue length; 1.0 for a singleton). Batch sizes depend only on
/// simulated behaviour; as a histogram they stay out of trace
/// fingerprints, so batching policy can change without moving one.
pub const VERIFY_BATCHED: &str = "verify_batched";
/// Counter: the backend reported a delivery failure
/// ([`ProtocolEvent::DeliveryFailure`](crate::ProtocolEvent)) — an
/// outbound message was dropped after connection supervision exhausted
/// its retries or the per-peer queue overflowed. Only real-socket
/// backends emit these; in netsim every loss is injected and traced.
pub const DELIVERY_FAILED: &str = "delivery_failed";
/// Counter: a merge group named a provider absent from the grouped member
/// map ([`IplsError::UnlistedProvider`](crate::IplsError)). The member
/// lists derive from directory messages, so the mismatch is booked and the
/// provider skipped instead of panicking.
pub const UNLISTED_PROVIDER: &str = "unlisted_provider";
/// Counter: a storage acknowledgment arrived for a request this node never
/// routed through storage ([`IplsError::MisroutedAck`](crate::IplsError))
/// — a misrouted or duplicated frame from a remote backend. Dropped.
pub const MISROUTED_ACK: &str = "misrouted_ack";
/// Counter: an update blob reply reached a verification path without a
/// commitment key ([`IplsError::MissingCommitKey`](crate::IplsError)).
/// Dropped instead of panicking.
pub const MISSING_COMMIT_KEY: &str = "missing_commit_key";
/// Trainer (overlay mode): forwarded its level's partial — own gradient
/// plus verified child partials — one hop up the aggregation tree
/// (value = partition index).
pub const OVERLAY_FORWARDED: &str = "overlay_forwarded";
/// Trainer (overlay mode): received one child's partial (value =
/// partition index). Per-node event counts of this label bound the
/// measured fan-in at every interior node.
pub const OVERLAY_CHILD_RECV: &str = "overlay_child_recv";
/// Trainer (overlay mode): a child partial failed its Pedersen opening
/// or signature check and was excluded from the level's sum (value = the
/// offending child's trainer index).
pub const OVERLAY_CHILD_REJECTED: &str = "overlay_child_rejected";
/// Trainer (overlay mode): the level deadline fired before every child
/// delivered; the partial went up with the contributions that arrived
/// (value = number of children missing).
pub const OVERLAY_TIMEOUT: &str = "overlay_timeout";
/// Aggregator (overlay mode): processed one protocol message (value =
/// iter). Per-aggregator event counts of this label are the sub-linear
/// per-node work measurement of the overlay bench.
pub const OVERLAY_AGG_MSG: &str = "overlay_agg_msg";
/// Aggregator (overlay mode): a root partial failed verification and was
/// dropped (value = the claimed root trainer index).
pub const OVERLAY_PARTIAL_REJECTED: &str = "overlay_partial_rejected";
/// Aggregator (overlay mode): pushed the final partition update into the
/// dissemination tree (value = iter).
pub const OVERLAY_UPDATE_PUSHED: &str = "overlay_update_pushed";
/// Trainer (overlay mode): an update pushed down the tree failed its
/// aggregator signature check and was dropped (value = partition).
pub const OVERLAY_UPDATE_REJECTED: &str = "overlay_update_rejected";
/// Client (chunked storage): chunks actually shipped over the wire in a
/// `ChunkFill` after the provider's want-list negotiation (counter).
pub const CHUNKS_SENT: &str = "chunks_sent";
/// Client (chunked storage): chunks the provider already held, elided
/// from the upload entirely — the cross-round dedup win (counter).
pub const CHUNKS_DEDUPED: &str = "chunks_deduped";
/// Client (chunked storage): payload bytes saved by dedup — the sum of
/// the elided chunks' lengths (counter).
pub const DEDUP_BYTES_SAVED: &str = "dedup_bytes_saved";
/// Client (chunked storage): a reassembled blob failed manifest or CID
/// verification and was dropped before decode (counter).
pub const CHUNK_DECODE_FAILED: &str = "chunk_decode_failed";
/// Client (chunked storage): a chunk request was issued to a storage node
/// (value = that node's storage index). Per-value event counts are the
/// per-provider stripe distribution in [`TaskReport`].
///
/// [`TaskReport`]: crate::runner::TaskReport
pub const CHUNK_STRIPE: &str = "chunk_stripe";
