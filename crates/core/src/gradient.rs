//! Gradient blob codec: how parameter partitions travel over the storage
//! network.
//!
//! Per Algorithm 1, a trainer uploads `[gradU[i], 1]` — the partition's
//! values with an appended counter element — and after aggregation divides
//! the summed vector by the summed counter (lines 14 and 20–21). Values are
//! fixed-point quantized ([`dfl_crypto::quantize`]) so that storage-side
//! merging, aggregator summation, and Pedersen commitments all operate in
//! the same exact arithmetic.

use dfl_crypto::curve::Secp256k1;
use dfl_crypto::pedersen::{CommitKey, Commitment};
use dfl_crypto::quantize::{decode, encode, sum_quantized, to_scalars, Quantized};

use crate::error::IplsError;
use crate::protocol::Actions;

/// The curve the protocol's commitments use.
pub type ProtocolCurve = Secp256k1;
/// Commitment key type for the protocol.
pub type ProtocolKey = CommitKey<ProtocolCurve>;
/// Commitment type for the protocol.
pub type ProtocolCommitment = Commitment<ProtocolCurve>;

/// Builds the upload blob for one partition: `quantize(values ++ [1.0])`.
pub fn build_blob(values: &[f32]) -> Vec<u8> {
    let mut quantized: Vec<Quantized> = values
        .iter()
        .map(|&v| Quantized::from_f64(v as f64))
        .collect();
    quantized.push(Quantized::from_f64(1.0)); // the averaging counter
    encode(&quantized)
}

/// Decodes a blob into its quantized vector (values + counter).
pub fn decode_blob(blob: &[u8]) -> Option<Vec<Quantized>> {
    let v = decode(blob)?;
    if v.len() < 2 {
        return None; // at least one value plus the counter
    }
    Some(v)
}

/// Decodes an aggregated update blob and divides by the counter, returning
/// the averaged partition values (Algorithm 1 lines 20–21).
///
/// Returns `None` when the blob is malformed or the counter is not
/// positive.
pub fn decode_update(blob: &[u8]) -> Option<(Vec<f32>, u64)> {
    let v = decode_blob(blob)?;
    let (values, counter) = v.split_at(v.len() - 1);
    let count = counter[0].to_f64();
    if count < 1.0 || count.fract() != 0.0 {
        return None;
    }
    let averaged = values.iter().map(|q| (q.to_f64() / count) as f32).collect();
    Some((averaged, count as u64))
}

/// Element-wise sum of decoded gradient vectors (values and counters alike).
///
/// The exact `i128` sum of [`sum_quantized`], the same one storage-side
/// merges use, with overflow reported explicitly: a sum past the `i64`
/// fixed-point range would both skew the averaged update and break the
/// homomorphic commitment check (the commitments accumulate the TRUE sum,
/// not a clamped one).
///
/// # Panics
///
/// Panics if the vectors differ in length or the input is empty.
pub fn sum_gradients(grads: &[Vec<Quantized>]) -> Result<Vec<Quantized>, IplsError> {
    assert!(!grads.is_empty(), "nothing to sum");
    sum_quantized(grads).ok_or(IplsError::Overflow)
}

/// Commits to a blob's quantized vector (including the counter element).
///
/// Returns [`IplsError::MalformedBlob`] when the blob does not decode —
/// blobs can arrive from Byzantine peers (e.g. the recovery re-commit
/// path), so a malformed one must never panic an honest node.
///
/// # Panics
///
/// Panics if the decoded vector is longer than the key (a configuration
/// invariant: keys are derived for the task's maximum partition length).
pub fn commit_blob(key: &ProtocolKey, blob: &[u8]) -> Result<ProtocolCommitment, IplsError> {
    let v = decode_blob(blob).ok_or(IplsError::MalformedBlob)?;
    Ok(key.commit(&to_scalars::<ProtocolCurve>(&v)))
}

/// Verifies that `blob` opens `commitment`.
pub fn verify_blob(key: &ProtocolKey, blob: &[u8], commitment: &ProtocolCommitment) -> bool {
    match decode_blob(blob) {
        Some(v) => key.verify(&to_scalars::<ProtocolCurve>(&v), commitment),
        None => false,
    }
}

/// Verifies a whole queue of `(blob, commitment)` pairs with one
/// random-linear-combination check ([`CommitKey::batch_check`]), bisecting
/// on failure so the returned indices are exactly the pairs that
/// [`verify_blob`] would reject one at a time — malformed blobs included.
/// The blob bytes double as the Fiat–Shamir binding (they uniquely
/// determine the decoded scalars), which keeps transcript hashing at 8
/// bytes per element.
///
/// Books one [`labels::VERIFY_MS`](crate::labels::VERIFY_MS) wall-clock
/// sample for the whole flush, bumps
/// [`labels::BLOBS_VERIFIED`](crate::labels::BLOBS_VERIFIED) by the queue
/// length, and records the batch size under
/// [`labels::VERIFY_BATCHED`](crate::labels::VERIFY_BATCHED). Wall-clock
/// time is real (not simulated) and varies run to run; determinism
/// comparisons deliberately cover only events and byte counters.
///
/// Use this when the blobs are checked the moment they arrive (singleton
/// batches, stash drains). Deferred queues that count blobs at enqueue
/// time call [`flush_verify_queue`] instead.
///
/// Returns the sorted indices of the failing pairs (empty = all verified).
pub fn verify_blobs_timed<M>(
    out: &mut Actions<M>,
    key: &ProtocolKey,
    items: &[(&[u8], &ProtocolCommitment)],
) -> Vec<usize> {
    if items.is_empty() {
        return Vec::new();
    }
    out.incr(crate::labels::BLOBS_VERIFIED, items.len() as u64);
    flush_verify_queue(out, key, items)
}

/// [`verify_blobs_timed`] minus the
/// [`labels::BLOBS_VERIFIED`](crate::labels::BLOBS_VERIFIED) bump: books
/// the [`labels::VERIFY_MS`](crate::labels::VERIFY_MS) wall-clock sample
/// and the [`labels::VERIFY_BATCHED`](crate::labels::VERIFY_BATCHED) batch
/// size, but leaves blob counting to the caller. Deferred verification
/// queues bump the counter when a blob is *enqueued*, so rounds that stall
/// before any flush happens still report every blob they received.
pub fn flush_verify_queue<M>(
    out: &mut Actions<M>,
    key: &ProtocolKey,
    items: &[(&[u8], &ProtocolCommitment)],
) -> Vec<usize> {
    use dfl_crypto::pedersen::BatchEntry;
    if items.is_empty() {
        return Vec::new();
    }
    let started = std::time::Instant::now();
    // Malformed blobs can never open a commitment: convict them up front
    // and batch the RLC over the decodable remainder.
    let mut culprits: Vec<usize> = Vec::new();
    let mut decoded: Vec<(usize, Vec<dfl_crypto::curve::Scalar<ProtocolCurve>>)> = Vec::new();
    for (i, (blob, _)) in items.iter().enumerate() {
        match decode_blob(blob) {
            Some(v) => decoded.push((i, to_scalars::<ProtocolCurve>(&v))),
            None => culprits.push(i),
        }
    }
    let entries: Vec<BatchEntry<'_, ProtocolCurve>> = decoded
        .iter()
        .map(|(i, scalars)| BatchEntry::with_binding(scalars, items[*i].1, items[*i].0))
        .collect();
    culprits.extend(key.batch_culprits(&entries).iter().map(|&j| decoded[j].0));
    culprits.sort_unstable();
    out.observe(
        crate::labels::VERIFY_MS,
        started.elapsed().as_secs_f64() * 1e3,
    );
    out.observe(crate::labels::VERIFY_BATCHED, items.len() as f64);
    culprits
}

/// Derives the protocol commitment key for a task: enough generators for
/// the largest partition plus the counter element.
///
/// `precompute` additionally builds the key's fixed-base MSM table
/// ([`CommitKey::precompute`]) — a one-time per-task cost that makes every
/// subsequent commit and verification take the table fast path. All peers
/// derive identical keys either way; the table is derived data and does
/// not affect key equality.
pub fn derive_key(max_partition_len: usize, task_seed: u64, precompute: bool) -> ProtocolKey {
    let mut seed = b"ipls-task-".to_vec();
    seed.extend_from_slice(&task_seed.to_be_bytes());
    if precompute {
        CommitKey::setup_precomputed(max_partition_len + 1, &seed)
    } else {
        CommitKey::setup(max_partition_len + 1, &seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolAction;
    use proptest::prelude::*;

    #[test]
    fn blob_round_trip_single_trainer() {
        let values = [0.5f32, -1.25, 3.0];
        let blob = build_blob(&values);
        let (avg, count) = decode_update(&blob).unwrap();
        assert_eq!(count, 1);
        assert_eq!(avg, values);
    }

    #[test]
    fn sum_then_average_matches_mean() {
        let blobs = [
            build_blob(&[1.0, 2.0]),
            build_blob(&[3.0, 6.0]),
            build_blob(&[5.0, 1.0]),
        ];
        let decoded: Vec<_> = blobs.iter().map(|b| decode_blob(b).unwrap()).collect();
        let summed = sum_gradients(&decoded).unwrap();
        let (avg, count) = decode_update(&encode(&summed)).unwrap();
        assert_eq!(count, 3);
        assert_eq!(avg, vec![3.0, 3.0]);
    }

    #[test]
    fn storage_merge_equals_aggregator_sum() {
        // The merge-and-download path and the naive path must agree bit-
        // for-bit: merging blobs at a storage node produces exactly the sum
        // the aggregator would compute.
        let b1 = build_blob(&[0.25, -1.0, 2.0]);
        let b2 = build_blob(&[1.75, 1.0, -2.0]);
        let merged = dfl_ipfs::merge::merge_blobs(&[b1.as_slice(), b2.as_slice()]).unwrap();
        let summed =
            sum_gradients(&[decode_blob(&b1).unwrap(), decode_blob(&b2).unwrap()]).unwrap();
        assert_eq!(decode(&merged).unwrap(), summed);
    }

    #[test]
    fn decode_update_rejects_malformed() {
        assert!(decode_update(&[1, 2, 3]).is_none()); // not 8-aligned
        assert!(decode_update(&[]).is_none());
        // A single element (counter only, no values) is rejected.
        assert!(decode_update(&encode(&[Quantized::from_f64(1.0)])).is_none());
        // Zero counter rejected.
        let mut v = decode_blob(&build_blob(&[1.0])).unwrap();
        let last = v.len() - 1;
        v[last] = Quantized(0);
        assert!(decode_update(&encode(&v)).is_none());
    }

    #[test]
    fn commitments_verify_and_accumulate() {
        let key = derive_key(4, 7, false);
        let b1 = build_blob(&[1.0, -2.0, 0.5, 0.0]);
        let b2 = build_blob(&[0.5, 2.0, 1.5, -1.0]);
        let c1 = commit_blob(&key, &b1).unwrap();
        let c2 = commit_blob(&key, &b2).unwrap();
        assert!(verify_blob(&key, &b1, &c1));
        assert!(!verify_blob(&key, &b1, &c2));

        // Accumulated commitment opens the aggregated blob.
        let summed =
            sum_gradients(&[decode_blob(&b1).unwrap(), decode_blob(&b2).unwrap()]).unwrap();
        let agg_blob = encode(&summed);
        let acc = c1.combine(&c2);
        assert!(verify_blob(&key, &agg_blob, &acc));
    }

    #[test]
    fn dropped_gradient_breaks_verification() {
        // Completeness (§III-A): omitting one trainer's gradient makes the
        // update fail against the accumulated commitment.
        let key = derive_key(2, 7, false);
        let blobs = [
            build_blob(&[1.0, 1.0]),
            build_blob(&[2.0, 2.0]),
            build_blob(&[3.0, 3.0]),
        ];
        let commits: Vec<_> = blobs
            .iter()
            .map(|b| commit_blob(&key, b).unwrap())
            .collect();
        let acc = Commitment::accumulate(&commits);
        // Malicious aggregator drops blob 1.
        let partial = sum_gradients(&[
            decode_blob(&blobs[0]).unwrap(),
            decode_blob(&blobs[2]).unwrap(),
        ])
        .unwrap();
        assert!(!verify_blob(&key, &encode(&partial), &acc));
    }

    #[test]
    fn altered_gradient_breaks_verification() {
        // Correctness (§III-A): perturbing one element fails verification.
        let key = derive_key(2, 7, false);
        let blobs = [build_blob(&[1.0, 1.0]), build_blob(&[2.0, 2.0])];
        let commits: Vec<_> = blobs
            .iter()
            .map(|b| commit_blob(&key, b).unwrap())
            .collect();
        let acc = Commitment::accumulate(&commits);
        let mut summed = sum_gradients(&[
            decode_blob(&blobs[0]).unwrap(),
            decode_blob(&blobs[1]).unwrap(),
        ])
        .unwrap();
        summed[0] = Quantized(summed[0].0 + 1);
        assert!(!verify_blob(&key, &encode(&summed), &acc));
    }

    #[test]
    fn sum_reports_overflow_instead_of_saturating() {
        // Regression: two near-max quantized values used to clamp at
        // i64::MAX silently, corrupting the average AND the commitment
        // check. The boundary case (sum == i64::MAX exactly) must still
        // succeed; one past it must error.
        let near = Quantized(i64::MAX - 1);
        let at_boundary =
            sum_gradients(&[vec![near, Quantized(1)], vec![Quantized(1), Quantized(1)]]);
        assert_eq!(at_boundary.unwrap()[0], Quantized(i64::MAX));
        let past = sum_gradients(&[vec![near, Quantized(1)], vec![Quantized(2), Quantized(1)]]);
        assert_eq!(past.unwrap_err(), IplsError::Overflow);
        // Same at the negative end.
        let low = Quantized(i64::MIN + 1);
        let neg = sum_gradients(&[vec![low, Quantized(1)], vec![Quantized(-2), Quantized(1)]]);
        assert_eq!(neg.unwrap_err(), IplsError::Overflow);
    }

    #[test]
    fn commit_blob_rejects_malformed_instead_of_panicking() {
        // Regression: a truncated blob from a Byzantine peer used to hit
        // `expect("well-formed gradient blob")` and take the node down.
        let key = derive_key(4, 7, false);
        let good = build_blob(&[1.0, -2.0, 0.5, 0.0]);
        let truncated = &good[..good.len() - 3]; // not 8-byte aligned
        assert_eq!(
            commit_blob(&key, truncated).unwrap_err(),
            IplsError::MalformedBlob
        );
        assert_eq!(
            commit_blob(&key, &[]).unwrap_err(),
            IplsError::MalformedBlob
        );
        // Counter-only blob (one element) is malformed too.
        let counter_only = encode(&[Quantized::from_f64(1.0)]);
        assert_eq!(
            commit_blob(&key, &counter_only).unwrap_err(),
            IplsError::MalformedBlob
        );
        // And the well-formed blob still commits.
        assert!(commit_blob(&key, &good).is_ok());
    }

    #[test]
    fn key_derivation_deterministic_per_task() {
        let a = derive_key(3, 1, false);
        let b = derive_key(3, 1, false);
        let c = derive_key(3, 2, false);
        assert_eq!(a.generators(), b.generators());
        assert_ne!(a.generators(), c.generators());
        assert_eq!(a.len(), 4, "max_len + counter element");
    }

    #[test]
    fn precomputed_key_commits_identically() {
        // Protocol-critical: a peer that precomputes and one that does not
        // must produce the same commitments, or verification would fail
        // between them.
        let plain = derive_key(4, 9, false);
        let fast = derive_key(4, 9, true);
        assert!(fast.is_precomputed() && !plain.is_precomputed());
        assert_eq!(plain, fast, "table must not affect key identity");
        let blob = build_blob(&[1.5, -0.25, 3.0, 0.125]);
        let c = commit_blob(&plain, &blob).unwrap();
        assert_eq!(c, commit_blob(&fast, &blob).unwrap());
        assert!(verify_blob(&fast, &blob, &c));
    }

    /// The blob a queue entry of `kind` carries, and the commitment it is
    /// checked against: 0 a valid opening, 1 an opening of the wrong
    /// commitment, 2 a truncated blob, 3 a counter-only blob.
    fn queue_entry(key: &ProtocolKey, kind: u8, x: f32) -> (Vec<u8>, ProtocolCommitment) {
        let good = build_blob(&[x, -x, 0.5, 1.0]);
        let c = commit_blob(key, &good).unwrap();
        match kind {
            0 => (good, c),
            1 => (
                good,
                commit_blob(key, &build_blob(&[x + 1.0, -x, 0.5, 1.0])).unwrap(),
            ),
            2 => (good[..good.len() - 3].to_vec(), c),
            _ => (encode(&[Quantized::from_f64(1.0)]), c),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A queue of 1–8 blobs mixing valid, wrong-commitment and
        /// malformed entries: `verify_blobs_timed` names exactly the
        /// indices `verify_blob` rejects and counts every queued blob once.
        #[test]
        fn prop_verify_blobs_timed_matches_verify_blob(
            kinds in proptest::collection::vec(0u8..4, 1..9),
            seed in 0u64..1_000,
        ) {
            let key = derive_key(4, 7, false);
            let queue: Vec<(Vec<u8>, ProtocolCommitment)> = kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| queue_entry(&key, kind, (seed + i as u64) as f32 * 0.25 - 100.0))
                .collect();
            let expected: Vec<usize> = (0..queue.len())
                .filter(|&i| !verify_blob(&key, &queue[i].0, &queue[i].1))
                .collect();
            let items: Vec<(&[u8], &ProtocolCommitment)> =
                queue.iter().map(|(b, c)| (b.as_slice(), c)).collect();
            let mut out: Actions<()> = Actions::new();
            prop_assert_eq!(verify_blobs_timed(&mut out, &key, &items), expected);
            let counted: u64 = out
                .drain()
                .filter_map(|a| match a {
                    ProtocolAction::Incr { label, delta } => Some((label, delta)),
                    _ => None,
                })
                .filter(|(label, _)| *label == crate::labels::BLOBS_VERIFIED)
                .map(|(_, delta)| delta)
                .sum();
            prop_assert_eq!(counted, queue.len() as u64);
        }
    }
}
