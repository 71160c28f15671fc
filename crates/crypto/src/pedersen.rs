//! Pedersen vector commitments with homomorphic addition (§IV-A of the
//! paper).
//!
//! A commitment to a vector `v` is `C = Π hᵢ^(vᵢ)` where `{hᵢ}` are public
//! generators with unknown discrete-log relations. Written additively:
//! `C = Σ vᵢ·Hᵢ`. The scheme is *vector binding* under the discrete-log
//! assumption and *additively homomorphic*: `C(v₁) + C(v₂) = C(v₁ + v₂)`,
//! which is exactly the property the directory service exploits to verify
//! aggregation (§IV-B).
//!
//! ```
//! use dfl_crypto::curve::Secp256k1;
//! use dfl_crypto::pedersen::CommitKey;
//! use dfl_crypto::curve::Scalar;
//!
//! let key = CommitKey::<Secp256k1>::setup(4, b"example");
//! let v1: Vec<_> = (1..=4u64).map(Scalar::<Secp256k1>::from_u64).collect();
//! let v2: Vec<_> = (5..=8u64).map(Scalar::<Secp256k1>::from_u64).collect();
//! let sum: Vec<_> = v1.iter().zip(&v2).map(|(a, b)| *a + *b).collect();
//!
//! let c1 = key.commit(&v1);
//! let c2 = key.commit(&v2);
//! assert_eq!(c1.combine(&c2), key.commit(&sum));
//! assert!(key.verify(&sum, &c1.combine(&c2)));
//! ```

use std::fmt;

use crate::bigint::U256;
use crate::curve::{Affine, Curve, Jacobian, Scalar};
use crate::field::Fp;
use crate::msm::{Msm, MsmTable, Strategy};
use crate::sha256::Sha256;

/// Public parameters: a vector of generators with no known discrete-log
/// relations, derived from a seed by hash-to-curve (try-and-increment), so
/// any party can recompute and audit them ("nothing up my sleeve").
///
/// A key may additionally carry a fixed-base precomputation table
/// ([`CommitKey::precompute`]) that every subsequent [`CommitKey::commit`]
/// and [`CommitKey::batch_check`] uses transparently. The table caches
/// windowed shifts of the generators (derived data only), so two keys
/// compare equal iff their generators and seed match, table or not.
#[derive(Clone)]
pub struct CommitKey<C: Curve> {
    generators: Vec<Affine<C>>,
    seed: Vec<u8>,
    table: Option<MsmTable<C>>,
}

impl<C: Curve> PartialEq for CommitKey<C> {
    fn eq(&self, other: &Self) -> bool {
        self.generators == other.generators && self.seed == other.seed
    }
}

impl<C: Curve> Eq for CommitKey<C> {}

impl<C: Curve> CommitKey<C> {
    /// Derives `n` generators from `seed`.
    pub fn setup(n: usize, seed: &[u8]) -> CommitKey<C> {
        let generators = (0..n).map(|i| hash_to_curve::<C>(seed, i as u64)).collect();
        CommitKey {
            generators,
            seed: seed.to_vec(),
            table: None,
        }
    }

    /// [`CommitKey::setup`] followed by [`CommitKey::precompute`]: the
    /// one-call constructor for long-lived task keys.
    pub fn setup_precomputed(n: usize, seed: &[u8]) -> CommitKey<C> {
        let mut key = CommitKey::setup(n, seed);
        key.precompute();
        key
    }

    /// Builds (or rebuilds) the fixed-base precomputation table over the
    /// current generators. Costs about one naive scalar multiplication per
    /// generator, paid once; afterwards each commitment is a single
    /// batch-affine bucket pass with no doubling chain. Idempotent.
    pub fn precompute(&mut self) {
        self.table = Some(MsmTable::build(&self.generators));
    }

    /// Drops the precomputation table (frees its memory; commits fall back
    /// to the table-free batch-affine path).
    pub fn clear_precomputed(&mut self) {
        self.table = None;
    }

    /// `true` if a precomputation table is attached.
    pub fn is_precomputed(&self) -> bool {
        self.table.is_some()
    }

    /// Approximate heap footprint of the precomputation table in bytes
    /// (0 when none is attached).
    pub fn table_memory_bytes(&self) -> usize {
        self.table.as_ref().map_or(0, MsmTable::memory_bytes)
    }

    /// Number of generators (the maximum committable vector length).
    pub fn len(&self) -> usize {
        self.generators.len()
    }

    /// `true` if the key holds no generators.
    pub fn is_empty(&self) -> bool {
        self.generators.is_empty()
    }

    /// The generator points.
    pub fn generators(&self) -> &[Affine<C>] {
        &self.generators
    }

    /// The seed the generators were derived from.
    pub fn seed(&self) -> &[u8] {
        &self.seed
    }

    /// Extends the key in place so it covers vectors of length `n`
    /// (deterministic: the first generators never change). If a
    /// precomputation table is attached it is rebuilt over the extended
    /// generator set so it never goes stale.
    pub fn extend_to(&mut self, n: usize) {
        let before = self.generators.len();
        for i in self.generators.len()..n {
            self.generators
                .push(hash_to_curve::<C>(&self.seed, i as u64));
        }
        if self.generators.len() != before && self.table.is_some() {
            self.precompute();
        }
    }

    /// Commits to `values` (must not exceed the key length).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > self.len()`.
    pub fn commit(&self, values: &[Scalar<C>]) -> Commitment<C> {
        assert!(
            values.len() <= self.generators.len(),
            "vector length {} exceeds key length {}",
            values.len(),
            self.generators.len()
        );
        let mut msm = Msm::new(&self.generators[..values.len()]);
        if let Some(table) = &self.table {
            msm = msm.with_table(table);
        }
        Commitment {
            point: msm.eval(values),
        }
    }

    /// Commits using the naive MSM (models the paper's unoptimized
    /// implementation; used by the Fig. 3 benchmark).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > self.len()`.
    pub fn commit_naive(&self, values: &[Scalar<C>]) -> Commitment<C> {
        assert!(values.len() <= self.generators.len());
        Commitment {
            point: Msm::new(&self.generators[..values.len()])
                .with_strategy(Strategy::Naive)
                .eval(values),
        }
    }

    /// Verifies that `commitment` opens to `values` by recomputing.
    pub fn verify(&self, values: &[Scalar<C>], commitment: &Commitment<C>) -> bool {
        if values.len() > self.generators.len() {
            return false;
        }
        self.commit(values) == *commitment
    }

    /// Verifies a whole batch of openings with one random linear
    /// combination (the small-exponent batch test of Bellare–Garay–Rabin
    /// '98): sample 128-bit coefficients `rᵢ`, check that
    /// `commit(Σ rᵢ·vᵢ) = Σ rᵢ·Cᵢ`. One length-`width` MSM plus one
    /// `k`-point MSM over 128-bit scalars replaces `k` full MSMs — the §VI
    /// "minimize the query load of the directory service" direction, since
    /// a node can batch every opening of a round boundary into one check.
    /// For quantized gradients (magnitudes below 2⁶³) the combined vector
    /// has magnitudes below `k·2¹⁹¹`, which the sign-magnitude table walk
    /// covers in `⌈(191 + log₂ k)/c⌉` digit windows instead of `⌈256/c⌉`.
    ///
    /// Sound for adversarially chosen inputs: if any pair fails
    /// individually, its commitment defect `Dᵢ = commit(vᵢ) − Cᵢ` is a
    /// nonzero element of a prime-order group, so for any fixed other
    /// coefficients at most one of the 2¹²⁸ values of `rᵢ` (all distinct
    /// modulo the group order) makes `Σ rᵢ·Dᵢ` vanish: the batched
    /// identity holds with probability ≤ 2⁻¹²⁸. The coefficients are
    /// derived by hashing a transcript of the full input (Fiat–Shamir
    /// style), so the prover cannot choose openings after seeing them.
    /// Entries longer than the key can never verify and fail the batch
    /// outright.
    ///
    /// With the `rayon` feature the transcript hashing and the scalar
    /// accumulation shard across threads; field arithmetic is exact, so
    /// the result is bit-identical to the serial evaluation.
    ///
    /// Returns `true` for an empty batch.
    pub fn batch_check(&self, entries: &[BatchEntry<'_, C>]) -> bool {
        if entries.is_empty() {
            return true;
        }
        if entries
            .iter()
            .any(|e| e.values.len() > self.generators.len())
        {
            return false;
        }
        let points = normalized_points(entries);
        let coeffs = self.batch_coefficients(entries, &points);
        let idxs: Vec<usize> = (0..entries.len()).collect();
        self.check_subset(entries, &coeffs, &points, &idxs)
    }

    /// Identifies exactly which entries of a failing batch do not open:
    /// returns the sorted indices whose `(values, commitment)` pair fails
    /// [`CommitKey::verify`], by bisecting the batch with the *same*
    /// Fiat–Shamir coefficients (derived once from the full transcript,
    /// reused per subrange so a cheating prover cannot adapt). Singleton
    /// ranges fall back to a direct [`CommitKey::verify`], so the culprit
    /// set matches sequential per-item verification exactly.
    ///
    /// Cost is one subrange check per bisection node on the path to each
    /// culprit: `O(b · log k)` extra MSMs for `b` culprits in a batch of
    /// `k`, and a single whole-batch check when everything is valid. A
    /// batch with one checkable entry costs exactly one
    /// [`CommitKey::verify`]: no transcript is hashed.
    pub fn batch_culprits(&self, entries: &[BatchEntry<'_, C>]) -> Vec<usize> {
        // Over-long vectors can never open; convict them directly and keep
        // the RLC domain to the checkable entries.
        let (overlong, in_range): (Vec<usize>, Vec<usize>) =
            (0..entries.len()).partition(|&i| entries[i].values.len() > self.generators.len());
        let mut culprits = overlong;
        match in_range[..] {
            [] => {}
            // The bisection leaf ignores the coefficients: skip deriving them.
            [_] => self.bisect(entries, &[], &[], &in_range, &mut culprits),
            _ => {
                let points = normalized_points(entries);
                let coeffs = self.batch_coefficients(entries, &points);
                self.bisect(entries, &coeffs, &points, &in_range, &mut culprits);
            }
        }
        culprits.sort_unstable();
        culprits
    }

    /// Fiat–Shamir coefficients for a batch: hash each entry to a leaf
    /// digest, chain the leaves (in index order) into a root, and derive
    /// `rᵢ` as the first 16 bytes of `H(root ‖ i)`, a 128-bit integer.
    /// Leaves hash the binding bytes when present (cheaper than 32 B per
    /// scalar) and the scalar encodings otherwise; per-leaf hashing is
    /// independent, so it shards across threads while the root stays
    /// index-ordered and bit-identical. `points` are the entries'
    /// commitments already in affine form, so each leaf's compressed
    /// commitment costs no inversion of its own.
    fn batch_coefficients(
        &self,
        entries: &[BatchEntry<'_, C>],
        points: &[Affine<C>],
    ) -> Vec<Scalar<C>> {
        let leaf = |(e, point): &(BatchEntry<'_, C>, Affine<C>)| -> [u8; 32] {
            let mut h = Sha256::new();
            h.update(&(e.values.len() as u64).to_be_bytes());
            match e.binding {
                // Domain-separate the two leaf encodings so a binding can
                // never collide with a scalar transcript.
                Some(bytes) => {
                    h.update(b"B");
                    h.update(&(bytes.len() as u64).to_be_bytes());
                    h.update(bytes);
                }
                None => {
                    h.update(b"S");
                    for v in e.values.iter() {
                        h.update(&v.to_be_bytes());
                    }
                }
            }
            h.update(&point.to_compressed());
            h.finalize()
        };
        let items: Vec<_> = entries
            .iter()
            .copied()
            .zip(points.iter().copied())
            .collect();
        let leaves = hash_leaves(&items, &leaf);

        let mut transcript = Sha256::new();
        transcript.update(b"dfl-pedersen-batch-v3");
        transcript.update(&self.seed);
        transcript.update(&(entries.len() as u64).to_be_bytes());
        for digest in &leaves {
            transcript.update(digest);
        }
        let root = transcript.finalize();

        (0..entries.len())
            .map(|i| {
                let mut h = Sha256::new();
                h.update(&root);
                h.update(&(i as u64).to_be_bytes());
                // A uniform 128-bit coefficient: the small-exponent batch
                // test's soundness error is 2⁻¹²⁸, and the RLC MSMs run
                // over 128-bit (rather than 256-bit) scalars.
                let digest = h.finalize();
                let r = u128::from_be_bytes(digest[..16].try_into().expect("16-byte prefix"));
                Scalar::<C>::from_canonical(U256::from_u128(r))
            })
            .collect()
    }

    /// One RLC check over the entries selected by `idxs`:
    /// `commit(Σ rᵢ·vᵢ) = Σ rᵢ·Cᵢ` with the precomputed coefficients.
    fn check_subset(
        &self,
        entries: &[BatchEntry<'_, C>],
        coeffs: &[Scalar<C>],
        points: &[Affine<C>],
        idxs: &[usize],
    ) -> bool {
        let width = idxs
            .iter()
            .map(|&i| entries[i].values.len())
            .max()
            .unwrap_or(0);
        let combined_values = accumulate_values(entries, coeffs, idxs, width);
        let sub_points: Vec<Affine<C>> = idxs.iter().map(|&i| points[i]).collect();
        let sub_coeffs: Vec<Scalar<C>> = idxs.iter().map(|&i| coeffs[i]).collect();
        let combined_commitment = Msm::new(&sub_points).eval(&sub_coeffs);
        self.commit(&combined_values)
            == Commitment {
                point: combined_commitment,
            }
    }

    /// Recursive culprit search: a passing subrange is vouched for by the
    /// RLC identity; a failing one splits in half. Coefficients are fixed
    /// up front, so subrange checks stay sound against adaptive provers.
    fn bisect(
        &self,
        entries: &[BatchEntry<'_, C>],
        coeffs: &[Scalar<C>],
        points: &[Affine<C>],
        idxs: &[usize],
        culprits: &mut Vec<usize>,
    ) {
        match idxs {
            [] => {}
            // Exact sequential semantics at the leaves: the verdict for a
            // single entry is a direct recommit-and-compare, never an RLC.
            &[i] => {
                let e = &entries[i];
                if !self.verify(e.values, e.commitment) {
                    culprits.push(i);
                }
            }
            _ => {
                if self.check_subset(entries, coeffs, points, idxs) {
                    return;
                }
                let mid = idxs.len() / 2;
                self.bisect(entries, coeffs, points, &idxs[..mid], culprits);
                self.bisect(entries, coeffs, points, &idxs[mid..], culprits);
            }
        }
    }
}

/// One opening queued for batched verification: a claimed value vector,
/// the commitment it should open, and optionally the canonical wire bytes
/// the values were decoded from.
///
/// When `binding` is set, the Fiat–Shamir transcript hashes those bytes
/// *instead of* the scalar encodings — for the protocol's 8-byte
/// fixed-point elements that is ~4× less hashing per element. Soundness
/// then requires the binding to *determine* the values: the caller must
/// derive `values` from `binding` by a fixed injective decoding (as
/// `decode_blob` does), never accept them separately.
#[derive(Copy, Clone, Debug)]
pub struct BatchEntry<'a, C: Curve> {
    values: &'a [Scalar<C>],
    commitment: &'a Commitment<C>,
    binding: Option<&'a [u8]>,
}

impl<'a, C: Curve> BatchEntry<'a, C> {
    /// An entry whose transcript leaf hashes the scalar encodings.
    pub fn new(values: &'a [Scalar<C>], commitment: &'a Commitment<C>) -> BatchEntry<'a, C> {
        BatchEntry {
            values,
            commitment,
            binding: None,
        }
    }

    /// An entry whose transcript leaf hashes `binding` in place of the
    /// scalars. `binding` must uniquely determine `values` (see the type
    /// docs); the commitment is always hashed alongside either way.
    pub fn with_binding(
        values: &'a [Scalar<C>],
        commitment: &'a Commitment<C>,
        binding: &'a [u8],
    ) -> BatchEntry<'a, C> {
        BatchEntry {
            values,
            commitment,
            binding: Some(binding),
        }
    }

    /// The claimed opening.
    pub fn values(&self) -> &'a [Scalar<C>] {
        self.values
    }

    /// The commitment the values should open.
    pub fn commitment(&self) -> &'a Commitment<C> {
        self.commitment
    }
}

/// Normalizes every entry's commitment to affine in one shared inversion,
/// so subrange checks can run a batch-affine Pippenger MSM over them.
fn normalized_points<C: Curve>(entries: &[BatchEntry<'_, C>]) -> Vec<Affine<C>> {
    let jacobians: Vec<Jacobian<C>> = entries.iter().map(|e| e.commitment.point()).collect();
    Jacobian::batch_normalize(&jacobians)
}

/// `Σ rᵢ·vᵢ` over the selected entries, as a `width`-element vector.
/// Sharded across threads under the `rayon` feature: field addition is
/// exact and associative, so any shard split merges to the same bits.
fn accumulate_values<C: Curve>(
    entries: &[BatchEntry<'_, C>],
    coeffs: &[Scalar<C>],
    idxs: &[usize],
    width: usize,
) -> Vec<Scalar<C>> {
    let serial = |idxs: &[usize]| -> Vec<Scalar<C>> {
        let mut acc = vec![Scalar::<C>::ZERO; width];
        for &i in idxs {
            let r = coeffs[i];
            for (slot, v) in acc.iter_mut().zip(entries[i].values.iter()) {
                *slot += r * *v;
            }
        }
        acc
    };
    #[cfg(feature = "rayon")]
    if idxs.len() >= 2 * crate::msm::MIN_PARALLEL_CHUNK {
        return join_merge(
            idxs,
            crate::msm::parallel_leaf_size(idxs.len()),
            &serial,
            &|mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    }
    serial(idxs)
}

/// Hashes one transcript leaf per entry, in index order. Leaves are
/// independent, so under the `rayon` feature they shard across threads;
/// the output vector order (and thus the root) is identical either way.
fn hash_leaves<T: Sync>(entries: &[T], leaf: &(dyn Fn(&T) -> [u8; 32] + Sync)) -> Vec<[u8; 32]> {
    let serial = |chunk: &[T]| -> Vec<[u8; 32]> { chunk.iter().map(leaf).collect() };
    #[cfg(feature = "rayon")]
    if entries.len() >= 2 * crate::msm::MIN_PARALLEL_CHUNK {
        return join_merge(
            entries,
            crate::msm::parallel_leaf_size(entries.len()),
            &serial,
            &|mut a, b| {
                a.extend(b);
                a
            },
        );
    }
    serial(entries)
}

/// Recursive fork/join over a slice: leaves evaluate serially, parents
/// merge `(left, right)` in a fixed order — same shape as the MSM
/// reduction, generic over the accumulator type.
#[cfg(feature = "rayon")]
fn join_merge<T, R, E, M>(items: &[T], leaf: usize, eval: &E, merge: &M) -> R
where
    T: Sync,
    R: Send,
    E: Fn(&[T]) -> R + Sync,
    M: Fn(R, R) -> R + Sync,
{
    if items.len() <= leaf {
        return eval(items);
    }
    let mid = items.len() / 2;
    let (left, right) = rayon::join(
        || join_merge(&items[..mid], leaf, eval, merge),
        || join_merge(&items[mid..], leaf, eval, merge),
    );
    merge(left, right)
}

impl<C: Curve> fmt::Debug for CommitKey<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CommitKey<{}>(n={}{})",
            C::NAME,
            self.generators.len(),
            if self.table.is_some() {
                ", precomputed"
            } else {
                ""
            }
        )
    }
}

/// A Pedersen commitment: a single group element, constant size regardless
/// of the committed vector's length.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct Commitment<C: Curve> {
    point: Jacobian<C>,
}

impl<C: Curve> Commitment<C> {
    /// The commitment to the zero vector (the group identity).
    pub fn identity() -> Commitment<C> {
        Commitment {
            point: Jacobian::identity(),
        }
    }

    /// Homomorphic combination: `C(v₁) ⊕ C(v₂) = C(v₁ + v₂)`.
    pub fn combine(&self, rhs: &Commitment<C>) -> Commitment<C> {
        Commitment {
            point: self.point.add(&rhs.point),
        }
    }

    /// Combines (accumulates) many commitments; the "accumulated
    /// commitment" the directory service stores per partition (§IV-B).
    pub fn accumulate<'a, I: IntoIterator<Item = &'a Commitment<C>>>(iter: I) -> Commitment<C> {
        iter.into_iter()
            .fold(Commitment::identity(), |acc, c| acc.combine(c))
    }

    /// Wraps a raw group element as a commitment. Callers that already
    /// hold a point — e.g. a homomorphic single-generator bump
    /// `Δ·Hₖ` computed with [`crate::msm::Msm`] — can build the combined
    /// commitment without re-running a full commit.
    pub fn from_point(point: Jacobian<C>) -> Commitment<C> {
        Commitment { point }
    }

    /// The underlying group element.
    pub fn point(&self) -> Jacobian<C> {
        self.point
    }

    /// Serializes as a 33-byte compressed point.
    pub fn to_bytes(&self) -> [u8; 33] {
        self.point.to_affine().to_compressed()
    }

    /// Deserializes from a 33-byte compressed point.
    pub fn from_bytes(bytes: &[u8; 33]) -> Option<Commitment<C>> {
        Affine::from_compressed(bytes).map(|p| Commitment {
            point: p.to_jacobian(),
        })
    }
}

impl<C: Curve> fmt::Debug for Commitment<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.to_bytes();
        write!(f, "Commitment<{}>(0x", C::NAME)?;
        for b in &bytes[..9] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl<C: Curve> Default for Commitment<C> {
    fn default() -> Self {
        Commitment::identity()
    }
}

/// Derives the `index`-th generator from `seed` by try-and-increment:
/// hash `(seed, index, counter)` to an x-coordinate candidate and take the
/// first that lies on the curve (even-y branch). Both curves have cofactor 1
/// so any curve point generates the full group.
fn hash_to_curve<C: Curve>(seed: &[u8], index: u64) -> Affine<C> {
    let mut counter: u64 = 0;
    loop {
        let mut h = Sha256::new();
        h.update(b"dfl-pedersen-generator");
        h.update(seed);
        h.update(&index.to_be_bytes());
        h.update(&counter.to_be_bytes());
        let digest = h.finalize();
        let candidate = U256::from_be_bytes(digest);
        // Rejection-sample x < p, then require x³ + ax + b to be a square.
        if candidate.const_cmp(&<C::Base as crate::field::FieldParams>::MODULUS) < 0 {
            let x = Fp::<C::Base>::from_canonical(candidate);
            let rhs = (x.square() + C::a()) * x + C::b();
            if let Some(y) = rhs.sqrt() {
                // Deterministic branch: take the even-y root.
                let y = if y.to_canonical().bit(0) { -y } else { y };
                return Affine::from_xy_unchecked(x, y);
            }
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{Secp256k1, Secp256r1};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type K1 = Secp256k1;

    fn key(n: usize) -> CommitKey<K1> {
        CommitKey::setup(n, b"test-seed")
    }

    fn random_vector(n: usize, seed: u64) -> Vec<Scalar<K1>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Scalar::<K1>::random(&mut rng)).collect()
    }

    #[test]
    fn generators_on_curve_and_distinct() {
        let key = key(16);
        for g in key.generators() {
            assert!(g.is_on_curve());
            assert!(!g.is_identity());
        }
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert_ne!(key.generators()[i], key.generators()[j]);
            }
        }
    }

    #[test]
    fn setup_is_deterministic() {
        let a = key(8);
        let b = key(8);
        assert_eq!(a.generators(), b.generators());
        let c = CommitKey::<K1>::setup(8, b"other-seed");
        assert_ne!(a.generators(), c.generators());
    }

    #[test]
    fn extend_preserves_prefix() {
        let mut small = key(4);
        let big = key(12);
        small.extend_to(12);
        assert_eq!(small.generators(), big.generators());
    }

    #[test]
    fn both_curves_work() {
        let k1 = CommitKey::<Secp256k1>::setup(4, b"s");
        let r1 = CommitKey::<Secp256r1>::setup(4, b"s");
        let v: Vec<_> = (1..=4u64).map(Scalar::<Secp256k1>::from_u64).collect();
        let w: Vec<_> = (1..=4u64).map(Scalar::<Secp256r1>::from_u64).collect();
        assert!(k1.verify(&v, &k1.commit(&v)));
        assert!(r1.verify(&w, &r1.commit(&w)));
    }

    #[test]
    fn commit_and_verify() {
        let key = key(32);
        let v = random_vector(32, 1);
        let c = key.commit(&v);
        assert!(key.verify(&v, &c));
        // Any single altered element breaks verification.
        let mut altered = v.clone();
        altered[17] += Scalar::<K1>::ONE;
        assert!(!key.verify(&altered, &c));
    }

    #[test]
    fn homomorphism() {
        let key = key(16);
        let v1 = random_vector(16, 2);
        let v2 = random_vector(16, 3);
        let sum: Vec<_> = v1.iter().zip(&v2).map(|(a, b)| *a + *b).collect();
        assert_eq!(key.commit(&v1).combine(&key.commit(&v2)), key.commit(&sum));
    }

    #[test]
    fn accumulate_many() {
        let key = key(8);
        let vectors: Vec<Vec<_>> = (0..5).map(|i| random_vector(8, 10 + i)).collect();
        let commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        let acc = Commitment::accumulate(&commits);
        let total: Vec<_> = (0..8)
            .map(|j| vectors.iter().map(|v| v[j]).sum::<Scalar<K1>>())
            .collect();
        assert_eq!(acc, key.commit(&total));
        assert!(key.verify(&total, &acc));
    }

    #[test]
    fn commit_naive_matches_fast() {
        let key = key(40);
        let v = random_vector(40, 4);
        assert_eq!(key.commit(&v), key.commit_naive(&v));
    }

    #[test]
    fn precomputed_commit_matches_plain() {
        let plain = key(48);
        let pre = CommitKey::<K1>::setup_precomputed(48, b"test-seed");
        assert!(pre.is_precomputed());
        assert!(pre.table_memory_bytes() > 0);
        for seed in 20..24 {
            let v = random_vector(48, seed);
            assert_eq!(plain.commit(&v), pre.commit(&v));
            assert!(pre.verify(&v, &plain.commit(&v)));
        }
        // Shorter-than-key vectors take the table prefix path.
        let short = random_vector(13, 70);
        assert_eq!(plain.commit(&short), pre.commit(&short));
    }

    #[test]
    fn precompute_is_idempotent_and_clearable() {
        let mut key = key(8);
        assert!(!key.is_precomputed());
        assert_eq!(key.table_memory_bytes(), 0);
        key.precompute();
        let v = random_vector(8, 71);
        let c = key.commit(&v);
        key.precompute();
        assert_eq!(key.commit(&v), c);
        key.clear_precomputed();
        assert!(!key.is_precomputed());
        assert_eq!(key.commit(&v), c);
    }

    #[test]
    fn extend_rebuilds_table() {
        let mut small = CommitKey::<K1>::setup_precomputed(4, b"test-seed");
        small.extend_to(12);
        assert!(small.is_precomputed());
        let v = random_vector(12, 72);
        assert_eq!(small.commit(&v), key(12).commit(&v));
    }

    #[test]
    fn equality_ignores_table() {
        let plain = key(6);
        let pre = CommitKey::<K1>::setup_precomputed(6, b"test-seed");
        assert_eq!(plain, pre);
        assert_ne!(plain, CommitKey::<K1>::setup(6, b"other-seed"));
    }

    #[test]
    fn batch_check_uses_table_transparently() {
        let key = CommitKey::<K1>::setup_precomputed(8, b"test-seed");
        let vectors: Vec<Vec<_>> = (0..4).map(|i| random_vector(8, 80 + i)).collect();
        let commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        assert!(key.batch_check(&entries(&vectors, &commits)));
    }

    #[test]
    fn empty_and_zero_vectors() {
        let key = key(4);
        assert_eq!(key.commit(&[]), Commitment::identity());
        let zeros = vec![Scalar::<K1>::ZERO; 4];
        assert_eq!(key.commit(&zeros), Commitment::identity());
        assert!(key.verify(&zeros, &Commitment::identity()));
    }

    #[test]
    fn shorter_vector_allowed_longer_rejected() {
        let key = key(4);
        let v = random_vector(3, 5);
        assert!(key.verify(&v, &key.commit(&v)));
        let long = random_vector(5, 6);
        assert!(!key.verify(&long, &Commitment::identity()));
    }

    #[test]
    #[should_panic(expected = "exceeds key length")]
    fn commit_too_long_panics() {
        let key = key(2);
        key.commit(&random_vector(3, 7));
    }

    #[test]
    fn serialization_round_trip() {
        let key = key(8);
        let c = key.commit(&random_vector(8, 8));
        let decoded = Commitment::<K1>::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(decoded, c);
        let id = Commitment::<K1>::identity();
        assert_eq!(Commitment::<K1>::from_bytes(&id.to_bytes()).unwrap(), id);
    }

    #[test]
    fn batch_check_accepts_valid_batches() {
        let key = key(8);
        let vectors: Vec<Vec<_>> = (0..5).map(|i| random_vector(8, 30 + i)).collect();
        let commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        assert!(key.batch_check(&entries(&vectors, &commits)));
        assert!(key.batch_check(&[]), "empty batch is trivially valid");
    }

    #[test]
    fn batch_check_rejects_one_bad_pair() {
        let key = key(8);
        let vectors: Vec<Vec<_>> = (0..5).map(|i| random_vector(8, 40 + i)).collect();
        let mut commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        // Corrupt exactly one commitment.
        commits[3] = commits[3].combine(&key.commit(&random_vector(8, 99)));
        assert!(!key.batch_check(&entries(&vectors, &commits)));
    }

    #[test]
    fn batch_check_rejects_swapped_openings() {
        // Two valid pairs with their openings exchanged must fail even
        // though the multiset of commitments is unchanged.
        let key = key(4);
        let v1 = random_vector(4, 50);
        let v2 = random_vector(4, 51);
        let c1 = key.commit(&v1);
        let c2 = key.commit(&v2);
        assert!(key.batch_check(&[BatchEntry::new(&v1, &c1), BatchEntry::new(&v2, &c2)]));
        assert!(!key.batch_check(&[BatchEntry::new(&v1, &c2), BatchEntry::new(&v2, &c1)]));
    }

    #[test]
    fn batch_check_mixed_lengths() {
        let key = key(8);
        let short = random_vector(3, 60);
        let long = random_vector(8, 61);
        let cs = key.commit(&short);
        let cl = key.commit(&long);
        assert!(key.batch_check(&[BatchEntry::new(&short, &cs), BatchEntry::new(&long, &cl)]));
        // Over-long vector rejected outright.
        let too_long = random_vector(9, 62);
        assert!(!key.batch_check(&[BatchEntry::new(&too_long, &cs)]));
    }

    /// Builds a batch of `n` openings over `key`, then corrupts the
    /// commitments at `bad` (either by offsetting the commitment or by
    /// perturbing a value, alternating) so sequential verification fails
    /// at exactly those indices.
    fn corrupted_batch(
        key: &CommitKey<K1>,
        n: usize,
        bad: &[usize],
        seed: u64,
    ) -> (Vec<Vec<Scalar<K1>>>, Vec<Commitment<K1>>) {
        let vectors: Vec<Vec<_>> = (0..n)
            .map(|i| random_vector(key.len(), seed + i as u64))
            .collect();
        let mut commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        for (k, &i) in bad.iter().enumerate() {
            if k % 2 == 0 {
                commits[i] =
                    commits[i].combine(&key.commit(&random_vector(key.len(), 500 + k as u64)));
            } else {
                let mut altered = vectors[i].clone();
                altered[0] += Scalar::<K1>::ONE;
                commits[i] = key.commit(&altered);
            }
        }
        (vectors, commits)
    }

    fn entries<'a, C: crate::curve::Curve>(
        vectors: &'a [Vec<Scalar<C>>],
        commits: &'a [Commitment<C>],
    ) -> Vec<BatchEntry<'a, C>> {
        vectors
            .iter()
            .zip(commits)
            .map(|(v, c)| BatchEntry::new(v, c))
            .collect()
    }

    #[test]
    fn batch_check_rejects_a_corrupted_value_or_commitment() {
        let key = key(8);
        let (vectors, commits) = corrupted_batch(&key, 6, &[], 100);
        assert!(key.batch_check(&entries(&vectors, &commits)));
        let (vectors, commits) = corrupted_batch(&key, 6, &[2], 110);
        assert!(!key.batch_check(&entries(&vectors, &commits)));
        assert!(key.batch_check(&[]), "empty batch is trivially valid");
    }

    #[test]
    fn batch_culprits_empty_when_all_valid() {
        let key = key(8);
        let (vectors, commits) = corrupted_batch(&key, 7, &[], 120);
        assert!(key.batch_culprits(&entries(&vectors, &commits)).is_empty());
    }

    #[test]
    fn batch_culprits_names_exact_offenders() {
        let key = key(8);
        for bad in [
            vec![0],
            vec![4],
            vec![1, 5],
            vec![0, 3, 6],
            (0..7).collect(),
        ] {
            let (vectors, commits) = corrupted_batch(&key, 7, &bad, 130);
            let found = key.batch_culprits(&entries(&vectors, &commits));
            assert_eq!(found, bad, "culprit set must match the corrupted set");
        }
    }

    #[test]
    fn batch_culprits_flags_overlong_entries() {
        let key = key(4);
        let good = random_vector(4, 140);
        let cg = key.commit(&good);
        let long = random_vector(5, 141);
        let e = [BatchEntry::new(&good, &cg), BatchEntry::new(&long, &cg)];
        assert!(!key.batch_check(&e));
        assert_eq!(key.batch_culprits(&e), vec![1]);
    }

    /// A one-entry `batch_culprits` call returns `[0]` exactly when
    /// `verify` rejects the pair.
    fn singleton_matches_verify<C: crate::curve::Curve>(key: &CommitKey<C>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let good = mixed_sign_vector::<C>(key.len(), &mut rng);
        let c = key.commit(&good);
        let mut corrupt = good.clone();
        corrupt[0] += Scalar::<C>::ONE;
        let overlong = mixed_sign_vector::<C>(key.len() + 1, &mut rng);
        for (values, expect_valid) in [(&good, true), (&corrupt, false), (&overlong, false)] {
            assert_eq!(key.verify(values, &c), expect_valid, "{}", C::NAME);
            let verdict = key.batch_culprits(&[BatchEntry::new(values, &c)]);
            let expected: Vec<usize> = if expect_valid { vec![] } else { vec![0] };
            assert_eq!(verdict, expected, "{} len {}", C::NAME, values.len());
        }
    }

    #[test]
    fn singleton_batch_verdict_equals_verify_on_both_curves() {
        singleton_matches_verify(&CommitKey::<Secp256k1>::setup(6, b"one-k1"), 190);
        singleton_matches_verify(&CommitKey::<Secp256r1>::setup(6, b"one-r1"), 191);
        singleton_matches_verify(
            &CommitKey::<Secp256k1>::setup_precomputed(6, b"one-k1"),
            192,
        );
    }

    #[test]
    fn binding_entries_accept_and_reject() {
        // Binding bytes replace the scalar transcript but the verdicts and
        // the culprit sets are unchanged.
        let key = key(6);
        let (vectors, mut commits) = corrupted_batch(&key, 5, &[], 150);
        let bindings: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 48]).collect();
        fn make<'a>(
            vectors: &'a [Vec<Scalar<K1>>],
            commits: &'a [Commitment<K1>],
            bindings: &'a [Vec<u8>],
        ) -> Vec<BatchEntry<'a, K1>> {
            vectors
                .iter()
                .zip(commits)
                .zip(bindings)
                .map(|((v, c), b)| BatchEntry::with_binding(v, c, b))
                .collect()
        }
        assert!(key.batch_check(&make(&vectors, &commits, &bindings)));
        commits[3] = commits[3].combine(&key.commit(&random_vector(6, 160)));
        assert!(!key.batch_check(&make(&vectors, &commits, &bindings)));
        assert_eq!(
            key.batch_culprits(&make(&vectors, &commits, &bindings)),
            vec![3]
        );
    }

    #[test]
    fn batch_culprits_both_curves() {
        let r1 = CommitKey::<Secp256r1>::setup(5, b"r1-batch");
        let mut rng = StdRng::seed_from_u64(170);
        let vectors: Vec<Vec<_>> = (0..4)
            .map(|_| {
                (0..5)
                    .map(|_| Scalar::<Secp256r1>::random(&mut rng))
                    .collect()
            })
            .collect();
        let mut commits: Vec<_> = vectors.iter().map(|v| r1.commit(v)).collect();
        commits[2] = commits[2].combine(&r1.commit(&vectors[0]));
        let e: Vec<BatchEntry<'_, Secp256r1>> = vectors
            .iter()
            .zip(&commits)
            .map(|(v, c)| BatchEntry::new(v, c))
            .collect();
        assert!(!r1.batch_check(&e));
        assert_eq!(r1.batch_culprits(&e), vec![2]);
    }

    #[test]
    fn batch_coefficients_are_128_bit() {
        let key = key(6);
        let (vectors, commits) = corrupted_batch(&key, 40, &[3], 180);
        let e = entries(&vectors, &commits);
        let points = normalized_points(&e);
        let coeffs = key.batch_coefficients(&e, &points);
        assert_eq!(coeffs.len(), 40);
        let bound = U256::ONE.shl(128);
        for r in &coeffs {
            assert!(
                r.to_canonical() < bound,
                "coefficient {r:?} is not below 2^128"
            );
        }
        // Distinct per index, and bound to the transcript.
        assert_ne!(coeffs[0], coeffs[1]);
        let (other, other_commits) = corrupted_batch(&key, 40, &[], 180);
        let e2 = entries(&other, &other_commits);
        assert_ne!(coeffs, key.batch_coefficients(&e2, &normalized_points(&e2)));
    }

    /// A quantized-gradient-shaped vector: signed fixed-point values, so
    /// about half the scalars are embedded as `n − |v|`.
    fn mixed_sign_vector<C: crate::curve::Curve>(n: usize, rng: &mut StdRng) -> Vec<Scalar<C>> {
        use rand::Rng;
        (0..n)
            .map(|_| {
                let bits = rng.gen_range(1u32..63);
                crate::quantize::Quantized(rng.gen_range(-(1i64 << bits)..(1i64 << bits)))
                    .to_scalar::<C>()
            })
            .collect()
    }

    /// Plants 1–3 culprits among mixed-sign quantized openings and checks
    /// that `batch_culprits` names exactly the entries whose direct
    /// `verify` fails.
    fn culprits_match_direct_verify<C: crate::curve::Curve>(key: &CommitKey<C>, seed: u64) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4usize..12);
        let vectors: Vec<Vec<Scalar<C>>> = (0..n)
            .map(|_| mixed_sign_vector::<C>(key.len(), &mut rng))
            .collect();
        let mut commits: Vec<Commitment<C>> = vectors.iter().map(|v| key.commit(v)).collect();
        let planted = rng.gen_range(1usize..4);
        for _ in 0..planted {
            let i = rng.gen_range(0..n);
            // Negate one element and add one (so a zero changes too): the
            // altered scalar lands on the other side of the sign boundary.
            let mut altered = vectors[i].clone();
            let j = rng.gen_range(0..key.len());
            altered[j] = -altered[j];
            altered[j] += Scalar::<C>::ONE;
            commits[i] = key.commit(&altered);
        }
        let direct: Vec<usize> = (0..n)
            .filter(|&i| !key.verify(&vectors[i], &commits[i]))
            .collect();
        assert!(!direct.is_empty());
        let e: Vec<BatchEntry<'_, C>> = vectors
            .iter()
            .zip(&commits)
            .map(|(v, c)| BatchEntry::new(v, c))
            .collect();
        assert!(!key.batch_check(&e));
        assert_eq!(key.batch_culprits(&e), direct, "{} seed {seed}", C::NAME);
    }

    #[test]
    fn batch_culprits_match_verify_on_mixed_sign_vectors() {
        let k1 = CommitKey::<Secp256k1>::setup_precomputed(9, b"mixed-k1");
        let r1 = CommitKey::<Secp256r1>::setup_precomputed(9, b"mixed-r1");
        for seed in 0..6 {
            culprits_match_direct_verify(&k1, 200 + seed);
            culprits_match_direct_verify(&r1, 300 + seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The batched verdict and the bisected culprit set must match
        /// sequential per-item verification exactly, over randomized
        /// good/bad mixes. CI runs this under both the default and the
        /// `rayon` features, covering the serial and sharded paths.
        #[test]
        fn prop_batch_matches_sequential(
            len in 1usize..12,
            mask in 0u64..4096,
            seed in 0u64..1_000,
        ) {
            let key = key(6);
            let bad: Vec<usize> = (0..len).filter(|i| mask >> i & 1 == 1).collect();
            let (vectors, commits) = corrupted_batch(&key, len, &bad, 1_000 + seed);
            let sequential: Vec<usize> = vectors
                .iter()
                .zip(&commits)
                .enumerate()
                .filter(|(_, (v, c))| !key.verify(v, c))
                .map(|(i, _)| i)
                .collect();
            let e = entries(&vectors, &commits);
            prop_assert_eq!(key.batch_check(&e), sequential.is_empty());
            prop_assert_eq!(key.batch_culprits(&e), sequential);
        }

        #[test]
        fn prop_homomorphism_small_vectors(
            a in proptest::collection::vec(0u64..1_000_000, 6),
            b in proptest::collection::vec(0u64..1_000_000, 6),
        ) {
            let key = key(6);
            let va: Vec<_> = a.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            let vb: Vec<_> = b.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            let sum: Vec<_> = va.iter().zip(&vb).map(|(x, y)| *x + *y).collect();
            prop_assert_eq!(
                key.commit(&va).combine(&key.commit(&vb)),
                key.commit(&sum)
            );
        }

        #[test]
        fn prop_binding_on_distinct_vectors(
            a in proptest::collection::vec(0u64..1_000_000, 5),
            b in proptest::collection::vec(0u64..1_000_000, 5),
        ) {
            prop_assume!(a != b);
            let key = key(5);
            let va: Vec<_> = a.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            let vb: Vec<_> = b.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            prop_assert_ne!(key.commit(&va), key.commit(&vb));
        }
    }
}
