//! Property tests: every MSM kernel — wNAF, Jacobian Pippenger,
//! batch-affine Pippenger, the precomputed table, and (with the `rayon`
//! feature) the parallel reductions — must be *bit-identical* to the naive
//! double-and-add reference, on both protocol curves.
//!
//! Equality is checked on the canonical compressed encoding, not just the
//! projective equivalence class, because commitments travel as serialized
//! bytes: two peers on different code paths must produce the same wire
//! bytes, or verification breaks between them.
//!
//! Scalars mix random field elements with the adversarial edge values:
//! zero, `group order − 1`, the sign boundary `(n∓1)/2` where the
//! sign-magnitude kernels flip from a positive to a negative reading, and
//! small signed magnitudes `±2^j`, `±(2^j − 1)` of every bit length below
//! 64 (the quantized-gradient range). Vector shapes cover empty, length
//! 1, and bucket-sized inputs.

use dfl_crypto::bigint::U256;
use dfl_crypto::curve::{Affine, Curve, Jacobian, Scalar, Secp256k1, Secp256r1};
use dfl_crypto::field::FieldParams;
use dfl_crypto::msm::{Msm, MsmTable, Strategy};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of edge-value scalar codes [`scalar`] decodes; codes at or
/// above it (mod 16) are random scalars.
const SPECIAL_CODES: u64 = 10;

/// Decodes a scalar code. `code % 16` picks the kind and, for the
/// power-of-two kinds, `j = (code >> 4) % 64` the bit length:
/// 0 → zero, 1 → `n − 1` (the largest canonical scalar), 2 → `2^j`,
/// 3 → `−2^j`, 4 → `2^j − 1`, 5 → `−(2^j − 1)`, 6 → `(n − 1)/2` (the
/// largest positive reading), 7 → `(n + 1)/2` (the most negative), 8 → 1,
/// 9 → `n − 2^63` (the most negative quantized value), else random.
fn scalar<C: Curve>(code: u64) -> Scalar<C> {
    let n = <C as Curve>::Scalar::MODULUS;
    let pow = U256::ONE.shl(((code >> 4) % 64) as usize);
    let canonical = |v: U256| Scalar::<C>::from_canonical(v);
    match code % 16 {
        0 => Scalar::<C>::ZERO,
        1 => canonical(n.wrapping_sub(&U256::ONE)),
        2 => canonical(pow),
        3 => -canonical(pow),
        4 => canonical(pow.wrapping_sub(&U256::ONE)),
        5 => -canonical(pow.wrapping_sub(&U256::ONE)),
        6 => canonical(n.shr(1)),
        7 => canonical(n.shr(1).wrapping_add(&U256::ONE)),
        8 => Scalar::<C>::ONE,
        9 => canonical(n.wrapping_sub(&U256::ONE.shl(63))),
        _ => Scalar::<C>::random(&mut StdRng::seed_from_u64(code)),
    }
}

/// Decodes one `(point_seed, scalar_code)` pair into an MSM term.
fn term<C: Curve>(point_seed: u64, scalar_code: u64) -> (Affine<C>, Scalar<C>) {
    let point = Affine::<C>::random(&mut StdRng::seed_from_u64(point_seed));
    (point, scalar::<C>(scalar_code))
}

/// Scalar codes restricted to the edge values (no random scalars).
fn special_code() -> impl proptest::strategy::Strategy<Value = u64> {
    (0..SPECIAL_CODES, 0u64..64).prop_map(|(kind, j)| kind | (j << 4))
}

/// The naive reference result, in canonical wire form.
fn naive<C: Curve>(points: &[Affine<C>], scalars: &[Scalar<C>]) -> [u8; 33] {
    encode(
        Msm::new(points)
            .with_strategy(Strategy::Naive)
            .eval(scalars),
    )
}

/// Canonical wire form of an MSM result.
fn encode<C: Curve>(p: Jacobian<C>) -> [u8; 33] {
    p.to_affine().to_compressed()
}

/// Asserts every kernel matches naive on this instance, byte for byte.
fn assert_all_paths_agree<C: Curve>(pairs: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let (points, scalars): (Vec<Affine<C>>, Vec<Scalar<C>>) =
        pairs.iter().map(|&(p, s)| term::<C>(p, s)).unzip();
    let reference = naive(&points, &scalars);
    for strategy in [
        Strategy::Wnaf,
        Strategy::Pippenger,
        Strategy::BatchAffine,
        Strategy::Auto,
    ] {
        prop_assert_eq!(
            encode(Msm::new(&points).with_strategy(strategy).eval(&scalars)),
            reference,
            "{:?} diverges from naive on {} ({} terms)",
            strategy,
            C::NAME,
            points.len()
        );
    }

    let table = MsmTable::build(&points);
    prop_assert_eq!(
        encode(table.eval_parallel(&scalars, false)),
        reference,
        "table path diverges from naive on {}",
        C::NAME
    );
    prop_assert_eq!(
        encode(Msm::new(&points).with_table(&table).eval(&scalars)),
        reference,
        "auto-with-table path diverges from naive on {}",
        C::NAME
    );

    #[cfg(feature = "rayon")]
    {
        prop_assert_eq!(
            encode(table.eval_parallel(&scalars, true)),
            reference,
            "parallel table path not bit-identical on {}",
            C::NAME
        );
        prop_assert_eq!(
            encode(
                Msm::new(&points)
                    .with_strategy(Strategy::BatchAffine)
                    .with_parallel(true)
                    .eval(&scalars)
            ),
            reference,
            "parallel batch-affine path not bit-identical on {}",
            C::NAME
        );
    }
    Ok(())
}

/// Asserts a table of every window width `1..=16` matches naive: the
/// sign flip and the digit-window bound of the sign-magnitude walk both
/// depend on the width.
fn assert_every_window_agrees<C: Curve>(pairs: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let (points, scalars): (Vec<Affine<C>>, Vec<Scalar<C>>) =
        pairs.iter().map(|&(p, s)| term::<C>(p, s)).unzip();
    let reference = naive(&points, &scalars);
    for window in 1..=16 {
        let table = MsmTable::with_window(&points, window);
        prop_assert_eq!(
            encode(table.eval(&scalars)),
            reference,
            "window {} diverges from naive on {}",
            window,
            C::NAME
        );
    }
    Ok(())
}

/// Asserts the table-free small-MSM kernels (`Wnaf`, and `Auto` below 32
/// points) match naive. `(point_seed, scalar_code, slot)` triples with
/// `slot == 0` use the identity point.
fn assert_small_msm_agrees<C: Curve>(terms: &[(u64, u64, u64)]) -> Result<(), TestCaseError> {
    let (points, scalars): (Vec<Affine<C>>, Vec<Scalar<C>>) = terms
        .iter()
        .map(|&(p, s, slot)| {
            let (point, scalar) = term::<C>(p, s);
            (if slot == 0 { Affine::identity() } else { point }, scalar)
        })
        .unzip();
    let reference = naive(&points, &scalars);
    for strategy in [Strategy::Wnaf, Strategy::Auto] {
        prop_assert_eq!(
            encode(Msm::new(&points).with_strategy(strategy).eval(&scalars)),
            reference,
            "{:?} diverges from naive on {} ({} terms)",
            strategy,
            C::NAME,
            points.len()
        );
    }
    Ok(())
}

proptest! {
    // Few cases, many terms each: one case runs 16 table evaluations per
    // curve, and the wide windows' running sums dominate the cost.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn prop_table_every_window_matches_naive(
        pairs in proptest::collection::vec((1u64..u64::MAX, special_code()), 1..16),
    ) {
        assert_every_window_agrees::<Secp256k1>(&pairs)?;
        assert_every_window_agrees::<Secp256r1>(&pairs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_small_msm_matches_naive(
        terms in proptest::collection::vec((1u64..u64::MAX, 0u64..u64::MAX, 0u64..6), 1..32),
    ) {
        // Mixed bit lengths: about 10 in 16 scalar codes are edge values
        // (zero, small signed magnitudes, the sign boundary), the rest
        // random; about 1 point in 6 is the identity.
        assert_small_msm_agrees::<Secp256k1>(&terms)?;
        assert_small_msm_agrees::<Secp256r1>(&terms)?;
    }

    #[test]
    fn prop_all_kernels_match_naive(
        pairs in proptest::collection::vec((1u64..u64::MAX, 0u64..u64::MAX), 0..48),
    ) {
        assert_all_paths_agree::<Secp256k1>(&pairs)?;
        assert_all_paths_agree::<Secp256r1>(&pairs)?;
    }

    #[test]
    fn prop_single_term_matches_naive(seed in 1u64..u64::MAX, code in 0u64..u64::MAX) {
        assert_all_paths_agree::<Secp256k1>(&[(seed, code)])?;
        assert_all_paths_agree::<Secp256r1>(&[(seed, code)])?;
    }

    #[test]
    fn prop_all_zero_scalars_give_identity(
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..20),
    ) {
        // scalar_code 0 → Scalar::ZERO for every term.
        let pairs: Vec<(u64, u64)> = seeds.iter().map(|&s| (s, 0u64)).collect();
        assert_all_paths_agree::<Secp256k1>(&pairs)?;
        assert_all_paths_agree::<Secp256r1>(&pairs)?;
        let (points, scalars): (Vec<Affine<Secp256k1>>, Vec<Scalar<Secp256k1>>) =
            pairs.iter().map(|&(p, s)| term::<Secp256k1>(p, s)).unzip();
        prop_assert!(Msm::new(&points).eval(&scalars).is_identity());
    }

    #[test]
    fn prop_order_minus_one_scalars(
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..20),
    ) {
        // scalar_code 1 → n − 1 ≡ −1 for every term: the result must be
        // the negated point sum, and every kernel must agree on it.
        let pairs: Vec<(u64, u64)> = seeds.iter().map(|&s| (s, 1u64)).collect();
        assert_all_paths_agree::<Secp256k1>(&pairs)?;
        assert_all_paths_agree::<Secp256r1>(&pairs)?;
        let (points, scalars): (Vec<Affine<Secp256r1>>, Vec<Scalar<Secp256r1>>) =
            pairs.iter().map(|&(p, s)| term::<Secp256r1>(p, s)).unzip();
        let mut negated_sum = Jacobian::<Secp256r1>::identity();
        for p in &points {
            negated_sum = negated_sum.add_affine(&p.negate());
        }
        prop_assert_eq!(
            encode(Msm::new(&points).eval(&scalars)),
            encode(negated_sum)
        );
    }
}

#[test]
fn empty_input_all_paths() {
    let points: Vec<Affine<Secp256k1>> = Vec::new();
    let scalars: Vec<Scalar<Secp256k1>> = Vec::new();
    for strategy in [
        Strategy::Naive,
        Strategy::Wnaf,
        Strategy::Pippenger,
        Strategy::BatchAffine,
        Strategy::Auto,
    ] {
        assert!(
            Msm::new(&points)
                .with_strategy(strategy)
                .eval(&scalars)
                .is_identity(),
            "{strategy:?}"
        );
    }
    assert!(MsmTable::build(&points).eval(&scalars).is_identity());
}

#[test]
fn edge_scalars_table_chunked_matches_naive() {
    // Every edge code at every bit length, over enough terms that the
    // `rayon` build takes the chunked parallel table path.
    let pairs: Vec<(u64, u64)> = (0..320u64)
        .map(|i| (i + 1, (i % SPECIAL_CODES) | ((i % 64) << 4)))
        .collect();
    fn check<C: Curve>(pairs: &[(u64, u64)]) {
        let (points, scalars): (Vec<Affine<C>>, Vec<Scalar<C>>) =
            pairs.iter().map(|&(p, s)| term::<C>(p, s)).unzip();
        let reference = naive(&points, &scalars);
        let table = MsmTable::build(&points);
        assert_eq!(encode(table.eval_parallel(&scalars, false)), reference);
        assert_eq!(encode(table.eval_parallel(&scalars, true)), reference);
    }
    check::<Secp256k1>(&pairs);
    check::<Secp256r1>(&pairs);
}
