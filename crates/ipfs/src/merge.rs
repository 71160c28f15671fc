//! Storage-side gradient pre-aggregation — the *merge-and-download*
//! primitive (§III-E of the paper).
//!
//! Instead of downloading every gradient partition stored on a node, an
//! aggregator sends the node a set of CIDs and asks for their element-wise
//! sum. The node decodes each blob as a fixed-point gradient vector (the
//! wire format from [`dfl_crypto::quantize`]), sums, and returns one blob —
//! cutting the aggregator's download volume from `|T|` partitions to
//! `|P|` pre-merged ones.

use dfl_crypto::quantize::{decode, encode, sum_quantized, Quantized};

/// Why a merge request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No CIDs were supplied.
    Empty,
    /// A blob was not a valid encoded gradient vector.
    MalformedBlob { index: usize },
    /// Two blobs had different vector lengths.
    LengthMismatch {
        expected: usize,
        found: usize,
        index: usize,
    },
    /// An element's sum left the `i64` fixed-point range. Honest
    /// gradients never get near it; a hostile blob can, and a clamped sum
    /// would not open the accumulated commitment.
    Overflow,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "merge request contained no blobs"),
            MergeError::MalformedBlob { index } => {
                write!(f, "blob {index} is not a valid encoded gradient vector")
            }
            MergeError::LengthMismatch {
                expected,
                found,
                index,
            } => write!(f, "blob {index} has {found} elements, expected {expected}"),
            MergeError::Overflow => write!(f, "merged sum overflows the fixed-point range"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Sums a set of encoded gradient blobs into one encoded blob.
///
/// # Errors
///
/// Returns an error if the input is empty, any blob fails to decode, the
/// vectors disagree in length, or an element's sum overflows `i64`.
pub fn merge_blobs<B: AsRef<[u8]>>(blobs: &[B]) -> Result<Vec<u8>, MergeError> {
    if blobs.is_empty() {
        return Err(MergeError::Empty);
    }
    let mut vectors: Vec<Vec<Quantized>> = Vec::with_capacity(blobs.len());
    let mut expected_len = None;
    for (index, blob) in blobs.iter().enumerate() {
        let v = decode(blob.as_ref()).ok_or(MergeError::MalformedBlob { index })?;
        match expected_len {
            None => expected_len = Some(v.len()),
            Some(expected) if expected != v.len() => {
                return Err(MergeError::LengthMismatch {
                    expected,
                    found: v.len(),
                    index,
                });
            }
            _ => {}
        }
        vectors.push(v);
    }
    sum_quantized(&vectors)
        .map(|sum| encode(&sum))
        .ok_or(MergeError::Overflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfl_crypto::quantize::{dequantize_vector, quantize_vector};
    use proptest::prelude::*;

    fn blob(values: &[f32]) -> Vec<u8> {
        encode(&quantize_vector(values))
    }

    #[test]
    fn merge_two_blobs() {
        let merged = merge_blobs(&[blob(&[1.0, 2.0]), blob(&[0.5, -1.0])]).unwrap();
        let out = dequantize_vector(&decode(&merged).unwrap());
        assert_eq!(out, vec![1.5, 1.0]);
    }

    #[test]
    fn merge_single_blob_is_identity() {
        let b = blob(&[3.25, -0.5, 0.0]);
        assert_eq!(merge_blobs(std::slice::from_ref(&b)).unwrap(), b);
    }

    #[test]
    fn merge_equals_sequential_sums() {
        // merge(a, b, c) == merge(merge(a, b), c): associativity lets
        // aggregators combine pre-merged partials safely.
        let a = blob(&[1.0, 2.0, 3.0]);
        let b = blob(&[-0.5, 0.25, 1.0]);
        let c = blob(&[10.0, -2.0, 0.125]);
        let all = merge_blobs(&[a.clone(), b.clone(), c.clone()]).unwrap();
        let ab = merge_blobs(&[a, b]).unwrap();
        let ab_c = merge_blobs(&[ab, c]).unwrap();
        assert_eq!(all, ab_c);
    }

    #[test]
    fn errors() {
        assert_eq!(merge_blobs::<Vec<u8>>(&[]), Err(MergeError::Empty));
        assert_eq!(
            merge_blobs(&[vec![1u8, 2, 3]]),
            Err(MergeError::MalformedBlob { index: 0 })
        );
        assert_eq!(
            merge_blobs(&[blob(&[1.0, 2.0]), blob(&[1.0])]),
            Err(MergeError::LengthMismatch {
                expected: 2,
                found: 1,
                index: 1
            })
        );
    }

    #[test]
    fn overflowing_merge_is_an_error_not_a_clamp() {
        let max = encode(&[Quantized(i64::MAX)]);
        let one = encode(&[Quantized(1)]);
        let minus_one = encode(&[Quantized(-1)]);
        assert_eq!(
            merge_blobs(&[max.clone(), one.clone()]),
            Err(MergeError::Overflow)
        );
        let min = encode(&[Quantized(i64::MIN)]);
        assert_eq!(
            merge_blobs(&[min, minus_one.clone()]),
            Err(MergeError::Overflow)
        );
        // The exact sum decides, not the order of accumulation.
        assert_eq!(merge_blobs(&[max.clone(), one, minus_one]), Ok(max));
    }

    proptest! {
        #[test]
        fn prop_merge_commutative(
            a in proptest::collection::vec(-100.0f32..100.0, 8),
            b in proptest::collection::vec(-100.0f32..100.0, 8),
        ) {
            let x = merge_blobs(&[blob(&a), blob(&b)]).unwrap();
            let y = merge_blobs(&[blob(&b), blob(&a)]).unwrap();
            prop_assert_eq!(x, y);
        }

        #[test]
        fn prop_merge_matches_float_sum(
            vs in proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 4), 1..6),
        ) {
            let blobs: Vec<Vec<u8>> = vs.iter().map(|v| blob(v)).collect();
            let merged = dequantize_vector(&decode(&merge_blobs(&blobs).unwrap()).unwrap());
            for j in 0..4 {
                let expect: f32 = vs.iter().map(|v| v[j]).sum();
                prop_assert!((merged[j] - expect).abs() < 1e-3);
            }
        }
    }
}
