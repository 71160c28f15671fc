//! Micro-probes run beside the traced run: timed calls into `dfl-crypto`
//! on inputs shaped like the workload's own gradients.

use std::time::Instant;

use dfl_crypto::pedersen::BatchEntry;
use dfl_crypto::quantize::{to_scalars, Quantized};
use dfl_ml::{Model, SyntheticModel};
use ipls::gradient::{build_blob, decode_blob, ProtocolCurve, ProtocolKey};

use crate::stats::median;
use crate::workload::Workload;

/// Per-call timings of the commitment primitives, in microseconds.
pub struct CryptoProbe {
    /// `commit` on a quantized gradient blob of the partition's length
    /// (counter included): about half the scalars are negative, embedded
    /// as `n - |v|`, so they are full-width.
    pub commit_us: f64,
    /// `commit` on the same magnitudes, every value nonnegative.
    pub commit_us_nonneg: f64,
    /// `batch_check` over one overlay fan-in of openings.
    pub batch_check_us: f64,
}

/// Median wall time of `f` in microseconds over at least `min_reps` calls
/// and `min_secs` seconds.
fn time_us(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut samples)
}

/// The quantized blob (values plus averaging counter) of `grad`.
fn quantized(grad: &[f32]) -> Vec<Quantized> {
    decode_blob(&build_blob(grad)).expect("freshly built blob decodes")
}

/// Runs the crypto probes with the task's own key. `fan_in` openings go
/// into each batch check.
///
/// Fails when the honest openings do not batch-verify.
pub fn crypto(
    w: &Workload,
    key: &ProtocolKey,
    partition_len: usize,
    fan_in: usize,
) -> Result<CryptoProbe, String> {
    let data = &w.datasets[0];
    let grad = w.model.loss_and_grad(&data.x, &data.y).1;
    let mixed = quantized(&grad[..partition_len]);
    let nonneg: Vec<Quantized> = mixed.iter().map(|q| Quantized(q.0.abs())).collect();
    let mixed_scalars = to_scalars::<ProtocolCurve>(&mixed);
    let nonneg_scalars = to_scalars::<ProtocolCurve>(&nonneg);
    let commit_us = time_us(20, 0.3, || {
        std::hint::black_box(key.commit(std::hint::black_box(&mixed_scalars)));
    });
    let commit_us_nonneg = time_us(20, 0.3, || {
        std::hint::black_box(key.commit(std::hint::black_box(&nonneg_scalars)));
    });

    // One fan-in of distinct honest openings, as an interior overlay node
    // checks them.
    let vectors: Vec<_> = (0..fan_in as u64)
        .map(|i| {
            let m = SyntheticModel::new(w.params.len(), w.cfg.seed.wrapping_add(i + 1));
            let g = m.loss_and_grad(&data.x, &data.y).1;
            to_scalars::<ProtocolCurve>(&quantized(&g[..partition_len]))
        })
        .collect();
    let commitments: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
    let entries: Vec<BatchEntry<'_, ProtocolCurve>> = vectors
        .iter()
        .zip(&commitments)
        .map(|(v, c)| BatchEntry::new(v, c))
        .collect();
    if !key.batch_check(&entries) {
        return Err("honest openings failed batch_check".to_string());
    }
    let batch_check_us = time_us(10, 0.3, || {
        std::hint::black_box(key.batch_check(std::hint::black_box(&entries)));
    });
    Ok(CryptoProbe {
        commit_us,
        commit_us_nonneg,
        batch_check_us,
    })
}
