//! # dfl-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (§V). Each `figN_*` function reproduces one figure's setup
//! and returns the measured series; the `examples/figN_*` binaries print
//! them and the Criterion benches in `benches/` wrap the underlying
//! operations for statistically robust timing.
//!
//! | Paper figure | Function | Setup |
//! |---|---|---|
//! | Fig. 1 (agg + upload delay vs providers) | [`fig1_providers`] | 16 trainers, 1.3 MB partition, 1 aggregator, 10 Mbps |
//! | Fig. 2 (delay split + bytes vs \|A_i\|)  | [`fig2_aggregators`] | 16 trainers, 8 nodes, 4×1.1 MB partitions, 20 Mbps |
//! | Fig. 3 (hash vs commitment time)         | [`fig3_commitment`] | SHA-256 + Pedersen (k1/r1) vs #parameters |

use std::time::Instant;

use dfl_crypto::curve::{Curve, Scalar, Secp256k1, Secp256r1};
use dfl_crypto::msm::{self, Msm, MsmTable, Strategy};
use dfl_crypto::pedersen::{BatchEntry, CommitKey, Commitment};
use dfl_crypto::sha256::Sha256;
use dfl_ml::{Dataset, Matrix, Model, SgdConfig, SyntheticModel};
use dfl_netsim::{FaultPlan, NodeId, SimDuration, SimTime, Trace};
use ipls::overlay::OverlayTree;
use ipls::{labels, run_task, CommMode, TaskConfig, TaskReport};

/// Bytes per encoded parameter on the wire (fixed-point i64).
pub const BYTES_PER_ELEMENT: usize = 8;

/// Runs one network experiment round with a synthetic model of
/// `param_count` parameters and returns the report.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_network_experiment(cfg: TaskConfig, param_count: usize) -> TaskReport {
    let model = SyntheticModel::new(param_count, cfg.seed);
    let params = dfl_ml::Model::params(&model);
    // Delay experiments do not train on real data; a single dummy example
    // keeps the local-update plumbing exercised.
    let datasets: Vec<Dataset> = (0..cfg.trainers)
        .map(|_| Dataset {
            x: Matrix::zeros(1, 1),
            y: vec![0.0],
        })
        .collect();
    let sgd = SgdConfig {
        lr: 0.01,
        batch_size: 1,
        epochs: 1,
        clip: None,
    };
    run_task(cfg, model, params, datasets, sgd, &[]).expect("valid experiment config")
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// One series point of Fig. 1.
#[derive(Clone, Debug)]
pub struct Fig1Point {
    /// Series label as in the paper ("4", "8 (naive)", "8 (direct)").
    pub label: String,
    /// Providers per aggregator (the x axis).
    pub providers: usize,
    /// Aggregation delay in seconds: first gradient hash in the directory
    /// → all gradients aggregated (Fig. 1 top).
    pub aggregation_delay: f64,
    /// Mean trainer upload delay in seconds: upload start → last store
    /// acknowledgment (Fig. 1 bottom; 0 for the direct series, which has
    /// no store acknowledgment).
    pub upload_delay: f64,
}

/// Fig. 1 base setup: 16 trainers, one 1.3 MB partition, one aggregator,
/// every link 10 Mbps.
pub fn fig1_config() -> TaskConfig {
    TaskConfig {
        trainers: 16,
        partitions: 1,
        aggregators_per_partition: 1,
        ipfs_nodes: 16,
        bandwidth_mbps: 10,
        rounds: 1,
        latency: SimDuration::from_millis(10),
        poll_interval: SimDuration::from_millis(100),
        t_train: SimDuration::from_secs(600),
        t_sync: SimDuration::from_secs(1200),
        seed: 1,
        ..TaskConfig::default()
    }
}

/// Parameter count giving the paper's 1.3 MB partition.
pub fn fig1_param_count() -> usize {
    1_300_000 / BYTES_PER_ELEMENT
}

/// Runs one Fig. 1 point.
pub fn fig1_run(comm: CommMode, providers: usize) -> Fig1Point {
    let mut cfg = fig1_config();
    cfg.comm = comm;
    cfg.providers_per_aggregator = providers.max(1);
    if comm == CommMode::Indirect {
        // The "naive" series stores gradients on `providers` gateways.
        cfg.ipfs_nodes = providers.max(1);
    }
    let report = run_network_experiment(cfg, fig1_param_count());
    let round = report.rounds.first().expect("round completed");
    Fig1Point {
        label: match comm {
            CommMode::Direct => format!("{providers} (direct)"),
            CommMode::Indirect => format!("{providers} (naive)"),
            CommMode::MergeAndDownload => providers.to_string(),
        },
        providers,
        aggregation_delay: round.aggregation_delay,
        upload_delay: round.upload_delay_avg,
    }
}

/// The full Fig. 1 sweep: merge-and-download with 1–16 providers, plus the
/// naive-indirect and direct baselines at 8 providers.
pub fn fig1_providers() -> Vec<Fig1Point> {
    let mut points: Vec<Fig1Point> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&p| fig1_run(CommMode::MergeAndDownload, p))
        .collect();
    points.push(fig1_run(CommMode::Indirect, 8));
    points.push(fig1_run(CommMode::Direct, 8));
    points
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// One series point of Fig. 2.
#[derive(Clone, Debug)]
pub struct Fig2Point {
    /// Aggregators per partition `|A_i|`.
    pub aggregators_per_partition: usize,
    /// Gradient-aggregation delay (seconds).
    pub aggregation_delay: f64,
    /// Synchronization delay (seconds).
    pub sync_delay: f64,
    /// Total aggregation delay (Fig. 2 top).
    pub total_delay: f64,
    /// Mean megabytes received per aggregator in the round (Fig. 2 bottom).
    pub mb_per_aggregator: f64,
    /// The analytic expectation `(|T_ij| + |A_i| − 1) · PartitionSize`.
    pub expected_mb: f64,
}

/// Fig. 2 base setup: 16 trainers, 8 storage nodes, 4 partitions of 1.1 MB,
/// 20 Mbps, naive indirect communication (the paper isolates |A_i| without
/// merge-and-download).
pub fn fig2_config() -> TaskConfig {
    TaskConfig {
        trainers: 16,
        partitions: 4,
        aggregators_per_partition: 1,
        ipfs_nodes: 8,
        comm: CommMode::Indirect,
        bandwidth_mbps: 20,
        // The paper shapes participant links to 20 Mbps; storage nodes run
        // on unshaped mininet infrastructure links (see EXPERIMENTS.md).
        ipfs_bandwidth_mbps: Some(200),
        rounds: 1,
        latency: SimDuration::from_millis(10),
        poll_interval: SimDuration::from_millis(100),
        seed: 2,
        ..TaskConfig::default()
    }
}

/// Parameter count giving four 1.1 MB partitions.
pub fn fig2_param_count() -> usize {
    4 * 1_100_000 / BYTES_PER_ELEMENT
}

/// Runs one Fig. 2 point.
pub fn fig2_run(aggregators_per_partition: usize) -> Fig2Point {
    let mut cfg = fig2_config();
    cfg.aggregators_per_partition = aggregators_per_partition;
    let report = run_network_experiment(cfg.clone(), fig2_param_count());
    let round = report.rounds.first().expect("round completed");
    let mean_bytes = report.aggregator_rx_bytes.iter().sum::<u64>() as f64
        / report.aggregator_rx_bytes.len() as f64;
    let partition_mb = 1.1;
    let t_ij = cfg.trainers as f64 / aggregators_per_partition as f64;
    Fig2Point {
        aggregators_per_partition,
        aggregation_delay: round.aggregation_delay,
        sync_delay: round.sync_delay,
        total_delay: round.total_aggregation_delay,
        mb_per_aggregator: mean_bytes / 1e6,
        expected_mb: (t_ij + aggregators_per_partition as f64 - 1.0) * partition_mb,
    }
}

/// The full Fig. 2 sweep over `|A_i| ∈ {1, 2, 4}`.
pub fn fig2_aggregators() -> Vec<Fig2Point> {
    [1usize, 2, 4].iter().map(|&a| fig2_run(a)).collect()
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One series point of Fig. 3 (real wall-clock measurements).
#[derive(Clone, Debug)]
pub struct Fig3Point {
    /// Number of model parameters.
    pub elements: usize,
    /// SHA-256 time over the serialized parameters (ms).
    pub sha256_ms: f64,
    /// Pedersen commitment, naive MSM, secp256k1 (ms) — the paper's
    /// "straightforward" implementation.
    pub pedersen_k1_ms: f64,
    /// Pedersen commitment, naive MSM, secp256r1 (ms).
    pub pedersen_r1_ms: f64,
    /// Pedersen commitment with Pippenger MSM on secp256k1 (ms) — the
    /// paper's cited future-work optimization, as an ablation.
    pub pippenger_k1_ms: f64,
    /// Pedersen commitment through the precomputed-table fast path,
    /// secp256k1 (ms).
    pub fast_k1_ms: f64,
    /// Pedersen commitment through the precomputed-table fast path,
    /// secp256r1 (ms).
    pub fast_r1_ms: f64,
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn deterministic_scalars<C: Curve>(n: usize) -> Vec<Scalar<C>> {
    // Realistic quantized-gradient scalars: alternating signs, so half the
    // canonical exponents are ≈256-bit (negatives map to n − |v|) exactly
    // as in the protocol.
    (0..n)
        .map(|i| {
            let magnitude = 0x9E37u64.wrapping_mul(i as u64 + 1) & 0xFF_FFFF;
            if i % 2 == 0 {
                Scalar::<C>::from_u64(magnitude)
            } else {
                Scalar::<C>::from_i64(-(magnitude as i64))
            }
        })
        .collect()
}

/// Measures one Fig. 3 point for a model of `elements` parameters, reusing
/// pre-built commitment keys (generator derivation is setup, not the
/// per-round cost the paper measures).
///
/// # Panics
///
/// Panics if either key has fewer than `elements` generators.
pub fn fig3_run(
    elements: usize,
    key_k1: &CommitKey<Secp256k1>,
    key_r1: &CommitKey<Secp256r1>,
) -> Fig3Point {
    assert!(
        key_k1.len() >= elements && key_r1.len() >= elements,
        "keys too short"
    );
    let bytes = vec![0xA5u8; elements * BYTES_PER_ELEMENT];
    let sha256_ms = time_ms(|| {
        std::hint::black_box(Sha256::digest(&bytes));
    });

    let scalars_k1 = deterministic_scalars::<Secp256k1>(elements);
    let scalars_r1 = deterministic_scalars::<Secp256r1>(elements);

    let pedersen_k1_ms = time_ms(|| {
        std::hint::black_box(key_k1.commit_naive(&scalars_k1));
    });
    let pedersen_r1_ms = time_ms(|| {
        std::hint::black_box(key_r1.commit_naive(&scalars_r1));
    });
    let pippenger_k1_ms = time_ms(|| {
        std::hint::black_box(
            Msm::new(&key_k1.generators()[..elements])
                .with_strategy(Strategy::Pippenger)
                .eval(&scalars_k1),
        );
    });
    // The redesigned pipeline: `commit` routes through the precomputed
    // table when the key carries one (see `fig3_commitment`), and through
    // batch-affine Pippenger otherwise.
    let fast_k1_ms = time_ms(|| {
        std::hint::black_box(key_k1.commit(&scalars_k1));
    });
    let fast_r1_ms = time_ms(|| {
        std::hint::black_box(key_r1.commit(&scalars_r1));
    });

    Fig3Point {
        elements,
        sha256_ms,
        pedersen_k1_ms,
        pedersen_r1_ms,
        pippenger_k1_ms,
        fast_k1_ms,
        fast_r1_ms,
    }
}

/// The Fig. 3 sweep over the given parameter counts.
///
/// The paper sweeps up to ~25 M parameters (minutes per point on Bouncy
/// Castle); pass smaller sizes for a quick run — the series is linear in
/// the parameter count, which is the property the figure demonstrates.
pub fn fig3_commitment(sizes: &[usize]) -> Vec<Fig3Point> {
    let max = sizes.iter().copied().max().unwrap_or(0);
    let key_k1 = CommitKey::<Secp256k1>::setup_precomputed(max, b"fig3");
    let key_r1 = CommitKey::<Secp256r1>::setup_precomputed(max, b"fig3");
    sizes
        .iter()
        .map(|&n| fig3_run(n, &key_k1, &key_r1))
        .collect()
}

/// Default Fig. 3 sizes (kept laptop-friendly; see EXPERIMENTS.md).
pub fn fig3_default_sizes() -> Vec<usize> {
    vec![1 << 10, 1 << 12, 1 << 14, 1 << 16]
}

// ---------------------------------------------------------------------------
// Commitment-pipeline before/after report (BENCH_crypto.json)
// ---------------------------------------------------------------------------

/// Before/after timings of every MSM kernel and of the end-to-end Pedersen
/// commit on one curve, at a fixed vector length. Produced by
/// [`crypto_report`], serialized by [`crypto_report_json`].
#[derive(Clone, Debug)]
pub struct MsmProfile {
    /// Curve name (`secp256k1` / `secp256r1`).
    pub curve: &'static str,
    /// MSM length (number of generators = model-partition parameters).
    pub elements: usize,
    /// Naive double-and-add (ms) — the seed's serial baseline.
    pub naive_ms: f64,
    /// Width-5 wNAF (ms).
    pub wnaf_ms: f64,
    /// Jacobian Pippenger (ms).
    pub pippenger_ms: f64,
    /// Batch-affine Pippenger (ms) — the new tableless default.
    pub batch_affine_ms: f64,
    /// One-time fixed-base table construction (ms) — setup, not per-commit.
    pub table_build_ms: f64,
    /// Precomputed-table evaluation, single-threaded (ms).
    pub table_ms: f64,
    /// Precomputed-table evaluation across threads (ms); `None` when the
    /// `rayon` feature is off and no parallel path exists.
    pub table_parallel_ms: Option<f64>,
    /// End-to-end `CommitKey::commit_naive` (ms) — the seed commit path.
    pub commit_naive_ms: f64,
    /// End-to-end `CommitKey::commit` on a precomputed key (ms).
    pub commit_fast_ms: f64,
}

impl MsmProfile {
    /// Commit speedup of the precomputed fast path over the seed's naive
    /// serial path (the acceptance metric).
    pub fn commit_speedup(&self) -> f64 {
        self.commit_naive_ms / self.commit_fast_ms.max(1e-9)
    }
}

fn profile_curve<C: Curve>(elements: usize) -> MsmProfile {
    let key = CommitKey::<C>::setup(elements, b"bench-crypto");
    let scalars = deterministic_scalars::<C>(elements);
    let points = &key.generators()[..elements];

    let naive_ms = time_ms(|| {
        std::hint::black_box(
            Msm::new(points)
                .with_strategy(Strategy::Naive)
                .eval(&scalars),
        );
    });
    let wnaf_ms = time_ms(|| {
        std::hint::black_box(
            Msm::new(points)
                .with_strategy(Strategy::Wnaf)
                .eval(&scalars),
        );
    });
    let pippenger_ms = time_ms(|| {
        std::hint::black_box(
            Msm::new(points)
                .with_strategy(Strategy::Pippenger)
                .eval(&scalars),
        );
    });
    let batch_affine_ms = time_ms(|| {
        std::hint::black_box(
            Msm::new(points)
                .with_strategy(Strategy::BatchAffine)
                .with_parallel(false)
                .eval(&scalars),
        );
    });

    let start = Instant::now();
    let table = MsmTable::build(points);
    let table_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let table_ms = time_ms(|| {
        std::hint::black_box(table.eval_parallel(&scalars, false));
    });
    let table_parallel_ms = msm::parallel_enabled().then(|| {
        time_ms(|| {
            std::hint::black_box(table.eval_parallel(&scalars, true));
        })
    });

    let commit_naive_ms = time_ms(|| {
        std::hint::black_box(key.commit_naive(&scalars));
    });
    let mut fast_key = key;
    fast_key.precompute();
    let commit_fast_ms = time_ms(|| {
        std::hint::black_box(fast_key.commit(&scalars));
    });

    MsmProfile {
        curve: C::NAME,
        elements,
        naive_ms,
        wnaf_ms,
        pippenger_ms,
        batch_affine_ms,
        table_build_ms,
        table_ms,
        table_parallel_ms,
        commit_naive_ms,
        commit_fast_ms,
    }
}

/// Profiles the full commitment pipeline — every MSM kernel plus the
/// end-to-end commit — at `elements` scalars on both protocol curves.
pub fn crypto_report(elements: usize) -> Vec<MsmProfile> {
    vec![
        profile_curve::<Secp256k1>(elements),
        profile_curve::<Secp256r1>(elements),
    ]
}

fn json_f64(v: f64) -> String {
    format!("{v:.3}")
}

/// Before/after wall-clock of the commitment checks in one verifiable
/// round: `trainers` gradient blobs of `elements` scalars each, verified
/// one blob at a time (direct [`CommitKey::verify`] per blob) versus with a
/// single random-linear-combination batch over the whole round (the
/// protocol's deferred queue, [`CommitKey::batch_culprits`] on the
/// all-honest fast path).
#[derive(Clone, Debug)]
pub struct VerifiableRoundPoint {
    /// Trainers contributing one gradient blob each.
    pub trainers: usize,
    /// Scalars per blob (partition parameters plus the averaging counter).
    pub elements: usize,
    /// Per-blob verification of the whole round (ms).
    pub per_blob_ms: f64,
    /// One batched RLC check of the whole round (ms).
    pub batched_ms: f64,
}

impl VerifiableRoundPoint {
    /// Round-level speedup of the batched check over per-blob verification.
    pub fn speedup(&self) -> f64 {
        self.per_blob_ms / self.batched_ms.max(1e-9)
    }
}

/// Measures one verifiable round of `trainers` × `elements` on the
/// protocol curve. Each trainer's vector is the shared base plus one
/// distinct single-element bump, so its commitment is built homomorphically
/// (base commit ⊕ one single-generator mul) — setup stays O(trainers)
/// scalar muls and the timed spans cover verification only.
pub fn verifiable_round_point(trainers: usize, elements: usize) -> VerifiableRoundPoint {
    let mut key = CommitKey::<Secp256k1>::setup(elements, b"bench-verifiable-round");
    key.precompute();
    let base = deterministic_scalars::<Secp256k1>(elements);
    let base_commit = key.commit(&base);

    let mut vectors: Vec<Vec<Scalar<Secp256k1>>> = Vec::with_capacity(trainers);
    let mut commits: Vec<Commitment<Secp256k1>> = Vec::with_capacity(trainers);
    for i in 0..trainers {
        let k = i % elements;
        let delta = Scalar::<Secp256k1>::from_u64(0x9E37u64.wrapping_mul(i as u64) & 0xFF_FFFF | 1);
        let mut values = base.clone();
        values[k] += delta;
        let bump = key.generators()[k].mul(&delta);
        vectors.push(values);
        commits.push(Commitment::from_point(base_commit.point().add(&bump)));
    }

    let per_blob_ms = time_ms(|| {
        for (values, commitment) in vectors.iter().zip(&commits) {
            assert!(key.verify(values, std::hint::black_box(commitment)));
        }
    });
    let entries: Vec<BatchEntry<'_, Secp256k1>> = vectors
        .iter()
        .zip(&commits)
        .map(|(values, commitment)| BatchEntry::new(values, commitment))
        .collect();
    let batched_ms = time_ms(|| {
        assert!(key
            .batch_culprits(std::hint::black_box(&entries))
            .is_empty());
    });

    VerifiableRoundPoint {
        trainers,
        elements,
        per_blob_ms,
        batched_ms,
    }
}

/// The verifiable-round sweep recorded in `BENCH_crypto.json`: swarm sizes
/// up to the paper's 10k-trainer scale at a fixed per-blob length.
pub fn verifiable_round_sweep(sizes: &[usize], elements: usize) -> Vec<VerifiableRoundPoint> {
    sizes
        .iter()
        .map(|&n| verifiable_round_point(n, elements))
        .collect()
}

/// Hand-formats the report as the `BENCH_crypto.json` document (the repo
/// carries no JSON dependency; the schema is flat enough to emit directly).
pub fn crypto_report_json(profiles: &[MsmProfile], rounds: &[VerifiableRoundPoint]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"parallel_enabled\": {},\n  \"curves\": [\n",
        msm::parallel_enabled()
    ));
    for (i, p) in profiles.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"curve\": \"{}\",\n", p.curve));
        out.push_str(&format!("      \"elements\": {},\n", p.elements));
        out.push_str("      \"before_ms\": {\n");
        out.push_str(&format!("        \"naive\": {},\n", json_f64(p.naive_ms)));
        out.push_str(&format!("        \"wnaf\": {},\n", json_f64(p.wnaf_ms)));
        out.push_str(&format!(
            "        \"pippenger\": {}\n      }},\n",
            json_f64(p.pippenger_ms)
        ));
        out.push_str("      \"after_ms\": {\n");
        out.push_str(&format!(
            "        \"batch_affine\": {},\n",
            json_f64(p.batch_affine_ms)
        ));
        out.push_str(&format!(
            "        \"table_build\": {},\n",
            json_f64(p.table_build_ms)
        ));
        out.push_str(&format!("        \"table\": {}", json_f64(p.table_ms)));
        if let Some(par) = p.table_parallel_ms {
            out.push_str(&format!(",\n        \"table_parallel\": {}", json_f64(par)));
        }
        out.push_str("\n      },\n");
        out.push_str("      \"commit_ms\": {\n");
        out.push_str(&format!(
            "        \"seed_naive\": {},\n",
            json_f64(p.commit_naive_ms)
        ));
        out.push_str(&format!(
            "        \"precomputed\": {}\n      }},\n",
            json_f64(p.commit_fast_ms)
        ));
        out.push_str(&format!(
            "      \"commit_speedup\": {}\n    }}{}\n",
            json_f64(p.commit_speedup()),
            if i + 1 < profiles.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"verifiable_round\": [\n");
    for (i, r) in rounds.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"trainers\": {},\n", r.trainers));
        out.push_str(&format!("      \"elements\": {},\n", r.elements));
        out.push_str(&format!(
            "      \"per_blob_ms\": {},\n",
            json_f64(r.per_blob_ms)
        ));
        out.push_str(&format!(
            "      \"batched_ms\": {},\n",
            json_f64(r.batched_ms)
        ));
        out.push_str(&format!(
            "      \"speedup\": {}\n    }}{}\n",
            json_f64(r.speedup()),
            if i + 1 < rounds.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Trace-query before/after report (BENCH_netsim.json)
// ---------------------------------------------------------------------------

/// Before/after timings of the standard trace-query battery on one trace.
///
/// "Before" is the seed's access pattern: every query walks the whole event
/// log and resolves each event's label to a string for comparison. "After"
/// is the interned-label index introduced with the structured metrics
/// layer: `count`/`sum` are O(1) and `find` walks only one label's index.
/// Produced by [`trace_query_profile`], serialized by [`netsim_report_json`].
#[derive(Clone, Debug)]
pub struct TraceQueryProfile {
    /// Which trace was profiled (`fig2` / `synthetic`).
    pub source: String,
    /// Events in the trace.
    pub events: usize,
    /// Distinct labels in the trace.
    pub labels: usize,
    /// Nodes covered by the per-node `find` battery.
    pub nodes_queried: usize,
    /// Per-label count + sum over the full log, one linear scan per label
    /// (ms per battery run) — the seed's `build_report` pattern.
    pub scan_aggregate_ms: f64,
    /// Per-(label, node) event lookup by linear scan (ms per battery run).
    pub scan_find_ms: f64,
    /// The same aggregate battery through `Trace::count`/`Trace::sum` (ms).
    pub indexed_aggregate_ms: f64,
    /// The same find battery through `Trace::find` (ms).
    pub indexed_find_ms: f64,
}

impl TraceQueryProfile {
    /// Speedup of indexed count/sum over the linear-scan baseline.
    pub fn aggregate_speedup(&self) -> f64 {
        self.scan_aggregate_ms / self.indexed_aggregate_ms.max(1e-9)
    }

    /// Speedup of indexed per-node lookup over the linear-scan baseline.
    pub fn find_speedup(&self) -> f64 {
        self.scan_find_ms / self.indexed_find_ms.max(1e-9)
    }
}

fn scan_aggregate(trace: &Trace, labels: &[String]) -> f64 {
    let mut acc = 0.0;
    for name in labels {
        let mut count = 0usize;
        let mut sum = 0.0;
        for e in trace.events() {
            if trace.label_name(e.label) == name {
                count += 1;
                sum += e.value;
            }
        }
        acc += count as f64 + sum;
    }
    acc
}

fn indexed_aggregate(trace: &Trace, labels: &[String]) -> f64 {
    labels
        .iter()
        .map(|name| trace.count(name) as f64 + trace.sum(name))
        .sum()
}

fn scan_find(trace: &Trace, labels: &[String], nodes: &[NodeId]) -> f64 {
    let mut acc = 0.0;
    for name in labels {
        for &node in nodes {
            for e in trace.events() {
                if e.node == node && trace.label_name(e.label) == name {
                    acc += e.value;
                }
            }
        }
    }
    acc
}

fn indexed_find(trace: &Trace, labels: &[String], nodes: &[NodeId]) -> f64 {
    let mut acc = 0.0;
    for name in labels {
        for &node in nodes {
            for e in trace.find(node, name) {
                acc += e.value;
            }
        }
    }
    acc
}

/// Runs the query battery `reps` times through both access paths and
/// returns per-run timings. The two paths visit events in the same order,
/// so their checksums must agree exactly — a correctness cross-check of the
/// index, not just a timing.
///
/// The `find` battery covers at most 8 nodes to keep the quadratic
/// linear-scan baseline bounded on million-event traces.
///
/// # Panics
///
/// Panics if the indexed results diverge from the linear scan.
pub fn trace_query_profile(source: &str, trace: &Trace, reps: usize) -> TraceQueryProfile {
    let labels: Vec<String> = trace.labels().map(String::from).collect();
    let mut nodes: Vec<NodeId> = trace.events().iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.truncate(8);
    let reps = reps.max(1);

    let scan_agg = scan_aggregate(trace, &labels);
    let idx_agg = indexed_aggregate(trace, &labels);
    assert!(
        (scan_agg - idx_agg).abs() <= 1e-9 * scan_agg.abs().max(1.0),
        "indexed aggregate diverged: scan {scan_agg} vs indexed {idx_agg}"
    );
    let scan_f = scan_find(trace, &labels, &nodes);
    let idx_f = indexed_find(trace, &labels, &nodes);
    assert!(
        (scan_f - idx_f).abs() <= 1e-9 * scan_f.abs().max(1.0),
        "indexed find diverged: scan {scan_f} vs indexed {idx_f}"
    );

    let scan_aggregate_ms = time_ms(|| {
        for _ in 0..reps {
            std::hint::black_box(scan_aggregate(trace, &labels));
        }
    }) / reps as f64;
    let indexed_aggregate_ms = time_ms(|| {
        for _ in 0..reps {
            std::hint::black_box(indexed_aggregate(trace, &labels));
        }
    }) / reps as f64;
    let scan_find_ms = time_ms(|| {
        for _ in 0..reps {
            std::hint::black_box(scan_find(trace, &labels, &nodes));
        }
    }) / reps as f64;
    let indexed_find_ms = time_ms(|| {
        for _ in 0..reps {
            std::hint::black_box(indexed_find(trace, &labels, &nodes));
        }
    }) / reps as f64;

    TraceQueryProfile {
        source: source.to_string(),
        events: trace.events().len(),
        labels: labels.len(),
        nodes_queried: nodes.len(),
        scan_aggregate_ms,
        scan_find_ms,
        indexed_aggregate_ms,
        indexed_find_ms,
    }
}

/// Builds a deterministic synthetic trace of `events` events spread over
/// `labels` labels and `nodes` nodes — the stress shape for the query
/// benchmarks (a Fig. 2 run produces a few thousand events; this scales
/// the same battery to millions).
pub fn synthetic_trace(events: usize, labels: usize, nodes: usize, seed: u64) -> Trace {
    let names: Vec<String> = (0..labels)
        .map(|i| format!("synthetic/label_{i:02}"))
        .collect();
    let mut trace = Trace::new();
    let mut state = seed | 1;
    for i in 0..events {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let label = ((state >> 33) as usize) % labels.max(1);
        let node = ((state >> 17) as usize) % nodes.max(1);
        let value = (state & 0xFFFF) as f64;
        trace.record(
            SimTime::from_micros(i as u64),
            NodeId(node),
            &names[label],
            value,
        );
    }
    trace
}

/// Profiles the trace-query battery on a Fig. 2-scale protocol run and on
/// a `synthetic_events`-event synthetic trace.
pub fn netsim_report(synthetic_events: usize) -> Vec<TraceQueryProfile> {
    let report = run_network_experiment(fig2_config(), fig2_param_count());
    vec![
        trace_query_profile("fig2", &report.trace, 20),
        trace_query_profile(
            "synthetic",
            &synthetic_trace(synthetic_events, 32, 64, 7),
            2,
        ),
    ]
}

/// Hand-formats the trace-query profiles, churn wire costs, and scale
/// sweep as the `BENCH_netsim.json` document (same dependency-free scheme
/// as [`crypto_report_json`]).
pub fn netsim_report_json(
    profiles: &[TraceQueryProfile],
    churn: &[ChurnPoint],
    scale: &[ScalePoint],
    overlay: &[OverlayPoint],
    dedup: &[DedupPoint],
) -> String {
    let mut out = String::from("{\n  \"trace_query\": [\n");
    for (i, p) in profiles.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"source\": \"{}\",\n", p.source));
        out.push_str(&format!("      \"events\": {},\n", p.events));
        out.push_str(&format!("      \"labels\": {},\n", p.labels));
        out.push_str(&format!("      \"nodes_queried\": {},\n", p.nodes_queried));
        out.push_str("      \"before_ms\": {\n");
        out.push_str(&format!(
            "        \"aggregate\": {},\n        \"find\": {}\n      }},\n",
            json_f64(p.scan_aggregate_ms),
            json_f64(p.scan_find_ms)
        ));
        out.push_str("      \"after_ms\": {\n");
        out.push_str(&format!(
            "        \"aggregate\": {},\n        \"find\": {}\n      }},\n",
            json_f64(p.indexed_aggregate_ms),
            json_f64(p.indexed_find_ms)
        ));
        out.push_str("      \"speedup\": {\n");
        out.push_str(&format!(
            "        \"aggregate\": {},\n        \"find\": {}\n      }}\n",
            json_f64(p.aggregate_speedup()),
            json_f64(p.find_speedup())
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < profiles.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"churn_wire_cost\": [\n");
    for (i, p) in churn.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"outage_secs\": {},\n",
            json_f64(p.outage_secs)
        ));
        out.push_str(&format!(
            "      \"completed_rounds\": {},\n      \"rounds\": {},\n",
            p.completed_rounds, p.rounds
        ));
        out.push_str(&format!(
            "      \"total_tx_bytes\": {},\n",
            p.total_tx_bytes
        ));
        out.push_str(&format!(
            "      \"wire_wasted_bytes\": {},\n",
            p.wire_wasted_bytes
        ));
        out.push_str(&format!("      \"wasted_bytes\": {}\n", p.wasted_bytes));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < churn.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"scale\": [\n");
    for (i, p) in scale.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"trainers\": {},\n", p.trainers));
        out.push_str(&format!("      \"nodes\": {},\n", p.nodes));
        out.push_str(&format!("      \"uploads\": {},\n", p.uploads));
        out.push_str(&format!(
            "      \"incremental_ms\": {},\n",
            json_f64(p.incremental_ms)
        ));
        out.push_str(&format!(
            "      \"reference_ms\": {},\n",
            p.reference_ms.map_or("null".to_string(), json_f64)
        ));
        out.push_str(&format!(
            "      \"speedup\": {},\n",
            p.speedup().map_or("null".to_string(), json_f64)
        ));
        out.push_str(&format!(
            "      \"peak_rss_kb\": {}\n",
            p.peak_rss_kb.map_or("null".to_string(), |v| v.to_string())
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < scale.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"overlay\": [\n");
    for (i, p) in overlay.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"trainers\": {},\n", p.trainers));
        out.push_str(&format!("      \"branching\": {},\n", p.branching));
        out.push_str(&format!("      \"levels\": {},\n", p.levels));
        out.push_str(&format!(
            "      \"completed_rounds\": {},\n",
            p.completed_rounds
        ));
        out.push_str(&format!("      \"agg_msgs_max\": {},\n", p.agg_msgs_max));
        out.push_str(&format!("      \"work_bound\": {},\n", p.work_bound));
        out.push_str(&format!("      \"fan_in_max\": {},\n", p.fan_in_max));
        out.push_str(&format!(
            "      \"partials_forwarded\": {},\n",
            p.partials_forwarded
        ));
        out.push_str(&format!(
            "      \"round_secs\": {},\n",
            json_f64(p.round_secs)
        ));
        out.push_str(&format!("      \"wall_ms\": {}\n", json_f64(p.wall_ms)));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < overlay.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"dedup\": [\n");
    for (i, p) in dedup.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"regime\": \"{}\",\n", p.regime));
        out.push_str(&format!(
            "      \"rounds\": {},\n      \"chunk_size\": {},\n",
            p.rounds, p.chunk_size
        ));
        out.push_str(&format!(
            "      \"plain_tx_bytes\": {},\n",
            p.plain_tx_bytes
        ));
        out.push_str(&format!(
            "      \"chunked_tx_bytes\": {},\n",
            p.chunked_tx_bytes
        ));
        out.push_str(&format!(
            "      \"chunks_sent\": {},\n      \"chunks_deduped\": {},\n",
            p.chunks_sent, p.chunks_deduped
        ));
        out.push_str(&format!(
            "      \"dedup_bytes_saved\": {},\n",
            p.dedup_bytes_saved
        ));
        out.push_str(&format!(
            "      \"wire_reduction\": {}\n",
            json_f64(p.wire_reduction())
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < dedup.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Churn sweep (storage fault tolerance)
// ---------------------------------------------------------------------------

/// One point of the storage-churn sweep: how the protocol degrades as
/// scheduled storage outages get longer.
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// Length of each injected storage outage (seconds; 0 = no churn).
    pub outage_secs: f64,
    /// Rounds that ran to completion, out of [`ChurnPoint::rounds`].
    pub completed_rounds: u64,
    /// Rounds the task was configured for.
    pub rounds: u64,
    /// Mean duration of the completed rounds (seconds of simulated time).
    pub avg_round_duration: f64,
    /// Sync-deadline quorum degradations across the task.
    pub quorum_degradations: usize,
    /// Total bytes put on the wire across the task (including partial
    /// transfers torn by crashes).
    pub total_tx_bytes: u64,
    /// Bytes wasted on the wire by churn: torn partial transfers plus
    /// payloads delivered to crashed receivers.
    pub wire_wasted_bytes: u64,
    /// All wasted bytes (wire waste plus misbehavior-invalidated data).
    pub wasted_bytes: u64,
}

/// Churn sweep base setup: 6 trainers on 4 storage nodes, 0.4 MB model in
/// 2 partitions, every block on 2 replicas, 2 s fetch timeout.
pub fn churn_config() -> TaskConfig {
    TaskConfig {
        trainers: 6,
        partitions: 2,
        aggregators_per_partition: 1,
        ipfs_nodes: 4,
        comm: CommMode::Indirect,
        replication: 2,
        rounds: 3,
        bandwidth_mbps: 10,
        latency: SimDuration::from_millis(10),
        poll_interval: SimDuration::from_millis(100),
        t_train: SimDuration::from_secs(60),
        t_sync: SimDuration::from_secs(120),
        fetch_timeout: SimDuration::from_secs(2),
        seed: 9,
        ..TaskConfig::default()
    }
}

/// Parameter count of the churn sweep's synthetic model (0.4 MB).
pub fn churn_param_count() -> usize {
    400_000 / BYTES_PER_ELEMENT
}

/// Runs one churn point: every `period`, one storage node (drawn
/// deterministically from `churn_seed`) crashes for `outage`. With
/// `outage == 0` no faults are injected (the healthy baseline).
pub fn churn_run(outage: SimDuration, period: SimDuration, churn_seed: u64) -> ChurnPoint {
    let mut cfg = churn_config();
    if outage > SimDuration::ZERO {
        let storage: Vec<NodeId> = (1..=cfg.ipfs_nodes).map(NodeId).collect();
        cfg.fault_plan = FaultPlan::churn(
            &storage,
            SimTime::from_micros(2_000_000),
            SimTime::from_micros(cfg.t_sync.as_micros() * cfg.rounds),
            period,
            outage,
            churn_seed,
        );
    }
    let rounds = cfg.rounds;
    let report = run_network_experiment(cfg, churn_param_count());
    let avg_round_duration = if report.rounds.is_empty() {
        0.0
    } else {
        report.rounds.iter().map(|r| r.round_duration).sum::<f64>() / report.rounds.len() as f64
    };
    ChurnPoint {
        outage_secs: outage.as_secs_f64(),
        completed_rounds: report.completed_rounds,
        rounds,
        avg_round_duration,
        quorum_degradations: report.quorum_degradations,
        total_tx_bytes: report.total_tx_bytes,
        wire_wasted_bytes: report.wire_wasted_bytes,
        wasted_bytes: report.wasted_bytes,
    }
}

/// The churn sweep: outage lengths from "none" to "longer than the retry
/// budget", with a fixed period between outages.
pub fn churn_sweep() -> Vec<ChurnPoint> {
    let period = SimDuration::from_secs(10);
    [0u64, 1, 4, 8]
        .iter()
        .map(|&o| churn_run(SimDuration::from_secs(o), period, 42))
        .collect()
}

// ---------------------------------------------------------------------------
// Chunked-storage dedup sweep
// ---------------------------------------------------------------------------

/// One point of the chunked-storage dedup sweep: the same multi-round
/// task run with flat storage and with chunked storage
/// ([`TaskConfig::chunked_storage`]), under one update-stability regime.
#[derive(Clone, Debug)]
pub struct DedupPoint {
    /// Update-stability regime: `"frozen"` re-uploads bit-identical
    /// gradient blobs every round (the dedup best case), `"drifting"`
    /// changes every gradient every round (the dedup worst case).
    pub regime: String,
    /// Rounds the task ran.
    pub rounds: u64,
    /// Chunk size of the chunked run (bytes).
    pub chunk_size: usize,
    /// Total wire bytes of the flat-storage run.
    pub plain_tx_bytes: u64,
    /// Total wire bytes of the chunked run.
    pub chunked_tx_bytes: u64,
    /// Chunks that crossed the wire in the chunked run.
    pub chunks_sent: u64,
    /// Chunks the providers already held (zero wire bytes).
    pub chunks_deduped: u64,
    /// Payload bytes dedup kept off the wire in the chunked run.
    pub dedup_bytes_saved: u64,
}

impl DedupPoint {
    /// Fraction of the flat run's wire bytes that the chunked run saved.
    /// Slightly negative in the drifting regime: manifests and chunk
    /// negotiation cost extra frames when nothing dedups.
    pub fn wire_reduction(&self) -> f64 {
        1.0 - self.chunked_tx_bytes as f64 / self.plain_tx_bytes as f64
    }
}

/// Model stub whose pseudo-gradient never changes across steps. With
/// `lr = 0` every round re-uploads bit-identical blobs — the best case
/// for cross-round chunk dedup ([`SyntheticModel`]'s gradient varies per
/// step, so it is the worst case).
#[derive(Clone, Debug)]
struct FrozenSyntheticModel {
    params: Vec<f32>,
    seed: u64,
}

impl Model for FrozenSyntheticModel {
    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f32]) {
        self.params.copy_from_slice(params);
    }

    fn loss_and_grad(&self, _x: &Matrix, _y: &[f32]) -> (f32, Vec<f32>) {
        // Step-independent pseudo-gradient from a splitmix-style stream.
        let mut state = self.seed | 1;
        let grad = (0..self.params.len())
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 0.02 - 0.01
            })
            .collect();
        (1.0, grad)
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        vec![0.0; x.rows()]
    }
}

/// Dedup sweep base setup: the churn topology over 3 rounds with 4 KiB
/// chunks (≈ 50 chunks per 0.2 MB partition blob).
pub fn dedup_config(chunked: bool) -> TaskConfig {
    let mut cfg = churn_config();
    cfg.rounds = 3;
    cfg.chunked_storage = chunked;
    cfg.chunk_size = 4096;
    cfg
}

fn dedup_experiment(chunked: bool, frozen: bool) -> TaskReport {
    let cfg = dedup_config(chunked);
    let datasets: Vec<Dataset> = (0..cfg.trainers)
        .map(|_| Dataset {
            x: Matrix::zeros(1, 1),
            y: vec![0.0],
        })
        .collect();
    let sgd = SgdConfig {
        // lr = 0 keeps the frozen regime's params (and therefore blobs)
        // bit-identical across rounds.
        lr: if frozen { 0.0 } else { 0.01 },
        batch_size: 1,
        epochs: 1,
        clip: None,
    };
    if frozen {
        let model = FrozenSyntheticModel {
            params: dfl_ml::Model::params(&SyntheticModel::new(churn_param_count(), cfg.seed)),
            seed: cfg.seed,
        };
        let params = dfl_ml::Model::params(&model);
        run_task(cfg, model, params, datasets, sgd, &[]).expect("valid dedup config")
    } else {
        let model = SyntheticModel::new(churn_param_count(), cfg.seed);
        let params = dfl_ml::Model::params(&model);
        run_task(cfg, model, params, datasets, sgd, &[]).expect("valid dedup config")
    }
}

/// Runs one dedup point: the same task flat and chunked, in the given
/// stability regime.
pub fn dedup_run(frozen: bool) -> DedupPoint {
    let plain = dedup_experiment(false, frozen);
    let chunked = dedup_experiment(true, frozen);
    let cfg = dedup_config(true);
    DedupPoint {
        regime: if frozen { "frozen" } else { "drifting" }.to_string(),
        rounds: cfg.rounds,
        chunk_size: cfg.chunk_size,
        plain_tx_bytes: plain.total_tx_bytes,
        chunked_tx_bytes: chunked.total_tx_bytes,
        chunks_sent: chunked.chunks_sent,
        chunks_deduped: chunked.chunks_deduped,
        dedup_bytes_saved: chunked.dedup_bytes_saved,
    }
}

/// The dedup sweep: both stability regimes.
pub fn dedup_sweep() -> Vec<DedupPoint> {
    vec![dedup_run(true), dedup_run(false)]
}

// ---------------------------------------------------------------------------
// Swarm scale benchmark (incremental flow reallocation)
// ---------------------------------------------------------------------------

/// Message type of the synthetic swarm workload.
#[derive(Clone, Copy, Debug)]
pub enum SwarmMsg {
    /// A gradient payload from a trainer.
    Upload,
    /// The provider's zero-byte acknowledgment.
    Ack,
}

/// Uploads a gradient-sized payload per wave, the next wave gated on the
/// provider's ack — so flow arrivals and completions churn continuously.
struct SwarmTrainer {
    provider: dfl_netsim::engine::NodeId,
    bytes: u64,
    waves_left: u32,
    start_delay: SimDuration,
}

impl dfl_netsim::engine::Actor<SwarmMsg> for SwarmTrainer {
    fn on_start(&mut self, ctx: &mut dfl_netsim::engine::Context<'_, SwarmMsg>) {
        ctx.set_timer(self.start_delay, 0);
    }

    fn on_message(
        &mut self,
        ctx: &mut dfl_netsim::engine::Context<'_, SwarmMsg>,
        _from: dfl_netsim::engine::NodeId,
        _msg: SwarmMsg,
    ) {
        self.waves_left -= 1;
        if self.waves_left > 0 {
            // Vary the next wave's size so rates keep shifting.
            self.bytes = 60_000 + self.bytes % 50_000;
            ctx.send(self.provider, self.bytes, SwarmMsg::Upload);
        }
    }

    fn on_timer(&mut self, ctx: &mut dfl_netsim::engine::Context<'_, SwarmMsg>, _token: u64) {
        ctx.send(self.provider, self.bytes, SwarmMsg::Upload);
    }
}

/// Counts uploads and acks each one with a zero-byte control message.
struct SwarmProvider;

impl dfl_netsim::engine::Actor<SwarmMsg> for SwarmProvider {
    fn on_message(
        &mut self,
        ctx: &mut dfl_netsim::engine::Context<'_, SwarmMsg>,
        from: dfl_netsim::engine::NodeId,
        _msg: SwarmMsg,
    ) {
        ctx.incr("swarm/upload", 1);
        ctx.send(from, 0, SwarmMsg::Ack);
    }
}

/// Waves each trainer uploads in the swarm workload.
pub const SWARM_WAVES: u32 = 2;

/// Builds and runs the synthetic swarm: `trainers` nodes behind 10 Mbps
/// links, each uploading [`SWARM_WAVES`] ~100–130 kB gradients (ack-gated)
/// to one of `trainers/16` providers, paper-style. Returns the number of
/// uploads that completed and the wall-clock milliseconds the run took.
///
/// The workload is deterministic, so the upload count is a correctness
/// check: both allocators must complete every one of
/// `trainers × SWARM_WAVES` uploads.
pub fn swarm_run(trainers: usize, reference: bool) -> (u64, f64) {
    let mut sim = swarm_sim(trainers, reference);
    let start = Instant::now();
    sim.run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (sim.trace().counter("swarm/upload"), wall_ms)
}

/// Runs the swarm workload and returns a fingerprint of its full trace —
/// the run-to-run determinism check at scale.
pub fn swarm_trace_hash(trainers: usize, reference: bool) -> u64 {
    let mut sim = swarm_sim(trainers, reference);
    sim.run();
    trace_fingerprint(sim.trace())
}

fn swarm_sim(trainers: usize, reference: bool) -> dfl_netsim::engine::Simulation<SwarmMsg> {
    use dfl_netsim::engine::{LinkSpec, NodeId as NetNodeId, Simulation};
    let providers = (trainers / 16).max(1);
    let mut sim: Simulation<SwarmMsg> = Simulation::new();
    sim.set_reference_allocator(reference);
    let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(10));
    for i in 0..trainers {
        sim.add_node(
            SwarmTrainer {
                provider: NetNodeId(trainers + (i % providers)),
                bytes: 100_000 + (i as u64 * 7_919) % 30_000,
                waves_left: SWARM_WAVES,
                start_delay: SimDuration::from_millis((i % 64) as u64),
            },
            link,
        );
    }
    for _ in 0..providers {
        sim.add_node(SwarmProvider, link);
    }
    // Safety stop well past the contended completion horizon.
    sim.set_time_limit(SimTime::from_micros(600_000_000));
    sim
}

/// Trace fingerprints of the five canonical configurations, each with the
/// label `examples/trace_fingerprints` prints: the fig1 and fig2 delay
/// experiments (1 024 parameters), fig2 with verifiable aggregation, fig2
/// with trainer-side verification too (`fig2-batched`), and the 2k-trainer
/// swarm. Any change that leaves observable behaviour alone leaves all five
/// unchanged.
pub fn canonical_fingerprints() -> [(&'static str, u64); 5] {
    let params = 1_024;
    let verifiable = TaskConfig {
        verifiable: true,
        ..fig2_config()
    };
    let trainer_verifies = TaskConfig {
        trainer_verifies: true,
        ..verifiable.clone()
    };
    let fingerprint = |cfg| trace_fingerprint(&run_network_experiment(cfg, params).trace);
    [
        ("fig1", fingerprint(fig1_config())),
        ("fig2", fingerprint(fig2_config())),
        ("fig2-verifiable", fingerprint(verifiable)),
        ("fig2-batched", fingerprint(trainer_verifies)),
        ("swarm-2k", swarm_trace_hash(2_000, false)),
    ]
}

/// FNV-1a over every observable output of a run: each event's time, node,
/// label name, and value bits, then every counter and per-node byte total.
/// Two runs are behaviourally identical iff their fingerprints match
/// (modulo hash collisions).
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in trace.events() {
        eat(&e.time.as_micros().to_le_bytes());
        eat(&(e.node.index() as u64).to_le_bytes());
        eat(trace.label_name(e.label).as_bytes());
        eat(&e.value.to_bits().to_le_bytes());
    }
    for (name, value) in trace.counters() {
        eat(name.as_bytes());
        eat(&value.to_le_bytes());
    }
    eat(&trace.total_bytes_sent().to_le_bytes());
    eat(&trace.total_bytes_received().to_le_bytes());
    h
}

/// One point of the netsim scale sweep: the swarm workload at `trainers`
/// trainers, timed under the incremental allocator and (optionally) the
/// reference global recompute.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Trainers in the swarm.
    pub trainers: usize,
    /// Total simulated nodes (trainers + providers).
    pub nodes: usize,
    /// Uploads completed (must equal `trainers × SWARM_WAVES`).
    pub uploads: u64,
    /// Wall-clock ms under the incremental component-scoped allocator.
    pub incremental_ms: f64,
    /// Wall-clock ms under the reference global allocator (`None` when the
    /// point was too large to time the quadratic path).
    pub reference_ms: Option<f64>,
    /// Process peak resident set (VmHWM, kB) sampled after the incremental
    /// run. Process-wide high-water mark: meaningful when points run in
    /// ascending size order before other large allocations.
    pub peak_rss_kb: Option<u64>,
}

impl ScalePoint {
    /// Reference / incremental wall-clock ratio, when both were timed.
    pub fn speedup(&self) -> Option<f64> {
        self.reference_ms.map(|r| r / self.incremental_ms.max(1e-9))
    }
}

/// Peak resident set size (VmHWM) of this process in kB, from
/// `/proc/self/status`. `None` off Linux or if the field is missing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs one scale point; times the reference allocator too when
/// `with_reference` (and asserts both complete the same uploads).
pub fn scale_point(trainers: usize, with_reference: bool) -> ScalePoint {
    let (uploads, incremental_ms) = swarm_run(trainers, false);
    assert_eq!(
        uploads,
        trainers as u64 * SWARM_WAVES as u64,
        "incremental allocator dropped uploads at n={trainers}"
    );
    let peak = peak_rss_kb();
    let reference_ms = with_reference.then(|| {
        let (ref_uploads, ms) = swarm_run(trainers, true);
        assert_eq!(ref_uploads, uploads, "allocators disagree at n={trainers}");
        ms
    });
    ScalePoint {
        trainers,
        nodes: trainers + (trainers / 16).max(1),
        uploads,
        incremental_ms,
        reference_ms,
        peak_rss_kb: peak,
    }
}

/// The scale sweep: one [`ScalePoint`] per entry of `sizes` (run in the
/// given order; ascending keeps the RSS column meaningful). The reference
/// allocator is only timed for sizes ≤ `reference_max` — beyond that the
/// global-recompute path takes minutes per point.
pub fn scale_sweep(sizes: &[usize], reference_max: usize) -> Vec<ScalePoint> {
    sizes
        .iter()
        .map(|&n| scale_point(n, n <= reference_max))
        .collect()
}

// ---------------------------------------------------------------------------
// Hierarchical aggregation overlay sweep
// ---------------------------------------------------------------------------

/// Branching factor used by the overlay sweep (fan-in bound per level).
pub const OVERLAY_BRANCHING: usize = 8;

/// One point of the overlay sweep: a full verifiable round through the
/// multi-level aggregation overlay at `trainers` trainers, with the
/// per-node work extracted from the trace.
#[derive(Clone, Debug)]
pub struct OverlayPoint {
    /// Trainers in the swarm.
    pub trainers: usize,
    /// Overlay branching factor `b`.
    pub branching: usize,
    /// Levels in the overlay tree (a flat round would be 1 level of
    /// `trainers` fan-in; the overlay caps fan-in at `b` per level).
    pub levels: usize,
    /// Rounds that completed (must equal the configured rounds).
    pub completed_rounds: u64,
    /// Overlay messages processed by the busiest aggregator — the
    /// sub-linearity headline. Bounded by `work_bound`, not by `trainers`.
    pub agg_msgs_max: u64,
    /// The per-node work bound the overlay guarantees: `b × levels`.
    pub work_bound: u64,
    /// Child partials received by the busiest interior trainer (fan-in;
    /// at most `b` per round).
    pub fan_in_max: u64,
    /// Partial aggregates forwarded across the whole overlay.
    pub partials_forwarded: u64,
    /// Duration of the completed round (simulated seconds).
    pub round_secs: f64,
    /// Wall-clock milliseconds the simulation took on this machine.
    pub wall_ms: f64,
}

/// Overlay sweep base setup: one verifiable partition, one aggregator,
/// branching-8 overlay, direct communication (the overlay replaces the
/// storage upload path entirely — partials travel trainer-to-trainer).
pub fn overlay_config(trainers: usize) -> TaskConfig {
    TaskConfig {
        trainers,
        partitions: 1,
        aggregators_per_partition: 1,
        ipfs_nodes: 1,
        comm: CommMode::Direct,
        verifiable: true,
        commit_precompute: true,
        overlay_branching: Some(OVERLAY_BRANCHING),
        rounds: 1,
        bandwidth_mbps: 50,
        latency: SimDuration::from_millis(5),
        poll_interval: SimDuration::from_millis(100),
        t_train: SimDuration::from_secs(60),
        t_sync: SimDuration::from_secs(120),
        seed: 11,
        ..TaskConfig::default()
    }
}

/// Parameter count of the overlay sweep's synthetic model. Small on
/// purpose: the sweep measures message-topology work, which does not
/// depend on the payload size.
pub fn overlay_param_count() -> usize {
    32
}

/// Runs one overlay point and checks the per-node work bounds: the
/// busiest aggregator must process at most `b × levels` overlay messages
/// and the busiest interior trainer at most `b` child partials per round.
///
/// # Panics
///
/// Panics if the round fails to complete or either bound is exceeded.
pub fn overlay_point(trainers: usize) -> OverlayPoint {
    let cfg = overlay_config(trainers);
    let branching = cfg.overlay_branching.expect("overlay config has branching");
    let rounds = cfg.rounds;
    let start = Instant::now();
    let report = run_network_experiment(cfg.clone(), overlay_param_count());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        report.succeeded(&cfg),
        "overlay round incomplete at n={trainers}: {}/{} rounds",
        report.completed_rounds,
        rounds
    );

    // One pass over the trace: per-node counts of the two work labels.
    let mut agg_msgs: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    let mut fan_in: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for e in report.trace.events() {
        let name = report.trace.label_name(e.label);
        if name == labels::OVERLAY_AGG_MSG {
            *agg_msgs.entry(e.node.index()).or_insert(0) += 1;
        } else if name == labels::OVERLAY_CHILD_RECV {
            *fan_in.entry(e.node.index()).or_insert(0) += 1;
        }
    }
    let agg_msgs_max = agg_msgs.values().copied().max().unwrap_or(0);
    let fan_in_max = fan_in.values().copied().max().unwrap_or(0);
    let levels = OverlayTree::new(trainers, branching, cfg.seed).levels();
    let work_bound = (branching * levels) as u64 * rounds;
    assert!(
        agg_msgs_max <= work_bound,
        "aggregator processed {agg_msgs_max} overlay messages at n={trainers}, bound {work_bound}"
    );
    assert!(
        fan_in_max <= branching as u64 * rounds,
        "interior fan-in {fan_in_max} exceeds branching {branching} at n={trainers}"
    );

    OverlayPoint {
        trainers,
        branching,
        levels,
        completed_rounds: report.completed_rounds,
        agg_msgs_max,
        work_bound,
        fan_in_max,
        partials_forwarded: report.trace.count(labels::OVERLAY_FORWARDED) as u64,
        round_secs: report.rounds.first().map_or(0.0, |r| r.round_duration),
        wall_ms,
    }
}

/// The overlay sweep: one [`OverlayPoint`] per swarm size, ascending.
pub fn overlay_sweep(sizes: &[usize]) -> Vec<OverlayPoint> {
    sizes.iter().map(|&n| overlay_point(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_merge_point_completes() {
        let point = fig1_run(CommMode::MergeAndDownload, 4);
        assert!(point.aggregation_delay > 0.0);
        assert!(point.upload_delay > 0.0);
        assert_eq!(point.label, "4");
    }

    #[test]
    fn fig2_point_matches_expected_bytes() {
        let point = fig2_run(2);
        assert!(point.total_delay > 0.0);
        // D = (|T_ij| + |A_i| − 1) · PartitionSize = (8 + 1) · 1.1 MB.
        assert!(
            (point.mb_per_aggregator - point.expected_mb).abs() / point.expected_mb < 0.15,
            "measured {} vs expected {}",
            point.mb_per_aggregator,
            point.expected_mb
        );
    }

    #[test]
    fn fig3_small_point_runs() {
        let points = fig3_commitment(&[256]);
        assert_eq!(points.len(), 1);
        assert!(points[0].pedersen_k1_ms > points[0].sha256_ms);
        assert!(points[0].fast_k1_ms > 0.0);
        assert!(points[0].fast_r1_ms > 0.0);
    }

    #[test]
    fn crypto_report_shows_fast_path_winning() {
        let profiles = crypto_report(512);
        assert_eq!(profiles.len(), 2);
        for p in &profiles {
            // Even at a small size the table path must beat the naive
            // serial baseline comfortably (the full d=8192 numbers go to
            // BENCH_crypto.json via examples/bench_crypto.rs).
            assert!(
                p.commit_speedup() > 2.0,
                "{}: naive {:.2} ms vs fast {:.2} ms",
                p.curve,
                p.commit_naive_ms,
                p.commit_fast_ms
            );
        }
        let rounds = verifiable_round_sweep(&[8], 64);
        let json = crypto_report_json(&profiles, &rounds);
        assert!(json.contains("\"secp256k1\""));
        assert!(json.contains("\"secp256r1\""));
        assert!(json.contains("\"commit_speedup\""));
        assert_eq!(json.matches("\"elements\": 512").count(), 2);
        assert!(json.contains("\"verifiable_round\""));
        assert!(json.contains("\"trainers\": 8"));
    }

    #[test]
    fn batched_round_check_beats_per_blob() {
        // Round-level before/after at a test-sized swarm: one RLC batch
        // over the round must already beat arrival-order per-blob
        // verification at 32 blobs (the 10k-trainer sweep goes to
        // BENCH_crypto.json via examples/bench_crypto.rs).
        let point = verifiable_round_point(32, 128);
        assert_eq!(point.trainers, 32);
        assert!(
            point.speedup() > 1.0,
            "per-blob {:.2} ms vs batched {:.2} ms",
            point.per_blob_ms,
            point.batched_ms
        );
    }

    #[test]
    fn churn_baseline_completes_every_round() {
        let point = churn_run(SimDuration::ZERO, SimDuration::from_secs(10), 42);
        assert_eq!(point.completed_rounds, point.rounds);
        assert!(point.avg_round_duration > 0.0);
        assert_eq!(point.quorum_degradations, 0);
        // No faults → no transfer is ever torn, so nothing is wasted.
        assert!(point.total_tx_bytes > 0);
        assert_eq!(point.wire_wasted_bytes, 0);
        assert_eq!(point.wasted_bytes, 0);
    }

    #[test]
    fn trace_queries_agree_and_index_wins() {
        let trace = synthetic_trace(100_000, 16, 32, 7);
        // trace_query_profile asserts internally that both access paths
        // return identical results before timing them.
        let p = trace_query_profile("synthetic", &trace, 1);
        assert_eq!(p.events, 100_000);
        assert_eq!(p.labels, 16);
        assert_eq!(p.nodes_queried, 8);
        assert!(
            p.aggregate_speedup() > 50.0,
            "aggregate: scan {:.3} ms vs indexed {:.3} ms",
            p.scan_aggregate_ms,
            p.indexed_aggregate_ms
        );
        // The find battery's win is bounded by the visit ratio (events per
        // label vs total events); debug builds flatten it further, so the
        // bar here is conservative — release numbers go to BENCH_netsim.json.
        assert!(
            p.find_speedup() > 2.0,
            "find: scan {:.3} ms vs indexed {:.3} ms",
            p.scan_find_ms,
            p.indexed_find_ms
        );
        let json = netsim_report_json(std::slice::from_ref(&p), &[], &[], &[], &[]);
        assert!(json.contains("\"source\": \"synthetic\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"churn_wire_cost\""));
        assert!(json.contains("\"scale\""));
        assert!(json.contains("\"overlay\""));
        assert!(json.contains("\"dedup\""));
    }

    #[test]
    fn frozen_dedup_point_saves_wire_bytes() {
        // The frozen regime re-uploads bit-identical blobs each round, so
        // the chunked run must dedup rounds 2..n down to manifest traffic
        // and beat the flat run's total wire bytes.
        let point = dedup_run(true);
        assert_eq!(point.regime, "frozen");
        assert!(point.chunks_sent > 0);
        assert!(
            point.chunks_deduped > point.chunks_sent,
            "3 frozen rounds must dedup more chunks than they ship: sent {} deduped {}",
            point.chunks_sent,
            point.chunks_deduped
        );
        assert!(
            point.wire_reduction() > 0.2,
            "chunked {} vs plain {} bytes (reduction {:.3})",
            point.chunked_tx_bytes,
            point.plain_tx_bytes,
            point.wire_reduction()
        );
        let json = netsim_report_json(&[], &[], &[], &[], std::slice::from_ref(&point));
        assert!(json.contains("\"regime\": \"frozen\""));
        assert!(json.contains("\"wire_reduction\""));
    }

    #[test]
    fn overlay_point_completes_with_bounded_per_node_work() {
        // 200 trainers at branching 8 is a 3-level overlay; overlay_point
        // asserts internally that the round completes, the aggregator
        // processes ≤ b × levels overlay messages, and no interior node
        // sees more than b child partials.
        let point = overlay_point(200);
        assert_eq!(point.trainers, 200);
        assert_eq!(point.branching, OVERLAY_BRANCHING);
        assert!(point.levels >= 3, "200 trainers at b=8 is ≥3 levels");
        assert_eq!(point.completed_rounds, 1);
        // The headline property: aggregator work is a constant (one root
        // partial per round), far below the flat round's 200 messages.
        assert!(point.agg_msgs_max <= point.work_bound);
        assert!(point.agg_msgs_max < 200);
        assert!(point.fan_in_max > 0 && point.fan_in_max <= 8);
        let json = netsim_report_json(&[], &[], &[], std::slice::from_ref(&point), &[]);
        assert!(json.contains("\"trainers\": 200"));
        assert!(json.contains("\"agg_msgs_max\""));
    }

    #[test]
    fn swarm_scale_point_completes_and_allocators_agree() {
        // A small swarm (64 trainers, 4 providers) through both
        // allocators: every ack-gated upload wave must complete, and the
        // two paths must agree on the outcome.
        let point = scale_point(64, true);
        assert_eq!(point.uploads, 64 * SWARM_WAVES as u64);
        assert_eq!(point.nodes, 68);
        assert!(point.incremental_ms > 0.0);
        assert!(point.reference_ms.is_some());
    }

    #[test]
    fn churn_point_with_short_outages_still_completes() {
        // 1 s outages are far below the 2 s fetch timeout + failover
        // budget: retry masks them and no round is lost.
        let point = churn_run(SimDuration::from_secs(1), SimDuration::from_secs(10), 42);
        assert_eq!(point.completed_rounds, point.rounds);
    }
}
