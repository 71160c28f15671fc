//! The three benchmark workloads: their task configurations and the inputs
//! generated from the workload seed.

use dfl_ml::{Dataset, Matrix, Model, SgdConfig, SyntheticModel};
use dfl_netsim::SimDuration;
use ipls::{CommMode, TaskConfig};

/// Which backend drives the workload's untraced runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `ipls::run_task` inside the network simulator.
    Netsim,
    /// `dfl_backend_tokio::run_task_over_tcp` over localhost sockets.
    Tcp,
}

/// Run size: `Full` is the benchmark proper; `Tiny` pushes the same code
/// path through a few-second smoke run for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["overlay_verify", "paper_merge", "tcp_indirect"];

/// One fully generated workload instance.
#[derive(Clone)]
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub cfg: TaskConfig,
    pub model: SyntheticModel,
    pub params: Vec<f32>,
    pub datasets: Vec<Dataset>,
    pub sgd: SgdConfig,
}

impl Workload {
    /// Builds workload `name` for `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64, size: Size) -> Option<Workload> {
        let tiny = size == Size::Tiny;
        let (name, backend, cfg, param_count) = match name {
            // The verifiable Handel overlay of `dfl_bench::overlay_config`:
            // one partition of 32 values plus the averaging counter (33
            // committed scalars), branching 8, batched verification,
            // fixed-base commitment tables.
            "overlay_verify" => {
                let trainers = if tiny { 64 } else { 2_000 } + jitter(seed, 32);
                let mut cfg = dfl_bench::overlay_config(trainers);
                cfg.rounds = if tiny { 1 } else { 2 };
                (
                    "overlay_verify",
                    Backend::Netsim,
                    cfg,
                    dfl_bench::overlay_param_count(),
                )
            }
            // The paper's Fig. 2 deployment with merge-and-download:
            // storage nodes pre-aggregate, aggregators download one merged
            // blob per provider.
            "paper_merge" => {
                let cfg = TaskConfig {
                    comm: CommMode::MergeAndDownload,
                    aggregators_per_partition: 2,
                    rounds: if tiny { 1 } else { 3 },
                    ..dfl_bench::fig2_config()
                };
                let count = if tiny {
                    4 * 2_000
                } else {
                    dfl_bench::fig2_param_count()
                };
                ("paper_merge", Backend::Netsim, cfg, count)
            }
            // Naive indirect communication over real localhost sockets.
            // Timers run in wall-clock time, so polling is fast.
            "tcp_indirect" => {
                let cfg = TaskConfig {
                    trainers: 8,
                    partitions: 2,
                    aggregators_per_partition: 1,
                    ipfs_nodes: 2,
                    comm: CommMode::Indirect,
                    rounds: if tiny { 2 } else { 20 },
                    poll_interval: SimDuration::from_millis(20),
                    ..TaskConfig::default()
                };
                let count = if tiny { 2_000 } else { 200_000 } + 16 * jitter(seed, 128);
                ("tcp_indirect", Backend::Tcp, cfg, count)
            }
            _ => return None,
        };
        Some(Workload::with_seed(name, backend, cfg, param_count, seed))
    }

    fn with_seed(
        name: &'static str,
        backend: Backend,
        mut cfg: TaskConfig,
        param_count: usize,
        seed: u64,
    ) -> Workload {
        cfg.seed = seed;
        let model = SyntheticModel::new(param_count, seed);
        let params = model.params();
        // The synthetic model ignores its data; one seeded example per
        // trainer keeps the local-update plumbing exercised.
        let datasets = (0..cfg.trainers)
            .map(|t| {
                let v = unit_float(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Dataset {
                    x: Matrix::from_vec(1, 1, vec![v]),
                    y: vec![0.0],
                }
            })
            .collect();
        let sgd = SgdConfig {
            lr: 0.01,
            batch_size: 1,
            epochs: 1,
            clip: None,
        };
        Workload {
            name,
            backend,
            cfg,
            model,
            params,
            datasets,
            sgd,
        }
    }

    /// FNV-1a over everything the program receives: the task seed, the
    /// initial parameters and every dataset. Equal seeds give equal
    /// fingerprints; the benchmark prints it so a run's inputs can be
    /// compared without storing them.
    pub fn input_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.cfg.seed.to_le_bytes());
        h.eat(&(self.cfg.trainers as u64).to_le_bytes());
        h.eat(&self.cfg.rounds.to_le_bytes());
        for p in &self.params {
            h.eat(&p.to_bits().to_le_bytes());
        }
        for d in &self.datasets {
            for r in 0..d.x.rows() {
                for v in d.x.row(r) {
                    h.eat(&v.to_bits().to_le_bytes());
                }
            }
            for v in &d.y {
                h.eat(&v.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }
}

/// A seed-derived size offset in `0..range`, so that simulated quantities
/// differ between seeds (by about one percent) instead of repeating.
fn jitter(seed: u64, range: u64) -> usize {
    (unit_float(seed.rotate_left(17)) * range as f32) as usize
}

/// A float in `[0, 1)` from a 64-bit seed (splitmix64 finaliser).
fn unit_float(seed: u64) -> f32 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// Incremental FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
