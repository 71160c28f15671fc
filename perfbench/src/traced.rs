//! The per-layer breakdown: one traced netsim run of the workload, with
//! every core, the model and the key derivation wrapped (see [`span`]),
//! checked against the untraced `run_task` fingerprint.

use std::io::Write;
use std::time::Instant;

use dfl_ipfs::node::stats as stat;
use ipls::{labels, Topology};

use crate::deploy::{self, bits, consensus};
use crate::probes;
use crate::span::{self, Layer, Recording};
use crate::untraced::{check_netsim, run_netsim, tcp_report};
use crate::workload::{Backend, Workload};
use crate::{Metric, Output};

/// Sum of span durations and call count, per layer.
#[derive(Clone, Copy, Default)]
struct Busy {
    secs: f64,
    calls: u64,
}

fn busy(rec: &Recording, keep: impl Fn(Layer, &str) -> bool) -> Busy {
    rec.spans
        .iter()
        .filter(|s| keep(s.layer, s.kind))
        .fold(Busy::default(), |b, s| Busy {
            secs: b.secs + s.secs(),
            calls: b.calls + 1,
        })
}

/// Runs the traced breakdown of `w`.
pub fn run(w: &Workload) -> Result<Output, String> {
    let rounds = w.cfg.rounds;
    let mut failures = Vec::new();

    // Untraced reference through the public entry point.
    let (reference, _) = run_netsim(w)?;
    let expected = check_netsim(w, &reference)?;
    let reference_fp = dfl_bench::trace_fingerprint(&reference.trace);
    drop(reference);

    // Untraced and traced runs of the same assembly: their wall-clock
    // difference is the tracing overhead.
    let started = Instant::now();
    let mut plain =
        deploy::build_netsim(w, w.datasets.clone(), false).map_err(|e| e.to_string())?;
    plain.sim.run();
    let untraced_wall = started.elapsed().as_secs_f64();
    drop(plain);

    span::reset();
    let started = Instant::now();
    let mut dep = deploy::build_netsim(w, w.datasets.clone(), true).map_err(|e| e.to_string())?;
    let run_started = Instant::now();
    dep.sim.run();
    let run_s = run_started.elapsed().as_secs_f64();
    let traced_wall = started.elapsed().as_secs_f64();
    let rec = span::take();
    let trace = dep.sim.into_trace();

    let fingerprint = dfl_bench::trace_fingerprint(&trace);
    if fingerprint != reference_fp {
        failures.push(format!(
            "traced fingerprint {fingerprint:016x} differs from run_task's {reference_fp:016x}"
        ));
    }
    let completed = deploy::completed_rounds(&trace, rounds);
    let final_params = dep.sink.lock().unwrap_or_else(|p| p.into_inner()).clone();
    match consensus(&final_params, w.cfg.trainers) {
        Some(p) if bits(&p) == bits(&expected) => {}
        _ => failures.push("traced run's final model differs from run_task's".to_string()),
    }
    if rec.decode_errors > 0 {
        failures.push(format!(
            "{} frames did not decode to their sender",
            rec.decode_errors
        ));
    }
    let charged: u64 = rec.gap.values().map(|g| g.charged_bytes).sum();
    if charged != trace.total_bytes_sent() {
        failures.push(format!(
            "wire charges of sent messages ({charged} B) differ from the simulator's total ({} B)",
            trace.total_bytes_sent()
        ));
    }

    // Socket transport counters, from one TCP run checked against the
    // netsim model bytes.
    let mut tcp = [0.0; 3];
    if w.backend == Backend::Tcp {
        match tcp_report(w) {
            Ok((report, _)) => {
                tcp = [
                    report.delivery.frames_sent as f64,
                    report.delivery.frames_lost_total() as f64,
                    report.delivery.reconnects as f64,
                ];
                let agreed = consensus(&report.final_params, w.cfg.trainers);
                if report.completed_rounds != rounds
                    || agreed.map(|p| bits(&p)) != Some(bits(&expected))
                {
                    failures.push("TCP run differs from the netsim run".to_string());
                }
            }
            Err(e) => failures.push(format!("TCP run failed: {e}")),
        }
    }

    let crypto = match &dep.key {
        Some(key) => {
            let topo = Topology::new(w.cfg.clone(), w.params.len()).map_err(|e| e.to_string())?;
            let fan_in = w.cfg.overlay_branching.unwrap_or(8);
            match probes::crypto(w, key, topo.max_partition_len(), fan_in) {
                Ok(p) => [p.commit_us, p.commit_us_nonneg, p.batch_check_us],
                Err(e) => {
                    failures.push(e);
                    [0.0; 3]
                }
            }
        }
        None => [0.0; 3],
    };

    // Self times. The model runs inside trainer handles, so the trainer's
    // self time excludes it; the engine is whatever the run spent outside
    // every wrapped handle.
    let layer = |l: Layer| busy(&rec, |s, _| s == l);
    let trainer = layer(Layer::Trainer);
    let ml = layer(Layer::Ml);
    let codec = layer(Layer::Codec);
    let core_secs: f64 = [
        Layer::Trainer,
        Layer::Aggregator,
        Layer::Directory,
        Layer::Ipfs,
    ]
    .iter()
    .map(|&l| layer(l).secs)
    .sum();
    let engine_s = run_s - rec.outer_s;
    let wrapper_s = rec.outer_s - core_secs - codec.secs;
    let selves: Vec<(&str, f64)> = vec![
        ("ipls.trainer", trainer.secs - ml.secs),
        ("ipls.aggregator", layer(Layer::Aggregator).secs),
        ("ipls.directory", layer(Layer::Directory).secs),
        ("ipfs", layer(Layer::Ipfs).secs),
        ("ml", ml.secs),
        ("codec", codec.secs),
        ("trace.wrapper", wrapper_s),
        ("netsim.engine", engine_s),
    ];
    let layer_sum: f64 = selves.iter().map(|(_, s)| s).sum();
    if (layer_sum - run_s).abs() > 1e-6 * run_s.max(1.0) {
        failures.push(format!(
            "layer self times sum to {layer_sum} s, run took {run_s} s"
        ));
    }
    if ml.secs > trainer.secs {
        failures.push("model time exceeds the trainer handles that call it".to_string());
    }
    println!("layer self times over Simulation::run ({run_s:.4} s):");
    for (name, secs) in &selves {
        println!(
            "  {name:<16} {secs:>10.4} s  {:>5.1} %",
            100.0 * secs / run_s
        );
    }
    let (largest, largest_s) = selves
        .iter()
        .filter(|(name, _)| *name != "trace.wrapper")
        .fold(
            ("", f64::MIN),
            |a, &(n, s)| if s > a.1 { (n, s) } else { a },
        );
    println!("largest layer: {largest} ({largest_s:.4} s)");
    println!("wire gap per message variant (codec frame vs netsim charge):");
    for (variant, row) in &rec.gap {
        println!(
            "  {variant:<24} {:>7} msgs  frame {:>12} B  charged {:>12} B  ratio {:.4}",
            row.messages,
            row.frame_bytes,
            row.charged_bytes,
            row.frame_bytes as f64 / row.charged_bytes.max(1) as f64
        );
    }
    write_spans(w, &rec);

    let hits = trace.counter(stat::CACHE_HITS) as f64;
    let misses = trace.counter(stat::CACHE_MISSES) as f64;
    let messages: u64 = rec.gap.values().map(|g| g.messages).sum();
    let frame_bytes: u64 = rec.gap.values().map(|g| g.frame_bytes).sum();
    let per_msg_us = |kind: &str| {
        let b = busy(&rec, |l, k| l == Layer::Codec && k == kind);
        b.secs * 1e6 / b.calls.max(1) as f64
    };
    let kind = |k: &str| busy(&rec, |l, kk| l == Layer::Trainer && kk == k).secs;
    let failed = if failures.is_empty() {
        rounds - completed
    } else {
        rounds
    };
    for f in &failures {
        eprintln!("check failed: {f}");
    }

    let metrics: Vec<Metric> = vec![
        ("ipls.trainer.handle_s", trainer.secs, "s"),
        ("ipls.trainer.self_s", trainer.secs - ml.secs, "s"),
        ("ipls.trainer.start_round_s", kind("StartRound"), "s"),
        (
            "ipls.trainer.overlay_partial_s",
            kind("OverlayPartial"),
            "s",
        ),
        ("ipls.trainer.handle_calls", trainer.calls as f64, "count"),
        (
            "ipls.aggregator.handle_s",
            layer(Layer::Aggregator).secs,
            "s",
        ),
        (
            "ipls.aggregator.handle_calls",
            layer(Layer::Aggregator).calls as f64,
            "count",
        ),
        ("ipls.directory.handle_s", layer(Layer::Directory).secs, "s"),
        (
            "ipls.directory.handle_calls",
            layer(Layer::Directory).calls as f64,
            "count",
        ),
        ("ipfs.handle_s", layer(Layer::Ipfs).secs, "s"),
        (
            "ipfs.handle_calls",
            layer(Layer::Ipfs).calls as f64,
            "count",
        ),
        (
            "ipfs.merge_rpcs",
            trace.counter(stat::MERGE_RPCS) as f64,
            "count",
        ),
        ("ipfs.retries", trace.counter(stat::RETRIES) as f64, "count"),
        (
            "ipfs.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        ("crypto.key_setup_s", layer(Layer::Crypto).secs, "s"),
        ("crypto.commit_us", crypto[0], "us"),
        ("crypto.commit_us_nonneg", crypto[1], "us"),
        ("crypto.batch_check_us", crypto[2], "us"),
        (
            "crypto.verify_s",
            trace
                .histogram(labels::VERIFY_MS)
                .map_or(0.0, |h| h.sum() / 1e3),
            "s",
        ),
        (
            "crypto.blobs_verified",
            trace.counter(labels::BLOBS_VERIFIED) as f64,
            "count",
        ),
        ("ml.loss_and_grad_s", ml.secs, "s"),
        ("ml.loss_and_grad_calls", ml.calls as f64, "count"),
        ("netsim.run_s", run_s, "s"),
        ("netsim.engine_s", engine_s, "s"),
        ("netsim.messages", messages as f64, "count"),
        ("netsim.charged_bytes", charged as f64, "B"),
        ("codec.encode_us", per_msg_us("encode"), "us"),
        ("codec.decode_us", per_msg_us("decode"), "us"),
        ("codec.frame_bytes", frame_bytes as f64, "B"),
        (
            "codec.frame_over_charged",
            frame_bytes as f64 / charged.max(1) as f64,
            "ratio",
        ),
        ("codec.self_s", codec.secs, "s"),
        ("tcp.frames_sent", tcp[0], "count"),
        ("tcp.frames_lost", tcp[1], "count"),
        ("tcp.reconnects", tcp[2], "count"),
        ("trace.wrapper_s", wrapper_s, "s"),
        ("trace.overhead_s", traced_wall - untraced_wall, "s"),
        ("trace.layer_sum_s", layer_sum, "s"),
        ("round_fail_ratio", failed as f64 / rounds as f64, "ratio"),
    ];
    Ok(Output {
        correct: failures.is_empty(),
        attempted: rounds,
        failed,
        metrics,
    })
}

/// Writes every span as CSV next to the benchmark's sources, in `out/`.
fn write_spans(w: &Workload, rec: &Recording) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.csv", w.name, w.cfg.seed));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "layer,kind,node,round,start_ns,end_ns")?;
        for s in &rec.spans {
            writeln!(
                f,
                "{},{},{},{},{},{}",
                s.layer.name(),
                s.kind,
                s.node,
                s.round,
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    };
    match write() {
        Ok(()) => println!("spans: {} written to {}", rec.spans.len(), path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
}
