//! Run-to-run determinism at swarm scale: the same configuration must
//! produce a bit-identical trace every time, under both allocators and —
//! because CI also runs this with `--features parallel` — with the
//! multi-threaded crypto kernels enabled. Any HashMap-iteration-order or
//! thread-scheduling leak into observable behaviour fails here. Five
//! canonical configurations are also pinned to literal fingerprints, so a
//! change that alters observable behaviour deterministically fails too.

use decentralized_fl::prelude::TaskConfig;
use dfl_bench::{fig2_config, overlay_config, run_network_experiment, trace_fingerprint};

#[test]
fn two_thousand_node_swarm_is_run_to_run_deterministic() {
    let first = dfl_bench::swarm_trace_hash(2_000, false);
    let second = dfl_bench::swarm_trace_hash(2_000, false);
    assert_eq!(
        first, second,
        "incremental allocator diverged across identical runs"
    );
}

#[test]
fn reference_allocator_is_deterministic_and_agrees() {
    // The reference global recompute is quadratic, so the run-twice check
    // uses a smaller swarm; incremental-vs-reference agreement at full
    // scale is asserted by the scale benchmark (`scale_point`).
    let incr = dfl_bench::swarm_trace_hash(300, false);
    let ref_first = dfl_bench::swarm_trace_hash(300, true);
    let ref_second = dfl_bench::swarm_trace_hash(300, true);
    assert_eq!(
        ref_first, ref_second,
        "reference allocator diverged across identical runs"
    );
    assert_eq!(
        incr, ref_first,
        "allocators diverged on the 300-trainer swarm"
    );
}

#[test]
fn verifiable_protocol_run_is_run_to_run_deterministic() {
    // Exercises the commitment pipeline: under `--features parallel` the
    // MSM kernels are multi-threaded, and their results must still be
    // bitwise-stable. A small parameter vector keeps the crypto cheap —
    // determinism does not depend on size.
    let cfg = TaskConfig {
        verifiable: true,
        ..fig2_config()
    };
    let params = 1_024;
    let first = run_network_experiment(cfg.clone(), params);
    let second = run_network_experiment(cfg, params);
    assert_eq!(
        first.trace.events().len(),
        second.trace.events().len(),
        "event counts diverged across identical verifiable runs"
    );
    assert_eq!(
        trace_fingerprint(&first.trace),
        trace_fingerprint(&second.trace),
        "verifiable run diverged across identical runs"
    );
}

#[test]
fn canonical_trace_fingerprints_are_pinned() {
    // The five fingerprints `examples/trace_fingerprints` prints, as
    // literals: any change to crypto or protocol internals that moves the
    // event stream, a counter, or the byte ledger of these runs fails
    // here — with `--features parallel`, across thread counts too.
    // `fig2-batched` adds trainer-side verification to `fig2-verifiable`,
    // so every deferred queue (aggregator own-set, peer-partial drain,
    // trainer downloads, directory audit) is in the loop.
    let printed: Vec<String> = dfl_bench::canonical_fingerprints()
        .iter()
        .map(|(label, fp)| format!("{label} {fp:016x}"))
        .collect();
    assert_eq!(
        printed,
        [
            "fig1 c189dabee2bdadcf",
            "fig2 70f32ecef2aa2d23",
            "fig2-verifiable 4b3ee82adc2506ee",
            "fig2-batched d480c889b39df646",
            "swarm-2k 6be4538a152786fc",
        ]
    );
}

#[test]
fn overlay_round_is_run_to_run_deterministic() {
    // A 3-level overlay (96 trainers at branching 8) with commitment
    // verification at every interior hop: the full trace — partial
    // forwarding order, deadline timers, dissemination — must be
    // bit-identical across runs, with `--features parallel` too.
    let cfg = overlay_config(96);
    let params = dfl_bench::overlay_param_count();
    let first = run_network_experiment(cfg.clone(), params);
    let second = run_network_experiment(cfg, params);
    assert_eq!(
        first.trace.events().len(),
        second.trace.events().len(),
        "event counts diverged across identical overlay runs"
    );
    assert_eq!(
        trace_fingerprint(&first.trace),
        trace_fingerprint(&second.trace),
        "overlay run diverged across identical runs"
    );
}

#[test]
fn depth_one_overlay_matches_flat_aggregation_bit_for_bit() {
    // The flat verifiable round is the overlay's oracle: a depth-1
    // overlay (branching ≥ trainers − 1, so the root is every other
    // trainer's parent) performs the same exact i128 gradient sum as the
    // flat aggregator and must converge every trainer to bit-identical
    // f32 parameters.
    let trainers = 16;
    let params = dfl_bench::overlay_param_count();
    let flat = TaskConfig {
        overlay_branching: None,
        ..overlay_config(trainers)
    };
    let depth_one = TaskConfig {
        overlay_branching: Some(trainers - 1),
        ..overlay_config(trainers)
    };
    let flat_report = run_network_experiment(flat.clone(), params);
    let overlay_report = run_network_experiment(depth_one.clone(), params);
    assert!(flat_report.succeeded(&flat), "flat round incomplete");
    assert!(
        overlay_report.succeeded(&depth_one),
        "depth-1 overlay round incomplete"
    );
    let flat_params = flat_report
        .consensus_params()
        .expect("flat trainers agree on the final model");
    let overlay_params = overlay_report
        .consensus_params()
        .expect("overlay trainers agree on the final model");
    assert_eq!(flat_params.len(), overlay_params.len());
    for (i, (a, b)) in flat_params.iter().zip(&overlay_params).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "parameter {i} diverged: flat {a} vs overlay {b}"
        );
    }
}
