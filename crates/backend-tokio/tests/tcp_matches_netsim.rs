//! End-to-end equivalence: the same protocol cores, driven over real
//! localhost TCP sockets, learn bit-for-bit the same model as a netsim run
//! of the same [`TaskConfig`]. Training is seeded per `(task seed, round,
//! trainer)` and aggregation is exact and order-independent, so transport
//! timing must not leak into the result — this test is the proof.

use dfl_backend_tokio::run_task_over_tcp;
use dfl_ml::{data, LogisticRegression, Model, SgdConfig};
use ipls::{run_task, CommMode, TaskConfig};

fn task_config() -> TaskConfig {
    TaskConfig {
        trainers: 4,
        partitions: 2,
        aggregators_per_partition: 1,
        ipfs_nodes: 2,
        comm: CommMode::Indirect,
        rounds: 2,
        // Real time, not simulated: poll fast so a round completes in
        // tens of milliseconds instead of the simulator-scaled default.
        poll_interval: ipls::prelude::SimDuration::from_millis(20),
        ..TaskConfig::default()
    }
}

#[test]
fn tcp_run_matches_netsim_model_bytes() {
    let cfg = task_config();
    let dataset = data::make_blobs(64, 2, 2, 0.5, 1);
    let clients = data::partition_iid(&dataset, cfg.trainers, 0);
    let model = LogisticRegression::new(2, 2);
    let params = model.params();
    let sgd = SgdConfig::default();

    let sim_report = run_task(
        cfg.clone(),
        model.clone(),
        params.clone(),
        clients.clone(),
        sgd,
        &[],
    )
    .expect("netsim run");
    assert!(sim_report.succeeded(&cfg), "netsim run must complete");
    let sim_params = sim_report
        .consensus_params()
        .expect("netsim trainers agree");

    let tcp_report = run_task_over_tcp(cfg.clone(), model, params, clients, sgd).expect("TCP run");
    assert_eq!(
        tcp_report.completed_rounds, cfg.rounds,
        "TCP run must complete every round"
    );
    assert_eq!(
        tcp_report.final_params.len(),
        cfg.trainers,
        "every trainer reports final parameters"
    );
    let tcp_params = tcp_report.consensus_params().expect("TCP trainers agree");

    // The headline assertion: identical bytes, not approximately-equal
    // floats — both backends interpreted the same state machines.
    assert_eq!(
        tcp_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        sim_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "TCP and netsim final model bytes differ"
    );

    // A healthy run loses nothing, and every category proves it: the
    // supervised writers never gave up, no queue overflowed, no fault
    // was injected.
    let delivery = tcp_report.delivery;
    assert_eq!(delivery.frames_dropped(), 0, "healthy run dropped frames");
    assert_eq!(delivery.frames_faulted(), 0, "no faults were injected");
    assert_eq!(delivery.frames_dropped_down, 0, "no node was crashed");
    assert!(delivery.frames_sent > 0, "frames flowed over TCP");

    // The Incr sink mirrors what the simulator traces: storage nodes
    // served provider lookups in both backends. (Exact totals may differ
    // — real-time retries are timing-dependent — but the sink must flow.)
    assert!(
        tcp_report.counter("ipfs/provider_lookups") > 0,
        "storage counters must flow into the TCP report; got {:?}",
        tcp_report.counters
    );
    assert!(
        sim_report.trace.counter("ipfs/provider_lookups") > 0,
        "netsim oracle also counts provider lookups"
    );
    assert_eq!(
        tcp_report.quorum_degradations(),
        0,
        "healthy run must not degrade quorum"
    );
}

#[test]
fn lossy_storage_behaves_the_same_on_both_backends() {
    // A lossy storage node discards everything it is asked to store, so
    // reads that reach it miss and fall back to a provider lookup. Both
    // backends build their nodes from one deployment, so the socket run
    // must see the same misses and lookups as the simulator.
    let cfg = TaskConfig {
        lossy_ipfs_nodes: vec![0],
        replication: 2,
        ..task_config()
    };
    let dataset = data::make_blobs(64, 2, 2, 0.5, 1);
    let clients = data::partition_iid(&dataset, cfg.trainers, 0);
    let model = LogisticRegression::new(2, 2);
    let params = model.params();
    let sgd = SgdConfig::default();

    let sim = run_task(
        cfg.clone(),
        model.clone(),
        params.clone(),
        clients.clone(),
        sgd,
        &[],
    )
    .expect("netsim run");
    assert!(sim.succeeded(&cfg), "netsim run must complete");
    let tcp = run_task_over_tcp(cfg.clone(), model, params, clients, sgd).expect("TCP run");
    assert_eq!(tcp.completed_rounds, cfg.rounds);

    let bits = |p: Vec<f32>| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(tcp.consensus_params().expect("TCP trainers agree")),
        bits(sim.consensus_params().expect("netsim trainers agree")),
        "TCP and netsim final model bytes differ"
    );
    for label in ["ipfs/cache_misses", "ipfs/provider_lookups"] {
        assert!(sim.trace.counter(label) > 0, "{label} must be exercised");
        assert_eq!(
            tcp.counter(label),
            sim.trace.counter(label),
            "{label} differs between the backends"
        );
    }
}
