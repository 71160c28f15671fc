//! Deployment assembly from the same public constructors, in the same
//! order, that `ipls::run_task` and `dfl_backend_tokio::run_task_over_tcp`
//! use. The set-up metric times these calls; the traced run uses them to
//! wrap every core before the simulation starts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dfl_ipfs::{IpfsNode, RetryPolicy};
use dfl_ml::Dataset;
use dfl_netsim::{LinkSpec, NodeId, SimTime, Simulation, Trace};
use ipls::gradient::{derive_key, ProtocolKey};
use ipls::protocol::{IpfsCore, NetsimAdapter, ProtocolCore};
use ipls::trainer::ParamSink;
use ipls::{labels, Aggregator, Behavior, Directory, IplsError, Msg, Topology, Trainer};

use crate::span::{self, Layer, TimedCore, TimedModel};
use crate::workload::Workload;

/// A simulation ready to run, plus what the run leaves behind.
pub struct Deployment {
    pub sim: Simulation<Msg>,
    pub sink: ParamSink,
    pub key: Option<Arc<ProtocolKey>>,
}

fn key_for(topo: &Topology, traced: bool) -> Option<Arc<ProtocolKey>> {
    let cfg = topo.config();
    let derive = || derive_key(topo.max_partition_len(), cfg.seed, cfg.commit_precompute);
    cfg.verifiable.then(|| {
        Arc::new(if traced {
            span::timed(Layer::Crypto, "key_setup", derive)
        } else {
            derive()
        })
    })
}

fn add<C: ProtocolCore<Msg = Msg> + 'static>(
    sim: &mut Simulation<Msg>,
    core: C,
    layer: Layer,
    expected: NodeId,
    link: LinkSpec,
    traced: bool,
) -> Result<(), IplsError> {
    let id = if traced {
        sim.add_node(
            NetsimAdapter::new(TimedCore::new(core, layer, expected)),
            link,
        )
    } else {
        sim.add_node(NetsimAdapter::new(core), link)
    };
    if id != expected {
        return Err(IplsError::InvalidConfig(format!(
            "node {} landed at {}",
            expected.index(),
            id.index()
        )));
    }
    Ok(())
}

/// Builds the netsim deployment of `w`, consuming `datasets`. With
/// `traced`, every core is wrapped in [`TimedCore`], the model in
/// [`TimedModel`], and the key derivation is timed.
pub fn build_netsim(
    w: &Workload,
    datasets: Vec<Dataset>,
    traced: bool,
) -> Result<Deployment, IplsError> {
    let cfg = &w.cfg;
    let topo = Arc::new(Topology::new(cfg.clone(), w.params.len())?);
    let key = key_for(&topo, traced);

    let mut sim: Simulation<Msg> = Simulation::new();
    sim.set_reference_allocator(cfg.reference_allocator);
    let limit_us = (cfg.t_sync.as_micros() + 120_000_000) * cfg.rounds;
    sim.set_time_limit(SimTime::from_micros(limit_us));
    let link = cfg.link();
    let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));

    let dir = Directory::new(topo.clone(), key.clone());
    add(
        &mut sim,
        dir,
        Layer::Directory,
        topo.directory(),
        link,
        traced,
    )?;

    let ipfs_link = cfg.ipfs_link();
    let roster = IpfsNode::roster_for(&topo.ipfs_ids());
    for k in 0..cfg.ipfs_nodes {
        let node = storage_node(w, &topo, &roster, k);
        let core = IpfsCore::<Msg>::new(node);
        add(
            &mut sim,
            core,
            Layer::Ipfs,
            topo.ipfs_node(k),
            ipfs_link,
            traced,
        )?;
    }

    for g in 0..cfg.total_aggregators() {
        let agg = Aggregator::new(g, topo.clone(), key.clone(), Behavior::Honest);
        add(
            &mut sim,
            agg,
            Layer::Aggregator,
            topo.aggregator(g),
            link,
            traced,
        )?;
    }

    // Same trainer either way; only the model type differs.
    for (t, dataset) in datasets.into_iter().enumerate() {
        let (id, params, sink) = (topo.trainer(t), w.params.clone(), sink.clone());
        let (topo, key) = (topo.clone(), key.clone());
        if traced {
            let model = TimedModel(w.model.clone());
            let core = Trainer::new(t, topo, key, model, params, dataset, w.sgd, sink);
            add(&mut sim, core, Layer::Trainer, id, link, true)?;
        } else {
            let model = w.model.clone();
            let core = Trainer::new(t, topo, key, model, params, dataset, w.sgd, sink);
            add(&mut sim, core, Layer::Trainer, id, link, false)?;
        }
    }

    sim.apply_fault_plan(&cfg.fault_plan);
    Ok(Deployment { sim, sink, key })
}

fn storage_node(
    w: &Workload,
    topo: &Topology,
    roster: &[(NodeId, dfl_ipfs::Key)],
    k: usize,
) -> IpfsNode {
    let mut node = IpfsNode::new(topo.ipfs_node(k), roster.to_vec());
    node.set_retry_policy(RetryPolicy {
        base_timeout: w.cfg.fetch_timeout,
        ..RetryPolicy::default()
    });
    if w.cfg.lossy_ipfs_nodes.contains(&k) {
        node.set_lossy(true);
    }
    node
}

/// The socket backend's set-up: topology, key, and one core per node,
/// built as `run_task_over_tcp` builds them (listeners excluded).
pub fn build_tcp_cores(
    w: &Workload,
    datasets: Vec<Dataset>,
) -> Result<Vec<Box<dyn ProtocolCore<Msg = Msg> + Send>>, IplsError> {
    let cfg = &w.cfg;
    let topo = Arc::new(Topology::new(cfg.clone(), w.params.len())?);
    let key = key_for(&topo, false);
    let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));
    let mut cores: Vec<Box<dyn ProtocolCore<Msg = Msg> + Send>> = Vec::new();
    cores.push(Box::new(Directory::new(topo.clone(), key.clone())));
    let roster = IpfsNode::roster_for(&topo.ipfs_ids());
    for k in 0..cfg.ipfs_nodes {
        cores.push(Box::new(IpfsCore::<Msg>::new(storage_node(
            w, &topo, &roster, k,
        ))));
    }
    for g in 0..cfg.total_aggregators() {
        cores.push(Box::new(Aggregator::new(
            g,
            topo.clone(),
            key.clone(),
            Behavior::Honest,
        )));
    }
    for (t, dataset) in datasets.into_iter().enumerate() {
        cores.push(Box::new(Trainer::new(
            t,
            topo.clone(),
            key.clone(),
            w.model.clone(),
            w.params.clone(),
            dataset,
            w.sgd,
            sink.clone(),
        )));
    }
    Ok(cores)
}

/// Rounds that completed, counted as `run_task`'s report counts them: up
/// to the first round without a `round_complete` record.
pub fn completed_rounds(trace: &Trace, rounds: u64) -> u64 {
    let mut done = vec![false; rounds as usize];
    for e in trace.find_all(labels::ROUND_COMPLETE) {
        if e.value >= 0.0 && e.value.fract() == 0.0 && (e.value as u64) < rounds {
            done[e.value as usize] = true;
        }
    }
    done.iter().take_while(|d| **d).count() as u64
}

/// The parameter vector every trainer finished with, if they all agree
/// and all `trainers` reported.
pub fn consensus(final_params: &HashMap<usize, Vec<f32>>, trainers: usize) -> Option<Vec<f32>> {
    if final_params.len() != trainers {
        return None;
    }
    let mut iter = final_params.values();
    let first = iter.next()?;
    iter.all(|p| p == first).then(|| first.clone())
}

/// Bit patterns of a parameter vector, for exact comparison.
pub fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// Whether `trained` moved away from `initial` at all.
pub fn learned(initial: &[f32], trained: &[f32]) -> bool {
    bits(initial) != bits(trained)
}
