//! End-to-end metrics from untraced runs through the public entry points.

use std::any::Any;
use std::time::Instant;

use dfl_backend_tokio::run_task_over_tcp;
use ipls::{run_task, TaskReport};

use crate::deploy::{self, bits, consensus, learned};
use crate::stats::{mean, median, peak_rss_mb};
use crate::workload::{Backend, Workload};
use crate::{Metric, Output};

/// The simulated-network quantities of one netsim run. They are
/// deterministic for a seed, so repeated runs must match exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimMetrics {
    /// Median round duration (simulated seconds).
    pub round_s: f64,
    /// Mean trainer upload delay (Fig. 1).
    pub upload_s: f64,
    /// Mean total aggregation delay, gathering plus sync (Fig. 1/2).
    pub aggregation_s: f64,
    /// Application bytes sent per completed round.
    pub wire_bytes_per_round: f64,
}

impl SimMetrics {
    pub fn of(report: &TaskReport) -> SimMetrics {
        let mut durations: Vec<f64> = report.rounds.iter().map(|r| r.round_duration).collect();
        let uploads: Vec<f64> = report.rounds.iter().map(|r| r.upload_delay_avg).collect();
        let aggregation: Vec<f64> = report
            .rounds
            .iter()
            .map(|r| r.total_aggregation_delay)
            .collect();
        SimMetrics {
            round_s: median(&mut durations),
            upload_s: mean(&uploads),
            aggregation_s: mean(&aggregation),
            wire_bytes_per_round: report.total_tx_bytes as f64
                / report.completed_rounds.max(1) as f64,
        }
    }
}

/// What a netsim run must satisfy: every round completed, all trainers
/// agree on a model that moved away from the initial one.
pub fn check_netsim(w: &Workload, report: &TaskReport) -> Result<Vec<f32>, String> {
    if report.completed_rounds != w.cfg.rounds {
        return Err(format!(
            "{} of {} rounds completed",
            report.completed_rounds, w.cfg.rounds
        ));
    }
    let params = consensus(&report.final_params, w.cfg.trainers)
        .ok_or("trainers disagree on the final model")?;
    if !learned(&w.params, &params) {
        return Err("the final model equals the initial one".to_string());
    }
    Ok(params)
}

/// Runs `ipls::run_task` on a copy of the workload's inputs; returns the
/// report and the wall time of the call alone.
pub fn run_netsim(w: &Workload) -> Result<(TaskReport, f64), String> {
    let (cfg, model, params, datasets) = (
        w.cfg.clone(),
        w.model.clone(),
        w.params.clone(),
        w.datasets.clone(),
    );
    let started = Instant::now();
    let report = run_task(cfg, model, params, datasets, w.sgd, &[]).map_err(|e| e.to_string())?;
    Ok((report, started.elapsed().as_secs_f64()))
}

/// Median set-up time: the deployment is built repeatedly from the same
/// public calls the runner makes, for at least five builds and `budget`
/// seconds.
fn setup_s(w: &Workload, budget: f64) -> Result<f64, String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (started.elapsed().as_secs_f64() < budget && samples.len() < 1000) {
        let datasets = w.datasets.clone();
        let t = Instant::now();
        let built = match w.backend {
            Backend::Netsim => {
                deploy::build_netsim(w, datasets, false).map(|d| Box::new(d) as Box<dyn Any>)
            }
            Backend::Tcp => {
                deploy::build_tcp_cores(w, datasets).map(|c| Box::new(c) as Box<dyn Any>)
            }
        };
        samples.push(t.elapsed().as_secs_f64());
        // Tear-down is not set-up: drop after the clock stops.
        drop(built.map_err(|e| e.to_string())?);
    }
    Ok(median(&mut samples))
}

/// Measures the workload for about `seconds` in all (a tenth of it on
/// set-up) and reports every end-to-end metric.
pub fn run(w: &Workload, seconds: f64) -> Result<Output, String> {
    let started = Instant::now();
    let setup = setup_s(w, seconds / 10.0)?;
    let rounds = w.cfg.rounds;

    // The netsim run of the workload. For the socket workload it is the
    // oracle: its simulated quantities are reported and its model bytes
    // are what every TCP run must reproduce.
    let (first, first_wall) = run_netsim(w)?;
    let expected = check_netsim(w, &first)?;
    let sim = SimMetrics::of(&first);
    let fingerprint = dfl_bench::trace_fingerprint(&first.trace);
    drop(first);

    let mut per_round = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    let mut last_wall = first_wall;
    if w.backend == Backend::Netsim {
        attempted += rounds;
        per_round.push((first_wall - setup) / rounds as f64);
    }
    // Closed loop: the next task starts when the previous one returns,
    // while another fits (on average) in the time left.
    while per_round.is_empty() || started.elapsed().as_secs_f64() + last_wall / 2.0 < seconds {
        attempted += rounds;
        let outcome = match w.backend {
            Backend::Netsim => run_netsim(w).and_then(|(report, wall)| {
                let params = check_netsim(w, &report)?;
                if dfl_bench::trace_fingerprint(&report.trace) != fingerprint {
                    return Err("trace fingerprint differs from the first run".to_string());
                }
                if SimMetrics::of(&report) != sim {
                    return Err("simulated metrics differ from the first run".to_string());
                }
                Ok((params, wall))
            }),
            Backend::Tcp => run_tcp(w),
        };
        match outcome.and_then(|(params, wall)| {
            last_wall = wall;
            if bits(&params) == bits(&expected) {
                Ok(wall)
            } else {
                Err("final model bytes differ from the netsim run".to_string())
            }
        }) {
            Ok(wall) => per_round.push((wall - setup) / rounds as f64),
            Err(e) => {
                failed += rounds;
                failures.push(e);
            }
        }
        if failures.len() >= 3 && per_round.is_empty() {
            break;
        }
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    if per_round.is_empty() {
        return Err(format!("no run passed its checks: {}", failures.join("; ")));
    }
    let samples: Vec<String> = per_round.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "measured {} runs of {rounds} rounds; s/round: {}",
        per_round.len(),
        samples.join(" ")
    );

    let metrics: Vec<Metric> = vec![
        ("round_wall_s", median(&mut per_round), "s"),
        ("setup_s", setup, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("sim_round_s", sim.round_s, "sim-s"),
        ("sim_upload_s", sim.upload_s, "sim-s"),
        ("sim_aggregation_s", sim.aggregation_s, "sim-s"),
        ("wire_bytes_per_round", sim.wire_bytes_per_round, "B"),
    ];
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// One socket run; returns the agreed model and the call's wall time.
pub fn run_tcp(w: &Workload) -> Result<(Vec<f32>, f64), String> {
    let (report, wall) = tcp_report(w)?;
    if report.completed_rounds != w.cfg.rounds {
        return Err(format!(
            "TCP run completed {} of {} rounds",
            report.completed_rounds, w.cfg.rounds
        ));
    }
    let params = consensus(&report.final_params, w.cfg.trainers)
        .ok_or("TCP trainers disagree on the final model")?;
    Ok((params, wall))
}

/// One socket run's full report and wall time.
pub fn tcp_report(w: &Workload) -> Result<(dfl_backend_tokio::TcpTaskReport, f64), String> {
    let (cfg, model, params, datasets) = (
        w.cfg.clone(),
        w.model.clone(),
        w.params.clone(),
        w.datasets.clone(),
    );
    let started = Instant::now();
    let report =
        run_task_over_tcp(cfg, model, params, datasets, w.sgd).map_err(|e| e.to_string())?;
    Ok((report, started.elapsed().as_secs_f64()))
}
