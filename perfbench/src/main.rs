//! The repository's benchmark: one workload per process, closed loop (one
//! task at a time, rounds back to back), seeded inputs, checked outputs.
//!
//! ```text
//! perfbench --workload <overlay_verify|paper_merge|tcp_indirect>
//!           --seed <n> --seconds <n> --trace <0|1> [--size full|tiny]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics of untraced runs
//! through `ipls::run_task` or `dfl_backend_tokio::run_task_over_tcp`;
//! with `--trace 1` it reports the per-layer breakdown of one traced run.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod deploy;
mod probes;
mod span;
mod stats;
mod traced;
mod untraced;
mod workload;

use std::process::ExitCode;

use workload::{Size, Workload};

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one invocation reports.
pub struct Output {
    /// Every output check passed.
    pub correct: bool,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that did not complete or failed an output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

fn json(out: &Output) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(out.metrics.len());
    for (name, value, unit) in &out.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::generate(&args.workload, args.seed, args.size) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} inputs {:016x}",
        w.name,
        args.seed,
        w.input_fingerprint()
    );
    let result = if args.trace {
        traced::run(&w)
    } else {
        untraced::run(&w, args.seconds)
    };
    match result.and_then(|out| json(&out)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
