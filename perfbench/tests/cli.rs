//! The benchmark's own tests: tiny-size runs of every workload through the
//! real code path, checked against the metric lists in `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just what the benchmark's files use).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing text after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map
                .get(key)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(map) => map,
            other => panic!("{other:?} is not an object"),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    skip_ws(b, pos);
    assert_eq!(b.get(*pos), Some(&c), "expected {:?} at {}", c as char, pos);
    *pos += 1;
}

fn parse_string(b: &[u8], pos: &mut usize) -> String {
    expect(b, pos, b'"');
    let mut out = String::new();
    while b[*pos] != b'"' {
        if b[*pos] == b'\\' {
            *pos += 1;
            out.push(match b[*pos] {
                b'n' => '\n',
                b't' => '\t',
                other => other as char,
            });
        } else {
            out.push(b[*pos] as char);
        }
        *pos += 1;
    }
    *pos += 1;
    out
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(map);
            }
            loop {
                let key = parse_string(b, pos);
                expect(b, pos, b':');
                let value = parse_value(b, pos);
                assert!(
                    map.insert(key.clone(), value).is_none(),
                    "duplicate key {key}"
                );
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b'}' => return Json::Obj(map),
                    c => panic!("unexpected {:?} in object", c as char),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b']' => return Json::Arr(items),
                    c => panic!("unexpected {:?} in array", c as char),
                }
            }
        }
        b'"' => Json::Str(parse_string(b, pos)),
        b't' if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?}")),
            )
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text)
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// One tiny run: its standard output and the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("at least one line")
        .to_string();
    (stdout, Json::parse(&last))
}

/// The `inputs` fingerprint the benchmark prints on its first line.
fn inputs(stdout: &str) -> String {
    let first = stdout.lines().next().expect("first line");
    first
        .split_whitespace()
        .last()
        .expect("fingerprint")
        .to_string()
}

const WORKLOADS: [&str; 3] = ["overlay_verify", "paper_merge", "tcp_indirect"];

fn check_result(workload: &str, result: &Json, section: &str) {
    assert_eq!(
        result.obj().keys().collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: outputs incorrect"
    );
    assert!(
        result.get("attempted").num() >= 1.0,
        "{workload}: nothing attempted"
    );
    assert_eq!(result.get("failed").num(), 0.0, "{workload}: failed rounds");
    let metrics = result.get("metrics").obj();
    let expected = declared(section);
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{workload}: printed {:?}",
        metrics.keys().collect::<Vec<_>>()
    );
    for (name, unit) in expected {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} not printed"));
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(
            m.get("value").num().is_finite(),
            "{workload}: value of {name}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        let (_, result) = run(workload, 7, false);
        check_result(workload, &result, "end_to_end");
        let metrics = result.get("metrics");
        for name in [
            "round_wall_s",
            "setup_s",
            "sim_round_s",
            "wire_bytes_per_round",
        ] {
            assert!(
                metrics.get(name).get("value").num() > 0.0,
                "{workload}: {name} must not be 0"
            );
        }
    }
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        let (stdout, result) = run(workload, 7, true);
        check_result(workload, &result, "per_layer");
        assert!(
            stdout.contains("largest layer: "),
            "{workload}: the report names the largest layer"
        );
        let metrics = result.get("metrics");
        let value = |name: &str| metrics.get(name).get("value").num();
        assert!((value("trace.layer_sum_s") - value("netsim.run_s")).abs() < 1e-6);
        assert_eq!(value("round_fail_ratio"), 0.0);
    }
}

#[test]
fn one_seed_reproduces_its_inputs_and_simulated_outputs() {
    for workload in WORKLOADS {
        let (a_out, a) = run(workload, 3, false);
        let (b_out, b) = run(workload, 3, false);
        assert_eq!(inputs(&a_out), inputs(&b_out), "{workload}: inputs differ");
        for name in [
            "sim_round_s",
            "sim_upload_s",
            "sim_aggregation_s",
            "wire_bytes_per_round",
        ] {
            assert_eq!(
                a.get("metrics").get(name),
                b.get("metrics").get(name),
                "{workload}: {name} differs between runs of one seed"
            );
        }
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for workload in WORKLOADS {
        let (a, _) = run(workload, 3, false);
        let (b, _) = run(workload, 4, false);
        assert_ne!(
            inputs(&a),
            inputs(&b),
            "{workload}: seed does not reach the inputs"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper_merge",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "paper_merge", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} must not print a result"
        );
    }
}
