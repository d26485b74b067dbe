//! End-to-end encrypted-session benchmark.
//!
//! Runs a real crypto `Client` over a `PooledClient` into a durable,
//! spawned `NetServer`, all in one process, on one of three workloads,
//! and prints the client-observed metrics, or, with `--trace 1`, the
//! per-layer split. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <scan_select|ingest|mixed_probe> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod deploy;
mod report;
mod span;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::{END_TO_END, PER_LAYER, REPORTED};
use span::OpKind;
use workloads::{RunConfig, RunResult};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 3;

const WORKLOADS: &[&str] = &["scan_select", "ingest", "mixed_probe"];

/// Largest split gap the smoke mode accepts, in percent of op latency.
const SMOKE_MAX_GAP_PCT: f64 = 3.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn run(workload: &str, cfg: &RunConfig) -> Result<RunResult, dbph_core::PhError> {
    match workload {
        "scan_select" => workloads::scan_select(cfg),
        "ingest" => workloads::ingest(cfg),
        "mixed_probe" => workloads::mixed_probe(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// A number as JSON: all its digits, or `null` when not finite (a
/// failed op's latency).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the run's report and returns its result line.
fn print_run(
    workload: &str,
    cfg: &RunConfig,
    r: &RunResult,
    m: &BTreeMap<&'static str, f64>,
) -> String {
    let host = report::host_block(cfg.seed, cfg.seconds, std::path::Path::new("."));
    let host: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("host {{{}}}", host.join(", "));
    println!(
        "workload {workload} trace={} measured_s={:.3} setups={} attempted={} failed={}",
        u8::from(cfg.trace),
        r.measured_s,
        r.setup_s.len(),
        r.samples.ops.len(),
        r.samples.failed()
    );
    for problem in &r.problems {
        println!("problem {problem}");
    }
    let s = &r.samples;
    let windows = report::window_count(r.measured_s);
    let note = |name: &str| {
        let kind = if name.starts_with("read") {
            OpKind::Read
        } else {
            OpKind::Write
        };
        match name {
            "setup_s" => format!(" (median of {})", r.setup_s.len()),
            _ if name.ends_with("_p99_ms") => format!(" (n={})", report::untraced(s, kind)),
            _ if name.ends_with("_ms") || name.ends_with("_per_s") => format!(
                " (median of {windows} windows, n={})",
                report::untraced(s, kind)
            ),
            _ => String::new(),
        }
    };
    for (name, unit, applies) in REPORTED {
        if applies.contains(&workload) {
            println!("e2e {name} {} {unit}{}", json_number(m[name]), note(name));
        }
    }
    let listed: &[(&str, &str)] = if cfg.trace { PER_LAYER } else { END_TO_END };
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            println!("layer {name} {} {unit}", json_number(m[name]));
        }
    }
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(m[name]),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        s.ops.len(),
        s.failed(),
        metrics.join(", ")
    )
}

/// Runs every workload briefly, untraced and traced, and checks that
/// each run is correct, that every listed metric is a finite number,
/// and that the traced split accounts for the client-observed latency.
fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                seed: 7,
                seconds: 2.0,
                trace,
                setups: 1,
            };
            let r = match run(workload, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    println!("smoke FAIL {workload} trace={trace}: {e}");
                    ok = false;
                    continue;
                }
            };
            let m = report::metrics(workload, &r);
            println!("{}", print_run(workload, &cfg, &r, &m));
            let listed = if trace { PER_LAYER } else { END_TO_END };
            let mut fails = Vec::new();
            if !r.correct() {
                fails.push("incorrect results".to_string());
            }
            for (name, _) in listed {
                if !m[name].is_finite() {
                    fails.push(format!("{name} is not a number"));
                }
            }
            if trace {
                let gap = m["trace.split_gap_pct"];
                println!("smoke {workload} split gap {gap:.4}%");
                if r.samples.spans.ops == 0 || gap > SMOKE_MAX_GAP_PCT {
                    fails.push(format!("split gap {gap}% over {SMOKE_MAX_GAP_PCT}%"));
                }
            }
            for f in &fails {
                println!("smoke FAIL {workload} trace={trace}: {f}");
            }
            ok &= fails.is_empty();
        }
    }
    println!("smoke {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        return smoke();
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        setups: SETUPS,
    };
    let r = match run(&workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let m = report::metrics(&workload, &r);
    println!("{}", print_run(&workload, &cfg, &r, &m));
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
