//! Turns a run's samples and stats deltas into named metrics, and
//! describes the host a result came from.

use std::collections::BTreeMap;

use crate::span::{OpKind, Samples};
use crate::workloads::RunResult;

/// The metrics every untraced run prints in its result line, with
/// their units. `op_*` and `throughput_per_s` are about the workload's
/// primary op: reads on `scan_select` and `mixed_probe`, 64-row write
/// batches on `ingest`; throughput counts reads, or rows written.
/// Timings are medians over the run's 4-second windows (see
/// [`WINDOW_S`]); p95 is the highest percentile with at least ten
/// samples beyond it in every window.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_row", "B"),
];

/// The metrics every traced run prints in its result line. A layer
/// that a workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.request_ms", "ms"),
    ("client.response_ms", "ms"),
    ("client.candidates_per_row", "count"),
    ("net.call_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("net.bytes_in_per_op", "B"),
    ("net.bytes_out_per_op", "B"),
    ("net.backpressure", "count"),
    ("server.handle_ms.query", "ms"),
    ("server.handle_ms.append_batch", "ms"),
    ("exec.tasks_per_op", "count"),
    ("exec.busy_ms_per_op", "ms"),
    ("exec.task_ms", "ms"),
    ("exec.utilization", "ratio"),
    ("exec.queue_high_water", "count"),
    ("storage.docs_scanned_per_row", "count"),
    ("index.hit_ratio", "ratio"),
    ("index.delta_len_mean", "count"),
    ("index.probes_per_op", "count"),
    ("durable.fsyncs_per_write", "count"),
    ("durable.fsync_ms", "ms"),
    ("durable.commit_wait_ms", "ms"),
    ("durable.records_per_sync", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.split_gap_pct", "%"),
];

/// Every end-to-end metric, by workload, printed in the report above
/// the result line. p50, p95 and throughput are medians over 4-second
/// windows, p99 is over the whole run. `error_rate` is the result
/// line's `failed / attempted`.
pub const REPORTED: &[(&str, &str, &[&str])] = &[
    ("setup_s", "s", ALL),
    ("read_ops_per_s", "ops/s", READS),
    ("read_p50_ms", "ms", READS),
    ("read_p95_ms", "ms", READS),
    ("read_p99_ms", "ms", READS),
    ("write_rows_per_s", "rows/s", WRITES),
    ("write_p50_ms", "ms", WRITES),
    ("write_p95_ms", "ms", WRITES),
    ("write_p99_ms", "ms", WRITES),
    ("error_rate", "failed/attempted", ALL),
    ("peak_rss_mb", "MB", ALL),
    ("disk_bytes_per_row", "B", ALL),
];

const ALL: &[&str] = &["scan_select", "ingest", "mixed_probe"];
const READS: &[&str] = &["scan_select", "mixed_probe"];
const WRITES: &[&str] = &["ingest", "mixed_probe"];

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
/// Percentiles come from the benchmark's own samples: the stats
/// plane's histograms have log2 buckets, too coarse for a bound.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The workload's primary op.
fn primary(workload: &str) -> OpKind {
    if workload == "ingest" {
        OpKind::Write
    } else {
        OpKind::Read
    }
}

/// Untraced ops of one kind: the samples behind its latencies.
pub fn untraced(s: &Samples, kind: OpKind) -> usize {
    s.ops
        .iter()
        .filter(|op| op.kind == kind && !op.traced)
        .count()
}

/// Latencies (ms) of the untraced ops of one kind that ended in
/// `[from, to)` seconds of measured time.
fn latencies(s: &Samples, kind: OpKind, from: f64, to: f64) -> Vec<f64> {
    s.ops
        .iter()
        .filter(|op| op.kind == kind && !op.traced && op.end_s >= from && op.end_s < to)
        .map(|op| op.ms)
        .collect()
}

/// What the ops of one kind that ended in `[from, to)` completed:
/// correct reads, or rows written.
fn units(s: &Samples, kind: OpKind, from: f64, to: f64) -> f64 {
    s.ops
        .iter()
        .filter(|op| op.kind == kind && op.end_s >= from && op.end_s < to)
        .map(|op| match kind {
            OpKind::Read => f64::from(u8::from(!op.failed())),
            OpKind::Write => op.rows as f64,
        })
        .sum()
}

/// Length of the windows whose medians some timings report.
pub const WINDOW_S: f64 = 4.0;

/// How many equal windows a run of `measured_s` is cut into: about
/// one per [`WINDOW_S`], at least one.
pub fn window_count(measured_s: f64) -> usize {
    ((measured_s / WINDOW_S).round() as usize).max(1)
}

/// The median over the run's windows of `f(from, to)`.
fn windowed(measured_s: f64, mut f: impl FnMut(f64, f64) -> f64) -> f64 {
    let n = window_count(measured_s);
    let w = measured_s / n as f64;
    let per: Vec<f64> = (0..n)
        .map(|i| f(i as f64 * w, (i + 1) as f64 * w))
        .collect();
    median(&per)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every metric this run can report, end-to-end and per-layer, by
/// name. Latencies of failed ops are infinite.
pub fn metrics(workload: &str, r: &RunResult) -> BTreeMap<&'static str, f64> {
    let s = &r.samples;
    let st = &r.stats;
    let mut m = BTreeMap::new();
    let secs = r.measured_s;
    let count = |kind: OpKind| s.ops.iter().filter(|op| op.kind == kind).count() as f64;
    let (n_reads, n_writes) = (count(OpKind::Read), count(OpKind::Write));
    let ops = n_reads + n_writes;
    let all = f64::INFINITY;
    let failed = s.failed() as f64;
    let rows_read: f64 = s
        .ops
        .iter()
        .filter(|op| op.kind == OpKind::Read)
        .map(|op| op.rows as f64)
        .sum();

    // End to end.
    m.insert("setup_s", median(&r.setup_s));
    let primary = primary(workload);
    let classes = [
        (
            OpKind::Read,
            [
                "read_ops_per_s",
                "read_p50_ms",
                "read_p95_ms",
                "read_p99_ms",
            ],
        ),
        (
            OpKind::Write,
            [
                "write_rows_per_s",
                "write_p50_ms",
                "write_p95_ms",
                "write_p99_ms",
            ],
        ),
    ];
    for (kind, names) in classes {
        let rate = windowed(secs, |a, b| units(s, kind, a, b) / (b - a));
        let p50 = windowed(secs, |a, b| quantile(&mut latencies(s, kind, a, b), 0.50));
        let p95 = windowed(secs, |a, b| quantile(&mut latencies(s, kind, a, b), 0.95));
        let p99 = quantile(&mut latencies(s, kind, 0.0, all), 0.99);
        m.extend(names.into_iter().zip([rate, p50, p95, p99]));
        if kind == primary {
            m.extend([
                ("throughput_per_s", rate),
                ("op_p50_ms", p50),
                ("op_p95_ms", p95),
            ]);
        }
    }
    m.insert("error_rate", ratio(failed, ops));
    m.insert("peak_rss_mb", r.peak_rss_mb);
    m.insert("disk_bytes_per_row", median(&r.disk_bytes_per_row));

    // Client and net spans, from traced ops.
    let sp = &s.spans;
    let n = sp.ops as f64;
    let span_ms = |nanos: u128| ratio(nanos as f64 / 1e6, n);
    m.insert("client.request_ms", span_ms(sp.request_nanos));
    m.insert("client.response_ms", span_ms(sp.response_nanos));
    m.insert(
        "client.candidates_per_row",
        ratio(sp.candidates as f64, sp.rows as f64),
    );
    let call_ms = span_ms(sp.call_nanos);
    m.insert("net.call_ms", call_ms);
    let (req_count, req_nanos) = st.all_requests();
    let handle_ms = ratio(req_nanos / 1e6, req_count);
    m.insert(
        "net.transport_ms",
        if n > 0.0 { call_ms - handle_ms } else { 0.0 },
    );
    m.insert(
        "net.bytes_in_per_op",
        ratio(st.counter("net_bytes_in"), st.counter("net_frames_in")),
    );
    m.insert(
        "net.bytes_out_per_op",
        ratio(st.counter("net_bytes_out"), st.counter("net_frames_out")),
    );
    m.insert("net.backpressure", st.counter("net_backpressure"));

    // Server, executor, storage: diffs of the stats plane.
    m.insert(
        "server.handle_ms.query",
        st.hist_mean("req_query_nanos") / 1e6,
    );
    m.insert(
        "server.handle_ms.append_batch",
        st.hist_mean("req_append_batch_nanos") / 1e6,
    );
    m.insert("exec.tasks_per_op", ratio(st.counter("exec_tasks"), ops));
    m.insert(
        "exec.busy_ms_per_op",
        ratio(st.counter("exec_busy_nanos") / 1e6, ops),
    );
    m.insert("exec.task_ms", st.hist_mean("exec_task_nanos") / 1e6);
    m.insert(
        "exec.utilization",
        ratio(
            st.counter("exec_busy_nanos") / 1e9,
            st.gauge("exec_workers") * secs,
        ),
    );
    m.insert("exec.queue_high_water", st.gauge("exec_queue_high_water"));
    // A scan and an index miss read every doc of the table. The docs a
    // cached probe delta-scans are not counted: the stats plane does
    // not record them (`index_delta_len` counts matches, not docs).
    let full_scans = st.counter("plan_scan_queries") + st.counter("index_probe_misses");
    m.insert(
        "storage.docs_scanned_per_row",
        ratio(full_scans * r.table_docs, rows_read),
    );

    // Index.
    let hits = st.counter("index_probe_hits");
    let probes = hits + st.counter("index_probe_misses");
    m.insert("index.hit_ratio", ratio(hits, probes));
    m.insert("index.delta_len_mean", st.hist_mean("index_delta_len"));
    m.insert("index.probes_per_op", ratio(probes, n_reads));

    // Durable log.
    m.insert(
        "durable.fsyncs_per_write",
        ratio(st.counter("log_syncs"), n_writes),
    );
    m.insert("durable.fsync_ms", st.hist_mean("fsync_nanos") / 1e6);
    m.insert(
        "durable.commit_wait_ms",
        st.hist_mean("commit_wait_nanos") / 1e6,
    );
    m.insert(
        "durable.records_per_sync",
        st.hist_mean("commit_window_records"),
    );

    // Load generator and tracing itself.
    m.insert(
        "loadgen.late_p99_ms",
        quantile(&mut s.late_ms.clone(), 0.99),
    );
    let traced: Vec<f64> = s
        .ops
        .iter()
        .filter(|op| op.kind == primary && op.traced)
        .map(|op| op.ms)
        .collect();
    let untraced = latencies(s, primary, 0.0, all);
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (median(&traced) / median(&untraced) - 1.0) * 100.0
    };
    m.insert("trace.overhead_pct", overhead);
    let split = (sp.request_nanos + sp.call_nanos + sp.response_nanos) as f64;
    m.insert(
        "trace.split_gap_pct",
        ratio(
            (sp.op_nanos as f64 - split).abs() * 100.0,
            sp.op_nanos as f64,
        ),
    );
    m
}

/// Facts about the host and build a result depends on, as `key=value`
/// pairs.
pub fn host_block(seed: u64, seconds: f64, data_root: &std::path::Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), cpu),
        ("rustflags".into(), env!("PERFBENCH_RUSTFLAGS").to_string()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").to_string()),
        ("commit".into(), git_commit()),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), seconds.to_string()),
        ("data_fs".into(), filesystem_of(data_root)),
    ]
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/mounts` (the longest mount point that prefixes it).
fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
