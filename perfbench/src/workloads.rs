//! The three workloads. Each builds its inputs from the seed, sets up
//! (timed as `setup_s`), runs its sessions for the requested time, and
//! checks every result against a plaintext reference.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dbph_core::{Client, FinalSwpPh, PhError, Server};
use dbph_crypto::{DeterministicRng, EntropySource};
use dbph_relation::{Query, Relation, Tuple, Value};
use dbph_workload::{EmployeeGen, Zipf};

use crate::deploy::{master_key, renamed, DataDir, Deployment, StatsDelta, SHARDS};
use crate::report::peak_rss_mb;
use crate::span::{Op, OpKind, Samples, SpanTransport};

/// Rows preloaded by `scan_select` and `mixed_probe`.
const PRELOAD_ROWS: usize = 10_000;
/// Closed-loop sessions of `scan_select` and writers of `ingest`.
const SESSIONS: usize = 2;
/// Rows per `insert_many` batch in `ingest`.
const INGEST_BATCH: usize = 64;
/// Batches each `ingest` writer appends per deployment. Every
/// deployment writes the same amount to a fresh data directory, so the
/// log never reaches the default compaction threshold and each run's
/// state is the same whatever the run length.
const INGEST_BATCHES: usize = 400;
/// Rows each `ingest` writer's table holds before the appends start
/// (encrypted and outsourced in set-up).
const INGEST_BASE_ROWS: usize = 2_000;
/// `mixed_probe` open-loop rates (ops per second) and write batch size.
const PROBE_READ_RATE: f64 = 100.0;
const PROBE_WRITE_RATE: f64 = 50.0;
const PROBE_BATCH: usize = 16;
/// `mixed_probe`'s hot set: point-select names and salary values.
/// Each probe delta-scans the docs appended since its term's last
/// probe, so the hot-set size times the rows written per read sets
/// the reads' server work.
const HOT_NAMES: usize = 48;
const HOT_SALARIES: usize = 16;
/// Zipf exponent over salary values.
const ZIPF_S: f64 = 1.0;
/// In a traced run, tracing alternates on and off in slices of this
/// length, so traced and untraced ops see the same table growth and
/// their medians give the tracing overhead.
const TRACE_SLICE_MS: u128 = 500;

/// What a run is asked to do.
#[derive(Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// How many times set-up is repeated; the median is reported.
    pub setups: usize,
}

/// Everything a workload run measured.
#[derive(Default)]
pub struct RunResult {
    pub samples: Samples,
    pub stats: StatsDelta,
    pub setup_s: Vec<f64>,
    /// Wall time of the measured phases.
    pub measured_s: f64,
    /// Data-directory bytes per stored row, per deployment measured.
    pub disk_bytes_per_row: Vec<f64>,
    /// Mean number of docs in the queried table while reads ran.
    pub table_docs: f64,
    /// Peak resident set (MB) when the measured phases ended, before
    /// the checks that follow them.
    pub peak_rss_mb: f64,
    /// Mismatches found by the checks that run after the measured
    /// phase (ingest recovery).
    pub problems: Vec<String>,
}

impl RunResult {
    /// Every op succeeded with a correct result and every post-run
    /// check passed.
    pub fn correct(&self) -> bool {
        self.samples.failed() == 0 && self.problems.is_empty()
    }
}

fn io(e: std::io::Error) -> PhError {
    PhError::Transport(format!("data directory: {e}"))
}

/// The clock of a measured phase: when it started, and how much
/// measured time came before it (`ingest` measures several
/// deployments back to back).
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    offset_s: f64,
    trace: bool,
}

impl Clock {
    fn new(cfg: &RunConfig, offset_s: f64) -> Self {
        Clock {
            start: Instant::now(),
            offset_s,
            trace: cfg.trace,
        }
    }

    /// Seconds of measured time at `t`.
    fn at(&self, t: Instant) -> f64 {
        self.offset_s + (t - self.start).as_secs_f64()
    }

    /// Whether an op starting at `t` is traced.
    fn traced(&self, t: Instant) -> bool {
        self.trace && ((self.at(t) * 1e3) as u128 / TRACE_SLICE_MS) % 2 == 1
    }
}

fn employees(rows: usize, seed: u64) -> Relation {
    EmployeeGen {
        rows,
        ..EmployeeGen::default()
    }
    .generate(seed)
}

fn salary(t: &Tuple) -> i64 {
    match t.get(2) {
        Some(Value::Int(v)) => *v,
        _ => unreachable!("Emp.salary is an INT"),
    }
}

/// The generator's row number, from its `emp-NNNNNNN` name.
fn row_number(t: &Tuple) -> Option<usize> {
    match t.get(0) {
        Some(Value::Str(s)) => s.strip_prefix("emp-")?.parse().ok(),
        _ => None,
    }
}

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// One read of the query mix: a point select on `name` or a selective
/// select on `salary`.
enum Read {
    Name(usize),
    Salary(i64),
}

impl Read {
    fn query(&self, rows: &[Tuple]) -> Query {
        match self {
            Read::Name(i) => Query::select("name", rows[*i].get(0).expect("name").clone()),
            Read::Salary(v) => Query::select("salary", Value::int(*v)),
        }
    }
}

/// The plaintext reference: the preloaded rows, by row number and by
/// salary.
struct Reference {
    rows: Vec<Tuple>,
    by_salary: BTreeMap<i64, Vec<Tuple>>,
    /// Distinct salaries in a seed-dependent popularity order.
    salaries: Vec<i64>,
    zipf: Zipf,
}

impl Reference {
    fn new(relation: &Relation, rng: &mut DeterministicRng) -> Self {
        let rows = relation.tuples().to_vec();
        let mut by_salary: BTreeMap<i64, Vec<Tuple>> = BTreeMap::new();
        for t in &rows {
            by_salary.entry(salary(t)).or_default().push(t.clone());
        }
        for v in by_salary.values_mut() {
            v.sort();
        }
        let mut salaries: Vec<i64> = by_salary.keys().copied().collect();
        shuffle(&mut salaries, rng);
        let zipf = Zipf::new(salaries.len(), ZIPF_S);
        Reference {
            rows,
            by_salary,
            salaries,
            zipf,
        }
    }

    fn salary_read(&self, rng: &mut DeterministicRng) -> Read {
        Read::Salary(self.salaries[self.zipf.sample(rng)])
    }

    /// Whether `result` is exactly the reference answer.
    fn check(&self, read: &Read, result: &Relation) -> bool {
        let got = sorted(result.tuples().to_vec());
        match read {
            Read::Name(i) => got == [self.rows[*i].clone()],
            Read::Salary(v) => self.by_salary.get(v).is_some_and(|want| *want == got),
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut DeterministicRng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// A deployment together with the directory it lives in. The
/// deployment is declared first so it stops before the directory is
/// removed.
struct Setup {
    dep: Deployment,
    dir: DataDir,
}

impl Setup {
    fn start(label: &str, index: bool) -> Result<Self, PhError> {
        let dir = DataDir::create(label).map_err(io)?;
        let dep = Deployment::start(dir.path(), index)?;
        Ok(Setup { dep, dir })
    }

    fn disk_bytes_per_row(&self, rows: usize) -> Result<f64, PhError> {
        Ok(self.dir.bytes().map_err(io)? as f64 / rows as f64)
    }
}

/// Runs one op of a session and records it. `due` is when an open-loop
/// generator meant to send it (the op's start for a closed loop).
/// `op` returns the number of rows the op read or wrote when it
/// succeeded and its result checked out.
fn timed_op<T>(
    samples: &mut Samples,
    client: &mut Client<SpanTransport>,
    kind: OpKind,
    clock: &Clock,
    due: Instant,
    op: impl FnOnce(&mut Client<SpanTransport>) -> Result<T, PhError>,
    check: impl FnOnce(T) -> Option<usize>,
) {
    let traced = clock.traced(Instant::now());
    client.transport().set_tracing(traced);
    let op_start = Instant::now();
    let result = op(client);
    let op_end = Instant::now();
    let rows = result.ok().and_then(check);
    let span = client.transport().take_span();
    let op = Op {
        kind,
        traced,
        end_s: clock.at(op_end),
        ms: rows.map_or(f64::INFINITY, |_| (op_end - due).as_secs_f64() * 1e3),
        rows: rows.unwrap_or(0),
    };
    samples.record(op, op_start, op_end, span);
}

/// `scan_select`: index off, a preloaded table, two closed-loop
/// sessions alternating point selects on `name` with Zipf-drawn
/// selects on `salary`. Every query is a full trapdoor scan.
pub fn scan_select(cfg: &RunConfig) -> Result<RunResult, PhError> {
    let relation = employees(PRELOAD_ROWS, cfg.seed);
    let mut rng = DeterministicRng::from_seed(cfg.seed).child("scan_select");
    let reference = Reference::new(&relation, &mut rng);
    let key = master_key(cfg.seed);
    let schema = EmployeeGen::schema();

    let mut out = RunResult::default();
    let mut setup = None;
    for i in 0..cfg.setups {
        // The previous set-up is stopped and removed before the next.
        drop(setup.take());
        let t0 = Instant::now();
        let s = Setup::start(&format!("scan_select-{i}"), false)?;
        s.dep.session(&schema, &key).outsource(&relation)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let dep = &setup.dep;

    let before = dep.server.stats_snapshot();
    let clock = Clock::new(cfg, 0.0);
    let deadline = clock.start + Duration::from_secs_f64(cfg.seconds);
    let sessions: Vec<Samples> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let (reference, schema, key, clock) = (&reference, &schema, &key, &clock);
                let mut rng = rng.child(&format!("session-{s}"));
                scope.spawn(move || {
                    let mut client = dep.session(schema, key);
                    let mut samples = Samples::default();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let read = if n.is_multiple_of(2) {
                            Read::Name(rng.below(reference.rows.len() as u64) as usize)
                        } else {
                            reference.salary_read(&mut rng)
                        };
                        n += 1;
                        let query = read.query(&reference.rows);
                        let now = Instant::now();
                        timed_op(
                            &mut samples,
                            &mut client,
                            OpKind::Read,
                            clock,
                            now,
                            |c| c.select(&query),
                            |r| reference.check(&read, &r).then(|| r.len()),
                        );
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    out.measured_s = clock.start.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    out.stats.add(&before, &dep.server.stats_snapshot());
    for s in &sessions {
        out.samples.merge(s);
    }
    out.table_docs = PRELOAD_ROWS as f64;
    out.disk_bytes_per_row
        .push(setup.disk_bytes_per_row(PRELOAD_ROWS)?);
    Ok(out)
}

/// `ingest`: two closed-loop writers, each appending 64-row batches to
/// its own table. Every deployment is then reopened from disk and must
/// hold each acknowledged row exactly once.
pub fn ingest(cfg: &RunConfig) -> Result<RunResult, PhError> {
    let key = master_key(cfg.seed);
    let base = EmployeeGen::schema();
    let schemas: Vec<_> = (0..SESSIONS)
        .map(|w| renamed(&base, &format!("Emp_w{w}")))
        .collect();
    let root = DeterministicRng::from_seed(cfg.seed).child("ingest");
    // Per writer: its base rows, then its stream of appends.
    let rows = |epoch: usize| -> Vec<Vec<Tuple>> {
        (0..SESSIONS)
            .map(|w| {
                let seed = root.child(&format!("epoch-{epoch}-writer-{w}")).next_u64();
                employees(INGEST_BASE_ROWS + INGEST_BATCHES * INGEST_BATCH, seed).into_tuples()
            })
            .collect()
    };
    let mut out = RunResult::default();
    // Each stopped deployment's directory and its writers' acknowledged
    // row counts, checked once every measured phase is over.
    let mut stopped: Vec<(DataDir, Vec<usize>)> = Vec::new();
    // Repeats whole deployments until the measured time is spent, and
    // sets up at least `setups` times.
    while out.measured_s < cfg.seconds || stopped.len() < cfg.setups {
        let rows = rows(stopped.len());
        let t0 = Instant::now();
        let setup = Setup::start(&format!("ingest-{}", stopped.len()), false)?;
        let mut clients = Vec::with_capacity(SESSIONS);
        for (schema, rows) in schemas.iter().zip(&rows) {
            let mut client = setup.dep.session(schema, &key);
            let base = rows[..INGEST_BASE_ROWS].to_vec();
            client.outsource(&Relation::from_tuples(schema.clone(), base)?)?;
            clients.push(client);
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());

        let dep = &setup.dep;
        let before = dep.server.stats_snapshot();
        let clock = Clock::new(cfg, out.measured_s);
        let writers: Vec<(Samples, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(&rows)
                .map(|(mut client, rows)| {
                    let clock = &clock;
                    scope.spawn(move || {
                        let mut samples = Samples::default();
                        let mut acked = 0;
                        for batch in rows[INGEST_BASE_ROWS..].chunks(INGEST_BATCH) {
                            timed_op(
                                &mut samples,
                                &mut client,
                                OpKind::Write,
                                clock,
                                Instant::now(),
                                |c| c.insert_many(batch),
                                |()| Some(batch.len()),
                            );
                            if !samples.ops.last().is_some_and(Op::failed) {
                                acked += batch.len();
                            }
                        }
                        (samples, acked)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect()
        });
        out.measured_s += clock.start.elapsed().as_secs_f64();
        out.stats.add(&before, &dep.server.stats_snapshot());
        for (s, _) in &writers {
            out.samples.merge(s);
        }
        let Setup { dep, dir } = setup;
        drop(dep);
        let acked: Vec<usize> = writers.iter().map(|(_, acked)| *acked).collect();
        let stored = acked.iter().map(|a| INGEST_BASE_ROWS + a).sum::<usize>();
        out.disk_bytes_per_row
            .push(dir.bytes().map_err(io)? as f64 / stored as f64);
        stopped.push((dir, acked));
    }
    out.peak_rss_mb = peak_rss_mb();

    // Recovery check: reopen each directory and compare each table
    // with its base and the rows its writer had acknowledged.
    for (epoch, (dir, acked)) in stopped.into_iter().enumerate() {
        let rows = rows(epoch);
        let reopened = Server::open_durable(dir.path(), SHARDS)?;
        // One table per thread: decrypting every stored row is most of
        // a run's unmeasured time.
        let intact: Vec<bool> = std::thread::scope(|scope| {
            let checks: Vec<_> = schemas
                .iter()
                .zip(&rows)
                .zip(&acked)
                .map(|((schema, rows), acked)| {
                    let (key, reopened) = (&key, &reopened);
                    scope.spawn(move || -> Result<bool, PhError> {
                        let ph = FinalSwpPh::new(schema.clone(), key)?;
                        let stored = Client::new(ph, reopened.clone()).fetch_all()?;
                        let want = sorted(rows[..INGEST_BASE_ROWS + acked].to_vec());
                        Ok(sorted(stored.into_tuples()) == want)
                    })
                })
                .collect();
            checks
                .into_iter()
                .map(|c| c.join().expect("check thread panicked"))
                .collect::<Result<_, _>>()
        })?;
        for (schema, ok) in schemas.iter().zip(intact) {
            if !ok {
                out.problems.push(format!(
                    "ingest: deployment {epoch}: table {} after reopen differs from its base \
                     and acknowledged rows",
                    schema.name()
                ));
            }
        }
    }
    Ok(out)
}

/// Progress of the `mixed_probe` writer's stream, shared with the
/// reader: rows sent so far and rows acknowledged so far, both as
/// prefixes of the stream.
#[derive(Default)]
struct StreamProgress {
    issued: AtomicUsize,
    acked: AtomicUsize,
}

/// The `mixed_probe` reference: the preload as in `scan_select`, plus
/// the writer's stream, so a read may return any streamed row that
/// matches and was sent before the read ended, and must return every
/// one acknowledged before the read began.
struct ProbeReference {
    preload: Reference,
    stream: Vec<Tuple>,
    /// Stream positions of each salary, ascending.
    stream_by_salary: BTreeMap<i64, Vec<usize>>,
}

impl ProbeReference {
    fn check(&self, read: &Read, result: &Relation, acked: usize, issued: usize) -> bool {
        let Read::Salary(v) = read else {
            // Streamed names are new, so a point select on a preloaded
            // name never sees the stream.
            return self.preload.check(read, result);
        };
        let preload_rows = self.preload.rows.len();
        let mut seen = HashSet::new();
        let mut required = 0;
        for t in result.tuples() {
            let Some(n) = row_number(t) else {
                return false;
            };
            let expected = if n < preload_rows {
                required += 1;
                &self.preload.rows[n]
            } else {
                let pos = n - preload_rows;
                if pos >= issued.min(self.stream.len()) {
                    return false;
                }
                required += usize::from(pos < acked);
                &self.stream[pos]
            };
            if t != expected || salary(t) != *v || !seen.insert(n) {
                return false;
            }
        }
        let want_preload = self.preload.by_salary.get(v).map_or(0, Vec::len);
        let want_stream = self
            .stream_by_salary
            .get(v)
            .map_or(0, |p| p.partition_point(|&pos| pos < acked));
        required == want_preload + want_stream
    }
}

/// An open-loop schedule: op `i` is due at `start + i / rate`.
fn due_times(start: Instant, deadline: Instant, rate: f64) -> impl Iterator<Item = Instant> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    (0u32..)
        .map(move |i| start + interval * i)
        .take_while(move |&due| due < deadline)
}

/// Sleeps until `due` and returns how late the send is.
fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

/// `mixed_probe`: index on and warmed on a hot set, one open-loop
/// reader against one open-loop writer appending to the same table.
pub fn mixed_probe(cfg: &RunConfig) -> Result<RunResult, PhError> {
    let stream_rows = (cfg.seconds * PROBE_WRITE_RATE).ceil() as usize * PROBE_BATCH + PROBE_BATCH;
    let all = employees(PRELOAD_ROWS + stream_rows, cfg.seed);
    let preload =
        Relation::from_tuples(EmployeeGen::schema(), all.tuples()[..PRELOAD_ROWS].to_vec())?;
    let stream = all.tuples()[PRELOAD_ROWS..].to_vec();
    let mut rng = DeterministicRng::from_seed(cfg.seed).child("mixed_probe");
    let mut stream_by_salary: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (pos, t) in stream.iter().enumerate() {
        stream_by_salary.entry(salary(t)).or_default().push(pos);
    }
    let reference = ProbeReference {
        preload: Reference::new(&preload, &mut rng),
        stream,
        stream_by_salary,
    };
    let mut hot_names: Vec<usize> = (0..PRELOAD_ROWS).collect();
    shuffle(&mut hot_names, &mut rng);
    hot_names.truncate(HOT_NAMES);
    let mut hot: Vec<Read> = hot_names
        .iter()
        .map(|&i| Read::Name(i))
        .chain(
            reference.preload.salaries[..HOT_SALARIES]
                .iter()
                .map(|&v| Read::Salary(v)),
        )
        .collect();
    // The reader cycles through the hot set in a seeded order, so every
    // term is probed once per cycle and each probe's delta (the docs
    // appended since the term's last probe) has the same length: the
    // read tail then shows the system's stalls, not the luck of the
    // draw.
    shuffle(&mut hot, &mut rng);
    let key = master_key(cfg.seed);
    let schema = EmployeeGen::schema();

    let mut out = RunResult::default();
    let mut setup = None;
    for i in 0..cfg.setups {
        drop(setup.take());
        let t0 = Instant::now();
        let s = Setup::start(&format!("mixed_probe-{i}"), true)?;
        let mut writer = s.dep.session(&schema, &key);
        writer.outsource(&preload)?;
        // Index misses scan on the caller's thread, so the warm-up
        // belongs to set-up, not to the measured reads.
        for read in &hot {
            let result = writer.select(&read.query(&reference.preload.rows))?;
            if !reference.preload.check(read, &result) {
                out.problems
                    .push("mixed_probe: warm-up read differs from the reference".into());
            }
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some((s, writer));
    }
    let (setup, writer) = setup.expect("at least one set-up");
    let dep = &setup.dep;

    let progress = StreamProgress::default();
    let before = dep.server.stats_snapshot();
    let clock = Clock::new(cfg, 0.0);
    let (start, deadline) = (
        clock.start,
        clock.start + Duration::from_secs_f64(cfg.seconds),
    );
    let (reads, writes) = std::thread::scope(|scope| {
        let (progress, reference, hot, clock) = (&progress, &reference, &hot, &clock);
        let reader = {
            let (schema, key) = (&schema, &key);
            scope.spawn(move || {
                let mut client = dep.session(schema, key);
                let mut samples = Samples::default();
                let cycle = due_times(start, deadline, PROBE_READ_RATE).zip(hot.iter().cycle());
                for (due, read) in cycle {
                    let query = read.query(&reference.preload.rows);
                    samples.late_ms.push(wait_until(due).as_secs_f64() * 1e3);
                    let acked = progress.acked.load(Ordering::SeqCst);
                    timed_op(
                        &mut samples,
                        &mut client,
                        OpKind::Read,
                        clock,
                        due,
                        |c| c.select(&query),
                        |r| {
                            let issued = progress.issued.load(Ordering::SeqCst);
                            reference.check(read, &r, acked, issued).then(|| r.len())
                        },
                    );
                }
                samples
            })
        };
        let writer = scope.spawn(move || {
            let mut client = writer;
            let mut samples = Samples::default();
            let batches = reference.stream.chunks(PROBE_BATCH);
            for (due, batch) in due_times(start, deadline, PROBE_WRITE_RATE).zip(batches) {
                samples.late_ms.push(wait_until(due).as_secs_f64() * 1e3);
                let sent = progress.issued.load(Ordering::SeqCst) + batch.len();
                progress.issued.store(sent, Ordering::SeqCst);
                timed_op(
                    &mut samples,
                    &mut client,
                    OpKind::Write,
                    clock,
                    due,
                    |c| c.insert_many(batch),
                    |()| Some(batch.len()),
                );
                if !samples.ops.last().is_some_and(Op::failed) {
                    progress.acked.store(sent, Ordering::SeqCst);
                }
            }
            samples
        });
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    out.measured_s = clock.start.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    out.stats.add(&before, &dep.server.stats_snapshot());
    out.samples.merge(&reads);
    out.samples.merge(&writes);
    let acked = progress.acked.load(Ordering::SeqCst);
    out.table_docs = PRELOAD_ROWS as f64 + acked as f64 / 2.0;
    out.disk_bytes_per_row
        .push(setup.disk_bytes_per_row(PRELOAD_ROWS + acked)?);
    Ok(out)
}
