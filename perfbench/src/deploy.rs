//! One deployment of the system under test: a durable `Server` on a
//! fresh data directory, served by the default `NetServer` front-end,
//! reached through a `PooledClient`, all in this process.
//!
//! Only entry points that are the repository's defaults are used
//! (`Server::open_durable`, `NetServer::spawn`, `PooledClient::connect`),
//! so a change to a default is measured without editing the benchmark.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dbph_core::{
    Client, FinalSwpPh, MetricValue, NetServer, PhError, PooledClient, Server, ServerHandle,
    StatsSnapshot,
};
use dbph_crypto::{DeterministicRng, SecretKey};
use dbph_relation::Schema;

use crate::span::SpanTransport;

/// Shards per table: one per core of the 2-vCPU reference host.
pub const SHARDS: usize = 2;
/// Connections in the client pool, one per session.
pub const POOL: usize = 2;

/// A directory under the working directory that is removed with
/// everything in it when dropped.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    /// Creates `.perfbench-data/<label>-<pid>` under the working
    /// directory, emptying any leftover of the same name.
    pub fn create(label: &str) -> std::io::Result<Self> {
        let path = Path::new(".perfbench-data").join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes of the regular files under the directory.
    pub fn bytes(&self) -> std::io::Result<u64> {
        fn walk(p: &Path) -> std::io::Result<u64> {
            let mut total = 0;
            for entry in std::fs::read_dir(p)? {
                let entry = entry?;
                let meta = entry.metadata()?;
                total += if meta.is_dir() {
                    walk(&entry.path())?
                } else {
                    meta.len()
                };
            }
            Ok(total)
        }
        walk(&self.path)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(".perfbench-data");
    }
}

/// A running server and the pool that reaches it. Dropping it stops
/// the front-end and joins its threads, so the data directory can be
/// reopened.
pub struct Deployment {
    pub server: Server,
    pub pool: PooledClient,
    _handle: ServerHandle,
}

impl Deployment {
    /// Opens a durable server on `dir` and serves it on an ephemeral
    /// loopback port. With `index`, the encrypted index is enabled
    /// before any table exists.
    pub fn start(dir: &Path, index: bool) -> Result<Self, PhError> {
        let server = Server::open_durable(dir, SHARDS)?;
        if index {
            server.enable_index();
        }
        let handle = NetServer::spawn(server.clone(), "127.0.0.1:0")?;
        let pool = PooledClient::connect(handle.addr(), POOL)?;
        Ok(Deployment {
            server,
            pool,
            _handle: handle,
        })
    }

    /// A crypto session for `schema`'s table over this deployment's
    /// pool.
    pub fn session(&self, schema: &Schema, key: &SecretKey) -> Client<SpanTransport> {
        let ph = FinalSwpPh::new(schema.clone(), key).expect("Emp schemas fit the default codec");
        Client::new(ph, SpanTransport::new(self.pool.clone()))
    }
}

/// The client's master key, derived from the run's seed.
pub fn master_key(seed: u64) -> SecretKey {
    SecretKey::generate(&mut DeterministicRng::from_seed(seed).child("perfbench-key"))
}

/// A copy of `schema` under another table name; each writer of the
/// ingest workload owns one table, because document ids are chosen by
/// the client and must increase within a table.
pub fn renamed(schema: &Schema, name: &str) -> Schema {
    Schema::new(name, schema.attributes().to_vec()).expect("renamed schema stays valid")
}

/// Differences of the server's stats plane between two snapshots,
/// summed over every deployment of a run.
#[derive(Default)]
pub struct StatsDelta {
    /// Counter differences.
    counters: BTreeMap<String, u64>,
    /// Histogram `(count, sum)` differences.
    hists: BTreeMap<String, (u64, u64)>,
    /// Largest gauge value seen at the end of any deployment.
    gauges: BTreeMap<String, u64>,
}

impl StatsDelta {
    /// Adds the change from `before` to `after`.
    pub fn add(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        for (name, value) in &after.metrics {
            match (value, before.get(name)) {
                (MetricValue::Counter(a), b) => {
                    let b = match b {
                        Some(MetricValue::Counter(b)) => *b,
                        _ => 0,
                    };
                    *self.counters.entry(name.clone()).or_default() += a.saturating_sub(b);
                }
                (MetricValue::Histogram(a), b) => {
                    let (bc, bs) = match b {
                        Some(MetricValue::Histogram(b)) => (b.count, b.sum),
                        _ => (0, 0),
                    };
                    let e = self.hists.entry(name.clone()).or_default();
                    e.0 += a.count.saturating_sub(bc);
                    e.1 += a.sum.saturating_sub(bs);
                }
                (MetricValue::Gauge(a), _) => {
                    let e = self.gauges.entry(name.clone()).or_default();
                    *e = (*e).max(*a);
                }
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0) as f64
    }

    /// `(count, sum)` of a histogram's new samples.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let (c, s) = self.hists.get(name).copied().unwrap_or((0, 0));
        (c as f64, s as f64)
    }

    /// Mean of a histogram's new samples, 0 when it has none.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (c, s) = self.hist(name);
        if c > 0.0 {
            s / c
        } else {
            0.0
        }
    }

    /// `(count, sum)` over every request-kind histogram.
    pub fn all_requests(&self) -> (f64, f64) {
        self.hists
            .iter()
            .filter(|(n, _)| n.starts_with("req_"))
            .fold((0.0, 0.0), |(c, s), (_, &(hc, hs))| {
                (c + hc as f64, s + hs as f64)
            })
    }
}
