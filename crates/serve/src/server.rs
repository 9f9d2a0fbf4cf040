//! Server assembly: bind, shard construction, durability replay, and the
//! reactor + worker-pool lifecycle.
//!
//! The serving topology is one epoll reactor thread (`reactor::run`)
//! owning every socket, plus one worker thread per registry shard
//! (`qmatch-shard-{i}`, running [`crate::shard::run_worker`]) executing
//! queued match work. [`Server::bind`] builds the shard-per-core registry
//! — each shard gets its own [`MatchSession`] wired into the phase
//! metrics — and, when `data_dir` is set, opens the WAL/snapshot store
//! and replays it so a restart comes back with every schema that was
//! `PUT` before the crash.
//!
//! Shutdown has two triggers — [`ShutdownHandle::shutdown`] (tests and
//! embedders) and a delivered `SIGINT`/`SIGTERM` (registered by
//! [`install_signal_handlers`], used by `qmatch serve`). The reactor
//! polls both, stops accepting, drains in-flight work, and returns; the
//! job channels close and the workers exit.

use crate::handlers::ServeState;
use crate::metrics::{Metrics, PhaseSink};
use crate::persist::Persist;
use crate::reactor::{self, Timing, WakeFd};
use crate::registry::Registry;
use crate::shard::{run_worker, Completion, CompletionSender, Job};
use qmatch_core::model::MatchConfig;
use qmatch_core::MatchSession;
use qmatch_lexicon::NameMatcher;
use qmatch_xsd::{parse_schema_with_limits, IngestLimits, SchemaTree};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (port 0 picks an ephemeral
    /// port — used by the tests).
    pub addr: String,
    /// Shard/worker thread count; 0 means the machine's available
    /// parallelism.
    pub threads: usize,
    /// LRU cap on resident prepared schemas, per shard. It bounds the
    /// layouts only (wave schedules, levels, parents, partitions): a shard
    /// keeps the compact id form of every registered schema, and a miss
    /// lays that form out again without interning a label.
    pub max_resident: usize,
    /// Ingestion limits applied to `PUT /schemas/{name}` bodies.
    pub limits: IngestLimits,
    /// Match configuration for every shard session (including the default
    /// matrix precision the `precision=` query parameter overrides).
    pub config: MatchConfig,
    /// Optional custom name matcher (extended thesaurus), cloned per
    /// shard.
    pub matcher: Option<NameMatcher>,
    /// Max queued-or-executing match jobs before requests answer `429`.
    pub queue_depth: usize,
    /// Per-request deadline budget; jobs that expire in the queue answer
    /// `503`.
    pub deadline: Duration,
    /// First byte → complete head budget (kills slow-loris clients).
    pub header_deadline: Duration,
    /// Complete head → complete body budget.
    pub body_deadline: Duration,
    /// Idle budget: accept → first byte, and between keep-alive requests.
    pub idle_deadline: Duration,
    /// Registry durability directory (WAL + snapshots). `None` serves
    /// in-memory only.
    pub data_dir: Option<PathBuf>,
    /// WAL payload size that triggers compaction into a snapshot.
    pub snapshot_bytes: u64,
    /// WAL group-commit window (`--fsync-batch-ms`): zero fsyncs every
    /// accepted write before its response; a positive window fsyncs at
    /// most once per window.
    pub fsync_batch: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8080".to_owned(),
            threads: 0,
            max_resident: 64,
            limits: IngestLimits::default(),
            config: MatchConfig::default(),
            matcher: None,
            queue_depth: 512,
            deadline: Duration::from_secs(30),
            header_deadline: Duration::from_secs(5),
            body_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(10),
            data_dir: None,
            snapshot_bytes: 4 * 1024 * 1024,
            fsync_batch: Duration::ZERO,
        }
    }
}

/// A handle that asks a running [`Server`] to stop accepting and drain.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown (idempotent).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A bound (not yet running) match server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    timing: Timing,
}

impl Server {
    /// Binds the listen socket, builds the sharded registry, and — when
    /// `data_dir` is set — replays the WAL/snapshot store; the server does
    /// not serve until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = Arc::new(Metrics::new());
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            config.threads
        };
        let sessions = (0..threads)
            .map(|_| {
                let mut session = match &config.matcher {
                    Some(matcher) => MatchSession::with_matcher(config.config, matcher.clone()),
                    None => MatchSession::new(config.config),
                };
                // Every pipeline span the session emits (prepares,
                // label-matrix builds, wavefront passes) lands in the
                // qmatch_phase_* series of GET /metrics. Wired before the
                // session is shared, as the sink API requires.
                session.set_trace_sink(Arc::new(PhaseSink::new(metrics.clone())));
                session
            })
            .collect();
        let registry = Registry::new(sessions, config.max_resident);
        let persist = match &config.data_dir {
            Some(dir) => {
                let (persist, replayed) =
                    Persist::open_with(dir, config.snapshot_bytes, config.fsync_batch)?;
                // Re-register every durable schema through the same parse +
                // compile path a PUT takes, so a restarted server serves
                // byte-identical listings and rankings. Bodies that no
                // longer pass the (possibly tightened) limits are skipped,
                // not fatal.
                for (name, body) in &replayed.schemas {
                    let Ok(text) = std::str::from_utf8(body) else {
                        continue;
                    };
                    let tree = parse_schema_with_limits(text, &config.limits).and_then(|schema| {
                        SchemaTree::compile_with_limits(&schema, &config.limits)
                    });
                    if let Ok(tree) = tree {
                        registry.register(name, tree, body);
                    }
                }
                Some(persist)
            }
            None => None,
        };
        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                registry,
                metrics,
                limits: config.limits,
                persist,
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            timing: Timing {
                header: config.header_deadline,
                body: config.body_deadline,
                idle: config.idle_deadline,
                request: config.deadline,
                queue_depth: config.queue_depth,
            },
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The sharded schema registry (embedders may pre-register schemas).
    pub fn registry(&self) -> &Registry {
        &self.state.registry
    }

    /// The shared request counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.state.metrics
    }

    /// A handle that stops the reactor from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(self.shutdown.clone())
    }

    /// Runs until shutdown is requested (via handle or signal), then
    /// drains the shard workers and returns the human-readable activity
    /// summary.
    pub fn run(self) -> std::io::Result<String> {
        let shards = self.state.registry.shard_count();
        let wake = Arc::new(WakeFd::new()?);
        let (done_tx, done_rx) = channel::<Completion>();
        let mut senders = Vec::with_capacity(shards);
        let workers: Vec<_> = (0..shards)
            .map(|i| {
                let (tx, rx) = channel::<Job>();
                senders.push(tx);
                let state = self.state.clone();
                let done = CompletionSender::new(done_tx.clone(), wake.clone());
                std::thread::Builder::new()
                    .name(format!("qmatch-shard-{i}"))
                    .spawn(move || run_worker(&state, i, rx, done))
                    .expect("spawn shard worker")
            })
            .collect();
        drop(done_tx);
        let result = reactor::run(
            self.listener,
            self.state.clone(),
            senders,
            done_rx,
            wake,
            self.shutdown.clone(),
            self.timing,
        );
        // The reactor dropped the job senders on return; each worker's
        // recv() fails and its loop exits.
        for worker in workers {
            let _ = worker.join();
        }
        result?;
        Ok(self.state.metrics.summary(&self.state.registry.snapshot()))
    }
}

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNAL_RECEIVED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only an async-signal-safe atomic store; the serving threads poll.
        SIGNAL_RECEIVED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        // POSIX `signal(2)`; enough for a set-a-flag handler without
        // pulling in a bindings crate.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Registers `SIGINT` and `SIGTERM` to request a graceful shutdown.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Whether a registered signal has been delivered.
    pub fn received() -> bool {
        SIGNAL_RECEIVED.load(Ordering::Relaxed)
    }
}

/// Registers `SIGINT`/`SIGTERM` handlers that request a graceful shutdown
/// (no-op on non-Unix platforms).
pub fn install_signal_handlers() {
    #[cfg(unix)]
    signals::install();
}

/// Whether a shutdown signal has been delivered since
/// [`install_signal_handlers`] (always `false` on non-Unix platforms).
pub fn signal_received() -> bool {
    #[cfg(unix)]
    {
        signals::received()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_picks_an_ephemeral_port_and_shuts_down() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        assert_ne!(addr.port(), 0);
        assert_eq!(server.registry().shard_count(), 2);
        let handle = server.shutdown_handle();
        assert!(!handle.is_shutdown());
        let runner = std::thread::spawn(move || server.run().expect("run"));
        handle.shutdown();
        assert!(handle.is_shutdown());
        let summary = runner.join().expect("server thread");
        assert!(summary.contains("served 0 request(s)"), "{summary}");
    }

    #[test]
    fn default_config_is_sensible() {
        let config = ServerConfig::default();
        assert_eq!(config.addr, "127.0.0.1:8080");
        assert_eq!(config.threads, 0, "0 = auto");
        assert_eq!(config.max_resident, 64);
        assert!(config.matcher.is_none());
        assert_eq!(config.queue_depth, 512);
        assert_eq!(config.deadline, Duration::from_secs(30));
        assert!(config.data_dir.is_none(), "in-memory by default");
        assert_eq!(config.snapshot_bytes, 4 * 1024 * 1024);
        assert!(config.fsync_batch.is_zero(), "per-write durability");
    }
}
