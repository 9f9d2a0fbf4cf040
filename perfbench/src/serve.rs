//! The two server workloads. Both boot `qmatch_serve::Server` in-process
//! with one shard worker and drive it from one client thread over one
//! keep-alive connection, in a closed loop.
//!
//! * `serve-resident` — read-only: `POST /v1/match/topk?k=10` over seeded
//!   queries (main) and `POST /v1/match` of a PIR revision against PDB
//!   (side), on an in-memory registry of ~2000 small schemas.
//! * `serve-churn` — write-heavy: `PUT`s of PIR-family schemas (new,
//!   low-drift revisions of resident ones, revisions of evicted ones) and
//!   occasional `DELETE`s (main), each few writes followed by a topk
//!   sourced at the schema just written (side); the registry is logged to
//!   a WAL.
//!
//! Every response is checked against the library: a `ServeState` built
//! from the same configuration, preload and warm-up answers the same op
//! stream through `qmatch_serve::handlers::handle`, and every status and
//! body must be byte-equal. The traced run replays a fixed prefix of the
//! stream through the public `Registry`, `Shard`, `MatchSession` and
//! `Persist` functions with a span around each call; counts of work done
//! inside the server come from its `GET /v1/metrics` counters.

use crate::common::{
    self, ms, percentile, sorted, to_xsd, HostProbe, Report, Rng, Timeline, Tracer,
};
use crate::Args;
use qmatch_core::index::{IndexParams, IndexPolicy};
use qmatch_core::mapping::extract_mapping;
use qmatch_core::trace::{Phase, Recorder};
use qmatch_core::{Algorithm, MatchSession, OwnedPreparedSchema};
use qmatch_datasets::{drift, synth};
use qmatch_serve::handlers::{self, TopkPlan};
use qmatch_serve::http::Request;
use qmatch_serve::json::fmt_f64;
use qmatch_serve::{Metrics, Persist, Registry, ServeState, Server, ServerConfig, ShutdownHandle};
use qmatch_xsd::{parse_schema_with_limits, IngestLimits, SchemaTree};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Resident,
    Churn,
}

/// Per-layer metrics of layers a workload never calls. serve-resident
/// writes nothing: no XSD ingest, no evolution, no WAL. serve-churn runs
/// no `/v1/match`, the only op that selects a mapping.
pub fn idle_layers(mode: Mode) -> &'static [&'static str] {
    match mode {
        Mode::Resident => &[
            "xsd.parse_ms",
            "xsd.compile_ms",
            "xsd.bytes",
            "evolve.diff_ms",
            "evolve.reprepare_ms",
            "evolve.incremental_frac",
            "evolve.closure_frac",
            "persist.append_ms",
            "persist.compactions",
            "persist.wal_bytes",
        ],
        Mode::Churn => &["mapping.select_ms"],
    }
}

/// Small synthetic schemas preloaded into both server workloads.
const REGISTRY: usize = 2000;
/// `k` of every topk query.
const K: usize = 10;
/// Topk sources per run re-ranked exhaustively for the recall check.
const RECALL_SAMPLE: usize = 1;

/// serve-resident: the server's default resident cap (far below the
/// registry size), topk sources per large family, the smallest topk (and
/// recall-check) source, and topk queries per PIR x PDB match.
const RESIDENT_CAP: usize = 64;
const QUERIES_PER_FAMILY: usize = 4;
const QUERY_MIN_NODES: usize = 30;
const TOPKS_PER_MATCH: usize = 12;

/// serve-churn: PIR-family names, how many are live after set-up, the
/// revisions pre-generated per name, and the resident cap: half the live
/// family, so the working set exceeds the cache and some revisions
/// arrive for evicted schemas.
const FAMILY: usize = 32;
const FAMILY_LIVE: usize = 16;
const CHAIN: usize = 12;
const CHURN_CAP: usize = 8;

/// One serve-churn cycle: 20 writes in a seeded order, then one topk.
const WRITE_CYCLE: [WriteKind; 20] = {
    let mut cycle = [WriteKind::Recent; 20];
    cycle[0] = WriteKind::New;
    cycle[1] = WriteKind::New;
    cycle[2] = WriteKind::Oldest;
    cycle[3] = WriteKind::Oldest;
    cycle[4] = WriteKind::Oldest;
    cycle[5] = WriteKind::Delete;
    cycle[6] = WriteKind::Delete;
    cycle
};

#[derive(Clone, Copy)]
enum WriteKind {
    /// A name not registered now: a first registration (cold path).
    New,
    /// A low-drift revision of a recently written name (evolve path).
    Recent,
    /// A revision of the longest-unwritten name (likely evicted: full path).
    Oldest,
    Delete,
}

fn resident_cap(mode: Mode) -> usize {
    match mode {
        Mode::Resident => RESIDENT_CAP,
        Mode::Churn => CHURN_CAP,
    }
}

/// Main-op percentile reported as `main_ms_tail`: a run keeps dozens of
/// samples beyond it, so a few scheduler hiccups in a millisecond-scale
/// op class do not decide it.
fn tail(mode: Mode) -> f64 {
    match mode {
        Mode::Resident => 0.90,
        Mode::Churn => 0.95,
    }
}

/// Latency limit for `goodput_ops_s`, far above the measured tail.
fn limit_ms(mode: Mode) -> f64 {
    match mode {
        Mode::Resident => 400.0,
        Mode::Churn => 100.0,
    }
}

/// The fixed prefix of the op stream every chunk runs before its deadline
/// counts, and after which it reads the server's counters. Counts taken
/// over it repeat exactly at a fixed seed; the traced replay covers the
/// same prefix. Sized to take well under a chunk on a slow host.
fn prefix_ops(mode: Mode) -> usize {
    match mode {
        Mode::Resident => 64,
        Mode::Churn => 210,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Topk(String),
    Match(String, String),
    Put(String, Arc<str>),
    Delete(String),
}

impl Op {
    /// Main ops are timed into `main_ms_*`; deletes are an order of
    /// magnitude cheaper than puts, so they join no percentile.
    fn class(&self, mode: Mode) -> Class {
        match (self, mode) {
            (Op::Topk(_), Mode::Resident) | (Op::Put(..), Mode::Churn) => Class::Main,
            (Op::Delete(_), _) => Class::Unpooled,
            _ => Class::Side,
        }
    }

    /// Method, path, query and body of the op's request.
    fn parts(&self) -> (&'static str, String, Vec<(&'static str, String)>, &[u8]) {
        match self {
            Op::Topk(source) => (
                "POST",
                "/v1/match/topk".to_owned(),
                vec![("source", source.clone()), ("k", K.to_string())],
                b"",
            ),
            Op::Match(s, t) => (
                "POST",
                "/v1/match".to_owned(),
                vec![("source", s.clone()), ("target", t.clone())],
                b"",
            ),
            Op::Put(name, body) => (
                "PUT",
                format!("/v1/schemas/{name}"),
                vec![],
                body.as_bytes(),
            ),
            Op::Delete(name) => ("DELETE", format!("/v1/schemas/{name}"), vec![], b""),
        }
    }

    /// The op as the library's request type, for `handlers::handle`.
    fn request(&self) -> Request {
        let (method, path, query, body) = self.parts();
        Request {
            method: method.to_owned(),
            path,
            query: query.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            headers: Vec::new(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn key(&self) -> String {
        match self {
            Op::Topk(s) => format!("topk {s}"),
            Op::Match(s, t) => format!("match {s} {t}"),
            Op::Put(n, _) => format!("put {n}"),
            Op::Delete(n) => format!("delete {n}"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Main,
    Side,
    Unpooled,
}

/// Everything generated from the seed: the preload and the op stream.
struct Inputs {
    preload: Vec<(String, Arc<str>)>,
    warmup: Vec<Op>,
    stream: Vec<Op>,
}

fn resident_inputs(seed: u64) -> Inputs {
    let registry = drift::synthetic_registry(REGISTRY, seed);
    let mut preload: Vec<(String, Arc<str>)> = registry
        .iter()
        .map(|(name, tree)| (name.clone(), Arc::from(to_xsd(tree))))
        .collect();
    let mut rng = Rng::new(seed);
    preload.push((
        "pdb".to_owned(),
        Arc::from(synth::protein_corpus().pdb_xsd.as_str()),
    ));
    let revision = &drift::mutation_chain(synth::pir(), 1, 0.15, rng.next_u64())[0];
    preload.push(("pir-rev".to_owned(), Arc::from(to_xsd(revision))));
    let side = Op::Match("pir-rev".to_owned(), "pdb".to_owned());
    // Topk sources come from the large families (the DCMD-derived ones,
    // 30-60 nodes), so the main op's cost varies within a few times, not
    // the 80x between the smallest and largest registry members; and
    // every large family contributes the same number of sources, so each
    // seed draws the same mix.
    let mut by_family: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, (_, tree)) in registry.iter().enumerate() {
        if tree.len() >= QUERY_MIN_NODES {
            by_family.entry(i % drift::BASE_COUNT).or_default().push(i);
        }
    }
    let mut queries: Vec<String> = Vec::new();
    for members in by_family
        .values_mut()
        .filter(|m| m.len() >= QUERIES_PER_FAMILY)
    {
        rng.shuffle(members);
        queries.extend(
            members[..QUERIES_PER_FAMILY]
                .iter()
                .map(|&i| preload[i].0.clone()),
        );
    }
    let queries_len = queries.len();
    // Every distinct op once, in order: the warm-up pass.
    let mut warmup: Vec<Op> = queries.iter().map(|q| Op::Topk(q.clone())).collect();
    warmup.push(side.clone());
    // Long enough for any run length this benchmark uses.
    let mut stream = Vec::new();
    let mut order = queries.clone();
    for cycle in 0..4000 {
        if cycle % queries_len == 0 {
            rng.shuffle(&mut order);
        }
        stream.push(Op::Topk(order[cycle % queries_len].clone()));
        if cycle % TOPKS_PER_MATCH == TOPKS_PER_MATCH - 1 {
            stream.push(side.clone());
        }
    }
    Inputs {
        preload,
        warmup,
        stream,
    }
}

fn churn_inputs(seed: u64) -> Inputs {
    let mut preload: Vec<(String, Arc<str>)> = drift::synthetic_registry(REGISTRY, seed)
        .iter()
        .map(|(name, tree)| (name.clone(), Arc::from(to_xsd(tree))))
        .collect();
    let mut rng = Rng::new(seed);
    // Per family name: a drifted PIR base, then a low-drift revision chain.
    // Drift levels are fixed per name (5-30 % for the base, 2-5 % per
    // revision), interleaved so the names live after set-up span them
    // all; the seed picks the mutations. Every seed thus times the same
    // mix of drift.
    let chains: Vec<Vec<Arc<str>>> = (0..FAMILY)
        .map(|j| {
            let level = (j % 2) * (FAMILY / 2) + j / 2;
            let intensity = 0.05 + 0.25 * level as f64 / (FAMILY - 1) as f64;
            let base = drift::mutation_chain(synth::pir(), 1, intensity, rng.next_u64()).remove(0);
            let step = 0.02 + 0.03 * (j % 4) as f64 / 3.0;
            let mut chain = vec![Arc::from(to_xsd(&base))];
            chain.extend(
                drift::mutation_chain(&base, CHAIN - 1, step, rng.next_u64())
                    .iter()
                    .map(|t| Arc::from(to_xsd(t))),
            );
            chain
        })
        .collect();
    let name = |j: usize| format!("pir-{j:03}");
    let mut version = vec![0usize; FAMILY];
    // Live family names, most recently written last.
    let mut recency: Vec<usize> = (0..FAMILY_LIVE).collect();
    for &j in &recency {
        preload.push((name(j), chains[j][0].clone()));
    }
    let put = |j: usize, version: &mut Vec<usize>| {
        version[j] = (version[j] + 1) % CHAIN;
        Op::Put(name(j), chains[j][version[j]].clone())
    };
    // Every cycle holds the same mix of writes in a seeded order, so each
    // seed times the same share of cold, evolve and full paths.
    let mut stream = Vec::new();
    for _ in 0..300 {
        let mut kinds = WRITE_CYCLE;
        rng.shuffle(&mut kinds);
        let mut last_put = None;
        for kind in kinds {
            let live = recency.len();
            let op = match kind {
                WriteKind::New => {
                    let dead: Vec<usize> = (0..FAMILY).filter(|j| !recency.contains(j)).collect();
                    let j = dead[rng.below(dead.len())];
                    recency.push(j);
                    put(j, &mut version)
                }
                WriteKind::Recent => {
                    let j = recency.remove(live - 1 - rng.below(3));
                    recency.push(j);
                    put(j, &mut version)
                }
                WriteKind::Oldest => {
                    let j = recency.remove(0);
                    recency.push(j);
                    put(j, &mut version)
                }
                WriteKind::Delete => Op::Delete(name(recency.remove(rng.below(live - 4)))),
            };
            if let Op::Put(n, _) = &op {
                last_put = Some(n.clone());
            }
            stream.push(op);
        }
        stream.push(Op::Topk(last_put.expect("every cycle writes")));
    }
    // Warm-up: a topk from every live family member.
    let warmup = (0..FAMILY_LIVE).map(|j| Op::Topk(name(j))).collect();
    Inputs {
        preload,
        warmup,
        stream,
    }
}

/// One keep-alive HTTP/1.1 connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, op: &Op) -> (u16, Vec<u8>) {
        let (method, path, query, body) = op.parts();
        let query: Vec<String> = query.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let target = if query.is_empty() {
            path
        } else {
            format!("{path}?{}", query.join("&"))
        };
        self.request(method, &target, body)
    }

    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes()).expect("send head");
        self.writer.write_all(body).expect("send body");
        let mut status = 0u16;
        let mut length = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            self.reader.read_line(&mut line).expect("response head");
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some(rest) = l.strip_prefix("HTTP/1.1 ") {
                status = rest[..3].parse().expect("status code");
            } else if let Some(v) = l.strip_prefix("content-length: ") {
                length = v.parse().expect("content length");
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("response body");
        (status, body)
    }

    fn metrics(&mut self) -> Counters {
        let (_, body) = self.request("GET", "/v1/metrics", b"");
        Counters(
            String::from_utf8_lossy(&body)
                .lines()
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_owned(), v.parse().ok()?))
                })
                .collect(),
        )
    }
}

struct Running {
    shutdown: ShutdownHandle,
    thread: JoinHandle<String>,
    client: Client,
}

impl Running {
    fn stop(self) {
        drop(self.client);
        self.shutdown.shutdown();
        self.thread.join().expect("server thread");
    }
}

fn compile(text: &str, limits: &IngestLimits) -> SchemaTree {
    let schema = parse_schema_with_limits(text, limits).expect("generated XSD parses");
    SchemaTree::compile_with_limits(&schema, limits).expect("generated XSD compiles")
}

fn run_dir() -> PathBuf {
    PathBuf::from(".perfbench-run").join(std::process::id().to_string())
}

/// The server's configuration; the library oracle is built from the same.
fn server_config(mode: Mode, data: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 1,
        max_resident: resident_cap(mode),
        data_dir: data,
        // The WAL is written but fsync'd only at compaction: the disk
        // under this benchmark is not the deployment disk.
        fsync_batch: Duration::from_secs(3600),
        ..ServerConfig::default()
    }
}

/// Set-up: generate inputs, boot the server, preload, warm up.
fn boot(args: &Args, mode: Mode, data: Option<PathBuf>) -> (Inputs, Running) {
    let inputs = match mode {
        Mode::Resident => resident_inputs(args.seed),
        Mode::Churn => churn_inputs(args.seed),
    };
    let server = Server::bind(server_config(mode, data)).expect("bind an ephemeral port");
    let limits = IngestLimits::default();
    for (name, text) in &inputs.preload {
        server
            .registry()
            .register(name, compile(text, &limits), text.as_bytes());
    }
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(addr);
    for op in &inputs.warmup {
        let (status, _) = client.send(op);
        assert!(status < 300, "warm-up {} answered {status}", op.key());
    }
    (
        inputs,
        Running {
            shutdown,
            thread,
            client,
        },
    )
}

/// One executed op: what came back. The op is `inputs.stream[i]` for
/// the `i`-th entry of a chunk; its time is the chunk timeline's `i`-th.
struct Done {
    status: u16,
    body: Vec<u8>,
}

/// One timed chunk on one freshly set-up server.
struct Chunk {
    done: Vec<Done>,
    timeline: Timeline,
    /// Server counter deltas over the fixed prefix, and over the chunk.
    prefix: Counters,
    whole: Counters,
}

/// Each run sets up three servers, one after another; each serves one
/// third of the timed phase from the start of the op stream. Spreading
/// the timed work over the whole run samples more of the host's slow and
/// fast periods than one contiguous phase would, and the three set-ups
/// give the median `setup_s`.
const CHUNKS: usize = 3;

fn timed_chunk(
    args: &Args,
    mode: Mode,
    inputs: &Inputs,
    running: &mut Running,
    probe: &HostProbe,
) -> Chunk {
    let prefix_len = prefix_ops(mode).min(inputs.stream.len());
    let before = running.client.metrics();
    let mut at_prefix = None;
    let mut done: Vec<Done> = Vec::new();
    let mut timeline = Timeline::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds as f64 / CHUNKS as f64);
    while (Instant::now() < deadline || done.len() < prefix_len) && done.len() < inputs.stream.len()
    {
        let t0 = Instant::now();
        let (status, body) = running.client.send(&inputs.stream[done.len()]);
        timeline.push(probe, ms(t0));
        done.push(Done { status, body });
        if done.len() == prefix_len {
            at_prefix = Some(running.client.metrics());
        }
    }
    timeline.finish(probe);
    let after = running.client.metrics();
    Chunk {
        done,
        timeline,
        prefix: at_prefix
            .expect("every chunk runs the prefix")
            .minus(&before),
        whole: after.minus(&before),
    }
}

pub fn run(args: &Args, mode: Mode) -> Report {
    let mut report = Report::default();
    let run_start = Instant::now();
    let mut calib = vec![common::calib_ms()];
    let _ = std::fs::remove_dir_all(run_dir());
    let mut setups = Vec::new();
    let mut chunks = Vec::new();
    let mut inputs = None;
    let probe = HostProbe::new();
    for rep in 0..CHUNKS {
        let data = (mode == Mode::Churn).then(|| run_dir().join(format!("server-{rep}")));
        let before = probe.sample();
        let t0 = Instant::now();
        let (generated, mut running) = boot(args, mode, data);
        let raw = t0.elapsed().as_secs_f64();
        setups.push((raw, HostProbe::adjust(raw, before, probe.sample())));
        chunks.push(timed_chunk(args, mode, &generated, &mut running, &probe));
        running.stop();
        calib.push(common::calib_ms());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set up at least once");
    let rss = common::peak_rss_mib();
    let served_s = run_start.elapsed().as_secs_f64();

    // Verification: the library, fed the same preload and warm-up, must
    // answer byte-equal statuses and bodies for the same registry state.
    // Every chunk starts from the same state and plays a prefix of the
    // same stream, so the i-th response of every chunk has one reference.
    // Read-only bodies do not depend on the LRU state, and the warm-up
    // holds every distinct read op once: its answers are the references.
    // The write workload replays the longest chunk's ops.
    let longest = chunks.iter().map(|c| c.done.len()).max().unwrap_or(0);
    let mut oracle = Oracle::new(mode, &inputs, "check");
    let references: HashMap<String, (u16, Vec<u8>)> = inputs
        .warmup
        .iter()
        .map(Op::key)
        .zip(std::mem::take(&mut oracle.warm_outputs))
        .collect();
    let replay = match mode {
        Mode::Resident if args.trace => prefix_ops(mode).min(longest),
        Mode::Resident => 0,
        Mode::Churn => longest,
    };
    let mut lib_ms = Vec::new();
    let mut ok: Vec<Vec<bool>> = chunks.iter().map(|c| vec![true; c.done.len()]).collect();
    for (i, op) in inputs.stream[..longest].iter().enumerate() {
        let (status, body) = if i < replay {
            let t0 = Instant::now();
            let out = oracle.handle(op);
            if i < prefix_ops(mode) && op.class(mode) == Class::Main {
                lib_ms.push(ms(t0));
            }
            out
        } else {
            references[&op.key()].clone()
        };
        for (c, chunk) in chunks.iter().enumerate() {
            let Some(d) = chunk.done.get(i) else { continue };
            if status != d.status || body != d.body {
                ok[c][i] = false;
                report.fail(format!(
                    "{}: server answered {} {:?}, library {status} {:?}",
                    op.key(),
                    d.status,
                    String::from_utf8_lossy(&d.body[..d.body.len().min(160)]),
                    String::from_utf8_lossy(&body[..body.len().min(160)])
                ));
            }
        }
    }
    // Recall: seeded topk sources rank exactly as the exhaustive (index
    // off) ranking of the same registry state does. The sources are drawn
    // from the large synthetic families: an exhaustive ranking from a
    // PIR-sized source would cost more than the timed phase.
    let replayed_s = run_start.elapsed().as_secs_f64();
    let mut rng = Rng::new(args.seed ^ 0xEC);
    let sources: Vec<String> = oracle
        .state
        .registry
        .list()
        .into_iter()
        .filter(|info| info.name.starts_with("synth-") && info.nodes >= QUERY_MIN_NODES)
        .map(|info| info.name)
        .collect();
    for _ in 0..RECALL_SAMPLE.min(sources.len()) {
        let source = &sources[rng.below(sources.len())];
        let ranked = |index: &str| {
            let mut req = Op::Topk(source.clone()).request();
            req.query.push(("index".to_owned(), index.to_owned()));
            let (_, response) = handlers::handle(&req, &oracle.state);
            let body = String::from_utf8_lossy(&response.body).into_owned();
            body.split_once("\"ranking\"").map(|(_, r)| r.to_owned())
        };
        let (indexed, exhaustive) = (ranked("auto"), ranked("off"));
        if indexed.is_none() || indexed != exhaustive {
            report.fail(format!(
                "topk {source}: indexed ranking differs from the exhaustive top {K}"
            ));
        }
    }
    eprintln!(
        "# phases: servers {served_s:.1} s, library check {:.1} s, recall {:.1} s",
        replayed_s - served_s,
        run_start.elapsed().as_secs_f64() - replayed_s
    );
    drop(oracle);
    calib.push(common::calib_ms());

    // End-to-end metrics, over every chunk, at the reference host speed.
    let (mut main, mut side, mut raw_main, mut raw_side) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut good, mut busy_ms, mut probes) = (0u64, 0.0, Vec::new());
    for (chunk, ok) in chunks.iter().zip(&ok) {
        let adjusted = chunk.timeline.adjusted();
        probes.extend_from_slice(chunk.timeline.samples());
        for (i, op) in inputs.stream[..chunk.done.len()].iter().enumerate() {
            report.attempted += 1;
            let (ms, raw) = (adjusted[i], chunk.timeline.raw()[i]);
            busy_ms += ms;
            match op.class(mode) {
                Class::Main => {
                    main.push(ms);
                    raw_main.push(raw);
                    good += u64::from(ok[i] && ms <= limit_ms(mode));
                }
                Class::Side => {
                    side.push(ms);
                    raw_side.push(raw);
                }
                Class::Unpooled => {}
            }
        }
    }
    let (main, side) = (sorted(main), sorted(side));
    let (tail_ms, beyond) = percentile(&main, tail(mode));
    eprintln!(
        "# {}: {} main, {} side ops; main_ms_tail = p{} with {beyond} samples beyond",
        args.workload,
        main.len(),
        side.len(),
        tail(mode) * 100.0
    );
    let setup =
        |pick: fn(&(f64, f64)) -> f64| common::median(&setups.iter().map(pick).collect::<Vec<_>>());
    report.set("setup_s", setup(|s| s.1), "s");
    report.set(
        "ok_frac",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
        "frac",
    );
    report.set("peak_rss_mib", rss, "MiB");
    report.set("main_ms_p50", percentile(&main, 0.5).0, "ms");
    report.set("main_ms_tail", tail_ms, "ms");
    report.set("side_ms_p50", percentile(&side, 0.5).0, "ms");
    report.set("goodput_ops_s", good as f64 / (busy_ms / 1e3), "1/s");
    eprintln!(
        "{}",
        common::raw_line(
            setup(|s| s.0),
            &sorted(raw_main),
            tail(mode),
            &sorted(raw_side),
            &probes
        )
    );

    if args.trace {
        // The same ops both ways: the prefix's main ops.
        let lib_p50 = common::median(&lib_ms);
        let http_prefix: Vec<f64> = chunks
            .iter()
            .flat_map(|c| {
                inputs
                    .stream
                    .iter()
                    .zip(c.timeline.raw())
                    .take(prefix_ops(mode))
            })
            .filter(|(op, _)| op.class(mode) == Class::Main)
            .map(|(_, ms)| *ms)
            .collect();
        let http_p50 = common::median(&http_prefix);
        traced(
            args,
            mode,
            &inputs,
            &chunks,
            (http_p50, lib_p50),
            &mut report,
        );
        calib.push(common::calib_ms());
        report.set("host.calib_ms", common::median(&calib), "ms");
    }
    let _ = std::fs::remove_dir_all(run_dir());
    let _ = std::fs::remove_dir(".perfbench-run");
    println!("{}", common::host_line(1, &calib));
    report
}

/// Deltas or readings of the server's own counters.
struct Counters(BTreeMap<String, f64>);

impl Counters {
    fn minus(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// The server counters the traced run reports counts from, read over
/// each chunk's fixed prefix.
const PREFIX_COUNTERS: [&str; 8] = [
    "qmatch_label_cache_hits_total",
    "qmatch_label_cache_misses_total",
    "qmatch_prepare_hits_total",
    "qmatch_prepare_misses_total",
    "qmatch_index_candidates",
    "qmatch_evolve_incremental_total",
    "qmatch_evolve_full_total",
    "qmatch_wal_bytes_total",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The library side of the check: a `ServeState` with the server's
/// configuration (one shard, the same resident cap, a WAL of its own for
/// serve-churn) that has seen the same preload and warm-up. The shard
/// session reports its phases to `phases`.
struct Oracle {
    state: ServeState,
    phases: Arc<Recorder>,
    /// What the warm-up ops answered, in order.
    warm_outputs: Vec<(u16, Vec<u8>)>,
}

impl Oracle {
    fn new(mode: Mode, inputs: &Inputs, tag: &str) -> Oracle {
        let config = server_config(mode, None);
        let phases = Arc::new(Recorder::with_capacity(1));
        let mut session = MatchSession::new(config.config);
        session.set_trace_sink(phases.clone());
        let persist = (mode == Mode::Churn).then(|| {
            let dir = run_dir().join(format!("library-{tag}"));
            let _ = std::fs::remove_dir_all(&dir);
            Persist::open_with(&dir, config.snapshot_bytes, config.fsync_batch)
                .expect("open the library WAL")
                .0
        });
        let state = ServeState {
            registry: Registry::single(session, config.max_resident),
            metrics: Arc::new(Metrics::new()),
            limits: config.limits,
            persist,
        };
        for (name, text) in &inputs.preload {
            state
                .registry
                .register(name, compile(text, &state.limits), text.as_bytes());
        }
        let mut oracle = Oracle {
            state,
            phases,
            warm_outputs: Vec::new(),
        };
        oracle.warm_outputs = inputs.warmup.iter().map(|op| oracle.handle(op)).collect();
        oracle
    }

    fn handle(&self, op: &Op) -> (u16, Vec<u8>) {
        let (_, response) = handlers::handle(&op.request(), &self.state);
        (response.status, response.body)
    }
}

/// What the traced replay expects the server to have answered: the
/// status, and either the whole body or fields of it.
struct Expect {
    status: u16,
    body: Option<Vec<u8>>,
    fields: Vec<String>,
}

impl Expect {
    fn matches(&self, status: u16, body: &[u8]) -> bool {
        let text = String::from_utf8_lossy(body);
        status == self.status
            && self.body.as_deref().is_none_or(|b| b == body)
            && self.fields.iter().all(|f| text.contains(f.as_str()))
    }
}

/// The traced replay: a fresh [`Oracle`] state driven op by op through
/// the public `Registry`, `Shard`, `MatchSession` and `Persist` functions,
/// with a span around every call. Work a call does inside the shard
/// (re-prepares, tree diffs, incremental re-prepares, label builds) shows
/// as child spans timed by the session's own phase spans.
struct Replay {
    oracle: Oracle,
    mode: Mode,
    tracer: Tracer,
    closure: Vec<f64>,
    cells: u64,
    matches: u64,
    compactions: u64,
}

impl Replay {
    fn phase_us(&self, phase: Phase) -> u64 {
        self.oracle.phases.phase_stats(phase).wall_us
    }

    fn apply(&mut self, op: &Op) -> Expect {
        let root = match op.class(self.mode) {
            Class::Main => "op.main",
            Class::Side => "op.side",
            Class::Unpooled => "op.delete",
        };
        let mut t = std::mem::replace(&mut self.tracer, Tracer::new(false));
        t.next_op();
        let out = t.span(root, |t| match op {
            Op::Topk(source) => self.topk(source, t),
            Op::Match(s, tt) => self.match_pair(s, tt, t),
            Op::Put(name, body) => self.put(name, body, t),
            Op::Delete(name) => self.delete(name, t),
        });
        self.tracer = t;
        out
    }

    /// `Registry::prepared`, with the re-prepare of an evicted schema as a
    /// `session.prepare` child.
    fn prepared(&self, name: &str, t: &mut Tracer) -> Arc<OwnedPreparedSchema> {
        t.span("shard.prepared", |t| {
            let before = self.phase_us(Phase::Prepare);
            let prepared = self.oracle.state.registry.prepared(name);
            t.inner(
                "session.prepare",
                (self.phase_us(Phase::Prepare) - before) * 1000,
            );
            prepared.expect("the op stream names registered schemas")
        })
    }

    /// `MatchSession::run(Hybrid)`, with its label-matrix build as a
    /// `lexicon.label` child.
    fn hybrid(
        &mut self,
        source: &OwnedPreparedSchema,
        target: &OwnedPreparedSchema,
        t: &mut Tracer,
    ) -> qmatch_core::MatchOutcome {
        let (sp, tp) = (source.prepared(), target.prepared());
        self.cells += (sp.tree().len() * tp.tree().len()) as u64;
        self.matches += 1;
        let this = &*self;
        t.span("hybrid.match", |t| {
            let before = this.phase_us(Phase::Labels);
            let session = this.oracle.state.registry.session();
            let outcome = session
                .run_with_precision(&Algorithm::Hybrid, sp, tp, session.config().precision)
                .expect("hybrid");
            t.inner(
                "lexicon.label",
                (this.phase_us(Phase::Labels) - before) * 1000,
            );
            outcome
        })
    }

    fn topk(&mut self, source: &str, t: &mut Tracer) -> Expect {
        let prepared = self.prepared(source, t);
        let registry = &self.oracle.state.registry;
        let session = registry.session();
        let signature = t.span("index.signature", |_| {
            session.signature(prepared.prepared())
        });
        let plan = TopkPlan {
            path: "/v1/match/topk".to_owned(),
            source: source.to_owned(),
            prepared,
            k: K,
            algo: Algorithm::Hybrid,
            precision: session.config().precision,
            policy: IndexPolicy::Auto,
            signature,
        };
        let shard = registry.shard(0).clone();
        let names = if plan.policy.engages(registry.len(), &IndexParams::default()) {
            t.span("index.candidates", |_| shard.candidates(&plan.signature))
        } else {
            shard.names()
        };
        let mut ranking = Vec::new();
        for name in names.into_iter().filter(|n| n != source) {
            let target = self.prepared(&name, t);
            let outcome = self.hybrid(&plan.prepared, &target, t);
            ranking.push((name, outcome.total_qom));
            self.oracle.state.registry.session().recycle(outcome);
        }
        let response = t.span("topk.render", |_| {
            ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranking.truncate(K);
            handlers::topk_render(&plan, ranking)
        });
        Expect {
            status: response.status,
            body: Some(response.body),
            fields: Vec::new(),
        }
    }

    fn match_pair(&mut self, source: &str, target: &str, t: &mut Tracer) -> Expect {
        let s = self.prepared(source, t);
        let tt = self.prepared(target, t);
        let outcome = self.hybrid(&s, &tt, t);
        let session = self.oracle.state.registry.session();
        let threshold = session.config().weights.acceptance_threshold();
        let mapping = t.span("mapping.select", |_| {
            extract_mapping(&outcome.matrix, threshold)
        });
        Expect {
            status: 200,
            body: None,
            fields: vec![
                format!("\"total_qom\":{},", fmt_f64(outcome.total_qom)),
                format!("\"matches\":{},", mapping.len()),
            ],
        }
    }

    fn put(&mut self, name: &str, body: &str, t: &mut Tracer) -> Expect {
        let limits = &self.oracle.state.limits;
        let schema = t.span("xsd.parse", |_| {
            parse_schema_with_limits(body, limits).expect("PUT body parses")
        });
        let tree = t.span("xsd.compile", |_| {
            SchemaTree::compile_with_limits(&schema, limits).expect("PUT body compiles")
        });
        let this = &*self;
        let (diff0, prepare0) = (
            this.oracle.phases.phase_stats(Phase::Diff),
            this.phase_us(Phase::Prepare),
        );
        let (registered, closure) = t.span("shard.register", |t| {
            let registered = this
                .oracle
                .state
                .registry
                .register(name, tree, body.as_bytes());
            let diff = this.oracle.phases.phase_stats(Phase::Diff);
            let prepare_ns = (this.phase_us(Phase::Prepare) - prepare0) * 1000;
            if diff.count > diff0.count {
                // The evolve path: a tree diff, then an incremental
                // re-prepare of the resident revision.
                t.inner("evolve.diff", (diff.wall_us - diff0.wall_us) * 1000);
                t.inner("evolve.reprepare", prepare_ns);
                let rows = (diff.rows - diff0.rows) as f64;
                let closure = 1.0 - (diff.skipped - diff0.skipped) as f64 / rows;
                (registered, Some(closure))
            } else {
                t.inner("session.prepare", prepare_ns);
                (registered, None)
            }
        });
        self.closure.extend(closure);
        self.log(name, Some(body.as_bytes()), t);
        Expect {
            status: if registered.replaced { 200 } else { 201 },
            body: None,
            fields: vec![format!("\"nodes\":{},", registered.nodes)],
        }
    }

    fn delete(&mut self, name: &str, t: &mut Tracer) -> Expect {
        let registry = &self.oracle.state.registry;
        let removed = t.span("shard.remove", |_| registry.remove(name));
        assert!(removed, "the op stream deletes live names only");
        self.log(name, None, t);
        Expect {
            status: 200,
            body: None,
            fields: vec!["\"deleted\":true".to_owned()],
        }
    }

    /// Logs a registration (`Some(body)`) or a deletion to the WAL and
    /// compacts when it has grown past its threshold — the order the PUT
    /// and DELETE handlers follow.
    fn log(&mut self, name: &str, body: Option<&[u8]>, t: &mut Tracer) {
        let state = &self.oracle.state;
        let Some(persist) = &state.persist else {
            return;
        };
        t.span("persist.append", |_| match body {
            Some(body) => persist.append(name, body),
            None => persist.append_tombstone(name),
        })
        .expect("WAL append");
        if persist.needs_compaction() {
            t.span("persist.compact", |_| {
                persist.compact(|| state.registry.dump())
            })
            .expect("WAL compaction");
            self.compactions += 1;
        }
    }
}

/// The traced run: a fresh library state replays the fixed prefix of the
/// op stream with a span around every library call, and its answers are
/// checked against the server's. Counts come from the server's counters
/// over each chunk's prefix, which must agree across chunks; waits and
/// phase times come from the server's counters over the whole chunks.
fn traced(
    args: &Args,
    mode: Mode,
    inputs: &Inputs,
    chunks: &[Chunk],
    (http_p50, lib_p50): (f64, f64),
    report: &mut Report,
) {
    let n = prefix_ops(mode).min(inputs.stream.len());
    let prefix = &inputs.stream[..n];
    let mut replay = Replay {
        oracle: Oracle::new(mode, inputs, "traced"),
        mode,
        tracer: Tracer::new(true),
        closure: Vec::new(),
        cells: 0,
        matches: 0,
        compactions: 0,
    };
    for (i, op) in prefix.iter().enumerate() {
        let expect = replay.apply(op);
        for chunk in chunks {
            let d = &chunk.done[i];
            if !expect.matches(d.status, &d.body) {
                report.fail(format!("{}: traced library call differs", op.key()));
            }
        }
    }

    // Counts over the prefix, from the server.
    let counts = |c: &Chunk| PREFIX_COUNTERS.map(|key| c.prefix.get(key));
    let first = counts(&chunks[0]);
    if chunks.iter().any(|c| counts(c) != first) {
        report.fail(format!(
            "server counters {PREFIX_COUNTERS:?} over the first {n} ops differ between chunks"
        ));
    }
    let [label_hits, label_misses, prep_hits, prep_misses, candidates, inc, full, wal_bytes] =
        first;
    let mains = prefix
        .iter()
        .filter(|op| op.class(mode) == Class::Main)
        .count();
    let topks = prefix.iter().filter(|op| matches!(op, Op::Topk(_))).count() as f64;
    let server_prefix = &chunks[0].done[..n];
    let ranked: usize = prefix
        .iter()
        .zip(server_prefix)
        .filter(|(op, _)| matches!(op, Op::Topk(_)))
        .map(|(_, d)| {
            String::from_utf8_lossy(&d.body)
                .matches("\"target\":")
                .count()
        })
        .sum();
    let main_bytes: Vec<f64> = prefix
        .iter()
        .zip(server_prefix)
        .filter(|(op, _)| op.class(mode) == Class::Main)
        .map(|(_, d)| d.body.len() as f64)
        .collect();
    let put_bytes: usize = prefix
        .iter()
        .map(|op| match op {
            Op::Put(_, body) => body.len(),
            _ => 0,
        })
        .sum();

    let t = &replay.tracer;
    let p = |names: &[&str]| common::layer_ms(t, names, mains);
    let mains = mains as f64;
    report.set("xsd.parse_ms", p(&["xsd.parse"]), "ms");
    report.set("xsd.compile_ms", p(&["xsd.compile"]), "ms");
    report.set("xsd.bytes", ratio(put_bytes as f64, mains), "bytes");
    report.set("lexicon.label_ms", p(&["lexicon.label"]), "ms");
    report.set("lexicon.comparisons", label_misses / n as f64, "count");
    report.set(
        "lexicon.hit_rate",
        ratio(label_hits, label_hits + label_misses),
        "frac",
    );
    report.set("session.prepare_ms", p(&["session.prepare"]), "ms");
    report.set("hybrid.match_ms", p(&["hybrid.match"]), "ms");
    report.set(
        "hybrid.cells",
        ratio(replay.cells as f64, replay.matches as f64),
        "count",
    );
    report.set("mapping.select_ms", p(&["mapping.select"]), "ms");
    report.set("index.signature_ms", p(&["index.signature"]), "ms");
    report.set("index.candidates_ms", p(&["index.candidates"]), "ms");
    report.set("index.candidates", ratio(candidates, topks), "count");
    report.set(
        "index.useful_frac",
        ratio(ranked as f64, candidates),
        "frac",
    );
    report.set(
        "shard.resident_hit_rate",
        ratio(prep_hits, prep_hits + prep_misses),
        "frac",
    );
    report.set(
        "shard.reprepares_per_query",
        ratio(prep_misses, topks),
        "count",
    );
    report.set("evolve.diff_ms", p(&["evolve.diff"]), "ms");
    report.set("evolve.reprepare_ms", p(&["evolve.reprepare"]), "ms");
    report.set("evolve.incremental_frac", ratio(inc, inc + full), "frac");
    let closure = if replay.closure.is_empty() {
        0.0
    } else {
        common::median(&replay.closure)
    };
    report.set("evolve.closure_frac", closure, "frac");
    report.set("persist.append_ms", p(&["persist.append"]), "ms");
    report.set("persist.compactions", replay.compactions as f64, "count");
    report.set("persist.wal_bytes", wal_bytes, "bytes");
    report.set("serve.overhead_ms", http_p50 - lib_p50, "ms");
    let server = |key: &str| -> f64 { chunks.iter().map(|c| c.whole.get(key)).sum() };
    let wait = ratio(
        server("qmatch_queue_wait_us_sum"),
        server("qmatch_queue_wait_us_count"),
    );
    report.set("serve.queue_wait_ms", wait / 1e3, "ms");
    report.set("serve.response_bytes", common::median(&main_bytes), "bytes");
    let served_mains: usize = chunks
        .iter()
        .map(|c| {
            inputs.stream[..c.done.len()]
                .iter()
                .filter(|op| op.class(mode) == Class::Main)
                .count()
        })
        .sum();
    for (phase, name) in [
        ("labels", "serve.phase.labels_ms"),
        ("hybrid_wave", "serve.phase.hybrid_wave_ms"),
        ("prepare", "serve.phase.prepare_ms"),
        ("alloc", "serve.phase.alloc_ms"),
    ] {
        let us = server(&format!("qmatch_phase_wall_us_sum{{phase=\"{phase}\"}}"));
        report.set(name, ratio(us / 1e3, served_mains as f64), "ms");
    }
    let root = "op.main";
    let walls = t.op_walls();
    let traced_main: Vec<f64> = walls
        .values()
        .filter(|(name, _)| *name == root)
        .map(|(_, w)| *w)
        .collect();
    let traced_p50 = common::median(&traced_main);
    report.set("trace.overhead_ms", traced_p50 - lib_p50, "ms");
    report.set("trace.main_ms_p50", traced_p50, "ms");
    // Self time left in the main op's own span, as a share of its wall.
    let selfs = t.self_times();
    let residual: Vec<f64> = walls
        .iter()
        .filter(|(_, (name, _))| *name == root)
        .map(|(op, (_, wall))| selfs[op].get(root).copied().unwrap_or(0.0) / wall)
        .collect();
    report.set(
        "trace.split_residual_frac",
        common::median(&residual),
        "frac",
    );
    // serve-resident: the lexicon does no cold work once warmed up.
    if mode == Mode::Resident
        && (label_misses != 0.0 || server("qmatch_label_cache_misses_total") != 0.0)
    {
        report.fail("serve-resident: label-cache misses after the warm-up".to_owned());
    }
    let path = crate::out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = replay.tracer.write(&path) {
        eprintln!("# cannot write spans: {e}");
    }
}
