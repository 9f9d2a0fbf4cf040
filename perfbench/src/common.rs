//! Pieces every workload shares: the result record, percentiles, the
//! host probe that puts timings at a reference host speed, the host
//! diagnostics, the span recorder of the traced run, and the tree-to-XSD
//! renderer that turns generated trees into ingestible text.

use qmatch_xsd::{DataType, SchemaTree};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The CPUs the machine offers and the one the process is pinned to, as
/// found before pinning (for the host diagnostics).
pub static CPUS: OnceLock<(usize, Option<usize>)> = OnceLock::new();

/// What one workload run reports: attempted/failed ops and every metric
/// by name with its unit.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, each described once for stderr.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Records a failed output check; the op it belongs to counts as
    /// failed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let (value, unit) = self.metrics[*name];
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile of sorted samples, with the number of samples
/// strictly beyond the chosen rank.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5).0
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one probe sample takes at the reference host speed, in ms.
pub const PROBE_NOMINAL_MS: f64 = 6.0;
/// Least time between two probe samples of a timed phase.
const PROBE_EVERY: Duration = Duration::from_millis(200);

/// A fixed workload of this benchmark's own, timed next to the ops to
/// tell the host's current speed: 200 000 seeded lookups in a hash table
/// of 231 x 231 pair keys, the shape of the label cache a PIR match
/// fills. On the shared VMs this benchmark was built on, the speed of
/// such hash-table work swings up to 2x over seconds to minutes while an
/// integer loop does not move; the probe swings with the ops, and the
/// program under test never runs its code, so a change to the program
/// cannot move it.
pub struct HostProbe {
    table: HashMap<(u32, u32), f64, BuildHasherDefault<DefaultHasher>>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut table = HashMap::default();
        for a in 0..231u32 {
            for b in 0..231u32 {
                table.insert((a, b), f64::from(a * b));
            }
        }
        HostProbe { table }
    }

    /// One probe sample, in ms.
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9u64;
        let mut sum = 0.0;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = ((x % 231) as u32, ((x >> 20) % 231) as u32);
            sum += self.table.get(&key).copied().unwrap_or(0.0);
        }
        std::hint::black_box(sum);
        ms(t0)
    }

    /// A time measured between two probe samples, at the reference host
    /// speed.
    pub fn adjust(raw: f64, before: f64, after: f64) -> f64 {
        raw * PROBE_NOMINAL_MS / ((before + after) / 2.0)
    }
}

/// The op latencies of a timed phase, each set against the probe samples
/// taken right before and right after it. The phase probes the host at
/// most every [`PROBE_EVERY`] between ops (outside every op's timing) and
/// once at its end, so every op has a sample from within a fraction of a
/// second on each side (on the after side only for the first ops).
#[derive(Default)]
pub struct Timeline {
    raw: Vec<f64>,
    sample_of: Vec<usize>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Timeline {
    /// Records one op's wall time, then probes if it is time to.
    pub fn push(&mut self, probe: &HostProbe, ms: f64) {
        self.raw.push(ms);
        self.sample_of.push(self.samples.len());
        if self.last.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.probe(probe);
        }
    }

    fn probe(&mut self, probe: &HostProbe) {
        self.samples.push(probe.sample());
        self.last = Some(Instant::now());
    }

    /// Ends the phase: the ops since the last sample get one.
    pub fn finish(&mut self, probe: &HostProbe) {
        if self.sample_of.last() == Some(&self.samples.len()) {
            self.probe(probe);
        }
    }

    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// Every op's latency at the reference host speed.
    pub fn adjusted(&self) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.sample_of)
            .map(|(ms, &after)| {
                let before = self.samples[after.saturating_sub(1)];
                HostProbe::adjust(*ms, before, self.samples[after])
            })
            .collect()
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The end-to-end timings as measured, before adjustment to the reference
/// host speed, with the probe's median: report-only, on stderr.
pub fn raw_line(setup_s: f64, main: &[f64], tail: f64, side: &[f64], probes: &[f64]) -> String {
    format!(
        "# unadjusted: setup_s={setup_s:.4} main_ms_p50={:.4} main_ms_tail={:.4} side_ms_p50={:.4}; probe_ms median {:.4} of {} samples",
        percentile(main, 0.5).0,
        percentile(main, tail).0,
        percentile(side, 0.5).0,
        median(probes),
        probes.len()
    )
}

/// A fixed integer loop, timed: the host's current speed, so a slow host
/// phase can be told apart from a regression.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    ms(t0)
}

/// Report-only host facts, printed beside every run.
pub fn host_line(shards: usize, calib: &[f64]) -> String {
    let (nproc, pinned) = CPUS.get().copied().unwrap_or((0, None));
    let pinned = pinned.map_or("none".to_owned(), |cpu| cpu.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let calib: Vec<String> = calib.iter().map(|c| format!("{c:.2}")).collect();
    format!(
        "# host nproc={nproc} pinned_cpu={pinned} cpu=\"{cpu}\" library_threads={} shards={shards} host.calib_ms=[{}]",
        qmatch_core::par::num_threads(),
        calib.join(", ")
    )
}

/// One recorded span of the traced run.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    op: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Disabled, it calls straight through and never
/// reads the clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records a child of the open span that ended just now and lasted
    /// `ns`: work a library call timed itself (a phase the session's trace
    /// sink reported), so the open span's self time excludes it. No work,
    /// no span.
    pub fn inner(&mut self, name: &'static str, ns: u64) {
        if !self.enabled || ns == 0 {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: end_ns.saturating_sub(ns),
            end_ns,
        });
    }

    /// Per-op self time (span minus its direct children), summed by span
    /// name: `op id -> name -> ms`.
    pub fn self_times(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6;
            *out.entry(s.op).or_default().entry(s.name).or_default() += own;
        }
        out
    }

    /// Root-span wall time per op, in ms.
    pub fn op_walls(&self) -> BTreeMap<u32, (&'static str, f64)> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.op, (s.name, (s.end_ns - s.start_ns) as f64 / 1e6)))
            .collect()
    }

    /// Writes every span as one JSON line each.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span named in `names`, summed over the whole
/// traced run and divided by the number of main ops: each layer's busy
/// time per main op, so the layers of a run add up to its wall time.
pub fn layer_ms(tracer: &Tracer, names: &[&str], main_ops: usize) -> f64 {
    let total = tracer
        .self_times()
        .values()
        .flat_map(|per| names.iter().filter_map(|n| per.get(n)))
        .fold(0.0, |sum, ms| sum + ms);
    if main_ops == 0 {
        0.0
    } else {
        total / main_ops as f64
    }
}

/// Renders a schema tree as an XSD document (nested anonymous complex
/// types, builtin leaf types), so generated trees enter through the same
/// parse + compile path a user's file does.
pub fn to_xsd(tree: &SchemaTree) -> String {
    let mut out = String::with_capacity(tree.len() * 80);
    out.push_str(
        "<?xml version=\"1.0\"?>\n<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n",
    );
    render(tree, tree.root_id(), &mut out, 1);
    out.push_str("</xs:schema>\n");
    out
}

fn render(tree: &SchemaTree, id: qmatch_xsd::NodeId, out: &mut String, depth: usize) {
    let node = tree.node(id);
    let pad = "  ".repeat(depth);
    if node.children.is_empty() {
        let ty = match &node.properties.data_type {
            DataType::Builtin(b) => b.name(),
            DataType::Complex(_) => "string",
        };
        let _ = writeln!(
            out,
            "{pad}<xs:element name=\"{}\" type=\"xs:{ty}\"/>",
            node.label
        );
    } else {
        let _ = writeln!(out, "{pad}<xs:element name=\"{}\">", node.label);
        let _ = writeln!(out, "{pad}  <xs:complexType><xs:sequence>");
        for &child in &node.children {
            render(tree, child, out, depth + 2);
        }
        let _ = writeln!(out, "{pad}  </xs:sequence></xs:complexType>");
        let _ = writeln!(out, "{pad}</xs:element>");
    }
}

/// A small seeded generator (SplitMix64) for op order and input choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
