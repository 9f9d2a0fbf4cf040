//! Zero-dependency pipeline observability: spans and sinks.
//!
//! The TreeMatch pipeline (Fig. 3: prepare → label matrix → wavefront QoM
//! passes → selection) emits one [`Span`] per phase of work through a
//! [`TraceSink`]. Instrumentation lives on the *coordinating* thread of
//! each phase — a wave's span is recorded once after its rows are joined,
//! never per cell — so tracing adds a handful of records per match, not per
//! node pair, and never perturbs scores (sinks only observe).
//!
//! The discipline is the same std-only, lock-free one as
//! `crates/serve/src/metrics.rs`: per-phase aggregates are plain relaxed
//! atomics, and the ordered span log of [`Recorder`] is a pre-allocated
//! slot array claimed by a fetch-add cursor — no locks on the record path,
//! ever. Three sinks cover the use cases:
//!
//! - no sink (the default) or [`NullSink`]: the disabled fast path. The
//!   engines poll [`Trace::start`], which is one `Option`/`enabled` check;
//!   no clock is read, nothing is allocated.
//! - [`Recorder`]: in-memory capture for `qmatch match --trace` and for
//!   `bench_treematch`'s per-phase JSON timings.
//! - the serve adapter (in `qmatch-serve`): per-phase histograms exported
//!   on `GET /metrics`.
//!
//! Sink contract (see DESIGN.md §13): `record` must be safe to call from
//! any thread, must not block the caller on a lock shared with readers,
//! and must tolerate spans arriving concurrently from overlapping matches
//! of the same session. Span *order* is deterministic per single match
//! call (phases run in pipeline order on one coordinating thread); spans
//! of concurrent matches or composite components may interleave.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pipeline phases a [`Span`] can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// [`MatchSession::prepare`](crate::session::MatchSession::prepare), or
    /// its layout step alone
    /// ([`MatchSession::lay_out`](crate::session::MatchSession::lay_out)):
    /// `rows` = nodes in the tree, `cells` = distinct labels.
    Prepare,
    /// [`LabelMatrix`](crate::algorithms::LabelMatrix) construction:
    /// `cells` = distinct source × target label pairs, with the session
    /// cache hit/miss delta of this build.
    Labels,
    /// Similarity-matrix acquisition (arena reuse or fresh zeroed buffer):
    /// `rows` = matrix rows, `cells` = matrix cells. Split out so matrix
    /// allocation is no longer charged to the first wave.
    Alloc,
    /// One bottom-up wave of the hybrid DP: `wave` = height, `rows` =
    /// source nodes in the wave, `cells` = rows × target nodes.
    HybridWave,
    /// The single flat pass of the linguistic matcher.
    Linguistic,
    /// One bottom-up shape wave of the structural matcher.
    StructuralWave,
    /// One top-down context wave of the structural matcher.
    ContextWave,
    /// The per-cell aggregation of a composite match: `rows` = component
    /// count, `cells` = matrix cells combined.
    CompositeCombine,
    /// Mapping selection over a finished matrix
    /// ([`MatchSession::select_mapping`](crate::session::MatchSession::select_mapping)).
    Select,
    /// One served HTTP request (recorded by `qmatch-serve` workers).
    Request,
    /// Time a queued serve job waited in the bounded match-queue before a
    /// shard thread dequeued it (`wall` = queue wait).
    Queue,
    /// One shard-thread execution of a queued serve job (`wall` = time on
    /// the shard, excluding queue wait).
    Shard,
    /// Nothing records this phase. It exists only because the frozen
    /// repository benchmark (`perfbench/`) names it, as it names
    /// [`OwnedPreparedSchema`](crate::session::OwnedPreparedSchema); no
    /// code in this workspace may emit it.
    Diff,
    /// One pass of the CUPID structural-similarity propagation (`wave` = 0
    /// leaf init, 1 bottom-up flag pass, 2 adjust + recompute): `rows` =
    /// source nodes touched, `cells` = pairs scored in the pass.
    CupidWave,
    /// XSD ingest of one registry `PUT` body (recorded by `qmatch-serve`):
    /// parse plus schema-tree compile. `rows` = compiled tree nodes (0 when
    /// the body is rejected), `cells` = body bytes. Matching never records
    /// it.
    Ingest,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 15] = [
        Phase::Prepare,
        Phase::Labels,
        Phase::Alloc,
        Phase::HybridWave,
        Phase::Linguistic,
        Phase::StructuralWave,
        Phase::ContextWave,
        Phase::CompositeCombine,
        Phase::Select,
        Phase::Request,
        Phase::Queue,
        Phase::Shard,
        Phase::Diff,
        Phase::CupidWave,
        Phase::Ingest,
    ];

    /// Number of phases (array-sizing constant for sinks).
    pub const COUNT: usize = Phase::ALL.len();

    /// Stable snake_case name (used as the `phase` label in metrics).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Labels => "labels",
            Phase::Alloc => "alloc",
            Phase::HybridWave => "hybrid_wave",
            Phase::Linguistic => "linguistic",
            Phase::StructuralWave => "structural_wave",
            Phase::ContextWave => "context_wave",
            Phase::CompositeCombine => "composite_combine",
            Phase::Select => "select",
            Phase::Request => "request",
            Phase::Queue => "queue",
            Phase::Shard => "shard",
            Phase::Diff => "diff",
            Phase::CupidWave => "cupid_wave",
            Phase::Ingest => "ingest",
        }
    }

    /// Dense index into per-phase arrays (matches position in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Phase::Prepare => 0,
            Phase::Labels => 1,
            Phase::Alloc => 2,
            Phase::HybridWave => 3,
            Phase::Linguistic => 4,
            Phase::StructuralWave => 5,
            Phase::ContextWave => 6,
            Phase::CompositeCombine => 7,
            Phase::Select => 8,
            Phase::Request => 9,
            Phase::Queue => 10,
            Phase::Shard => 11,
            Phase::Diff => 12,
            Phase::CupidWave => 13,
            Phase::Ingest => 14,
        }
    }
}

/// One recorded unit of pipeline work.
///
/// `Copy` by design: spans carry no heap data, so recording is a plain
/// store into a pre-claimed slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Which phase this work belongs to.
    pub phase: Phase,
    /// Wave index for wavefront phases (0 otherwise).
    pub wave: u32,
    /// Phase-specific row count (see the [`Phase`] variants for semantics).
    pub rows: u64,
    /// Phase-specific pair/cell count.
    pub cells: u64,
    /// Label-cache hits attributable to this span (0 for cache-free phases).
    pub cache_hits: u64,
    /// Label-cache misses attributable to this span.
    pub cache_misses: u64,
    /// Cells the kernel skipped (band pruning / threshold prefilter) in
    /// this span — work that was provably unnecessary, not work lost.
    pub skipped: u64,
    /// Request correlation id threaded by servers: the numeric part of a
    /// minted `q-N` id, or an FNV-1a hash of a client-supplied
    /// `X-Request-Id`. `0` for spans not attributable to one request.
    pub request: u64,
    /// Wall time spent in the phase.
    pub wall: Duration,
}

impl Span {
    /// A zeroed span for a phase (slot initializer; also a convenient base
    /// to build real spans from).
    pub const fn empty(phase: Phase) -> Span {
        Span {
            phase,
            wave: 0,
            rows: 0,
            cells: 0,
            cache_hits: 0,
            cache_misses: 0,
            skipped: 0,
            request: 0,
            wall: Duration::ZERO,
        }
    }
}

/// Where spans go. Implementations must be cheap and lock-free on the
/// record path; see the module docs for the full contract.
pub trait TraceSink: Send + Sync {
    /// Whether recording is worth the clock reads. Polled once per phase
    /// *before* any timing work; a `false` here is the compiled-out fast
    /// path ([`NullSink`] always answers `false`).
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one finished span. May be called from any thread.
    fn record(&self, span: &Span);
}

/// The do-nothing sink: [`TraceSink::enabled`] is `false`, so instrumented
/// code never reads the clock. Installing `NullSink` is equivalent to
/// installing no sink at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _span: &Span) {}
}

/// The session's handle to its sink — the only thing instrumented code
/// touches. With no sink installed (or a disabled one), [`Trace::start`]
/// is a branch and [`Trace::finish`] a no-op.
#[derive(Clone, Default)]
pub struct Trace {
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// A handle recording into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Trace {
        Trace { sink: Some(sink) }
    }

    /// The disabled handle (no sink).
    pub fn disabled() -> Trace {
        Trace { sink: None }
    }

    /// Whether spans will actually be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(&self.sink, Some(s) if s.enabled())
    }

    /// Begins timing a phase: `Some(now)` when a live sink is installed,
    /// `None` on the fast path (no clock read).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes a phase started with [`Trace::start`]: fills in the wall
    /// time and hands the span to the sink. A `None` start is a no-op, so
    /// callers need no branch of their own.
    #[inline]
    pub fn finish(&self, started: Option<Instant>, mut span: Span) {
        if let (Some(t0), Some(sink)) = (started, &self.sink) {
            span.wall = t0.elapsed();
            sink.record(&span);
        }
    }

    /// Records a pre-timed span directly (for callers that measured wall
    /// time themselves, e.g. the serve request loop).
    #[inline]
    pub fn record(&self, span: &Span) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(span);
            }
        }
    }
}

/// Per-phase aggregate counters, summed over every span of that phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Spans recorded.
    pub count: u64,
    /// Total wall time, in microseconds.
    pub wall_us: u64,
    /// Summed `rows`.
    pub rows: u64,
    /// Summed `cells`.
    pub cells: u64,
    /// Summed cache hits.
    pub cache_hits: u64,
    /// Summed cache misses.
    pub cache_misses: u64,
    /// Summed skipped-cell counts.
    pub skipped: u64,
}

impl PhaseStats {
    /// Total wall time as milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_us as f64 / 1000.0
    }
}

#[derive(Default)]
struct PhaseCells {
    count: AtomicU64,
    wall_us: AtomicU64,
    rows: AtomicU64,
    cells: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    skipped: AtomicU64,
}

/// A slot of the recorder's ordered log. The `UnsafeCell` is written
/// exactly once, by the thread that claimed the slot's index from the
/// cursor, and only read after `ready` is observed `true` with `Acquire`
/// ordering — the claim/publish pair makes the cell a single-writer,
/// publish-then-read cell, which is why the `Sync` impl below is sound.
struct Slot {
    ready: AtomicBool,
    span: UnsafeCell<Span>,
}

// SAFETY: `span` is written only by the unique claimant of this slot's
// index (the fetch-add cursor hands each index out once) and read only
// after the Release store of `ready` is observed with Acquire, so no two
// threads ever access the cell concurrently in conflicting modes.
#[allow(unsafe_code)]
unsafe impl Sync for Slot {}

/// The in-memory sink: an ordered span log plus per-phase aggregates,
/// both lock-free.
///
/// The log is a fixed-capacity slot array; recording claims an index with
/// one `fetch_add` and publishes with one `Release` store. Spans past the
/// capacity are dropped (counted in [`Recorder::dropped`]) rather than
/// blocking or reallocating — the record path must stay wait-free.
///
/// ```
/// use qmatch_core::trace::{Phase, Recorder, TraceSink};
/// use std::sync::Arc;
///
/// let recorder = Arc::new(Recorder::default());
/// let mut session = qmatch_core::MatchSession::new(Default::default());
/// session.set_trace_sink(recorder.clone());
/// let tree = qmatch_xsd::SchemaTree::from_labels("a", &[("a", None)]);
/// let p = session.prepare(&tree);
/// session.run(&qmatch_core::Algorithm::Hybrid, &p, &p).unwrap();
/// assert!(recorder.spans().iter().any(|s| s.phase == Phase::HybridWave));
/// ```
pub struct Recorder {
    slots: Box<[Slot]>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
    totals: [PhaseCells; Phase::COUNT],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::with_capacity(4096)
    }
}

impl Recorder {
    /// A recorder whose ordered log holds up to `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Recorder {
        let slots = (0..capacity)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                span: UnsafeCell::new(Span::empty(Phase::Prepare)),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Recorder {
            slots,
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            totals: Default::default(),
        }
    }

    /// Spans that arrived after the log filled up (aggregates still count
    /// them).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The recorded spans, in record order. Spans still being published by
    /// a racing writer are skipped; call from a quiescent point (after the
    /// match returned) for a complete log.
    #[allow(unsafe_code)] // reads a published `Slot`; see the SAFETY note
    pub fn spans(&self) -> Vec<Span> {
        let claimed = self.cursor.load(Ordering::Acquire).min(self.slots.len());
        self.slots[..claimed]
            .iter()
            .filter(|slot| slot.ready.load(Ordering::Acquire))
            // SAFETY: `ready` was observed true with Acquire, so the
            // claimant's write to the cell happened-before this read and
            // no further writes to this slot can occur.
            .map(|slot| unsafe { *slot.span.get() })
            .collect()
    }

    /// Aggregate counters for one phase.
    pub fn phase_stats(&self, phase: Phase) -> PhaseStats {
        let t = &self.totals[phase.index()];
        PhaseStats {
            count: t.count.load(Ordering::Relaxed),
            wall_us: t.wall_us.load(Ordering::Relaxed),
            rows: t.rows.load(Ordering::Relaxed),
            cells: t.cells.load(Ordering::Relaxed),
            cache_hits: t.cache_hits.load(Ordering::Relaxed),
            cache_misses: t.cache_misses.load(Ordering::Relaxed),
            skipped: t.skipped.load(Ordering::Relaxed),
        }
    }

    /// Clears the log and the aggregates. Only sound at a quiescent point
    /// (no match in flight on this recorder's session).
    pub fn reset(&self) {
        let claimed = self.cursor.load(Ordering::Acquire).min(self.slots.len());
        for slot in &self.slots[..claimed] {
            slot.ready.store(false, Ordering::Release);
        }
        self.cursor.store(0, Ordering::Release);
        self.dropped.store(0, Ordering::Relaxed);
        for t in &self.totals {
            t.count.store(0, Ordering::Relaxed);
            t.wall_us.store(0, Ordering::Relaxed);
            t.rows.store(0, Ordering::Relaxed);
            t.cells.store(0, Ordering::Relaxed);
            t.cache_hits.store(0, Ordering::Relaxed);
            t.cache_misses.store(0, Ordering::Relaxed);
            t.skipped.store(0, Ordering::Relaxed);
        }
    }

    /// The human-readable phase report consumed by `qmatch match --trace`:
    /// one row per phase with span counts, wall time, work sizes, and
    /// cache traffic, plus a traced-total line.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>6} {:>10} {:>10} {:>12} {:>10} {:>14}\n",
            "phase", "spans", "wall_ms", "rows", "pairs", "skipped", "cache hit/miss"
        ));
        let mut total_us = 0u64;
        let mut total_spans = 0u64;
        for phase in Phase::ALL {
            let s = self.phase_stats(phase);
            if s.count == 0 {
                continue;
            }
            total_us += s.wall_us;
            total_spans += s.count;
            out.push_str(&format!(
                "{:<18} {:>6} {:>10.3} {:>10} {:>12} {:>10} {:>7}/{}\n",
                phase.name(),
                s.count,
                s.wall_ms(),
                s.rows,
                s.cells,
                s.skipped,
                s.cache_hits,
                s.cache_misses,
            ));
        }
        out.push_str(&format!(
            "{:<18} {:>6} {:>10.3}\n",
            "total (traced)",
            total_spans,
            total_us as f64 / 1000.0
        ));
        if self.dropped() > 0 {
            out.push_str(&format!("({} spans dropped: log full)\n", self.dropped()));
        }
        out
    }
}

impl TraceSink for Recorder {
    #[allow(unsafe_code)] // writes a claimed `Slot`; see the SAFETY note
    fn record(&self, span: &Span) {
        let t = &self.totals[span.phase.index()];
        t.count.fetch_add(1, Ordering::Relaxed);
        t.wall_us
            .fetch_add(span.wall.as_micros() as u64, Ordering::Relaxed);
        t.rows.fetch_add(span.rows, Ordering::Relaxed);
        t.cells.fetch_add(span.cells, Ordering::Relaxed);
        t.cache_hits.fetch_add(span.cache_hits, Ordering::Relaxed);
        t.cache_misses
            .fetch_add(span.cache_misses, Ordering::Relaxed);
        t.skipped.fetch_add(span.skipped, Ordering::Relaxed);
        let idx = self.cursor.fetch_add(1, Ordering::AcqRel);
        if let Some(slot) = self.slots.get(idx) {
            // SAFETY: `idx` was handed out exactly once by the fetch-add,
            // so this thread is the slot's unique writer; readers wait for
            // the Release store below.
            unsafe { *slot.span.get() = *span };
            slot.ready.store(true, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, us: u64) -> Span {
        Span {
            wall: Duration::from_micros(us),
            cells: 10,
            rows: 2,
            ..Span::empty(phase)
        }
    }

    #[test]
    fn null_sink_is_disabled_and_start_skips_the_clock() {
        let trace = Trace::new(Arc::new(NullSink));
        assert!(!trace.is_enabled());
        assert_eq!(trace.start(), None);
        // finish with a None start is a no-op (must not panic).
        trace.finish(None, Span::empty(Phase::Labels));
        assert!(!Trace::disabled().is_enabled());
    }

    #[test]
    fn recorder_keeps_order_and_aggregates() {
        let r = Recorder::with_capacity(8);
        r.record(&span(Phase::Prepare, 5));
        r.record(&span(Phase::Labels, 7));
        r.record(&span(Phase::HybridWave, 3));
        r.record(&span(Phase::HybridWave, 4));
        let spans = r.spans();
        assert_eq!(
            spans.iter().map(|s| s.phase).collect::<Vec<_>>(),
            [
                Phase::Prepare,
                Phase::Labels,
                Phase::HybridWave,
                Phase::HybridWave
            ]
        );
        let waves = r.phase_stats(Phase::HybridWave);
        assert_eq!(waves.count, 2);
        assert_eq!(waves.wall_us, 7);
        assert_eq!(waves.cells, 20);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn recorder_drops_past_capacity_but_still_counts() {
        let r = Recorder::with_capacity(2);
        for _ in 0..5 {
            r.record(&span(Phase::Select, 1));
        }
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.phase_stats(Phase::Select).count, 5, "aggregates see all");
    }

    #[test]
    fn recorder_reset_clears_everything() {
        let r = Recorder::with_capacity(4);
        r.record(&span(Phase::Prepare, 1));
        r.reset();
        assert!(r.spans().is_empty());
        assert_eq!(r.phase_stats(Phase::Prepare), PhaseStats::default());
        r.record(&span(Phase::Labels, 2));
        assert_eq!(r.spans().len(), 1);
    }

    #[test]
    fn recorder_is_safe_under_concurrent_recording() {
        let r = Arc::new(Recorder::with_capacity(1024));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.record(&span(Phase::HybridWave, 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.spans().len(), 400);
        assert_eq!(r.phase_stats(Phase::HybridWave).count, 400);
    }

    #[test]
    fn trace_finish_records_elapsed_wall() {
        let r = Arc::new(Recorder::default());
        let trace = Trace::new(r.clone());
        assert!(trace.is_enabled());
        let t0 = trace.start();
        assert!(t0.is_some());
        trace.finish(t0, Span::empty(Phase::Prepare));
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        // Wall time was filled in by finish (may round to 0 µs, but the
        // span itself must be present with the right phase).
        assert_eq!(spans[0].phase, Phase::Prepare);
    }

    #[test]
    fn phase_names_and_indices_are_dense_and_stable() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names are unique");
    }

    #[test]
    fn report_lists_active_phases_only() {
        let r = Recorder::default();
        r.record(&span(Phase::Labels, 1500));
        let report = r.report();
        assert!(report.contains("labels"));
        assert!(!report.contains("hybrid_wave"));
        assert!(report.contains("total (traced)"));
    }
}
