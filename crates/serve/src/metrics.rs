//! Lock-free server counters and their plain-text rendering.
//!
//! Everything is an atomic, so the hot path (one [`Metrics::record`] per
//! request) never blocks; `GET /metrics` and the shutdown summary read the
//! same counters. The exposition format is Prometheus-flavoured plain text
//! (`qmatch_`-prefixed), simple enough to scrape with `grep`.
//!
//! [`PhaseSink`] adapts [`Metrics`] into a
//! [`TraceSink`]: installed on the shared
//! match session, it folds every pipeline span (label-matrix builds,
//! wavefront passes, prepares) into per-phase counters and wall-time
//! histograms that `GET /metrics` exposes next to the request counters.

use crate::json::fmt_f64;
use qmatch_core::trace::{Phase, Span, TraceSink};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The endpoints the server distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `PUT /schemas/{name}`.
    SchemasPut,
    /// `DELETE /schemas/{name}`.
    SchemasDelete,
    /// `GET /schemas`.
    SchemasList,
    /// `POST /match`.
    Match,
    /// `POST /match/topk`.
    MatchTopk,
    /// Anything else (404s, bad requests, unknown paths).
    Other,
}

impl Endpoint {
    /// All endpoints, in rendering order.
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::SchemasPut,
        Endpoint::SchemasDelete,
        Endpoint::SchemasList,
        Endpoint::Match,
        Endpoint::MatchTopk,
        Endpoint::Other,
    ];

    /// The label used in the exposition format.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::SchemasPut => "schemas_put",
            Endpoint::SchemasDelete => "schemas_delete",
            Endpoint::SchemasList => "schemas_list",
            Endpoint::Match => "match",
            Endpoint::MatchTopk => "match_topk",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|e| *e == self)
            .expect("listed")
    }
}

/// Upper bounds (µs) of the latency histogram buckets; the final implicit
/// bucket is `+Inf`.
const LATENCY_BOUNDS_US: [u64; 7] = [100, 500, 1_000, 5_000, 10_000, 100_000, 1_000_000];

/// The cumulative-histogram bucket a µs sample falls into.
fn bucket_of(micros: u64) -> usize {
    LATENCY_BOUNDS_US
        .iter()
        .position(|&bound| micros <= bound)
        .unwrap_or(LATENCY_BOUNDS_US.len())
}

/// Counters describing everything the server has done so far.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; 8],
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    latency_buckets: [AtomicU64; 8],
    latency_sum_us: AtomicU64,
    queue_wait_buckets: [AtomicU64; 8],
    queue_wait_sum_us: AtomicU64,
    queue_wait_count: AtomicU64,
    scatter_buckets: [AtomicU64; 8],
    scatter_sum_us: AtomicU64,
    scatter_count: AtomicU64,
    bytes_ingested: AtomicU64,
    rejected_by_limits: AtomicU64,
    rejected_backpressure: AtomicU64,
    wal_bytes: AtomicU64,
    request_seq: AtomicU64,
    phase_count: [AtomicU64; Phase::COUNT],
    phase_wall_us: [AtomicU64; Phase::COUNT],
    phase_cells: [AtomicU64; Phase::COUNT],
    /// Cells the kernels' prefilters skipped, per phase (the spans'
    /// `skipped` field).
    phase_skipped: [AtomicU64; Phase::COUNT],
    phase_buckets: [[AtomicU64; 8]; Phase::COUNT],
}

/// A consistent snapshot of registry/session state, supplied by the caller
/// when rendering (metrics itself owns only request-level counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistrySnapshot {
    /// Registered schema count.
    pub schemas: u64,
    /// Prepared schemas currently resident.
    pub resident: u64,
    /// Heap bytes of the id forms the shards keep for every registered
    /// schema (a gauge; `--max-schemas` does not bound it).
    pub ids_bytes: u64,
    /// Prepared-schema lookups served from residence.
    pub prepare_hits: u64,
    /// Lookups that had to (re-)prepare.
    pub prepare_misses: u64,
    /// Prepared schemas evicted by the LRU cap.
    pub evictions: u64,
    /// Label-cache hits of the shared match session.
    pub label_hits: u64,
    /// Label-cache misses of the shared match session.
    pub label_misses: u64,
    /// Candidate token pairs the session scored to resolve those misses.
    pub label_token_scores: u64,
    /// Missing label pairs the session graded in full: those that can be
    /// related.
    pub label_graded_pairs: u64,
    /// Distinct label pairs the sessions' label caches hold (a gauge that
    /// only grows: the cache never evicts).
    pub label_cached_pairs: u64,
    /// Schemas admitted as topk candidates by the shard indexes.
    pub index_candidates: u64,
    /// Schemas pruned by the shard indexes before the DP ran.
    pub index_filtered: u64,
    /// Topk candidates the match engine ran on.
    pub topk_dp_runs: u64,
    /// Topk candidates whose root-QoM bound ruled them out before any
    /// prepare or DP.
    pub topk_bound_pruned: u64,
    /// Schemas removed via `DELETE /schemas/{name}`.
    pub deletes: u64,
}

impl RegistrySnapshot {
    fn label_hit_rate(&self) -> f64 {
        let total = self.label_hits + self.label_misses;
        if total == 0 {
            0.0
        } else {
            self.label_hits as f64 / total as f64
        }
    }
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one finished request.
    pub fn record(&self, endpoint: Endpoint, status: u16, micros: u64) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency_buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records the queue wait of one dequeued match-queue job.
    pub fn record_queue_wait(&self, micros: u64) {
        self.queue_wait_buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.queue_wait_sum_us.fetch_add(micros, Ordering::Relaxed);
        self.queue_wait_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the wall time of one cross-shard topk scatter-gather (from
    /// the first partial enqueued to the merged ranking).
    pub fn record_scatter_gather(&self, micros: u64) {
        self.scatter_buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.scatter_sum_us.fetch_add(micros, Ordering::Relaxed);
        self.scatter_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds successfully read schema-body bytes.
    pub fn add_ingested(&self, bytes: u64) {
        self.bytes_ingested.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts one request rejected by the ingestion limits.
    pub fn add_rejected_by_limits(&self) {
        self.rejected_by_limits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request shed with `429` because the match queue was full.
    pub fn add_rejected_backpressure(&self) {
        self.rejected_backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds bytes appended to the registry write-ahead log (a cumulative
    /// counter; compaction truncates the file but never this).
    pub fn add_wal_bytes(&self, bytes: u64) {
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Mints the next server-assigned request id (`q-1`, `q-2`, ...);
    /// echoed back to clients as `X-Request-Id` when they did not supply
    /// their own.
    pub fn next_request_id(&self) -> String {
        format!("q-{}", self.request_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Request ids minted so far.
    pub fn request_ids_minted(&self) -> u64 {
        self.request_seq.load(Ordering::Relaxed)
    }

    /// Folds one pipeline span into the per-phase counters and histograms.
    /// Called by [`PhaseSink`] from whatever thread coordinates the match —
    /// relaxed atomics only, never blocking.
    pub fn record_phase(&self, span: &Span) {
        let i = span.phase.index();
        let micros = span.wall.as_micros() as u64;
        self.phase_count[i].fetch_add(1, Ordering::Relaxed);
        self.phase_wall_us[i].fetch_add(micros, Ordering::Relaxed);
        self.phase_cells[i].fetch_add(span.cells, Ordering::Relaxed);
        self.phase_skipped[i].fetch_add(span.skipped, Ordering::Relaxed);
        self.phase_buckets[i][bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests recorded so far.
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Renders the exposition text for `GET /metrics`.
    pub fn render(&self, registry: &RegistrySnapshot) -> String {
        let mut out = String::with_capacity(1024);
        let total = self.total_requests();
        let _ = writeln!(out, "qmatch_requests_total {total}");
        for endpoint in Endpoint::ALL {
            let _ = writeln!(
                out,
                "qmatch_requests{{endpoint=\"{}\"}} {}",
                endpoint.name(),
                self.requests[endpoint.index()].load(Ordering::Relaxed)
            );
        }
        for (class, counter) in [
            ("2xx", &self.status_2xx),
            ("4xx", &self.status_4xx),
            ("5xx", &self.status_5xx),
        ] {
            let _ = writeln!(
                out,
                "qmatch_responses{{class=\"{class}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        let mut cumulative = 0u64;
        for (i, counter) in self.latency_buckets.iter().enumerate() {
            cumulative += counter.load(Ordering::Relaxed);
            let bound = LATENCY_BOUNDS_US
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "+Inf".to_owned());
            let _ = writeln!(
                out,
                "qmatch_request_latency_us_bucket{{le=\"{bound}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "qmatch_request_latency_us_sum {}",
            self.latency_sum_us.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "qmatch_request_latency_us_count {total}");
        for (prefix, buckets, sum, count) in [
            (
                "qmatch_queue_wait_us",
                &self.queue_wait_buckets,
                &self.queue_wait_sum_us,
                &self.queue_wait_count,
            ),
            (
                "qmatch_shard_scatter_us",
                &self.scatter_buckets,
                &self.scatter_sum_us,
                &self.scatter_count,
            ),
        ] {
            let mut cumulative = 0u64;
            for (i, counter) in buckets.iter().enumerate() {
                cumulative += counter.load(Ordering::Relaxed);
                let bound = LATENCY_BOUNDS_US
                    .get(i)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".to_owned());
                let _ = writeln!(out, "{prefix}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{prefix}_sum {}", sum.load(Ordering::Relaxed));
            let _ = writeln!(out, "{prefix}_count {}", count.load(Ordering::Relaxed));
        }
        let _ = writeln!(
            out,
            "qmatch_bytes_ingested_total {}",
            self.bytes_ingested.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "qmatch_rejected_by_limits_total {}",
            self.rejected_by_limits.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "qmatch_rejected_backpressure_total {}",
            self.rejected_backpressure.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "qmatch_wal_bytes_total {}",
            self.wal_bytes.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "qmatch_registry_schemas {}", registry.schemas);
        let _ = writeln!(out, "qmatch_registry_resident {}", registry.resident);
        let _ = writeln!(out, "qmatch_registry_ids_bytes {}", registry.ids_bytes);
        let _ = writeln!(out, "qmatch_prepare_hits_total {}", registry.prepare_hits);
        let _ = writeln!(
            out,
            "qmatch_prepare_misses_total {}",
            registry.prepare_misses
        );
        let _ = writeln!(out, "qmatch_prepare_evictions_total {}", registry.evictions);
        let _ = writeln!(out, "qmatch_label_cache_hits_total {}", registry.label_hits);
        let _ = writeln!(
            out,
            "qmatch_label_cache_misses_total {}",
            registry.label_misses
        );
        let _ = writeln!(
            out,
            "qmatch_label_token_scores_total {}",
            registry.label_token_scores
        );
        let _ = writeln!(
            out,
            "qmatch_label_graded_pairs_total {}",
            registry.label_graded_pairs
        );
        let _ = writeln!(
            out,
            "qmatch_label_cache_hit_rate {}",
            fmt_f64(registry.label_hit_rate())
        );
        let _ = writeln!(
            out,
            "qmatch_label_cache_pairs {}",
            registry.label_cached_pairs
        );
        let _ = writeln!(out, "qmatch_index_candidates {}", registry.index_candidates);
        let _ = writeln!(
            out,
            "qmatch_index_filtered_total {}",
            registry.index_filtered
        );
        let _ = writeln!(out, "qmatch_topk_dp_runs_total {}", registry.topk_dp_runs);
        let _ = writeln!(
            out,
            "qmatch_topk_bound_pruned_total {}",
            registry.topk_bound_pruned
        );
        let _ = writeln!(out, "qmatch_schema_deletes_total {}", registry.deletes);
        // Per-phase pipeline observability (fed by PhaseSink). Phases that
        // never fired are skipped so a fresh server stays terse.
        for phase in Phase::ALL {
            let i = phase.index();
            let count = self.phase_count[i].load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let name = phase.name();
            let _ = writeln!(out, "qmatch_phase_count{{phase=\"{name}\"}} {count}");
            let _ = writeln!(
                out,
                "qmatch_phase_wall_us_sum{{phase=\"{name}\"}} {}",
                self.phase_wall_us[i].load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "qmatch_phase_cells_total{{phase=\"{name}\"}} {}",
                self.phase_cells[i].load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "qmatch_phase_skipped_total{{phase=\"{name}\"}} {}",
                self.phase_skipped[i].load(Ordering::Relaxed)
            );
            let mut cumulative = 0u64;
            for (b, counter) in self.phase_buckets[i].iter().enumerate() {
                cumulative += counter.load(Ordering::Relaxed);
                let bound = LATENCY_BOUNDS_US
                    .get(b)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "+Inf".to_owned());
                let _ = writeln!(
                    out,
                    "qmatch_phase_wall_us_bucket{{phase=\"{name}\",le=\"{bound}\"}} {cumulative}"
                );
            }
        }
        out
    }

    /// The human-readable shutdown summary printed to stderr by
    /// `qmatch serve`.
    pub fn summary(&self, registry: &RegistrySnapshot) -> String {
        let total = self.total_requests();
        let mean_us = self
            .latency_sum_us
            .load(Ordering::Relaxed)
            .checked_div(total)
            .unwrap_or(0);
        let per_endpoint: Vec<String> = Endpoint::ALL
            .iter()
            .filter_map(|e| {
                let n = self.requests[e.index()].load(Ordering::Relaxed);
                (n > 0).then(|| format!("{}={n}", e.name()))
            })
            .collect();
        let minted = self.request_ids_minted();
        let ids = if minted == 0 {
            "no request ids minted".to_owned()
        } else {
            format!("request ids q-1..q-{minted}")
        };
        let phases: Vec<String> = Phase::ALL
            .iter()
            .filter_map(|p| {
                let n = self.phase_count[p.index()].load(Ordering::Relaxed);
                (n > 0).then(|| {
                    format!(
                        "{}={n}/{:.1}ms",
                        p.name(),
                        self.phase_wall_us[p.index()].load(Ordering::Relaxed) as f64 / 1e3
                    )
                })
            })
            .collect();
        let mut summary = format!(
            "served {total} request(s) ({}), {} schema(s) registered, \
             {} byte(s) ingested, {} rejected by limits, \
             {} shed by backpressure, {} WAL byte(s) appended, \
             label cache hit rate {:.2}, mean latency {mean_us}us, {ids}",
            if per_endpoint.is_empty() {
                "none".to_owned()
            } else {
                per_endpoint.join(" ")
            },
            registry.schemas,
            self.bytes_ingested.load(Ordering::Relaxed),
            self.rejected_by_limits.load(Ordering::Relaxed),
            self.rejected_backpressure.load(Ordering::Relaxed),
            self.wal_bytes.load(Ordering::Relaxed),
            registry.label_hit_rate(),
        );
        if !phases.is_empty() {
            summary.push_str(&format!("\nphases (count/wall): {}", phases.join(" ")));
        }
        summary
    }
}

/// A [`TraceSink`] that feeds pipeline spans into [`Metrics`].
///
/// `Server::bind` installs one on the shared match session, so every
/// prepare, label-matrix build, and wavefront pass run on behalf of a
/// request lands in the `qmatch_phase_*` series of `GET /metrics`.
/// Recording is a handful of relaxed atomic adds — safe from any worker
/// thread, and the spans never influence match scores.
#[derive(Debug, Clone)]
pub struct PhaseSink(Arc<Metrics>);

impl PhaseSink {
    /// Wraps the shared metrics.
    pub fn new(metrics: Arc<Metrics>) -> PhaseSink {
        PhaseSink(metrics)
    }
}

impl TraceSink for PhaseSink {
    fn record(&self, span: &Span) {
        self.0.record_phase(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_and_buckets() {
        let m = Metrics::new();
        m.record(Endpoint::Match, 200, 50);
        m.record(Endpoint::Match, 200, 2_000);
        m.record(Endpoint::SchemasPut, 413, 10);
        m.record(Endpoint::Other, 500, 2_000_000);
        assert_eq!(m.total_requests(), 4);
        let text = m.render(&RegistrySnapshot::default());
        assert!(text.contains("qmatch_requests_total 4"), "{text}");
        assert!(text.contains("qmatch_requests{endpoint=\"match\"} 2"));
        assert!(text.contains("qmatch_responses{class=\"2xx\"} 2"));
        assert!(text.contains("qmatch_responses{class=\"4xx\"} 1"));
        assert!(text.contains("qmatch_responses{class=\"5xx\"} 1"));
        // Histogram is cumulative: both sub-100us samples land in le=100,
        // the 2ms sample first appears at le=5000, +Inf sees all four.
        assert!(text.contains("qmatch_request_latency_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("qmatch_request_latency_us_bucket{le=\"5000\"} 3"));
        assert!(text.contains("qmatch_request_latency_us_bucket{le=\"+Inf\"} 4"));
    }

    #[test]
    fn ingestion_counters_and_registry_snapshot_render() {
        let m = Metrics::new();
        m.add_ingested(1234);
        m.add_rejected_by_limits();
        let snapshot = RegistrySnapshot {
            schemas: 3,
            resident: 2,
            ids_bytes: 960,
            prepare_hits: 10,
            prepare_misses: 3,
            evictions: 1,
            label_hits: 75,
            label_misses: 25,
            label_token_scores: 40,
            label_graded_pairs: 12,
            label_cached_pairs: 25,
            index_candidates: 7,
            index_filtered: 93,
            topk_dp_runs: 5,
            topk_bound_pruned: 2,
            deletes: 1,
        };
        let text = m.render(&snapshot);
        assert!(text.contains("qmatch_bytes_ingested_total 1234"));
        assert!(text.contains("qmatch_rejected_by_limits_total 1"));
        assert!(text.contains("qmatch_registry_schemas 3"));
        assert!(text.contains("qmatch_registry_ids_bytes 960"));
        assert!(text.contains("qmatch_label_cache_hit_rate 0.75"));
        assert!(text.contains("qmatch_label_token_scores_total 40"));
        assert!(text.contains("qmatch_label_graded_pairs_total 12"));
        assert!(text.contains("qmatch_label_cache_pairs 25"));
        assert!(text.contains("qmatch_index_candidates 7"));
        assert!(text.contains("qmatch_index_filtered_total 93"));
        assert!(text.contains("qmatch_topk_dp_runs_total 5"));
        assert!(text.contains("qmatch_topk_bound_pruned_total 2"));
        assert!(text.contains("qmatch_schema_deletes_total 1"));
        let summary = m.summary(&snapshot);
        assert!(summary.contains("3 schema(s)"), "{summary}");
        assert!(summary.contains("hit rate 0.75"), "{summary}");
        assert!(summary.contains("1 rejected by limits"), "{summary}");
    }

    #[test]
    fn phase_sink_feeds_phase_series() {
        let m = Arc::new(Metrics::new());
        let sink = PhaseSink::new(m.clone());
        let span = Span {
            cells: 42,
            skipped: 7,
            wall: std::time::Duration::from_micros(250),
            ..Span::empty(Phase::HybridWave)
        };
        sink.record(&span);
        let text = m.render(&RegistrySnapshot::default());
        assert!(
            text.contains("qmatch_phase_count{phase=\"hybrid_wave\"} 1"),
            "{text}"
        );
        assert!(text.contains("qmatch_phase_wall_us_sum{phase=\"hybrid_wave\"} 250"));
        assert!(text.contains("qmatch_phase_cells_total{phase=\"hybrid_wave\"} 42"));
        assert!(text.contains("qmatch_phase_skipped_total{phase=\"hybrid_wave\"} 7"));
        assert!(text.contains("qmatch_phase_wall_us_bucket{phase=\"hybrid_wave\",le=\"500\"} 1"));
        // Phases that never fired are skipped entirely.
        assert!(!text.contains("phase=\"labels\""), "{text}");
    }

    #[test]
    fn request_ids_are_sequential_and_summarized() {
        let m = Metrics::new();
        assert_eq!(m.next_request_id(), "q-1");
        assert_eq!(m.next_request_id(), "q-2");
        assert_eq!(m.request_ids_minted(), 2);
        let summary = m.summary(&RegistrySnapshot::default());
        assert!(summary.contains("request ids q-1..q-2"), "{summary}");
    }

    #[test]
    fn endpoint_names_are_distinct() {
        let names: std::collections::HashSet<_> = Endpoint::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), Endpoint::ALL.len());
    }
}
