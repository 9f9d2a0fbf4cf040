//! Microbenchmarks for the banded DP kernel (DESIGN.md §14): the warm
//! per-pair wave cost that `bench_treematch`'s `match_ms` aggregates, taken
//! apart along the axes the kernel restructured —
//!
//! - storage precision (`f64` vs the memory-lean `f32` rows),
//! - arena reuse (recycled buffers vs a fresh allocation per pair),
//! - the band prefilter (default child threshold vs a strict one that
//!   engages the label-upper-bound and cross-kind prunes).
//!
//! The contiguous-row claim is what the timings check: the inner loops run
//! over dense target slices, so per-iteration cost must stay ~O(n·m) and
//! the f32 rows must not be slower than f64 (half the bytes through the
//! same loop).
//!
//! `cargo bench -p qmatch-bench --bench kernel` (CI smokes it with
//! `-- --test`).

use qmatch_bench::harness::Harness;
use qmatch_bench::synth_tree::{balanced_tree_with_vocab, SCHEMA_VOCAB};
use qmatch_core::algorithms::Algorithm;
use qmatch_core::matrix::Precision;
use qmatch_core::model::MatchConfig;
use qmatch_core::session::MatchSession;
use std::hint::black_box;

fn main() {
    let h = Harness::from_env();
    let config = MatchConfig::default();

    for (branch, depth) in [(4, 3), (3, 6)] {
        let tree = balanced_tree_with_vocab(branch, depth, SCHEMA_VOCAB);
        let n = tree.len();

        // Warm per-pair match: prepared schemas, hot label cache, recycled
        // arena buffers — the steady state of match_corpus / topk loops.
        for precision in [Precision::F64, Precision::F32] {
            let session = MatchSession::new(MatchConfig {
                precision,
                ..config
            });
            let (sp, tp) = (session.prepare(&tree), session.prepare(&tree));
            let warm = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
            session.recycle(warm);
            h.bench(&format!("kernel/warm/{}/{n}", precision.name()), || {
                let outcome = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
                black_box(outcome.total_qom);
                session.recycle(outcome);
            });
        }

        // Same loop without recycling: every pair pays a cold matrix +
        // scratch allocation. The gap to kernel/warm is the arena's win.
        let session = MatchSession::new(config);
        let (sp, tp) = (session.prepare(&tree), session.prepare(&tree));
        black_box(session.run(&Algorithm::Hybrid, &sp, &tp).unwrap().total_qom);
        h.bench(&format!("kernel/cold-alloc/f64/{n}"), || {
            black_box(session.run(&Algorithm::Hybrid, &sp, &tp).unwrap().total_qom)
        });

        // Prefilter sweep: 0.0 disables the band prunes (every child cell
        // scanned), the default 0.5 engages them where labels allow, 0.95
        // prunes aggressively. All three produce bit-identical matrices
        // (pinned by tests/kernel_equivalence.rs); only the time may move.
        for threshold in [0.0, 0.5, 0.95] {
            let session = MatchSession::new(MatchConfig {
                threshold,
                ..config
            });
            let (sp, tp) = (session.prepare(&tree), session.prepare(&tree));
            let warm = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
            session.recycle(warm);
            h.bench(&format!("kernel/prefilter/t{threshold}/{n}"), || {
                let outcome = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
                black_box(outcome.total_qom);
                session.recycle(outcome);
            });
        }
    }
}
