//! Scaling benchmark for the memoized TreeMatch dynamic program: the paper
//! states the running time "lies in O(nm)". This bench matches synthetic
//! balanced trees of growing size against themselves; the per-size timings
//! should grow quadratically (n·m with n = m).
//!
//! `cargo bench -p qmatch-bench --bench treematch`

use qmatch_bench::harness::Harness;
use qmatch_bench::synth_tree::{balanced_tree, balanced_tree_with_vocab, SCHEMA_VOCAB};
use qmatch_bench::Algorithm;
use qmatch_core::model::MatchConfig;
use qmatch_core::par;
use qmatch_core::session::MatchSession;
use qmatch_xsd::SchemaTree;
use std::hint::black_box;

fn one_shot(tree: &SchemaTree, config: &MatchConfig, threads: usize) -> f64 {
    let mut session = MatchSession::new(*config);
    session.set_threads(threads);
    let (sp, tp) = (session.prepare(tree), session.prepare(tree));
    session
        .run(&Algorithm::Hybrid.core(), &sp, &tp)
        .expect("hybrid is infallible")
        .total_qom
}

fn main() {
    let h = Harness::from_env();
    let config = MatchConfig::default();
    let threads = par::num_threads();

    // One worker thread vs the default thread count (bit-identical results)
    // on 10²–10³-node trees; 10⁴ lives in the bench_treematch bin, which
    // also records the speedup trajectory in BENCH_treematch.json.
    for (branch, depth) in [(4, 3), (3, 6)] {
        let tree = balanced_tree_with_vocab(branch, depth, SCHEMA_VOCAB);
        let n = tree.len();
        h.bench(&format!("treematch/engine/sequential/{n}"), || {
            black_box(one_shot(&tree, &config, 1))
        });
        h.bench(&format!("treematch/engine/parallel/{n}"), || {
            black_box(one_shot(&tree, &config, threads))
        });
    }

    for (branch, depth) in [(3, 3), (4, 3), (5, 3), (6, 3)] {
        let tree = balanced_tree(branch, depth);
        let n = tree.len();
        h.bench(&format!("treematch/onm-scaling/{n}"), || {
            black_box(one_shot(&tree, &config, threads))
        });
    }

    // Same node count, different shapes: deep-narrow vs flat-wide. The DP
    // cost term Σ|children_s|·|children_t| differs, the pair count does not.
    let deep = balanced_tree(2, 6); // 127 nodes
    let wide = balanced_tree(126, 1); // 127 nodes
    h.bench("treematch/shape/deep-narrow-127", || {
        black_box(one_shot(&deep, &config, threads))
    });
    h.bench("treematch/shape/flat-wide-127", || {
        black_box(one_shot(&wide, &config, threads))
    });
}
