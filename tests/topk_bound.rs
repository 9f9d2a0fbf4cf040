//! Exact top-k by a root-QoM bound.
//!
//! `MatchSession::rank_topk` runs the hybrid DP only on candidates whose
//! bound (`MatchSession::root_qom_bounds`) can still reach the top `k`.
//! These tests pin both halves of its exactness argument (DESIGN.md §19):
//! the bound is never below the `total_qom` the DP computes, over the
//! corpus, drift and edge-case pairs under several weight vectors in both
//! storage precisions; and a served `/v1/match/topk` body is byte-identical
//! to an unpruned reference that matches every candidate on an independent
//! session, over random registries with exact ties at the k-th place,
//! single-node schemas, one to three shards, every index policy, both
//! precisions and both ranking algorithms.

use qmatch::core::index::IndexParams;
use qmatch::core::model::{MatchConfig, Weights};
use qmatch::core::{Algorithm, Candidate, MatchSession, Precision};
use qmatch::datasets::{corpus, drift, synth};
use qmatch::xsd::{BuiltinType, DataType, IngestLimits, SchemaTree};
use qmatch_prng::SmallRng;
use qmatch_serve::handlers::{self, TopkPlan};
use qmatch_serve::http::{parse_head, Request};
use qmatch_serve::{Metrics, Registry, ServeState};
use std::collections::HashMap;
use std::sync::Arc;

fn single(label: &str, ty: BuiltinType) -> SchemaTree {
    SchemaTree::from_labels_typed(label, &[(label, None, DataType::Builtin(ty))])
}

/// Pairs at the edges of the root cell: single-node (leaf-root) schemas
/// against each other and against subtrees, roots that differ only in
/// type, and a root whose children all clear the threshold.
fn edge_pairs() -> Vec<(SchemaTree, SchemaTree)> {
    let po = SchemaTree::from_labels(
        "PO",
        &[("PO", None), ("OrderNo", Some(0)), ("Qty", Some(0))],
    );
    let order = SchemaTree::from_labels(
        "Order",
        &[("Order", None), ("OrderNo", Some(0)), ("Quantity", Some(0))],
    );
    vec![
        (
            single("PO", BuiltinType::String),
            single("PO", BuiltinType::String),
        ),
        (
            single("PO", BuiltinType::String),
            single("PO", BuiltinType::Int),
        ),
        (
            single("PO", BuiltinType::String),
            single("Book", BuiltinType::Decimal),
        ),
        (single("PO", BuiltinType::String), po.clone()),
        (po.clone(), single("PO", BuiltinType::String)),
        (single("Order", BuiltinType::Int), order.clone()),
        (po.clone(), po.clone()),
        (po, order),
    ]
}

fn bound_pairs() -> Vec<(SchemaTree, SchemaTree)> {
    let schemas = [
        corpus::po1(),
        corpus::po2(),
        corpus::article(),
        corpus::book(),
        corpus::dcmd_item(),
        corpus::dcmd_ord(),
    ];
    let mut pairs = Vec::new();
    for a in &schemas {
        for b in &schemas {
            pairs.push((a.clone(), b.clone()));
        }
    }
    let family = drift::synthetic_registry(16, 7);
    for (_, a) in &family {
        for (_, b) in &family {
            pairs.push((a.clone(), b.clone()));
        }
    }
    let revision = drift::mutation_chain(synth::pir(), 1, 0.3, 5).remove(0);
    pairs.push((synth::pir().clone(), revision.clone()));
    pairs.push((revision, synth::pir().clone()));
    pairs.extend(edge_pairs());
    pairs
}

#[test]
fn the_root_bound_is_never_below_total_qom() {
    let pairs = bound_pairs();
    let weight_vectors = [
        Weights::PAPER,
        Weights::new(1.0, 0.0, 0.0, 0.0).unwrap(),
        Weights::new(0.0, 1.0, 0.0, 0.0).unwrap(),
        Weights::new(0.0, 0.0, 1.0, 0.0).unwrap(),
        Weights::new(0.0, 0.0, 0.0, 1.0).unwrap(),
        Weights::new(0.25, 0.25, 0.25, 0.25).unwrap(),
    ];
    let mut checked = 0;
    for weights in weight_vectors {
        let config = MatchConfig::builder()
            .weight_vector(weights)
            .build()
            .expect("valid config");
        let session = MatchSession::new(config);
        for (a, b) in &pairs {
            let (sp, tp) = (session.prepare(a), session.prepare(b));
            let bound = session.root_qom_bounds(&sp, &[Candidate::of("target", &tp)])[0];
            for precision in [Precision::F64, Precision::F32] {
                let outcome = session
                    .run_with_precision(&Algorithm::Hybrid, &sp, &tp, precision)
                    .expect("hybrid is infallible");
                assert!(
                    bound >= outcome.total_qom,
                    "{} x {} under {weights:?} at {precision:?}: bound {bound} < {}",
                    a.name(),
                    b.name(),
                    outcome.total_qom
                );
                session.recycle(outcome);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, weight_vectors.len() * pairs.len() * 2);
}

fn request(target: &str) -> Request {
    let head = parse_head(&format!("POST {target} HTTP/1.1")).expect("request line");
    Request {
        method: head.method,
        path: head.path,
        query: head.query,
        headers: head.headers,
        body: Vec::new(),
        keep_alive: true,
    }
}

/// A random registry: drifted family members, corpus schemas and
/// single-node schemas, some registered twice under different names so
/// equal scores tie at the k-th place and the name breaks the tie.
fn random_registry(rng: &mut SmallRng, size: usize) -> Vec<(String, SchemaTree)> {
    let family = drift::synthetic_registry(size, rng.next_u64());
    let corpus = [
        corpus::po1(),
        corpus::po2(),
        corpus::book(),
        corpus::dcmd_ord(),
    ];
    let roots = ["PO", "Order", "PurchaseOrder", "Book", "Item"];
    let types = [BuiltinType::String, BuiltinType::Int, BuiltinType::Decimal];
    let mut trees: Vec<SchemaTree> = Vec::with_capacity(size);
    while trees.len() < size {
        let tree = match rng.gen_range(0..10usize) {
            0..=4 => family[trees.len()].1.clone(),
            5 => corpus[rng.gen_range(0..corpus.len())].clone(),
            6 => single(
                roots[rng.gen_range(0..roots.len())],
                types[rng.gen_range(0..types.len())],
            ),
            _ if !trees.is_empty() => trees[rng.gen_range(0..trees.len())].clone(),
            _ => continue,
        };
        trees.push(tree);
    }
    // Names in a shuffled order, so a duplicate's name sorts before or
    // after its original's at random.
    let mut ids: Vec<usize> = (0..size).collect();
    qmatch_prng::shuffle(rng, &mut ids);
    ids.into_iter()
        .zip(trees)
        .map(|(id, tree)| (format!("s{id:03}"), tree))
        .collect()
}

/// The unpruned reference: every candidate the shards would rank, matched
/// on `session` (independent of the server's sessions and caches), sorted
/// and truncated; with the number of candidates.
fn reference(
    state: &ServeState,
    session: &MatchSession,
    prepared: &HashMap<String, qmatch::core::PreparedSchema>,
    plan: &TopkPlan,
) -> (Vec<(String, f64)>, usize) {
    let registry = &state.registry;
    let names: Vec<String> = if plan.policy.engages(registry.len(), &IndexParams::default()) {
        registry
            .shards()
            .iter()
            .flat_map(|shard| shard.candidates(&plan.signature))
            .collect()
    } else {
        registry.names()
    };
    let source = &prepared[&plan.source];
    let mut ranking: Vec<(String, f64)> = names
        .into_iter()
        .filter(|name| *name != plan.source)
        .map(|name| {
            let outcome = session
                .run_with_precision(&plan.algo, source, &prepared[&name], plan.precision)
                .expect("hybrid and cupid are infallible");
            (name, outcome.total_qom)
        })
        .collect();
    let candidates = ranking.len();
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranking.truncate(plan.k);
    (ranking, candidates)
}

#[test]
fn bounded_topk_bodies_equal_the_unpruned_reference() {
    let mut rng = SmallRng::seed_from_u64(0x70B0_07D5);
    let mut pruned_any = false;
    for case in 0..10 {
        // Sizes on both sides of the auto policy's floor.
        let size = if case % 2 == 0 {
            rng.gen_range(6..30usize)
        } else {
            rng.gen_range(66..80usize)
        };
        let shards = 1 + case % 3;
        let schemas = random_registry(&mut rng, size);
        // A resident cap of 8, and of 1, under which every candidate is an
        // LRU miss laid out from its kept id form.
        let states = [8, 1].map(|max_resident| ServeState {
            registry: Registry::new(
                (0..shards)
                    .map(|_| MatchSession::new(MatchConfig::default()))
                    .collect(),
                max_resident,
            ),
            metrics: Arc::new(Metrics::new()),
            limits: IngestLimits::default(),
            persist: None,
        });
        let session = MatchSession::new(MatchConfig::default());
        let mut prepared = HashMap::new();
        for (name, tree) in &schemas {
            for state in &states {
                state.registry.register(name, tree.clone(), b"");
            }
            prepared.insert(name.clone(), session.prepare(tree));
        }
        for _ in 0..8 {
            let source = &schemas[rng.gen_range(0..size)].0;
            let k = [1, 3, 10, size + 5][rng.gen_range(0..4usize)];
            let precision = ["f32", "f64"][rng.gen_range(0..2usize)];
            let index = ["off", "auto", "force"][rng.gen_range(0..3usize)];
            let algo = ["hybrid", "hybrid", "hybrid", "cupid"][rng.gen_range(0..4usize)];
            let target = format!(
                "/v1/match/topk?source={source}&k={k}&precision={precision}&index={index}&algo={algo}"
            );
            let req = request(&target);
            for (state, cap) in states.iter().zip([8, 1]) {
                let before = state.registry.snapshot();
                let (_, served) = handlers::handle(&req, state);
                let after = state.registry.snapshot();
                assert_eq!(served.status, 200, "{target}");
                let plan = handlers::validate_topk(&req, &state.registry).expect("valid query");
                let (expected, candidates) = reference(state, &session, &prepared, &plan);
                let body = handlers::topk_render(&plan, expected).body;
                assert_eq!(
                    String::from_utf8_lossy(&served.body),
                    String::from_utf8_lossy(&body),
                    "case {case} ({shards} shards, {size} schemas, cap {cap}): {target}"
                );
                // Every candidate is either matched or pruned by its bound;
                // CUPID has no bound.
                let dp = after.topk_dp_runs - before.topk_dp_runs;
                let pruned = after.topk_bound_pruned - before.topk_bound_pruned;
                assert_eq!(dp + pruned, candidates as u64, "{target}");
                if algo == "cupid" {
                    assert_eq!(pruned, 0, "{target}");
                }
                pruned_any |= pruned > 0;
            }
        }
    }
    assert!(pruned_any, "the bound pruned nothing in any case");
}
