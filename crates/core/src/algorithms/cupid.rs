//! The full-fidelity CUPID matcher (Madhavan, Bernstein & Rahm, VLDB 2001).
//!
//! Unlike the flat [`linguistic`](super::linguistic) baseline (which reuses
//! only CUPID's *name* matching), this engine implements the defining piece
//! of the algorithm: structural similarity propagation. Leaf pairs start
//! from data-type compatibility, internal pairs score by the fraction of
//! strongly-linked leaves in their subtrees, and high/low-confidence
//! ancestor pairs push their confidence back down onto the leaves
//! (`th_high`/`th_low` thresholds, `c_inc`/`c_dec` multiplicative
//! adjustment) before a final `recompute_wsim` pass rebuilds every weighted
//! similarity from the adjusted leaves.
//!
//! The classic formulation mutates leaf ssim *during* a post-order sweep.
//! That mutation is schedule-independent in disguise: the sweep's internal
//! ssim reads leaf **wsim**, which the sweep never updates (only the final
//! recompute does), so each ancestor pair's increase/decrease decision
//! depends solely on the immutable leaf initialization. This engine
//! exploits that: the sweep only *flags* each pair, and every leaf pair
//! then applies its net adjustment `ssim · c_inc^inc · c_dec^dec` (capped
//! at 1.0) in one deterministic step. The result is bit-identical whether
//! pairs are visited sequentially in post-order, in bottom-up waves, or by
//! parallel row — the property the thread-count equivalence tests pin.

use super::{LabelMatrix, MatchOutcome};
use crate::arena::MatchArena;
use crate::mapping::{Correspondence, Mapping};
use crate::matrix::{Precision, Score, SimMatrix};
use crate::model::CupidParams;
use crate::par;
use crate::props::type_similarity;
use crate::session::PreparedSchema;
use crate::trace::{Phase, Span, Trace};
use qmatch_xsd::NodeId;

/// Immutable per-pair inputs shared by every propagation pass.
struct CupidCtx<'a> {
    params: CupidParams,
    /// Label (linguistic) similarity per node pair.
    labels: &'a LabelMatrix,
    /// Leaf descendants per source node (a leaf lists itself).
    source_leaves: Vec<Vec<NodeId>>,
    target_leaves: Vec<Vec<NodeId>>,
    /// Ancestor-or-self chains, node → root order.
    source_chain: Vec<Vec<u32>>,
    target_chain: Vec<Vec<u32>>,
    cols: usize,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn cupid_match_impl(
    source: &PreparedSchema,
    target: &PreparedSchema,
    params: CupidParams,
    labels: &LabelMatrix,
    threads: usize,
    trace: &Trace,
    arena: &MatchArena,
    precision: Precision,
) -> MatchOutcome {
    let (rows_n, cols_n) = (source.tree().len(), target.tree().len());
    let t_alloc = trace.start();
    let mut matrix = arena.take_matrix(rows_n, cols_n, precision);
    trace.finish(
        t_alloc,
        Span {
            rows: rows_n as u64,
            cells: (rows_n * cols_n) as u64,
            ..Span::empty(Phase::Alloc)
        },
    );

    let ctx = CupidCtx {
        params,
        labels,
        source_leaves: leaf_descendants(source),
        target_leaves: leaf_descendants(target),
        source_chain: ancestor_chains(source),
        target_chain: ancestor_chains(target),
        cols: cols_n,
    };

    // Pass 0 — leaf initialization: ssim from data-type compatibility,
    // wsim = w_struct·ssim + (1 − w_struct)·lsim.
    let t0 = trace.start();
    let leaf_ssim = init_leaf_ssim(source, target, threads);
    let leaf_wsim = weighted(&ctx, source, target, &leaf_ssim, threads);
    trace.finish(
        t0,
        Span {
            wave: 0,
            rows: rows_n as u64,
            cells: (rows_n * cols_n) as u64,
            ..Span::empty(Phase::CupidWave)
        },
    );

    // Pass 1 — the propagation sweep: every non-leaf-pair scores by its
    // strong-link fraction and flags the leaves beneath it for
    // increase (+1), decrease (−1), or neither (0).
    let t1 = trace.start();
    let flags = flag_pass(&ctx, source, target, &leaf_wsim, threads);
    trace.finish(
        t1,
        Span {
            wave: 1,
            rows: rows_n as u64,
            cells: (rows_n * cols_n) as u64,
            ..Span::empty(Phase::CupidWave)
        },
    );

    // Pass 2 — apply the net adjustment per leaf pair, then recompute every
    // wsim from the adjusted leaves (the classic `recompute_wsim`).
    let t2 = trace.start();
    let adjusted = adjust_leaf_ssim(&ctx, source, target, &leaf_ssim, &flags, threads);
    let adjusted_wsim = weighted(&ctx, source, target, &adjusted, threads);
    match precision {
        Precision::F64 => {
            recompute_wsim::<f64>(&ctx, source, target, &adjusted_wsim, threads, &mut matrix)
        }
        Precision::F32 => {
            recompute_wsim::<f32>(&ctx, source, target, &adjusted_wsim, threads, &mut matrix)
        }
    }
    trace.finish(
        t2,
        Span {
            wave: 2,
            rows: rows_n as u64,
            cells: (rows_n * cols_n) as u64,
            ..Span::empty(Phase::CupidWave)
        },
    );

    let total_qom = matrix.mean_best_per_source();
    MatchOutcome { matrix, total_qom }
}

/// CUPID's `mapping_generation_leaves`: a greedy 1:1 assignment restricted
/// to leaf×leaf pairs with `wsim ≥ th_accept` (internal correspondences are
/// implied by their leaves, never reported directly). The tie-break is the
/// same as [`crate::mapping::extract_mapping`]: descending score, then
/// source id, then target id.
pub fn mapping_generation_leaves(
    source: &PreparedSchema,
    target: &PreparedSchema,
    matrix: &SimMatrix,
    th_accept: f64,
) -> Mapping {
    let mut cells: Vec<Correspondence> = Vec::new();
    for &s in source.leaves() {
        for &t in target.leaves() {
            let score = matrix.get(s, t);
            if score >= th_accept {
                cells.push(Correspondence {
                    source: s,
                    target: t,
                    score,
                });
            }
        }
    }
    cells.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.source.cmp(&b.source))
            .then_with(|| a.target.cmp(&b.target))
    });
    let mut used_source = vec![false; matrix.rows()];
    let mut used_target = vec![false; matrix.cols()];
    let mut pairs = Vec::new();
    for cell in cells {
        if !used_source[cell.source.index()] && !used_target[cell.target.index()] {
            used_source[cell.source.index()] = true;
            used_target[cell.target.index()] = true;
            pairs.push(cell);
        }
    }
    Mapping { pairs }
}

/// Leaf descendants per node, in ascending leaf-id order; a leaf lists
/// itself, so mixed (internal, leaf) pairs fall out of the same formulas.
fn leaf_descendants(schema: &PreparedSchema) -> Vec<Vec<NodeId>> {
    let parents = schema.parents_raw();
    let mut lists = vec![Vec::new(); schema.tree().len()];
    for &leaf in schema.leaves() {
        let mut cur = leaf.index();
        loop {
            lists[cur].push(leaf);
            if cur == 0 {
                break;
            }
            cur = parents[cur] as usize;
        }
    }
    lists
}

/// Ancestor-or-self chain per node (node first, root last).
fn ancestor_chains(schema: &PreparedSchema) -> Vec<Vec<u32>> {
    let parents = schema.parents_raw();
    (0..schema.tree().len())
        .map(|idx| {
            let mut chain = vec![idx as u32];
            let mut cur = idx;
            while cur != 0 {
                cur = parents[cur] as usize;
                chain.push(cur as u32);
            }
            chain
        })
        .collect()
}

/// Dense leaf-pair ssim from data-type compatibility (non-leaf cells stay
/// zero and are never read).
fn init_leaf_ssim(source: &PreparedSchema, target: &PreparedSchema, threads: usize) -> Vec<f64> {
    let cols = target.tree().len();
    let sleaf = source.leaf_flags_raw();
    let tleaf = target.leaf_flags_raw();
    grid(source.tree().len(), cols, threads, |s, row| {
        if sleaf[s] {
            let sp = source.props(NodeId(s as u32));
            for (t, cell) in row.iter_mut().enumerate() {
                if tleaf[t] {
                    *cell =
                        type_similarity(&sp.data_type, &target.props(NodeId(t as u32)).data_type);
                }
            }
        }
    })
}

/// `wsim = w_struct·ssim + (1 − w_struct)·lsim` for every leaf pair.
fn weighted(
    ctx: &CupidCtx<'_>,
    source: &PreparedSchema,
    target: &PreparedSchema,
    ssim: &[f64],
    threads: usize,
) -> Vec<f64> {
    let cols = ctx.cols;
    let w = ctx.params.w_struct;
    let sleaf = source.leaf_flags_raw();
    let tleaf = target.leaf_flags_raw();
    grid(source.tree().len(), cols, threads, |s, row| {
        if sleaf[s] {
            for (t, cell) in row.iter_mut().enumerate() {
                if tleaf[t] {
                    let lsim = ctx.labels.get(NodeId(s as u32), NodeId(t as u32)).score;
                    *cell = w * ssim[s * cols + t] + (1.0 - w) * lsim;
                }
            }
        }
    })
}

/// The strong-link fraction of a pair: leaves (from either subtree) that
/// participate in at least one leaf link with `wsim ≥ th_accept`, over the
/// total leaf count of both subtrees.
fn strong_link_fraction(ctx: &CupidCtx<'_>, leaf_wsim: &[f64], s: usize, t: usize) -> f64 {
    let sl = &ctx.source_leaves[s];
    let tl = &ctx.target_leaves[t];
    if sl.is_empty() || tl.is_empty() {
        return 0.0;
    }
    let th = ctx.params.th_accept;
    let cols = ctx.cols;
    let mut strong_s = 0usize;
    let mut t_hit = vec![false; tl.len()];
    for &ls in sl {
        let row = &leaf_wsim[ls.index() * cols..];
        let mut hit = false;
        for (k, &lt) in tl.iter().enumerate() {
            if row[lt.index()] >= th {
                hit = true;
                t_hit[k] = true;
            }
        }
        if hit {
            strong_s += 1;
        }
    }
    let strong_t = t_hit.iter().filter(|&&h| h).count();
    (strong_s + strong_t) as f64 / (sl.len() + tl.len()) as f64
}

/// The propagation sweep: flags every non-leaf-pair `+1` (wsim > th_high),
/// `−1` (wsim < th_low), or `0`. Both-leaf pairs never propagate.
fn flag_pass(
    ctx: &CupidCtx<'_>,
    source: &PreparedSchema,
    target: &PreparedSchema,
    leaf_wsim: &[f64],
    threads: usize,
) -> Vec<i8> {
    let cols = ctx.cols;
    let sleaf = source.leaf_flags_raw();
    let tleaf = target.leaf_flags_raw();
    grid(source.tree().len(), cols, threads, |s, row| {
        for (t, cell) in row.iter_mut().enumerate() {
            if sleaf[s] && tleaf[t] {
                continue;
            }
            let ssim = strong_link_fraction(ctx, leaf_wsim, s, t);
            let lsim = ctx.labels.get(NodeId(s as u32), NodeId(t as u32)).score;
            let wsim = ctx.params.w_struct * ssim + (1.0 - ctx.params.w_struct) * lsim;
            if wsim > ctx.params.th_high {
                *cell = 1;
            } else if wsim < ctx.params.th_low {
                *cell = -1;
            }
        }
    })
}

/// Applies each leaf pair's net adjustment: one `c_inc` per flagged-up
/// covering ancestor pair, one `c_dec` per flagged-down, capped into
/// `[0, 1]`. Covering pairs are ancestor-or-self on both sides, minus the
/// leaf pair itself.
fn adjust_leaf_ssim(
    ctx: &CupidCtx<'_>,
    source: &PreparedSchema,
    target: &PreparedSchema,
    leaf_ssim: &[f64],
    flags: &[i8],
    threads: usize,
) -> Vec<f64> {
    let cols = ctx.cols;
    let sleaf = source.leaf_flags_raw();
    let tleaf = target.leaf_flags_raw();
    grid(source.tree().len(), cols, threads, |s, row| {
        if sleaf[s] {
            for (t, cell) in row.iter_mut().enumerate() {
                if !tleaf[t] {
                    continue;
                }
                let (mut inc, mut dec) = (0i32, 0i32);
                for &a in &ctx.source_chain[s] {
                    for &b in &ctx.target_chain[t] {
                        if a as usize == s && b as usize == t {
                            continue;
                        }
                        match flags[a as usize * cols + b as usize] {
                            1 => inc += 1,
                            -1 => dec += 1,
                            _ => {}
                        }
                    }
                }
                let base = leaf_ssim[s * cols + t];
                *cell = (base * ctx.params.c_inc.powi(inc) * ctx.params.c_dec.powi(dec))
                    .clamp(0.0, 1.0);
            }
        }
    })
}

/// The final `recompute_wsim`, written straight into the outcome matrix
/// (rounded once per cell for `f32` storage): non-leaf-pair ssim rebuilt
/// from the adjusted leaf wsim, leaf pairs taking their adjusted wsim
/// directly.
fn recompute_wsim<S: Score>(
    ctx: &CupidCtx<'_>,
    source: &PreparedSchema,
    target: &PreparedSchema,
    adjusted_leaf_wsim: &[f64],
    threads: usize,
    matrix: &mut SimMatrix,
) {
    let cols = ctx.cols;
    let sleaf = source.leaf_flags_raw();
    let tleaf = target.leaf_flags_raw();
    let data = S::data_vec_mut(matrix).expect("matrix storage matches the kernel scalar");
    par::for_each_row_mut(data, cols, threads, |s, row| {
        for (t, cell) in row.iter_mut().enumerate() {
            let v = if sleaf[s] && tleaf[t] {
                adjusted_leaf_wsim[s * cols + t]
            } else {
                let ssim = strong_link_fraction(ctx, adjusted_leaf_wsim, s, t);
                let lsim = ctx.labels.get(NodeId(s as u32), NodeId(t as u32)).score;
                ctx.params.w_struct * ssim + (1.0 - ctx.params.w_struct) * lsim
            };
            *cell = S::from_f64(v);
        }
    });
}

/// A zeroed `rows × cols` grid whose rows `f` fills in place, one disjoint
/// block of rows per worker.
fn grid<T>(rows: usize, cols: usize, threads: usize, f: impl Fn(usize, &mut [T]) + Sync) -> Vec<T>
where
    T: Copy + Default + Send + Sync,
{
    let mut out = vec![T::default(); rows * cols];
    par::for_each_row_mut(&mut out, cols, threads, f);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{assert_thread_counts_agree, Algorithm};
    use crate::model::MatchConfig;
    use crate::session::MatchSession;
    use qmatch_xsd::SchemaTree;

    fn po_like() -> (SchemaTree, SchemaTree) {
        let s = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Quantity", Some(2)),
                ("UnitOfMeasure", Some(2)),
            ],
        );
        let t = SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Items", Some(0)),
                ("Qty", Some(2)),
                ("UOM", Some(2)),
            ],
        );
        (s, t)
    }

    fn run(source: &SchemaTree, target: &SchemaTree) -> MatchOutcome {
        let session = MatchSession::new(MatchConfig::default());
        let (sp, tp) = (session.prepare(source), session.prepare(target));
        session.run(&Algorithm::Cupid, &sp, &tp).unwrap()
    }

    #[test]
    fn self_match_is_strong_everywhere() {
        let (s, _) = po_like();
        let out = run(&s, &s);
        out.matrix.assert_normalized();
        // Every diagonal leaf pair is an exact label + exact type: wsim 1.
        for id in [1u32, 3, 4] {
            assert!(
                out.matrix.get(NodeId(id), NodeId(id)) > 0.95,
                "leaf {id} self-similarity {}",
                out.matrix.get(NodeId(id), NodeId(id))
            );
        }
        assert!(out.total_qom > 0.9);
    }

    #[test]
    fn propagation_lifts_leaves_under_matching_parents() {
        let (s, t) = po_like();
        let session = MatchSession::new(MatchConfig::default());
        let (sp, tp) = (session.prepare(&s), session.prepare(&t));
        let out = session.run(&Algorithm::Cupid, &sp, &tp).unwrap();
        // Quantity/Qty sit under matching subtrees: their wsim must beat
        // the raw linguistic score thanks to the structural axis.
        let qty = out.matrix.get(NodeId(3), NodeId(3));
        assert!(qty > 0.7, "Quantity/Qty wsim {qty}");
        // Unrelated cross pair stays low.
        let cross = out.matrix.get(NodeId(3), NodeId(4));
        assert!(cross < qty, "Quantity/UOM {cross} < {qty}");
    }

    #[test]
    fn leaf_mapping_is_leaf_anchored_and_one_to_one() {
        let (s, t) = po_like();
        let session = MatchSession::new(MatchConfig::default());
        let (sp, tp) = (session.prepare(&s), session.prepare(&t));
        let out = session.run(&Algorithm::Cupid, &sp, &tp).unwrap();
        let mapping =
            mapping_generation_leaves(&sp, &tp, &out.matrix, session.config().cupid.th_accept);
        let mut seen_s = std::collections::HashSet::new();
        let mut seen_t = std::collections::HashSet::new();
        for c in &mapping.pairs {
            assert!(sp.is_leaf(c.source), "{:?} not a leaf", c.source);
            assert!(tp.is_leaf(c.target), "{:?} not a leaf", c.target);
            assert!(seen_s.insert(c.source) && seen_t.insert(c.target));
            assert!(c.score >= session.config().cupid.th_accept);
        }
        // OrderNo is an exact leaf match and must be found.
        assert!(mapping
            .pairs
            .iter()
            .any(|c| c.source == NodeId(1) && c.target == NodeId(1)));
    }

    #[test]
    fn one_and_four_threads_agree_exactly() {
        assert_thread_counts_agree(&Algorithm::Cupid);
    }

    #[test]
    fn leaf_descendants_cover_subtrees() {
        let (s, _) = po_like();
        let session = MatchSession::new(MatchConfig::default());
        let sp = session.prepare(&s);
        let lists = leaf_descendants(&sp);
        // Root sees all three leaves; Lines sees its two; a leaf sees itself.
        assert_eq!(lists[0], vec![NodeId(1), NodeId(3), NodeId(4)]);
        assert_eq!(lists[2], vec![NodeId(3), NodeId(4)]);
        assert_eq!(lists[3], vec![NodeId(3)]);
    }
}
