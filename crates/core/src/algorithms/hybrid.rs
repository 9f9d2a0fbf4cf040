//! QMatch — the hybrid match algorithm (paper Figure 3).
//!
//! A recursive depth-first TreeMatch that combines the linguistic label
//! comparison, the property model, the level check, and the recursively
//! computed children QoM with the axis weights of Equation 1. The recursion
//! of Figure 3 is evaluated here as a memoized bottom-up dynamic program
//! over all (source, target) node pairs, which makes every pair's QoM
//! available in one pass — the O(n·m) behaviour the paper reports.
//!
//! The DP is scheduled as a level-synchronous *wavefront*: source nodes are
//! grouped by subtree height, and every row of one wave is written in place
//! from the (already final) rows of lower waves, so the rows of a wave can
//! run on separate threads ([`par::WaveRows`]). Each cell's arithmetic is a
//! pure function of child rows, so every thread count produces bit-identical
//! matrices (property-tested).
//!
//! Two deliberate refinements of the pseudo-code (documented in DESIGN.md):
//!
//! 1. Figure 3 sums *every* child pair whose QoM clears the threshold, which
//!    can push `Rw` above 1 when one source child matches several target
//!    children. This implementation takes the *best* matching target child
//!    per source child (the standard reading), keeping QoM within `[0, 1]`.
//! 2. Leaf pairs use Equation 2 directly (children and level exact by
//!    default), matching §2.2's "the nesting level for a leaf element is
//!    always set to 0".

use super::{compare_single_labels, matcher_for_mode, LabelMatrix, MatchOutcome};
use crate::arena::{MatchArena, RowScratch};
use crate::matrix::{Precision, Score, SimMatrix};
use crate::model::{children_qom, MatchConfig, Weights};
use crate::par;
use crate::props::compare_properties;
use crate::session::{MatchSession, PreparedSchema};
use crate::taxonomy::{AxisGrade, CoverageGrade, MatchCategory};
use crate::trace::{Phase, Span, Trace};
use qmatch_lexicon::name_match::LabelGrade;
use qmatch_xsd::{NodeId, SchemaTree};

/// Slack added to the floating-point upper bound of the cross-kind
/// prefilter. The bound is a weighted sum of values in `[0, 1]`, so its
/// rounding error is ≤ 1e-15, and an `f32`-stored child score sits within
/// 2⁻²⁴ of its `f64` value; 1e-6 covers both with orders of magnitude to
/// spare, making the pruned cells *provably* unable to clear the threshold
/// in either precision.
const PRUNE_MARGIN: f64 = 1e-6;

/// An upper bound on the hybrid root QoM (`total_qom`) of a pair, from the
/// two roots' label score `label` and property score `properties` alone.
///
/// The root cell is Equation 1 (`qom(L, P, H, C)`, `H ∈ {0, 1}`, `C ≤ 1`)
/// or, for two single-node schemas, Equation 2 (`leaf_qom(L, P)`). Weights
/// are non-negative and round-to-nearest is monotone, so
/// `qom(L, P, 1, 1) ≥ qom(L, P, H, C)` holds in `f64`; the maximum with
/// the leaf form covers Equation 2's other summation order, and
/// [`PRUNE_MARGIN`] covers a cell's `f32` storage rounding and the 1e-9
/// unit-sum tolerance of [`Weights`](crate::model::Weights). DESIGN.md §19
/// has the full argument.
pub(crate) fn root_qom_bound(weights: &Weights, label: f64, properties: f64) -> f64 {
    weights
        .qom(label, properties, 1.0, 1.0)
        .max(weights.leaf_qom(label, properties))
        + PRUNE_MARGIN
}

/// The engine proper, over prepared artifacts: the wave schedule, leaf
/// flags, levels, parent links, and distinct property profiles all come
/// from the [`PreparedSchema`]s; the label axis from the session-built
/// `labels`; the output matrix and per-thread row scratch from the session
/// `arena`. Each wave fans out over up to `threads` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hybrid_match_impl(
    source: &PreparedSchema,
    target: &PreparedSchema,
    config: &MatchConfig,
    labels: &LabelMatrix,
    threads: usize,
    trace: &Trace,
    arena: &MatchArena,
    precision: Precision,
) -> MatchOutcome {
    let (rows, cols) = (source.tree().len(), target.tree().len());
    // Matrix acquisition (arena pop, or zeroing rows × cols floats — real
    // time at 10⁴ nodes) and the per-pair score tables get their own Alloc
    // span, so the wave spans measure pure kernel time.
    let t0 = trace.start();
    let mut matrix = arena.take_matrix(rows, cols, precision);
    let tables = PairTables::build(source, target, labels);
    trace.finish(
        t0,
        Span {
            rows: rows as u64,
            cells: (rows * cols) as u64,
            ..Span::empty(Phase::Alloc)
        },
    );
    match precision {
        Precision::F64 => {
            run_waves::<f64>(source, config, &tables, threads, trace, arena, &mut matrix)
        }
        Precision::F32 => {
            run_waves::<f32>(source, config, &tables, threads, trace, arena, &mut matrix)
        }
    }
    let total_qom = matrix.get(source.tree().root_id(), target.tree().root_id());
    MatchOutcome { matrix, total_qom }
}

/// Per-pair lookup tables gathered once per match so the wave kernels run
/// tight loops over dense slices instead of chasing `NodeId`s. Label and
/// property scores are stored once per *distinct* pair — always as `f64`,
/// whatever the output precision — and the per-node index columns below
/// turn a cell visit into two contiguous-row gathers.
struct PairTables<'p> {
    /// Distinct label-pair scores, `… × label_cols` row-major.
    ltab: Vec<f64>,
    label_cols: usize,
    /// Per-node row/column indices into `ltab`.
    s_label: &'p [u32],
    t_label: &'p [u32],
    /// Per distinct source label: the best score over every distinct target
    /// label — the label-similarity term of the cross-kind prefilter's bound.
    lmax: Vec<f64>,
    /// Distinct property-profile scores, `… × prop_cols` row-major.
    ptab: Vec<f64>,
    prop_cols: usize,
    /// Per-node row/column indices into `ptab`.
    s_prop: &'p [u32],
    t_prop: &'p [u32],
    /// Per-target-node attributes read by the cell loop.
    t_leaf: &'p [bool],
    t_level: &'p [u32],
    /// Parent of every target node (`u32::MAX` for the root, which the
    /// scatter loops exclude): band scatters fold child cells up to these.
    t_parent: &'p [u32],
    /// Non-root target nodes split by kind, for the cross-kind prefilter.
    leaf_ts: Vec<u32>,
    internal_ts: Vec<u32>,
}

impl<'p> PairTables<'p> {
    fn build(
        source: &'p PreparedSchema,
        target: &'p PreparedSchema,
        labels: &'p LabelMatrix,
    ) -> PairTables<'p> {
        let ltab = labels.score_table();
        let label_cols = labels.distinct_cols_raw();
        let label_rows = ltab.len().checked_div(label_cols).unwrap_or(0);
        let mut lmax = vec![0.0f64; label_rows];
        for (r, best) in lmax.iter_mut().enumerate() {
            let row = &ltab[r * label_cols..(r + 1) * label_cols];
            *best = row.iter().fold(0.0f64, |a, &b| a.max(b));
        }

        let (sprops, tprops) = (source.distinct_props_raw(), target.distinct_props_raw());
        let prop_cols = tprops.len();
        let mut ptab = Vec::with_capacity(sprops.len() * prop_cols);
        for &sp in sprops {
            for &tp in tprops {
                ptab.push(compare_properties(source.props(sp), target.props(tp)).score);
            }
        }

        let t_leaf = target.leaf_flags_raw();
        let (mut leaf_ts, mut internal_ts) = (Vec::new(), Vec::new());
        for t in 1..target.tree().len() as u32 {
            if t_leaf[t as usize] {
                leaf_ts.push(t);
            } else {
                internal_ts.push(t);
            }
        }

        PairTables {
            ltab,
            label_cols,
            s_label: labels.source_ids_raw(),
            t_label: labels.target_ids_raw(),
            lmax,
            ptab,
            prop_cols,
            s_prop: source.node_props_raw(),
            t_prop: target.node_props_raw(),
            t_leaf,
            t_level: target.levels_raw(),
            t_parent: target.parents_raw(),
            leaf_ts,
            internal_ts,
        }
    }

    /// The distinct-label score row for source node `s`.
    #[inline]
    fn label_row(&self, s: usize) -> &[f64] {
        let r = self.s_label[s] as usize * self.label_cols;
        &self.ltab[r..r + self.label_cols]
    }

    /// The distinct-props score row for source node `s`.
    #[inline]
    fn prop_row(&self, s: usize) -> &[f64] {
        let r = self.s_prop[s] as usize * self.prop_cols;
        &self.ptab[r..r + self.prop_cols]
    }
}

/// The wavefront, generic over the storage scalar. Rows are written in
/// place through [`par::WaveRows`] — no per-row `Vec`, no copy-back — and
/// each wave reads only rows of strictly smaller height, finished by earlier
/// waves, so every thread count yields bit-identical rows.
#[allow(clippy::too_many_arguments)]
fn run_waves<S: Score>(
    source: &PreparedSchema,
    config: &MatchConfig,
    tables: &PairTables,
    threads: usize,
    trace: &Trace,
    arena: &MatchArena,
    matrix: &mut SimMatrix,
) {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let data = S::data_vec_mut(matrix).expect("matrix storage matches the kernel scalar");
    let mut driver = par::WaveRows::new(data, rows, cols);
    for (w, wave) in source.waves_by_height().iter().enumerate() {
        // One span per wave, recorded by this coordinating thread after the
        // row join — never per cell. Workers lease one scratch set each and
        // count the cells their prefilter skipped.
        let t0 = trace.start();
        let states = driver.run(
            wave.iter().map(|s| s.index()),
            threads,
            || (arena.take_scratch(cols), 0u64),
            |(scratch, skipped), s, row, done| {
                *skipped += kernel_row::<S>(row, done, s, source, config, tables, scratch);
            },
        );
        let mut skipped = 0u64;
        for (scratch, n) in states {
            arena.put_scratch(scratch);
            skipped += n;
        }
        trace.finish(
            t0,
            Span {
                wave: w as u32,
                rows: wave.len() as u64,
                cells: (wave.len() * cols) as u64,
                skipped,
                ..Span::empty(Phase::HybridWave)
            },
        );
    }
}

/// Source node `s`'s full DP row, written in place into `row`. `done` holds
/// the rows of earlier waves; the children pass reads only those, as every
/// child has a strictly smaller subtree height. Returns the number of cells
/// the children-pass prefilter skipped.
fn kernel_row<S: Score>(
    row: &mut [S],
    done: &[&[S]],
    s: usize,
    source: &PreparedSchema,
    config: &MatchConfig,
    tables: &PairTables,
    scratch: &mut RowScratch,
) -> u64 {
    let weights = config.weights;
    let cols = tables.t_label.len();
    let row = &mut row[..cols];
    let lrow = tables.label_row(s);
    let prow = tables.prop_row(s);
    let s_level = source.levels_raw()[s];

    if source.leaf_flags_raw()[s] {
        // Leaf source: Equation 2 against leaf targets; against a subtree
        // the children axis contributes 0 (footnote 1). Two gathers and a
        // weighted sum per cell.
        for t in 0..cols {
            let l = lrow[tables.t_label[t] as usize];
            let p = prow[tables.t_prop[t] as usize];
            let q = if tables.t_leaf[t] {
                weights.leaf_qom(l, p)
            } else {
                let qomh = if s_level == tables.t_level[t] {
                    1.0
                } else {
                    0.0
                };
                weights.qom(l, p, qomh, 0.0)
            };
            row[t] = S::from_f64(q);
        }
        return 0;
    }

    let sn = source.tree().node(NodeId(s as u32));
    let skipped = children_pass::<S>(done, sn, source, config, tables, scratch);
    let n_children = sn.children.len();
    for t in 0..cols {
        let l = lrow[tables.t_label[t] as usize];
        let p = prow[tables.t_prop[t] as usize];
        let qomh = if s_level == tables.t_level[t] {
            1.0
        } else {
            0.0
        };
        let qomc = if tables.t_leaf[t] {
            // Subtree against a leaf: no coverage (footnote 1 allows the
            // comparison; the children axis simply contributes 0).
            0.0
        } else {
            children_qom(scratch.qsum[t], scratch.mcnt[t] as usize, n_children)
        };
        row[t] = S::from_f64(weights.qom(l, p, qomh, qomc));
    }
    skipped
}

/// The children pass for an internal source node. For every source child, a
/// *band scatter* folds the child's (finalized) row up to each target
/// parent — `band[p]` ends as the best threshold-clearing score among `p`'s
/// children, or −1 when none clears — and the band then accumulates into
/// the per-target QoM sum and matched count. Accumulation runs in
/// source-child order, so the `f64` sums are bit-identical to the reference
/// recursion's (max is order-free; the sum is not).
///
/// A child whose *cross-kind* bound (its best label score plus the property
/// and level axes, padded by [`PRUNE_MARGIN`]; no children credit) falls
/// below the Figure 3 threshold scans only same-kind targets: a cross-kind
/// cell provably cannot clear. Returns the number of cells skipped (never
/// read).
fn children_pass<S: Score>(
    done: &[&[S]],
    sn: &qmatch_xsd::SchemaNode,
    source: &PreparedSchema,
    config: &MatchConfig,
    tables: &PairTables,
    scratch: &mut RowScratch,
) -> u64 {
    let w = config.weights;
    let threshold = config.threshold;
    let cols = tables.t_label.len();
    scratch.qsum[..cols].fill(0.0);
    scratch.mcnt[..cols].fill(0);
    let mut skipped = 0u64;
    let scan = (cols - 1) as u64; // non-root targets per child row
    for &cs in &sn.children {
        let lmax = tables.lmax[tables.s_label[cs.index()] as usize];
        // `cs` has a strictly smaller subtree height than its parent, so an
        // earlier wave finished its row; an unfinished row is empty and
        // this slice panics.
        let child_row = &done[cs.index()][..cols];
        let band = &mut scratch.band[..cols];
        band.fill(-1.0);
        let cross_ub = w.label * lmax + (w.properties + w.level) + PRUNE_MARGIN;
        if cross_ub < threshold {
            // Cross-kind pairs carry no children credit, so only same-kind
            // targets can clear: scan just those.
            let kin = if source.leaf_flags_raw()[cs.index()] {
                &tables.leaf_ts
            } else {
                &tables.internal_ts
            };
            skipped += scan - kin.len() as u64;
            for &t in kin {
                let v = S::to_f64(child_row[t as usize]);
                if v >= threshold {
                    let p = tables.t_parent[t as usize] as usize;
                    if band[p] < v {
                        band[p] = v;
                    }
                }
            }
        } else {
            // The fast path: one contiguous scan of the child row.
            for (t, &cell) in child_row.iter().enumerate().skip(1) {
                let v = S::to_f64(cell);
                if v >= threshold {
                    let p = tables.t_parent[t] as usize;
                    if band[p] < v {
                        band[p] = v;
                    }
                }
            }
        }
        // Fold the band into the accumulators. A kept band value is the
        // overall per-parent max (kept values ≥ threshold dominate the
        // dropped ones), so this reproduces the reference `best ≥ threshold`
        // gate exactly; −1 marks parents with no clearing child.
        for (t, &b) in band.iter().enumerate() {
            if b >= 0.0 {
                scratch.qsum[t] += b;
                scratch.mcnt[t] += 1;
            }
        }
    }
    skipped
}

/// Classifies the match between the two roots on the paper's qualitative
/// taxonomy (§2.2), using the same per-axis evidence the quantitative run
/// uses. Runs a full hybrid match internally; when an outcome is already at
/// hand, use [`hybrid_root_category_from`] instead.
pub fn hybrid_root_category(
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
) -> MatchCategory {
    let session = MatchSession::new(*config);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    let outcome = session.hybrid(&sp, &tp);
    hybrid_root_category_from(source, target, config, &outcome)
}

/// Classifies the root pair from an existing hybrid [`MatchOutcome`] —
/// no rerun of the match; only the root labels are re-compared.
pub fn hybrid_root_category_from(
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
    outcome: &MatchOutcome,
) -> MatchCategory {
    let (sn, tn) = (source.node(source.root_id()), target.node(target.root_id()));
    let matcher = matcher_for_mode(config.lexicon);
    let grade = compare_single_labels(&sn.label, &tn.label, config.lexicon, &matcher).grade;
    root_category_with_label(source, target, config, outcome, grade)
}

/// The taxonomy classification with the root-label grade supplied by the
/// caller — the session path serves it from its cross-schema cache instead
/// of re-running the matcher.
pub(crate) fn root_category_with_label(
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
    outcome: &MatchOutcome,
    root_label: LabelGrade,
) -> MatchCategory {
    let (s, t) = (source.root_id(), target.root_id());
    let (sn, tn) = (source.node(s), target.node(t));

    let label = match root_label {
        LabelGrade::Exact => AxisGrade::Exact,
        LabelGrade::Relaxed => AxisGrade::Relaxed,
        LabelGrade::None => AxisGrade::None,
    };
    let props = compare_properties(&sn.properties, &tn.properties).grade;
    let level = if sn.level == tn.level {
        AxisGrade::Exact
    } else {
        AxisGrade::Relaxed
    };

    // §2.2 matches a child subtree "with all sub-trees in the [target]
    // schema" (PurchaseInfo finds its counterpart in the Purchase Order
    // *root*), so qualitative coverage considers every target node, not
    // only the root's children as the quantitative recursion does.
    let mut matched = 0usize;
    let mut any_relaxed = false;
    for &cs in &sn.children {
        let best = target
            .iter()
            .map(|(t_id, _)| outcome.matrix.get(cs, t_id))
            .fold(0.0f64, f64::max);
        if best >= config.threshold {
            matched += 1;
            if best < 0.999 {
                any_relaxed = true;
            }
        }
    }
    let coverage = CoverageGrade::classify(sn.children.len(), matched, any_relaxed);
    MatchCategory::combine(label, props, level, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{assert_thread_counts_agree, run_trees, Algorithm};
    use crate::model::Weights;
    use qmatch_xsd::{parse_schema, SchemaTree};

    fn hybrid(source: &SchemaTree, target: &SchemaTree, config: &MatchConfig) -> MatchOutcome {
        run_trees(&Algorithm::Hybrid, source, target, config, 1)
    }

    fn library() -> SchemaTree {
        SchemaTree::from_labels(
            "Library",
            &[
                ("Library", None),
                ("Title", Some(0)),
                ("Book", Some(0)),
                ("number", Some(2)),
                ("character", Some(2)),
                ("Writer", Some(2)),
            ],
        )
    }

    fn human() -> SchemaTree {
        SchemaTree::from_labels(
            "human",
            &[
                ("human", None),
                ("head", Some(0)),
                ("body", Some(0)),
                ("hands", Some(2)),
                ("man", Some(2)),
                ("legs", Some(2)),
            ],
        )
    }

    #[test]
    fn self_match_is_total_exact_scoring_one() {
        let t = library();
        let out = hybrid(&t, &t, &MatchConfig::default());
        assert!((out.total_qom - 1.0).abs() < 1e-9, "{}", out.total_qom);
        assert_eq!(
            hybrid_root_category(&t, &t, &MatchConfig::default()),
            MatchCategory::TotalExact
        );
        out.matrix.assert_normalized();
    }

    #[test]
    fn one_and_four_threads_agree_exactly() {
        assert_thread_counts_agree(&Algorithm::Hybrid);
    }

    #[test]
    fn root_category_from_outcome_matches_rerun() {
        let (lib, hum) = (library(), human());
        let config = MatchConfig::default();
        let outcome = hybrid(&lib, &hum, &config);
        assert_eq!(
            hybrid_root_category_from(&lib, &hum, &config, &outcome),
            hybrid_root_category(&lib, &hum, &config)
        );
    }

    #[test]
    fn figure9_hybrid_sits_between_the_two_extremes() {
        let (lib, hum) = (library(), human());
        let config = MatchConfig::default();
        let l = run_trees(&Algorithm::Linguistic, &lib, &hum, &config, 1).total_qom;
        let s = run_trees(&Algorithm::Structural, &lib, &hum, &config, 1).total_qom;
        let h = hybrid(&lib, &hum, &config).total_qom;
        assert!(l < 0.4, "linguistic low: {l}");
        assert!(s > 0.9, "structural high: {s}");
        assert!(h > l && h < s, "hybrid {h} must sit between {l} and {s}");
        // §5.1: the hybrid gravitates toward the higher individual value.
        assert!(
            h > (l + s) / 2.0 - 0.15,
            "hybrid {h} should not collapse to the low end"
        );
    }

    #[test]
    fn leaf_pairs_use_equation_two() {
        let a = SchemaTree::from_labels("x", &[("x", None), ("OrderNo", Some(0))]);
        let b = SchemaTree::from_labels("y", &[("y", None), ("OrderNo", Some(0))]);
        let out = hybrid(&a, &b, &MatchConfig::default());
        let sa = a.find_by_label("OrderNo").unwrap();
        let tb = b.find_by_label("OrderNo").unwrap();
        // Identical leaf (label 1.0, props 1.0): Eq. 2 gives exactly 1.0.
        assert!((out.matrix.get(sa, tb) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_gates_children_contributions() {
        let a = SchemaTree::from_labels("r", &[("r", None), ("alpha", Some(0))]);
        let b = SchemaTree::from_labels("r", &[("r", None), ("omega", Some(0))]);
        let strict = MatchConfig {
            threshold: 0.99,
            ..MatchConfig::default()
        };
        let lax = MatchConfig {
            threshold: 0.0,
            ..MatchConfig::default()
        };
        let out_strict = hybrid(&a, &b, &strict);
        let out_lax = hybrid(&a, &b, &lax);
        assert!(out_lax.total_qom > out_strict.total_qom);
    }

    #[test]
    fn weights_shift_the_balance() {
        let (lib, hum) = (library(), human());
        // All weight on the label axis: disparate labels sink the score.
        let label_heavy = MatchConfig::with_weights(Weights::new(1.0, 0.0, 0.0, 0.0).unwrap());
        // All weight on the children axis: identical structure lifts it.
        let children_heavy = MatchConfig::with_weights(Weights::new(0.0, 0.0, 0.0, 1.0).unwrap());
        let low = hybrid(&lib, &hum, &label_heavy).total_qom;
        let high = hybrid(&lib, &hum, &children_heavy).total_qom;
        assert!(low < 0.3, "{low}");
        assert!(high > 0.6, "{high}");
    }

    #[test]
    fn paper_po_worked_example_produces_relaxed_match() {
        // A miniature of Figures 1/2: the roots match total relaxed (§2.2).
        let po = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Quantity", Some(2)),
                ("UnitOfMeasure", Some(2)),
            ],
        );
        let purchase_order = SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Items", Some(0)),
                ("Item#", Some(2)),
                ("Qty", Some(2)),
                ("UOM", Some(2)),
            ],
        );
        let config = MatchConfig::default();
        let out = hybrid(&po, &purchase_order, &config);
        assert!(
            out.total_qom > 0.6,
            "closely related schemas: {}",
            out.total_qom
        );
        assert!(out.total_qom < 1.0, "but not exact: {}", out.total_qom);
        let cat = hybrid_root_category(&po, &purchase_order, &config);
        assert_eq!(cat, MatchCategory::TotalRelaxed);
    }

    #[test]
    fn leaf_vs_subtree_gets_no_children_credit() {
        let leaf = SchemaTree::from_labels("r", &[("r", None), ("x", Some(0))]);
        let deep = SchemaTree::from_labels("r", &[("r", None), ("x", Some(0)), ("y", Some(1))]);
        let out = hybrid(&leaf, &deep, &MatchConfig::default());
        let s_x = leaf.find_by_label("x").unwrap();
        let t_x = deep.find_by_label("x").unwrap();
        // Label exact + level exact + whatever the property axis yields
        // (the leaf is a string, the subtree complex), children axis 0.
        let props =
            compare_properties(&leaf.node(s_x).properties, &deep.node(t_x).properties).score;
        let expected = 0.3 + 0.2 * props + 0.1;
        assert!((out.matrix.get(s_x, t_x) - expected).abs() < 1e-9);
    }

    #[test]
    fn works_on_compiled_xsd_schemas() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:element name="PO"><xs:complexType><xs:sequence>
            <xs:element name="OrderNo" type="xs:integer"/>
            <xs:element name="PurchaseDate" type="xs:date"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let tgt = r#"<xs:schema xmlns:xs="x">
          <xs:element name="PurchaseOrder"><xs:complexType><xs:sequence>
            <xs:element name="OrderNo" type="xs:integer"/>
            <xs:element name="Date" type="xs:date"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let s = SchemaTree::compile(&parse_schema(src).unwrap()).unwrap();
        let t = SchemaTree::compile(&parse_schema(tgt).unwrap()).unwrap();
        let out = hybrid(&s, &t, &MatchConfig::default());
        assert!(out.total_qom > 0.75, "{}", out.total_qom);
        let s_date = s.find_by_label("PurchaseDate").unwrap();
        let t_date = t.find_by_label("Date").unwrap();
        assert!(out.matrix.get(s_date, t_date) > 0.6, "relaxed leaf pair");
    }

    #[test]
    fn asymmetric_directions_can_differ_on_partial_coverage() {
        // Source ⊂ target: all source children covered; reverse is partial.
        let small = SchemaTree::from_labels("r", &[("r", None), ("a", Some(0))]);
        let big = SchemaTree::from_labels(
            "r",
            &[("r", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(0))],
        );
        let config = MatchConfig::default();
        let fwd = hybrid(&small, &big, &config).total_qom;
        let rev = hybrid(&big, &small, &config).total_qom;
        assert!(fwd > rev, "total coverage {fwd} must beat partial {rev}");
    }
}
