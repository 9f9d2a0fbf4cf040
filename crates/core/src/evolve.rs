//! Schema evolution: diff-driven incremental re-prepare and re-match.
//!
//! Registries are not write-once — schemas mutate continuously (renames,
//! moves, subtree inserts/deletes), and a `PUT` of revision *n+1* should not
//! pay the full prepare + DP cost of revision *n+1* from scratch when
//! revision *n* is resident. This module is the incremental path
//! (DESIGN.md §17), layered on the [`crate::diff`] edit script:
//!
//! - [`MatchSession::diff_trees`] computes the [`TreeDiff`] between two tree
//!   revisions, under a [`Phase::Diff`] trace span.
//! - [`MatchSession::reprepare`] rebuilds a [`PreparedSchema`] for the new
//!   revision, reusing the old revision's interned symbols for unrenamed
//!   matched nodes and its structural tables (waves, levels, leaf flags,
//!   parents) verbatim when the diff carries no structural ops.
//! - [`MatchSession::rematch`] recomputes only the DP rows in the diff's
//!   recompute closure (dirty nodes plus their ancestors), copying every
//!   other row bit-for-bit out of the previous outcome, and falls back
//!   losslessly to a full recompute when the closure exceeds
//!   [`EVOLVE_FALLBACK_THRESHOLD`] of the tree.
//!
//! Everything here is an *optimization*, never a semantic: each entry point
//! is bit-identical to its from-scratch counterpart by construction (a DP
//! row is a pure function of the node's own facts and its children's
//! finalized rows), and the `qmatch-datasets` property tests pin that over
//! drift-generated mutation chains.

use crate::algorithms::{hybrid_match_impl, hybrid_rematch_impl, LabelMatrix, MatchOutcome};
use crate::diff::TreeDiff;
use crate::intern::Symbol;
use crate::matrix::Precision;
use crate::session::{MatchSession, PreparedSchema};
use crate::trace::{Phase, Span};
use qmatch_xsd::SchemaTree;
use std::collections::HashMap;
use std::sync::Arc;

/// Recompute-closure fraction above which [`MatchSession::rematch`] falls
/// back to a full recompute. Past this point the incremental driver saves
/// less than it spends on diff bookkeeping and row copies, and the full
/// path's contiguous writes are kinder to the cache. The fallback is
/// lossless — both paths produce bit-identical matrices.
pub const EVOLVE_FALLBACK_THRESHOLD: f64 = 0.5;

/// The result of [`MatchSession::rematch`]: the outcome plus how it was
/// obtained, so callers (serve metrics, `bench_evolve`) can attribute cost.
#[derive(Debug)]
pub struct Rematch {
    /// The finished match — bit-identical to a full hybrid
    /// [`MatchSession::run`] over the same pair.
    pub outcome: MatchOutcome,
    /// Whether the incremental driver ran (`false` = lossless fallback to
    /// the full wavefront).
    pub incremental: bool,
    /// DP rows actually recomputed (the whole tree on fallback).
    pub rows_recomputed: usize,
    /// The label matrix of this `(source, target)` pair, retained so the
    /// *next* revision's [`MatchSession::rematch_evolved`] can copy the
    /// rows of unchanged labels instead of re-walking the session cache —
    /// on large schemas that lookup traffic, not the DP, dominates the
    /// re-match wall time.
    pub labels: LabelMatrix,
}

impl MatchSession {
    /// Computes the deterministic [`TreeDiff`] between two revisions of a
    /// schema, recording a [`Phase::Diff`] span (`rows` = new-tree nodes,
    /// `cells` = edit ops, `skipped` = rows the recompute closure excludes).
    pub fn diff_trees(&self, old: &SchemaTree, new: &SchemaTree) -> TreeDiff {
        let t0 = self.trace().start();
        let diff = TreeDiff::compute(old, new);
        self.trace().finish(
            t0,
            Span {
                rows: new.len() as u64,
                cells: diff.ops().len() as u64,
                skipped: (new.len() - diff.recompute_count()) as u64,
                ..Span::empty(Phase::Diff)
            },
        );
        diff
    }

    /// Re-derives the prepared artifacts for `new_tree` given the previous
    /// revision's `old` prepared schema and the `diff` between them —
    /// structurally identical to [`MatchSession::prepare`]`(new_tree)`
    /// (pinned by `assert_structural_eq` property tests), but:
    ///
    /// - matched, unrenamed nodes reuse `old`'s interned [`Symbol`]s, and
    ///   distinct labels already in `old`'s tables reuse their folded forms
    ///   and token vectors without re-entering the interner;
    /// - when the diff carries no structural ops
    ///   (`!diff.shape_changed()`), the wave schedules, levels, leaf
    ///   flags/partitions, and parent table are cloned from `old` verbatim
    ///   — the old→new mapping is the identity then, so they are the same
    ///   tables.
    ///
    /// `old` must have been prepared by **this** session (its symbols index
    /// this session's interner) and `diff` must be the diff of
    /// `old.tree()` → `new_tree`.
    pub fn reprepare(
        &self,
        old: &PreparedSchema,
        new_tree: impl Into<Arc<SchemaTree>>,
        diff: &TreeDiff,
    ) -> PreparedSchema {
        // Generic only in the conversion, like `prepare`.
        self.reprepare_shared(old, new_tree.into(), diff)
    }

    fn reprepare_shared(
        &self,
        old: &PreparedSchema,
        new_tree: Arc<SchemaTree>,
        diff: &TreeDiff,
    ) -> PreparedSchema {
        debug_assert_eq!(diff.old_len(), old.tree().len(), "diff matches old");
        debug_assert_eq!(diff.new_len(), new_tree.len(), "diff matches new");
        let t0 = self.trace().start();
        let mut reused_symbols = 0u64;
        let old_distinct: HashMap<Symbol, usize> = old
            .distinct
            .iter()
            .enumerate()
            .map(|(k, &s)| (s, k))
            .collect();
        let prepared = {
            // Symbols are session-global and interning is idempotent, so a
            // clean node's old symbol IS what intern() would return — reuse
            // skips the string hash. Renamed and inserted nodes go through
            // the interner as in `prepare`.
            let mut interner = self.interner().lock().expect("interner lock");
            let symbols = new_tree
                .iter()
                .map(|(id, node)| match diff.old_of(id) {
                    Some(o) if !diff.is_renamed(id) => {
                        reused_symbols += 1;
                        old.symbols[o.index()]
                    }
                    _ => interner.intern(&node.label),
                })
                .collect();
            // Folded/token copies come from the old tables when the label
            // was already distinct there (they are copies of the same
            // interner entries), else from the interner. With no
            // structural edit ops the old→new node mapping is the pre-order
            // identity, so the old structural tables describe the new tree
            // verbatim.
            PreparedSchema::assemble(
                new_tree,
                symbols,
                |symbol| match old_distinct.get(&symbol) {
                    Some(&k) => (
                        old.distinct_folded[k].clone(),
                        old.distinct_tokens[k].clone(),
                    ),
                    None => (
                        interner.folded(symbol).to_owned(),
                        interner.tokens(symbol).to_vec(),
                    ),
                },
                (!diff.shape_changed()).then_some(old),
            )
        };
        self.trace().finish(
            t0,
            Span {
                rows: prepared.tree().len() as u64,
                cells: prepared.distinct.len() as u64,
                cache_hits: reused_symbols,
                ..Span::empty(Phase::Prepare)
            },
        );
        prepared
    }

    /// Incremental hybrid re-match at the session's configured precision;
    /// see [`MatchSession::rematch_with_precision`].
    pub fn rematch(
        &self,
        new_source: &PreparedSchema,
        target: &PreparedSchema,
        diff: &TreeDiff,
        previous: &MatchOutcome,
    ) -> Rematch {
        self.rematch_with_precision(new_source, target, diff, previous, self.config().precision)
    }

    /// Re-matches an evolved source against an unchanged target, given the
    /// `diff` old→new and the `previous` outcome of matching the *old*
    /// source against the same target in this session at `precision`.
    ///
    /// Rows outside the diff's recompute closure are copied bit-for-bit
    /// from `previous`; rows inside it rerun the standard wave kernel.
    /// When the closure exceeds [`EVOLVE_FALLBACK_THRESHOLD`] of the tree —
    /// or `previous` does not line up with `diff`/`target`/`precision` —
    /// the full wavefront runs instead. Either way the result is
    /// bit-identical to a hybrid [`MatchSession::run`] over `(new_source,
    /// target)`.
    pub fn rematch_with_precision(
        &self,
        new_source: &PreparedSchema,
        target: &PreparedSchema,
        diff: &TreeDiff,
        previous: &MatchOutcome,
        precision: Precision,
    ) -> Rematch {
        self.rematch_inner(None, new_source, target, diff, previous, precision)
    }

    /// [`MatchSession::rematch`] that additionally reuses the *old*
    /// revision's label matrix: rows of distinct labels shared between the
    /// revisions are copied wholesale out of `old_labels` instead of being
    /// re-fetched pairwise from the session cache. Label comparisons are
    /// pure functions of the symbol pair, so the result stays bit-identical
    /// to a hybrid [`MatchSession::run`]; what changes is that the label
    /// phase becomes O(changed labels), which is what lets the incremental
    /// path actually win on large schemas.
    ///
    /// `old_labels` must be the matrix previously built for `(old_source,
    /// target)` *against the same `target`* — take it from the previous
    /// step's [`Rematch::labels`], or seed a chain with
    /// [`MatchSession::label_matrix`]. If its shape does not line up, the
    /// reuse is skipped (never wrong, just slower).
    #[allow(clippy::too_many_arguments)]
    pub fn rematch_evolved(
        &self,
        old_source: &PreparedSchema,
        old_labels: &LabelMatrix,
        new_source: &PreparedSchema,
        target: &PreparedSchema,
        diff: &TreeDiff,
        previous: &MatchOutcome,
    ) -> Rematch {
        self.rematch_inner(
            Some((old_source, old_labels)),
            new_source,
            target,
            diff,
            previous,
            self.config().precision,
        )
    }

    fn rematch_inner(
        &self,
        reuse: Option<(&PreparedSchema, &LabelMatrix)>,
        new_source: &PreparedSchema,
        target: &PreparedSchema,
        diff: &TreeDiff,
        previous: &MatchOutcome,
        precision: Precision,
    ) -> Rematch {
        debug_assert_eq!(diff.new_len(), new_source.tree().len(), "diff vs new");
        // Both arms need the label matrix, and both produce bit-identical
        // tables whether built fresh or evolved from the old revision's.
        let labels = reuse
            .and_then(|(old_source, old_labels)| {
                self.pair_labels_evolved(old_source, old_labels, new_source, target)
            })
            .unwrap_or_else(|| self.pair_labels(new_source, target));
        let threads = self.threads_for(new_source.tree().len() * target.tree().len());
        let compatible = previous.matrix.rows() == diff.old_len()
            && previous.matrix.cols() == target.tree().len()
            && previous.matrix.precision() == precision;
        if !compatible || diff.recompute_fraction() > EVOLVE_FALLBACK_THRESHOLD {
            // Mirrors `hybrid_with(new_source, target, precision)` exactly,
            // with the already-built labels.
            let outcome = hybrid_match_impl(
                new_source,
                target,
                self.config(),
                &labels,
                threads,
                self.trace(),
                self.arena(),
                precision,
            );
            return Rematch {
                outcome,
                incremental: false,
                rows_recomputed: new_source.tree().len(),
                labels,
            };
        }
        let outcome = hybrid_rematch_impl(
            new_source,
            target,
            self.config(),
            &labels,
            diff,
            &previous.matrix,
            threads,
            self.trace(),
            self.arena(),
            precision,
        );
        Rematch {
            outcome,
            incremental: true,
            rows_recomputed: diff.recompute_count(),
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MatchConfig;

    fn po() -> SchemaTree {
        SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Quantity", Some(2)),
            ],
        )
    }

    fn po_renamed() -> SchemaTree {
        SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Qty", Some(2)),
            ],
        )
    }

    fn po_grown() -> SchemaTree {
        SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Quantity", Some(2)),
                ("UnitPrice", Some(2)),
                ("ShipTo", Some(0)),
                ("City", Some(6)),
            ],
        )
    }

    fn target() -> SchemaTree {
        SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Items", Some(0)),
                ("Item", Some(2)),
                ("Qty", Some(2)),
                ("DeliverTo", Some(0)),
            ],
        )
    }

    #[test]
    fn reprepare_matches_prepare_from_scratch() {
        let session = MatchSession::new(MatchConfig::default());
        for new_tree in [po(), po_renamed(), po_grown()] {
            let old_tree = po();
            let old = session.prepare(&old_tree);
            let diff = session.diff_trees(&old_tree, &new_tree);
            let incremental = session.reprepare(&old, &new_tree, &diff);
            let scratch = session.prepare(&new_tree);
            incremental.assert_structural_eq(&scratch);
        }
    }

    #[test]
    fn rematch_is_bit_identical_to_full_hybrid() {
        let session = MatchSession::new(MatchConfig::default());
        let (old_tree, tgt) = (po(), target());
        let (old, pt) = (session.prepare(&old_tree), session.prepare(&tgt));
        let previous = session.hybrid(&old, &pt);
        for new_tree in [po(), po_renamed(), po_grown()] {
            let diff = session.diff_trees(&old_tree, &new_tree);
            let new = session.reprepare(&old, &new_tree, &diff);
            let got = session.rematch(&new, &pt, &diff, &previous);
            let want = session.hybrid(&new, &pt);
            assert_eq!(got.outcome.matrix, want.matrix);
            assert_eq!(got.outcome.total_qom, want.total_qom);
            if got.incremental {
                assert_eq!(got.rows_recomputed, diff.recompute_count());
            } else {
                assert_eq!(got.rows_recomputed, new_tree.len());
            }
        }
    }

    #[test]
    fn rematch_evolved_copies_label_rows_bit_identically() {
        let session = MatchSession::new(MatchConfig::default());
        let (old_tree, tgt) = (po(), target());
        let (old, pt) = (session.prepare(&old_tree), session.prepare(&tgt));
        let previous = session.hybrid(&old, &pt);
        let old_labels = session.label_matrix(&old, &pt);
        for new_tree in [po(), po_renamed(), po_grown()] {
            let diff = session.diff_trees(&old_tree, &new_tree);
            let new = session.reprepare(&old, &new_tree, &diff);
            let got = session.rematch_evolved(&old, &old_labels, &new, &pt, &diff, &previous);
            let want = session.hybrid(&new, &pt);
            assert_eq!(got.outcome.matrix, want.matrix);
            assert_eq!(got.outcome.total_qom, want.total_qom);
            // The returned matrix — part copied rows, part fresh — must be
            // indistinguishable from one built from scratch for the pair.
            let scratch = session.label_matrix(&new, &pt);
            assert_eq!(got.labels.distinct_cols_raw(), scratch.distinct_cols_raw());
            assert_eq!(got.labels.distinct_rows_raw(), scratch.distinct_rows_raw());
            assert_eq!(got.labels.score_table(), scratch.score_table());
        }
    }

    #[test]
    fn rematch_evolved_with_misshapen_old_labels_stays_correct() {
        let session = MatchSession::new(MatchConfig::default());
        let (old_tree, tgt) = (po(), target());
        let (old, pt) = (session.prepare(&old_tree), session.prepare(&tgt));
        let previous = session.hybrid(&old, &pt);
        // A label matrix for the wrong pair (self-match): reuse must be
        // skipped, never trusted into a wrong table.
        let wrong = session.label_matrix(&old, &old);
        let new_tree = po_grown();
        let diff = session.diff_trees(&old_tree, &new_tree);
        let new = session.reprepare(&old, &new_tree, &diff);
        let got = session.rematch_evolved(&old, &wrong, &new, &pt, &diff, &previous);
        assert_eq!(got.outcome.matrix, session.hybrid(&new, &pt).matrix);
    }

    #[test]
    fn identity_rematch_recomputes_nothing() {
        let session = MatchSession::new(MatchConfig::default());
        let (tree, tgt) = (po(), target());
        let (p, pt) = (session.prepare(&tree), session.prepare(&tgt));
        let previous = session.hybrid(&p, &pt);
        let diff = session.diff_trees(&tree, &tree);
        assert!(diff.is_identity());
        let got = session.rematch(&p, &pt, &diff, &previous);
        assert!(got.incremental);
        assert_eq!(got.rows_recomputed, 0);
        assert_eq!(got.outcome.matrix, previous.matrix);
    }

    #[test]
    fn oversized_closures_fall_back_to_full_recompute() {
        let session = MatchSession::new(MatchConfig::default());
        let (old_tree, tgt) = (po(), target());
        // Rename every node: the closure is the whole tree.
        let new_tree = SchemaTree::from_labels(
            "PO2",
            &[
                ("PO2", None),
                ("Num", Some(0)),
                ("Rows", Some(0)),
                ("Entry", Some(2)),
                ("Count", Some(2)),
            ],
        );
        let (old, pt) = (session.prepare(&old_tree), session.prepare(&tgt));
        let previous = session.hybrid(&old, &pt);
        let diff = session.diff_trees(&old_tree, &new_tree);
        assert!(diff.recompute_fraction() > EVOLVE_FALLBACK_THRESHOLD);
        let new = session.reprepare(&old, &new_tree, &diff);
        let got = session.rematch(&new, &pt, &diff, &previous);
        assert!(!got.incremental);
        assert_eq!(got.outcome.matrix, session.hybrid(&new, &pt).matrix);
    }

    #[test]
    fn mismatched_previous_outcomes_fall_back() {
        let session = MatchSession::new(MatchConfig::default());
        let (old_tree, tgt) = (po(), target());
        let (old, pt) = (session.prepare(&old_tree), session.prepare(&tgt));
        // A previous outcome of the wrong shape (self-match, 5×5 not 5×6).
        let wrong = session.hybrid(&old, &old);
        let diff = session.diff_trees(&old_tree, &old_tree);
        let got = session.rematch(&old, &pt, &diff, &wrong);
        assert!(!got.incremental, "shape mismatch must not be trusted");
        assert_eq!(got.outcome.matrix, session.hybrid(&old, &pt).matrix);
    }

    #[test]
    fn rematch_honors_precision_overrides() {
        let session = MatchSession::new(MatchConfig::default());
        // One leaf rename in the 8-node tree: closure {City, ShipTo, PO} is
        // 3/8, safely under the fallback threshold.
        let old_tree = po_grown();
        let new_tree = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Quantity", Some(2)),
                ("UnitPrice", Some(2)),
                ("ShipTo", Some(0)),
                ("Town", Some(6)),
            ],
        );
        let tgt = target();
        let (old, pt) = (session.prepare(&old_tree), session.prepare(&tgt));
        let previous = session.hybrid_with(&old, &pt, Precision::F32);
        let diff = session.diff_trees(&old_tree, &new_tree);
        let new = session.reprepare(&old, &new_tree, &diff);
        let got =
            session.rematch_with_precision(&new, &pt, &diff, &previous.clone(), Precision::F32);
        assert!(got.incremental);
        let want = session.hybrid_with(&new, &pt, Precision::F32);
        assert_eq!(got.outcome.matrix, want.matrix);
        // An f64 request against an f32 previous falls back, still correct.
        let cross = session.rematch_with_precision(&new, &pt, &diff, &previous, Precision::F64);
        assert!(!cross.incremental);
        assert_eq!(
            cross.outcome.matrix,
            session.hybrid_with(&new, &pt, Precision::F64).matrix
        );
    }
}
