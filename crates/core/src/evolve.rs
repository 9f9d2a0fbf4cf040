//! Schema evolution: the diff-driven incremental re-prepare.
//!
//! Registries are not write-once — schemas mutate continuously (renames,
//! moves, subtree inserts/deletes), and a `PUT` of revision *n+1* should not
//! pay the full prepare cost of revision *n+1* from scratch when revision
//! *n* is resident. This module is that incremental path (DESIGN.md §17),
//! layered on the [`crate::diff`] edit script:
//!
//! - [`MatchSession::diff_trees`] computes the [`TreeDiff`] between two tree
//!   revisions, under a [`Phase::Diff`] trace span.
//! - [`MatchSession::reprepare`] rebuilds a [`PreparedSchema`] for the new
//!   revision, reusing the old revision's interned symbols for unrenamed
//!   matched nodes and its structural tables (waves, levels, leaf flags,
//!   parents) verbatim when the diff carries no structural ops.
//!
//! The re-prepare is an *optimization*, never a semantic: it is
//! structurally identical to a scratch [`MatchSession::prepare`], and the
//! `qmatch-datasets` property tests pin that — and the bit-identity of a
//! hybrid match over either — over drift-generated mutation chains.

use crate::diff::TreeDiff;
use crate::intern::SymMap;
use crate::session::{MatchSession, PreparedSchema};
use crate::trace::{Phase, Span};
use qmatch_xsd::SchemaTree;
use std::sync::Arc;

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
    /// - matched, unrenamed nodes reuse `old`'s interned [`Symbol`](crate::intern::Symbol)s, and
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
        let old_distinct: SymMap<usize> = old
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
}
