//! Deterministic tree diff between two revisions of a schema.
//!
//! Schema registries are not write-once: a resident schema is re-`PUT` with
//! a handful of labels renamed, a subtree added, a leaf dropped. This
//! module computes what changed between two revisions: a typed edit script
//! plus the per-node dirty set. `qmatch diff` prints both; a re-`PUT`
//! itself prepares the new revision from scratch and does not consult a
//! diff.
//!
//! # Anchoring
//!
//! Nodes are matched top-down from the roots (which always correspond):
//! within a matched parent pair, children are anchored **by label first**
//! (each old child claims the first unclaimed new child with the same
//! label), and the leftovers are then paired **positionally** — those become
//! [`EditOp::Rename`]s. Unmatched old subtrees whose shape and properties
//! reappear identically among the unmatched new subtrees are recognized as
//! [`EditOp::Move`]s; whatever remains is an [`EditOp::InsertSubtree`] /
//! [`EditOp::DeleteSubtree`]. The procedure is a pure function of the two
//! trees — no hashing with randomized state, no tie-breaking on pointer
//! identity — so the same pair of trees always yields the same script.
//!
//! # Dirty set
//!
//! A node of the *new* tree is **dirty** when its own match-relevant facts
//! changed: its label, its properties, its level (moves), or its child
//! list (a child inserted, deleted, moved in/out, or reordered — the
//! children axis of the QoM, and the order of the `f64` child-sum
//! accumulation, both depend on it). The dirty fraction measures how much
//! of a schema a drift touches (see DESIGN.md §17).

use qmatch_xsd::{NodeId, SchemaTree};
use std::collections::HashMap;

/// One edit in the script produced by [`TreeDiff::compute`].
///
/// `Rename`, `Move`, `PropChange`, and `InsertSubtree` carry node ids of
/// the **new** tree; `DeleteSubtree` refers to the **old** tree (the
/// subtree has no counterpart in the new one). Paths are `/`-joined label
/// paths for human consumption.
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// A matched node's label changed.
    Rename {
        /// The node in the new tree.
        node: NodeId,
        /// Label path of the node in the new tree.
        path: String,
        /// The old label.
        from: String,
        /// The new label.
        to: String,
    },
    /// A matched subtree re-attached under a different parent, or a child
    /// re-ordered among its siblings (which changes the child-sum
    /// accumulation order of the parent's DP row).
    Move {
        /// The subtree root in the new tree.
        node: NodeId,
        /// Label path of the subtree root in the old tree.
        from_path: String,
        /// Label path of the subtree root in the new tree.
        to_path: String,
    },
    /// A subtree that exists only in the new tree.
    InsertSubtree {
        /// The subtree root in the new tree.
        root: NodeId,
        /// Label path of the subtree root in the new tree.
        path: String,
        /// Number of nodes in the inserted subtree.
        nodes: usize,
    },
    /// A subtree that exists only in the old tree.
    DeleteSubtree {
        /// The subtree root in the **old** tree.
        root: NodeId,
        /// Label path of the subtree root in the old tree.
        path: String,
        /// Number of nodes in the deleted subtree.
        nodes: usize,
    },
    /// A matched node's property profile changed.
    PropChange {
        /// The node in the new tree.
        node: NodeId,
        /// Label path of the node in the new tree.
        path: String,
    },
}

impl EditOp {
    /// Short lowercase tag (`rename` / `move` / `insert` / `delete` /
    /// `props`) for rendering and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            EditOp::Rename { .. } => "rename",
            EditOp::Move { .. } => "move",
            EditOp::InsertSubtree { .. } => "insert",
            EditOp::DeleteSubtree { .. } => "delete",
            EditOp::PropChange { .. } => "props",
        }
    }
}

impl std::fmt::Display for EditOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditOp::Rename { path, from, to, .. } => {
                write!(f, "rename {path} : {from} -> {to}")
            }
            EditOp::Move {
                from_path, to_path, ..
            } => write!(f, "move   {from_path} -> {to_path}"),
            EditOp::InsertSubtree { path, nodes, .. } => {
                write!(f, "insert {path} ({nodes} node(s))")
            }
            EditOp::DeleteSubtree { path, nodes, .. } => {
                write!(f, "delete {path} ({nodes} node(s))")
            }
            EditOp::PropChange { path, .. } => write!(f, "props  {path}"),
        }
    }
}

/// The diff between an old and a new revision of a schema tree, as
/// `qmatch diff` prints it: the edit script, the dirty set of the new
/// tree, and whether the node numbering changed.
#[derive(Debug, Clone)]
pub struct TreeDiff {
    ops: Vec<EditOp>,
    /// New-tree nodes whose own match-relevant facts changed.
    dirty: Vec<bool>,
    dirty_count: usize,
    /// Whether the old→new node mapping differs from the pre-order
    /// identity.
    shape_changed: bool,
}

impl TreeDiff {
    /// Diffs `old` against `new`. Deterministic: a pure function of the two
    /// trees.
    pub fn compute(old: &SchemaTree, new: &SchemaTree) -> TreeDiff {
        const NONE: u32 = u32::MAX;
        let (on, nn) = (old.len(), new.len());
        let mut old_to_new = vec![NONE; on];
        let mut new_to_old = vec![NONE; nn];
        let mut renamed = vec![false; nn];
        let mut dirty = vec![false; nn];
        // New-tree roots of subtrees matched as moves (kept out of the
        // insert/delete emission below).
        let mut moved_root = vec![false; nn];
        let mut reorder_moved = vec![false; nn];

        // ---- Top-down anchoring ----
        let mut stack = vec![(old.root_id(), new.root_id())];
        old_to_new[old.root_id().index()] = new.root_id().index() as u32;
        new_to_old[new.root_id().index()] = old.root_id().index() as u32;
        while let Some((o, n)) = stack.pop() {
            let oc = &old.node(o).children;
            let nc = &new.node(n).children;
            let mut claimed = vec![false; nc.len()];
            let mut pair = |oi: NodeId, ni: NodeId| {
                old_to_new[oi.index()] = ni.index() as u32;
                new_to_old[ni.index()] = oi.index() as u32;
            };
            // Pass 1: anchor by label, first unclaimed wins.
            let mut leftover_old: Vec<NodeId> = Vec::new();
            for &och in oc {
                let label = &old.node(och).label;
                match nc
                    .iter()
                    .enumerate()
                    .find(|(k, id)| !claimed[*k] && new.node(**id).label == *label)
                {
                    Some((k, &nch)) => {
                        claimed[k] = true;
                        pair(och, nch);
                    }
                    None => leftover_old.push(och),
                }
            }
            // Pass 2: pair leftovers positionally — these are renames.
            let leftover_new: Vec<usize> = (0..nc.len()).filter(|&k| !claimed[k]).collect();
            for (&och, &k) in leftover_old.iter().zip(&leftover_new) {
                claimed[k] = true;
                pair(och, nc[k]);
            }
            // Recurse into every matched pair, in new-tree child order so
            // op emission stays pre-order deterministic.
            for &nch in nc {
                let o_idx = new_to_old[nch.index()];
                if o_idx != NONE {
                    stack.push((NodeId(o_idx), nch));
                }
            }
        }

        // ---- Move extraction over the unmatched remainders ----
        // Key = the subtree's exact shape: (label, parent offset within the
        // subtree) in pre-order. Properties are verified pairwise on a key
        // hit; a mismatch leaves the pair as delete + insert.
        let subtree_key = |tree: &SchemaTree, root: NodeId| -> Vec<(String, usize)> {
            let ids = tree.subtree_ids(root);
            let local: HashMap<NodeId, usize> =
                ids.iter().enumerate().map(|(k, &id)| (id, k)).collect();
            ids.iter()
                .map(|&id| {
                    let node = tree.node(id);
                    let parent = node.parent.and_then(|p| local.get(&p).copied());
                    (node.label.clone(), parent.unwrap_or(0))
                })
                .collect()
        };
        let mut deleted_roots: Vec<NodeId> = Vec::new();
        for (id, node) in old.iter() {
            let inner = node.parent.is_some_and(|p| old_to_new[p.index()] == NONE);
            if old_to_new[id.index()] == NONE && !inner {
                deleted_roots.push(id);
            }
        }
        let mut by_key: HashMap<Vec<(String, usize)>, Vec<NodeId>> = HashMap::new();
        // Queue per key in old pre-order; earlier deletions claim first.
        for &root in deleted_roots.iter().rev() {
            by_key.entry(subtree_key(old, root)).or_default().push(root);
        }
        let inserted_roots: Vec<NodeId> = new
            .iter()
            .filter(|(id, node)| {
                new_to_old[id.index()] == NONE
                    && node.parent.is_none_or(|p| new_to_old[p.index()] != NONE)
            })
            .map(|(id, _)| id)
            .collect();
        for &nroot in &inserted_roots {
            let key = subtree_key(new, nroot);
            let Some(queue) = by_key.get_mut(&key) else {
                continue;
            };
            let Some(&oroot) = queue.last() else {
                continue;
            };
            let oids = old.subtree_ids(oroot);
            let nids = new.subtree_ids(nroot);
            debug_assert_eq!(oids.len(), nids.len(), "identical keys, identical sizes");
            let props_equal = oids
                .iter()
                .zip(&nids)
                .all(|(&oi, &ni)| old.node(oi).properties == new.node(ni).properties);
            if !props_equal {
                continue;
            }
            queue.pop();
            for (&oi, &ni) in oids.iter().zip(&nids) {
                old_to_new[oi.index()] = ni.index() as u32;
                new_to_old[ni.index()] = oi.index() as u32;
            }
            moved_root[nroot.index()] = true;
        }

        // ---- Dirty marking ----
        for (id, node) in new.iter() {
            let i = id.index();
            let o_idx = new_to_old[i];
            if o_idx == NONE {
                dirty[i] = true; // inserted
                if let Some(p) = node.parent {
                    if new_to_old[p.index()] != NONE {
                        dirty[p.index()] = true; // child list changed
                    }
                }
                continue;
            }
            let onode = old.node(NodeId(o_idx));
            if onode.label != node.label {
                renamed[i] = true;
                dirty[i] = true;
            }
            if onode.properties != node.properties {
                dirty[i] = true;
            }
            if onode.level != node.level {
                dirty[i] = true; // the level axis compares absolute levels
            }
        }
        for &oroot in &deleted_roots {
            if old_to_new[oroot.index()] != NONE {
                continue; // re-matched as a move
            }
            if let Some(op) = old.node(oroot).parent {
                let np = old_to_new[op.index()];
                if np != NONE {
                    dirty[np as usize] = true; // child list changed
                }
            }
        }
        // Moved subtrees: every node's level may have changed and both
        // attachment points lost/gained a child.
        for &nroot in &inserted_roots {
            if !moved_root[nroot.index()] {
                continue;
            }
            for id in new.subtree_ids(nroot) {
                dirty[id.index()] = true;
            }
            if let Some(p) = new.node(nroot).parent {
                dirty[p.index()] = true;
            }
            let oroot = NodeId(new_to_old[nroot.index()]);
            if let Some(op) = old.node(oroot).parent {
                let np = old_to_new[op.index()];
                if np != NONE {
                    dirty[np as usize] = true;
                }
            }
        }
        // Sibling reorders: the children-pass accumulates child sums in
        // source-child order, so a parent whose matched children appear in
        // a different relative order must recompute even though every
        // child's own row is unchanged.
        for (id, node) in new.iter() {
            if new_to_old[id.index()] == NONE {
                continue;
            }
            let mut max_seen: Option<u32> = None;
            for &ch in &node.children {
                let o_idx = new_to_old[ch.index()];
                if o_idx == NONE {
                    continue;
                }
                if max_seen.is_some_and(|m| o_idx < m) {
                    dirty[id.index()] = true;
                    if !moved_root[ch.index()] {
                        reorder_moved[ch.index()] = true;
                    }
                } else {
                    max_seen = Some(o_idx);
                }
            }
        }

        // ---- Edit script, in new-tree pre-order then old-tree pre-order ----
        let path = |tree: &SchemaTree, id: NodeId| tree.path_labels(id).join("/");
        let mut ops = Vec::new();
        for (id, node) in new.iter() {
            let i = id.index();
            let o_idx = new_to_old[i];
            if o_idx == NONE {
                let inner = node.parent.is_some_and(|p| new_to_old[p.index()] == NONE);
                if !inner {
                    ops.push(EditOp::InsertSubtree {
                        root: id,
                        path: path(new, id),
                        nodes: new.subtree_size(id),
                    });
                }
                continue;
            }
            let old_id = NodeId(o_idx);
            if moved_root[i] || reorder_moved[i] {
                ops.push(EditOp::Move {
                    node: id,
                    from_path: path(old, old_id),
                    to_path: path(new, id),
                });
            }
            if renamed[i] {
                ops.push(EditOp::Rename {
                    node: id,
                    path: path(new, id),
                    from: old.node(old_id).label.clone(),
                    to: node.label.clone(),
                });
            }
            if old.node(old_id).properties != node.properties {
                ops.push(EditOp::PropChange {
                    node: id,
                    path: path(new, id),
                });
            }
        }
        for (id, node) in old.iter() {
            let inner = node.parent.is_some_and(|p| old_to_new[p.index()] == NONE);
            if old_to_new[id.index()] == NONE && !inner {
                ops.push(EditOp::DeleteSubtree {
                    root: id,
                    path: path(old, id),
                    nodes: old.subtree_size(id),
                });
            }
        }

        // The identity test must look at the mapping, not the op list: a
        // delete under one parent plus an insert under another can leave
        // every node matched with per-parent order intact, yet shift the
        // global pre-order numbering (old 9 ↔ new 8, old 8 ↔ new 9).
        let shape_changed = on != nn || old_to_new.iter().enumerate().any(|(i, &v)| v != i as u32);
        let dirty_count = dirty.iter().filter(|&&d| d).count();
        TreeDiff {
            ops,
            dirty,
            dirty_count,
            shape_changed,
        }
    }

    /// The edit script, new-tree pre-order first, deletions last.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// `true` when the trees are identical node for node (no edits, empty
    /// dirty set, identity mapping).
    pub fn is_identity(&self) -> bool {
        self.ops.is_empty() && !self.shape_changed
    }

    /// Whether the old→new node mapping differs from the pre-order
    /// identity. Any structural edit (insert/delete/move/reorder) does
    /// this, but so does a delete-plus-insert under different parents that
    /// leaves every node matched yet renumbers the pre-order.
    pub fn shape_changed(&self) -> bool {
        self.shape_changed
    }

    /// Number of new-tree nodes whose own match-relevant facts changed.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Dirty nodes as a fraction of the new tree.
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_count as f64 / self.dirty.len().max(1) as f64
    }

    /// Whether a new-tree node is in the dirty set.
    #[inline]
    pub fn is_dirty(&self, new_node: NodeId) -> bool {
        self.dirty[new_node.index()]
    }

    /// Per-kind totals of the edit script (for the CLI summary).
    pub fn op_counts(&self) -> EditCounts {
        let mut c = EditCounts::default();
        for op in &self.ops {
            match op {
                EditOp::Rename { .. } => c.renames += 1,
                EditOp::Move { .. } => c.moves += 1,
                EditOp::InsertSubtree { nodes, .. } => {
                    c.inserts += 1;
                    c.inserted_nodes += nodes;
                }
                EditOp::DeleteSubtree { nodes, .. } => {
                    c.deletes += 1;
                    c.deleted_nodes += nodes;
                }
                EditOp::PropChange { .. } => c.prop_changes += 1,
            }
        }
        c
    }
}

/// Per-kind op totals of an edit script (see [`TreeDiff::op_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditCounts {
    /// Number of [`EditOp::Rename`] ops.
    pub renames: usize,
    /// Number of [`EditOp::Move`] ops.
    pub moves: usize,
    /// Number of [`EditOp::InsertSubtree`] ops.
    pub inserts: usize,
    /// Total nodes across inserted subtrees.
    pub inserted_nodes: usize,
    /// Number of [`EditOp::DeleteSubtree`] ops.
    pub deletes: usize,
    /// Total nodes across deleted subtrees.
    pub deleted_nodes: usize,
    /// Number of [`EditOp::PropChange`] ops.
    pub prop_changes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn identical_trees_diff_to_identity() {
        let a = po();
        let diff = TreeDiff::compute(&a, &a);
        assert!(diff.is_identity());
        assert!(!diff.shape_changed());
        assert_eq!(diff.dirty_count(), 0);
        for (id, _) in a.iter() {
            assert!(!diff.is_dirty(id));
        }
    }

    #[test]
    fn rename_dirties_only_the_renamed_node() {
        let old = po();
        let new = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Qty", Some(2)), // Quantity -> Qty
            ],
        );
        let diff = TreeDiff::compute(&old, &new);
        assert_eq!(diff.ops().len(), 1);
        assert!(
            matches!(&diff.ops()[0], EditOp::Rename { from, to, .. }
                if from == "Quantity" && to == "Qty"),
            "{:?}",
            diff.ops()
        );
        assert!(!diff.shape_changed());
        assert!(diff.is_dirty(NodeId(4)));
        // Ancestors of a renamed node keep their own facts: not dirty.
        assert!(!diff.is_dirty(NodeId(2)), "Lines is clean");
        assert!(!diff.is_dirty(NodeId(0)), "the root is clean");
        assert_eq!(diff.dirty_count(), 1);
    }

    #[test]
    fn insert_and_delete_are_subtree_ops() {
        let old = po();
        let new = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Quantity", Some(2)),
                ("Ship", Some(0)),
                ("Carrier", Some(5)),
            ],
        );
        let diff = TreeDiff::compute(&old, &new);
        let counts = diff.op_counts();
        assert_eq!(counts.inserts, 1);
        assert_eq!(counts.inserted_nodes, 2, "Ship subtree counted once");
        assert!(diff.shape_changed());
        let back = TreeDiff::compute(&new, &old);
        assert_eq!(back.op_counts().deletes, 1);
        assert_eq!(back.op_counts().deleted_nodes, 2);
        // Deleting Ship dirties its former parent (the root) in the new tree.
        assert!(back.is_dirty(NodeId(0)));
    }

    #[test]
    fn pure_move_is_recognized() {
        let old = SchemaTree::from_labels(
            "R",
            &[
                ("R", None),
                ("A", Some(0)),
                ("Sub", Some(1)),
                ("Leaf", Some(2)),
                ("B", Some(0)),
            ],
        );
        let new = SchemaTree::from_labels(
            "R",
            &[
                ("R", None),
                ("A", Some(0)),
                ("B", Some(0)),
                ("Sub", Some(2)),
                ("Leaf", Some(3)),
            ],
        );
        let diff = TreeDiff::compute(&old, &new);
        let counts = diff.op_counts();
        assert_eq!(counts.moves, 1, "{:?}", diff.ops());
        assert_eq!(counts.inserts, 0);
        assert_eq!(counts.deletes, 0);
        // The moved subtree is one op on its root.
        let moved = EditOp::Move {
            node: NodeId(3),
            from_path: "R/A/Sub".to_owned(),
            to_path: "R/B/Sub".to_owned(),
        };
        assert!(diff.ops().contains(&moved), "{:?}", diff.ops());
        // Both attachment points are dirty.
        assert!(diff.is_dirty(NodeId(1)), "old parent A");
        assert!(diff.is_dirty(NodeId(2)), "new parent B");
    }

    #[test]
    fn sibling_reorder_dirties_the_parent() {
        let old = SchemaTree::from_labels("R", &[("R", None), ("A", Some(0)), ("B", Some(0))]);
        let new = SchemaTree::from_labels("R", &[("R", None), ("B", Some(0)), ("A", Some(0))]);
        let diff = TreeDiff::compute(&old, &new);
        assert!(diff.is_dirty(NodeId(0)), "accumulation order changed");
        assert!(!diff.is_identity());
        assert_eq!(diff.op_counts().moves, 1, "{:?}", diff.ops());
        // Children of a reordered parent still map by label: A, now at
        // new index 2, is the one child that moved.
        let moved = EditOp::Move {
            node: NodeId(2),
            from_path: "R/A".to_owned(),
            to_path: "R/A".to_owned(),
        };
        assert!(diff.ops().contains(&moved), "{:?}", diff.ops());
    }

    #[test]
    fn root_rename_keeps_the_anchor() {
        let old = po();
        let new = SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Quantity", Some(2)),
            ],
        );
        let diff = TreeDiff::compute(&old, &new);
        assert!(
            matches!(
                diff.ops(),
                [EditOp::Rename {
                    node: NodeId(0),
                    ..
                }]
            ),
            "{:?}",
            diff.ops()
        );
        assert!(!diff.shape_changed());
        assert_eq!(diff.dirty_count(), 1, "only the root changes");
    }

    #[test]
    fn diff_is_deterministic() {
        let old = po();
        let new = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("Number", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Extra", Some(2)),
            ],
        );
        let a = TreeDiff::compute(&old, &new);
        let b = TreeDiff::compute(&old, &new);
        assert_eq!(a.ops(), b.ops());
        assert_eq!(a.dirty, b.dirty);
    }
}
