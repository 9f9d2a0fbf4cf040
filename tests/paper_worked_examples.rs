//! The paper's §2.1/§2.2 worked examples, encoded as tests against the
//! Figure 1 (`PO`) and Figure 2 (`Purchase Order`) schemas. Each test quotes
//! the claim it verifies, so the taxonomy implementation stays anchored to
//! the prose.

use qmatch::core::explain::explain_pair;
use qmatch::core::taxonomy::{AxisGrade, CoverageGrade, MatchCategory};
use qmatch::datasets::figures::{po_fig1, purchase_order_fig2};
use qmatch::lexicon::{LabelGrade, NameMatcher};
use qmatch::prelude::*;
use qmatch::xsd::NodeId;

/// Runs `algorithm` over two trees in a fresh session.
fn run(
    algorithm: Algorithm,
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
) -> MatchOutcome {
    let session = MatchSession::new(*config);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    session.run(&algorithm, &sp, &tp).expect("valid algorithm")
}

fn trees() -> (SchemaTree, SchemaTree) {
    (po_fig1(), purchase_order_fig2())
}

fn node(tree: &SchemaTree, path: &str) -> NodeId {
    tree.find_by_path(path)
        .unwrap_or_else(|| panic!("missing path {path:?} in {}", tree.name()))
}

#[test]
fn orderno_labels_match_exactly() {
    // §2.1: "the label of the element OrderNo in the PO schema matches
    // exactly the label of element OrderNo in the Purchase Order schema."
    let matcher = NameMatcher::with_default_thesaurus();
    assert_eq!(
        matcher.compare("OrderNo", "OrderNo").grade,
        LabelGrade::Exact
    );
}

#[test]
fn uom_is_a_relaxed_acronym_match() {
    // §2.1: "the label of the element Unit Of Measure in the PO schema has
    // an acronym match with the label of element UOM ... denoting a relaxed
    // match along the label axis."
    let matcher = NameMatcher::with_default_thesaurus();
    let m = matcher.compare("UnitOfMeasure", "UOM");
    assert_eq!(m.grade, LabelGrade::Relaxed);
}

#[test]
fn quantity_vs_qty_is_a_relaxed_leaf_match() {
    // §2.2: "The match between the leaf elements Quantity ... and Qty ... is
    // said to be relaxed as the label Quantity has a relaxed match with the
    // label Qty. Their set of properties match exactly."
    let (po, order) = trees();
    let e = explain_pair(
        &po,
        &order,
        node(&po, "PO/PurchaseInfo/Lines/Quantity"),
        node(&order, "PurchaseOrder/Items/Qty"),
        &MatchConfig::default(),
    );
    assert_eq!(e.label.grade, AxisGrade::Relaxed, "{e}");
    assert!(e.qom > 0.85 && e.qom < 1.0, "relaxed leaf QoM: {}", e.qom);
}

#[test]
fn orderno_pair_is_an_exact_leaf_match() {
    // §2.2: "the match between the two leaf elements OrderNo ... and ...
    // OrderNo ... is exact as their labels and properties match exactly."
    let (po, order) = trees();
    let e = explain_pair(
        &po,
        &order,
        node(&po, "PO/OrderNo"),
        node(&order, "PurchaseOrder/OrderNo"),
        &MatchConfig::default(),
    );
    assert_eq!(e.category, MatchCategory::TotalExact, "{e}");
    assert!((e.qom - 1.0).abs() < 1e-9);
}

#[test]
fn lines_vs_items_is_total_relaxed() {
    // §2.2: "the QoM of the match between Lines and Items is said to be
    // total relaxed along the children axis. The elements Lines and Items
    // have a relaxed match along the label and level axis (they are at
    // different levels in the schema tree) ... there is a total relaxed
    // match between the elements Lines and Items."
    let (po, order) = trees();
    let e = explain_pair(
        &po,
        &order,
        node(&po, "PO/PurchaseInfo/Lines"),
        node(&order, "PurchaseOrder/Items"),
        &MatchConfig::default(),
    );
    assert_eq!(e.label.grade, AxisGrade::Relaxed, "{e}");
    assert_eq!(e.level.grade, AxisGrade::Relaxed, "different levels: {e}");
    assert_eq!(e.children.coverage, CoverageGrade::TotalRelaxed, "{e}");
    assert_eq!(e.category, MatchCategory::TotalRelaxed, "{e}");
    // All three children of Lines find partners above the threshold.
    assert!(e.children.children.iter().all(|c| c.kept), "{e}");
}

#[test]
fn item_matches_item_hash() {
    // §2.2: "the child Item of Lines has an exact match with the child
    // Item# of the element Items" — Item# tokenizes to (item, number), so
    // under this lexicon the pair grades relaxed-but-strong rather than
    // exact; it must still be Item's best partner among Items' children.
    let (po, order) = trees();
    let outcome = run(Algorithm::Hybrid, &po, &order, &MatchConfig::default());
    let item = node(&po, "PO/PurchaseInfo/Lines/Item");
    let best = order
        .node(node(&order, "PurchaseOrder/Items"))
        .children
        .iter()
        .max_by(|a, b| {
            outcome
                .matrix
                .get(item, **a)
                .total_cmp(&outcome.matrix.get(item, **b))
        })
        .copied()
        .unwrap();
    assert_eq!(order.node(best).label, "Item#");
}

#[test]
fn purchaseinfo_matches_the_purchase_order_root() {
    // §2.2: "Comparing PurchaseInfo with the node Purchase Order ... the two
    // nodes PurchaseInfo and Purchase Order have a total relaxed match along
    // the children axis. There is no level match between the two nodes.
    // Hence the node PurchaseInfo has a total relaxed match with the node
    // Purchase Order."
    let (po, order) = trees();
    let config = MatchConfig::default();
    let e = explain_pair(
        &po,
        &order,
        node(&po, "PO/PurchaseInfo"),
        order.root_id(),
        &config,
    );
    assert_eq!(e.level.grade, AxisGrade::Relaxed, "no level match: {e}");
    // Every PurchaseInfo child (BillingAddr, ShippingAddr, Lines) finds a
    // partner among Purchase Order's children.
    assert!(e.children.children.iter().all(|c| c.kept), "{e}");
    assert!(e.children.coverage.is_total(), "{e}");
    assert_eq!(e.category, MatchCategory::TotalRelaxed, "{e}");
}

#[test]
fn po_root_match_is_total_relaxed() {
    // §2.2: "Combining the matches along the different axes, the QoM for the
    // match between the PO and Purchase root nodes is said to be total
    // relaxed."
    use qmatch::core::algorithms::hybrid_root_category;
    let (po, order) = trees();
    assert_eq!(
        hybrid_root_category(&po, &order, &MatchConfig::default()),
        MatchCategory::TotalRelaxed
    );
}

#[test]
fn billing_and_shipping_addresses_find_their_counterparts() {
    // §2.2: "The children (leaf nodes) BillingAddr and ShippingAddr have a
    // relaxed match with the leaf nodes BillTo and ShipTo."
    let (po, order) = trees();
    let config = MatchConfig::default();
    let outcome = run(Algorithm::Hybrid, &po, &order, &config);
    let mapping = extract_mapping(&outcome.matrix, config.weights.acceptance_threshold());
    let pairs = mapping.to_path_pairs(&po, &order);
    assert!(
        pairs.contains(&(
            "PO/PurchaseInfo/BillingAddr".into(),
            "PurchaseOrder/BillTo".into()
        )),
        "{pairs:?}"
    );
    assert!(
        pairs.contains(&(
            "PO/PurchaseInfo/ShippingAddr".into(),
            "PurchaseOrder/ShipTo".into()
        )),
        "{pairs:?}"
    );
}

#[test]
fn total_exact_tops_the_goodness_hierarchy() {
    // §3: "a total exact is clearly a better match than a total relaxed or
    // the other classifications" — and "The highest match classification,
    // total exact, will always result in a QoM(n1,n2) = 1."
    let (po, _) = trees();
    let outcome = run(Algorithm::Hybrid, &po, &po, &MatchConfig::default());
    assert!((outcome.total_qom - 1.0).abs() < 1e-12);
    assert!(MatchCategory::TotalExact.rank() > MatchCategory::TotalRelaxed.rank());
    assert!(MatchCategory::TotalRelaxed.rank() > MatchCategory::PartialRelaxed.rank());
}

#[test]
fn min_occurs_zero_generalizes_one() {
    // §2.1: "minOccurs = 0 is a generalization of the constraint
    // minOccurs = 1" — a relaxed property match.
    use qmatch::core::props::compare_properties;
    use qmatch::xsd::Properties;
    let a = Properties {
        min_occurs: 0,
        ..Properties::default()
    };
    let b = Properties {
        min_occurs: 1,
        ..Properties::default()
    };
    let m = compare_properties(&a, &b);
    assert_eq!(m.grade, AxisGrade::Relaxed);
}
