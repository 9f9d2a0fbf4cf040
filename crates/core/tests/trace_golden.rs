//! Golden span-sequence tests over the paper's worked example (the
//! Figure 1 `PO` schema matched against the `PurchaseOrder` schema).
//!
//! The trace contract these tests pin down:
//!
//! - spans are recorded once per phase by the coordinating thread, so the
//!   sequence is *deterministic* — identical for one and four worker
//!   threads, and identical across repeated runs;
//! - the wave spans follow the bottom-up wavefront exactly (one span per
//!   height class, rows = nodes in the wave, cells = rows × target size),
//!   re-derived here from the tree structure independently of the engine;
//! - tracing only observes: a recorder-attached match is bit-identical to
//!   a sink-free match.

use qmatch_core::algorithms::{Algorithm, MatchOutcome};
use qmatch_core::model::MatchConfig;
use qmatch_core::session::MatchSession;
use qmatch_core::trace::{Phase, Recorder, Span};
use qmatch_xsd::{parse_schema, SchemaTree};
use std::sync::Arc;

/// The paper's Figure 1 `PO` schema (10 elements, max depth 3).
const PO_XSD: &str = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="OrderNo" type="xs:integer"/>
        <xs:element name="PurchaseInfo">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="BillingAddr" type="xs:string"/>
              <xs:element name="ShippingAddr" type="xs:string"/>
              <xs:element name="Lines">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="Item" type="xs:string"/>
                    <xs:element name="Quantity" type="xs:positiveInteger"/>
                    <xs:element name="UnitOfMeasure" type="xs:string"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
        <xs:element name="PurchaseDate" type="xs:date"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

/// The second purchase-order schema of the worked example (9 elements).
const PURCHASE_ORDER_XSD: &str = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="OrderNo" type="xs:integer"/>
        <xs:element name="Date" type="xs:date"/>
        <xs:element name="BillTo" type="xs:string"/>
        <xs:element name="ShipTo" type="xs:string"/>
        <xs:element name="Items">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="Item" maxOccurs="unbounded">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="Qty" type="xs:positiveInteger"/>
                    <xs:element name="UOM" type="xs:string"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn compile(src: &str) -> SchemaTree {
    SchemaTree::compile(&parse_schema(src).expect("parses")).expect("compiles")
}

/// Height of every node (leaves 0, parents 1 + max child height) — an
/// engine-independent re-derivation of the wavefront schedule.
fn heights(tree: &SchemaTree) -> Vec<u32> {
    let mut h = vec![0u32; tree.len()];
    // Children always follow their parent in the tree's storage order, so
    // one reverse pass settles every node.
    let nodes: Vec<_> = tree.iter().collect();
    for (id, node) in nodes.into_iter().rev() {
        h[id.index()] = node
            .children
            .iter()
            .map(|c| h[c.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    h
}

/// The timing-free part of a span — what must be deterministic.
fn shape(span: &Span) -> (Phase, u32, u64, u64, u64, u64, u64) {
    (
        span.phase,
        span.wave,
        span.rows,
        span.cells,
        span.skipped,
        span.cache_hits,
        span.cache_misses,
    )
}

fn traced_hybrid(threads: usize) -> (Vec<Span>, MatchOutcome) {
    let recorder = Arc::new(Recorder::default());
    let mut session = MatchSession::new(MatchConfig::default());
    session.set_trace_sink(recorder.clone());
    session.set_threads(threads);
    let (source, target) = (compile(PO_XSD), compile(PURCHASE_ORDER_XSD));
    let (sp, tp) = (session.prepare(&source), session.prepare(&target));
    let outcome = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
    (recorder.spans(), outcome)
}

#[test]
fn hybrid_span_sequence_matches_the_wavefront_golden() {
    let (source, target) = (compile(PO_XSD), compile(PURCHASE_ORDER_XSD));
    let (spans, _) = traced_hybrid(1);

    // Golden sequence: prepare(source), prepare(target), one label-matrix
    // build, one matrix/table acquisition, then exactly one wave per height
    // class, bottom-up.
    let h = heights(&source);
    let max_height = *h.iter().max().unwrap();
    let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
    let mut expected = vec![Phase::Prepare, Phase::Prepare, Phase::Labels, Phase::Alloc];
    expected.extend(vec![Phase::HybridWave; max_height as usize + 1]);
    assert_eq!(phases, expected);

    // The prepare spans carry the tree sizes.
    assert_eq!(spans[0].rows, source.len() as u64);
    assert_eq!(spans[1].rows, target.len() as u64);

    // A fresh session's label build has no prior cache: every distinct
    // label pair misses, and hits + misses cover the whole matrix.
    let labels = &spans[2];
    assert_eq!(labels.rows, source.len() as u64);
    assert_eq!(labels.cells, (source.len() * target.len()) as u64);
    assert_eq!(labels.cache_hits + labels.cache_misses, labels.cells);
    assert!(labels.cache_misses > 0);

    // The Alloc span accounts for the whole output matrix.
    let alloc = &spans[3];
    assert_eq!(alloc.rows, source.len() as u64);
    assert_eq!(alloc.cells, (source.len() * target.len()) as u64);

    // Wave w covers exactly the source nodes of height w.
    for (w, span) in spans[4..].iter().enumerate() {
        assert_eq!(span.wave, w as u32);
        let in_wave = h.iter().filter(|&&x| x == w as u32).count() as u64;
        assert_eq!(span.rows, in_wave, "wave {w} rows");
        assert_eq!(span.cells, in_wave * target.len() as u64, "wave {w} cells");
    }
    // Waves partition the source tree.
    let total_rows: u64 = spans[4..].iter().map(|s| s.rows).sum();
    assert_eq!(total_rows, source.len() as u64);
}

#[test]
fn span_sequence_is_identical_across_thread_counts() {
    let (four_spans, four_outcome) = traced_hybrid(4);
    let (one_spans, one_outcome) = traced_hybrid(1);
    let four: Vec<_> = four_spans.iter().map(shape).collect();
    let one: Vec<_> = one_spans.iter().map(shape).collect();
    assert_eq!(four, one, "span shapes must not depend on the thread count");
    assert_eq!(four_outcome.matrix, one_outcome.matrix);

    // Determinism across repeated runs, too.
    let (again, _) = traced_hybrid(4);
    assert_eq!(four, again.iter().map(shape).collect::<Vec<_>>());
}

#[test]
fn tracing_never_perturbs_scores() {
    let (source, target) = (compile(PO_XSD), compile(PURCHASE_ORDER_XSD));

    let plain = MatchSession::new(MatchConfig::default());
    let (sp, tp) = (plain.prepare(&source), plain.prepare(&target));
    let baseline = plain.run(&Algorithm::Hybrid, &sp, &tp).unwrap();

    let (_, traced) = traced_hybrid(1);
    assert_eq!(
        baseline.matrix, traced.matrix,
        "bit-identical under tracing"
    );
    assert_eq!(baseline.total_qom.to_bits(), traced.total_qom.to_bits());
}

#[test]
fn run_and_select_emit_their_phases() {
    let recorder = Arc::new(Recorder::default());
    let mut session = MatchSession::new(MatchConfig::default());
    session.set_trace_sink(recorder.clone());
    let (source, target) = (compile(PO_XSD), compile(PURCHASE_ORDER_XSD));
    let (sp, tp) = (session.prepare(&source), session.prepare(&target));

    let outcome = session
        .run(&Algorithm::Structural, &sp, &tp)
        .expect("structural is infallible");
    let mapping = session.select_mapping(&outcome.matrix, 0.5);
    assert!(mapping.len() <= source.len());

    let stats = |p| recorder.phase_stats(p);
    assert!(stats(Phase::StructuralWave).count > 0);
    assert!(stats(Phase::ContextWave).count > 0);
    assert_eq!(stats(Phase::Select).count, 1);
    assert_eq!(stats(Phase::HybridWave).count, 0);

    // A repeat label build over the same prepared pair is served from the
    // session cache: all hits, no misses.
    session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
    recorder.reset();
    session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
    let labels = stats(Phase::Labels);
    assert_eq!(labels.count, 1);
    assert_eq!(labels.cache_misses, 0);
    assert_eq!(labels.cache_hits, labels.cells);
}
