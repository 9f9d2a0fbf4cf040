//! Public-surface snapshot: every `qmatch::prelude` export is exercised by
//! name, so an accidental removal, rename, or signature change of the v1
//! API breaks this test before it breaks a downstream user.
//!
//! Organized to mirror the prelude's own grouping: parsing, configuration,
//! sessions and algorithms, mapping and evaluation, and tracing.

use qmatch::prelude::*;
use std::sync::Arc;

const SOURCE: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO"><xs:complexType><xs:sequence>
    <xs:element name="OrderNo" type="xs:integer"/>
    <xs:element name="ShipTo" type="xs:string"/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>"#;

const TARGET: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder"><xs:complexType><xs:sequence>
    <xs:element name="OrderNo" type="xs:integer"/>
    <xs:element name="ShipToAddr" type="xs:string"/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>"#;

fn trees() -> (SchemaTree, SchemaTree) {
    let source = SchemaTree::compile(&parse_schema(SOURCE).unwrap()).unwrap();
    let target = SchemaTree::compile(&parse_schema(TARGET).unwrap()).unwrap();
    (source, target)
}

#[test]
fn configuration_surface() {
    // MatchConfig + Weights, plus the validated builder path.
    let default_config = MatchConfig::default();
    let weights = Weights::new(0.3, 0.2, 0.1, 0.4).unwrap();
    let built: MatchConfig = MatchConfig::builder()
        .weight_vector(weights)
        .threshold(0.5)
        .build()
        .unwrap();
    assert_eq!(built.weights, default_config.weights);
    assert_eq!(built.threshold, 0.5);

    // The builder type itself is nameable (for helper fns that thread it).
    let staged: MatchConfigBuilder = MatchConfig::builder().weights(0.25, 0.25, 0.25, 0.25);
    assert!(staged.build().is_ok());

    // ConfigError distinguishes bad weights from a bad threshold.
    let bad_weights: ConfigError = MatchConfig::builder()
        .weights(0.9, 0.9, 0.9, 0.9)
        .build()
        .unwrap_err();
    assert!(matches!(bad_weights, ConfigError::Weights(_)));
    let bad_threshold = MatchConfig::builder().threshold(1.5).build().unwrap_err();
    assert!(matches!(
        bad_threshold,
        ConfigError::Threshold { value } if value == 1.5
    ));
    assert!(!bad_threshold.to_string().is_empty());
}

#[test]
fn session_and_algorithm_surface() {
    let (source, target) = trees();
    let mut session = MatchSession::new(MatchConfig::default());
    // The one scheduling knob: worker threads, pinned before sharing.
    session.set_threads(2);
    let sp: PreparedSchema = session.prepare(&source);
    let tp: PreparedSchema = session.prepare(&target);

    // Every Algorithm variant runs through the one entry point.
    for algorithm in [
        Algorithm::Hybrid,
        Algorithm::Linguistic,
        Algorithm::Structural,
        Algorithm::Cupid,
        Algorithm::TreeEdit,
        Algorithm::Composite {
            components: vec![Component::Linguistic, Component::Structural],
            aggregation: Aggregation::Average,
        },
    ] {
        let outcome: MatchOutcome = session.run(&algorithm, &sp, &tp).unwrap();
        assert!((0.0..=1.0).contains(&outcome.total_qom));
        assert_eq!(outcome.matrix.rows(), source.len());
    }

    // Invalid composites surface as CompositeError, not panics.
    let invalid = Algorithm::Composite {
        components: vec![Component::Hybrid],
        aggregation: Aggregation::Weighted(vec![1.0, 2.0]),
    };
    let error: CompositeError = session.run(&invalid, &sp, &tp).unwrap_err();
    assert!(!error.to_string().is_empty());
}

#[test]
fn mapping_and_evaluation_surface() {
    let (source, target) = trees();
    let session = MatchSession::new(MatchConfig::default());
    let (sp, tp) = (session.prepare(&source), session.prepare(&target));
    let outcome = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();

    let mapping: Mapping = extract_mapping(&outcome.matrix, 0.5);
    assert!(!mapping.is_empty(), "OrderNo matches OrderNo");

    let mut gold = qmatch::core::eval::GoldStandard::new();
    gold.add("PO/OrderNo", "PurchaseOrder/OrderNo");
    let quality: MatchQuality = evaluate(&mapping, &source, &target, &gold);
    assert_eq!(quality.true_positives, 1);
    assert!(quality.recall > 0.0);
}

#[test]
fn trace_surface() {
    let (source, target) = trees();

    // Recorder: the in-memory sink behind `qmatch match --trace`.
    let recorder = Arc::new(Recorder::default());
    let mut session = MatchSession::new(MatchConfig::default());
    session.set_trace_sink(recorder.clone());
    let (sp, tp) = (session.prepare(&source), session.prepare(&target));
    session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();

    let spans: Vec<Span> = recorder.spans();
    assert!(spans.iter().any(|s| s.phase == Phase::HybridWave));
    let stats: PhaseStats = recorder.phase_stats(Phase::Prepare);
    assert_eq!(stats.count, 2);
    assert!(recorder.report().contains("prepare"));

    // Phase: the full stable name set.
    assert_eq!(Phase::ALL.len(), Phase::COUNT);

    // Trace + NullSink: the disabled fast path reads no clock.
    let null = Trace::new(Arc::new(NullSink));
    assert!(!null.is_enabled());
    assert_eq!(null.start(), None);

    // TraceSink is implementable by downstream code.
    struct CountingSink(std::sync::atomic::AtomicU64);
    impl TraceSink for CountingSink {
        fn record(&self, _span: &Span) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let counting = Arc::new(CountingSink(std::sync::atomic::AtomicU64::new(0)));
    let trace = Trace::new(counting.clone());
    trace.record(&Span::empty(Phase::Select));
    assert_eq!(counting.0.load(std::sync::atomic::Ordering::Relaxed), 1);
}
