//! Microbenchmarks for the XML/XSD substrate: the reader's events alone,
//! raw XML parsing, schema-model construction, and schema-tree
//! compilation, on corpus-sized, registry-PUT-sized and protein-sized
//! documents.
//!
//! `cargo bench -p qmatch-bench --bench parser`

use qmatch_bench::harness::Harness;
use qmatch_datasets::{corpus, drift, synth};
use qmatch_xml::{Document, Event, Reader};
use qmatch_xsd::{parse_schema, SchemaTree};
use std::hint::black_box;

fn main() {
    let h = Harness::from_env();
    let small = corpus::dcmd_ord_xsd();
    let large = &synth::protein_corpus().pdb_xsd;
    // A low-drift PIR revision rendered like a registry PUT body: the
    // document a serve-churn write parses.
    let revision = &drift::mutation_chain(synth::pir(), 1, 0.15, drift::GATE_SEED)[0];
    let put_body = drift::to_xsd(revision);

    h.bench("parser/xml/events/pir_revision", || {
        let mut reader = Reader::new(black_box(&put_body));
        let mut events = 0usize;
        while reader.next_event().unwrap() != Event::Eof {
            events += 1;
        }
        events
    });
    h.bench("parser/xml/dcmd_ord(53 elems)", || {
        black_box(Document::parse(black_box(small)).unwrap())
    });
    h.bench("parser/xml/pdb(3753 elems)", || {
        black_box(Document::parse(black_box(large)).unwrap())
    });

    h.bench("parser/xsd/parse_schema/dcmd_ord", || {
        black_box(parse_schema(black_box(small)).unwrap())
    });
    h.bench("parser/xsd/parse_schema/pir", || {
        black_box(parse_schema(black_box(&synth::protein_corpus().pir_xsd)).unwrap())
    });
    h.bench("parser/xsd/parse_schema/pir_revision", || {
        black_box(parse_schema(black_box(&put_body)).unwrap())
    });
    h.bench("parser/xsd/parse_schema/pdb", || {
        black_box(parse_schema(black_box(large)).unwrap())
    });

    let small_schema = parse_schema(small).unwrap();
    let large_schema = parse_schema(large).unwrap();
    h.bench("parser/xsd/compile_tree/dcmd_ord", || {
        black_box(SchemaTree::compile(black_box(&small_schema)).unwrap())
    });
    h.bench("parser/xsd/compile_tree/pdb", || {
        black_box(SchemaTree::compile(black_box(&large_schema)).unwrap())
    });
}
