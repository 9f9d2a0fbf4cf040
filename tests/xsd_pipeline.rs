//! Property tests for the XSD pipeline: generated schema documents must
//! parse, resolve, and compile; the compiled tree must faithfully reflect
//! the generated structure.
//!
//! Randomized with the in-repo deterministic PRNG (`qmatch-prng`) — fixed
//! seeds, so failures reproduce from the case index in the message.

use qmatch::xml::escape::escape_attr;
use qmatch::xsd::{parse_schema, SchemaTree, XsdError};
use qmatch_prng::SmallRng;
use std::fmt::Write as _;

const CASES: usize = 128;

/// A generated element for the random schema: name, type index, and number
/// of children (0 = leaf).
#[derive(Debug, Clone)]
struct GenElement {
    name: String,
    type_idx: usize,
    children: Vec<GenElement>,
}

const TYPES: &[&str] = &[
    "xs:string",
    "xs:integer",
    "xs:date",
    "xs:decimal",
    "xs:boolean",
];

/// `[A-Za-z][A-Za-z0-9_]{0,8}`, matching the old proptest regex strategy.
fn gen_name(rng: &mut SmallRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    let len = rng.gen_range(0..=8usize);
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..len {
        s.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    s
}

fn gen_element(rng: &mut SmallRng, depth: u32) -> GenElement {
    // Leaves at depth 0, and with growing probability as depth shrinks,
    // to keep trees small (the old strategy targeted ~32 nodes).
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if leaf {
        GenElement {
            name: gen_name(rng),
            type_idx: rng.gen_range(0..TYPES.len()),
            children: Vec::new(),
        }
    } else {
        let arity = rng.gen_range(1..5usize);
        GenElement {
            name: gen_name(rng),
            type_idx: 0,
            children: (0..arity).map(|_| gen_element(rng, depth - 1)).collect(),
        }
    }
}

fn render(element: &GenElement, out: &mut String, indent: usize, min_occurs: u32) {
    let pad = "  ".repeat(indent);
    let occurs = if min_occurs == 0 {
        " minOccurs=\"0\""
    } else {
        ""
    };
    if element.children.is_empty() {
        let _ = writeln!(
            out,
            "{pad}<xs:element name=\"{}\" type=\"{}\"{occurs}/>",
            escape_attr(&element.name),
            TYPES[element.type_idx]
        );
    } else {
        let _ = writeln!(
            out,
            "{pad}<xs:element name=\"{}\"{occurs}>",
            escape_attr(&element.name)
        );
        let _ = writeln!(out, "{pad}  <xs:complexType><xs:sequence>");
        for (i, child) in element.children.iter().enumerate() {
            render(child, out, indent + 2, (i % 2) as u32);
        }
        let _ = writeln!(out, "{pad}  </xs:sequence></xs:complexType>");
        let _ = writeln!(out, "{pad}</xs:element>");
    }
}

fn render_schema(root: &GenElement) -> String {
    let mut xsd = String::from(
        "<?xml version=\"1.0\"?>\n<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n",
    );
    render(root, &mut xsd, 1, 1);
    xsd.push_str("</xs:schema>\n");
    xsd
}

fn count(element: &GenElement) -> usize {
    1 + element.children.iter().map(count).sum::<usize>()
}

fn depth(element: &GenElement) -> u32 {
    element
        .children
        .iter()
        .map(|c| 1 + depth(c))
        .max()
        .unwrap_or(0)
}

#[test]
fn generated_schemas_parse_and_compile() {
    let mut rng = SmallRng::seed_from_u64(0xC1);
    for case in 0..CASES {
        let root = gen_element(&mut rng, 4);
        let xsd = render_schema(&root);

        let schema = parse_schema(&xsd).expect("generated schema must parse");
        let tree = SchemaTree::compile(&schema).expect("generated schema must compile");

        assert_eq!(tree.element_count(), count(&root), "case {case}");
        assert_eq!(tree.max_depth(), depth(&root), "case {case}");
        assert_eq!(
            tree.root().label.as_str(),
            root.name.as_str(),
            "case {case}"
        );
    }
}

#[test]
fn compiled_tree_preserves_child_order() {
    let mut rng = SmallRng::seed_from_u64(0xC2);
    for case in 0..CASES {
        let root = gen_element(&mut rng, 3);
        let tree = SchemaTree::compile(&parse_schema(&render_schema(&root)).unwrap()).unwrap();

        // The root's children appear in document order with 1-based `order`.
        let root_node = tree.root();
        assert_eq!(root_node.children.len(), root.children.len(), "case {case}");
        for (i, (&child_id, generated)) in root_node.children.iter().zip(&root.children).enumerate()
        {
            let child = tree.node(child_id);
            assert_eq!(child.label.as_str(), generated.name.as_str(), "case {case}");
            assert_eq!(child.properties.order, i as u32 + 1, "case {case}");
            assert_eq!(child.level, 1, "case {case}");
            assert_eq!(child.parent, Some(tree.root_id()), "case {case}");
        }
    }
}

#[test]
fn writer_round_trips_generated_schemas() {
    let mut rng = SmallRng::seed_from_u64(0xC3);
    for case in 0..CASES {
        let root = gen_element(&mut rng, 4);
        let original = parse_schema(&render_schema(&root)).unwrap();
        let rendered = qmatch::xsd::write_schema(&original);
        let reparsed = parse_schema(&rendered).expect("rendered schema parses");
        assert_eq!(original, reparsed, "case {case}");
    }
}

/// Every file in the malformed corpus (crashers promoted from fuzzing
/// sessions plus hand-written pathological inputs) must be rejected with a
/// typed error somewhere in the pipeline — parse or compile — and must
/// never panic. Each error's message (with its `line:column`) and source
/// byte offset are pinned in `tests/data/malformed/expected_errors.txt`,
/// one `file<TAB>offset<TAB>message` line per corpus file (`-` where the
/// error has no source position).
#[test]
fn malformed_corpus_is_rejected_with_typed_errors() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/malformed");
    let expected_text = std::fs::read_to_string(dir.join("expected_errors.txt"))
        .expect("malformed corpus expectations exist");
    let expected: Vec<&str> = expected_text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("malformed corpus directory exists")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    let mut actual = Vec::new();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("xsd") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let pipeline = parse_schema(&text).and_then(|s| SchemaTree::compile(&s));
        let Err(err) = pipeline else {
            panic!("{name}: expected the pipeline to reject this input");
        };
        let offset = match &err {
            XsdError::Xml(e) => Some(e.position().offset),
            XsdError::Invalid { position, .. } => position.map(|p| p.offset),
            _ => None,
        };
        let offset = offset.map_or("-".to_owned(), |o| o.to_string());
        actual.push(format!("{name}\t{offset}\t{err}"));
    }
    assert!(
        actual.len() >= 20,
        "corpus unexpectedly small: {} files",
        actual.len()
    );
    assert_eq!(
        actual.iter().map(String::as_str).collect::<Vec<_>>(),
        expected,
        "error messages or positions changed; actual:\n{}",
        actual.join("\n")
    );
}

#[test]
fn parse_never_panics_on_mutated_schema_text() {
    let mut rng = SmallRng::seed_from_u64(0xC4);
    for _ in 0..CASES {
        let root = gen_element(&mut rng, 3);
        let xsd = render_schema(&root);
        // Truncate at an arbitrary char boundary: must error, never panic.
        let mut idx = rng.gen_range(0..=xsd.len());
        while !xsd.is_char_boundary(idx) {
            idx -= 1;
        }
        let _ = parse_schema(&xsd[..idx]);
    }
}
