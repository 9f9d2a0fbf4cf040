//! Property tests: generated element trees must survive a
//! print → parse → print round trip, the escaping helpers must be
//! inverse to unescaping for arbitrary strings, and the reader's one-pass
//! name check must agree with the reference `QName::parse`.
//!
//! Randomized with the in-repo deterministic PRNG (`qmatch-prng`) — every
//! run draws the same cases, so a failure reproduces exactly from the case
//! index printed in the assertion message.

use qmatch_prng::SmallRng;
use qmatch_xml::dom::{Document, Element};
use qmatch_xml::error::XmlErrorKind;
use qmatch_xml::escape::{escape_attr, escape_text, unescape};
use qmatch_xml::{Event, QName, Reader};

const CASES: usize = 192;

const NAME_FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
const NAME_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";

/// A random valid, simple XML name (1–12 chars).
fn xml_name(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..12usize);
    let mut s = String::new();
    s.push(NAME_FIRST[rng.gen_range(0..NAME_FIRST.len())] as char);
    for _ in 0..len {
        s.push(NAME_REST[rng.gen_range(0..NAME_REST.len())] as char);
    }
    s
}

/// Random text content: printable ASCII, free of the CDATA terminator.
fn xml_text(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..=24usize);
    let s: String = (0..len)
        .map(|_| rng.gen_range(0x20u8..=0x7E) as char)
        .collect();
    s.replace("]]>", "]] >")
}

/// Arbitrary printable text, including multi-byte characters (the rough
/// equivalent of proptest's `\PC` class for the escape tests).
fn arbitrary_text(rng: &mut SmallRng, max_len: usize) -> String {
    const EXOTIC: &[char] = &[
        'é', 'ß', 'λ', 'Ж', '中', '文', '✓', '🦀', '\u{00A0}', '„', '–', '¥',
    ];
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.15) {
                EXOTIC[rng.gen_range(0..EXOTIC.len())]
            } else {
                rng.gen_range(0x20u8..=0x7E) as char
            }
        })
        .collect()
}

/// A random small element tree, at most `depth` levels deep.
fn element_tree(rng: &mut SmallRng, depth: u32) -> Element<'static> {
    let mut e = Element::new(&xml_name(rng));
    if rng.gen_bool(0.5) {
        e.set_attr(&xml_name(rng), &xml_text(rng));
    }
    let children = if depth == 0 {
        0
    } else {
        rng.gen_range(0..4usize)
    };
    if children == 0 {
        if rng.gen_bool(0.6) {
            // Leading/trailing whitespace is normalized away by the DOM's
            // whitespace handling, so trim here for a clean round trip.
            let t = xml_text(rng);
            let t = t.trim();
            if !t.is_empty() {
                e = e.with_text(t);
            }
        }
    } else {
        for _ in 0..children {
            e.add_child(element_tree(rng, depth - 1));
        }
    }
    e
}

#[test]
fn print_parse_print_is_stable() {
    let mut rng = SmallRng::seed_from_u64(0x1111);
    for case in 0..CASES {
        let tree = element_tree(&mut rng, 3);
        let once = tree.to_string();
        let doc = Document::parse(&once).expect("printed tree must parse");
        let twice = doc.root().to_string();
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn parsed_tree_preserves_structure() {
    let mut rng = SmallRng::seed_from_u64(0x2222);
    for case in 0..CASES {
        let tree = element_tree(&mut rng, 3);
        let printed = tree.to_string();
        let doc = Document::parse(&printed).unwrap();
        assert_eq!(doc.root().name().raw(), tree.name().raw(), "case {case}");
        assert_eq!(
            doc.root().subtree_size(),
            tree.subtree_size(),
            "case {case}"
        );
        assert_eq!(
            doc.root().subtree_depth(),
            tree.subtree_depth(),
            "case {case}"
        );
    }
}

#[test]
fn escape_text_unescape_identity() {
    let mut rng = SmallRng::seed_from_u64(0x3333);
    for case in 0..CASES {
        let s = arbitrary_text(&mut rng, 64);
        let escaped = escape_text(&s);
        assert_eq!(unescape(&escaped).unwrap().into_owned(), s, "case {case}");
    }
}

#[test]
fn escape_attr_unescape_identity() {
    let mut rng = SmallRng::seed_from_u64(0x4444);
    for case in 0..CASES {
        let s = arbitrary_text(&mut rng, 64);
        let escaped = escape_attr(&s);
        assert_eq!(unescape(&escaped).unwrap().into_owned(), s, "case {case}");
    }
}

#[test]
fn escaped_text_has_no_raw_specials() {
    let mut rng = SmallRng::seed_from_u64(0x5555);
    for case in 0..CASES {
        let s = arbitrary_text(&mut rng, 64);
        let escaped = escape_attr(&s).into_owned();
        assert!(!escaped.contains('<'), "case {case}: {escaped:?}");
        assert!(!escaped.contains('"'), "case {case}: {escaped:?}");
        // `&` may only appear as the start of an entity.
        for (i, c) in escaped.char_indices() {
            if c == '&' {
                assert!(escaped[i..].contains(';'), "case {case}: {escaped:?}");
            }
        }
    }
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    let mut rng = SmallRng::seed_from_u64(0x6666);
    for _ in 0..CASES {
        let s = arbitrary_text(&mut rng, 128);
        let _ = Document::parse(&s);
    }
    // And on truncated well-formed documents.
    let tree = element_tree(&mut rng, 3);
    let printed = tree.to_string();
    for cut in 0..printed.len() {
        if printed.is_char_boundary(cut) {
            let _ = Document::parse(&printed[..cut]);
        }
    }
}

/// A random name candidate: ASCII name characters (colons anywhere,
/// digits, `-` and `.` first included) mixed with non-ASCII characters
/// that are valid name starts, valid only after the start, or invalid.
/// Every character is one the reader scans as part of a name, so the
/// whole candidate is read as one name.
fn name_candidate(rng: &mut SmallRng) -> String {
    const ASCII: &[u8] = b"abcXYZ_:::0189-.";
    const OTHER: &[char] = &[
        'é', 'λ', 'Ж', '中', '\u{B7}', '\u{300}', '\u{203F}', '×', '÷', '🦀', '\u{2000}',
    ];
    let len = rng.gen_range(1..=8usize);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.2) {
                OTHER[rng.gen_range(0..OTHER.len())]
            } else {
                ASCII[rng.gen_range(0..ASCII.len())] as char
            }
        })
        .collect()
}

/// The name the reader reads as the first start tag of `doc`, or the
/// invalid name it reports.
fn read_start_name(doc: &str) -> Result<(Option<String>, String), String> {
    match Reader::new(doc).next_event() {
        Ok(Event::StartElement { name, .. }) => {
            Ok((name.prefix().map(str::to_owned), name.local().to_owned()))
        }
        Err(e) => match e.kind() {
            XmlErrorKind::InvalidName { name } => Err(name.clone()),
            other => panic!("{doc:?}: unexpected error {other:?}"),
        },
        Ok(other) => panic!("{doc:?}: unexpected event {other:?}"),
    }
}

#[test]
fn reader_names_agree_with_qname_parse() {
    let mut rng = SmallRng::seed_from_u64(0x7777);
    // End tags that closed, mismatched, and were invalid names.
    let mut outcomes = [0usize; 3];
    for case in 0..CASES * 20 {
        let name = name_candidate(&mut rng);
        let reference = QName::parse(&name)
            .map(|q| (q.prefix().map(str::to_owned), q.local().to_owned()))
            .ok_or_else(|| name.clone());
        // As an element name and as an attribute name.
        assert_eq!(
            read_start_name(&format!("<{name}/>")),
            reference,
            "case {case}: {name:?}"
        );
        let attr = match Reader::new(&format!("<r {name}=\"v\"/>")).next_event() {
            Ok(Event::StartElement { attributes, .. }) => {
                let q = &attributes[0].name;
                Ok((q.prefix().map(str::to_owned), q.local().to_owned()))
            }
            Err(e) => match e.kind() {
                XmlErrorKind::InvalidName { name } => Err(name.clone()),
                other => panic!("case {case}: unexpected error {other:?}"),
            },
            Ok(other) => panic!("case {case}: unexpected event {other:?}"),
        };
        assert_eq!(attr, reference, "case {case}: attribute {name:?}");
        // As an end tag: the fast byte match for the open name, and the
        // full check for any other name, give the reference outcome. The
        // closing name is the open name, a prefix or extension of it, or
        // the random candidate.
        let open = name_candidate(&mut rng);
        if QName::parse(&open).is_none() {
            continue;
        }
        let close = match rng.gen_range(0..4u32) {
            0 => open.clone(),
            1 => format!("{open}{}", name_candidate(&mut rng)),
            2 => open.chars().take(open.chars().count() - 1).collect(),
            _ => name.clone(),
        };
        let doc = format!("<{open}></{close}>");
        let outcome: Result<Vec<Event<'_>>, _> = Reader::new(&doc).collect();
        match (outcome, QName::parse(&close)) {
            (Ok(events), Some(_)) => {
                assert_eq!(close, open, "case {case}: {doc:?}");
                assert!(
                    matches!(&events[1], Event::EndElement { name, .. } if name.raw() == close)
                );
                outcomes[0] += 1;
            }
            (Err(e), Some(_)) => {
                assert!(
                    close != open
                        && matches!(e.kind(), XmlErrorKind::MismatchedTag { expected, found }
                            if *expected == open && *found == close),
                    "case {case}: {doc:?}: {e}"
                );
                outcomes[1] += 1;
            }
            (Err(e), None) => {
                let expected = if close.is_empty() {
                    matches!(e.kind(), XmlErrorKind::UnexpectedChar { .. })
                } else {
                    matches!(e.kind(), XmlErrorKind::InvalidName { name } if *name == close)
                };
                assert!(expected, "case {case}: {doc:?}: {e}");
                outcomes[2] += 1;
            }
            (Ok(_), None) => panic!("case {case}: {doc:?} accepted an invalid end tag"),
        }
    }
    assert!(
        outcomes.iter().all(|&n| n >= 50),
        "end-tag outcomes too rare: {outcomes:?}"
    );
}
