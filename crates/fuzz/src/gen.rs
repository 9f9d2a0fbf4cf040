//! Structure-aware XSD generation.
//!
//! Produces schema documents that exercise the whole object model — named
//! simple and complex types, global element declarations and `ref=` uses,
//! all three compositors, attributes with `use=` semantics, and occurrence
//! constraints — while staying *valid*, so the round-trip and match oracles
//! have real work to do. Invalid inputs come from [`crate::mutate`], not
//! from here.

use qmatch_prng::SmallRng;
use std::fmt::Write as _;

const BUILTINS: &[&str] = &[
    "xs:string",
    "xs:integer",
    "xs:date",
    "xs:decimal",
    "xs:boolean",
    "xs:int",
    "xs:positiveInteger",
    "xs:anyURI",
];

/// Label vocabulary skewed toward schema-matching corpora so the linguistic
/// matcher sees realistic tokens, with a deterministic unique suffix to keep
/// the global symbol spaces collision-free.
const WORDS: &[&str] = &[
    "PO", "Order", "Line", "Item", "Qty", "Quantity", "Ship", "Bill", "To", "City", "Street",
    "Zip", "Code", "Name", "Addr", "Address", "Date", "Count", "Total", "Price", "Unit", "Id",
    "Ref", "Type", "Status", "Customer", "Contact", "Phone",
];

/// Identifier words for the label-table oracle: thesaurus synonyms,
/// hypernyms, abbreviations and acronyms, plural forms that stem, near
/// misses for the fuzzy fallback (some a char off a word, near its floor),
/// non-ASCII words, one word over 32 chars (past Jaro's on-stack flags),
/// and stopwords. Every word starts with an ASCII letter: the acronym
/// style slices off each word's first byte.
const IDENT_WORDS: &str = "\
    order orders requisition purchase buy item items product quantity qty amount unit \
    measure uom price cost total number num no address addresses addr ship bill billing \
    invoice date day category categories box boxes class status book books volume \
    publication article author writer title protein sequence chain organism library \
    quantety adress shipping description dscr id identifier of the to for in on a an \
    quantiy adresss descripton größe numéro supplementaryshippinginstructionstext";

/// Generates `count` schema identifiers of one to four words from a
/// vocabulary of thesaurus words, plurals, near misses and stopwords, in
/// mixed styles: camelCase, snake_case, spaced, ALLCAPS, or the words'
/// initials as an acronym; some get a trailing `#` or number. A quarter of
/// the words are drawn a char off a vocabulary word (`near_miss`).
pub fn gen_identifiers(rng: &mut SmallRng, count: usize) -> Vec<String> {
    let vocabulary: Vec<&str> = IDENT_WORDS.split_whitespace().collect();
    let mut out: Vec<String> = Vec::with_capacity(count);
    for _ in 0..count {
        let words: Vec<String> = (0..rng.gen_range(1..=4usize))
            .map(|_| {
                let word = vocabulary[rng.gen_range(0..vocabulary.len())];
                if rng.gen_range(0..4u32) == 0 {
                    near_miss(rng, word)
                } else {
                    word.to_owned()
                }
            })
            .collect();
        let mut ident = match rng.gen_range(0..5u32) {
            0 => words.join("_"),
            1 => words.join(" "),
            2 => words.concat().to_uppercase(),
            3 => words.iter().map(|w| w[..1].to_uppercase()).collect(),
            _ => words
                .iter()
                .map(|w| {
                    let mut cs = w.chars();
                    cs.next()
                        .map_or(String::new(), |c| c.to_uppercase().chain(cs).collect())
                })
                .collect(),
        };
        match rng.gen_range(0..8u32) {
            0 => ident.push('#'),
            1 => ident.push_str(&rng.gen_range(0..100u32).to_string()),
            _ => {}
        }
        out.push(ident);
    }
    out
}

/// `word` a char off: one char dropped, two neighbours swapped, or one
/// char replaced, by an ASCII letter or by the non-ASCII letter 128 code
/// points up, which falls in the same bucket of the fuzzy metric's sketch
/// (`char as u32 % 32`). The first char takes part too, so the two words
/// may start differently; a result that does not start with an ASCII
/// letter (the acronym style slices off its first byte) is `word` itself.
fn near_miss(rng: &mut SmallRng, word: &str) -> String {
    let mut cs: Vec<char> = word.chars().collect();
    let i = rng.gen_range(0..cs.len());
    match rng.gen_range(0..4u32) {
        0 if cs.len() > 2 => {
            cs.remove(i);
        }
        1 if i + 1 < cs.len() => cs.swap(i, i + 1),
        2 => cs[i] = char::from(b'a' + rng.gen_range(0..26u8)),
        _ => {
            if let Some(c) = char::from_u32(cs[i] as u32 + 128).filter(|c| c.is_alphabetic()) {
                cs[i] = c;
            }
        }
    }
    if cs[0].is_ascii_alphabetic() {
        cs.into_iter().collect()
    } else {
        word.to_owned()
    }
}

/// Deterministic name generator with a per-document counter suffix, so two
/// draws can never collide in a symbol space.
pub struct NamePool {
    counter: u32,
}

impl NamePool {
    /// A fresh pool (counter at zero).
    pub fn new() -> NamePool {
        NamePool { counter: 0 }
    }

    /// Draws a fresh unique name like `OrderQty3`.
    pub fn fresh(&mut self, rng: &mut SmallRng) -> String {
        let a = WORDS[rng.gen_range(0..WORDS.len())];
        let b = WORDS[rng.gen_range(0..WORDS.len())];
        let n = self.counter;
        self.counter += 1;
        format!("{a}{b}{n}")
    }
}

impl Default for NamePool {
    fn default() -> Self {
        NamePool::new()
    }
}

fn builtin(rng: &mut SmallRng) -> &'static str {
    BUILTINS[rng.gen_range(0..BUILTINS.len())]
}

fn occurs_attrs(rng: &mut SmallRng) -> String {
    let mut s = String::new();
    if rng.gen_bool(0.3) {
        s.push_str(" minOccurs=\"0\"");
    }
    if rng.gen_bool(0.2) {
        let max = ["2", "5", "unbounded"][rng.gen_range(0..3usize)];
        let _ = write!(s, " maxOccurs=\"{max}\"");
    }
    s
}

/// Everything the generator decided about one document, so callers can
/// reference the declared names (e.g. when splicing mutations).
pub struct GeneratedSchema {
    /// The rendered schema document.
    pub text: String,
    /// Names of the named types declared at top level.
    pub type_names: Vec<String>,
    /// Names of the global element declarations (the first is the root the
    /// tree compiler picks).
    pub element_names: Vec<String>,
}

/// Generates one valid schema document.
pub fn gen_schema(rng: &mut SmallRng) -> GeneratedSchema {
    let mut pool = NamePool::new();
    let mut type_names = Vec::new();
    let mut element_names = Vec::new();
    let mut body = String::new();

    // Named simple types: restrictions over a built-in, sometimes faceted.
    let n_simple = rng.gen_range(0..=2usize);
    for _ in 0..n_simple {
        let name = pool.fresh(rng);
        let base = builtin(rng);
        let facet = if rng.gen_bool(0.5) {
            format!("<xs:maxInclusive value=\"{}\"/>", rng.gen_range(1..1000u32))
        } else {
            String::new()
        };
        let _ = writeln!(
            body,
            "  <xs:simpleType name=\"{name}\"><xs:restriction base=\"{base}\">{facet}</xs:restriction></xs:simpleType>"
        );
        type_names.push(name);
    }

    // Named complex types: a compositor of leaves, maybe an attribute.
    let n_complex = rng.gen_range(0..=2usize);
    for _ in 0..n_complex {
        let name = pool.fresh(rng);
        let compositor = ["sequence", "choice", "all"][rng.gen_range(0..3usize)];
        let _ = writeln!(body, "  <xs:complexType name=\"{name}\">");
        let _ = writeln!(body, "    <xs:{compositor}>");
        for _ in 0..rng.gen_range(1..=3usize) {
            let leaf = pool.fresh(rng);
            let ty = pick_simple_type(rng, &type_names);
            // xs:all members must keep maxOccurs <= 1.
            let occurs = if compositor == "all" {
                String::new()
            } else {
                occurs_attrs(rng)
            };
            let _ = writeln!(
                body,
                "      <xs:element name=\"{leaf}\" type=\"{ty}\"{occurs}/>"
            );
        }
        let _ = writeln!(body, "    </xs:{compositor}>");
        if rng.gen_bool(0.5) {
            let attr = pool.fresh(rng);
            let use_kw = ["optional", "required"][rng.gen_range(0..2usize)];
            let _ = writeln!(
                body,
                "    <xs:attribute name=\"{attr}\" type=\"{}\" use=\"{use_kw}\"/>",
                builtin(rng)
            );
        }
        let _ = writeln!(body, "  </xs:complexType>");
        type_names.push(name);
    }

    // Optional global leaf elements available for ref= use.
    let n_ref_targets = rng.gen_range(0..=2usize);
    let mut ref_targets = Vec::new();
    for _ in 0..n_ref_targets {
        let name = pool.fresh(rng);
        let _ = writeln!(
            body,
            "  <xs:element name=\"{name}\" type=\"{}\"/>",
            pick_simple_type(rng, &type_names)
        );
        ref_targets.push(name);
    }

    // The root element: an inline complex type with nested structure.
    let root = pool.fresh(rng);
    let _ = writeln!(body, "  <xs:element name=\"{root}\">");
    render_inline_complex(rng, &mut pool, &mut body, 2, 3, &type_names, &ref_targets);
    let _ = writeln!(body, "  </xs:element>");

    // Global elements are ordered root-first so SchemaTree::compile picks
    // the interesting one; ref targets follow.
    let mut text = String::from(
        "<?xml version=\"1.0\"?>\n<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n",
    );
    // Move the root declaration before the ref targets by rendering order:
    // body already interleaves them, which is fine — compile() takes the
    // first *global element*, and ref targets are plain leaves, so either
    // root works for the oracles. Keep document order as generated.
    text.push_str(&body);
    text.push_str("</xs:schema>\n");

    element_names.push(root);
    element_names.extend(ref_targets);
    GeneratedSchema {
        text,
        type_names,
        element_names,
    }
}

fn pick_simple_type(rng: &mut SmallRng, named: &[String]) -> String {
    if !named.is_empty() && rng.gen_bool(0.3) {
        named[rng.gen_range(0..named.len())].clone()
    } else {
        builtin(rng).to_owned()
    }
}

/// Renders `<xs:complexType>...` (indented) for an element open tag already
/// written by the caller.
fn render_inline_complex(
    rng: &mut SmallRng,
    pool: &mut NamePool,
    out: &mut String,
    indent: usize,
    depth: u32,
    type_names: &[String],
    ref_targets: &[String],
) {
    let pad = "  ".repeat(indent);
    let compositor = if rng.gen_bool(0.7) {
        "sequence"
    } else {
        "choice"
    };
    let _ = writeln!(out, "{pad}<xs:complexType>");
    let _ = writeln!(out, "{pad}  <xs:{compositor}>");
    for _ in 0..rng.gen_range(1..=4usize) {
        if !ref_targets.is_empty() && rng.gen_bool(0.2) {
            let target = &ref_targets[rng.gen_range(0..ref_targets.len())];
            let _ = writeln!(
                out,
                "{pad}    <xs:element ref=\"{target}\"{}/>",
                occurs_attrs(rng)
            );
        } else if depth > 0 && rng.gen_bool(0.35) {
            let name = pool.fresh(rng);
            let _ = writeln!(out, "{pad}    <xs:element name=\"{name}\">");
            render_inline_complex(
                rng,
                pool,
                out,
                indent + 3,
                depth - 1,
                type_names,
                ref_targets,
            );
            let _ = writeln!(out, "{pad}    </xs:element>");
        } else {
            let name = pool.fresh(rng);
            let _ = writeln!(
                out,
                "{pad}    <xs:element name=\"{name}\" type=\"{}\"{}/>",
                pick_simple_type(rng, type_names),
                occurs_attrs(rng)
            );
        }
    }
    let _ = writeln!(out, "{pad}  </xs:{compositor}>");
    if rng.gen_bool(0.4) {
        let attr = pool.fresh(rng);
        let use_kw = ["optional", "required"][rng.gen_range(0..2usize)];
        let _ = writeln!(
            out,
            "{pad}  <xs:attribute name=\"{attr}\" type=\"{}\" use=\"{use_kw}\"/>",
            builtin(rng)
        );
    }
    let _ = writeln!(out, "{pad}</xs:complexType>");
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_xsd::{parse_schema, SchemaTree};

    #[test]
    fn generated_schemas_are_valid() {
        let mut rng = SmallRng::seed_from_u64(7);
        for case in 0..200 {
            let generated = gen_schema(&mut rng);
            let schema = parse_schema(&generated.text)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", generated.text));
            SchemaTree::compile(&schema)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", generated.text));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen_schema(&mut SmallRng::seed_from_u64(42)).text;
        let b = gen_schema(&mut SmallRng::seed_from_u64(42)).text;
        assert_eq!(a, b);
        let c = gen_schema(&mut SmallRng::seed_from_u64(43)).text;
        assert_ne!(a, c);
    }

    #[test]
    fn name_pool_never_collides() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut pool = NamePool::new();
        let names: Vec<String> = (0..100).map(|_| pool.fresh(&mut rng)).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
