//! Drift-style synthetic registries for candidate-index benchmarking.
//!
//! The paper corpus has six schemas; registry-scale experiments need
//! thousands. This module grows them by *drifting* the corpus: each
//! synthetic schema starts from one of the six bases and applies a
//! deterministic mix of label mutations (kept / abbreviated /
//! synonym-replaced / renamed away, mirroring the PIR→PDB transformation
//! of [`crate::synth`]) plus small structural edits (leaves added and
//! dropped). The result is a registry whose members cluster around six
//! "families" — realistic for schema repositories, and exactly the shape
//! a candidate index must handle: near-duplicates that must be recalled,
//! cross-family pairs that should be pruned.
//!
//! Generation is a pure function of `(count, seed)`, so benchmark and CI
//! runs are reproducible across machines and sessions.

use crate::{corpus, synth};
use qmatch_prng::SmallRng;
use qmatch_xsd::{DataType, NodeId, SchemaTree};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The pinned seed CI's accuracy gate runs with; benchmarks default to it
/// too so committed numbers are reproducible.
pub const GATE_SEED: u64 = 0x51AC_2005;

/// Corpus-label synonym substitutions, analogous to the bio-domain map in
/// [`crate::synth`] but drawn from the purchase/bibliography vocabulary
/// the six base schemas actually use.
const SYNONYM_MAP: &[(&str, &str)] = &[
    ("PO", "Purchase"),
    ("Item", "Product"),
    ("Quantity", "Amount"),
    ("Author", "Writer"),
    ("Title", "Heading"),
    ("Date", "Day"),
    ("Publisher", "Press"),
    ("Price", "Cost"),
];

/// Disjoint vocabulary used when a label is renamed away or a padding leaf
/// is added — words that do not appear in any base schema, so renames
/// genuinely reduce label overlap.
const DRIFT_VOCAB: &[&str] = &[
    "ledger",
    "voucher",
    "batch",
    "carrier",
    "customs",
    "pallet",
    "waybill",
    "depot",
    "quota",
    "tariff",
    "surcharge",
    "manifest",
];

/// Flattens a tree to the parallel `(labels, parents)` vectors
/// [`SchemaTree::from_labels`] accepts. Iteration is pre-order, so every
/// parent precedes its children — the invariant `from_labels` requires.
fn flatten(tree: &SchemaTree) -> (Vec<String>, Vec<Option<usize>>) {
    let mut index_of: HashMap<_, usize> = HashMap::new();
    let mut labels: Vec<String> = Vec::new();
    let mut parents: Vec<Option<usize>> = Vec::new();
    for (id, node) in tree.iter() {
        index_of.insert(id, labels.len());
        labels.push(node.label.clone());
        parents.push(node.parent.map(|p| index_of[&p]));
    }
    (labels, parents)
}

/// The synonym replacement for a label, if any: the corpus-vocabulary
/// [`SYNONYM_MAP`] first, the bio-domain map of [`crate::synth`] second.
fn synonym_for(label: &str) -> Option<String> {
    SYNONYM_MAP
        .iter()
        .find(|(from, _)| *from == label)
        .map(|(_, to)| (*to).to_owned())
        .or_else(|| synth::synonymize(label))
}

/// One drifted copy of `base`, named `name`, driven by `rng`. `salt` is
/// the schema's registry index: renamed-away and padding labels embed it,
/// so two different schemas never coin the same fresh label — accidental
/// exact matches between unrelated schemas would otherwise dominate their
/// QoM (the root label especially) and make the registry unrealistically
/// tangled.
fn drift(base: &SchemaTree, name: &str, salt: usize, rng: &mut SmallRng) -> SchemaTree {
    let (mut labels, mut parents) = flatten(base);

    // Revision distance varies per schema, as it does in real schema
    // repositories: most members are light touch-ups of their base, a
    // tail has drifted far. Squaring the uniform draw biases toward
    // light. This spread is what makes candidate generation meaningful —
    // a query's top-k neighbors are its near revisions (high feature
    // overlap), while far relatives score lower than them on both the QoM
    // and the signature, so a threshold can separate the two.
    let intensity = {
        let t = rng.gen_f64();
        t * t
    };
    let keep_below = 0.95 - 0.50 * intensity;
    let abbreviate_below = keep_below + 0.02 + 0.13 * intensity;
    let synonym_below = abbreviate_below + 0.02 + 0.12 * intensity;

    // Label drift: the PIR→PDB mutation mix, scaled so each schema stays
    // recognizable *to the matcher* — family variants must outrank the
    // structural noise floor (Eq. 2 grants every leaf pair `WH + WC` for
    // free, so unrelated same-shape schemas already score ≈0.7), or
    // ranking them would be meaningless for any method, indexed or not.
    let mut counter = 0u32;
    for (position, label) in labels.iter_mut().enumerate() {
        let roll = rng.gen_f64();
        if roll < keep_below {
            continue; // kept
        } else if roll < abbreviate_below {
            *label = synth::abbreviate(label);
        } else if roll < synonym_below {
            if let Some(replacement) = synonym_for(label) {
                *label = replacement;
            }
        } else if position == 0 {
            // The root label is never renamed away: real schema revisions
            // keep (or at most abbreviate) their document element, and a
            // nonsense root would sink every family match below the
            // structural noise floor.
            *label = synth::abbreviate(label);
        } else {
            counter += 1;
            *label = format!(
                "{}{}",
                DRIFT_VOCAB[rng.gen_range(0..DRIFT_VOCAB.len())],
                salt as u32 * 256 + counter
            );
        }
    }

    // Structural drift, scaled with the same intensity: light revisions
    // drop at most one leaf and add at most two; far ones edit more. Only
    // leaves are dropped, so no parent reference ever dangles.
    let extra = usize::from(intensity > 0.6);
    for _ in 0..rng.gen_range(0..2usize) + extra {
        let leaves: Vec<usize> = (1..labels.len())
            .filter(|&i| !parents.contains(&Some(i)))
            .collect();
        if leaves.len() <= 1 {
            break;
        }
        let victim = leaves[rng.gen_range(0..leaves.len())];
        labels.remove(victim);
        parents.remove(victim);
        for p in parents.iter_mut().flatten() {
            debug_assert_ne!(*p, victim, "dropped node was a leaf");
            if *p > victim {
                *p -= 1;
            }
        }
    }
    for _ in 0..rng.gen_range(0..3usize) + extra {
        counter += 1;
        let parent = rng.gen_range(0..labels.len());
        labels.push(format!(
            "{}{}",
            DRIFT_VOCAB[rng.gen_range(0..DRIFT_VOCAB.len())],
            salt as u32 * 256 + counter
        ));
        parents.push(Some(parent));
    }

    let entries: Vec<(&str, Option<usize>)> = labels
        .iter()
        .map(String::as_str)
        .zip(parents.iter().copied())
        .collect();
    SchemaTree::from_labels(name, &entries)
}

/// Number of base families the registry cycles: the six paper-corpus
/// schemas plus [`BASE_COUNT`]`- 6` generated domains with disjoint
/// vocabularies. A real schema repository holds *many* unrelated
/// families, each with a handful of revisions — not six giant clusters —
/// and the candidate index's pruning power is only measurable against
/// that shape.
pub const BASE_COUNT: usize = 24;

/// Syllables the generated domains coin labels from. Consonant-vowel
/// pairs keep the words pronounceable while staying lexically disjoint
/// from the paper vocabulary (and, with high probability, each other).
const SYLLABLES: &[&str] = &[
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe", "qui", "ro", "su",
    "ta", "ve", "wi", "xo", "zu",
];

/// A fresh pseudo-word of 2–3 syllables from the domain's RNG stream.
fn coin_word(rng: &mut SmallRng) -> String {
    (0..rng.gen_range(2..4usize))
        .map(|_| SYLLABLES[rng.gen_range(0..SYLLABLES.len())])
        .collect()
}

/// A generated base family: the *shape* of one paper-corpus schema with
/// every label replaced by a coined word from the domain's own
/// vocabulary. Structure stays realistic (the paper's published element
/// counts and depths); the label space is disjoint from every other
/// family, as unrelated real-world domains are.
fn generated_base(shape: &SchemaTree, domain: usize, seed: u64) -> SchemaTree {
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (domain as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut index_of: HashMap<_, usize> = HashMap::new();
    let mut labels: Vec<String> = Vec::new();
    let mut parents: Vec<Option<usize>> = Vec::new();
    for (id, node) in shape.iter() {
        index_of.insert(id, labels.len());
        // Capitalized compound for the root (document elements tend to be
        // compound nouns), single coined words below.
        let word = if labels.is_empty() {
            let (a, b) = (coin_word(&mut rng), coin_word(&mut rng));
            format!("{}{}", capitalize(&a), capitalize(&b))
        } else {
            coin_word(&mut rng)
        };
        labels.push(word);
        parents.push(node.parent.map(|p| index_of[&p]));
    }
    let name = format!("domain-{domain:02}");
    let entries: Vec<(&str, Option<usize>)> = labels
        .iter()
        .map(String::as_str)
        .zip(parents.iter().copied())
        .collect();
    SchemaTree::from_labels(&name, &entries)
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// The [`BASE_COUNT`] base schemas for a seed: the six paper-corpus
/// schemas, then generated domains reusing their shapes round-robin.
fn base_families(seed: u64) -> Vec<SchemaTree> {
    let corpus = [
        corpus::po1(),
        corpus::po2(),
        corpus::article(),
        corpus::book(),
        corpus::dcmd_item(),
        corpus::dcmd_ord(),
    ];
    let mut bases: Vec<SchemaTree> = corpus.to_vec();
    for domain in corpus.len()..BASE_COUNT {
        bases.push(generated_base(&corpus[domain % corpus.len()], domain, seed));
    }
    bases
}

/// Generates `count` drifted schemas named `synth-00000..`, cycling the
/// [`BASE_COUNT`] base families. Deterministic in `(count, seed)`: every
/// schema gets its own RNG stream derived from the seed and its index, so
/// `synthetic_registry(10_000, s)[i]` equals `synthetic_registry(1_000, s)[i]`
/// for any `i < 1_000` — registries of different sizes share a prefix.
pub fn synthetic_registry(count: usize, seed: u64) -> Vec<(String, SchemaTree)> {
    let bases = base_families(seed);
    (0..count)
        .map(|i| {
            let base = &bases[i % bases.len()];
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let name = format!("synth-{i:05}");
            let tree = drift(base, &name, i, &mut rng);
            (name, tree)
        })
        .collect()
}

/// One controlled-intensity revision of `prev` — the schema-evolution
/// workload generator. Unlike [`drift`], which draws its own revision
/// distance (registry members spread from near-copies to far relatives),
/// a chain step takes `intensity` as an argument: it is approximately the
/// fraction of labels mutated, so evolution benchmarks can sweep dirty
/// fractions directly. Mutated labels split evenly between abbreviation,
/// synonym substitution, and rename-away (the root is only ever
/// abbreviated); one leaf drop and one leaf add each fire with
/// probability `intensity`.
fn mutate_step(prev: &SchemaTree, salt: usize, intensity: f64, rng: &mut SmallRng) -> SchemaTree {
    let intensity = intensity.clamp(0.0, 1.0);
    let (mut labels, mut parents) = flatten(prev);
    let keep_below = 1.0 - intensity;
    let mut counter = 0u32;
    for (position, label) in labels.iter_mut().enumerate() {
        if rng.gen_f64() < keep_below {
            continue;
        }
        match rng.gen_range(0..3usize) {
            0 => *label = synth::abbreviate(label),
            1 => {
                if let Some(replacement) = synonym_for(label) {
                    *label = replacement;
                } else {
                    *label = synth::abbreviate(label);
                }
            }
            _ if position == 0 => *label = synth::abbreviate(label),
            _ => {
                counter += 1;
                *label = format!(
                    "{}{}",
                    DRIFT_VOCAB[rng.gen_range(0..DRIFT_VOCAB.len())],
                    salt as u32 * 256 + counter
                );
            }
        }
    }
    if rng.gen_f64() < intensity {
        // Only leaves are dropped, so no parent reference ever dangles.
        let leaves: Vec<usize> = (1..labels.len())
            .filter(|&i| !parents.contains(&Some(i)))
            .collect();
        if leaves.len() > 1 {
            let victim = leaves[rng.gen_range(0..leaves.len())];
            labels.remove(victim);
            parents.remove(victim);
            for p in parents.iter_mut().flatten() {
                debug_assert_ne!(*p, victim, "dropped node was a leaf");
                if *p > victim {
                    *p -= 1;
                }
            }
        }
    }
    if rng.gen_f64() < intensity {
        counter += 1;
        let parent = rng.gen_range(0..labels.len());
        labels.push(format!(
            "{}{}",
            DRIFT_VOCAB[rng.gen_range(0..DRIFT_VOCAB.len())],
            salt as u32 * 256 + counter
        ));
        parents.push(Some(parent));
    }
    let entries: Vec<(&str, Option<usize>)> = labels
        .iter()
        .map(String::as_str)
        .zip(parents.iter().copied())
        .collect();
    SchemaTree::from_labels(prev.name(), &entries)
}

/// A seeded chain of `steps` successive revisions of `base`: element `k`
/// is one `mutate_step` of the given `intensity` applied to element
/// `k-1` (element 0 to `base` itself). Every revision keeps the base's
/// name — a chain models repeated `PUT`s of one registry entry, the
/// evolution subsystem's workload.
///
/// Deterministic in `(base, intensity, seed)`, and prefix-stable in
/// `steps`: each step derives its own RNG stream from the seed and its
/// index, so `mutation_chain(b, 10, i, s)[k]` equals
/// `mutation_chain(b, 5, i, s)[k]` for `k < 5`.
pub fn mutation_chain(
    base: &SchemaTree,
    steps: usize,
    intensity: f64,
    seed: u64,
) -> Vec<SchemaTree> {
    let mut out: Vec<SchemaTree> = Vec::with_capacity(steps);
    let mut current = base.clone();
    for k in 0..steps {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (k as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        current = mutate_step(&current, k, intensity, &mut rng);
        out.push(current.clone());
    }
    out
}

/// Renders a schema tree as an XSD document: nested anonymous complex
/// types, builtin leaf types. This is the shape of a registry `PUT` body
/// built from a drifted tree, so benches and tests time the same ingest
/// path a served revision takes.
pub fn to_xsd(tree: &SchemaTree) -> String {
    fn render(tree: &SchemaTree, id: NodeId, out: &mut String, depth: usize) {
        let node = tree.node(id);
        let pad = "  ".repeat(depth);
        if node.children.is_empty() {
            let ty = match &node.properties.data_type {
                DataType::Builtin(b) => b.name(),
                DataType::Complex(_) => "string",
            };
            let _ = writeln!(
                out,
                "{pad}<xs:element name=\"{}\" type=\"xs:{ty}\"/>",
                node.label
            );
        } else {
            let _ = writeln!(out, "{pad}<xs:element name=\"{}\">", node.label);
            let _ = writeln!(out, "{pad}  <xs:complexType><xs:sequence>");
            for &child in &node.children {
                render(tree, child, out, depth + 2);
            }
            let _ = writeln!(out, "{pad}  </xs:sequence></xs:complexType>");
            let _ = writeln!(out, "{pad}</xs:element>");
        }
    }
    let mut out = String::with_capacity(tree.len() * 80);
    out.push_str(
        "<?xml version=\"1.0\"?>\n<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n",
    );
    render(tree, tree.root_id(), &mut out, 1);
    out.push_str("</xs:schema>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let a = synthetic_registry(24, GATE_SEED);
        let b = synthetic_registry(24, GATE_SEED);
        for ((na, ta), (nb, tb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            let la: Vec<_> = ta.iter().map(|(_, n)| n.label.clone()).collect();
            let lb: Vec<_> = tb.iter().map(|(_, n)| n.label.clone()).collect();
            assert_eq!(la, lb, "{na}");
        }
        // Larger registries extend smaller ones rather than reshuffling.
        let big = synthetic_registry(48, GATE_SEED);
        for ((na, ta), (nb, tb)) in a.iter().zip(&big) {
            assert_eq!(na, nb);
            assert_eq!(ta.len(), tb.len());
        }
    }

    #[test]
    fn schemas_are_drifted_but_recognizable() {
        let registry = synthetic_registry(240, GATE_SEED);
        assert_eq!(registry.len(), 240);
        assert_eq!(registry[0].0, "synth-00000");
        assert_eq!(registry[239].0, "synth-00239");
        let base = corpus::po1();
        let base_labels: std::collections::HashSet<String> =
            base.iter().map(|(_, n)| n.label.clone()).collect();
        let mut drifted = 0usize;
        let mut kept_majority = 0usize;
        // Every BASE_COUNT-th schema drifts from po1.
        for (_, tree) in registry.iter().step_by(BASE_COUNT) {
            let labels: Vec<String> = tree.iter().map(|(_, n)| n.label.clone()).collect();
            let kept = labels.iter().filter(|l| base_labels.contains(*l)).count();
            if kept < labels.len() {
                drifted += 1;
            }
            if 2 * kept >= base.len() {
                kept_majority += 1;
            }
        }
        assert!(drifted >= 8, "mutations fired on {drifted}/10 schemas");
        assert!(
            kept_majority >= 8,
            "drift kept schemas recognizable in only {kept_majority}/10 cases"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = synthetic_registry(6, GATE_SEED);
        let b = synthetic_registry(6, GATE_SEED + 1);
        let labels = |r: &[(String, SchemaTree)]| -> Vec<String> {
            r.iter()
                .flat_map(|(_, t)| t.iter().map(|(_, n)| n.label.clone()).collect::<Vec<_>>())
                .collect()
        };
        assert_ne!(labels(&a), labels(&b));
    }

    #[test]
    fn mutation_chains_are_deterministic_and_prefix_stable() {
        let base = corpus::po1();
        let long = mutation_chain(&base, 10, 0.25, GATE_SEED);
        let short = mutation_chain(&base, 5, 0.25, GATE_SEED);
        assert_eq!(long.len(), 10);
        for (a, b) in long.iter().zip(&short) {
            let la: Vec<_> = a.iter().map(|(_, n)| n.label.clone()).collect();
            let lb: Vec<_> = b.iter().map(|(_, n)| n.label.clone()).collect();
            assert_eq!(la, lb, "shorter chains are prefixes of longer ones");
        }
        let other_seed = mutation_chain(&base, 5, 0.25, GATE_SEED + 1);
        assert_ne!(
            long[4].iter().map(|(_, n)| &n.label).collect::<Vec<_>>(),
            other_seed[4]
                .iter()
                .map(|(_, n)| &n.label)
                .collect::<Vec<_>>(),
            "different seeds diverge"
        );
    }

    #[test]
    fn to_xsd_round_trips_through_the_ingest_pipeline() {
        let revision = &mutation_chain(synth::pir(), 1, 0.15, GATE_SEED)[0];
        let schema = qmatch_xsd::parse_schema(&to_xsd(revision)).expect("rendered XSD parses");
        let tree = SchemaTree::compile(&schema).expect("rendered XSD compiles");
        // The compiled tree numbers its nodes in its own order.
        let labels = |t: &SchemaTree| {
            let mut labels: Vec<_> = t.iter().map(|(_, n)| n.label.clone()).collect();
            labels.sort();
            labels
        };
        assert_eq!(labels(&tree), labels(revision));
    }

    #[test]
    fn mutation_chain_intensity_scales_the_edit_rate() {
        let base = synth::pir();
        let light = &mutation_chain(base, 1, 0.02, GATE_SEED)[0];
        let heavy = &mutation_chain(base, 1, 0.60, GATE_SEED)[0];
        let changed = |rev: &SchemaTree| {
            let base_labels: Vec<_> = base.iter().map(|(_, n)| n.label.clone()).collect();
            rev.iter()
                .zip(base_labels)
                .filter(|((_, n), old)| n.label != *old)
                .count()
        };
        let (light_changed, heavy_changed) = (changed(light), changed(heavy));
        assert!(
            light_changed * 5 < heavy_changed,
            "intensity 0.02 changed {light_changed}, 0.60 changed {heavy_changed}"
        );
        assert!(
            light_changed <= base.len() / 10,
            "light steps stay light: {light_changed}/{}",
            base.len()
        );
        // Chains keep the registry name: they model repeated PUTs of one
        // entry.
        assert_eq!(light.name(), base.name());
    }

    #[test]
    fn trees_stay_structurally_sound() {
        for (name, tree) in synthetic_registry(36, GATE_SEED) {
            assert_eq!(tree.name(), name);
            assert!(tree.len() >= 4, "{name} shrank to {} nodes", tree.len());
            assert!(tree.max_depth() >= 1, "{name} lost its hierarchy");
            // Every non-root node's parent exists and sits one level up.
            for (id, node) in tree.iter() {
                if let Some(parent) = node.parent {
                    assert_eq!(tree.node(parent).level + 1, node.level, "{name}/{id:?}");
                }
            }
        }
    }
}
