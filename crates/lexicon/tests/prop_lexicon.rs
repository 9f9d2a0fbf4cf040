//! Property tests for the linguistic substrate: metric axioms, tokenizer
//! invariants, and name-matcher consistency over arbitrary identifiers.
//!
//! Randomized with the in-repo deterministic PRNG (`qmatch-prng`), so every
//! run draws the same cases and failures reproduce from the case index.

use qmatch_lexicon::join::{overlaps_needed, related_pairs};
use qmatch_lexicon::metrics::{
    bigram_dice, combined_bound, combined_similarity, jaro, jaro_winkler, lcs_len, levenshtein,
    levenshtein_similarity,
};
use qmatch_lexicon::name_match::{content_positions, looks_like_abbreviation, stem};
use qmatch_lexicon::{tokenize, LabelGrade, NameMatcher, Thesaurus, Token};
use qmatch_prng::SmallRng;

const CASES: usize = 256;

/// Non-ASCII characters mixed into generated text and tokens.
const EXOTIC: &[char] = &['é', 'ß', 'λ', 'Ж', '中', '✓', '№', '¼'];

/// A random identifier-like label: `[A-Za-z][A-Za-z0-9_ -]{0,20}`.
fn ident(rng: &mut SmallRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ -";
    let len = rng.gen_range(0..=20usize);
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..len {
        s.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    s
}

/// Arbitrary printable text for the tokenizer tests.
fn arbitrary_text(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.1) {
                EXOTIC[rng.gen_range(0..EXOTIC.len())]
            } else {
                rng.gen_range(0x20u8..=0x7E) as char
            }
        })
        .collect()
}

#[test]
fn levenshtein_is_a_metric() {
    let mut rng = SmallRng::seed_from_u64(0xA1);
    for case in 0..CASES {
        let (a, b, c) = (ident(&mut rng), ident(&mut rng), ident(&mut rng));
        // Identity of indiscernibles.
        assert_eq!(levenshtein(&a, &a), 0, "case {case}");
        assert_eq!(levenshtein(&a, &b) == 0, a == b, "case {case}");
        // Symmetry.
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a), "case {case}");
        // Triangle inequality.
        assert!(
            levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c),
            "case {case}: {a:?} {b:?} {c:?}"
        );
        // Length bounds.
        let (la, lb) = (a.chars().count(), b.chars().count());
        assert!(levenshtein(&a, &b) >= la.abs_diff(lb), "case {case}");
        assert!(levenshtein(&a, &b) <= la.max(lb), "case {case}");
    }
}

#[test]
fn similarity_metrics_are_bounded_and_symmetric() {
    let mut rng = SmallRng::seed_from_u64(0xA2);
    for case in 0..CASES {
        let (a, b) = (ident(&mut rng), ident(&mut rng));
        for (name, v, w) in [
            (
                "lev",
                levenshtein_similarity(&a, &b),
                levenshtein_similarity(&b, &a),
            ),
            ("jaro", jaro(&a, &b), jaro(&b, &a)),
            ("jw", jaro_winkler(&a, &b), jaro_winkler(&b, &a)),
            ("dice", bigram_dice(&a, &b), bigram_dice(&b, &a)),
            (
                "combined",
                combined_similarity(&a, &b),
                combined_similarity(&b, &a),
            ),
        ] {
            assert!((0.0..=1.0 + 1e-12).contains(&v), "case {case} {name}: {v}");
            assert!(
                (v - w).abs() < 1e-12,
                "case {case} {name} asymmetric: {v} vs {w}"
            );
        }
        // Self-similarity is maximal.
        assert_eq!(jaro_winkler(&a, &a), 1.0, "case {case}");
        assert_eq!(bigram_dice(&a, &a), 1.0, "case {case}");
    }
}

#[test]
fn jaro_winkler_dominates_jaro() {
    let mut rng = SmallRng::seed_from_u64(0xA3);
    for case in 0..CASES {
        let (a, b) = (ident(&mut rng), ident(&mut rng));
        assert!(
            jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b),
            "case {case}: {a:?} {b:?}"
        );
    }
}

#[test]
fn lcs_is_bounded_by_both_lengths() {
    let mut rng = SmallRng::seed_from_u64(0xA4);
    for case in 0..CASES {
        let (a, b) = (ident(&mut rng), ident(&mut rng));
        let l = lcs_len(&a, &b);
        assert!(l <= a.chars().count(), "case {case}");
        assert!(l <= b.chars().count(), "case {case}");
        assert_eq!(lcs_len(&a, &a), a.chars().count(), "case {case}");
    }
}

#[test]
fn tokenizer_output_is_normalized() {
    let mut rng = SmallRng::seed_from_u64(0xA5);
    for case in 0..CASES {
        let label = arbitrary_text(&mut rng, 32);
        for token in tokenize(&label) {
            assert!(!token.as_str().is_empty(), "case {case}");
            assert_eq!(token.as_str(), token.as_str().to_lowercase(), "case {case}");
            assert!(
                token.as_str().chars().all(char::is_alphanumeric),
                "case {case}: {label:?} -> {token:?}"
            );
        }
    }
}

#[test]
fn tokenizer_is_idempotent_on_its_own_output() {
    let mut rng = SmallRng::seed_from_u64(0xA6);
    for case in 0..CASES {
        let label = ident(&mut rng);
        let once = tokenize(&label);
        let rejoined: String = once
            .iter()
            .map(|t| t.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        let twice = tokenize(&rejoined);
        assert_eq!(once, twice, "case {case}: {label:?}");
    }
}

#[test]
fn stem_never_grows_and_is_idempotent() {
    let mut rng = SmallRng::seed_from_u64(0xA7);
    for case in 0..CASES {
        let len = rng.gen_range(1..=16usize);
        let word: String = (0..len)
            .map(|_| rng.gen_range(b'a'..=b'z') as char)
            .collect();
        let s = stem(&word);
        assert!(s.len() <= word.len() + 1, "case {case}: {word} -> {s}"); // +1 for ies->y
        assert_eq!(
            stem(&s),
            s,
            "case {case}: stem must be idempotent: {word} -> {s}"
        );
    }
}

#[test]
fn name_matcher_is_symmetric_and_bounded() {
    let matcher = NameMatcher::with_default_thesaurus();
    let mut rng = SmallRng::seed_from_u64(0xA8);
    for case in 0..CASES {
        let (a, b) = (ident(&mut rng), ident(&mut rng));
        let ab = matcher.compare(&a, &b);
        let ba = matcher.compare(&b, &a);
        assert!(
            (ab.score - ba.score).abs() < 1e-12,
            "case {case}: {a:?} vs {b:?}"
        );
        assert_eq!(ab.grade, ba.grade, "case {case}: {a:?} vs {b:?}");
        assert!((0.0..=1.0).contains(&ab.score), "case {case}");
        // Grade/score coherence.
        match ab.grade {
            LabelGrade::Exact => assert!((ab.score - 1.0).abs() < 1e-12, "case {case}"),
            LabelGrade::Relaxed => assert!(ab.score >= 0.5 - 1e-12, "case {case}"),
            LabelGrade::None => assert!(ab.score < 1.0, "case {case}"),
        }
    }
}

#[test]
fn self_comparison_is_exact() {
    let matcher = NameMatcher::with_default_thesaurus();
    let mut rng = SmallRng::seed_from_u64(0xA9);
    for case in 0..CASES {
        let a = ident(&mut rng);
        if tokenize(&a).is_empty() {
            continue;
        }
        let m = matcher.compare(&a, &a);
        assert_eq!(
            m.grade,
            LabelGrade::Exact,
            "case {case}: {a:?} scored {}",
            m.score
        );
    }
}

/// A random tokenizer-shaped token of `len` chars: lowercase letters and
/// digits, with some [`EXOTIC`] chars.
fn token(rng: &mut SmallRng, len: usize) -> String {
    const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.1) {
                EXOTIC[rng.gen_range(0..EXOTIC.len())]
            } else {
                ALNUM[rng.gen_range(0..ALNUM.len())] as char
            }
        })
        .collect()
}

/// `t` after one char is deleted, substituted, transposed with the next,
/// or repeated — a near miss that may land either side of the fuzzy floor.
fn near_miss(rng: &mut SmallRng, t: &str) -> String {
    let mut cs: Vec<char> = t.chars().collect();
    let i = rng.gen_range(0..cs.len());
    match rng.gen_range(0..4u32) {
        0 if cs.len() > 1 => {
            cs.remove(i);
        }
        1 => cs[i] = token(rng, 1).chars().next().expect("one char"),
        2 if i + 1 < cs.len() => cs.swap(i, i + 1),
        _ => cs.insert(i, cs[i]),
    }
    cs.into_iter().collect()
}

/// A token pair: mostly identifier-sized, some over 32 chars (Jaro's heap
/// flags) and some over 255 (half of those one char repeated, more than a
/// sketch bucket can count); the second token is a near miss of the first,
/// two near misses, or unrelated.
fn token_pair(rng: &mut SmallRng) -> (String, String) {
    let (len, run) = match rng.gen_range(0..20u32) {
        0 => (rng.gen_range(256..=300usize), rng.gen_bool(0.5)),
        1 | 2 => (rng.gen_range(33..=64usize), false),
        _ => (rng.gen_range(1..=12usize), false),
    };
    let a = if run {
        token(rng, 1).repeat(len)
    } else {
        token(rng, len)
    };
    let b = match rng.gen_range(0..4u32) {
        0 => token(rng, len),
        1 => {
            let once = near_miss(rng, &a);
            near_miss(rng, &once)
        }
        _ => near_miss(rng, &a),
    };
    (a, b)
}

#[test]
fn sketch_bound_never_undercuts_the_fuzzy_metric() {
    let mut rng = SmallRng::seed_from_u64(0xAA);
    let (mut above_floor, mut ruled_out, mut unbounded) = (0, 0, 0);
    for case in 0..4 * CASES {
        let (a, b) = token_pair(&mut rng);
        let similarity = combined_similarity(&a, &b);
        above_floor += usize::from(similarity >= 0.8);
        match combined_bound(&a, &b) {
            Some(bound) => {
                assert!(
                    bound >= similarity,
                    "case {case}: {a:?} vs {b:?}: bound {bound} < {similarity}"
                );
                ruled_out += usize::from(bound < 0.8);
            }
            None => {
                assert!(a.chars().count() > 255 || b.chars().count() > 255);
                unbounded += 1;
            }
        }
    }
    // The cases reach both sides of the floor and the saturating fallback.
    assert!(above_floor > 0 && ruled_out > 0 && unbounded > 0);
}

/// The multiset overlap of two sorted sequences.
fn overlap<T: Ord>(a: &[T], b: &[T]) -> u32 {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => (i, j, common) = (i + 1, j + 1, common + 1),
        }
    }
    common
}

/// True when the token joins pair `a` with `b`, each among 48 random
/// tokens: enough pairs that the joins index rather than check every pair.
fn joined(matcher: &NameMatcher, a: &str, b: &str) -> bool {
    let mut rng = SmallRng::seed_from_u64(a.len() as u64 ^ (b.len() as u64) << 16);
    let mut side = |first: &str| -> Vec<_> {
        let mut tokens = vec![first.to_owned()];
        tokens.extend((0..48).map(|_| token_pair(&mut rng).0));
        tokens
            .iter()
            .map(|t| matcher.token_form(&Token(t.clone())))
            .collect()
    };
    let (rows, cols) = (side(a), side(b));
    let (rows, cols): (Vec<_>, Vec<_>) = (rows.iter().collect(), cols.iter().collect());
    related_pairs(matcher, &rows, &cols)
        .binary_search(&(0, 0))
        .is_ok()
}

#[test]
fn fuzzy_join_filter_never_drops_a_pair_above_the_floor() {
    let matcher = NameMatcher::new(Thesaurus::new());
    let mut rng = SmallRng::seed_from_u64(0xAC);
    let (mut different, mut above_floor) = (0, 0);
    for case in 0..8 * CASES {
        let (mut a, mut b) = token_pair(&mut rng);
        if case % 4 == 0 {
            // Two chars alternating, from either one (`xyx` / `yxy`): every
            // bigram shared, no position — the pairs only Dice brings over
            // the floor when Jaro's window is 0.
            let (x, y) = (token(&mut rng, 1), token(&mut rng, 1));
            let n = rng.gen_range(2..=6usize);
            let alternate = |p: &str, q: &str| -> String {
                (0..n).map(|i| if i % 2 == 0 { p } else { q }).collect()
            };
            (a, b) = (alternate(&x, &y), alternate(&y, &x));
        }
        if a.chars().next() == b.chars().next() {
            continue;
        }
        different += 1;
        if combined_similarity(&a, &b) < 0.8 {
            continue;
        }
        above_floor += 1;
        let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        if ca.len() <= 255 && cb.len() <= 255 {
            let sorted = |mut v: Vec<char>| {
                v.sort_unstable();
                v
            };
            let bigrams = |cs: &[char]| {
                let mut g: Vec<[char; 2]> = cs.windows(2).map(|w| [w[0], w[1]]).collect();
                g.sort_unstable();
                g
            };
            let chars = overlap(&sorted(ca.clone()), &sorted(cb.clone()));
            let shared = overlap(&bigrams(&ca), &bigrams(&cb));
            let [jaro, dice] = overlaps_needed(ca.len(), cb.len());
            assert!(
                jaro.is_some_and(|t| chars >= t) || dice.is_some_and(|t| shared >= t),
                "case {case}: {a:?} vs {b:?}: overlaps {chars}/{shared} below {jaro:?}/{dice:?}"
            );
        }
        assert!(
            joined(&matcher, &a, &b),
            "case {case}: {a:?} vs {b:?} not joined"
        );
    }
    assert!(
        different > 0 && above_floor > 0,
        "{different} {above_floor}"
    );
}

#[test]
fn abbreviation_join_key_never_drops_an_abbreviation() {
    let matcher = NameMatcher::new(Thesaurus::new());
    let mut rng = SmallRng::seed_from_u64(0xAD);
    let mut abbreviations = 0;
    for case in 0..4 * CASES {
        let len = rng.gen_range(3..=14usize);
        let long = token(&mut rng, len);
        // The first char, then a random subsequence of the rest, and
        // sometimes a plural `s` that stemming takes off again.
        let mut short: String = long.chars().take(1).collect();
        short.extend(long.chars().skip(1).filter(|_| rng.gen_bool(0.4)));
        if rng.gen_bool(0.3) {
            short.push('s');
        }
        for (x, y) in [(&short, &long), (&long, &short)] {
            let (sx, sy) = (stem(x), stem(y));
            if looks_like_abbreviation(&sx, &sy) || looks_like_abbreviation(&sy, &sx) {
                abbreviations += 1;
                // The first-char join's key: the tokens' first char.
                let first = |t: &str| t.chars().next();
                assert_eq!(first(x), first(y), "case {case}: {x:?} {y:?}");
                assert_eq!(first(&sx), first(x), "stems keep the first char");
                assert!(
                    joined(&matcher, x, y),
                    "case {case}: {x:?} vs {y:?} not joined"
                );
            }
        }
    }
    assert!(abbreviations > 0);
}

#[test]
fn token_joins_find_every_pair_that_scores_above_zero() {
    let matchers = [
        NameMatcher::with_default_thesaurus(),
        NameMatcher::new(Thesaurus::new()),
    ];
    let words = [
        "order",
        "orders",
        "quantity",
        "qty",
        "number",
        "no",
        "purchase",
        "buy",
        "book",
        "publication",
        "article",
        "writer",
        "author",
        "identifier",
        "id",
        "of",
        "the",
    ];
    for (m, matcher) in matchers.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0xAE + m as u64);
        for case in 0..CASES / 4 {
            // Small pools are checked pair by pair, large ones indexed.
            let pool = |rng: &mut SmallRng| -> Vec<String> {
                let most = if case % 2 == 0 { 24 } else { 96 };
                (0..rng.gen_range(1..=most))
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => words[rng.gen_range(0..words.len())].to_owned(),
                        1 => {
                            let word = words[rng.gen_range(0..words.len())];
                            near_miss(rng, word)
                        }
                        _ => token_pair(rng).1,
                    })
                    .collect()
            };
            let (rows, cols) = (pool(&mut rng), pool(&mut rng));
            let forms = |tokens: &[String]| -> Vec<_> {
                tokens
                    .iter()
                    .map(|t| matcher.token_form(&Token(t.clone())))
                    .collect()
            };
            let (fr, fc) = (forms(&rows), forms(&cols));
            let (r, c): (Vec<_>, Vec<_>) = (fr.iter().collect(), fc.iter().collect());
            let pairs = related_pairs(matcher, &r, &c);
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
            for (r, a) in fr.iter().enumerate() {
                for (c, b) in fc.iter().enumerate() {
                    if matcher.score_forms(a, b).0 > 0.0 {
                        assert!(
                            pairs.binary_search(&(r as u32, c as u32)).is_ok(),
                            "matcher {m} case {case}: {:?} vs {:?} scores above 0",
                            rows[r],
                            cols[c]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn grading_over_token_forms_equals_the_reference_bit_for_bit() {
    let matchers = [
        NameMatcher::with_default_thesaurus(),
        NameMatcher::new(Thesaurus::new()),
    ];
    for (m, matcher) in matchers.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0xAB + m as u64);
        for case in 0..CASES {
            let (x, y) = token_pair(&mut rng);
            let z = near_miss(&mut rng, &y);
            let pool = [
                x.as_str(),
                &y,
                &z,
                "of",
                "the",
                "order",
                "quantity",
                "qty",
                "purchase",
                "number",
            ];
            let label = |rng: &mut SmallRng| -> Vec<Token> {
                (0..rng.gen_range(1..=6usize))
                    .map(|_| Token::from(pool[rng.gen_range(0..pool.len())]))
                    .collect()
            };
            let (a, b) = (label(&mut rng), label(&mut rng));
            let forms = |tokens: &[Token]| -> Vec<_> {
                tokens.iter().map(|t| matcher.token_form(t)).collect()
            };
            let content =
                |tokens| -> Vec<u32> { content_positions(tokens).map(|p| p as u32).collect() };
            let (fa, fb) = (forms(&a), forms(&b));
            let got = matcher.compare_with(
                &a,
                &b,
                [matcher.label_acronyms(&a), matcher.label_acronyms(&b)],
                [&content(&a), &content(&b)],
                |i, j| matcher.score_forms(&fa[i], &fb[j]),
            );
            let want = matcher.compare_tokens(&a, &b);
            assert!(
                got.grade == want.grade && got.score.to_bits() == want.score.to_bits(),
                "matcher {m} case {case}: {a:?} vs {b:?}: {got:?} != {want:?}"
            );
        }
    }
}
