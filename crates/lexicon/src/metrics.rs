//! String similarity metrics.
//!
//! All metrics return a similarity in `[0, 1]` where `1.0` means identical.
//! They operate on `char`s (not bytes), so multi-byte labels behave
//! correctly. These are the fuzzy fallback beneath the thesaurus-driven
//! grades: when two tokens share no lexical relation, the matchers use
//! [`combined_similarity`].

/// Levenshtein edit distance (insertions, deletions, substitutions).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Two-row DP.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized Levenshtein similarity: `1 - dist / max_len`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_chars(&chars(a), &chars(b))
}

/// Jaro–Winkler similarity with the standard 0.1 prefix scale (max 4 chars).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_chars(&chars(a), &chars(b))
}

/// Dice coefficient over character bigrams.
pub fn bigram_dice(a: &str, b: &str) -> f64 {
    let (a, b) = (chars(a), chars(b));
    bigram_dice_chars(&a, &bigrams(&a), &b, &bigrams(&b))
}

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

/// Jaro similarity over `char` slices — the one implementation behind
/// [`jaro`], [`jaro_winkler`] and the name matcher's prepared tokens.
pub(crate) fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    // Match flags live on the stack for identifier-sized inputs.
    let (mut a_stack, mut b_stack) = ([false; 32], [false; 32]);
    let (mut a_heap, mut b_heap) = (Vec::new(), Vec::new());
    let a_matched = flags(&mut a_stack, &mut a_heap, a.len());
    let b_taken = flags(&mut b_stack, &mut b_heap, b.len());
    let mut m = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                a_matched[i] = true;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Transpositions: the matched characters of `a` in `a`'s order against
    // those of `b` in `b`'s order.
    let in_a = a.iter().zip(a_matched.iter()).filter(|(_, &k)| k);
    let in_b = b.iter().zip(b_taken.iter()).filter(|(_, &k)| k);
    let t = in_a.zip(in_b).filter(|((x, _), (y, _))| x != y).count() as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// `len` cleared flags, borrowed from `stack` when they fit.
fn flags<'a>(stack: &'a mut [bool; 32], heap: &'a mut Vec<bool>, len: usize) -> &'a mut [bool] {
    if len <= stack.len() {
        &mut stack[..len]
    } else {
        *heap = vec![false; len];
        heap
    }
}

/// Jaro–Winkler over `char` slices (see [`jaro_chars`]).
pub(crate) fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// The sorted bigram multiset of `cs`, as `[char; 2]` windows.
pub(crate) fn bigrams(cs: &[char]) -> Vec<[char; 2]> {
    let mut grams: Vec<[char; 2]> = cs.windows(2).map(|w| [w[0], w[1]]).collect();
    grams.sort_unstable();
    grams
}

/// Bigram Dice over `char` slices and their sorted [`bigrams`].
pub(crate) fn bigram_dice_chars(a: &[char], ga: &[[char; 2]], b: &[char], gb: &[[char; 2]]) -> f64 {
    if a == b {
        return 1.0;
    }
    dice_sorted(ga, gb)
}

/// Dice coefficient of two sorted bigram multisets: each bigram of one side
/// pairs with at most one equal bigram of the other, so the shared count is
/// the multiset intersection, found in one merge pass.
fn dice_sorted(ga: &[[char; 2]], gb: &[[char; 2]]) -> f64 {
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut common) = (0, 0, 0usize);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * common as f64 / (ga.len() + gb.len()) as f64
}

/// Length of the longest common subsequence.
pub fn lcs_len(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for &ca in &a {
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb {
                prev[j] + 1
            } else {
                cur[j].max(prev[j + 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The fuzzy similarity the matchers use for unrelated tokens: the maximum
/// of Jaro–Winkler and bigram Dice, which behaves well on both short
/// (`qty`/`qnty`) and long (`shipping`/`shippingaddress`) identifiers.
pub fn combined_similarity(a: &str, b: &str) -> f64 {
    let (a, b) = (chars(a), chars(b));
    combined_chars(&a, &bigrams(&a), &b, &bigrams(&b))
}

/// [`combined_similarity`] over `char` slices and their sorted
/// [`bigrams`].
pub(crate) fn combined_chars(a: &[char], ga: &[[char; 2]], b: &[char], gb: &[[char; 2]]) -> f64 {
    jaro_winkler_chars(a, b).max(bigram_dice_chars(a, ga, b, gb))
}

/// An upper bound on [`combined_similarity`] from the tokens' lengths,
/// common prefix and char counts in 32 buckets alone, or `None` when a
/// token is empty or longer than 255 chars (a bucket may have saturated).
pub fn combined_bound(a: &str, b: &str) -> Option<f64> {
    let (a, b) = (chars(a), chars(b));
    combined_bound_chars(&a, &sketch(&a), &b, &sketch(&b))
}

/// The char-count sketch of `cs`: how many of its chars fall in each of 32
/// buckets (`char as u32 % 32`), saturating at 255.
pub(crate) fn sketch(cs: &[char]) -> [u8; 32] {
    let mut counts = [0u8; 32];
    for &c in cs {
        let k = c as usize % 32;
        counts[k] = counts[k].saturating_add(1);
    }
    counts
}

/// Added to [`combined_bound_chars`] so that rounding cannot put the
/// computed metric above the computed bound: the Winkler boost is monotone
/// in Jaro only up to a few ulps in floating point.
const BOUND_SLACK: f64 = 1e-9;

/// [`combined_bound`] over `char` slices and their [`sketch`]es.
///
/// `m = Σ_k min(sa[k], sb[k])` bounds both counts the metrics share: Jaro's
/// matched chars pair equal chars, and each shared bigram pairs the equal
/// chars it starts with at distinct positions of either side, so both are
/// at most `Σ_c min(count_a(c), count_b(c))`; bucketing chars only raises
/// that sum. Two sharper counts come at no extra pass:
///
/// - when neither token is longer than 3 chars, Jaro's match window is 0,
///   so its matched chars are exactly the equal positions;
/// - a shared bigram's first chars sit before each token's last char and
///   its second chars after each token's first char, so the shared
///   bigrams are also at most the bucket overlap without the two last
///   chars, and at most the one without the two first chars.
///
/// Then Jaro is at most `(mj/|a| + mj/|b| + 1)/3`, Jaro–Winkler at most
/// that plus the exact ≤4-char prefix boost, and Dice at most
/// `2·min(mb, |a|−1, |b|−1)/(|a|−1 + |b|−1)` ([`bound_of_counts`]).
pub(crate) fn combined_bound_chars(
    a: &[char],
    sa: &[u8; 32],
    b: &[char],
    sb: &[u8; 32],
) -> Option<f64> {
    if a.is_empty() || b.is_empty() || a.len() > 255 || b.len() > 255 {
        return None;
    }
    let m: u32 = sa.iter().zip(sb).map(|(&x, &y)| u32::from(x.min(y))).sum();
    let jaro_m = if a.len().max(b.len()) <= 3 {
        a.iter().zip(b).filter(|(x, y)| x == y).count() as u32
    } else {
        m
    };
    let (first, last) = (|cs: &[char]| cs[0], |cs: &[char]| cs[cs.len() - 1]);
    let bigram_m =
        overlap_less(m, sa, last(a), sb, last(b)).min(overlap_less(m, sa, first(a), sb, first(b)));
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    Some(bound_of_counts(jaro_m, bigram_m, a.len(), b.len(), prefix))
}

/// The bucket overlap `m` of sketches `sa` and `sb` once one char `x` is
/// taken out of `sa` and one char `y` out of `sb` (both are counted there).
fn overlap_less(m: u32, sa: &[u8; 32], x: char, sb: &[u8; 32], y: char) -> u32 {
    let (kx, ky) = (x as usize % 32, y as usize % 32);
    if kx == ky {
        return m - 1;
    }
    m - u32::from(sa[kx] <= sb[kx]) - u32::from(sb[ky] <= sa[ky])
}

/// The fuzzy metric's bound for tokens of `la` and `lb` chars with common
/// prefix `prefix` (≤ 4), given at most `jaro_m` Jaro-matched chars and at
/// most `bigram_m` shared bigrams: [`combined_bound_chars`]'s formula. It
/// never decreases as either count grows.
pub(crate) fn bound_of_counts(
    jaro_m: u32,
    bigram_m: u32,
    la: usize,
    lb: usize,
    prefix: usize,
) -> f64 {
    let m = f64::from(jaro_m);
    let jaro = (m / la as f64 + m / lb as f64 + 1.0) / 3.0;
    let winkler = jaro + prefix as f64 * 0.1 * (1.0 - jaro);
    let (ga, gb) = ((la - 1) as f64, (lb - 1) as f64);
    let dice = if ga + gb > 0.0 {
        2.0 * f64::from(bigram_m).min(ga).min(gb) / (ga + gb)
    } else {
        0.0
    };
    winkler.max(dice) + BOUND_SLACK
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn levenshtein_similarity_normalizes() {
        assert_close(levenshtein_similarity("", ""), 1.0);
        assert_close(levenshtein_similarity("abc", "abc"), 1.0);
        assert_close(levenshtein_similarity("abcd", "abXd"), 0.75);
        assert_close(levenshtein_similarity("a", "z"), 0.0);
    }

    #[test]
    fn jaro_reference_values() {
        // Classic reference pairs.
        assert_close(jaro("MARTHA", "MARHTA"), 0.9444444444444445);
        assert_close(jaro("DIXON", "DICKSONX"), 0.7666666666666666);
        assert_close(jaro("", ""), 1.0);
        assert_close(jaro("a", ""), 0.0);
        assert_close(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_reference_values() {
        assert_close(jaro_winkler("MARTHA", "MARHTA"), 0.9611111111111111);
        assert_close(jaro_winkler("DIXON", "DICKSONX"), 0.8133333333333332);
        assert_close(jaro_winkler("identical", "identical"), 1.0);
    }

    #[test]
    fn jaro_winkler_is_symmetric_and_bounded() {
        let pairs = [
            ("quantity", "qty"),
            ("order", "ordre"),
            ("x", "xyzzy"),
            ("", "a"),
        ];
        for (a, b) in pairs {
            let ab = jaro_winkler(a, b);
            let ba = jaro_winkler(b, a);
            assert_close(ab, ba);
            assert!((0.0..=1.0).contains(&ab));
        }
    }

    #[test]
    fn dice_coefficients() {
        assert_close(bigram_dice("night", "nacht"), 0.25);
        assert_close(bigram_dice("same", "same"), 1.0);
        assert_close(bigram_dice("a", "a"), 1.0); // shorter than the n-gram
        assert_close(bigram_dice("a", "b"), 0.0);
    }

    #[test]
    fn dice_handles_repeated_bigrams() {
        // "aaaa" has bigrams {aa, aa, aa}; "aa" has {aa}. Multiset matching
        // must count the shared bigram once.
        assert_close(bigram_dice("aaaa", "aa"), 2.0 * 1.0 / 4.0);
    }

    #[test]
    fn lcs_basics() {
        assert_eq!(lcs_len("abcde", "ace"), 3);
        assert_eq!(lcs_len("", "abc"), 0);
        assert_eq!(lcs_len("abc", "abc"), 3);
        assert_eq!(lcs_len("qty", "quantity"), 3);
    }

    #[test]
    fn combined_similarity_reasonable_on_schema_tokens() {
        assert!(combined_similarity("quantity", "quantity") == 1.0);
        assert!(combined_similarity("quantity", "qnty") > 0.7);
        assert!(combined_similarity("orderno", "ordernumber") > 0.7);
        assert!(combined_similarity("head", "legs") <= 0.5);
    }

    #[test]
    fn combined_bound_caps_the_metric() {
        for (a, b) in [
            ("quantity", "quantety"),
            ("head", "legs"),
            ("aaaa", "aa"),
            ("x", "y"),
            ("größe", "grösse"),
        ] {
            let bound = combined_bound(a, b).expect("short tokens");
            assert!(bound >= combined_similarity(a, b), "{a} vs {b}");
        }
        // Disjoint buckets leave only the 1/3 transposition term.
        assert_close(
            combined_bound("abc", "xyz").expect("short"),
            1.0 / 3.0 + 1e-9,
        );
        assert_eq!(combined_bound("", "a"), None);
        assert_eq!(combined_bound(&"a".repeat(256), "a"), None);
    }

    #[test]
    fn all_metrics_handle_unicode() {
        assert!(levenshtein_similarity("véhicule", "vehicule") > 0.8);
        assert!(jaro_winkler("élan", "élan") == 1.0);
        assert!(bigram_dice("日本語", "日本") > 0.0);
    }
}
