//! Token-pair joins: the pairs of two token sets that
//! [`NameMatcher::score_forms`] can score above 0, found without scoring,
//! or even visiting, every pair.
//!
//! `score_forms` scores a pair above 0 by one of four rules, and each rule
//! gets a join that finds every pair the rule can fire on:
//!
//! 1. **equal text or stem, and thesaurus relations** — a sort-merge join
//!    on [`Thesaurus::relation_keys`](crate::Thesaurus::relation_keys) of
//!    the stems: two stems that are equal or related share a key;
//! 2. **[`looks_like_abbreviation`]** of the stems — it needs the same
//!    first char, and a stem keeps its token's first char, so the pair
//!    lies in one first-char bucket, where the predicate itself is checked;
//! 3. **the fuzzy metric, same first char** — the same first-char bucket,
//!    filtered by the metric's sketch bound;
//! 4. **the fuzzy metric, different first chars** — no Winkler boost, so a
//!    pair reaching the floor shares at least as many chars, or bigrams,
//!    as [`overlaps_needed`] says; prefix filters over the tokens' chars
//!    and bigrams (Bayardo et al., "all pairs", WWW 2007) find every such
//!    pair, then the sketch bound filters them. Small builds check every
//!    pair instead.
//!
//! The sketch bound does not exist for a token that is empty or longer
//! than 255 chars; such a token is paired with every token of the other
//! side. DESIGN.md §10 gives each completeness argument in full.

use crate::metrics::{bound_of_counts, combined_bound_chars};
use crate::name_match::{looks_like_abbreviation, scores, NameMatcher, TokenForm};

/// Every pair `(r, c)` of `rows × cols` that
/// [`NameMatcher::score_forms`] can score above 0, sorted, without
/// repeats. It may hold a few pairs that score 0; every pair it leaves out
/// scores `(0.0, false)`.
pub fn related_pairs(
    matcher: &NameMatcher,
    rows: &[&TokenForm],
    cols: &[&TokenForm],
) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    key_join(matcher, rows, cols, &mut pairs);
    first_char_join(rows, cols, &mut pairs);
    fuzzy_join(rows, cols, &mut pairs);
    for (r, form) in rows.iter().enumerate() {
        if !bounded(form) {
            pairs.extend((0..cols.len() as u32).map(|c| (r as u32, c)));
        }
    }
    for (c, form) in cols.iter().enumerate() {
        if !bounded(form) {
            pairs.extend((0..rows.len() as u32).map(|r| (r, c as u32)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// True when the sketch bound exists for `form`: 1 to 255 chars.
fn bounded(form: &TokenForm) -> bool {
    (1..=255).contains(&form.chars.len())
}

/// Sorts `keyed` — `(key, side, id)`, side 0 for a row and 1 for a column
/// — and calls `emit(row, col)` for every row and column sharing a key.
pub fn cross_runs<K: Ord + Copy>(keyed: &mut [(K, u32, u32)], mut emit: impl FnMut(u32, u32)) {
    keyed.sort_unstable();
    let mut start = 0;
    while start < keyed.len() {
        let key = keyed[start].0;
        let end = start + keyed[start..].partition_point(|e| e.0 == key);
        let run = &keyed[start..end];
        let split = run.partition_point(|e| e.1 == 0);
        for r in &run[..split] {
            for c in &run[split..] {
                emit(r.2, c.2);
            }
        }
        start = end;
    }
}

/// Join 1: equal stems and thesaurus relations, on the stems'
/// [`Thesaurus::relation_keys`](crate::Thesaurus::relation_keys).
fn key_join(
    matcher: &NameMatcher,
    rows: &[&TokenForm],
    cols: &[&TokenForm],
    out: &mut Vec<(u32, u32)>,
) {
    let thesaurus = matcher.thesaurus();
    let mut keyed: Vec<(u64, u32, u32)> = Vec::with_capacity(rows.len() + cols.len());
    let mut keys = Vec::new();
    for (side, forms) in [rows, cols].into_iter().enumerate() {
        for (id, form) in forms.iter().enumerate() {
            keys.clear();
            thesaurus.relation_keys(&form.stem, form.entry, &mut keys);
            keys.sort_unstable();
            keys.dedup();
            keyed.extend(keys.iter().map(|&key| (key, side as u32, id as u32)));
        }
    }
    cross_runs(&mut keyed, |r, c| out.push((r, c)));
}

/// Joins 2 and 3: in each first-char bucket, the pairs
/// [`looks_like_abbreviation`] accepts either way round and those whose
/// sketch bound reaches the fuzzy floor (or has none).
fn first_char_join(rows: &[&TokenForm], cols: &[&TokenForm], out: &mut Vec<(u32, u32)>) {
    let mut keyed: Vec<(char, u32, u32)> = Vec::with_capacity(rows.len() + cols.len());
    for (side, forms) in [rows, cols].into_iter().enumerate() {
        for (id, form) in forms.iter().enumerate() {
            if let Some(&first) = form.chars.first() {
                keyed.push((first, side as u32, id as u32));
            }
        }
    }
    cross_runs(&mut keyed, |r, c| {
        let (a, b) = (rows[r as usize], cols[c as usize]);
        let keep = looks_like_abbreviation(&a.stem, &b.stem)
            || looks_like_abbreviation(&b.stem, &a.stem)
            || !combined_bound_chars(&a.chars, &a.sketch, &b.chars, &b.sketch)
                .is_some_and(|bound| bound < scores::FUZZY_FLOOR);
        if keep {
            out.push((r, c));
        }
    });
}

/// Join 4: the pairs with different first chars whose sketch bound
/// reaches the fuzzy floor, by prefix filtering.
///
/// With no common prefix, a pair's metric reaches the floor only if its
/// Jaro part does, which needs a char overlap of [`overlaps_needed`]`[0]`,
/// or its Dice part does, which needs a bigram overlap of
/// [`overlaps_needed`]`[1]`. Each is a set-overlap threshold, found by a
/// prefix filter ([`prefix_join`]) over the tokens' chars and over their
/// bigrams; every pair found is then checked against the sketch bound.
fn fuzzy_join(rows: &[&TokenForm], cols: &[&TokenForm], out: &mut Vec<(u32, u32)>) {
    let mut check = |r: usize, c: usize| {
        let (a, b) = (rows[r], cols[c]);
        if a.chars[0] != b.chars[0]
            && combined_bound_chars(&a.chars, &a.sketch, &b.chars, &b.sketch)
                .is_some_and(|bound| bound >= scores::FUZZY_FLOOR)
        {
            out.push((r as u32, c as u32));
        }
    };
    // Few pairs: checking each costs less than ranking and indexing the
    // tokens' elements.
    if rows.len() * cols.len() <= DIRECT * (rows.len() + cols.len()) {
        for (r, a) in rows.iter().enumerate() {
            for (c, b) in cols.iter().enumerate() {
                if bounded(a) && bounded(b) {
                    check(r, c);
                }
            }
        }
        return;
    }
    // Both overlaps for every pair of row and column token lengths.
    let lengths = |forms: &[&TokenForm]| {
        let mut lengths: Vec<usize> = forms
            .iter()
            .filter(|f| bounded(f))
            .map(|f| f.chars.len())
            .collect();
        lengths.sort_unstable();
        lengths.dedup();
        lengths
    };
    let (row_lengths, col_lengths) = (lengths(rows), lengths(cols));
    let needs: Vec<[Option<u32>; 2]> = row_lengths
        .iter()
        .flat_map(|&la| col_lengths.iter().map(move |&lb| overlaps_needed(la, lb)))
        .collect();
    let needed = |la: usize, lb: usize, k: usize| {
        let i = row_lengths.binary_search(&la).ok()?;
        let j = col_lengths.binary_search(&lb).ok()?;
        needs[i * col_lengths.len() + j][k]
    };
    let forms = |t: usize| {
        if t < rows.len() {
            rows[t]
        } else {
            cols[t - rows.len()]
        }
    };
    let tokens = rows.len()..rows.len() + cols.len();
    let mut check = |r: usize, c: usize| check(r, c - rows.len());
    // Chars and bigrams in buckets: a pair's bucket overlap is at least its
    // true overlap. 251 char buckets keep digits and letters apart (the
    // sketch's 32 do not); bigrams take the sketch's buckets of both chars.
    let chars = Elements::new(tokens.end, 251, |t, out| {
        let form = forms(t);
        if bounded(form) {
            out.extend(form.chars.iter().map(|&c| (c as u32 % 251) as u16));
        }
    });
    let jaro = |la: usize, lb: usize| needed(la, lb, 0);
    prefix_join(&chars, 0..rows.len(), tokens.clone(), &jaro, &mut check);
    // A token of `n` chars has `n - 1` bigrams.
    let bucket = |c: char| c as u16 % 32;
    let bigrams = Elements::new(tokens.end, 32 * 32, |t, out| {
        let form = forms(t);
        if bounded(form) {
            out.extend(
                form.bigrams
                    .iter()
                    .map(|&[x, y]| bucket(x) * 32 + bucket(y)),
            );
        }
    });
    let dice = |ga: usize, gb: usize| needed(ga + 1, gb + 1, 1);
    prefix_join(&bigrams, 0..rows.len(), tokens, &dice, &mut check);
}

/// Up to `DIRECT × (rows + columns)` token pairs, [`fuzzy_join`] checks
/// every pair instead of indexing: that is about where the two cost the
/// same. Timed on one thread over samples of PIR's tokens against a
/// revision's and PDB's, checking every pair was faster up to 48 × 48
/// tokens (24 pairs per token) and at 32 × 1000 (31), as fast at 80 × 80
/// (40), and slower from 96 × 96 (48) and at 64 × 242 (51) on.
const DIRECT: usize = 40;

/// The least overlaps at which two tokens of `la` and `lb` chars with
/// different first chars can reach the fuzzy floor: `[chars, bigrams]`.
/// With no common prefix, the metric's bound is
/// `bound_of_counts(m, b, la, lb, 0)` for a char overlap `m`
/// (`Σ_c min(count_a(c), count_b(c))`, which bounds Jaro's matched chars)
/// and a bigram overlap `b` (the shared bigrams, Dice's numerator). That
/// reaches the floor only if its Jaro part does, which needs `m` at least
/// the first, or its Dice part does, which needs `b` at least the second.
/// When neither token is longer than 3 chars, Jaro's match window is 0, so
/// its matched chars are equal positions other than the first: at most
/// the shorter length less one. `None` when no overlap suffices, or a
/// length is 0 or over 255.
pub fn overlaps_needed(la: usize, lb: usize) -> [Option<u32>; 2] {
    if la == 0 || lb == 0 || la > 255 || lb > 255 {
        return [None, None];
    }
    let least = |most: usize, bound: &dyn Fn(u32) -> f64| {
        (0..=most as u32).find(|&m| bound(m) >= scores::FUZZY_FLOOR)
    };
    // Jaro's window is 0 when neither token is longer than 3 chars: its
    // matches are then equal positions, and the first never matches.
    let jaro_most = if la.max(lb) <= 3 {
        la.min(lb) - 1
    } else {
        la.min(lb)
    };
    [
        least(jaro_most, &|m| bound_of_counts(m, 0, la, lb, 0)),
        least(la.min(lb), &|b| bound_of_counts(0, b, la, lb, 0)),
    ]
}

/// Element sets for a prefix filter. A token is a multiset of buckets
/// below a `universe`; its elements are its buckets numbered by
/// occurrence (`(b, k)` for the `k`-th `b`), so two tokens share exactly
/// their bucket overlap. Elements are ordered by how few tokens hold their
/// bucket, then by bucket, then by occurrence: token `t`'s elements in
/// that order, as `rank << 8 | k`, are `elements[start[t]..start[t + 1]]`.
struct Elements {
    elements: Vec<u32>,
    start: Vec<usize>,
}

impl Elements {
    /// The sets of `tokens` tokens; `buckets(t, out)` appends token `t`'s
    /// buckets (fewer than 256 of each), each below `universe`.
    fn new(
        tokens: usize,
        universe: usize,
        mut buckets: impl FnMut(usize, &mut Vec<u16>),
    ) -> Elements {
        let mut flat: Vec<u16> = Vec::new();
        let mut start = vec![0];
        let mut holders = vec![0u32; universe];
        for t in 0..tokens {
            let from = flat.len();
            buckets(t, &mut flat);
            let own = &mut flat[from..];
            own.sort_unstable();
            for (i, &b) in own.iter().enumerate() {
                if i == 0 || own[i - 1] != b {
                    holders[b as usize] += 1;
                }
            }
            start.push(flat.len());
        }
        let mut order: Vec<u16> = (0..universe as u16)
            .filter(|&b| holders[b as usize] > 0)
            .collect();
        order.sort_unstable_by_key(|&b| (holders[b as usize], b));
        let mut rank = vec![0u32; universe];
        for (r, &b) in order.iter().enumerate() {
            rank[b as usize] = r as u32;
        }
        let mut elements = Vec::with_capacity(flat.len());
        for t in 0..tokens {
            let own = &flat[start[t]..start[t + 1]];
            let mut k = 0;
            for (i, &b) in own.iter().enumerate() {
                k = if i > 0 && own[i - 1] == b { k + 1 } else { 0 };
                elements.push(rank[b as usize] << 8 | k);
            }
            elements[start[t]..].sort_unstable();
        }
        Elements { elements, start }
    }

    fn of(&self, t: usize) -> &[u32] {
        &self.elements[self.start[t]..self.start[t + 1]]
    }
}

/// Calls `check(r, c)` for every pair of a token `r` in `rows` and `c` in
/// `cols` whose sets share at least `need(|r|, |c|)` elements (and for
/// some that do not), at most once per pair.
///
/// If two sets must share `t` elements, the rarest one they share is among
/// the first `len − t + 1` of each. One pass indexes the prefixes of the
/// shorter sets and probes them with the prefixes of the longer (or
/// equally long) ones: an indexed set of size `li` keeps the prefix for
/// the least `need` any longer probe length asks of it, a probing set of
/// size `lp` the one for the least `need` any shorter indexed length asks.
/// A second pass swaps the sides.
fn prefix_join(
    sets: &Elements,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    need: &dyn Fn(usize, usize) -> Option<u32>,
    check: &mut impl FnMut(usize, usize),
) {
    one_way(
        sets,
        rows.clone(),
        cols.clone(),
        need,
        false,
        &mut |r, c| check(r, c),
    );
    let flipped = |lp: usize, li: usize| need(li, lp);
    one_way(sets, cols, rows, &flipped, true, &mut |c, r| check(r, c));
}

/// One pass of [`prefix_join`]: `probes` against the `indexed` sets no
/// longer than them (`strict`: shorter), `need(probe len, indexed len)`.
fn one_way(
    sets: &Elements,
    probes: std::ops::Range<usize>,
    indexed: std::ops::Range<usize>,
    need: &dyn Fn(usize, usize) -> Option<u32>,
    strict: bool,
    check: &mut dyn FnMut(usize, usize),
) {
    let admits = |lp: usize, li: usize| if strict { li < lp } else { li <= lp };
    let lengths = |range: std::ops::Range<usize>| {
        let mut lengths: Vec<usize> = range.map(|t| sets.of(t).len()).filter(|&l| l > 0).collect();
        lengths.sort_unstable();
        lengths.dedup();
        lengths
    };
    let (probe_lengths, index_lengths) = (lengths(probes.clone()), lengths(indexed.clone()));
    let width = index_lengths.len();
    let mut needs = vec![None; probe_lengths.len() * width];
    for (p, &lp) in probe_lengths.iter().enumerate() {
        for (i, &li) in index_lengths.iter().enumerate() {
            if admits(lp, li) {
                needs[p * width + i] = need(lp, li);
            }
        }
    }
    let probe_need: Vec<Option<u32>> = (0..probe_lengths.len())
        .map(|p| (0..width).filter_map(|i| needs[p * width + i]).min())
        .collect();
    let index_need: Vec<Option<u32>> = (0..width)
        .map(|i| {
            (0..probe_lengths.len())
                .filter_map(|p| needs[p * width + i])
                .min()
        })
        .collect();
    let position = |lengths: &[usize], t: usize| lengths.binary_search(&sets.of(t).len()).ok();
    let prefix = |t: usize, need: u32| {
        let set = sets.of(t);
        &set[..set.len() + 1 - need as usize]
    };

    // (element, indexed token, its length's position), by element.
    let mut postings: Vec<(u32, u32, u32)> = Vec::new();
    for t in indexed.clone() {
        let Some(i) = position(&index_lengths, t) else {
            continue;
        };
        if let Some(need) = index_need[i] {
            let entry = |&element: &u32| (element, t as u32, i as u32);
            postings.extend(prefix(t, need).iter().map(entry));
        }
    }
    postings.sort_unstable();
    let mut seen = vec![usize::MAX; indexed.len()];
    for t in probes {
        let Some(p) = position(&probe_lengths, t) else {
            continue;
        };
        let Some(need) = probe_need[p] else { continue };
        // The prefix ascends, so each element's postings lie past the last.
        let mut from = 0;
        for &element in prefix(t, need) {
            from += postings[from..].partition_point(|e| e.0 < element);
            let to = from + postings[from..].partition_point(|e| e.0 == element);
            for &(_, u, i) in &postings[from..to] {
                let u = u as usize;
                if std::mem::replace(&mut seen[u - indexed.start], t) != t
                    && needs[p * width + i as usize].is_some()
                {
                    check(t, u);
                }
            }
            from = to;
        }
    }
}
