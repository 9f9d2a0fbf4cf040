//! The per-build token table behind cold label comparisons.
//!
//! A label build ([`MatchSession::label_matrix`]) compares every distinct
//! label pair the session cache has not seen yet. Nearly all of them are
//! unrelated — on PIR against a 15 % revision about 5 % of the label pairs
//! are not `{None, +0.0}` — so a row missing at least half the columns
//! (a *joined* row; every row of a cold build) is resolved with work that
//! grows with its related pairs, not with the columns. A row missing fewer
//! (an *aligned* row: a partly cached row that meets a few new labels)
//! has few misses, and resolving each of them costs less than the joins'
//! setup over every token of the row. The misses of one build are
//! resolved in four steps:
//!
//! 1. the content tokens of the missing rows and columns get dense local
//!    ids, each distinct token its [`TokenForm`] once, each label its
//!    content-token positions and acronym expansions once, and each token
//!    the list of joined labels holding it;
//! 2. the token pairs that can score above 0 for a joined row's tokens are
//!    found by joins ([`related_pairs`]: equal stems and thesaurus
//!    relations, first-char buckets, a prefix filter for the fuzzy metric),
//!    the aligned rows' misses mark the token pairs they align, and each
//!    pair is scored once ([`NameMatcher::score_forms`]) into a sparse
//!    table; a pair not in it reads `(0.0, false)`;
//! 3. the label pairs to grade are gathered: every miss of an aligned row,
//!    and of a joined row those that can be related — holding a positive
//!    token pair (through the token → label lists), the both-empty pairs
//!    and the phrase-acronym pairs (joined on [`NameMatcher::acronym_keys`]
//!    / [`NameMatcher::phrase_keys`]), each kept only if it is missing;
//! 4. each of those is graded from the table
//!    ([`NameMatcher::compare_with`]). Every other missing pair of a joined
//!    row grades `{None, +0.0}` (DESIGN.md §10 gives the proof), the value
//!    the output table already holds there, so it takes no work at all.
//!
//! Steps 2 and 4 fan out at the session's thread count, gated by the
//! candidate counts. Every cell is a pure function of its tokens, so the
//! grades are bit-identical to [`NameMatcher::compare_tokens`] for every
//! schedule. The table lives for one build only: nothing here outlasts the
//! call.
//!
//! [`NameMatcher::compare_tokens`]: qmatch_lexicon::NameMatcher::compare_tokens

use crate::model::LexiconMode;
use crate::par;
use crate::session::{Labels, MatchSession};
use qmatch_lexicon::join::{cross_runs, related_pairs};
use qmatch_lexicon::name_match::{content_positions, LabelGrade, NameMatch, NameMatcher};
use qmatch_lexicon::tokenize::Token;
use qmatch_lexicon::TokenForm;
use std::collections::HashMap;

/// The label-cache misses of one build: each source row with a miss, in
/// ascending order, missing either every column or a listed few. A row
/// the cache has never seen is one entry, not one index per column.
#[derive(Default)]
pub(crate) struct Misses {
    /// `(row, columns)`: `None` when the row misses every column, else a
    /// range of `cols`.
    rows: Vec<(u32, Option<(u32, u32)>)>,
    /// The missing columns of the partial rows, ascending per row.
    cols: Vec<u32>,
}

impl Misses {
    /// Row `i` misses every column. Rows must come in ascending order.
    pub(crate) fn push_row(&mut self, i: usize) {
        self.rows.push((i as u32, None));
    }

    /// Row `i` misses the columns `cols` (ascending); nothing when they are
    /// none. Rows must come in ascending order.
    pub(crate) fn push_cols(&mut self, i: usize, cols: impl IntoIterator<Item = usize>) {
        let from = self.cols.len() as u32;
        self.cols.extend(cols.into_iter().map(|j| j as u32));
        let to = self.cols.len() as u32;
        if to > from {
            self.rows.push((i as u32, Some((from, to))));
        }
    }

    /// The number of missing label pairs in a table `width` columns wide.
    pub(crate) fn count(&self, width: usize) -> usize {
        let full = self.rows.iter().filter(|(_, cols)| cols.is_none()).count();
        full * width + self.cols.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Each row with a miss and its missing columns (`None`: all of them).
    pub(crate) fn rows(&self) -> impl Iterator<Item = (usize, Option<&[u32]>)> + '_ {
        self.rows.iter().map(|&(i, cols)| {
            let cols = cols.map(|(from, to)| &self.cols[from as usize..to as usize]);
            (i as usize, cols)
        })
    }
}

/// What [`MatchSession::compare_misses`] did.
pub(crate) struct Resolved {
    /// The flat indices of the label pairs written to the table, ascending:
    /// every missing pair whose match may differ from `{None, +0.0}`.
    pub(crate) written: Vec<usize>,
    /// Candidate token pairs scored.
    pub(crate) scored: u64,
    /// Label pairs graded by [`NameMatcher::compare_with`].
    pub(crate) graded: u64,
}

/// The distinct content tokens of one build, each with its
/// [`TokenForm`], derived once even when both sides hold the token.
#[derive(Default)]
struct Vocabulary<'t> {
    ids: HashMap<&'t str, u32>,
    forms: Vec<TokenForm>,
}

impl<'t> Vocabulary<'t> {
    /// The id of `token`'s form, derived on first sight.
    fn id(&mut self, matcher: &NameMatcher, token: &'t Token) -> u32 {
        let forms = &mut self.forms;
        *self.ids.entry(token.as_str()).or_insert_with(|| {
            forms.push(matcher.token_form(token));
            forms.len() as u32 - 1
        })
    }
}

/// One side of a build: a dense local id per distinct content token of
/// the labels taking part in a miss, with its form, and for the labels
/// whose misses are resolved by joins, the labels holding each token.
struct Side<'m> {
    /// The [`Vocabulary`] id of each token's form.
    form: Vec<u32>,
    /// Token ids per position, label after label. A position outside the
    /// label's content reads `u32::MAX`: no score is asked for it.
    ids: Vec<u32>,
    /// Label `k`'s ids are `ids[start[k]..start[k + 1]]` (empty for labels
    /// in no miss).
    start: Vec<u32>,
    /// [`content_positions`] of each label, label after label: label `k`'s
    /// are `content[content_start[k]..content_start[k + 1]]`.
    content: Vec<u32>,
    content_start: Vec<u32>,
    /// Per label, its [`NameMatcher::label_acronyms`], looked up once per
    /// build instead of once per label pair (empty for labels in no miss).
    acronyms: Vec<&'m [Vec<String>]>,
    /// The joined labels (in a miss resolved by joins), ascending.
    joined: Vec<u32>,
    /// Token `t`'s joined labels — those holding it at a content position,
    /// ascending — are `holders[holder_start[t]..holder_start[t + 1]]`.
    holders: Vec<u32>,
    holder_start: Vec<u32>,
}

impl<'m> Side<'m> {
    /// The side of `labels`: those `used` take part in a miss, and those
    /// also `joined` have their misses resolved by joins.
    fn new<'t>(
        matcher: &'m NameMatcher,
        labels: Labels<'t>,
        used: &[bool],
        joined: &[bool],
        vocabulary: &mut Vocabulary<'t>,
    ) -> Side<'m> {
        let mut local: HashMap<&str, u32> = HashMap::new();
        let mut form = Vec::new();
        let mut ids = Vec::new();
        let mut start = Vec::with_capacity(labels.len() + 1);
        let mut content = Vec::new();
        let mut content_start = Vec::with_capacity(labels.len() + 1);
        let mut acronyms = Vec::with_capacity(labels.len());
        let mut joined_labels = Vec::new();
        // (token, label) once per joined label holding the token.
        let mut held: Vec<(u32, u32)> = Vec::new();
        for (k, &used) in used.iter().enumerate() {
            start.push(ids.len() as u32);
            content_start.push(content.len() as u32);
            if !used {
                acronyms.push(&[][..]);
                continue;
            }
            if joined[k] {
                joined_labels.push(k as u32);
            }
            let tokens = labels.tokens(k);
            acronyms.push(matcher.label_acronyms(tokens));
            let (base, first_held) = (ids.len(), held.len());
            ids.resize(base + tokens.len(), u32::MAX);
            for p in content_positions(tokens) {
                content.push(p as u32);
                let id = *local.entry(tokens[p].as_str()).or_insert_with(|| {
                    form.push(vocabulary.id(matcher, &tokens[p]));
                    form.len() as u32 - 1
                });
                ids[base + p] = id;
                if joined[k] && !held[first_held..].iter().any(|&(t, _)| t == id) {
                    held.push((id, k as u32));
                }
            }
        }
        start.push(ids.len() as u32);
        content_start.push(content.len() as u32);
        // Bucket the labels by token; each bucket stays in label order.
        let mut holder_start = vec![0u32; form.len() + 1];
        for &(t, _) in &held {
            holder_start[t as usize + 1] += 1;
        }
        for t in 1..holder_start.len() {
            holder_start[t] += holder_start[t - 1];
        }
        let mut fill = holder_start.clone();
        let mut holders = vec![0u32; held.len()];
        for &(t, k) in &held {
            holders[fill[t as usize] as usize] = k;
            fill[t as usize] += 1;
        }
        Side {
            form,
            ids,
            start,
            content,
            content_start,
            acronyms,
            joined: joined_labels,
            holders,
            holder_start,
        }
    }

    fn ids(&self, label: usize) -> &[u32] {
        &self.ids[self.start[label] as usize..self.start[label + 1] as usize]
    }

    fn content(&self, label: usize) -> &[u32] {
        let (from, to) = (self.content_start[label], self.content_start[label + 1]);
        &self.content[from as usize..to as usize]
    }

    fn holders(&self, token: u32) -> &[u32] {
        let (from, to) = (
            self.holder_start[token as usize],
            self.holder_start[token as usize + 1],
        );
        &self.holders[from as usize..to as usize]
    }

    /// The joined labels with no tokens.
    fn empty(&self, labels: Labels<'_>) -> Vec<u32> {
        let joined = self.joined.iter().copied();
        joined
            .filter(|&k| labels.tokens(k as usize).is_empty())
            .collect()
    }

    /// `(key, side, label)` for the [`NameMatcher::acronym_keys`] of every
    /// joined label, and whether any of them has a registered expansion.
    fn acronym_keys(
        &self,
        matcher: &NameMatcher,
        labels: Labels<'_>,
        side: u32,
    ) -> (Vec<(u64, u32, u32)>, bool) {
        let (mut keyed, mut keys, mut expansions) = (Vec::new(), Vec::new(), false);
        for &k in &self.joined {
            let (tokens, acronyms) = (labels.tokens(k as usize), self.acronyms[k as usize]);
            keys.clear();
            matcher.acronym_keys(tokens, acronyms, &mut keys);
            expansions |= tokens.len() == 1 && acronyms.iter().any(|e| e.len() >= 2);
            keyed.extend(keys.iter().map(|&key| (key, side, k)));
        }
        (keyed, expansions)
    }

    /// `(key, side, label)` for the [`NameMatcher::phrase_keys`] of every
    /// joined label.
    fn phrase_keys(
        &self,
        matcher: &NameMatcher,
        labels: Labels<'_>,
        expansions: bool,
        side: u32,
    ) -> Vec<(u64, u32, u32)> {
        let (mut keyed, mut keys) = (Vec::new(), Vec::new());
        for &k in &self.joined {
            keys.clear();
            matcher.phrase_keys(labels.tokens(k as usize), expansions, &mut keys);
            keyed.extend(keys.iter().map(|&key| (key, side, k)));
        }
        keyed
    }
}

/// The positive token pairs of one build: row token `r`'s are
/// `entries[start[r]..start[r + 1]]`, by column token.
struct TokenTable {
    start: Vec<u32>,
    entries: Vec<(u32, (f64, bool))>,
}

impl TokenTable {
    /// The table of `pairs` (sorted) scoring `scores`, over `rows` row
    /// tokens; pairs scoring 0 are left out.
    fn new(rows: usize, pairs: &[(u32, u32)], scores: &[(f64, bool)]) -> TokenTable {
        let mut start = vec![0u32; rows + 1];
        let mut entries = Vec::new();
        for (&(r, c), &score) in pairs.iter().zip(scores) {
            if score.0 > 0.0 {
                start[r as usize + 1] += 1;
                entries.push((c, score));
            }
        }
        for r in 1..start.len() {
            start[r] += start[r - 1];
        }
        TokenTable { start, entries }
    }

    /// The score of row token `r` against column token `c`.
    fn get(&self, r: u32, c: u32) -> (f64, bool) {
        let row =
            &self.entries[self.start[r as usize] as usize..self.start[r as usize + 1] as usize];
        match row.binary_search_by_key(&c, |e| e.0) {
            Ok(k) => row[k].1,
            Err(_) => (0.0, false),
        }
    }

    /// Every positive pair `(r, c)`.
    fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.start.len() - 1).flat_map(move |r| {
            let row = &self.entries[self.start[r] as usize..self.start[r + 1] as usize];
            row.iter().map(move |&(c, _)| (r as u32, c))
        })
    }
}

impl MatchSession {
    /// Compares the label pairs `misses` of the `source × target`
    /// distinct-label table `out` (flat, `i * cols + j`), which must hold
    /// `{None, +0.0}` at every missing pair. Writes the match of every
    /// missing pair that can differ from that value and leaves the rest
    /// as they are: they grade `{None, +0.0}`, sign of zero included.
    pub(crate) fn compare_misses<'t>(
        &self,
        source: Labels<'t>,
        target: Labels<'t>,
        misses: &Misses,
        out: &mut [NameMatch],
    ) -> Resolved {
        let cols = target.len();
        let mut row_misses: Vec<Option<Option<&[u32]>>> = vec![None; source.len()];
        for (i, missing) in misses.rows() {
            row_misses[i] = Some(missing);
        }
        let is_missing = |i: usize, j: u32| {
            row_misses[i].is_some_and(|missing| match missing {
                None => true,
                Some(js) => js.binary_search(&j).is_ok(),
            })
        };
        if self.config().lexicon == LexiconMode::ExactOnly {
            let mut by_folded: HashMap<&str, Vec<u32>> = HashMap::new();
            for j in 0..cols {
                by_folded
                    .entry(target.folded(j))
                    .or_default()
                    .push(j as u32);
            }
            let mut written = Vec::new();
            for (i, _) in misses.rows() {
                for &j in by_folded.get(source.folded(i)).into_iter().flatten() {
                    if is_missing(i, j) {
                        let idx = i * cols + j as usize;
                        out[idx] = NameMatch {
                            grade: LabelGrade::Exact,
                            score: 1.0,
                        };
                        written.push(idx);
                    }
                }
            }
            return Resolved {
                written,
                scored: 0,
                graded: 0,
            };
        }
        let mut col_used = vec![false; cols];
        for (_, missing) in misses.rows() {
            match missing {
                None => col_used.fill(true),
                Some(js) => js.iter().for_each(|&j| col_used[j as usize] = true),
            }
        }
        let row_used: Vec<bool> = row_misses.iter().map(Option::is_some).collect();
        // A row missing at least half the columns is resolved by joins. Any
        // other row misses few pairs: it marks the token pairs they align
        // and grades each of them, which costs less than the joins' setup.
        let joined: Vec<bool> = row_misses
            .iter()
            .map(|missing| match missing {
                Some(None) => true,
                Some(Some(js)) => 2 * js.len() >= cols,
                None => false,
            })
            .collect();
        let matcher: &NameMatcher = self.matcher();
        let mut vocabulary = Vocabulary::default();
        let rows = Side::new(matcher, source, &row_used, &joined, &mut vocabulary);
        let columns = Side::new(matcher, target, &col_used, &col_used, &mut vocabulary);
        let forms = |side: &Side| -> Vec<&TokenForm> {
            let form = |&id: &u32| &vocabulary.forms[id as usize];
            side.form.iter().map(form).collect()
        };
        let (row_forms, col_forms) = (forms(&rows), forms(&columns));

        // Every token pair that can score above 0: by joins for the tokens of
        // the joined rows ...
        let join_tokens: Vec<u32> = (0..row_forms.len() as u32)
            .filter(|&r| !rows.holders(r).is_empty())
            .collect();
        let mut candidates = Vec::new();
        if !join_tokens.is_empty() {
            let forms: Vec<&TokenForm> =
                join_tokens.iter().map(|&r| row_forms[r as usize]).collect();
            let pairs = related_pairs(matcher, &forms, &col_forms);
            candidates.extend(pairs.into_iter().map(|(k, c)| (join_tokens[k as usize], c)));
        }
        // ... and the pairs the other rows' misses align.
        let aligned: Vec<(usize, &[u32])> = misses
            .rows()
            .filter(|&(i, _)| !joined[i])
            .map(|(i, missing)| (i, missing.expect("a row missing every column joins")))
            .collect();
        if !aligned.is_empty() {
            let width = col_forms.len();
            let mut marked = vec![false; row_forms.len() * width];
            for &(r, c) in &candidates {
                marked[r as usize * width + c as usize] = true;
            }
            for &(i, js) in &aligned {
                let row_ids = rows.ids(i);
                for &j in js {
                    let col_ids = columns.ids(j as usize);
                    for &p in rows.content(i) {
                        let base = row_ids[p as usize] as usize * width;
                        for &q in columns.content(j as usize) {
                            marked[base + col_ids[q as usize] as usize] = true;
                        }
                    }
                }
            }
            candidates.clear();
            let pair = |k: usize| ((k / width) as u32, (k % width) as u32);
            candidates.extend((0..marked.len()).filter(|&k| marked[k]).map(pair));
        }

        // Score each once.
        let scores = par::map_rows(candidates.len(), self.threads_for(candidates.len()), |k| {
            let (r, c) = candidates[k];
            matcher.score_forms(row_forms[r as usize], col_forms[c as usize])
        });
        let table = TokenTable::new(row_forms.len(), &candidates, &scores);

        // Every miss of an aligned row, and the missing pairs of joined rows
        // that can be related.
        let mut graded: Vec<usize> = Vec::new();
        for &(i, js) in &aligned {
            graded.extend(js.iter().map(|&j| i * cols + j as usize));
        }
        if !rows.joined.is_empty() {
            let mut push = |i: u32, j: u32| {
                if is_missing(i as usize, j) {
                    graded.push(i as usize * cols + j as usize);
                }
            };
            for (r, c) in table.pairs() {
                for &i in rows.holders(r) {
                    for &j in columns.holders(c) {
                        push(i, j);
                    }
                }
            }
            let (row_empty, col_empty) = (rows.empty(source), columns.empty(target));
            for &i in &row_empty {
                for &j in &col_empty {
                    push(i, j);
                }
            }
            let (row_short, row_expansions) = rows.acronym_keys(matcher, source, 0);
            let (col_short, col_expansions) = columns.acronym_keys(matcher, target, 1);
            if !row_short.is_empty() {
                let mut keyed = row_short;
                keyed.extend(columns.phrase_keys(matcher, target, row_expansions, 1));
                cross_runs(&mut keyed, &mut push);
            }
            if !col_short.is_empty() {
                let mut keyed = col_short;
                keyed.extend(rows.phrase_keys(matcher, source, col_expansions, 0));
                cross_runs(&mut keyed, &mut push);
            }
        }
        graded.sort_unstable();
        graded.dedup();

        // Grade them from the table, straight into `out`.
        if let Some(&first) = graded.first() {
            let threads = self.threads_for(graded.len());
            par::scatter_ascending(&graded, &mut out[first..], threads, |k| {
                let (i, j) = (graded[k] / cols, graded[k] % cols);
                let (row_ids, col_ids) = (rows.ids(i), columns.ids(j));
                matcher.compare_with(
                    source.tokens(i),
                    target.tokens(j),
                    [rows.acronyms[i], columns.acronyms[j]],
                    [rows.content(i), columns.content(j)],
                    |p, q| table.get(row_ids[p], col_ids[q]),
                )
            });
        }
        Resolved {
            scored: candidates.len() as u64,
            graded: graded.len() as u64,
            written: graded,
        }
    }
}
