//! The per-build token table behind cold label comparisons.
//!
//! A label build ([`MatchSession::label_matrix`]) compares every distinct
//! label pair the session cache has not seen yet. Those label pairs share
//! tokens — `OrderNo`, `OrderDate` and `PurchaseOrder` all carry `order` —
//! so the misses of one build are resolved in four steps:
//!
//! 1. the tokens of the missing rows and columns get dense local ids, each
//!    distinct token gets its [`TokenForm`] once, and each label its
//!    content-token positions once;
//! 2. the content-token pairs those misses align are marked;
//! 3. every marked pair is scored once ([`NameMatcher::score_forms`]);
//! 4. every missing label pair is graded from that table
//!    ([`NameMatcher::compare_with`]), with each label's registered acronym
//!    expansions and content positions derived once per build, not once
//!    per pair.
//!
//! Steps 3 and 4 fan out at the session's thread count. Every cell is a
//! pure function of its tokens, so the grades are bit-identical to
//! [`NameMatcher::compare_tokens`] for every schedule. The table lives for
//! one build only: nothing here outlasts the call.
//!
//! [`NameMatcher::compare_tokens`]: qmatch_lexicon::NameMatcher::compare_tokens

use crate::model::LexiconMode;
use crate::par;
use crate::session::{Labels, MatchSession};
use qmatch_lexicon::name_match::{content_positions, LabelGrade, NameMatch, NameMatcher};
use qmatch_lexicon::tokenize::Token;
use qmatch_lexicon::TokenForm;
use std::collections::HashMap;

/// One side of a build: a dense local id per distinct token text of the
/// labels taking part in a miss, with its forms.
struct Side<'m> {
    forms: Vec<TokenForm>,
    /// Token ids, label after label.
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
}

impl<'m> Side<'m> {
    fn new(matcher: &'m NameMatcher, labels: &[Vec<Token>], used: &[bool]) -> Side<'m> {
        let mut local: HashMap<&str, u32> = HashMap::new();
        let mut forms = Vec::new();
        let mut ids = Vec::new();
        let mut start = Vec::with_capacity(labels.len() + 1);
        let mut content = Vec::new();
        let mut content_start = Vec::with_capacity(labels.len() + 1);
        let mut acronyms = Vec::with_capacity(labels.len());
        for (tokens, &used) in labels.iter().zip(used) {
            start.push(ids.len() as u32);
            content_start.push(content.len() as u32);
            if !used {
                acronyms.push(&[][..]);
                continue;
            }
            acronyms.push(matcher.label_acronyms(tokens));
            content.extend(content_positions(tokens).map(|p| p as u32));
            for token in tokens {
                let id = *local.entry(token.as_str()).or_insert_with(|| {
                    forms.push(matcher.token_form(token));
                    forms.len() as u32 - 1
                });
                ids.push(id);
            }
        }
        start.push(ids.len() as u32);
        content_start.push(content.len() as u32);
        Side {
            forms,
            ids,
            start,
            content,
            content_start,
            acronyms,
        }
    }

    fn ids(&self, label: usize) -> &[u32] {
        &self.ids[self.start[label] as usize..self.start[label + 1] as usize]
    }

    fn content(&self, label: usize) -> &[u32] {
        let (from, to) = (self.content_start[label], self.content_start[label + 1]);
        &self.content[from as usize..to as usize]
    }
}

impl MatchSession {
    /// Compares the distinct label pairs `missing` (ascending flat
    /// `i * cols + j` indices into the `source × target` distinct-label
    /// table) and writes the match of `idx` to `out[idx - missing[0]]`:
    /// `out` is that table from the first miss on. Returns the number of
    /// token pairs scored.
    pub(crate) fn compare_misses(
        &self,
        source: Labels<'_>,
        target: Labels<'_>,
        missing: &[usize],
        out: &mut [NameMatch],
    ) -> u64 {
        let cols = target.symbols.len();
        if self.config().lexicon == LexiconMode::ExactOnly {
            let exact = |idx: usize| {
                if source.folded[idx / cols] == target.folded[idx % cols] {
                    NameMatch {
                        grade: LabelGrade::Exact,
                        score: 1.0,
                    }
                } else {
                    NameMatch {
                        grade: LabelGrade::None,
                        score: 0.0,
                    }
                }
            };
            par::scatter_ascending(missing, out, 1, |k| exact(missing[k]));
            return 0;
        }
        let (mut row_used, mut col_used) = (vec![false; source.symbols.len()], vec![false; cols]);
        for &idx in missing {
            row_used[idx / cols] = true;
            col_used[idx % cols] = true;
        }
        let matcher: &NameMatcher = self.matcher();
        let rows = Side::new(matcher, source.tokens, &row_used);
        let columns = Side::new(matcher, target.tokens, &col_used);
        let width = columns.forms.len();

        // Mark the content-token pairs the misses align.
        let mut needed = vec![false; rows.forms.len() * width];
        let mut scored = 0u64;
        for &idx in missing {
            let (i, j) = (idx / cols, idx % cols);
            let (row_ids, col_ids) = (rows.ids(i), columns.ids(j));
            for &p in rows.content(i) {
                let base = row_ids[p as usize] as usize * width;
                for &q in columns.content(j) {
                    let cell = &mut needed[base + col_ids[q as usize] as usize];
                    scored += u64::from(!*cell);
                    *cell = true;
                }
            }
        }

        // Score each marked pair once, a token row per step, into one
        // allocation per worker.
        let threads = self.threads_for(scored as usize);
        let per_worker = rows.forms.len().div_ceil(threads) * width;
        let chunks = par::for_rows_with(
            rows.forms.len(),
            threads,
            || Vec::with_capacity(per_worker),
            |cells: &mut Vec<(f64, bool)>, r| {
                let a = &rows.forms[r];
                let marks = &needed[r * width..(r + 1) * width];
                cells.extend(marks.iter().zip(&columns.forms).map(|(&mark, b)| {
                    if mark {
                        matcher.score_forms(a, b)
                    } else {
                        (0.0, false)
                    }
                }));
            },
        );
        let table = if chunks.len() == 1 {
            chunks.into_iter().next().expect("one chunk")
        } else {
            chunks.concat()
        };

        // Grade every missing label pair from the table, straight into
        // `out`.
        par::scatter_ascending(missing, out, self.threads_for(missing.len()), |k| {
            let (i, j) = (missing[k] / cols, missing[k] % cols);
            let (row_ids, col_ids) = (rows.ids(i), columns.ids(j));
            matcher.compare_with(
                &source.tokens[i],
                &target.tokens[j],
                [rows.acronyms[i], columns.acronyms[j]],
                [rows.content(i), columns.content(j)],
                |p, q| table[row_ids[p] as usize * width + col_ids[q] as usize],
            )
        });
        scored
    }
}
