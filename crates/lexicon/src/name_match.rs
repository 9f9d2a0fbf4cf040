//! Label comparison: combines tokenization, the thesaurus, and the fuzzy
//! metrics into the label-axis grades the paper defines.
//!
//! Paper §2.1:
//! - *exact* label match — exact string match, synonym match, or ontology
//!   match;
//! - *relaxed* label match — hypernym match or acronym match (this
//!   implementation also counts registered abbreviations and high-confidence
//!   fuzzy matches, which is how CUPID-style matchers treat `Qty`/`Quantity`).

use crate::metrics::{bigrams, combined_bound_chars, combined_chars, combined_similarity, sketch};
use crate::thesaurus::{fnv, Relation, Thesaurus, TokenEntry};
use crate::tokenize::{tokenize, Token};

/// The qualitative label-axis grade (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelGrade {
    /// Exact string / synonym / ontology match.
    Exact,
    /// Hypernym, acronym, abbreviation, or strong fuzzy match.
    Relaxed,
    /// No meaningful match.
    None,
}

/// The result of comparing two labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NameMatch {
    /// Qualitative grade.
    pub grade: LabelGrade,
    /// Quantitative similarity in `[0, 1]`; `Exact` implies `1.0` on the
    /// canonical scale used by the QoM model.
    pub score: f64,
}

impl NameMatch {
    const NONE: NameMatch = NameMatch {
        grade: LabelGrade::None,
        score: 0.0,
    };
}

/// Canonical per-relation scores. `Exact`-grade relations score 1.0; the
/// relaxed relations are ordered by reliability.
pub(crate) mod scores {
    pub const EXACT: f64 = 1.0;
    pub const ABBREVIATION: f64 = 0.85;
    pub const ACRONYM: f64 = 0.85;
    pub const HYPERNYM: f64 = 0.70;
    pub const COORDINATE: f64 = 0.60;
    /// Fuzzy similarity must clear this to count as a token match at all.
    pub const FUZZY_FLOOR: f64 = 0.80;
    /// A fuzzy token match is discounted by this factor (it has no lexical
    /// evidence behind it).
    pub const FUZZY_DISCOUNT: f64 = 0.9;
}

/// Aggregate score below which the whole-label grade is `None`. Set to 0.5
/// so that a one-of-two-token exact overlap (the paper's `PurchaseDate` vs
/// `Date` example) still counts as a relaxed match.
const RELAXED_FLOOR: f64 = 0.5;

/// Compares schema labels using a [`Thesaurus`].
#[derive(Debug, Clone)]
pub struct NameMatcher {
    thesaurus: Thesaurus,
}

/// Stopwords ignored during token alignment (but kept for acronym initials).
const STOPWORDS: &[&str] = &["of", "the", "a", "an", "to", "for", "in", "on"];

impl NameMatcher {
    /// A matcher over the given thesaurus.
    pub fn new(thesaurus: Thesaurus) -> Self {
        NameMatcher { thesaurus }
    }

    /// A matcher over the built-in domain thesaurus.
    pub fn with_default_thesaurus() -> Self {
        NameMatcher::new(crate::builtin::default_thesaurus())
    }

    /// Borrow the underlying thesaurus.
    pub fn thesaurus(&self) -> &Thesaurus {
        &self.thesaurus
    }

    /// Compares two raw labels.
    pub fn compare(&self, a: &str, b: &str) -> NameMatch {
        self.compare_tokens(&tokenize(a), &tokenize(b))
    }

    /// Compares two pre-tokenized labels, deriving their content positions
    /// and scoring every token pair from scratch, with no fuzzy prefilter.
    /// This is the reference the batched path of a label build —
    /// [`NameMatcher::compare_with`] over [`TokenForm`]s — must equal bit
    /// for bit.
    pub fn compare_tokens(&self, a: &[Token], b: &[Token]) -> NameMatch {
        let content = |tokens| {
            content_positions(tokens)
                .map(|p| p as u32)
                .collect::<Vec<_>>()
        };
        self.compare_with(
            a,
            b,
            [self.label_acronyms(a), self.label_acronyms(b)],
            [&content(a), &content(b)],
            |i, j| self.token_score(a[i].as_str(), b[j].as_str()),
        )
    }

    /// The registered acronym expansions of a one-token label — the only
    /// labels a whole-phrase acronym match reads them for — and none for
    /// any other label.
    pub fn label_acronyms(&self, tokens: &[Token]) -> &[Vec<String>] {
        match tokens {
            [token] => self.thesaurus.acronym_expansions(token.as_str()),
            _ => &[],
        }
    }

    /// Grades a label pair, taking each token-pair score from `score`, the
    /// labels' registered acronym expansions from `acronyms` and their
    /// content-token positions from `content`.
    ///
    /// `acronyms` must hold [`NameMatcher::label_acronyms`] of `a` and `b`,
    /// `content` their [`content_positions`], and `score(i, j)`, asked only
    /// for those positions, must return what [`NameMatcher::score_forms`]
    /// returns for the [`TokenForm`]s of `a[i]` and `b[j]`; the grade is
    /// then identical to [`NameMatcher::compare_tokens`]. A label build
    /// uses this to derive each label's expansions and content positions
    /// once and to read scores from a table it filled once per distinct
    /// token pair.
    pub fn compare_with(
        &self,
        a: &[Token],
        b: &[Token],
        acronyms: [&[Vec<String>]; 2],
        content: [&[u32]; 2],
        score: impl FnMut(usize, usize) -> (f64, bool),
    ) -> NameMatch {
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() {
                NameMatch {
                    grade: LabelGrade::Exact,
                    score: scores::EXACT,
                }
            } else {
                NameMatch::NONE
            };
        }
        // Identical token sequences are exact without any alignment work —
        // the dominant case when matching a schema against itself or near
        // copies.
        if a == b {
            return NameMatch {
                grade: LabelGrade::Exact,
                score: scores::EXACT,
            };
        }
        // Whole-phrase acronym match is checked before token alignment:
        // "UOM" vs "Unit Of Measure" aligns no tokens but is a relaxed match.
        let [a_acronyms, b_acronyms] = acronyms;
        if self.phrase_acronym(a, a_acronyms, b) || self.phrase_acronym(b, b_acronyms, a) {
            return NameMatch {
                grade: LabelGrade::Relaxed,
                score: scores::ACRONYM,
            };
        }
        let (score, all_exact) = align(content, score);
        if all_exact && score >= 0.999 {
            NameMatch {
                grade: LabelGrade::Exact,
                score: scores::EXACT,
            }
        } else if score >= RELAXED_FLOOR {
            NameMatch {
                grade: LabelGrade::Relaxed,
                score,
            }
        } else {
            NameMatch {
                grade: LabelGrade::None,
                score,
            }
        }
    }

    /// Appends the join keys of `label` as the one-token side of the
    /// whole-phrase acronym check in [`NameMatcher::compare_with`], given
    /// its [`NameMatcher::label_acronyms`]: the check can hold for `label`
    /// against a label `long` only if these keys meet
    /// [`NameMatcher::phrase_keys`] of `long`. They are its text as
    /// initials (when 2 bytes or longer) and each registered expansion of 2
    /// or more words as a phrase; a label of other than one token has none.
    pub fn acronym_keys(&self, label: &[Token], expansions: &[Vec<String>], out: &mut Vec<u64>) {
        let [token] = label else { return };
        if token.as_str().len() >= 2 {
            out.push(initials_key(token.as_str().chars()));
        }
        for expansion in expansions.iter().filter(|e| e.len() >= 2) {
            let words = expansion.iter().map(|w| self.thesaurus.word_key(w));
            out.push(phrase_key(words));
        }
    }

    /// Appends the join keys of `label` as the many-token side of the
    /// whole-phrase acronym check ([`NameMatcher::acronym_keys`]): its
    /// initials with and without stopwords, and, when `expansions` is set,
    /// its words up to synonymy as a phrase (a thesaurus probe per token,
    /// needed only against labels with registered expansions). A label of
    /// fewer than 2 tokens has none.
    pub fn phrase_keys(&self, label: &[Token], expansions: bool, out: &mut Vec<u64>) {
        if label.len() < 2 {
            return;
        }
        let initial = |t: &Token| t.as_str().chars().next();
        out.push(initials_key(label.iter().filter_map(initial)));
        let content = label.iter().filter(|t| !is_stopword(t.as_str()));
        out.push(initials_key(content.filter_map(initial)));
        if expansions {
            let words = label.iter().map(|t| self.thesaurus.word_key(t.as_str()));
            out.push(phrase_key(words));
        }
    }

    /// True if `short` is a single token whose letters are the initials of
    /// `long`'s tokens (with or without stopwords), or a registered acronym
    /// — one of `expansions`, its [`NameMatcher::label_acronyms`] — whose
    /// expansion matches `long` token-for-token.
    fn phrase_acronym(&self, short: &[Token], expansions: &[Vec<String>], long: &[Token]) -> bool {
        if short.len() != 1 || long.len() < 2 {
            return false;
        }
        let s = short[0].as_str();
        // Registered expansion, matched token-wise through synonyms.
        for expansion in expansions {
            if expansion.len() == long.len()
                && expansion
                    .iter()
                    .zip(long)
                    .all(|(e, l)| e == l.as_str() || self.thesaurus.are_synonyms(e, l.as_str()))
            {
                return true;
            }
        }
        // Generic initials check, with and without stopwords.
        let initials = |content_only: bool| {
            long.iter()
                .filter(move |t| !(content_only && is_stopword(t.as_str())))
                .filter_map(|t| t.as_str().chars().next())
        };
        s.len() >= 2 && (initials(false).eq(s.chars()) || initials(true).eq(s.chars()))
    }

    /// Scores one token pair from scratch; the bool reports an exact-grade
    /// relation.
    fn token_score(&self, a: &str, b: &str) -> (f64, bool) {
        if a == b {
            return (scores::EXACT, true);
        }
        let (sa, sb) = (stem(a), stem(b));
        self.score_stems(
            &sa,
            &sb,
            || self.thesaurus.relation_folded(&sa, &sb),
            || combined_similarity(a, b),
        )
    }

    /// The prepared forms of `token`, for [`NameMatcher::score_forms`].
    pub fn token_form(&self, token: &Token) -> TokenForm {
        let chars: Vec<char> = token.as_str().chars().collect();
        let stem = stem(token.as_str());
        TokenForm {
            text: token.0.clone(),
            entry: self.thesaurus.entry(&stem),
            stem,
            bigrams: bigrams(&chars),
            sketch: sketch(&chars),
            chars,
        }
    }

    /// Scores one token pair over its prepared forms: the same relation
    /// chain as the from-scratch scorer behind
    /// [`NameMatcher::compare_tokens`], without re-stemming or
    /// re-collecting characters. The fuzzy metric is skipped when
    /// [`metrics::combined_bound`](crate::metrics::combined_bound) of the
    /// forms' sketches is below the fuzzy floor (0.8): any metric under
    /// the floor scores `(0.0, false)`, so the result is the same.
    pub fn score_forms(&self, a: &TokenForm, b: &TokenForm) -> (f64, bool) {
        if a.text == b.text {
            return (scores::EXACT, true);
        }
        self.score_stems(
            &a.stem,
            &b.stem,
            || {
                self.thesaurus
                    .relation_of_entries(&a.stem, a.entry, &b.stem, b.entry)
            },
            || match combined_bound_chars(&a.chars, &a.sketch, &b.chars, &b.sketch) {
                Some(bound) if bound < scores::FUZZY_FLOOR => 0.0,
                _ => combined_chars(&a.chars, &a.bigrams, &b.chars, &b.bigrams),
            },
        )
    }

    /// The scoring chain over the stems of two distinct tokens: `relation`
    /// is the stems' [`Thesaurus::relation_folded`] and `fuzzy` the
    /// tokens' [`combined_similarity`], each asked for only when needed.
    fn score_stems(
        &self,
        sa: &str,
        sb: &str,
        relation: impl FnOnce() -> Relation,
        fuzzy: impl FnOnce() -> f64,
    ) -> (f64, bool) {
        if sa == sb {
            return (scores::EXACT, true);
        }
        // Tokens are lowercased at tokenize time and stemming preserves
        // case, so the stems are already folded — no per-call lowercasing.
        match relation() {
            Relation::Same | Relation::Synonym => (scores::EXACT, true),
            Relation::Abbreviation => (scores::ABBREVIATION, false),
            Relation::Acronym => (scores::ACRONYM, false),
            Relation::Hypernym => (scores::HYPERNYM, false),
            Relation::Coordinate => (scores::COORDINATE, false),
            Relation::Unrelated => {
                if looks_like_abbreviation(sa, sb) || looks_like_abbreviation(sb, sa) {
                    return (scores::ABBREVIATION, false);
                }
                let fuzzy = fuzzy();
                if fuzzy >= scores::FUZZY_FLOOR {
                    (fuzzy * scores::FUZZY_DISCOUNT, false)
                } else {
                    (0.0, false)
                }
            }
        }
    }
}

/// One token's comparison forms ([`NameMatcher::token_form`]), derived
/// once per token so that a label build scores each distinct token pair
/// ([`NameMatcher::score_forms`]) without re-stemming, re-collecting
/// characters or re-probing the thesaurus.
#[derive(Debug, Clone)]
pub struct TokenForm {
    pub(crate) text: String,
    pub(crate) stem: String,
    /// The thesaurus entry of `stem`.
    pub(crate) entry: TokenEntry,
    pub(crate) chars: Vec<char>,
    /// Sorted character bigrams of `text`.
    pub(crate) bigrams: Vec<[char; 2]>,
    /// Char counts of `text` in 32 buckets, for the fuzzy metric's bound.
    pub(crate) sketch: [u8; 32],
}

/// A phrase-acronym join key of a char sequence: an even hash.
fn initials_key(chars: impl Iterator<Item = char>) -> u64 {
    fnv(chars.map(u64::from)) << 1
}

/// A phrase-acronym join key of a word-key sequence: an odd hash.
fn phrase_key(words: impl Iterator<Item = u64>) -> u64 {
    fnv(words) << 1 | 1
}

fn is_stopword(token: &str) -> bool {
    STOPWORDS.contains(&token)
}

/// Positions of the tokens that take part in alignment: every
/// non-stopword, or every token when all of them are stopwords.
pub fn content_positions(tokens: &[Token]) -> impl Iterator<Item = usize> + Clone + '_ {
    let keep_all = tokens.iter().all(|t| is_stopword(t.as_str()));
    (0..tokens.len()).filter(move |&i| keep_all || !is_stopword(tokens[i].as_str()))
}

/// Greedy best-pair token alignment over the content-token positions
/// `[ca, cb]` of two labels, scoring positions through `score`. Returns the
/// normalized aggregate score and whether every token on both sides found
/// an exact-grade partner.
fn align([ca, cb]: [&[u32]; 2], mut score: impl FnMut(usize, usize) -> (f64, bool)) -> (f64, bool) {
    let (na, nb) = (ca.len(), cb.len());
    // Fast path: single-token labels (most schema element names) need no
    // bipartite machinery.
    if let ([i], [j]) = (ca, cb) {
        let (score, exact) = score(*i as usize, *j as usize);
        return (score, exact && score >= 0.999);
    }
    // Every content pair's score, row-major; on the stack for
    // identifier-sized labels.
    let mut stack = [(0.0, false); 16];
    let mut heap = Vec::new();
    let cells: &mut [(f64, bool)] = if na * nb <= stack.len() {
        &mut stack[..na * nb]
    } else {
        heap.resize(na * nb, (0.0, false));
        &mut heap
    };
    for (i, &pa) in ca.iter().enumerate() {
        for (j, &pb) in cb.iter().enumerate() {
            cells[i * nb + j] = score(pa as usize, pb as usize);
        }
    }
    // Take the best pair whose tokens are both free until none scores
    // above 0: the highest score, ties to the first in row-major order —
    // the order a stable descending sort of the positive pairs visits
    // them in, so the sum accumulates in the same order. A taken pair
    // zeroes its row and column.
    let mut total = 0.0;
    let mut matched = 0usize;
    let mut all_exact = true;
    loop {
        let mut best: Option<usize> = None;
        for (k, cell) in cells.iter().enumerate() {
            if cell.0 > best.map_or(0.0, |b| cells[b].0) {
                best = Some(k);
            }
        }
        let Some(k) = best else { break };
        let (score, exact) = cells[k];
        total += score;
        matched += 1;
        all_exact &= exact;
        let (i, j) = (k / nb, k % nb);
        cells[i * nb..(i + 1) * nb].fill((0.0, false));
        for row in 0..na {
            cells[row * nb + j] = (0.0, false);
        }
    }
    let denom = na.max(nb);
    all_exact &= matched == denom && matched == na.min(nb);
    // Unequal token counts can never be fully exact.
    all_exact &= na == nb;
    (total / denom as f64, all_exact)
}

/// Light plural stemming — enough to make `Hands`/`hand` or
/// `Categories`/`category` compare equal without a full stemmer.
pub fn stem(token: &str) -> String {
    let t = token;
    if t.len() > 4 && t.ends_with("ies") {
        return format!("{}y", &t[..t.len() - 3]);
    }
    for suffix in ["ses", "xes", "zes", "ches", "shes"] {
        if t.len() > suffix.len() + 1 && t.ends_with(suffix) {
            return t[..t.len() - 2].to_owned();
        }
    }
    if t.len() > 3 && t.ends_with('s') && !t.ends_with("ss") && !t.ends_with("us") {
        return t[..t.len() - 1].to_owned();
    }
    t.to_owned()
}

/// Heuristic abbreviation detection for pairs missing from the thesaurus:
/// `short` must start `long`, be a subsequence of it, and be substantially
/// shorter (`Qty` / `Quantity`, `Dscr` / `Description`).
pub fn looks_like_abbreviation(short: &str, long: &str) -> bool {
    if short.len() < 2 || short.len() * 3 > long.len() * 2 {
        return false;
    }
    let mut long_chars = long.chars();
    let mut first = true;
    for sc in short.chars() {
        let found = if first {
            first = false;
            long_chars.next() == Some(sc)
        } else {
            long_chars.any(|lc| lc == sc)
        };
        if !found {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher() -> NameMatcher {
        NameMatcher::with_default_thesaurus()
    }

    #[test]
    fn identical_labels_are_exact() {
        let m = matcher();
        assert_eq!(
            m.compare("OrderNo", "OrderNo"),
            NameMatch {
                grade: LabelGrade::Exact,
                score: 1.0
            }
        );
        assert_eq!(m.compare("orderNo", "ORDER_NO").grade, LabelGrade::Exact);
    }

    #[test]
    fn synonyms_are_exact_per_the_paper() {
        let m = matcher();
        assert_eq!(m.compare("Writer", "Author").grade, LabelGrade::Exact);
        assert_eq!(m.compare("Vendor", "Supplier").grade, LabelGrade::Exact);
        assert_eq!(
            m.compare("BillingAddress", "InvoiceAddress").grade,
            LabelGrade::Exact
        );
    }

    #[test]
    fn paper_uom_acronym_is_relaxed() {
        let m = matcher();
        let r = m.compare("Unit Of Measure", "UOM");
        assert_eq!(r.grade, LabelGrade::Relaxed);
        assert!(r.score > 0.8);
    }

    #[test]
    fn paper_qty_abbreviation_is_relaxed() {
        let m = matcher();
        let r = m.compare("Quantity", "Qty");
        assert_eq!(r.grade, LabelGrade::Relaxed);
        assert!(r.score >= 0.8);
    }

    #[test]
    fn purchase_order_vs_po_is_relaxed() {
        let m = matcher();
        assert_eq!(m.compare("PurchaseOrder", "PO").grade, LabelGrade::Relaxed);
        assert_eq!(m.compare("Purchase Order", "PO").grade, LabelGrade::Relaxed);
    }

    #[test]
    fn generic_initials_acronym_detected() {
        let m = matcher();
        // "sta" is not registered, but matches the initials.
        assert_eq!(m.compare("ShipToAddress", "STA").grade, LabelGrade::Relaxed);
    }

    #[test]
    fn hypernyms_are_relaxed() {
        let m = matcher();
        let r = m.compare("Book", "Publication");
        assert_eq!(r.grade, LabelGrade::Relaxed);
        assert!((r.score - 0.70).abs() < 1e-9);
    }

    #[test]
    fn unrelated_labels_are_none() {
        let m = matcher();
        assert_eq!(m.compare("Library", "human").grade, LabelGrade::None);
        assert_eq!(m.compare("Title", "legs").grade, LabelGrade::None);
        assert_eq!(m.compare("Writer", "hands").grade, LabelGrade::None);
    }

    #[test]
    fn partial_token_overlap_is_relaxed() {
        let m = matcher();
        // "PurchaseDate" vs "Date": one of two tokens matches exactly.
        let r = m.compare("PurchaseDate", "Date");
        assert_eq!(r.grade, LabelGrade::Relaxed);
        assert!((r.score - 0.5).abs() < 1e-9, "{}", r.score);
    }

    #[test]
    fn item_number_matches_item_hash() {
        let m = matcher();
        // Paper: Item (in Lines) has an exact match with Item# (in Items).
        let r = m.compare("Item", "Item#");
        // Item# tokenizes to [item, number]; one exact token of two.
        assert!(r.grade <= LabelGrade::Relaxed);
        assert!(r.score >= 0.5);
    }

    #[test]
    fn plural_forms_are_exact() {
        let m = matcher();
        assert_eq!(m.compare("Lines", "Line").grade, LabelGrade::Exact);
        assert_eq!(m.compare("Categories", "Category").grade, LabelGrade::Exact);
        assert_eq!(m.compare("Boxes", "Box").grade, LabelGrade::Exact);
    }

    #[test]
    fn fuzzy_typo_is_relaxed_but_discounted() {
        let m = matcher();
        let r = m.compare("Quantety", "Quantity");
        assert_eq!(r.grade, LabelGrade::Relaxed);
        assert!(r.score < 1.0 && r.score > 0.6);
    }

    #[test]
    fn empty_labels() {
        let m = matcher();
        assert_eq!(m.compare("", "").grade, LabelGrade::Exact);
        assert_eq!(m.compare("x", "").grade, LabelGrade::None);
        assert_eq!(m.compare("", "x").grade, LabelGrade::None);
    }

    #[test]
    fn stopwords_do_not_dilute_scores() {
        let m = matcher();
        let with = m.compare("DateOfBirth", "BirthDate");
        assert_eq!(with.grade, LabelGrade::Exact, "score {}", with.score);
    }

    #[test]
    fn score_is_symmetric() {
        let m = matcher();
        for (a, b) in [
            ("PurchaseOrder", "PO"),
            ("Quantity", "Qty"),
            ("OrderNo", "OrderNumber"),
            ("BillTo", "BillingAddr"),
            ("Library", "human"),
        ] {
            let ab = m.compare(a, b);
            let ba = m.compare(b, a);
            assert!((ab.score - ba.score).abs() < 1e-9, "{a} vs {b}");
            assert_eq!(ab.grade, ba.grade, "{a} vs {b}");
        }
    }

    #[test]
    fn stem_rules() {
        assert_eq!(stem("hands"), "hand");
        assert_eq!(stem("categories"), "category");
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("addresses"), "address"); // "ses" rule strips "es"
        assert_eq!(stem("class"), "class"); // "ss" protected
        assert_eq!(stem("status"), "status"); // "us" protected
        assert_eq!(stem("bus"), "bus"); // too short
        assert_eq!(stem("item"), "item");
    }

    #[test]
    fn abbreviation_heuristic() {
        assert!(looks_like_abbreviation("qty", "quantity"));
        assert!(looks_like_abbreviation("dscr", "description"));
        assert!(!looks_like_abbreviation("tyq", "quantity"), "order matters");
        assert!(!looks_like_abbreviation("q", "quantity"), "too short");
        assert!(
            !looks_like_abbreviation("quantit", "quantity"),
            "not much shorter"
        );
        assert!(!looks_like_abbreviation("xyz", "quantity"));
    }

    #[test]
    fn orderno_vs_ordernumber_is_exact_via_abbreviation_synonyms() {
        let m = matcher();
        // no/number are synonyms in the builtin thesaurus, so this is an
        // exact (synonym) match per the paper's classification.
        let r = m.compare("OrderNo", "OrderNumber");
        assert_eq!(r.grade, LabelGrade::Exact);
    }
}
