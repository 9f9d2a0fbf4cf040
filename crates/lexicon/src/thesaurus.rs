//! The thesaurus: synonym sets, hypernym edges, acronyms, and abbreviations.
//!
//! All entries are stored as lowercase tokens. Lookups are symmetric where
//! the relation is symmetric (synonymy) and directional where it is not
//! (hypernymy); [`Thesaurus::relation`] reports the relation found between
//! two tokens regardless of argument order.

use std::collections::HashMap;

/// The lexical relation between two tokens, ordered from strongest to
/// weakest. The paper maps `Same`/`Synonym` to an **exact** label match and
/// `Acronym`/`Abbreviation`/`Hypernym` to a **relaxed** one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Relation {
    /// Identical tokens.
    Same,
    /// Members of the same synonym set.
    Synonym,
    /// One token abbreviates the other (`qty` / `quantity`).
    Abbreviation,
    /// One token is an acronym of a multi-word phrase; detected at the
    /// phrase level by the name matcher (`uom` / `unit of measure`).
    Acronym,
    /// One token's concept subsumes the other's (`publication` / `book`).
    Hypernym,
    /// Co-hyponyms: the tokens share a registered ancestor concept
    /// (`article` / `book`, both IS-A `publication`).
    Coordinate,
    /// No known relation.
    Unrelated,
}

/// Which parts of a [`Thesaurus`] know one token ([`Thesaurus::entry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenEntry {
    synset: Option<u32>,
    abbreviates: bool,
    acronym: bool,
    parents: bool,
}

/// A mutable thesaurus. Build one with [`Thesaurus::new`] and the `add_*`
/// methods, or start from [`crate::builtin::default_thesaurus`].
#[derive(Debug, Clone, Default)]
pub struct Thesaurus {
    /// token -> synset id.
    synset_of: HashMap<String, u32>,
    /// synset id -> canonical member (lexicographically smallest), the
    /// stable representative [`Thesaurus::canonical_folded`] returns.
    canonical: HashMap<u32, String>,
    synset_count: u32,
    /// child token -> parent tokens (hypernyms).
    hypernyms: HashMap<String, Vec<String>>,
    /// acronym token -> expansion token sequences (an acronym may have
    /// several domain expansions).
    acronyms: HashMap<String, Vec<Vec<String>>>,
    /// short form -> full words.
    abbreviations: HashMap<String, Vec<String>>,
}

impl Thesaurus {
    /// An empty thesaurus.
    pub fn new() -> Self {
        Thesaurus::default()
    }

    /// Adds a synonym set. Tokens already in a set are merged into it, so
    /// `add_synonyms(["a","b"]); add_synonyms(["b","c"])` leaves all three
    /// mutually synonymous.
    pub fn add_synonyms<I, S>(&mut self, words: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let words: Vec<String> = words
            .into_iter()
            .map(|w| w.as_ref().to_lowercase())
            .collect();
        // Reuse an existing set id if any member already belongs to one.
        let existing = words.iter().find_map(|w| self.synset_of.get(w).copied());
        let id = match existing {
            Some(id) => id,
            None => {
                let id = self.synset_count;
                self.synset_count += 1;
                id
            }
        };
        // Merge: remap every set reachable through these words onto `id`.
        let mut merge_ids: Vec<u32> = words
            .iter()
            .filter_map(|w| self.synset_of.get(w).copied())
            .collect();
        merge_ids.retain(|&m| m != id);
        if !merge_ids.is_empty() {
            for v in self.synset_of.values_mut() {
                if merge_ids.contains(v) {
                    *v = id;
                }
            }
        }
        // The canonical member is the smallest across the merged sets and
        // the new words — insertion-order independent by construction.
        let mut canon = self.canonical.remove(&id);
        for m in &merge_ids {
            if let Some(c) = self.canonical.remove(m) {
                canon = Some(match canon {
                    Some(prev) => prev.min(c),
                    None => c,
                });
            }
        }
        for w in words {
            canon = Some(match canon {
                Some(prev) if prev <= w => prev,
                _ => w.clone(),
            });
            self.synset_of.insert(w, id);
        }
        if let Some(canon) = canon {
            self.canonical.insert(id, canon);
        }
    }

    /// Declares `child` to be a kind of `parent` (e.g. `book` IS-A
    /// `publication`).
    pub fn add_hypernym(&mut self, child: &str, parent: &str) {
        self.hypernyms
            .entry(child.to_lowercase())
            .or_default()
            .push(parent.to_lowercase());
    }

    /// Declares `acronym` to expand to the given word sequence.
    pub fn add_acronym<I, S>(&mut self, acronym: &str, expansion: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let words: Vec<String> = expansion
            .into_iter()
            .map(|w| w.as_ref().to_lowercase())
            .collect();
        self.acronyms
            .entry(acronym.to_lowercase())
            .or_default()
            .push(words);
    }

    /// Declares `short` to be an abbreviation of `full`.
    pub fn add_abbreviation(&mut self, short: &str, full: &str) {
        self.abbreviations
            .entry(short.to_lowercase())
            .or_default()
            .push(full.to_lowercase());
    }

    /// True if the two tokens share a synonym set.
    pub fn are_synonyms(&self, a: &str, b: &str) -> bool {
        match (self.synset_of.get(a), self.synset_of.get(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// True if `a` is a registered hypernym (ancestor, transitively) of `b`.
    pub fn is_hypernym_of(&self, a: &str, b: &str) -> bool {
        self.walk_hypernyms(b, |p| p == a || self.are_synonyms(p, a))
    }

    /// Visits the parents the hypernym walk from `token` reaches, in walk
    /// order, until `visit` returns true (then returns true) or the walk
    /// ends. The walk is bounded for safety against malformed cyclic data,
    /// and borrows every visited token from the map: no clones.
    fn walk_hypernyms<'a>(
        &'a self,
        token: &'a str,
        mut visit: impl FnMut(&'a str) -> bool,
    ) -> bool {
        let mut frontier = vec![token];
        let mut hops = 0;
        while let Some(cur) = frontier.pop() {
            if let Some(parents) = self.hypernyms.get(cur) {
                for p in parents {
                    if visit(p) {
                        return true;
                    }
                    frontier.push(p);
                }
            }
            hops += 1;
            if hops > 64 {
                break; // defensive: malformed cyclic data
            }
        }
        false
    }

    /// The join key of a *pre-folded* word up to synonymy: its synonym
    /// set's id when it has one, otherwise a hash of its text. Two words
    /// are equal or synonyms exactly when their keys are equal, up to hash
    /// collisions between texts (which can only add candidates to a
    /// join).
    pub fn word_key(&self, word: &str) -> u64 {
        match self.synset_of.get(word) {
            Some(&id) => synset_key(id),
            None => text_key(word),
        }
    }

    /// Appends the join keys of a *pre-folded* token with entry `entry`
    /// ([`Thesaurus::entry`]): any two tokens whose
    /// [`Thesaurus::relation_of_entries`] is not
    /// [`Relation::Unrelated`] share a key. The keys are the token's own
    /// text and synonym set, and those of every word its relations read:
    /// its registered full forms and single-word acronym expansions, the
    /// parents its hypernym walk visits and its ancestors.
    pub fn relation_keys(&self, token: &str, entry: TokenEntry, out: &mut Vec<u64>) {
        let mut concept = |word: &str| {
            out.push(text_key(word));
            if let Some(&id) = self.synset_of.get(word) {
                out.push(synset_key(id));
            }
        };
        concept(token);
        if entry.abbreviates {
            for full in self.abbreviations.get(token).into_iter().flatten() {
                concept(full);
            }
        }
        if entry.acronym {
            for expansion in self.acronym_expansions(token) {
                if let [word] = expansion.as_slice() {
                    concept(word);
                }
            }
        }
        if entry.parents {
            self.walk_hypernyms(token, |parent| {
                concept(parent);
                false
            });
            for ancestor in self.ancestors(token) {
                concept(ancestor);
            }
        }
    }

    /// The registered expansions of `acronym`, if any.
    pub fn acronym_expansions(&self, acronym: &str) -> &[Vec<String>] {
        self.acronyms.get(acronym).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if `short` is a registered abbreviation of `full` (or `full`'s
    /// synonyms).
    pub fn is_abbreviation_of(&self, short: &str, full: &str) -> bool {
        self.abbreviations.get(short).is_some_and(|fulls| {
            fulls
                .iter()
                .any(|f| f == full || self.are_synonyms(f, full))
        })
    }

    /// The strongest relation between `a` and `b`, case-insensitively: a
    /// thin wrapper that folds mixed-case inputs before delegating to
    /// [`Thesaurus::relation_folded`]. Callers holding already-folded
    /// tokens (the tokenizer and the session interner lowercase at
    /// creation) should call `relation_folded` directly and skip the scan.
    pub fn relation(&self, a: &str, b: &str) -> Relation {
        fn fold(s: &str) -> std::borrow::Cow<'_, str> {
            if s.chars().any(char::is_uppercase) {
                std::borrow::Cow::Owned(s.to_lowercase())
            } else {
                std::borrow::Cow::Borrowed(s)
            }
        }
        self.relation_folded(&fold(a), &fold(b))
    }

    /// The strongest relation between two *pre-folded* (lowercase) tokens
    /// (symmetric: both argument orders are tried for directional
    /// relations). Token-level only — phrase-level acronyms are handled by
    /// the name matcher. Entries are stored lowercase, so folding happens
    /// exactly once — at intern/tokenize time, not per lookup.
    pub fn relation_folded(&self, a: &str, b: &str) -> Relation {
        self.relation_of_entries(a, self.entry(a), b, self.entry(b))
    }

    /// What the thesaurus holds for a *pre-folded* token, looked up once
    /// so that [`Thesaurus::relation_of_entries`] can skip every check the
    /// token takes no part in.
    pub fn entry(&self, token: &str) -> TokenEntry {
        TokenEntry {
            synset: self.synset_of.get(token).copied(),
            abbreviates: self.abbreviations.contains_key(token),
            acronym: self.acronyms.contains_key(token),
            parents: self.hypernyms.contains_key(token),
        }
    }

    /// [`Thesaurus::relation_folded`] of `a` and `b` given their
    /// [`Thesaurus::entry`]s: the same relation, with no lookup for a
    /// relation one side's entry rules out.
    pub fn relation_of_entries(
        &self,
        a: &str,
        ea: TokenEntry,
        b: &str,
        eb: TokenEntry,
    ) -> Relation {
        if a == b {
            return Relation::Same;
        }
        if ea.synset.is_some() && ea.synset == eb.synset {
            return Relation::Synonym;
        }
        if (ea.abbreviates && self.is_abbreviation_of(a, b))
            || (eb.abbreviates && self.is_abbreviation_of(b, a))
        {
            return Relation::Abbreviation;
        }
        // A single-word acronym expansion behaves like an abbreviation.
        let single_expansion = |x: &str, y: &str| {
            self.acronym_expansions(x)
                .iter()
                .any(|e| e.len() == 1 && (e[0] == y || self.are_synonyms(&e[0], y)))
        };
        if (ea.acronym && single_expansion(a, b)) || (eb.acronym && single_expansion(b, a)) {
            return Relation::Acronym;
        }
        // Hypernym walks start at the child, co-hyponyms need two parents.
        if (eb.parents && self.is_hypernym_of(a, b)) || (ea.parents && self.is_hypernym_of(b, a)) {
            return Relation::Hypernym;
        }
        if ea.parents && eb.parents && self.share_ancestor(a, b) {
            return Relation::Coordinate;
        }
        Relation::Unrelated
    }

    /// The stable concept representative for a *pre-folded* token, if the
    /// thesaurus knows the token at all: members of a synonym set map to
    /// the set's lexicographically smallest member, registered short forms
    /// (abbreviations, single-word acronym expansions) map through their
    /// full form's set. Tokens the thesaurus has never seen return `None`.
    ///
    /// Deterministic and insertion-order independent, so it is safe to use
    /// as a feature key in persistent or cross-session structures (the
    /// candidate index does exactly that).
    pub fn canonical_folded(&self, token: &str) -> Option<&str> {
        let of_full = |full: &str| -> Option<&str> {
            self.synset_of
                .get(full)
                .and_then(|id| self.canonical.get(id))
                .map(String::as_str)
        };
        if let Some(id) = self.synset_of.get(token) {
            return self.canonical.get(id).map(String::as_str);
        }
        if let Some(fulls) = self.abbreviations.get(token) {
            let full = fulls.iter().min()?;
            return Some(of_full(full).unwrap_or(full));
        }
        if let Some(word) = self
            .acronyms
            .get(token)
            .into_iter()
            .flatten()
            .filter(|e| e.len() == 1)
            .map(|e| e[0].as_str())
            .min()
        {
            return Some(of_full(word).unwrap_or(word));
        }
        None
    }

    /// All registered ancestors of a *pre-folded* token (transitive
    /// hypernym closure, bounded for safety against malformed cyclic
    /// data). Order follows the registered edges, deterministically.
    pub fn ancestors_folded(&self, token: &str) -> Vec<String> {
        self.ancestors(token)
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// All registered ancestors of `token` (transitive hypernym closure,
    /// bounded for safety against malformed cyclic data), borrowed from the
    /// hypernym map.
    fn ancestors<'s>(&'s self, token: &str) -> Vec<&'s str> {
        let mut out: Vec<&'s str> = Vec::new();
        let mut frontier = vec![token];
        while let Some(cur) = frontier.pop() {
            if let Some(parents) = self.hypernyms.get(cur) {
                for p in parents {
                    if !out.contains(&p.as_str()) {
                        out.push(p);
                        frontier.push(p);
                    }
                    if out.len() > 64 {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// True if the two tokens share a registered ancestor concept (and are
    /// therefore co-hyponyms / coordinate terms).
    pub fn share_ancestor(&self, a: &str, b: &str) -> bool {
        let aa = self.ancestors(a);
        if aa.is_empty() {
            return false;
        }
        let ba = self.ancestors(b);
        aa.iter()
            .any(|x| ba.iter().any(|y| x == y || self.are_synonyms(x, y)))
    }

    /// Number of synonym entries (distinct tokens appearing in sets).
    pub fn synonym_token_count(&self) -> usize {
        self.synset_of.len()
    }
}

/// [`Thesaurus::word_key`] of a word in synonym set `id`: odd.
fn synset_key(id: u32) -> u64 {
    u64::from(id) << 1 | 1
}

/// [`Thesaurus::word_key`] of a word in no synonym set: an even hash of
/// its text.
fn text_key(word: &str) -> u64 {
    fnv(word.bytes().map(u64::from)) << 1
}

/// The FNV-1a hash of a sequence, one item per round: the join keys'
/// hash, where a collision can only add a candidate.
pub(crate) fn fnv(items: impl Iterator<Item = u64>) -> u64 {
    items.fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Thesaurus {
        let mut t = Thesaurus::new();
        t.add_synonyms(["writer", "author", "creator"]);
        t.add_synonyms(["book", "volume"]);
        t.add_hypernym("book", "publication");
        t.add_hypernym("publication", "work");
        t.add_acronym("uom", ["unit", "of", "measure"]);
        t.add_acronym("id", ["identifier"]);
        t.add_abbreviation("qty", "quantity");
        t.add_abbreviation("no", "number");
        t
    }

    #[test]
    fn synonyms_are_symmetric_and_case_insensitive_storage() {
        let t = sample();
        assert!(t.are_synonyms("writer", "author"));
        assert!(t.are_synonyms("creator", "writer"));
        assert!(!t.are_synonyms("writer", "book"));
        assert!(!t.are_synonyms("writer", "missing"));
    }

    #[test]
    fn synonym_sets_merge_transitively() {
        let mut t = Thesaurus::new();
        t.add_synonyms(["a", "b"]);
        t.add_synonyms(["c", "d"]);
        assert!(!t.are_synonyms("a", "c"));
        t.add_synonyms(["b", "c"]);
        assert!(t.are_synonyms("a", "d"), "merging must connect all four");
    }

    #[test]
    fn hypernyms_are_directional_and_transitive() {
        let t = sample();
        assert!(t.is_hypernym_of("publication", "book"));
        assert!(t.is_hypernym_of("work", "book"), "transitive closure");
        assert!(
            !t.is_hypernym_of("book", "publication"),
            "direction matters"
        );
        assert_eq!(t.relation("book", "publication"), Relation::Hypernym);
        assert_eq!(t.relation("publication", "book"), Relation::Hypernym);
    }

    #[test]
    fn hypernyms_respect_synonym_sets() {
        let t = sample();
        // volume is a synonym of book; book IS-A publication, but the edge
        // was declared on "book" — hypernymy is looked up through the target
        // token itself, while parents match through synonyms.
        let mut t2 = t.clone();
        t2.add_hypernym("volume", "publication");
        assert!(t2.is_hypernym_of("publication", "volume"));
    }

    #[test]
    fn abbreviations_and_relation_grade() {
        let t = sample();
        assert!(t.is_abbreviation_of("qty", "quantity"));
        assert!(
            !t.is_abbreviation_of("quantity", "qty"),
            "lookup is by short form"
        );
        assert_eq!(t.relation("qty", "quantity"), Relation::Abbreviation);
        assert_eq!(t.relation("quantity", "qty"), Relation::Abbreviation);
        assert_eq!(t.relation("no", "number"), Relation::Abbreviation);
    }

    #[test]
    fn single_word_acronym_expansion_matches() {
        let t = sample();
        assert_eq!(t.relation("id", "identifier"), Relation::Acronym);
        // Multi-word expansions are not token-level relations.
        assert_eq!(t.relation("uom", "unit"), Relation::Unrelated);
        assert_eq!(t.acronym_expansions("uom").len(), 1);
        assert!(t.acronym_expansions("zzz").is_empty());
    }

    #[test]
    fn relation_folds_mixed_case_once() {
        let t = sample();
        // The string entry point is case-insensitive...
        assert_eq!(t.relation("Writer", "AUTHOR"), Relation::Synonym);
        assert_eq!(t.relation("QTY", "Quantity"), Relation::Abbreviation);
        // ...and the pre-folded path sees exactly what it was given.
        assert_eq!(t.relation_folded("writer", "author"), Relation::Synonym);
        assert_eq!(t.relation_folded("Writer", "author"), Relation::Unrelated);
    }

    #[test]
    fn relation_priority_same_beats_everything() {
        let t = sample();
        assert_eq!(t.relation("book", "book"), Relation::Same);
        assert_eq!(t.relation("writer", "author"), Relation::Synonym);
        assert_eq!(t.relation("head", "legs"), Relation::Unrelated);
    }

    #[test]
    fn relation_ordering_matches_strength() {
        assert!(Relation::Same < Relation::Synonym);
        assert!(Relation::Synonym < Relation::Abbreviation);
        assert!(Relation::Abbreviation < Relation::Acronym);
        assert!(Relation::Acronym < Relation::Hypernym);
        assert!(Relation::Hypernym < Relation::Unrelated);
    }

    #[test]
    fn cyclic_hypernym_data_terminates() {
        let mut t = Thesaurus::new();
        t.add_hypernym("a", "b");
        t.add_hypernym("b", "a");
        assert!(t.is_hypernym_of("b", "a"));
        assert!(!t.is_hypernym_of("c", "a"));
    }

    #[test]
    fn synonym_token_count_reflects_entries() {
        let t = sample();
        assert_eq!(t.synonym_token_count(), 5);
    }

    #[test]
    fn canonical_is_the_smallest_set_member() {
        let t = sample();
        // {writer, author, creator} -> "author"; {book, volume} -> "book".
        assert_eq!(t.canonical_folded("writer"), Some("author"));
        assert_eq!(t.canonical_folded("creator"), Some("author"));
        assert_eq!(t.canonical_folded("author"), Some("author"));
        assert_eq!(t.canonical_folded("volume"), Some("book"));
        // Short forms resolve through their full form's set.
        assert_eq!(t.canonical_folded("qty"), Some("quantity"));
        assert_eq!(t.canonical_folded("id"), Some("identifier"));
        // Unknown tokens have no concept representative.
        assert_eq!(t.canonical_folded("zeppelin"), None);
        // Hypernym-only tokens are not canonicalized (direction matters).
        assert_eq!(t.canonical_folded("publication"), None);
    }

    #[test]
    fn canonical_survives_set_merges_order_independently() {
        let mut fwd = Thesaurus::new();
        fwd.add_synonyms(["m", "z"]);
        fwd.add_synonyms(["z", "a"]);
        let mut rev = Thesaurus::new();
        rev.add_synonyms(["z", "a"]);
        rev.add_synonyms(["m", "z"]);
        for t in [&fwd, &rev] {
            assert_eq!(t.canonical_folded("m"), Some("a"));
            assert_eq!(t.canonical_folded("z"), Some("a"));
        }
    }

    #[test]
    fn ancestors_expose_the_transitive_closure() {
        let t = sample();
        let a = t.ancestors_folded("book");
        assert!(a.contains(&"publication".to_owned()));
        assert!(a.contains(&"work".to_owned()), "transitive: {a:?}");
        assert!(t.ancestors_folded("work").is_empty());
        assert!(t.ancestors_folded("zeppelin").is_empty());
    }

    #[test]
    fn entry_shortcuts_agree_with_the_full_relation_chain() {
        // The chain without entry shortcuts: every check runs.
        fn full_chain(t: &Thesaurus, a: &str, b: &str) -> Relation {
            let single = |x: &str, y: &str| {
                t.acronym_expansions(x)
                    .iter()
                    .any(|e| e.len() == 1 && (e[0] == y || t.are_synonyms(&e[0], y)))
            };
            if a == b {
                Relation::Same
            } else if t.are_synonyms(a, b) {
                Relation::Synonym
            } else if t.is_abbreviation_of(a, b) || t.is_abbreviation_of(b, a) {
                Relation::Abbreviation
            } else if single(a, b) || single(b, a) {
                Relation::Acronym
            } else if t.is_hypernym_of(a, b) || t.is_hypernym_of(b, a) {
                Relation::Hypernym
            } else if t.share_ancestor(a, b) {
                Relation::Coordinate
            } else {
                Relation::Unrelated
            }
        }
        let t = crate::builtin::default_thesaurus();
        let mut vocabulary: Vec<&str> = ["zeppelin", "quantety", "hands"].to_vec();
        vocabulary.extend(t.synset_of.keys().map(String::as_str));
        vocabulary.extend(t.abbreviations.keys().map(String::as_str));
        vocabulary.extend(t.acronyms.keys().map(String::as_str));
        for (child, parents) in &t.hypernyms {
            vocabulary.push(child);
            vocabulary.extend(parents.iter().map(String::as_str));
        }
        vocabulary.sort_unstable();
        vocabulary.dedup();
        for &a in &vocabulary {
            for &b in &vocabulary {
                assert_eq!(t.relation_folded(a, b), full_chain(&t, a, b), "{a} vs {b}");
            }
        }
    }
}
