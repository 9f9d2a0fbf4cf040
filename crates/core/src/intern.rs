//! Label interning: every distinct raw label string is assigned a stable
//! [`Symbol`], and the case-folding and [`tokenize`] work for that label
//! happens exactly once, when the symbol is created.
//!
//! The interner is the substrate of the prepare-once/match-many session
//! architecture (see `session`): a [`crate::session::MatchSession`] owns one
//! [`Interner`] for its whole lifetime, so a schema corpus that reuses the
//! same vocabulary — the dominant production case — pays the linguistic
//! preprocessing once per distinct label, not once per node per match call.

use qmatch_lexicon::tokenize::{tokenize, Token};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned label. Two symbols from the same [`Interner`] are equal iff
/// their raw label strings are byte-identical; the symbol also keys the
/// session's cross-schema label-comparison cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The symbol's dense index into its interner's tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A map keyed by [`Symbol`], hashed by [`SymHasher`]: the label cache
/// looks a symbol up for every label pair a build reads, and the prepare
/// path for every node.
pub(crate) type SymMap<V> = HashMap<Symbol, V, BuildHasherDefault<SymHasher>>;

/// A multiplicative (Fx-style) hasher for [`SymMap`] keys. Symbols are
/// dense interner ids that callers never choose, so the flooding
/// resistance of the standard library's keyed SipHash buys nothing here;
/// one multiply spreads dense ids over the low bits that pick a bucket and
/// the high bits that tag it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SymHasher(u64);

impl SymHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for SymHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One interned label's precomputed forms.
#[derive(Debug, Clone)]
struct Entry {
    raw: String,
    folded: String,
    tokens: Vec<Token>,
}

/// Interns label strings and owns their case-folded and tokenized forms.
#[derive(Debug, Default)]
pub struct Interner {
    map: HashMap<String, u32>,
    entries: Vec<Entry>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `label`, folding and tokenizing it on first sight.
    pub fn intern(&mut self, label: &str) -> Symbol {
        if let Some(&id) = self.map.get(label) {
            return Symbol(id);
        }
        let id = self.entries.len() as u32;
        self.entries.push(Entry {
            raw: label.to_owned(),
            folded: label.to_lowercase(),
            tokens: tokenize(label),
        });
        self.map.insert(label.to_owned(), id);
        Symbol(id)
    }

    /// The raw label a symbol was interned from.
    pub fn raw(&self, symbol: Symbol) -> &str {
        &self.entries[symbol.index()].raw
    }

    /// The case-folded (lowercased) form, computed once at intern time.
    pub fn folded(&self, symbol: Symbol) -> &str {
        &self.entries[symbol.index()].folded
    }

    /// The [`tokenize`] output, computed once at intern time.
    pub fn tokens(&self, symbol: Symbol) -> &[Token] {
        &self.entries[symbol.index()].tokens
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_case_sensitive_on_raw() {
        let mut i = Interner::new();
        let a = i.intern("OrderNo");
        let b = i.intern("OrderNo");
        let c = i.intern("orderno");
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct raw spellings get distinct symbols");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn folded_and_tokens_are_precomputed() {
        let mut i = Interner::new();
        let s = i.intern("PurchaseOrderNo");
        assert_eq!(i.raw(s), "PurchaseOrderNo");
        assert_eq!(i.folded(s), "purchaseorderno");
        let toks: Vec<&str> = i.tokens(s).iter().map(Token::as_str).collect();
        assert_eq!(toks, ["purchase", "order", "no"]);
    }

    #[test]
    fn sym_hasher_hashes_bytes_and_integers_alike() {
        let hash = |f: &dyn Fn(&mut SymHasher)| {
            let mut h = SymHasher::default();
            f(&mut h);
            h.finish()
        };
        // `write` folds bytes little-endian, eight at a time, so a byte
        // slice hashes like the integer it spells.
        assert_eq!(
            hash(&|h| h.write(&7u32.to_le_bytes())),
            hash(&|h| h.write_u32(7))
        );
        assert_ne!(hash(&|h| h.write(b"order")), hash(&|h| h.write(b"ordem")));
        assert_ne!(hash(&|h| h.write_u32(1)), hash(&|h| h.write_u32(2)));
        let mut map: SymMap<u32> = SymMap::default();
        for k in 0..1000 {
            map.insert(Symbol(k), k * 2);
        }
        assert!((0..1000).all(|k| map[&Symbol(k)] == k * 2));
    }

    #[test]
    fn symbols_index_densely() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|l| i.intern(l)).collect();
        for (k, s) in syms.iter().enumerate() {
            assert_eq!(s.index(), k);
        }
    }
}
