//! Qualified names (`prefix:local`) and XML name-character rules.

use std::borrow::Cow;
use std::fmt;

/// A qualified XML name split into an optional prefix and a local part.
///
/// This crate performs *syntactic* namespace handling only: names are split
/// at the first `:` but prefixes are not resolved to URIs. That is all the
/// XSD layer needs — it compares the local part and treats the prefix of the
/// XML Schema namespace as opaque.
///
/// A name read from a document borrows its text from the source; one built
/// in code ([`QName::into_owned`]) owns it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QName<'a> {
    raw: Cow<'a, str>,
    pub(crate) colon: Option<usize>,
}

impl<'a> QName<'a> {
    /// Parses a raw name into a `QName` borrowing `raw`. Returns `None` if
    /// the name is not a valid XML name (or has an empty prefix/local
    /// part).
    ///
    /// This is the reference check: the reader's one-pass ASCII scan must
    /// accept exactly the names this accepts, with the same split.
    pub fn parse(raw: &'a str) -> Option<QName<'a>> {
        if !is_valid_name(raw) {
            return None;
        }
        let colon = raw.find(':');
        if let Some(idx) = colon {
            // Empty prefix/local, or a second colon, make the name invalid.
            if idx == 0 || idx + 1 == raw.len() || raw[idx + 1..].contains(':') {
                return None;
            }
        }
        Some(QName::from_parts(raw, colon))
    }

    /// A name whose validity and colon position the caller has already
    /// established.
    pub(crate) fn from_parts(raw: &'a str, colon: Option<usize>) -> QName<'a> {
        QName {
            raw: Cow::Borrowed(raw),
            colon,
        }
    }

    /// Detaches the name from the text it was read from.
    pub fn into_owned(self) -> QName<'static> {
        QName {
            raw: Cow::Owned(self.raw.into_owned()),
            colon: self.colon,
        }
    }

    /// The full name as written, e.g. `xs:element`.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// The prefix, if any, e.g. `xs`.
    pub fn prefix(&self) -> Option<&str> {
        self.colon.map(|idx| &self.raw[..idx])
    }

    /// The local part, e.g. `element`.
    pub fn local(&self) -> &str {
        match self.colon {
            Some(idx) => &self.raw[idx + 1..],
            None => &self.raw,
        }
    }
}

impl fmt::Display for QName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

/// True if `c` may start an XML name.
///
/// This follows the XML 1.0 `NameStartChar` production restricted to the
/// Basic Multilingual Plane ranges that occur in practice.
pub const fn is_name_start_char(c: char) -> bool {
    matches!(c,
        ':' | '_' | 'A'..='Z' | 'a'..='z'
        | '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}')
}

/// True if `c` may continue an XML name.
pub const fn is_name_char(c: char) -> bool {
    is_name_start_char(c)
        || matches!(c, '-' | '.' | '0'..='9' | '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// [`ASCII_NAME`] bit: the byte may start a name.
pub(crate) const NAME_START: u8 = 1;
/// [`ASCII_NAME`] bit: the byte may continue a name.
pub(crate) const NAME_CHAR: u8 = 2;

/// Name classes of the 128 ASCII bytes, derived at compile time from
/// [`is_name_start_char`] and [`is_name_char`], so the reader checks each
/// byte of an ASCII name with one load instead of two range matches.
pub(crate) const ASCII_NAME: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8 as char;
        if is_name_start_char(c) {
            table[b] |= NAME_START;
        }
        if is_name_char(c) {
            table[b] |= NAME_CHAR;
        }
        b += 1;
    }
    table
};

/// True if `s` is a non-empty valid XML name.
pub fn is_valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if is_name_start_char(c) => chars.all(is_name_char),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_prefix_and_local() {
        let q = QName::parse("xs:element").unwrap();
        assert_eq!(q.prefix(), Some("xs"));
        assert_eq!(q.local(), "element");
        assert_eq!(q.raw(), "xs:element");
        assert_eq!(q.to_string(), "xs:element");
    }

    #[test]
    fn unprefixed_name_has_no_prefix() {
        let q = QName::parse("element").unwrap();
        assert_eq!(q.prefix(), None);
        assert_eq!(q.local(), "element");
    }

    #[test]
    fn rejects_empty_and_malformed_names() {
        for bad in [
            "", "1abc", "-a", ".x", "a b", ":x", "x:", "a:b:c", "<", "a<b",
        ] {
            assert!(QName::parse(bad).is_none(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn accepts_names_with_digits_dots_and_dashes_after_start() {
        for good in [
            "a1",
            "a-b",
            "a.b",
            "_x",
            "A",
            "PurchaseOrder",
            "xs:complexType",
        ] {
            assert!(QName::parse(good).is_some(), "{good:?} should be accepted");
        }
    }

    #[test]
    fn name_char_tables_are_consistent() {
        // Every start char is also a name char.
        for c in ['a', 'Z', '_', '\u{C0}', '\u{2C00}'] {
            assert!(is_name_start_char(c));
            assert!(is_name_char(c));
        }
        // Continuation-only characters.
        for c in ['-', '.', '5', '\u{B7}'] {
            assert!(!is_name_start_char(c));
            assert!(is_name_char(c));
        }
    }

    #[test]
    fn ascii_table_agrees_with_the_char_rules() {
        for b in 0u8..128 {
            let c = b as char;
            let class = ASCII_NAME[b as usize];
            assert_eq!(class & NAME_START != 0, is_name_start_char(c), "{b:#04x}");
            assert_eq!(class & NAME_CHAR != 0, is_name_char(c), "{b:#04x}");
        }
    }

    #[test]
    fn into_owned_keeps_the_split() {
        let src = String::from("xs:element");
        let owned = QName::parse(&src).unwrap().into_owned();
        drop(src);
        assert_eq!(owned.prefix(), Some("xs"));
        assert_eq!(owned.local(), "element");
    }

    #[test]
    fn unicode_letters_allowed() {
        assert!(is_valid_name("élément"));
        assert!(QName::parse("élément").is_some());
    }
}
