//! Byte cursor over the input string; line and column are derived on demand.

use crate::error::{Position, XmlError, XmlErrorKind, XmlResult};
use std::cell::Cell;

/// A forward-only cursor over UTF-8 input.
///
/// The cursor advances by byte offset only. Line and column are derived
/// when a [`Position`] is asked for, by counting newlines forward from the
/// last position computed, so the total newline counting is one pass over
/// the input however many positions are taken. Lines are counted at `\n`;
/// columns are byte-based within the line, which matches what most editors
/// report for ASCII-heavy schema documents.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The last position derived: newlines before it are already counted.
    mark: Cell<LineMark>,
}

#[derive(Debug, Clone, Copy)]
struct LineMark {
    offset: usize,
    line: u32,
    /// Offset of the first byte of `line`.
    line_start: usize,
}

impl LineMark {
    const START: LineMark = LineMark {
        offset: 0,
        line: 1,
        line_start: 0,
    };
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            mark: Cell::new(LineMark::START),
        }
    }

    /// Current position for error reporting.
    pub(crate) fn position(&self) -> Position {
        self.position_at(self.pos)
    }

    /// Byte offset of the next unread byte.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// The position of byte `offset`. Cheap when `offset` is at or after
    /// the last position derived; an earlier offset recounts from the
    /// start of the input.
    pub(crate) fn position_at(&self, offset: usize) -> Position {
        let mut mark = self.mark.get();
        if offset < mark.offset {
            mark = LineMark::START;
        }
        let span = &self.bytes[mark.offset..offset];
        if let Some(last) = span.iter().rposition(|&b| b == b'\n') {
            let newlines = 1 + span[..last].iter().filter(|&&b| b == b'\n').count();
            mark.line += newlines as u32;
            mark.line_start = mark.offset + last + 1;
        }
        mark.offset = offset;
        self.mark.set(mark);
        Position {
            line: mark.line,
            column: (offset - mark.line_start + 1) as u32,
            offset,
        }
    }

    pub(crate) fn is_eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Peeks the next byte without consuming it.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The unread rest of the input.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Consumes and returns the next byte.
    pub(crate) fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Consumes `n` bytes, returning them as a slice of the input. The
    /// caller guarantees that `n` bytes remain and that they end on a
    /// character boundary.
    pub(crate) fn take(&mut self, n: usize) -> &'a str {
        let start = self.pos;
        self.pos += n;
        &self.src[start..self.pos]
    }

    /// Consumes the next byte, requiring it to be `expected`.
    pub(crate) fn expect(&mut self, expected: u8, what: &'static str) -> XmlResult<()> {
        match self.peek() {
            Some(b) if b == expected => {
                self.bump();
                Ok(())
            }
            Some(b) => Err(self.error_at(XmlErrorKind::UnexpectedChar {
                found: b as char,
                expected: what,
            })),
            None => Err(self.error_at(XmlErrorKind::UnexpectedEof { context: what })),
        }
    }

    /// True (and consumes) if the input continues with `s`.
    pub(crate) fn eat_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// True if the input continues with `s` (no consumption).
    pub(crate) fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s.as_bytes())
    }

    /// Skips XML whitespace (space, tab, CR, LF); returns how many bytes were skipped.
    pub(crate) fn skip_whitespace(&mut self) -> usize {
        let n = self
            .rest()
            .iter()
            .take_while(|&&b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            .count();
        self.pos += n;
        n
    }

    /// Consumes bytes while `pred` holds and returns the matched slice.
    /// `pred` must not stop inside a multi-byte character (every
    /// predicate here stops only at ASCII bytes).
    pub(crate) fn take_while(&mut self, mut pred: impl FnMut(u8) -> bool) -> &'a str {
        let n = self.rest().iter().take_while(|&&b| pred(b)).count();
        self.take(n)
    }

    /// Consumes up to (not including) the first occurrence of `needle`,
    /// returning the consumed slice. Errors with `context` on EOF.
    pub(crate) fn take_until(&mut self, needle: &str, context: &'static str) -> XmlResult<&'a str> {
        match self.src[self.pos..].find(needle) {
            Some(idx) => Ok(self.take(idx)),
            None => Err(self.error_at(XmlErrorKind::UnexpectedEof { context })),
        }
    }

    /// Builds an error at the current position.
    pub(crate) fn error_at(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.position())
    }

    /// Builds an error at an explicit position.
    pub(crate) fn error(&self, kind: XmlErrorKind, at: Position) -> XmlError {
        XmlError::new(kind, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_lines_and_columns() {
        let mut c = Cursor::new("ab\ncd");
        assert_eq!(
            c.position(),
            Position {
                line: 1,
                column: 1,
                offset: 0
            }
        );
        c.bump();
        c.bump();
        assert_eq!(
            c.position(),
            Position {
                line: 1,
                column: 3,
                offset: 2
            }
        );
        c.bump(); // newline
        assert_eq!(
            c.position(),
            Position {
                line: 2,
                column: 1,
                offset: 3
            }
        );
        c.bump();
        assert_eq!(
            c.position(),
            Position {
                line: 2,
                column: 2,
                offset: 4
            }
        );
    }

    #[test]
    fn positions_are_derived_at_any_offset() {
        // CR is an ordinary column byte; only LF starts a line.
        let c = Cursor::new("a\r\nbc\n\nd");
        let at = |offset| {
            let p = c.position_at(offset);
            (p.line, p.column, p.offset)
        };
        assert_eq!(at(2), (1, 3, 2));
        assert_eq!(at(5), (2, 3, 5));
        assert_eq!(at(7), (4, 1, 7));
        // Earlier offsets recount from the start and agree.
        assert_eq!(at(3), (2, 1, 3));
        assert_eq!(at(0), (1, 1, 0));
        assert_eq!(at(8), (4, 2, 8));
    }

    #[test]
    fn eat_str_consumes_only_on_match() {
        let mut c = Cursor::new("<?xml rest");
        assert!(!c.eat_str("<!--"));
        assert_eq!(c.position().offset, 0);
        assert!(c.eat_str("<?xml"));
        assert_eq!(c.position().offset, 5);
    }

    #[test]
    fn take_until_returns_slice_and_stops_before_needle() {
        let mut c = Cursor::new("hello-->tail");
        let s = c.take_until("-->", "a comment").unwrap();
        assert_eq!(s, "hello");
        assert!(c.starts_with("-->"));
    }

    #[test]
    fn take_until_errors_at_eof() {
        let mut c = Cursor::new("no terminator");
        let err = c.take_until("]]>", "a CDATA section").unwrap_err();
        assert!(
            matches!(err.kind(), XmlErrorKind::UnexpectedEof { context } if *context == "a CDATA section")
        );
    }

    #[test]
    fn skip_whitespace_counts_bytes() {
        let mut c = Cursor::new("  \t\n x");
        assert_eq!(c.skip_whitespace(), 5);
        assert_eq!(c.peek(), Some(b'x'));
        assert_eq!(c.skip_whitespace(), 0);
    }

    #[test]
    fn take_while_stops_at_predicate_boundary() {
        let mut c = Cursor::new("abc123");
        let s = c.take_while(|b| b.is_ascii_alphabetic());
        assert_eq!(s, "abc");
        assert_eq!(c.peek(), Some(b'1'));
    }

    #[test]
    fn expect_reports_found_character() {
        let mut c = Cursor::new("x");
        let err = c.expect(b'=', "'=' after attribute name").unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::UnexpectedChar { found: 'x', .. }
        ));
    }
}
