//! Pull-based XML event reader.
//!
//! [`Reader`] tokenizes an in-memory document and yields [`Event`]s while
//! enforcing the well-formedness rules that matter for schema documents:
//! matching open/close tags, unique attributes, a single root element, no
//! content outside the root, legal entity references, and no `--` inside
//! comments or `]]>` in character data.
//!
//! Events borrow from the input: names, comments, CDATA and PI bodies are
//! slices of it, and text and attribute values are [`Cow::Borrowed`]
//! unless an entity reference or attribute-value normalization changed
//! them.

use crate::error::{Position, XmlErrorKind, XmlResult};
use crate::escape::unescape;
use crate::input::Cursor;
use crate::limits::IngestLimits;
use crate::name::{QName, ASCII_NAME, NAME_CHAR, NAME_START};
use std::borrow::Cow;

/// One attribute on a start tag, with its decoded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// The attribute name as written (possibly prefixed).
    pub name: QName<'a>,
    /// The attribute value with entity references decoded.
    pub value: Cow<'a, str>,
    /// Position of the attribute name in the source.
    pub position: Position,
}

/// A parse event produced by [`Reader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// The `<?xml ...?>` declaration, with its raw body (e.g. `version="1.0"`).
    Declaration(&'a str),
    /// `<name attr="v">` or the opening half of `<name/>`.
    StartElement {
        /// Element name.
        name: QName<'a>,
        /// Attributes in document order.
        attributes: Vec<Attribute<'a>>,
        /// True when the tag was self-closing (`<name/>`); an `EndElement`
        /// event is still produced immediately after.
        self_closing: bool,
        /// Position of the `<`.
        position: Position,
    },
    /// `</name>` (also synthesized after a self-closing start tag).
    EndElement {
        /// Element name.
        name: QName<'a>,
        /// Position of the `<` (for synthesized ends, of the start tag).
        position: Position,
    },
    /// Character data with entity references decoded. Whitespace-only runs
    /// between markup are reported too; the DOM layer decides what to keep.
    Text(Cow<'a, str>),
    /// A `<![CDATA[...]]>` section (verbatim content).
    CData(&'a str),
    /// A `<!--...-->` comment (verbatim content).
    Comment(&'a str),
    /// A `<?target body?>` processing instruction.
    ProcessingInstruction {
        /// The PI target.
        target: &'a str,
        /// The PI body (may be empty).
        body: &'a str,
    },
    /// End of the document; returned exactly once, then again forever.
    Eof,
}

/// Default maximum element nesting depth
/// ([`IngestLimits::DEFAULT`]`.max_depth`). Recursive DOM construction and
/// schema compilation are bounded by this, so a hostile document cannot
/// overflow the stack.
pub const MAX_DEPTH: usize = IngestLimits::DEFAULT.max_depth;

/// The state machine for pull parsing.
#[derive(Debug)]
pub struct Reader<'a> {
    cursor: Cursor<'a>,
    /// Resource limits enforced while pulling events.
    limits: IngestLimits,
    /// Raw input length in bytes (denominator of the expansion budget).
    input_len: usize,
    /// Cumulative decoded character-data bytes (text + attribute values).
    expanded: usize,
    /// Whether the input-size limit has been checked (once, on first pull).
    size_checked: bool,
    /// Names of currently open elements.
    stack: Vec<QName<'a>>,
    /// Pending synthesized end element from a self-closing tag.
    pending_end: Option<(QName<'a>, Position)>,
    /// Whether the single root element has been seen and closed.
    root_closed: bool,
    /// Whether any root element has been seen at all.
    seen_root: bool,
    /// Whether EOF has been returned.
    done: bool,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `src` with the default [`IngestLimits`].
    pub fn new(src: &'a str) -> Self {
        Reader::with_limits(src, IngestLimits::default())
    }

    /// Creates a reader over `src` enforcing custom [`IngestLimits`].
    pub fn with_limits(src: &'a str, limits: IngestLimits) -> Self {
        Reader {
            cursor: Cursor::new(src),
            limits,
            input_len: src.len(),
            expanded: 0,
            size_checked: false,
            stack: Vec::new(),
            pending_end: None,
            root_closed: false,
            seen_root: false,
            done: false,
        }
    }

    fn limit_error(&self, limit: &'static str, limit_value: usize, actual: usize) -> XmlResult<()> {
        // The cursor sits on the first byte that crossed the limit.
        let offset = Some(self.cursor.offset());
        Err(self.cursor.error_at(XmlErrorKind::LimitExceeded {
            limit,
            limit_value: limit_value as u64,
            actual: actual as u64,
            offset,
        }))
    }

    /// Charges `decoded_len` bytes of decoded character data against the
    /// entity-expansion budget (`max_entity_expansion` × raw input bytes).
    fn charge_expansion(&mut self, decoded_len: usize) -> XmlResult<()> {
        self.expanded = self.expanded.saturating_add(decoded_len);
        let budget = self
            .limits
            .max_entity_expansion
            .saturating_mul(self.input_len);
        if self.expanded > budget {
            return self.limit_error("max_entity_expansion", budget, self.expanded);
        }
        Ok(())
    }

    /// Current source position (start of the next unread construct).
    pub fn position(&self) -> Position {
        self.cursor.position()
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Pulls the next event.
    pub fn next_event(&mut self) -> XmlResult<Event<'a>> {
        if !self.size_checked {
            self.size_checked = true;
            if self.input_len > self.limits.max_input_bytes {
                // The cursor still sits at the start; the first byte past
                // the cap is the offending one.
                return Err(self.cursor.error_at(XmlErrorKind::LimitExceeded {
                    limit: "max_input_bytes",
                    limit_value: self.limits.max_input_bytes as u64,
                    actual: self.input_len as u64,
                    offset: Some(self.limits.max_input_bytes),
                }));
            }
        }
        if let Some((name, position)) = self.pending_end.take() {
            self.leave_element();
            return Ok(Event::EndElement { name, position });
        }
        if self.done {
            return Ok(Event::Eof);
        }
        if self.cursor.is_eof() {
            return self.finish();
        }
        if self.cursor.peek() == Some(b'<') {
            self.read_markup()
        } else {
            self.read_text()
        }
    }

    fn finish(&mut self) -> XmlResult<Event<'a>> {
        if self.stack.last().is_some() {
            // The position already points at the unclosed region; naming the
            // element would require leaking or allocating into a `&'static
            // str` context, which is unacceptable under sustained hostile
            // traffic (the old implementation `Box::leak`ed here).
            return Err(self.cursor.error_at(XmlErrorKind::UnexpectedEof {
                context: "an unclosed element",
            }));
        }
        if !self.seen_root {
            return Err(self.cursor.error_at(XmlErrorKind::BadDocumentStructure {
                detail: "document has no root element",
            }));
        }
        self.done = true;
        Ok(Event::Eof)
    }

    fn read_markup(&mut self) -> XmlResult<Event<'a>> {
        let position = self.cursor.position();
        if self.cursor.eat_str("<!--") {
            return self.read_comment();
        }
        if self.cursor.eat_str("<![CDATA[") {
            return self.read_cdata(position);
        }
        if self.cursor.starts_with("<!DOCTYPE") {
            self.skip_doctype()?;
            return self.next_event();
        }
        if self.cursor.eat_str("<?") {
            return self.read_pi(position);
        }
        if self.cursor.eat_str("</") {
            return self.read_end_tag(position);
        }
        self.cursor.expect(b'<', "'<' starting markup")?;
        self.read_start_tag(position)
    }

    fn read_comment(&mut self) -> XmlResult<Event<'a>> {
        let body = self.cursor.take_until("--", "a comment")?;
        // XML forbids `--` inside comments, so the first `--` must be `-->`.
        self.cursor.eat_str("--");
        if !self.cursor.eat_str(">") {
            return Err(self.cursor.error_at(XmlErrorKind::IllegalConstruct {
                detail: "'--' is not allowed inside a comment",
            }));
        }
        Ok(Event::Comment(body))
    }

    fn read_cdata(&mut self, position: Position) -> XmlResult<Event<'a>> {
        if self.stack.is_empty() {
            return Err(self.cursor.error(
                XmlErrorKind::BadDocumentStructure {
                    detail: "CDATA section outside the root element",
                },
                position,
            ));
        }
        let body = self.cursor.take_until("]]>", "a CDATA section")?;
        self.cursor.eat_str("]]>");
        Ok(Event::CData(body))
    }

    fn skip_doctype(&mut self) -> XmlResult<()> {
        // Consume "<!DOCTYPE ... >" allowing one level of [...] internal subset.
        self.cursor.eat_str("<!DOCTYPE");
        let mut in_subset = false;
        loop {
            match self.cursor.bump() {
                Some(b'[') => in_subset = true,
                Some(b']') => in_subset = false,
                Some(b'>') if !in_subset => return Ok(()),
                Some(_) => {}
                None => {
                    return Err(self.cursor.error_at(XmlErrorKind::UnexpectedEof {
                        context: "a DOCTYPE declaration",
                    }))
                }
            }
        }
    }

    fn read_pi(&mut self, position: Position) -> XmlResult<Event<'a>> {
        let (target, _) = self.read_name_parts()?;
        self.cursor.skip_whitespace();
        let body = self.cursor.take_until("?>", "a processing instruction")?;
        self.cursor.eat_str("?>");
        if target.eq_ignore_ascii_case("xml") {
            if position.offset != 0 {
                return Err(self.cursor.error(
                    XmlErrorKind::IllegalConstruct {
                        detail: "XML declaration is only allowed at the start of the document",
                    },
                    position,
                ));
            }
            return Ok(Event::Declaration(body));
        }
        Ok(Event::ProcessingInstruction { target, body })
    }

    fn read_start_tag(&mut self, position: Position) -> XmlResult<Event<'a>> {
        if self.root_closed {
            return Err(self.cursor.error(
                XmlErrorKind::BadDocumentStructure {
                    detail: "content after the root element",
                },
                position,
            ));
        }
        let name = self.read_name()?;
        let mut attributes: Vec<Attribute<'a>> = Vec::new();
        let self_closing = loop {
            let had_space = self.cursor.skip_whitespace() > 0;
            match self.cursor.peek() {
                Some(b'>') => {
                    self.cursor.bump();
                    break false;
                }
                Some(b'/') => {
                    self.cursor.bump();
                    self.cursor
                        .expect(b'>', "'>' after '/' in a self-closing tag")?;
                    break true;
                }
                Some(found) => {
                    if !had_space {
                        return Err(self.cursor.error_at(XmlErrorKind::UnexpectedChar {
                            found: found as char,
                            expected: "whitespace before an attribute",
                        }));
                    }
                    if attributes.len() >= self.limits.max_attributes {
                        self.limit_error(
                            "max_attributes",
                            self.limits.max_attributes,
                            attributes.len() + 1,
                        )?;
                    }
                    let attr = self.read_attribute()?;
                    if attributes.iter().any(|a| a.name == attr.name) {
                        return Err(self.cursor.error(
                            XmlErrorKind::DuplicateAttribute {
                                name: attr.name.raw().to_owned(),
                            },
                            attr.position,
                        ));
                    }
                    attributes.push(attr);
                }
                None => {
                    return Err(self.cursor.error_at(XmlErrorKind::UnexpectedEof {
                        context: "a start tag",
                    }))
                }
            }
        };
        self.seen_root = true;
        if self_closing {
            self.pending_end = Some((name.clone(), position));
        }
        self.stack.push(name.clone());
        if self.stack.len() > self.limits.max_depth {
            return Err(self.cursor.error(
                XmlErrorKind::LimitExceeded {
                    limit: "max_depth",
                    limit_value: self.limits.max_depth as u64,
                    actual: self.stack.len() as u64,
                    offset: Some(position.offset),
                },
                position,
            ));
        }
        Ok(Event::StartElement {
            name,
            attributes,
            self_closing,
            position,
        })
    }

    fn read_end_tag(&mut self, position: Position) -> XmlResult<Event<'a>> {
        // Fast path: the tag closes the open element. Its name is already
        // checked, so matching its bytes — followed by a byte that cannot
        // continue a name — is all `read_name` would establish.
        if let Some(open) = self.stack.last() {
            let rest = self.cursor.rest();
            let len = open.raw().len();
            if rest.starts_with(open.raw().as_bytes())
                && rest
                    .get(len)
                    .is_some_and(|&b| b < 0x80 && ASCII_NAME[b as usize] & NAME_CHAR == 0)
            {
                let name = open.clone();
                self.cursor.take(len);
                self.cursor.skip_whitespace();
                self.cursor.expect(b'>', "'>' closing an end tag")?;
                self.leave_element();
                return Ok(Event::EndElement { name, position });
            }
        }
        let name = self.read_name()?;
        self.cursor.skip_whitespace();
        self.cursor.expect(b'>', "'>' closing an end tag")?;
        match self.stack.last() {
            Some(open) if *open == name => {
                self.leave_element();
                Ok(Event::EndElement { name, position })
            }
            Some(open) => Err(self.cursor.error(
                XmlErrorKind::MismatchedTag {
                    expected: open.raw().to_owned(),
                    found: name.raw().to_owned(),
                },
                position,
            )),
            None => Err(self.cursor.error(
                XmlErrorKind::UnexpectedCloseTag {
                    found: name.raw().to_owned(),
                },
                position,
            )),
        }
    }

    fn leave_element(&mut self) {
        self.stack.pop();
        if self.stack.is_empty() {
            self.root_closed = true;
        }
    }

    fn read_name(&mut self) -> XmlResult<QName<'a>> {
        let (raw, colon) = self.read_name_parts()?;
        Ok(QName::from_parts(raw, colon))
    }

    /// Reads and checks a name in one pass over its bytes, returning it
    /// with the offset of its colon. A name is the longest run of ASCII
    /// name characters and bytes ≥ 0x80. ASCII names are validated by
    /// [`ASCII_NAME`] lookups while scanning; names with a non-ASCII byte
    /// take the char-level [`QName::parse`].
    fn read_name_parts(&mut self) -> XmlResult<(&'a str, Option<usize>)> {
        let start = self.cursor.offset();
        let rest = self.cursor.rest();
        let mut len = 0;
        let mut ascii = true;
        // Set when the first byte cannot start a name, or a colon is
        // misplaced: empty prefix, second colon (an empty local part is
        // checked after the scan).
        let mut invalid = false;
        let mut colon = None;
        for &b in rest {
            if b >= 0x80 {
                ascii = false;
            } else {
                let class = ASCII_NAME[b as usize];
                if class & NAME_CHAR == 0 {
                    break;
                }
                if len == 0 && class & NAME_START == 0 {
                    invalid = true;
                }
                if b == b':' {
                    invalid |= len == 0 || colon.is_some();
                    colon = Some(len);
                }
            }
            len += 1;
        }
        if len == 0 {
            let found = self.cursor.peek().map(|b| b as char).unwrap_or('\u{0}');
            return Err(self.cursor.error(
                XmlErrorKind::UnexpectedChar {
                    found,
                    expected: "an XML name",
                },
                self.cursor.position_at(start),
            ));
        }
        let raw = self.cursor.take(len);
        let colon = if ascii {
            invalid |= colon == Some(len - 1);
            (!invalid).then_some(colon)
        } else {
            QName::parse(raw).map(|name| name.colon)
        };
        colon.map(|colon| (raw, colon)).ok_or_else(|| {
            self.cursor.error(
                XmlErrorKind::InvalidName {
                    name: raw.to_owned(),
                },
                self.cursor.position_at(start),
            )
        })
    }

    fn read_attribute(&mut self) -> XmlResult<Attribute<'a>> {
        let position = self.cursor.position();
        let name = self.read_name()?;
        self.cursor.skip_whitespace();
        self.cursor.expect(b'=', "'=' after an attribute name")?;
        self.cursor.skip_whitespace();
        let quote = match self.cursor.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.cursor.bump();
                q
            }
            Some(other) => {
                return Err(self.cursor.error_at(XmlErrorKind::UnexpectedChar {
                    found: other as char,
                    expected: "a quoted attribute value",
                }))
            }
            None => {
                return Err(self.cursor.error_at(XmlErrorKind::UnexpectedEof {
                    context: "an attribute value",
                }))
            }
        };
        let value_start = self.cursor.offset();
        let raw = self.cursor.take_while(|b| b != quote && b != b'<');
        if self.cursor.peek() == Some(b'<') {
            return Err(self.cursor.error_at(XmlErrorKind::UnexpectedChar {
                found: '<',
                expected: "no '<' inside an attribute value",
            }));
        }
        self.cursor.expect(quote, "the closing attribute quote")?;
        // XML 1.0 §3.3.3 attribute-value normalization: literal whitespace
        // characters become spaces. (Character references like &#10; are
        // exempt, which unescaping after replacement preserves.) The
        // replacement keeps byte offsets, so a bad reference is located the
        // same way in either branch.
        let value = if raw.bytes().any(|b| matches!(b, b'\t' | b'\n' | b'\r')) {
            let normalized = raw.replace(['\t', '\n', '\r'], " ");
            unescape(&normalized).map(|v| Cow::Owned(v.into_owned()))
        } else {
            unescape(raw)
        };
        let value = value.map_err(|bad| {
            self.cursor.error(
                XmlErrorKind::InvalidReference {
                    reference: bad.body,
                },
                self.reference_position(value_start, bad.offset),
            )
        })?;
        self.charge_expansion(value.len())?;
        Ok(Attribute {
            name,
            value,
            position,
        })
    }

    /// Where a bad reference `offset` bytes into a text run or attribute
    /// value starting at byte `start` is reported: the run's line, and its
    /// start column plus `offset` (also when a newline lies in between).
    fn reference_position(&self, start: usize, offset: usize) -> Position {
        let run = self.cursor.position_at(start);
        Position {
            line: run.line,
            column: run.column + offset as u32,
            offset: start + offset,
        }
    }

    fn read_text(&mut self) -> XmlResult<Event<'a>> {
        let start = self.cursor.offset();
        let raw = self.cursor.take_while(|b| b != b'<');
        if raw.contains("]]>") {
            return Err(self.cursor.error(
                XmlErrorKind::IllegalConstruct {
                    detail: "']]>' is not allowed in character data",
                },
                self.cursor.position_at(start),
            ));
        }
        let text = unescape(raw).map_err(|bad| {
            self.cursor.error(
                XmlErrorKind::InvalidReference {
                    reference: bad.body,
                },
                self.reference_position(start, bad.offset),
            )
        })?;
        if self.stack.is_empty() && !text.trim().is_empty() {
            return Err(self.cursor.error(
                XmlErrorKind::BadDocumentStructure {
                    detail: "character data outside the root element",
                },
                self.cursor.position_at(start),
            ));
        }
        self.charge_expansion(text.len())?;
        Ok(Event::Text(text))
    }
}

impl<'a> Iterator for Reader<'a> {
    type Item = XmlResult<Event<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_event() {
            Ok(Event::Eof) => None,
            other => Some(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event<'_>> {
        Reader::new(src).collect::<XmlResult<Vec<_>>>().unwrap()
    }

    fn err_kind(src: &str) -> XmlErrorKind {
        let r: XmlResult<Vec<_>> = Reader::new(src).collect();
        r.unwrap_err().kind().clone()
    }

    #[test]
    fn parses_minimal_document() {
        let evs = events("<a/>");
        assert_eq!(evs.len(), 2);
        assert!(
            matches!(&evs[0], Event::StartElement { name, self_closing: true, .. } if name.raw() == "a")
        );
        assert!(matches!(&evs[1], Event::EndElement { name, .. } if name.raw() == "a"));
    }

    #[test]
    fn parses_nested_elements_with_text() {
        let evs = events("<a><b>hi</b></a>");
        let kinds: Vec<&str> = evs
            .iter()
            .map(|e| match e {
                Event::StartElement { .. } => "start",
                Event::EndElement { .. } => "end",
                Event::Text(_) => "text",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["start", "start", "text", "end", "end"]);
    }

    #[test]
    fn decodes_attributes_and_entities() {
        let evs = events(r#"<a x="1 &lt; 2" y='"q"'/>"#);
        let Event::StartElement { attributes, .. } = &evs[0] else {
            panic!()
        };
        assert_eq!(attributes[0].name.raw(), "x");
        assert_eq!(attributes[0].value, "1 < 2");
        assert_eq!(attributes[1].value, "\"q\"");
    }

    #[test]
    fn reports_duplicate_attributes() {
        assert!(matches!(
            err_kind(r#"<a x="1" x="2"/>"#),
            XmlErrorKind::DuplicateAttribute { name } if name == "x"
        ));
    }

    #[test]
    fn requires_whitespace_between_attributes() {
        assert!(matches!(
            err_kind(r#"<a x="1"y="2"/>"#),
            XmlErrorKind::UnexpectedChar { .. }
        ));
    }

    #[test]
    fn rejects_mismatched_tags_with_position() {
        let r: XmlResult<Vec<_>> = Reader::new("<a>\n  <b></c></a>").collect();
        let err = r.unwrap_err();
        assert!(
            matches!(err.kind(), XmlErrorKind::MismatchedTag { expected, found }
            if expected == "b" && found == "c")
        );
        assert_eq!(err.position().line, 2);
    }

    #[test]
    fn rejects_stray_close_tag() {
        assert!(matches!(
            err_kind("<a></a></b>"),
            XmlErrorKind::BadDocumentStructure { .. } | XmlErrorKind::UnexpectedCloseTag { .. }
        ));
    }

    #[test]
    fn rejects_unclosed_document() {
        assert!(matches!(
            err_kind("<a><b></b>"),
            XmlErrorKind::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn rejects_empty_document_and_whitespace_only() {
        assert!(matches!(
            err_kind(""),
            XmlErrorKind::BadDocumentStructure { .. }
        ));
        assert!(matches!(
            err_kind("   \n  "),
            XmlErrorKind::BadDocumentStructure { .. }
        ));
    }

    #[test]
    fn rejects_second_root_element() {
        assert!(matches!(
            err_kind("<a/><b/>"),
            XmlErrorKind::BadDocumentStructure { .. }
        ));
    }

    #[test]
    fn rejects_text_outside_root() {
        assert!(matches!(
            err_kind("hello <a/>"),
            XmlErrorKind::BadDocumentStructure { .. }
        ));
        assert!(matches!(
            err_kind("<a/> trailing"),
            XmlErrorKind::BadDocumentStructure { .. }
        ));
    }

    #[test]
    fn whitespace_around_root_is_fine() {
        let evs = events("\n  <a/>\n  ");
        assert!(evs.iter().any(|e| matches!(e, Event::StartElement { .. })));
    }

    #[test]
    fn parses_declaration_comment_pi_cdata() {
        let src = "<?xml version=\"1.0\"?><!-- note --><a><?php echo ?><![CDATA[<raw>&]]></a>";
        let evs = events(src);
        assert!(matches!(&evs[0], Event::Declaration(b) if b.contains("version")));
        assert!(matches!(&evs[1], Event::Comment(c) if c.trim() == "note"));
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::ProcessingInstruction { target, .. } if *target == "php")));
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::CData(c) if *c == "<raw>&")));
    }

    #[test]
    fn declaration_must_be_first() {
        assert!(matches!(
            err_kind("<!-- c --><?xml version=\"1.0\"?><a/>"),
            XmlErrorKind::IllegalConstruct { .. }
        ));
    }

    #[test]
    fn rejects_double_dash_in_comment() {
        assert!(matches!(
            err_kind("<!-- a -- b --><r/>"),
            XmlErrorKind::IllegalConstruct { .. }
        ));
    }

    #[test]
    fn skips_doctype() {
        let evs = events("<!DOCTYPE note [<!ENTITY x \"y\">]><note/>");
        assert!(matches!(&evs[0], Event::StartElement { name, .. } if name.raw() == "note"));
    }

    #[test]
    fn rejects_unknown_entity_in_text_with_offset() {
        let r: XmlResult<Vec<_>> = Reader::new("<a>xy&bogus;</a>").collect();
        let err = r.unwrap_err();
        assert!(
            matches!(err.kind(), XmlErrorKind::InvalidReference { reference } if reference == "bogus")
        );
    }

    #[test]
    fn rejects_cdata_end_in_text() {
        assert!(matches!(
            err_kind("<a>oops ]]> here</a>"),
            XmlErrorKind::IllegalConstruct { .. }
        ));
    }

    #[test]
    fn rejects_lt_in_attribute_value() {
        assert!(matches!(
            err_kind(r#"<a x="1 < 2"/>"#),
            XmlErrorKind::UnexpectedChar { found: '<', .. }
        ));
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut r = Reader::new("<a><b/></a>");
        assert_eq!(r.depth(), 0);
        r.next_event().unwrap(); // <a>
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // <b/> start
        assert_eq!(r.depth(), 2);
        r.next_event().unwrap(); // synthesized </b>
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // </a>
        assert_eq!(r.depth(), 0);
        assert_eq!(r.next_event().unwrap(), Event::Eof);
        assert_eq!(r.next_event().unwrap(), Event::Eof); // idempotent
    }

    #[test]
    fn prefixed_names_are_split() {
        let evs = events(r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>"#);
        let Event::StartElement {
            name, attributes, ..
        } = &evs[0]
        else {
            panic!()
        };
        assert_eq!(name.prefix(), Some("xs"));
        assert_eq!(name.local(), "schema");
        assert_eq!(attributes[0].name.raw(), "xmlns:xs");
    }

    #[test]
    fn end_tag_allows_trailing_whitespace() {
        let evs = events("<a></a  >");
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn attribute_values_normalize_literal_whitespace() {
        // XML 1.0 §3.3.3: literal tab/newline become spaces; character
        // references for them survive.
        let evs = events("<a x=\"one\ttwo\nthree\" y=\"a&#10;b\"/>");
        let Event::StartElement { attributes, .. } = &evs[0] else {
            panic!()
        };
        assert_eq!(attributes[0].value, "one two three");
        assert_eq!(attributes[1].value, "a\nb");
    }

    #[test]
    fn nesting_depth_is_capped() {
        // A pathologically deep document errors instead of overflowing the
        // recursive DOM builder's stack.
        let deep = "<a>".repeat(MAX_DEPTH + 8) + &"</a>".repeat(MAX_DEPTH + 8);
        let r: XmlResult<Vec<_>> = Reader::new(&deep).collect();
        assert!(matches!(
            r.unwrap_err().kind(),
            XmlErrorKind::LimitExceeded {
                limit: "max_depth",
                ..
            }
        ));
        // Just inside the limit is fine.
        let ok = "<a>".repeat(MAX_DEPTH) + &"</a>".repeat(MAX_DEPTH);
        let r: XmlResult<Vec<_>> = Reader::new(&ok).collect();
        assert!(r.is_ok());
    }

    #[test]
    fn numeric_references_in_text() {
        let evs = events("<a>&#65;&#x42;</a>");
        assert!(evs.iter().any(|e| matches!(e, Event::Text(t) if t == "AB")));
    }

    #[test]
    fn input_size_limit_fires_before_parsing() {
        let limits = IngestLimits {
            max_input_bytes: 8,
            ..IngestLimits::default()
        };
        let r: XmlResult<Vec<_>> = Reader::with_limits("<abcdefgh/>", limits).collect();
        assert!(matches!(
            r.unwrap_err().kind(),
            XmlErrorKind::LimitExceeded {
                limit: "max_input_bytes",
                limit_value: 8,
                actual: 11,
                offset: Some(8),
            }
        ));
        // Exactly at the limit is fine.
        let r: XmlResult<Vec<_>> = Reader::with_limits("<abcde/>", limits).collect();
        assert_eq!(r.unwrap().len(), 2);
    }

    #[test]
    fn attribute_count_is_capped() {
        let limits = IngestLimits {
            max_attributes: 3,
            ..IngestLimits::default()
        };
        let ok = r#"<a x1="1" x2="2" x3="3"/>"#;
        let r: XmlResult<Vec<_>> = Reader::with_limits(ok, limits).collect();
        assert!(r.is_ok());
        let over = r#"<a x1="1" x2="2" x3="3" x4="4"/>"#;
        let r: XmlResult<Vec<_>> = Reader::with_limits(over, limits).collect();
        assert!(matches!(
            r.unwrap_err().kind(),
            XmlErrorKind::LimitExceeded {
                limit: "max_attributes",
                ..
            }
        ));
    }

    #[test]
    fn expansion_budget_counts_decoded_character_data() {
        // Factor 0 forbids decoded character data; factor 1 admits any
        // document this reader can produce (no DTD entities, so decoded
        // output never outgrows the raw input).
        let zero = IngestLimits {
            max_entity_expansion: 0,
            ..IngestLimits::default()
        };
        let r: XmlResult<Vec<_>> = Reader::with_limits("<a>text</a>", zero).collect();
        assert!(matches!(
            r.unwrap_err().kind(),
            XmlErrorKind::LimitExceeded {
                limit: "max_entity_expansion",
                ..
            }
        ));
        let one = IngestLimits {
            max_entity_expansion: 1,
            ..IngestLimits::default()
        };
        let r: XmlResult<Vec<_>> =
            Reader::with_limits("<a x=\"&lt;v&gt;\">&amp;</a>", one).collect();
        assert!(r.is_ok());
    }

    #[test]
    fn custom_depth_limit_overrides_default() {
        let limits = IngestLimits {
            max_depth: 2,
            ..IngestLimits::default()
        };
        let r: XmlResult<Vec<_>> = Reader::with_limits("<a><b/></a>", limits).collect();
        assert!(r.is_ok());
        let r: XmlResult<Vec<_>> = Reader::with_limits("<a><b><c/></b></a>", limits).collect();
        assert!(matches!(
            r.unwrap_err().kind(),
            XmlErrorKind::LimitExceeded {
                limit: "max_depth",
                limit_value: 2,
                actual: 3,
                offset: Some(_),
            }
        ));
    }
}
