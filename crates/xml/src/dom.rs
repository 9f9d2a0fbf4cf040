//! A lightweight document tree built on the pull [`crate::reader::Reader`].
//!
//! The DOM keeps elements, attributes, and merged character data. Comments
//! and processing instructions are dropped — schema processing never needs
//! them. Whitespace-only text between elements is also dropped, which is the
//! standard "element content" treatment for schema documents.
//!
//! A parsed tree borrows from its source text: element and attribute names
//! are slices of it, and so are attribute values and text runs that needed
//! no decoding. A tree built in code (`Element::new` and the builder
//! methods) owns its strings and is `Element<'static>`.

use crate::error::{Position, XmlError, XmlErrorKind, XmlResult};
use crate::escape::{escape_attr, escape_text};
use crate::limits::IngestLimits;
use crate::name::QName;
use crate::reader::{Attribute, Event, Reader};
use std::borrow::Cow;
use std::fmt;

/// An element node: name, attributes, children, and merged text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element<'a> {
    name: QName<'a>,
    attributes: Vec<Attribute<'a>>,
    children: Vec<Node<'a>>,
    position: Position,
}

/// A child of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node<'a> {
    /// A nested element.
    Element(Element<'a>),
    /// A run of character data (entity-decoded; CDATA merged in).
    Text(Cow<'a, str>),
}

/// A parsed document holding the root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document<'a> {
    root: Element<'a>,
}

impl<'a> Document<'a> {
    /// Parses a complete XML document with the default [`IngestLimits`].
    pub fn parse(src: &'a str) -> XmlResult<Document<'a>> {
        Document::parse_with_limits(src, &IngestLimits::default())
    }

    /// Parses a complete XML document enforcing custom [`IngestLimits`]
    /// (`max_nodes` bounds the number of elements materialized in the DOM;
    /// the remaining limits are enforced by the underlying reader).
    pub fn parse_with_limits(src: &'a str, limits: &IngestLimits) -> XmlResult<Document<'a>> {
        let mut reader = Reader::with_limits(src, *limits);
        let mut nodes = 0usize;
        loop {
            match reader.next_event()? {
                Event::StartElement {
                    name,
                    attributes,
                    self_closing,
                    position,
                } => {
                    let root = build_element(
                        &mut reader,
                        limits,
                        &mut nodes,
                        name,
                        attributes,
                        self_closing,
                        position,
                    )?;
                    // Drain trailing misc (comments/PIs/whitespace); the reader
                    // enforces that nothing substantive follows the root.
                    loop {
                        match reader.next_event()? {
                            Event::Eof => return Ok(Document { root }),
                            _ => continue,
                        }
                    }
                }
                Event::Declaration(_)
                | Event::Comment(_)
                | Event::ProcessingInstruction { .. }
                | Event::Text(_) => continue,
                other => {
                    // The reader guarantees we cannot see EndElement/CData here
                    // before a root element, and it raises Eof-without-root
                    // itself — but a typed error beats a panic if that
                    // invariant ever slips (the fuzzer's no-panic oracle
                    // exercises exactly this class of gap).
                    let _ = other;
                    return Err(XmlError::new(
                        XmlErrorKind::BadDocumentStructure {
                            detail: "unexpected content before the root element",
                        },
                        Reader::position(&reader),
                    ));
                }
            }
        }
    }

    /// The root element.
    pub fn root(&self) -> &Element<'a> {
        &self.root
    }

    /// Consumes the document, returning the root element.
    pub fn into_root(self) -> Element<'a> {
        self.root
    }
}

#[allow(clippy::too_many_arguments)]
fn build_element<'a>(
    reader: &mut Reader<'a>,
    limits: &IngestLimits,
    nodes: &mut usize,
    name: QName<'a>,
    attributes: Vec<Attribute<'a>>,
    self_closing: bool,
    position: Position,
) -> XmlResult<Element<'a>> {
    *nodes += 1;
    if *nodes > limits.max_nodes {
        return Err(XmlError::new(
            XmlErrorKind::LimitExceeded {
                limit: "max_nodes",
                limit_value: limits.max_nodes as u64,
                actual: *nodes as u64,
                offset: Some(position.offset),
            },
            position,
        ));
    }
    let mut element = Element {
        name,
        attributes,
        children: Vec::new(),
        position,
    };
    if self_closing {
        // Consume the synthesized end event.
        let ev = reader.next_event()?;
        debug_assert!(matches!(ev, Event::EndElement { .. }));
        return Ok(element);
    }
    loop {
        match reader.next_event()? {
            Event::StartElement {
                name,
                attributes,
                self_closing,
                position,
            } => {
                let child = build_element(
                    reader,
                    limits,
                    nodes,
                    name,
                    attributes,
                    self_closing,
                    position,
                )?;
                element.children.push(Node::Element(child));
            }
            Event::EndElement { .. } => return Ok(element),
            Event::Text(t) => {
                if !t.trim().is_empty() {
                    element.push_text(t);
                }
            }
            Event::CData(t) => element.push_text(Cow::Borrowed(t)),
            Event::Comment(_) | Event::ProcessingInstruction { .. } | Event::Declaration(_) => {}
            // The reader reports EOF inside an element as an error; degrade
            // to a typed error rather than a panic if that ever regresses.
            Event::Eof => {
                return Err(XmlError::new(
                    XmlErrorKind::UnexpectedEof {
                        context: "an unclosed element",
                    },
                    Reader::position(reader),
                ))
            }
        }
    }
}

impl Element<'static> {
    /// Creates an element programmatically (used by tests and generators).
    pub fn new(name: &str) -> Element<'static> {
        let name = QName::parse(name)
            .expect("Element::new requires a valid XML name")
            .into_owned();
        Element {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
            position: Position::START,
        }
    }

    /// Adds or replaces an attribute (builder style).
    pub fn with_attr(mut self, name: &str, value: &str) -> Element<'static> {
        self.set_attr(name, value);
        self
    }

    /// Adds a child element (builder style).
    pub fn with_child(mut self, child: Element<'static>) -> Element<'static> {
        self.add_child(child);
        self
    }

    /// Adds a text child (builder style).
    pub fn with_text(mut self, text: &str) -> Element<'static> {
        self.push_text(Cow::Owned(text.to_owned()));
        self
    }

    /// Adds or replaces an attribute.
    pub fn set_attr(&mut self, name: &str, value: &str) {
        let qname = QName::parse(name).expect("set_attr requires a valid XML name");
        let value = Cow::Owned(value.to_owned());
        if let Some(existing) = self.attributes.iter_mut().find(|a| a.name == qname) {
            existing.value = value;
        } else {
            self.attributes.push(Attribute {
                name: qname.into_owned(),
                value,
                position: Position::START,
            });
        }
    }

    /// Appends a child element.
    pub fn add_child(&mut self, child: Element<'static>) {
        self.children.push(Node::Element(child));
    }
}

impl<'a> Element<'a> {
    /// Appends character data, merging it into a directly preceding text
    /// child (a merged run is owned; a lone run keeps its borrow).
    fn push_text(&mut self, text: Cow<'a, str>) {
        if let Some(Node::Text(existing)) = self.children.last_mut() {
            existing.to_mut().push_str(&text);
        } else {
            self.children.push(Node::Text(text));
        }
    }

    /// The element name.
    pub fn name(&self) -> &QName<'a> {
        &self.name
    }

    /// Source position of the start tag.
    pub fn position(&self) -> Position {
        self.position
    }

    /// All attributes in document order.
    pub fn attributes(&self) -> &[Attribute<'a>] {
        &self.attributes
    }

    /// Looks up an attribute value by raw name (e.g. `minOccurs`).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name.raw() == name)
            .map(|a| a.value.as_ref())
    }

    /// Looks up an attribute value by local name, ignoring any prefix.
    pub fn attr_local(&self, local: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name.local() == local)
            .map(|a| a.value.as_ref())
    }

    /// All child nodes (elements and text).
    pub fn children(&self) -> &[Node<'a>] {
        &self.children
    }

    /// Iterator over child elements only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element<'a>> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// First child element with the given *local* name.
    pub fn child_by_local(&self, local: &str) -> Option<&Element<'a>> {
        self.child_elements().find(|e| e.name.local() == local)
    }

    /// All child elements with the given *local* name.
    pub fn children_by_local<'e>(
        &'e self,
        local: &'e str,
    ) -> impl Iterator<Item = &'e Element<'a>> {
        self.child_elements()
            .filter(move |e| e.name.local() == local)
    }

    /// Concatenated text content of this element (direct text children only).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let Node::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Number of elements in the subtree rooted here (including this one).
    pub fn subtree_size(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::subtree_size)
            .sum::<usize>()
    }

    /// Maximum depth of the subtree; a leaf element has depth 0.
    pub fn subtree_depth(&self) -> usize {
        self.child_elements()
            .map(|c| 1 + c.subtree_depth())
            .max()
            .unwrap_or(0)
    }

    fn write_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        write!(f, "{pad}<{}", self.name)?;
        for attr in &self.attributes {
            write!(f, " {}=\"{}\"", attr.name, escape_attr(&attr.value))?;
        }
        if self.children.is_empty() {
            return writeln!(f, "/>");
        }
        // Text-only elements are rendered inline; mixed/element content nested.
        if self.children.iter().all(|n| matches!(n, Node::Text(_))) {
            return writeln!(f, ">{}</{}>", escape_text(&self.text()), self.name);
        }
        writeln!(f, ">")?;
        for node in &self.children {
            match node {
                Node::Element(e) => e.write_indented(f, indent + 1)?,
                Node::Text(t) => writeln!(f, "{pad}  {}", escape_text(t))?,
            }
        }
        writeln!(f, "{pad}</{}>", self.name)
    }
}

impl fmt::Display for Element<'_> {
    /// Pretty-prints the element as indented XML; round-trips through
    /// [`Document::parse`] for element-content documents.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(f, 0)
    }
}

impl fmt::Display for Document<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PO: &str = r#"<?xml version="1.0"?>
<!-- purchase order -->
<po id="42">
  <line qty="2">bolt</line>
  <line qty="9">nut</line>
  <note><![CDATA[a < b]]></note>
</po>"#;

    #[test]
    fn builds_tree_with_attributes_and_text() {
        let doc = Document::parse(PO).unwrap();
        let root = doc.root();
        assert_eq!(root.name().raw(), "po");
        assert_eq!(root.attr("id"), Some("42"));
        assert_eq!(root.child_elements().count(), 3);
        let lines: Vec<_> = root.children_by_local("line").collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].attr("qty"), Some("2"));
        assert_eq!(lines[0].text(), "bolt");
    }

    #[test]
    fn cdata_becomes_text() {
        let doc = Document::parse(PO).unwrap();
        let note = doc.root().child_by_local("note").unwrap();
        assert_eq!(note.text(), "a < b");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = Document::parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root().children().len(), 1);
    }

    #[test]
    fn adjacent_text_and_cdata_merge() {
        let doc = Document::parse("<a>one <![CDATA[two]]> three</a>").unwrap();
        assert_eq!(doc.root().children().len(), 1);
        assert_eq!(doc.root().text(), "one two three");
    }

    #[test]
    fn subtree_size_and_depth() {
        let doc = Document::parse("<a><b><c/><d/></b><e/></a>").unwrap();
        assert_eq!(doc.root().subtree_size(), 5);
        assert_eq!(doc.root().subtree_depth(), 2);
        let b = doc.root().child_by_local("b").unwrap();
        assert_eq!(b.subtree_depth(), 1);
        let e = doc.root().child_by_local("e").unwrap();
        assert_eq!(e.subtree_depth(), 0);
    }

    #[test]
    fn attr_local_ignores_prefix() {
        let doc = Document::parse(
            r#"<a xsi:type="T" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"/>"#,
        )
        .unwrap();
        assert_eq!(doc.root().attr_local("type"), Some("T"));
        assert_eq!(doc.root().attr("xsi:type"), Some("T"));
        assert_eq!(doc.root().attr("type"), None);
    }

    #[test]
    fn builder_api_constructs_equivalent_trees() {
        let built = Element::new("po")
            .with_attr("id", "42")
            .with_child(Element::new("line").with_attr("qty", "2").with_text("bolt"));
        assert_eq!(built.attr("id"), Some("42"));
        assert_eq!(built.subtree_size(), 2);
        let printed = built.to_string();
        let reparsed = Document::parse(&printed).unwrap();
        assert_eq!(reparsed.root().attr("id"), Some("42"));
        assert_eq!(
            reparsed.root().child_by_local("line").unwrap().text(),
            "bolt"
        );
    }

    #[test]
    fn set_attr_replaces_existing() {
        let mut e = Element::new("x");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attributes().len(), 1);
        assert_eq!(e.attr("k"), Some("2"));
    }

    #[test]
    fn display_round_trips_special_characters() {
        let e = Element::new("t")
            .with_attr("a", "x < \"y\" & z")
            .with_text("1 < 2 & 3");
        let printed = e.to_string();
        let doc = Document::parse(&printed).unwrap();
        assert_eq!(doc.root().attr("a"), Some("x < \"y\" & z"));
        assert_eq!(doc.root().text(), "1 < 2 & 3");
    }

    #[test]
    fn into_root_returns_owned_tree() {
        let doc = Document::parse("<a><b/></a>").unwrap();
        let root = doc.into_root();
        assert_eq!(root.name().raw(), "a");
    }

    #[test]
    fn parse_error_surfaces_from_document() {
        assert!(Document::parse("<a><b></a>").is_err());
        assert!(Document::parse("").is_err());
    }

    #[test]
    fn node_count_limit_bounds_dom_size() {
        let limits = IngestLimits {
            max_nodes: 4,
            ..IngestLimits::default()
        };
        assert!(Document::parse_with_limits("<a><b/><c/><d/></a>", &limits).is_ok());
        let err = Document::parse_with_limits("<a><b/><c/><d/><e/></a>", &limits).unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::LimitExceeded {
                limit: "max_nodes",
                limit_value: 4,
                actual: 5,
                offset: Some(_),
            }
        ));
    }
}
