#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! A from-scratch XML 1.0 parser built for the QMatch reproduction.
//!
//! The crate provides three layers:
//!
//! 1. [`reader::Reader`] — a pull-based event reader (tokenizer + well-formedness
//!    checks) that yields [`reader::Event`]s with precise source positions.
//! 2. [`dom`] — a lightweight owned document tree built on top of the reader,
//!    which is what the XSD layer consumes.
//! 3. Supporting utilities: [`name::QName`] handling, entity
//!    [`escape`]/unescape, and positioned [`error::XmlError`]s.
//!
//! The parser intentionally covers the subset of XML needed to read real-world
//! XML Schema documents: elements, attributes, namespaces (syntactic
//! prefix/local splitting), character data, CDATA sections, comments,
//! processing instructions, the XML declaration, and the five predefined
//! entities plus numeric character references. DTDs are recognized and
//! skipped; external entities are not supported (they are never needed for
//! schema documents and are a security liability).
//!
//! # Example
//!
//! ```
//! use qmatch_xml::dom::Document;
//!
//! let doc = Document::parse(r#"<po id="1"><line qty="2">widget</line></po>"#).unwrap();
//! let root = doc.root();
//! assert_eq!(root.name().local(), "po");
//! assert_eq!(root.attr("id"), Some("1"));
//! let line = root.child_elements().next().unwrap();
//! assert_eq!(line.text(), "widget");
//! ```

pub mod dom;
pub mod error;
pub mod escape;
mod input;
pub mod limits;
pub mod name;
pub mod reader;

pub use dom::{Document, Element};
pub use error::{XmlError, XmlErrorKind, XmlResult};
pub use limits::IngestLimits;
pub use name::QName;
pub use reader::{Attribute, Event, Reader};
