#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! XML Schema (XSD) object model, parser, and schema-tree compiler.
//!
//! This crate turns an XSD document into the *schema tree* consumed by the
//! QMatch matchers. The pipeline is:
//!
//! ```text
//! &str ──qmatch-xml──► DOM ──parser──► Schema (model) ──resolve──► checked
//!      ──tree──► SchemaTree (label / properties / children / level per node)
//! ```
//!
//! Coverage targets the XSD subset that real-world schema-matching corpora
//! use (and that the paper's schemas need): global and local element
//! declarations, attributes, named and anonymous complex/simple types,
//! `sequence`/`choice`/`all` compositors, occurrence constraints,
//! `restriction` with common facets, element/attribute `ref=`s, and the full
//! set of built-in simple types with a generalization lattice (used for the
//! paper's *relaxed property match*).
//!
//! # Example
//!
//! ```
//! use qmatch_xsd::{parse_schema, SchemaTree};
//!
//! let xsd = r#"
//! <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
//!   <xs:element name="PO">
//!     <xs:complexType>
//!       <xs:sequence>
//!         <xs:element name="OrderNo" type="xs:integer"/>
//!       </xs:sequence>
//!     </xs:complexType>
//!   </xs:element>
//! </xs:schema>"#;
//!
//! let schema = parse_schema(xsd).unwrap();
//! let tree = SchemaTree::compile(&schema).unwrap();
//! assert_eq!(tree.root().label, "PO");
//! assert_eq!(tree.node(tree.root().children[0]).label, "OrderNo");
//! ```

pub mod error;
pub mod model;
pub mod parser;
pub mod profile;
pub mod resolve;
pub mod tree;
pub mod types;
pub mod validate;
pub mod writer;

pub use error::{XsdError, XsdResult};
pub use model::{
    AttributeDecl, AttributeUse, ComplexType, ElementDecl, Facet, MaxOccurs, Particle, Schema,
    SimpleType, TypeDef, TypeRef,
};
pub use parser::{parse_schema, parse_schema_with_limits};
pub use profile::TreeProfile;
pub use qmatch_xml::IngestLimits;
pub use tree::{DataType, NodeId, NodeKind, Properties, SchemaNode, SchemaTree};
pub use types::BuiltinType;
pub use validate::{validate, ValidationError, ValidationReport};
pub use writer::write_schema;
