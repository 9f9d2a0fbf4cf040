//! The schema tree: the representation the QMatch algorithms consume.
//!
//! Section 2.1 of the paper classifies each schema element along four axes —
//! label **L**, properties **P**, children **C**, and nesting level **H**.
//! [`SchemaTree::compile`] flattens a parsed [`Schema`] into an arena of
//! [`SchemaNode`]s carrying exactly those four axes: sub-elements and
//! attributes become children, compositors are flattened in document order
//! (recording the paper's `order` property), named types are expanded at
//! their use sites, and simple-type derivation chains are resolved to their
//! built-in base so the matchers can use the type lattice.

use crate::error::{XsdError, XsdResult};
use crate::model::{
    AttributeDecl, AttributeUse, ComplexType, ElementDecl, MaxOccurs, Particle, Schema, SimpleType,
    TypeDef, TypeRef,
};
use crate::types::BuiltinType;
use qmatch_xml::IngestLimits;
use std::fmt;
use std::sync::Arc;

/// Index of a node within its [`SchemaTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether a node came from an element or an attribute declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An XML element.
    Element,
    /// An XML attribute.
    Attribute,
}

/// The resolved data type of a node — the `type` entry of the paper's
/// properties axis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataType {
    /// A built-in simple type (possibly reached through restriction steps).
    Builtin(BuiltinType),
    /// A complex type; carries the declared name when the type was named.
    Complex(Option<String>),
}

impl DataType {
    /// The built-in simple type, if this is one.
    pub fn builtin(&self) -> Option<BuiltinType> {
        match self {
            DataType::Builtin(b) => Some(*b),
            DataType::Complex(_) => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Builtin(b) => write!(f, "{b}"),
            DataType::Complex(Some(name)) => write!(f, "complex:{name}"),
            DataType::Complex(None) => f.write_str("complex"),
        }
    }
}

/// The atomic properties of a node (the paper's **P** axis).
///
/// `Hash` (consistent with the derived `Eq`) lets consumers deduplicate
/// identical property profiles — the matchers score properties as a pure
/// function of the two profiles, so equal profiles always score equally.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Properties {
    /// Resolved data type.
    pub data_type: DataType,
    /// 1-based position among the parent's children (document order);
    /// 1 for a root.
    pub order: u32,
    /// Effective `minOccurs` (for attributes: 1 if required, else 0).
    pub min_occurs: u32,
    /// Effective `maxOccurs` (always 1 for attributes).
    pub max_occurs: MaxOccurs,
    /// `nillable` flag (elements only).
    pub nillable: bool,
    /// Declared default value.
    pub default: Option<String>,
    /// Declared fixed value.
    pub fixed: Option<String>,
}

impl Default for Properties {
    fn default() -> Self {
        Properties {
            data_type: DataType::Complex(None),
            order: 1,
            min_occurs: 1,
            max_occurs: MaxOccurs::Bounded(1),
            nillable: false,
            default: None,
            fixed: None,
        }
    }
}

/// One node of the schema tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaNode {
    /// The element/attribute name (the paper's **L** axis).
    pub label: String,
    /// Element or attribute.
    pub kind: NodeKind,
    /// The paper's **P** axis.
    pub properties: Properties,
    /// Depth from the root (root = 0) — the paper's **H** axis.
    pub level: u32,
    /// Parent node, if any.
    pub parent: Option<NodeId>,
    /// Children in document order (sub-elements first, then attributes) —
    /// the paper's **C** axis.
    pub children: Vec<NodeId>,
}

impl SchemaNode {
    /// True if the node has no children (paper: "leaf elements, that is
    /// elements with no children").
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An arena-allocated schema tree rooted at a global element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaTree {
    name: String,
    nodes: Vec<SchemaNode>,
}

impl SchemaTree {
    /// Compiles the first global element declaration of `schema`.
    pub fn compile(schema: &Schema) -> XsdResult<SchemaTree> {
        Self::compile_with_limits(schema, &IngestLimits::default())
    }

    /// Like [`SchemaTree::compile`], with explicit [`IngestLimits`].
    ///
    /// Named-type expansion can multiply a small schema document into a huge
    /// compiled tree (the schema-level analog of an entity-expansion bomb),
    /// so `max_nodes` and `max_depth` are enforced here as well as during
    /// XML parsing.
    pub fn compile_with_limits(schema: &Schema, limits: &IngestLimits) -> XsdResult<SchemaTree> {
        let root = schema.elements.first().ok_or(XsdError::NoRootElement)?;
        let name = root.name.clone();
        Self::compile_element_with_limits(schema, &name, limits)
    }

    /// Compiles the global element named `root_name`.
    pub fn compile_element(schema: &Schema, root_name: &str) -> XsdResult<SchemaTree> {
        Self::compile_element_with_limits(schema, root_name, &IngestLimits::default())
    }

    /// Like [`SchemaTree::compile_element`], with explicit [`IngestLimits`].
    pub fn compile_element_with_limits(
        schema: &Schema,
        root_name: &str,
        limits: &IngestLimits,
    ) -> XsdResult<SchemaTree> {
        let root = schema
            .element_by_name(root_name)
            .ok_or_else(|| XsdError::UnresolvedRef {
                name: root_name.to_owned(),
            })?;
        let mut builder = TreeBuilder {
            schema,
            limits: *limits,
            nodes: Vec::new(),
            named_on_path: Vec::new(),
        };
        builder.add_element(root, None, 1, 0)?;
        Ok(SchemaTree {
            name: root.name.clone(),
            nodes: builder.nodes,
        })
    }

    /// Builds a tree directly from `(label, parent)` pairs — used for
    /// illustration schemas given as plain trees (the paper's Figures 7/8)
    /// and by tests. The first entry is the root and must have `parent ==
    /// None`; every other entry's parent must precede it.
    ///
    /// # Panics
    /// Panics if the parent ordering invariant is violated.
    pub fn from_labels(name: &str, entries: &[(&str, Option<usize>)]) -> SchemaTree {
        let typed: Vec<(&str, Option<usize>, DataType)> = entries
            .iter()
            .map(|(label, parent)| (*label, *parent, DataType::Builtin(BuiltinType::String)))
            .collect();
        Self::from_labels_typed(name, &typed)
    }

    /// Like [`SchemaTree::from_labels`], but with an explicit data type per
    /// node (used where an illustration schema's property axis matters —
    /// the paper's Figure 2 assumes `OrderNo` is an integer, for example).
    /// Internal nodes are normalized to complex content regardless of the
    /// supplied type.
    ///
    /// # Panics
    /// Panics if the parent ordering invariant is violated.
    pub fn from_labels_typed(
        name: &str,
        entries: &[(&str, Option<usize>, DataType)],
    ) -> SchemaTree {
        let mut nodes: Vec<SchemaNode> = Vec::with_capacity(entries.len());
        for (i, (label, parent, data_type)) in entries.iter().enumerate() {
            let (level, parent_id) = match parent {
                None => {
                    assert_eq!(i, 0, "only the first entry may be the root");
                    (0, None)
                }
                Some(p) => {
                    assert!(*p < i, "parent {p} must precede child {i}");
                    (nodes[*p].level + 1, Some(NodeId(*p as u32)))
                }
            };
            let order = match parent_id {
                Some(pid) => nodes[pid.index()].children.len() as u32 + 1,
                None => 1,
            };
            nodes.push(SchemaNode {
                label: (*label).to_owned(),
                kind: NodeKind::Element,
                properties: Properties {
                    data_type: data_type.clone(),
                    order,
                    ..Properties::default()
                },
                level,
                parent: parent_id,
                children: Vec::new(),
            });
            if let Some(pid) = parent_id {
                let id = NodeId((nodes.len() - 1) as u32);
                nodes[pid.index()].children.push(id);
            }
        }
        assert!(!nodes.is_empty(), "a tree needs at least a root");
        // Internal nodes carry complex content, matching what compiling an
        // equivalent XSD would produce; only leaves keep the string type.
        for node in &mut nodes {
            if !node.children.is_empty() {
                node.properties.data_type = DataType::Complex(None);
            }
        }
        SchemaTree {
            name: name.to_owned(),
            nodes,
        }
    }

    /// The tree's name (the root element's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root node.
    pub fn root(&self) -> &SchemaNode {
        &self.nodes[0]
    }

    /// The root's id.
    pub fn root_id(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrows a node by id.
    pub fn node(&self, id: NodeId) -> &SchemaNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes in the tree (elements + attributes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree is empty (never: compilation requires a root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of element nodes only (Table 1 counts elements).
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Element)
            .count()
    }

    /// Maximum node level (Table 1's "max depth").
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Per-node nesting levels as a dense table indexed by
    /// [`NodeId::index`]. Matchers that are called repeatedly on the same
    /// tree extract this once instead of chasing node references per pair.
    pub fn levels(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.level).collect()
    }

    /// Per-node leaf flags as a dense table indexed by [`NodeId::index`]
    /// (the leaf/internal partition of the tree).
    pub fn leaf_flags(&self) -> Vec<bool> {
        self.nodes.iter().map(SchemaNode::is_leaf).collect()
    }

    /// Iterates over `(id, node)` pairs in pre-order (the arena is built in
    /// pre-order, so this is index order).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SchemaNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All ids in the subtree rooted at `id`, pre-order.
    pub fn subtree_ids(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            out.push(cur);
            // Push in reverse so children pop in document order.
            for &c in self.node(cur).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.subtree_ids(id).len()
    }

    /// Finds the first node (pre-order) with the given label.
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.iter()
            .find(|(_, n)| n.label == label)
            .map(|(id, _)| id)
    }

    /// Finds the node at a slash-joined label path (e.g. `PO/Lines/Item`),
    /// the same representation gold standards and mappings use.
    pub fn find_by_path(&self, path: &str) -> Option<NodeId> {
        let mut segments = path.split('/');
        let root_label = segments.next()?;
        if self.root().label != root_label {
            return None;
        }
        let mut current = self.root_id();
        for segment in segments {
            current = *self
                .node(current)
                .children
                .iter()
                .find(|&&c| self.node(c).label == segment)?;
        }
        Some(current)
    }

    /// The path of labels from the root to `id`, inclusive.
    pub fn path_labels(&self, id: NodeId) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let node = self.node(c);
            out.push(node.label.as_str());
            cur = node.parent;
        }
        out.reverse();
        out
    }
}

/// Copies a borrowed tree into a fresh shared allocation, so APIs that keep
/// a tree alive (`MatchSession::prepare` in `qmatch-core`) also accept
/// `&SchemaTree`. Callers that already hold an `Arc` should pass it instead.
impl From<&SchemaTree> for Arc<SchemaTree> {
    fn from(tree: &SchemaTree) -> Arc<SchemaTree> {
        Arc::new(tree.clone())
    }
}

/// Recursive tree construction with a named-type cycle guard.
struct TreeBuilder<'s> {
    schema: &'s Schema,
    limits: IngestLimits,
    nodes: Vec<SchemaNode>,
    /// Named types currently being expanded on this path (cycle guard).
    named_on_path: Vec<&'s str>,
}

impl<'s> TreeBuilder<'s> {
    fn push_node(&mut self, node: SchemaNode) -> XsdResult<NodeId> {
        if self.nodes.len() >= self.limits.max_nodes {
            return Err(XsdError::LimitExceeded {
                limit: "max_nodes",
                limit_value: self.limits.max_nodes as u64,
                actual: self.nodes.len() as u64 + 1,
                offset: None,
            });
        }
        if node.level as usize > self.limits.max_depth {
            return Err(XsdError::LimitExceeded {
                limit: "max_depth",
                limit_value: self.limits.max_depth as u64,
                actual: node.level as u64,
                offset: None,
            });
        }
        let id = NodeId(self.nodes.len() as u32);
        if let Some(parent) = node.parent {
            self.nodes[parent.index()].children.push(id);
        }
        self.nodes.push(node);
        Ok(id)
    }

    fn add_element(
        &mut self,
        decl: &'s ElementDecl,
        parent: Option<NodeId>,
        order: u32,
        level: u32,
    ) -> XsdResult<NodeId> {
        // Follow a ref to the global declaration for type information, but
        // keep the occurrence constraints written at the use site.
        let target: &ElementDecl = match &decl.reference {
            Some(name) => self
                .schema
                .element_by_name(name)
                .ok_or_else(|| XsdError::UnresolvedRef { name: name.clone() })?,
            None => decl,
        };
        let (data_type, expand) = self.resolve_type(&target.type_ref)?;
        let id = self.push_node(SchemaNode {
            label: target.name.clone(),
            kind: NodeKind::Element,
            properties: Properties {
                data_type,
                order,
                min_occurs: decl.min_occurs,
                max_occurs: decl.max_occurs,
                nillable: target.nillable,
                default: target.default.clone(),
                fixed: target.fixed.clone(),
            },
            level,
            parent,
            children: Vec::new(),
        })?;
        if let Some((complex, guard_name)) = expand {
            if let Some(name) = guard_name {
                self.named_on_path.push(name);
            }
            self.add_complex_children(complex, id, level + 1)?;
            if guard_name.is_some() {
                self.named_on_path.pop();
            }
        }
        Ok(id)
    }

    /// Resolves a type reference to the node's [`DataType`] and, for complex
    /// types that should be expanded, the type to expand plus an optional
    /// cycle-guard name. Recursive named types are *not* re-expanded.
    #[allow(clippy::type_complexity)]
    fn resolve_type(
        &self,
        type_ref: &'s TypeRef,
    ) -> XsdResult<(DataType, Option<(&'s ComplexType, Option<&'s str>)>)> {
        match type_ref {
            TypeRef::Builtin(b) => Ok((DataType::Builtin(*b), None)),
            TypeRef::Unspecified => Ok((DataType::Builtin(BuiltinType::AnyType), None)),
            TypeRef::Inline(def) => self.resolve_typedef(def, None),
            TypeRef::Named(name) => {
                let def = self
                    .schema
                    .type_by_name(name)
                    .ok_or_else(|| XsdError::UnresolvedType { name: name.clone() })?;
                if self.named_on_path.contains(&name.as_str()) {
                    // Recursive use: keep the type name, stop expansion.
                    return Ok((DataType::Complex(Some(name.clone())), None));
                }
                let (dt, expand) = self.resolve_typedef(def, Some(name))?;
                Ok((dt, expand))
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn resolve_typedef(
        &self,
        def: &'s TypeDef,
        name: Option<&'s String>,
    ) -> XsdResult<(DataType, Option<(&'s ComplexType, Option<&'s str>)>)> {
        match def {
            TypeDef::Complex(ct) => {
                let dt = if let Some(base) = &ct.simple_base {
                    // simpleContent: the element's value type is the base.
                    self.resolve_simple_ref(base)?
                } else {
                    DataType::Complex(name.cloned())
                };
                Ok((dt, Some((ct, name.map(|n| n.as_str())))))
            }
            TypeDef::Simple(st) => Ok((self.resolve_simple(st)?, None)),
        }
    }

    /// Resolves a simple type to its built-in base (restrictions narrow, so
    /// the base is the nearest generalization; lists/unions collapse to
    /// `anySimpleType` as an honest upper bound).
    fn resolve_simple(&self, st: &SimpleType) -> XsdResult<DataType> {
        match st {
            SimpleType::Restriction { base, .. } => self.resolve_simple_ref(base),
            SimpleType::List { .. } | SimpleType::Union { .. } => {
                Ok(DataType::Builtin(BuiltinType::AnySimpleType))
            }
        }
    }

    fn resolve_simple_ref(&self, type_ref: &TypeRef) -> XsdResult<DataType> {
        match type_ref {
            TypeRef::Builtin(b) => Ok(DataType::Builtin(*b)),
            TypeRef::Unspecified => Ok(DataType::Builtin(BuiltinType::AnySimpleType)),
            TypeRef::Named(name) => {
                match self
                    .schema
                    .type_by_name(name)
                    .ok_or_else(|| XsdError::UnresolvedType { name: name.clone() })?
                {
                    TypeDef::Simple(st) => self.resolve_simple(st),
                    TypeDef::Complex(_) => Ok(DataType::Complex(Some(name.clone()))),
                }
            }
            TypeRef::Inline(def) => match def.as_ref() {
                TypeDef::Simple(st) => self.resolve_simple(st),
                TypeDef::Complex(_) => Ok(DataType::Complex(None)),
            },
        }
    }

    fn add_complex_children(
        &mut self,
        ct: &'s ComplexType,
        parent: NodeId,
        level: u32,
    ) -> XsdResult<()> {
        // Inherited members (complexContent extension) come first, exactly
        // as the effective content model orders them.
        let (particles, attributes, groups) = crate::resolve::effective_complex(self.schema, ct)?;
        let mut order = 1;
        for content in particles {
            let mut decls = Vec::new();
            self.collect_particle_elements(content, &mut Vec::new(), &mut decls)?;
            for decl in decls {
                self.add_element(decl, Some(parent), order, level)?;
                order += 1;
            }
        }
        for attr in attributes {
            if self.add_attribute(attr, parent, order, level)?.is_some() {
                order += 1;
            }
        }
        for group in groups {
            let attrs = self.schema.attribute_group_by_name(group).ok_or_else(|| {
                XsdError::UnresolvedRef {
                    name: group.to_owned(),
                }
            })?;
            for attr in attrs {
                if self.add_attribute(attr, parent, order, level)?.is_some() {
                    order += 1;
                }
            }
        }
        Ok(())
    }

    /// Collects element declarations from a particle in document order,
    /// splicing in named model groups at their reference sites. Recursive
    /// group references are an error (the instance set would be infinite).
    fn collect_particle_elements(
        &self,
        particle: &'s Particle,
        groups_on_path: &mut Vec<&'s str>,
        out: &mut Vec<&'s ElementDecl>,
    ) -> XsdResult<()> {
        match particle {
            Particle::Sequence { items, .. }
            | Particle::Choice { items, .. }
            | Particle::All { items, .. } => {
                for item in items {
                    self.collect_particle_elements(item, groups_on_path, out)?;
                }
                Ok(())
            }
            Particle::Element(decl) => {
                out.push(decl);
                Ok(())
            }
            Particle::GroupRef { name, .. } => {
                if groups_on_path.iter().any(|g| g == name) {
                    return Err(XsdError::invalid(
                        format!("model group {name:?} references itself"),
                        None,
                    ));
                }
                let body = self
                    .schema
                    .group_by_name(name)
                    .ok_or_else(|| XsdError::UnresolvedRef { name: name.clone() })?;
                groups_on_path.push(name);
                self.collect_particle_elements(body, groups_on_path, out)?;
                groups_on_path.pop();
                Ok(())
            }
        }
    }

    fn add_attribute(
        &mut self,
        decl: &'s AttributeDecl,
        parent: NodeId,
        order: u32,
        level: u32,
    ) -> XsdResult<Option<NodeId>> {
        // `use=` is a use-site property; a prohibited attribute never appears
        // in instances, and the paper's children axis counts present members
        // only, so it produces no node.
        if decl.required == AttributeUse::Prohibited {
            return Ok(None);
        }
        let target: &AttributeDecl = match &decl.reference {
            Some(name) => self
                .schema
                .attribute_by_name(name)
                .ok_or_else(|| XsdError::UnresolvedRef { name: name.clone() })?,
            None => decl,
        };
        let data_type = self.resolve_simple_ref(&target.type_ref)?;
        let min_occurs = match decl.required {
            AttributeUse::Required => 1,
            AttributeUse::Optional | AttributeUse::Prohibited => 0,
        };
        Ok(Some(self.push_node(SchemaNode {
            label: target.name.clone(),
            kind: NodeKind::Attribute,
            properties: Properties {
                data_type,
                order,
                min_occurs,
                max_occurs: MaxOccurs::Bounded(1),
                nillable: false,
                default: target.default.clone(),
                fixed: target.fixed.clone(),
            },
            level,
            parent: Some(parent),
            children: Vec::new(),
        })?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_schema;

    const PO: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="OrderNo" type="xs:integer"/>
        <xs:element name="Lines">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="Item" type="xs:string"/>
              <xs:element name="Quantity" type="Qty"/>
            </xs:sequence>
            <xs:attribute name="count" type="xs:int" use="required"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
      <xs:attribute name="currency" type="xs:string"/>
    </xs:complexType>
  </xs:element>
  <xs:simpleType name="Qty">
    <xs:restriction base="xs:positiveInteger"><xs:maxInclusive value="99"/></xs:restriction>
  </xs:simpleType>
</xs:schema>"#;

    fn po_tree() -> SchemaTree {
        SchemaTree::compile(&parse_schema(PO).unwrap()).unwrap()
    }

    #[test]
    fn compiles_nested_structure_with_levels() {
        let t = po_tree();
        assert_eq!(t.name(), "PO");
        assert_eq!(t.root().label, "PO");
        assert_eq!(t.root().level, 0);
        assert_eq!(t.len(), 7); // PO, OrderNo, Lines, Item, Quantity, count, currency
        assert_eq!(t.element_count(), 5);
        assert_eq!(t.max_depth(), 2);
        let lines = t.node(t.find_by_label("Lines").unwrap());
        assert_eq!(lines.level, 1);
        assert_eq!(lines.children.len(), 3); // Item, Quantity, count
        let item = t.node(t.find_by_label("Item").unwrap());
        assert_eq!(item.level, 2);
        assert!(item.is_leaf());
    }

    #[test]
    fn dense_level_and_leaf_tables_mirror_the_nodes() {
        let t = po_tree();
        let levels = t.levels();
        let leaves = t.leaf_flags();
        assert_eq!(levels.len(), t.len());
        assert_eq!(leaves.len(), t.len());
        for (id, node) in t.iter() {
            assert_eq!(levels[id.index()], node.level);
            assert_eq!(leaves[id.index()], node.is_leaf());
        }
        assert_eq!(levels[0], 0); // root
        assert_eq!(leaves.iter().filter(|l| **l).count(), 5); // OrderNo, Item, Quantity, count, currency
    }

    #[test]
    fn order_property_counts_document_position() {
        let t = po_tree();
        let order_no = t.node(t.find_by_label("OrderNo").unwrap());
        assert_eq!(order_no.properties.order, 1);
        let lines = t.node(t.find_by_label("Lines").unwrap());
        assert_eq!(lines.properties.order, 2);
        let currency = t.node(t.find_by_label("currency").unwrap());
        assert_eq!(currency.properties.order, 3); // after the two elements
    }

    #[test]
    fn attributes_become_children_with_occurrence_semantics() {
        let t = po_tree();
        let count = t.node(t.find_by_label("count").unwrap());
        assert_eq!(count.kind, NodeKind::Attribute);
        assert_eq!(count.properties.min_occurs, 1); // required
        assert_eq!(count.properties.max_occurs, MaxOccurs::Bounded(1));
        let currency = t.node(t.find_by_label("currency").unwrap());
        assert_eq!(currency.properties.min_occurs, 0); // optional
    }

    #[test]
    fn simple_type_chains_resolve_to_builtin_base() {
        let t = po_tree();
        let qty = t.node(t.find_by_label("Quantity").unwrap());
        assert_eq!(
            qty.properties.data_type,
            DataType::Builtin(BuiltinType::PositiveInteger)
        );
    }

    #[test]
    fn complex_nodes_record_type_name() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:complexType name="Addr"><xs:sequence>
            <xs:element name="street" type="xs:string"/>
          </xs:sequence></xs:complexType>
          <xs:element name="shipTo" type="Addr"/>
        </xs:schema>"#;
        let t = SchemaTree::compile(&parse_schema(src).unwrap()).unwrap();
        assert_eq!(
            t.root().properties.data_type,
            DataType::Complex(Some("Addr".into()))
        );
        assert_eq!(t.node(t.root().children[0]).label, "street");
    }

    #[test]
    fn recursive_types_stop_expanding() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:complexType name="Node"><xs:sequence>
            <xs:element name="value" type="xs:string"/>
            <xs:element name="child" type="Node" minOccurs="0"/>
          </xs:sequence></xs:complexType>
          <xs:element name="tree" type="Node"/>
        </xs:schema>"#;
        let t = SchemaTree::compile(&parse_schema(src).unwrap()).unwrap();
        // tree -> {value, child}; child is not expanded further.
        assert_eq!(t.len(), 3);
        let child = t.node(t.find_by_label("child").unwrap());
        assert!(child.is_leaf());
        assert_eq!(
            child.properties.data_type,
            DataType::Complex(Some("Node".into()))
        );
    }

    #[test]
    fn element_ref_takes_use_site_occurs_and_target_type() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:element name="item" type="xs:string" nillable="true"/>
          <xs:element name="list"><xs:complexType><xs:sequence>
            <xs:element ref="item" minOccurs="2" maxOccurs="5"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let s = parse_schema(src).unwrap();
        let t = SchemaTree::compile_element(&s, "list").unwrap();
        let item = t.node(t.find_by_label("item").unwrap());
        assert_eq!(item.properties.min_occurs, 2);
        assert_eq!(item.properties.max_occurs, MaxOccurs::Bounded(5));
        assert!(item.properties.nillable); // from the global target
        assert_eq!(
            item.properties.data_type,
            DataType::Builtin(BuiltinType::String)
        );
    }

    #[test]
    fn compile_uses_first_global_element_and_named_lookup() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:element name="first" type="xs:string"/>
          <xs:element name="second" type="xs:int"/>
        </xs:schema>"#;
        let s = parse_schema(src).unwrap();
        assert_eq!(SchemaTree::compile(&s).unwrap().name(), "first");
        assert_eq!(
            SchemaTree::compile_element(&s, "second").unwrap().name(),
            "second"
        );
        assert!(matches!(
            SchemaTree::compile_element(&s, "third"),
            Err(XsdError::UnresolvedRef { .. })
        ));
    }

    #[test]
    fn empty_schema_has_no_root() {
        let s = parse_schema(r#"<xs:schema xmlns:xs="x"/>"#).unwrap();
        assert!(matches!(
            SchemaTree::compile(&s),
            Err(XsdError::NoRootElement)
        ));
    }

    #[test]
    fn from_labels_builds_figure7_library() {
        // Paper Figure 7.
        let t = SchemaTree::from_labels(
            "Library",
            &[
                ("Library", None),
                ("Title", Some(0)),
                ("Book", Some(0)),
                ("number", Some(2)),
                ("character", Some(2)),
                ("Writer", Some(2)),
            ],
        );
        assert_eq!(t.len(), 6);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.root().children.len(), 2);
        let book = t.node(t.find_by_label("Book").unwrap());
        assert_eq!(book.children.len(), 3);
        assert_eq!(t.node(book.children[2]).properties.order, 3);
    }

    #[test]
    fn subtree_ids_are_preorder() {
        let t = po_tree();
        let lines = t.find_by_label("Lines").unwrap();
        let labels: Vec<_> = t
            .subtree_ids(lines)
            .iter()
            .map(|&id| t.node(id).label.as_str())
            .collect();
        assert_eq!(labels, ["Lines", "Item", "Quantity", "count"]);
        assert_eq!(t.subtree_size(lines), 4);
        assert_eq!(t.subtree_size(t.root_id()), t.len());
    }

    #[test]
    fn find_by_path_resolves_and_rejects() {
        let t = po_tree();
        assert_eq!(t.find_by_path("PO"), Some(t.root_id()));
        let item = t.find_by_path("PO/Lines/Item").unwrap();
        assert_eq!(t.node(item).label, "Item");
        assert_eq!(t.path_labels(item).join("/"), "PO/Lines/Item");
        assert!(t.find_by_path("PO/Lines/Nope").is_none());
        assert!(t.find_by_path("Wrong/Lines/Item").is_none());
        assert!(t.find_by_path("").is_none());
        // Every node's own path resolves back to it.
        for (id, _) in t.iter() {
            assert_eq!(t.find_by_path(&t.path_labels(id).join("/")), Some(id));
        }
    }

    #[test]
    fn path_labels_walks_to_root() {
        let t = po_tree();
        let item = t.find_by_label("Item").unwrap();
        assert_eq!(t.path_labels(item), ["PO", "Lines", "Item"]);
        assert_eq!(t.path_labels(t.root_id()), ["PO"]);
    }

    #[test]
    fn unspecified_type_is_any_type() {
        let src = r#"<xs:schema xmlns:xs="x"><xs:element name="a"/></xs:schema>"#;
        let t = SchemaTree::compile(&parse_schema(src).unwrap()).unwrap();
        assert_eq!(
            t.root().properties.data_type,
            DataType::Builtin(BuiltinType::AnyType)
        );
    }

    #[test]
    fn node_limit_bounds_named_type_expansion() {
        // Five levels of named types, 4 children each: 1 + 4 + 16 + 64 +
        // 256 + 1024 = 1365 compiled nodes from a ~2 KB document — the
        // schema-level analog of an entity-expansion bomb.
        let mut src = String::from(r#"<xs:schema xmlns:xs="x">"#);
        src.push_str(r#"<xs:complexType name="T0"><xs:sequence>"#);
        for i in 0..4 {
            src.push_str(&format!(r#"<xs:element name="leaf{i}" type="xs:string"/>"#));
        }
        src.push_str("</xs:sequence></xs:complexType>");
        for level in 1..5 {
            src.push_str(&format!(r#"<xs:complexType name="T{level}"><xs:sequence>"#));
            for i in 0..4 {
                src.push_str(&format!(
                    r#"<xs:element name="n{level}_{i}" type="T{}"/>"#,
                    level - 1
                ));
            }
            src.push_str("</xs:sequence></xs:complexType>");
        }
        src.push_str(r#"<xs:element name="root" type="T4"/></xs:schema>"#);
        let schema = parse_schema(&src).unwrap();

        // Unrestricted compilation materializes the full expansion.
        let full = SchemaTree::compile(&schema).unwrap();
        assert_eq!(full.len(), 1365);

        // A node cap turns the bomb into a typed error.
        let limits = IngestLimits {
            max_nodes: 100,
            ..IngestLimits::default()
        };
        assert!(matches!(
            SchemaTree::compile_with_limits(&schema, &limits),
            Err(XsdError::LimitExceeded {
                limit: "max_nodes",
                limit_value: 100,
                ..
            })
        ));
        // Exactly enough room compiles.
        let roomy = IngestLimits {
            max_nodes: 1365,
            ..IngestLimits::default()
        };
        assert!(SchemaTree::compile_with_limits(&schema, &roomy).is_ok());
    }

    #[test]
    fn depth_limit_bounds_named_type_chains() {
        // A chain of named types nests one level per type without any
        // recursion the cycle guard would catch.
        let mut src = String::from(r#"<xs:schema xmlns:xs="x">"#);
        src.push_str(r#"<xs:complexType name="D0"><xs:sequence><xs:element name="leaf" type="xs:string"/></xs:sequence></xs:complexType>"#);
        for level in 1..8 {
            src.push_str(&format!(
                r#"<xs:complexType name="D{level}"><xs:sequence><xs:element name="c{level}" type="D{}"/></xs:sequence></xs:complexType>"#,
                level - 1
            ));
        }
        src.push_str(r#"<xs:element name="root" type="D7"/></xs:schema>"#);
        let schema = parse_schema(&src).unwrap();
        // root(0) c7(1) c6(2) ... c1(7) leaf(8): depth 8.
        let tight = IngestLimits {
            max_depth: 7,
            ..IngestLimits::default()
        };
        assert!(matches!(
            SchemaTree::compile_with_limits(&schema, &tight),
            Err(XsdError::LimitExceeded {
                limit: "max_depth",
                limit_value: 7,
                actual: 8,
                offset: None,
            })
        ));
        let enough = IngestLimits {
            max_depth: 8,
            ..IngestLimits::default()
        };
        let t = SchemaTree::compile_with_limits(&schema, &enough).unwrap();
        assert_eq!(t.max_depth(), 8);
    }

    #[test]
    fn list_and_union_collapse_to_any_simple_type() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:simpleType name="L"><xs:list itemType="xs:int"/></xs:simpleType>
          <xs:element name="a" type="L"/>
        </xs:schema>"#;
        let t = SchemaTree::compile(&parse_schema(src).unwrap()).unwrap();
        assert_eq!(
            t.root().properties.data_type,
            DataType::Builtin(BuiltinType::AnySimpleType)
        );
    }
}

#[cfg(test)]
mod group_tests {
    use super::*;
    use crate::parser::parse_schema;

    const GROUPED: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:group name="AddressFields">
        <xs:sequence>
          <xs:element name="Street" type="xs:string"/>
          <xs:element name="City" type="xs:string"/>
        </xs:sequence>
      </xs:group>
      <xs:attributeGroup name="Audit">
        <xs:attribute name="createdBy" type="xs:string" use="required"/>
        <xs:attribute name="createdOn" type="xs:date"/>
      </xs:attributeGroup>
      <xs:element name="Customer">
        <xs:complexType>
          <xs:sequence>
            <xs:element name="Name" type="xs:string"/>
            <xs:group ref="AddressFields"/>
            <xs:element name="Phone" type="xs:string" minOccurs="0"/>
          </xs:sequence>
          <xs:attributeGroup ref="Audit"/>
        </xs:complexType>
      </xs:element>
    </xs:schema>"#;

    #[test]
    fn model_groups_splice_into_document_order() {
        let tree = SchemaTree::compile(&parse_schema(GROUPED).unwrap()).unwrap();
        let labels: Vec<&str> = tree
            .root()
            .children
            .iter()
            .map(|&c| tree.node(c).label.as_str())
            .collect();
        assert_eq!(
            labels,
            ["Name", "Street", "City", "Phone", "createdBy", "createdOn"]
        );
        // Order numbers follow the spliced sequence.
        for (i, &c) in tree.root().children.iter().enumerate() {
            assert_eq!(tree.node(c).properties.order, i as u32 + 1);
        }
    }

    #[test]
    fn attribute_groups_expand_with_use_semantics() {
        let tree = SchemaTree::compile(&parse_schema(GROUPED).unwrap()).unwrap();
        let created_by = tree.node(tree.find_by_label("createdBy").unwrap());
        assert_eq!(created_by.kind, NodeKind::Attribute);
        assert_eq!(created_by.properties.min_occurs, 1);
        let created_on = tree.node(tree.find_by_label("createdOn").unwrap());
        assert_eq!(created_on.properties.min_occurs, 0);
        assert_eq!(
            created_on.properties.data_type,
            DataType::Builtin(BuiltinType::Date)
        );
    }

    #[test]
    fn unresolved_group_refs_are_rejected() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:element name="a"><xs:complexType><xs:sequence>
            <xs:group ref="Ghost"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        assert!(matches!(
            parse_schema(src),
            Err(XsdError::UnresolvedRef { name }) if name == "Ghost"
        ));
        let src2 = r#"<xs:schema xmlns:xs="x">
          <xs:element name="a"><xs:complexType>
            <xs:attributeGroup ref="Ghost"/>
          </xs:complexType></xs:element>
        </xs:schema>"#;
        assert!(matches!(
            parse_schema(src2),
            Err(XsdError::UnresolvedRef { .. })
        ));
    }

    #[test]
    fn self_referential_group_is_rejected_at_compile() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:group name="Loop"><xs:sequence>
            <xs:group ref="Loop"/>
          </xs:sequence></xs:group>
          <xs:element name="a"><xs:complexType><xs:sequence>
            <xs:group ref="Loop"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let schema = parse_schema(src).unwrap();
        assert!(matches!(
            SchemaTree::compile(&schema),
            Err(XsdError::Invalid { .. })
        ));
    }

    #[test]
    fn nested_groups_expand_transitively() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:group name="Inner"><xs:sequence>
            <xs:element name="x" type="xs:string"/>
          </xs:sequence></xs:group>
          <xs:group name="Outer"><xs:sequence>
            <xs:group ref="Inner"/>
            <xs:element name="y" type="xs:string"/>
          </xs:sequence></xs:group>
          <xs:element name="root"><xs:complexType><xs:sequence>
            <xs:group ref="Outer"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let tree = SchemaTree::compile(&parse_schema(src).unwrap()).unwrap();
        let labels: Vec<&str> = tree
            .root()
            .children
            .iter()
            .map(|&c| tree.node(c).label.as_str())
            .collect();
        assert_eq!(labels, ["x", "y"]);
    }

    #[test]
    fn groups_are_queryable_on_the_model() {
        let schema = parse_schema(GROUPED).unwrap();
        assert!(schema.group_by_name("AddressFields").is_some());
        assert!(schema.group_by_name("Nope").is_none());
        assert_eq!(schema.attribute_group_by_name("Audit").unwrap().len(), 2);
        let group = schema.group_by_name("AddressFields").unwrap();
        assert_eq!(group.element_decls().len(), 2);
    }
}

#[cfg(test)]
mod inheritance_tests {
    use super::*;
    use crate::parser::parse_schema;

    const DERIVED: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:complexType name="Base">
        <xs:sequence>
          <xs:element name="id" type="xs:ID"/>
          <xs:element name="name" type="xs:string"/>
        </xs:sequence>
        <xs:attribute name="version" type="xs:string"/>
      </xs:complexType>
      <xs:complexType name="Derived">
        <xs:complexContent>
          <xs:extension base="Base">
            <xs:sequence>
              <xs:element name="extra" type="xs:integer"/>
            </xs:sequence>
            <xs:attribute name="flag" type="xs:boolean"/>
          </xs:extension>
        </xs:complexContent>
      </xs:complexType>
      <xs:element name="thing" type="Derived"/>
    </xs:schema>"#;

    #[test]
    fn extension_inherits_base_members_in_order() {
        let tree = SchemaTree::compile(&parse_schema(DERIVED).unwrap()).unwrap();
        let labels: Vec<&str> = tree
            .root()
            .children
            .iter()
            .map(|&c| tree.node(c).label.as_str())
            .collect();
        // Base content first, derived content after; attributes likewise.
        assert_eq!(labels, ["id", "name", "extra", "version", "flag"]);
        let version = tree.node(tree.find_by_label("version").unwrap());
        assert_eq!(version.kind, NodeKind::Attribute);
    }

    #[test]
    fn multi_level_chains_accumulate() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:complexType name="A"><xs:sequence>
            <xs:element name="a" type="xs:string"/>
          </xs:sequence></xs:complexType>
          <xs:complexType name="B"><xs:complexContent><xs:extension base="A">
            <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
          </xs:extension></xs:complexContent></xs:complexType>
          <xs:complexType name="C"><xs:complexContent><xs:extension base="B">
            <xs:sequence><xs:element name="c" type="xs:string"/></xs:sequence>
          </xs:extension></xs:complexContent></xs:complexType>
          <xs:element name="r" type="C"/>
        </xs:schema>"#;
        let tree = SchemaTree::compile(&parse_schema(src).unwrap()).unwrap();
        let labels: Vec<&str> = tree
            .root()
            .children
            .iter()
            .map(|&c| tree.node(c).label.as_str())
            .collect();
        assert_eq!(labels, ["a", "b", "c"]);
    }

    #[test]
    fn cyclic_base_chain_is_rejected() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:complexType name="A"><xs:complexContent><xs:extension base="B">
            <xs:sequence><xs:element name="a" type="xs:string"/></xs:sequence>
          </xs:extension></xs:complexContent></xs:complexType>
          <xs:complexType name="B"><xs:complexContent><xs:extension base="A">
            <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
          </xs:extension></xs:complexContent></xs:complexType>
          <xs:element name="r" type="A"/>
        </xs:schema>"#;
        assert!(matches!(parse_schema(src), Err(XsdError::Invalid { .. })));
    }

    #[test]
    fn unknown_or_simple_base_is_rejected() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:complexType name="D"><xs:complexContent><xs:extension base="Ghost">
            <xs:sequence><xs:element name="x" type="xs:string"/></xs:sequence>
          </xs:extension></xs:complexContent></xs:complexType>
          <xs:element name="r" type="D"/>
        </xs:schema>"#;
        assert!(matches!(
            parse_schema(src),
            Err(XsdError::UnresolvedType { .. })
        ));
        let src2 = r#"<xs:schema xmlns:xs="x">
          <xs:simpleType name="S"><xs:restriction base="xs:string"/></xs:simpleType>
          <xs:complexType name="D"><xs:complexContent><xs:extension base="S">
            <xs:sequence><xs:element name="x" type="xs:string"/></xs:sequence>
          </xs:extension></xs:complexContent></xs:complexType>
          <xs:element name="r" type="D"/>
        </xs:schema>"#;
        assert!(matches!(parse_schema(src2), Err(XsdError::Invalid { .. })));
    }

    #[test]
    fn derived_instances_validate_and_generate() {
        use crate::validate::{parse_document, validate};
        let schema = parse_schema(DERIVED).unwrap();
        let ok = parse_document(
            r#"<thing version="1" flag="true">
                 <id>x1</id><name>n</name><extra>7</extra>
               </thing>"#,
        )
        .unwrap();
        assert!(validate(&ok, &schema).unwrap().is_valid());
        // Missing the inherited element is an error.
        let bad = parse_document("<thing><name>n</name><extra>7</extra></thing>").unwrap();
        let report = validate(&bad, &schema).unwrap();
        assert!(report.to_string().contains("<id>"), "{report}");
    }

    #[test]
    fn extension_round_trips_through_the_writer() {
        let original = parse_schema(DERIVED).unwrap();
        let rendered = crate::writer::write_schema(&original);
        let reparsed = parse_schema(&rendered).expect("rendered extension parses");
        assert_eq!(original, reparsed, "{rendered}");
    }
}
