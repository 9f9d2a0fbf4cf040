//! Instance-document validation against a parsed [`Schema`].
//!
//! Covers the subset the rest of the crate models: element content
//! (sequence / choice / all with occurrence bounds, resolved through named
//! types and model groups), attributes (required / prohibited / fixed), and
//! simple-type values (built-in lexical spaces plus the common constraining
//! facets). `xs:pattern` facets are accepted without evaluation — a regex
//! engine is out of scope — and mixed content permits interleaved text.
//!
//! The validator is *deterministic-greedy*: inside a sequence each particle
//! consumes as many matching children as its bounds allow before moving on.
//! This handles every deterministic content model (which the XSD spec's
//! Unique Particle Attribution rule all but requires) without backtracking.

use crate::error::XsdError;
use crate::model::{
    AttributeDecl, AttributeUse, ComplexType, ElementDecl, Facet, Particle, Schema, SimpleType,
    TypeDef, TypeRef,
};
use crate::types::BuiltinType;
use qmatch_xml::dom::{Document, Element, Node};
use std::fmt;

/// One validation problem, with the element path it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Slash-joined element path from the root.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for ValidationError {}

/// The outcome of validating a document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// All problems found (empty = valid).
    pub errors: Vec<ValidationError>,
}

impl ValidationReport {
    /// True when no problem was found.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.errors.is_empty() {
            return f.write_str("valid");
        }
        for e in &self.errors {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Parses instance-document text (a thin convenience over
/// [`Document::parse`] that converts the error type for callers working in
/// XSD terms).
pub fn parse_document(src: &str) -> Result<Document<'_>, XsdError> {
    Document::parse(src).map_err(XsdError::from)
}

/// Validates `document` against `schema`. The root element must match a
/// global element declaration by local name.
pub fn validate(document: &Document, schema: &Schema) -> Result<ValidationReport, XsdError> {
    let root = document.root();
    let Some(decl) = schema.element_by_name(root.name().local()) else {
        return Ok(ValidationReport {
            errors: vec![ValidationError {
                path: root.name().local().to_owned(),
                message: format!(
                    "no global element declaration named {:?}",
                    root.name().local()
                ),
            }],
        });
    };
    let mut validator = Validator {
        schema,
        errors: Vec::new(),
    };
    validator.element(root, decl, root.name().local());
    Ok(ValidationReport {
        errors: validator.errors,
    })
}

struct Validator<'s> {
    schema: &'s Schema,
    errors: Vec<ValidationError>,
}

impl<'s> Validator<'s> {
    fn report(&mut self, path: &str, message: String) {
        self.errors.push(ValidationError {
            path: path.to_owned(),
            message,
        });
    }

    fn element(&mut self, element: &Element, decl: &'s ElementDecl, path: &str) {
        // Follow a ref to the global declaration.
        let decl = match &decl.reference {
            Some(name) => self.schema.element_by_name(name).unwrap_or(decl),
            None => decl,
        };
        if let Some(fixed) = &decl.fixed {
            let text = element.text();
            let actual = text.trim();
            if !actual.is_empty() && actual != fixed {
                self.report(path, format!("fixed value is {fixed:?}, found {actual:?}"));
            }
        }
        match self.resolve(&decl.type_ref) {
            Resolved::Builtin(b) => {
                self.no_child_elements(element, path);
                self.no_attributes(element, path);
                self.simple_value(&element.text(), b, &[], path);
            }
            Resolved::Simple(st) => {
                self.no_child_elements(element, path);
                self.no_attributes(element, path);
                self.simple_type_value(&element.text(), st, path);
            }
            Resolved::Complex(ct) => self.complex(element, ct, path),
            Resolved::Any => { /* anyType: everything goes */ }
            Resolved::Missing(name) => {
                self.report(path, format!("declared type {name:?} is not defined"));
            }
        }
    }

    fn no_child_elements(&mut self, element: &Element, path: &str) {
        if let Some(child) = element.child_elements().next() {
            self.report(
                path,
                format!(
                    "simple content cannot contain element <{}>",
                    child.name().local()
                ),
            );
        }
    }

    fn no_attributes(&mut self, element: &Element, path: &str) {
        for attr in element.attributes() {
            if !is_namespace_attr(attr.name.raw()) {
                self.report(path, format!("unexpected attribute {:?}", attr.name.raw()));
            }
        }
    }

    fn complex(&mut self, element: &Element, ct: &'s ComplexType, path: &str) {
        let Ok((particles, attributes, groups)) =
            crate::resolve::effective_complex(self.schema, ct)
        else {
            self.report(path, "unresolvable complexContent base chain".to_owned());
            return;
        };
        self.attributes(element, &attributes, &groups, path);
        if let Some(base) = &ct.simple_base {
            // simpleContent: text validated against the base; no child elems.
            self.no_child_elements(element, path);
            match self.resolve(base) {
                Resolved::Builtin(b) => self.simple_value(&element.text(), b, &[], path),
                Resolved::Simple(st) => self.simple_type_value(&element.text(), st, path),
                _ => {}
            }
            return;
        }
        if !ct.mixed {
            for node in element.children() {
                if let Node::Text(t) = node {
                    if !t.trim().is_empty() {
                        self.report(path, format!("unexpected character data {:?}", t.trim()));
                        break;
                    }
                }
            }
        }
        let children: Vec<&Element> = element.child_elements().collect();
        let mut cursor = 0usize;
        for content in particles {
            self.particle(content, &children, &mut cursor, path, &mut Vec::new());
        }
        if cursor < children.len() {
            self.report(
                path,
                format!("unexpected element <{}>", children[cursor].name().local()),
            );
        }
    }

    fn attributes(
        &mut self,
        element: &Element,
        direct: &[&AttributeDecl],
        groups: &[&str],
        path: &str,
    ) {
        let mut declared: Vec<&AttributeDecl> = direct.to_vec();
        for group in groups {
            if let Some(attrs) = self.schema.attribute_group_by_name(group) {
                declared.extend(attrs.iter());
            }
        }
        // Resolve refs for name comparisons.
        let resolved: Vec<(&AttributeDecl, &str)> = declared
            .iter()
            .map(|d| {
                let target = match &d.reference {
                    Some(name) => self.schema.attribute_by_name(name).unwrap_or(d),
                    None => d,
                };
                (*d, target.name.as_str())
            })
            .collect();
        for attr in element.attributes() {
            if is_namespace_attr(attr.name.raw()) {
                continue;
            }
            match resolved.iter().find(|(_, name)| *name == attr.name.local()) {
                None => {
                    self.report(path, format!("unexpected attribute {:?}", attr.name.raw()));
                }
                Some((decl, _)) => {
                    if decl.required == AttributeUse::Prohibited {
                        self.report(
                            path,
                            format!("attribute {:?} is prohibited", attr.name.raw()),
                        );
                    }
                    if let Some(fixed) = &decl.fixed {
                        if attr.value != *fixed {
                            self.report(
                                path,
                                format!(
                                    "attribute {:?} must be fixed to {fixed:?}, found {:?}",
                                    attr.name.raw(),
                                    attr.value
                                ),
                            );
                        }
                    }
                    match self.resolve(&decl.type_ref) {
                        Resolved::Builtin(b) => self.simple_value(&attr.value, b, &[], path),
                        Resolved::Simple(st) => self.simple_type_value(&attr.value, st, path),
                        _ => {}
                    }
                }
            }
        }
        for (decl, name) in &resolved {
            if decl.required == AttributeUse::Required && element.attr_local(name).is_none() {
                self.report(path, format!("missing required attribute {name:?}"));
            }
        }
    }

    /// Greedy particle interpreter: consumes children starting at `cursor`.
    fn particle(
        &mut self,
        particle: &'s Particle,
        children: &[&Element],
        cursor: &mut usize,
        path: &str,
        groups_on_path: &mut Vec<&'s str>,
    ) {
        match particle {
            Particle::Element(decl) => {
                let target_name = match &decl.reference {
                    Some(name) => name.as_str(),
                    None => decl.name.as_str(),
                };
                let mut count = 0u32;
                while *cursor < children.len()
                    && children[*cursor].name().local() == target_name
                    && decl.max_occurs.allows(count + 1)
                {
                    let child = children[*cursor];
                    let child_path = format!("{path}/{target_name}");
                    self.element(child, decl, &child_path);
                    *cursor += 1;
                    count += 1;
                }
                if count < decl.min_occurs {
                    self.report(
                        path,
                        format!(
                            "expected at least {} <{target_name}> element(s), found {count}",
                            decl.min_occurs
                        ),
                    );
                }
            }
            Particle::Sequence {
                items,
                min_occurs,
                max_occurs,
            } => {
                let mut reps = 0u32;
                loop {
                    let before = *cursor;
                    if !max_occurs.allows(reps + 1) {
                        break;
                    }
                    // A repetition only counts if it consumes something (or
                    // is the first, required pass — which also surfaces
                    // min-occurs errors of inner particles).
                    if reps < *min_occurs {
                        for item in items {
                            self.particle(item, children, cursor, path, groups_on_path);
                        }
                        reps += 1;
                        continue;
                    }
                    // Optional further repetitions: dry-run by checking the
                    // first child; stop when nothing would be consumed.
                    if before >= children.len()
                        || !self.sequence_can_start(items, children[before], groups_on_path)
                    {
                        break;
                    }
                    for item in items {
                        self.particle(item, children, cursor, path, groups_on_path);
                    }
                    reps += 1;
                    if *cursor == before {
                        break; // safety: no progress
                    }
                }
            }
            Particle::Choice {
                items,
                min_occurs,
                max_occurs,
            } => {
                let mut reps = 0u32;
                while max_occurs.allows(reps + 1) {
                    let Some(next) = children.get(*cursor) else {
                        break;
                    };
                    let Some(alt) = items
                        .iter()
                        .find(|item| self.particle_can_start(item, next, groups_on_path))
                    else {
                        break;
                    };
                    let before = *cursor;
                    self.particle(alt, children, cursor, path, groups_on_path);
                    reps += 1;
                    if *cursor == before {
                        break;
                    }
                }
                if reps < *min_occurs {
                    self.report(path, "choice content is missing".to_owned());
                }
            }
            Particle::All { items, min_occurs } => {
                let mut seen = vec![0u32; items.len()];
                'outer: while *cursor < children.len() {
                    for (i, item) in items.iter().enumerate() {
                        if self.particle_can_start(item, children[*cursor], groups_on_path) {
                            let before = *cursor;
                            self.particle(item, children, cursor, path, groups_on_path);
                            seen[i] += 1;
                            if *cursor != before {
                                continue 'outer;
                            }
                        }
                    }
                    break;
                }
                if *min_occurs > 0 {
                    for (i, item) in items.iter().enumerate() {
                        if seen[i] == 0 {
                            if let Particle::Element(decl) = item {
                                if decl.min_occurs > 0 {
                                    self.report(
                                        path,
                                        format!("missing <{}> in all-group", decl.name),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Particle::GroupRef { name, .. } => {
                if groups_on_path.iter().any(|g| g == name) {
                    return; // recursion guard; compilation already rejects this
                }
                if let Some(body) = self.schema.group_by_name(name) {
                    groups_on_path.push(name);
                    self.particle(body, children, cursor, path, groups_on_path);
                    groups_on_path.pop();
                }
            }
        }
    }

    /// Could `element` be the first child consumed by `particle`?
    fn particle_can_start(
        &self,
        particle: &Particle,
        element: &Element,
        groups_on_path: &mut Vec<&'s str>,
    ) -> bool {
        match particle {
            Particle::Element(decl) => {
                let name = decl.reference.as_deref().unwrap_or(decl.name.as_str());
                element.name().local() == name
            }
            Particle::Sequence { items, .. } => {
                self.sequence_can_start(items, element, groups_on_path)
            }
            Particle::Choice { items, .. } | Particle::All { items, .. } => items
                .iter()
                .any(|i| self.particle_can_start(i, element, groups_on_path)),
            Particle::GroupRef { name, .. } => {
                if groups_on_path.iter().any(|g| g == name) {
                    return false;
                }
                self.schema
                    .group_by_name(name)
                    .is_some_and(|body| self.particle_can_start(body, element, groups_on_path))
            }
        }
    }

    /// Could `element` start one repetition of this sequence? (The first
    /// non-optional particle decides; optional prefixes are also accepted.)
    fn sequence_can_start(
        &self,
        items: &[Particle],
        element: &Element,
        groups_on_path: &mut Vec<&'s str>,
    ) -> bool {
        for item in items {
            if self.particle_can_start(item, element, groups_on_path) {
                return true;
            }
            // If this particle is required, the sequence cannot start later.
            let optional = match item {
                Particle::Element(d) => d.min_occurs == 0,
                Particle::Sequence { min_occurs, .. }
                | Particle::Choice { min_occurs, .. }
                | Particle::All { min_occurs, .. } => *min_occurs == 0,
                Particle::GroupRef { min_occurs, .. } => *min_occurs == 0,
            };
            if !optional {
                return false;
            }
        }
        false
    }

    fn simple_type_value(&mut self, value: &str, st: &SimpleType, path: &str) {
        match st {
            SimpleType::Restriction { base, facets } => match self.resolve(base) {
                Resolved::Builtin(b) => self.simple_value(value, b, facets, path),
                Resolved::Simple(inner) => {
                    // Facet merging across derivation steps is not modeled;
                    // validate against the inner type, then this step's facets.
                    self.simple_type_value(value, inner, path);
                    self.simple_value(value, BuiltinType::AnySimpleType, facets, path);
                }
                _ => {}
            },
            SimpleType::List { item } => {
                for token in value.split_whitespace() {
                    match self.resolve(item) {
                        Resolved::Builtin(b) => self.simple_value(token, b, &[], path),
                        Resolved::Simple(inner) => self.simple_type_value(token, inner, path),
                        _ => {}
                    }
                }
            }
            SimpleType::Union { members } => {
                let ok = members.iter().any(|m| match self.resolve(m) {
                    Resolved::Builtin(b) => check_builtin(b, value.trim()),
                    _ => true,
                });
                if !ok {
                    self.report(path, format!("{value:?} matches no union member type"));
                }
            }
        }
    }

    fn simple_value(&mut self, value: &str, builtin: BuiltinType, facets: &[Facet], path: &str) {
        let value = value.trim();
        if !check_builtin(builtin, value) {
            self.report(path, format!("{value:?} is not a valid {builtin}"));
            return;
        }
        // Enumerations are an OR over all enumeration facets.
        let enums: Vec<&str> = facets
            .iter()
            .filter_map(|f| match f {
                Facet::Enumeration(v) => Some(v.as_str()),
                _ => None,
            })
            .collect();
        if !enums.is_empty() && !enums.contains(&value) {
            self.report(
                path,
                format!("{value:?} is not one of the enumerated values"),
            );
        }
        for facet in facets {
            let ok = match facet {
                Facet::Enumeration(_) | Facet::Pattern(_) | Facet::WhiteSpace(_) => true,
                Facet::Length(n) => value.chars().count() == *n as usize,
                Facet::MinLength(n) => value.chars().count() >= *n as usize,
                Facet::MaxLength(n) => value.chars().count() <= *n as usize,
                Facet::MinInclusive(bound) => compare_numeric(value, bound, |o| o >= 0.0),
                Facet::MaxInclusive(bound) => compare_numeric(value, bound, |o| o <= 0.0),
                Facet::MinExclusive(bound) => compare_numeric(value, bound, |o| o > 0.0),
                Facet::MaxExclusive(bound) => compare_numeric(value, bound, |o| o < 0.0),
                Facet::TotalDigits(n) => {
                    value.chars().filter(char::is_ascii_digit).count() <= *n as usize
                }
                Facet::FractionDigits(n) => match value.split_once('.') {
                    Some((_, frac)) => frac.len() <= *n as usize,
                    None => true,
                },
            };
            if !ok {
                self.report(path, format!("{value:?} violates facet {facet:?}"));
            }
        }
    }

    fn resolve(&self, type_ref: &'s TypeRef) -> Resolved<'s> {
        match type_ref {
            TypeRef::Builtin(BuiltinType::AnyType) | TypeRef::Unspecified => Resolved::Any,
            TypeRef::Builtin(b) => Resolved::Builtin(*b),
            TypeRef::Named(name) => match self.schema.type_by_name(name) {
                Some(TypeDef::Complex(ct)) => Resolved::Complex(ct),
                Some(TypeDef::Simple(st)) => Resolved::Simple(st),
                None => Resolved::Missing(name),
            },
            TypeRef::Inline(def) => match def.as_ref() {
                TypeDef::Complex(ct) => Resolved::Complex(ct),
                TypeDef::Simple(st) => Resolved::Simple(st),
            },
        }
    }
}

enum Resolved<'s> {
    Builtin(BuiltinType),
    Simple(&'s SimpleType),
    Complex(&'s ComplexType),
    Any,
    Missing(&'s str),
}

fn is_namespace_attr(raw: &str) -> bool {
    raw == "xmlns" || raw.starts_with("xmlns:") || raw.starts_with("xsi:")
}

/// Numeric facet comparison; non-numeric values fall back to string order.
fn compare_numeric(value: &str, bound: &str, accept: impl Fn(f64) -> bool) -> bool {
    match (value.parse::<f64>(), bound.parse::<f64>()) {
        (Ok(v), Ok(b)) => accept(v - b),
        _ => accept(match value.cmp(bound) {
            std::cmp::Ordering::Less => -1.0,
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => 1.0,
        }),
    }
}

/// Checks a lexical value against a built-in type's value space.
pub fn check_builtin(builtin: BuiltinType, value: &str) -> bool {
    use BuiltinType::*;
    match builtin {
        AnyType | AnySimpleType | String | NormalizedString | Token | Language | NmToken
        | Base64Binary | HexBinary | AnyUri | QNameType | Notation => true,
        Name | NcName | Id | IdRef | Entity => qmatch_xml::name::is_valid_name(value),
        Boolean => matches!(value, "true" | "false" | "1" | "0"),
        Decimal => parse_decimal(value),
        Float | Double => value.parse::<f64>().is_ok() || matches!(value, "INF" | "-INF" | "NaN"),
        Integer => parse_integer(value).is_some(),
        NonPositiveInteger => parse_integer(value).is_some_and(|i| i <= 0),
        NegativeInteger => parse_integer(value).is_some_and(|i| i < 0),
        NonNegativeInteger => parse_integer(value).is_some_and(|i| i >= 0),
        PositiveInteger => parse_integer(value).is_some_and(|i| i > 0),
        Long => value.parse::<i64>().is_ok(),
        Int => value.parse::<i32>().is_ok(),
        Short => value.parse::<i16>().is_ok(),
        Byte => value.parse::<i8>().is_ok(),
        UnsignedLong => value.parse::<u64>().is_ok(),
        UnsignedInt => value.parse::<u32>().is_ok(),
        UnsignedShort => value.parse::<u16>().is_ok(),
        UnsignedByte => value.parse::<u8>().is_ok(),
        DateTime => split_date_time(value),
        Date => parse_date(value),
        Time => parse_time(value),
        Duration => value.starts_with('P') || value.starts_with("-P"),
        GYear => strip_tz(value).parse::<i32>().is_ok() && strip_tz(value).len() >= 4,
        GYearMonth => matches!(strip_tz(value).split_once('-'), Some((y, m))
            if y.parse::<i32>().is_ok() && parse_range(m, 1, 12)),
        GMonth => parse_range(strip_tz(value).trim_start_matches("--"), 1, 12),
        GMonthDay => {
            let rest = strip_tz(value);
            match rest.strip_prefix("--").and_then(|r| r.split_once('-')) {
                Some((m, d)) => parse_range(m, 1, 12) && parse_range(d, 1, 31),
                None => false,
            }
        }
        GDay => parse_range(strip_tz(value).trim_start_matches("---"), 1, 31),
    }
}

fn parse_integer(value: &str) -> Option<i128> {
    value.parse::<i128>().ok()
}

fn parse_decimal(value: &str) -> bool {
    let v = value.strip_prefix(['+', '-']).unwrap_or(value);
    if v.is_empty() {
        return false;
    }
    let (int_part, frac_part) = match v.split_once('.') {
        Some((i, f)) => (i, f),
        None => (v, ""),
    };
    (!int_part.is_empty() || !frac_part.is_empty())
        && int_part.bytes().all(|b| b.is_ascii_digit())
        && frac_part.bytes().all(|b| b.is_ascii_digit())
}

fn parse_range(s: &str, lo: u32, hi: u32) -> bool {
    s.parse::<u32>().is_ok_and(|v| (lo..=hi).contains(&v))
}

fn strip_tz(value: &str) -> &str {
    if let Some(v) = value.strip_suffix('Z') {
        return v;
    }
    // +hh:mm / -hh:mm offsets.
    if value.len() > 6 {
        let (head, tail) = value.split_at(value.len() - 6);
        if (tail.starts_with('+') || tail.starts_with('-')) && tail.as_bytes()[3] == b':' {
            return head;
        }
    }
    value
}

fn parse_date(value: &str) -> bool {
    let v = strip_tz(value);
    let v = v.strip_prefix('-').unwrap_or(v);
    let parts: Vec<&str> = v.splitn(3, '-').collect();
    matches!(parts.as_slice(), [y, m, d]
        if y.len() >= 4 && y.parse::<u32>().is_ok() && parse_range(m, 1, 12) && parse_range(d, 1, 31))
}

fn parse_time(value: &str) -> bool {
    let v = strip_tz(value);
    let parts: Vec<&str> = v.splitn(3, ':').collect();
    match parts.as_slice() {
        [h, m, s] => {
            parse_range(h, 0, 23)
                && parse_range(m, 0, 59)
                && s.split('.')
                    .next()
                    .is_some_and(|sec| parse_range(sec, 0, 59))
        }
        _ => false,
    }
}

fn split_date_time(value: &str) -> bool {
    match value.split_once('T') {
        Some((d, t)) => parse_date(d) && parse_time(t),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_schema;

    const PO: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="PO">
        <xs:complexType>
          <xs:sequence>
            <xs:element name="OrderNo" type="xs:positiveInteger"/>
            <xs:element name="Date" type="xs:date"/>
            <xs:element name="Line" maxOccurs="unbounded">
              <xs:complexType>
                <xs:sequence>
                  <xs:element name="Item" type="xs:string"/>
                  <xs:element name="Qty" type="QtyType"/>
                </xs:sequence>
                <xs:attribute name="no" type="xs:positiveInteger" use="required"/>
              </xs:complexType>
            </xs:element>
            <xs:element name="Note" type="xs:string" minOccurs="0"/>
          </xs:sequence>
          <xs:attribute name="currency" type="xs:string" fixed="USD"/>
        </xs:complexType>
      </xs:element>
      <xs:simpleType name="QtyType">
        <xs:restriction base="xs:integer">
          <xs:minInclusive value="1"/>
          <xs:maxInclusive value="100"/>
        </xs:restriction>
      </xs:simpleType>
    </xs:schema>"#;

    fn check(doc: &str) -> ValidationReport {
        let schema = parse_schema(PO).unwrap();
        let document = Document::parse(doc).unwrap();
        validate(&document, &schema).unwrap()
    }

    const VALID: &str = r#"<PO currency="USD">
      <OrderNo>42</OrderNo>
      <Date>2005-04-05</Date>
      <Line no="1"><Item>bolt</Item><Qty>5</Qty></Line>
      <Line no="2"><Item>nut</Item><Qty>100</Qty></Line>
      <Note>rush order</Note>
    </PO>"#;

    #[test]
    fn valid_document_passes() {
        let report = check(VALID);
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.to_string(), "valid");
    }

    #[test]
    fn optional_elements_may_be_absent() {
        let report = check(
            r#"<PO><OrderNo>1</OrderNo><Date>2005-01-01</Date>
               <Line no="1"><Item>x</Item><Qty>1</Qty></Line></PO>"#,
        );
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn missing_required_element_is_reported() {
        let report = check(
            r#"<PO><Date>2005-01-01</Date>
            <Line no="1"><Item>x</Item><Qty>1</Qty></Line></PO>"#,
        );
        assert!(!report.is_valid());
        assert!(report.to_string().contains("<OrderNo>"), "{report}");
    }

    #[test]
    fn wrong_order_is_reported() {
        let report = check(
            r#"<PO><Date>2005-01-01</Date><OrderNo>1</OrderNo>
            <Line no="1"><Item>x</Item><Qty>1</Qty></Line></PO>"#,
        );
        assert!(!report.is_valid());
    }

    #[test]
    fn unexpected_element_is_reported() {
        let report = check(
            r#"<PO><OrderNo>1</OrderNo><Date>2005-01-01</Date>
            <Line no="1"><Item>x</Item><Qty>1</Qty></Line><Bogus/></PO>"#,
        );
        assert!(
            report.to_string().contains("unexpected element <Bogus>"),
            "{report}"
        );
    }

    #[test]
    fn bad_simple_values_are_reported_with_paths() {
        let report = check(
            r#"<PO><OrderNo>-3</OrderNo><Date>not-a-date</Date>
            <Line no="1"><Item>x</Item><Qty>1</Qty></Line></PO>"#,
        );
        let text = report.to_string();
        assert!(text.contains("PO/OrderNo"), "{text}");
        assert!(text.contains("positiveInteger"), "{text}");
        assert!(text.contains("PO/Date"), "{text}");
    }

    #[test]
    fn facets_are_enforced() {
        let report = check(
            r#"<PO><OrderNo>1</OrderNo><Date>2005-01-01</Date>
            <Line no="1"><Item>x</Item><Qty>500</Qty></Line></PO>"#,
        );
        assert!(report.to_string().contains("MaxInclusive"), "{report}");
        let report = check(
            r#"<PO><OrderNo>1</OrderNo><Date>2005-01-01</Date>
            <Line no="1"><Item>x</Item><Qty>0</Qty></Line></PO>"#,
        );
        assert!(report.to_string().contains("MinInclusive"), "{report}");
    }

    #[test]
    fn attribute_rules_are_enforced() {
        // Missing required attribute.
        let report = check(
            r#"<PO><OrderNo>1</OrderNo><Date>2005-01-01</Date>
            <Line><Item>x</Item><Qty>1</Qty></Line></PO>"#,
        );
        assert!(
            report
                .to_string()
                .contains("missing required attribute \"no\""),
            "{report}"
        );
        // Fixed value violated.
        let report = check(
            r#"<PO currency="EUR"><OrderNo>1</OrderNo><Date>2005-01-01</Date>
            <Line no="1"><Item>x</Item><Qty>1</Qty></Line></PO>"#,
        );
        assert!(report.to_string().contains("fixed"), "{report}");
        // Unknown attribute.
        let report = check(
            r#"<PO zzz="1"><OrderNo>1</OrderNo><Date>2005-01-01</Date>
            <Line no="1"><Item>x</Item><Qty>1</Qty></Line></PO>"#,
        );
        assert!(
            report.to_string().contains("unexpected attribute \"zzz\""),
            "{report}"
        );
    }

    #[test]
    fn text_inside_element_only_content_is_reported() {
        let report = check(
            r#"<PO><OrderNo>1</OrderNo><Date>2005-01-01</Date>
            <Line no="1"><Item>x</Item><Qty>1</Qty></Line>stray text</PO>"#,
        );
        assert!(report.to_string().contains("character data"), "{report}");
    }

    #[test]
    fn unknown_root_is_reported() {
        let schema = parse_schema(PO).unwrap();
        let doc = Document::parse("<Invoice/>").unwrap();
        let report = validate(&doc, &schema).unwrap();
        assert!(report.to_string().contains("no global element"), "{report}");
    }

    #[test]
    fn choice_and_all_content_models() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:element name="r"><xs:complexType>
            <xs:choice maxOccurs="unbounded">
              <xs:element name="a" type="xs:string"/>
              <xs:element name="b" type="xs:integer"/>
            </xs:choice>
          </xs:complexType></xs:element>
        </xs:schema>"#;
        let schema = parse_schema(src).unwrap();
        let ok = Document::parse("<r><b>1</b><a>x</a><b>2</b></r>").unwrap();
        assert!(validate(&ok, &schema).unwrap().is_valid());
        let bad = Document::parse("<r><c/></r>").unwrap();
        assert!(!validate(&bad, &schema).unwrap().is_valid());

        let src_all = r#"<xs:schema xmlns:xs="x">
          <xs:element name="r"><xs:complexType>
            <xs:all>
              <xs:element name="a" type="xs:string"/>
              <xs:element name="b" type="xs:integer"/>
            </xs:all>
          </xs:complexType></xs:element>
        </xs:schema>"#;
        let schema_all = parse_schema(src_all).unwrap();
        // Any order is fine in an all-group.
        let ok = Document::parse("<r><b>1</b><a>x</a></r>").unwrap();
        assert!(validate(&ok, &schema_all).unwrap().is_valid());
        let missing = Document::parse("<r><a>x</a></r>").unwrap();
        assert!(validate(&missing, &schema_all)
            .unwrap()
            .to_string()
            .contains("missing <b>"));
    }

    #[test]
    fn builtin_value_spaces() {
        use BuiltinType::*;
        assert!(check_builtin(Boolean, "true"));
        assert!(check_builtin(Boolean, "0"));
        assert!(!check_builtin(Boolean, "yes"));
        assert!(check_builtin(Integer, "-42"));
        assert!(!check_builtin(Integer, "4.2"));
        assert!(check_builtin(Decimal, "-3.14"));
        assert!(check_builtin(Decimal, ".5"));
        assert!(!check_builtin(Decimal, "1e3"));
        assert!(check_builtin(Date, "2005-04-05"));
        assert!(check_builtin(Date, "2005-04-05Z"));
        assert!(check_builtin(Date, "2005-04-05+05:30"));
        assert!(!check_builtin(Date, "2005-13-01"));
        assert!(check_builtin(DateTime, "2005-04-05T12:30:00"));
        assert!(!check_builtin(DateTime, "2005-04-05"));
        assert!(check_builtin(Time, "23:59:59.5"));
        assert!(!check_builtin(Time, "24:00:00"));
        assert!(check_builtin(GYear, "2005"));
        assert!(check_builtin(GMonth, "--07"));
        assert!(check_builtin(GMonthDay, "--07-04"));
        assert!(check_builtin(GDay, "---31"));
        assert!(check_builtin(UnsignedByte, "255"));
        assert!(!check_builtin(UnsignedByte, "256"));
        assert!(check_builtin(Float, "INF"));
        assert!(check_builtin(Id, "valid_name"));
        assert!(!check_builtin(Id, "1bad"));
        assert!(check_builtin(Duration, "P1Y2M"));
        assert!(!check_builtin(Duration, "1Y"));
    }

    #[test]
    fn enumeration_and_length_facets() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:simpleType name="Size">
            <xs:restriction base="xs:string">
              <xs:enumeration value="S"/><xs:enumeration value="M"/><xs:enumeration value="L"/>
            </xs:restriction>
          </xs:simpleType>
          <xs:simpleType name="Code">
            <xs:restriction base="xs:string">
              <xs:length value="3"/>
            </xs:restriction>
          </xs:simpleType>
          <xs:element name="r"><xs:complexType><xs:sequence>
            <xs:element name="size" type="Size"/>
            <xs:element name="code" type="Code"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let schema = parse_schema(src).unwrap();
        let ok = Document::parse("<r><size>M</size><code>abc</code></r>").unwrap();
        assert!(validate(&ok, &schema).unwrap().is_valid());
        let bad = Document::parse("<r><size>XL</size><code>toolong</code></r>").unwrap();
        let text = validate(&bad, &schema).unwrap().to_string();
        assert!(text.contains("enumerated"), "{text}");
        assert!(text.contains("Length"), "{text}");
    }

    #[test]
    fn validates_corpus_style_instances_through_groups() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:group name="Addr"><xs:sequence>
            <xs:element name="street" type="xs:string"/>
            <xs:element name="city" type="xs:string"/>
          </xs:sequence></xs:group>
          <xs:element name="contact"><xs:complexType><xs:sequence>
            <xs:element name="name" type="xs:string"/>
            <xs:group ref="Addr"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let schema = parse_schema(src).unwrap();
        let ok =
            Document::parse("<contact><name>n</name><street>s</street><city>c</city></contact>")
                .unwrap();
        assert!(validate(&ok, &schema).unwrap().is_valid());
        let bad = Document::parse("<contact><name>n</name><city>c</city></contact>").unwrap();
        assert!(!validate(&bad, &schema).unwrap().is_valid());
    }

    #[test]
    fn list_and_union_values() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:simpleType name="Ints"><xs:list itemType="xs:int"/></xs:simpleType>
          <xs:simpleType name="IntOrBool"><xs:union memberTypes="xs:int xs:boolean"/></xs:simpleType>
          <xs:element name="r"><xs:complexType><xs:sequence>
            <xs:element name="l" type="Ints"/>
            <xs:element name="u" type="IntOrBool"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let schema = parse_schema(src).unwrap();
        let ok = Document::parse("<r><l>1 2 3</l><u>true</u></r>").unwrap();
        assert!(validate(&ok, &schema).unwrap().is_valid());
        let bad = Document::parse("<r><l>1 x 3</l><u>maybe</u></r>").unwrap();
        let report = validate(&bad, &schema).unwrap();
        assert_eq!(report.errors.len(), 2, "{report}");
    }
}
