//! Instance-document generation: produce a valid XML document for a parsed
//! [`Schema`]. Used by the examples, the CLI tests, and the
//! generate→validate round-trip property tests (everything this module
//! emits must pass [`qmatch_xsd::validate::validate`]).

use qmatch_prng::SmallRng;
use qmatch_xml::dom::Element;
use qmatch_xsd::BuiltinType;
use qmatch_xsd::{
    AttributeDecl, AttributeUse, ComplexType, ElementDecl, Facet, MaxOccurs, Particle, Schema,
    SimpleType, TypeDef, TypeRef,
};

/// Generation settings.
#[derive(Debug, Clone, Copy)]
pub struct InstanceOptions {
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
    /// Chance in `[0,1]` of emitting an optional (`minOccurs="0"`) particle.
    pub optional_probability: f64,
    /// Cap on repetitions of unbounded particles.
    pub max_repeats: u32,
    /// Recursion depth cap (recursive types stop expanding here).
    pub max_depth: u32,
}

impl Default for InstanceOptions {
    fn default() -> Self {
        InstanceOptions {
            seed: 7,
            optional_probability: 0.5,
            max_repeats: 3,
            max_depth: 24,
        }
    }
}

/// Generates one valid instance of the first global element of `schema`.
pub fn generate_instance(schema: &Schema, options: &InstanceOptions) -> Option<Element<'static>> {
    let root = schema.elements.first()?;
    let mut generator = Generator {
        schema,
        rng: SmallRng::seed_from_u64(options.seed),
        options: *options,
    };
    Some(generator.element(root, 0))
}

/// Generates an instance for the global element named `root`.
pub fn generate_instance_of(
    schema: &Schema,
    root: &str,
    options: &InstanceOptions,
) -> Option<Element<'static>> {
    let decl = schema.element_by_name(root)?;
    let mut generator = Generator {
        schema,
        rng: SmallRng::seed_from_u64(options.seed),
        options: *options,
    };
    Some(generator.element(decl, 0))
}

struct Generator<'s> {
    schema: &'s Schema,
    rng: SmallRng,
    options: InstanceOptions,
}

impl<'s> Generator<'s> {
    fn element(&mut self, decl: &ElementDecl, depth: u32) -> Element<'static> {
        let decl = match &decl.reference {
            Some(name) => self.schema.element_by_name(name).unwrap_or(decl),
            None => decl,
        };
        let mut element = Element::new(&decl.name);
        if let Some(fixed) = &decl.fixed {
            element = element.with_text(fixed);
            return element;
        }
        self.fill(&mut element, &decl.type_ref, depth);
        element
    }

    fn fill(&mut self, element: &mut Element<'static>, type_ref: &TypeRef, depth: u32) {
        match type_ref {
            TypeRef::Builtin(b) => {
                let value = self.builtin_value(*b, &[]);
                if !value.is_empty() {
                    *element = std::mem::replace(element, Element::new("tmp")).with_text(&value);
                }
            }
            TypeRef::Unspecified => {}
            TypeRef::Named(name) => match self.schema.type_by_name(name) {
                Some(TypeDef::Complex(ct)) => self.complex(element, ct, depth),
                Some(TypeDef::Simple(st)) => {
                    let value = self.simple_value(st);
                    *element = std::mem::replace(element, Element::new("tmp")).with_text(&value);
                }
                None => {}
            },
            TypeRef::Inline(def) => match def.as_ref() {
                TypeDef::Complex(ct) => self.complex(element, ct, depth),
                TypeDef::Simple(st) => {
                    let value = self.simple_value(st);
                    *element = std::mem::replace(element, Element::new("tmp")).with_text(&value);
                }
            },
        }
    }

    fn complex(&mut self, element: &mut Element<'static>, ct: &ComplexType, depth: u32) {
        let Ok((particles, attributes, groups)) =
            qmatch_xsd::resolve::effective_complex(self.schema, ct)
        else {
            return;
        };
        let attributes: Vec<AttributeDecl> = attributes.into_iter().cloned().collect();
        let groups: Vec<String> = groups.into_iter().map(str::to_owned).collect();
        let particles: Vec<Particle> = particles.into_iter().cloned().collect();
        for attr in &attributes {
            self.attribute(element, attr);
        }
        for group in &groups {
            if let Some(attrs) = self.schema.attribute_group_by_name(group) {
                let attrs: Vec<AttributeDecl> = attrs.to_vec();
                for attr in &attrs {
                    self.attribute(element, attr);
                }
            }
        }
        if let Some(base) = &ct.simple_base {
            let text = match base {
                TypeRef::Builtin(b) => self.builtin_value(*b, &[]),
                _ => "text".to_owned(),
            };
            *element = std::mem::replace(element, Element::new("tmp")).with_text(&text);
            return;
        }
        for content in &particles {
            self.particle(element, content, depth, &mut Vec::new());
        }
    }

    fn attribute(&mut self, element: &mut Element<'static>, decl: &AttributeDecl) {
        let target = match &decl.reference {
            Some(name) => self.schema.attribute_by_name(name).unwrap_or(decl),
            None => decl,
        };
        let emit = match decl.required {
            AttributeUse::Required => true,
            AttributeUse::Prohibited => false,
            AttributeUse::Optional => self.rng.gen_bool(self.options.optional_probability),
        };
        if !emit {
            return;
        }
        let value = if let Some(fixed) = &target.fixed {
            fixed.clone()
        } else if let Some(default) = &target.default {
            default.clone()
        } else {
            match &target.type_ref {
                TypeRef::Builtin(b) => self.builtin_value(*b, &[]),
                TypeRef::Named(name) => match self.schema.type_by_name(name) {
                    Some(TypeDef::Simple(st)) => self.simple_value(st),
                    _ => "value".to_owned(),
                },
                TypeRef::Inline(def) => match def.as_ref() {
                    TypeDef::Simple(st) => self.simple_value(st),
                    TypeDef::Complex(_) => "value".to_owned(),
                },
                TypeRef::Unspecified => "value".to_owned(),
            }
        };
        element.set_attr(&target.name, &value);
    }

    fn particle(
        &mut self,
        parent: &mut Element<'static>,
        particle: &Particle,
        depth: u32,
        groups_on_path: &mut Vec<String>,
    ) {
        match particle {
            Particle::Element(decl) => {
                let count = self.occurrence_count(decl.min_occurs, decl.max_occurs, depth);
                for _ in 0..count {
                    let child = self.element(decl, depth + 1);
                    parent.add_child(child);
                }
            }
            Particle::Sequence {
                items,
                min_occurs,
                max_occurs,
            } => {
                let reps = self.occurrence_count(*min_occurs, *max_occurs, depth);
                for _ in 0..reps {
                    for item in items {
                        self.particle(parent, item, depth, groups_on_path);
                    }
                }
            }
            Particle::Choice {
                items,
                min_occurs,
                max_occurs,
            } => {
                if items.is_empty() {
                    return;
                }
                let reps = self.occurrence_count(*min_occurs, *max_occurs, depth);
                for _ in 0..reps {
                    let pick = self.rng.gen_range(0..items.len());
                    self.particle(parent, &items[pick], depth, groups_on_path);
                }
            }
            Particle::All { items, min_occurs } => {
                if *min_occurs > 0 || self.rng.gen_bool(self.options.optional_probability) {
                    for item in items {
                        self.particle(parent, item, depth, groups_on_path);
                    }
                }
            }
            Particle::GroupRef {
                name,
                min_occurs,
                max_occurs,
            } => {
                if groups_on_path.iter().any(|g| g == name) {
                    return;
                }
                if let Some(body) = self.schema.group_by_name(name) {
                    let body = body.clone();
                    let reps = self.occurrence_count(*min_occurs, *max_occurs, depth);
                    groups_on_path.push(name.clone());
                    for _ in 0..reps {
                        self.particle(parent, &body, depth, groups_on_path);
                    }
                    groups_on_path.pop();
                }
            }
        }
    }

    fn occurrence_count(&mut self, min: u32, max: MaxOccurs, depth: u32) -> u32 {
        // Past the depth cap, emit only what validity strictly requires.
        if depth >= self.options.max_depth {
            return min;
        }
        let upper = match max {
            MaxOccurs::Bounded(b) => b.min(min + self.options.max_repeats),
            MaxOccurs::Unbounded => min + self.options.max_repeats,
        };
        if min >= upper {
            return min;
        }
        if min == 0 && !self.rng.gen_bool(self.options.optional_probability) {
            return 0;
        }
        self.rng.gen_range(min.max(1)..=upper)
    }

    fn simple_value(&mut self, st: &SimpleType) -> String {
        match st {
            SimpleType::Restriction { base, facets } => match base {
                TypeRef::Builtin(b) => self.builtin_value(*b, facets),
                TypeRef::Named(name) => match self.schema.type_by_name(name) {
                    Some(TypeDef::Simple(inner)) => {
                        // Facets of the outer step are honored when they are
                        // enumerations; otherwise delegate to the inner type.
                        if let Some(e) = pick_enumeration(facets) {
                            e
                        } else {
                            let inner = inner.clone();
                            self.simple_value(&inner)
                        }
                    }
                    _ => "text".to_owned(),
                },
                _ => "text".to_owned(),
            },
            SimpleType::List { item } => {
                let one = match item {
                    TypeRef::Builtin(b) => self.builtin_value(*b, &[]),
                    _ => "1".to_owned(),
                };
                format!("{one} {one}")
            }
            SimpleType::Union { members } => match members.first() {
                Some(TypeRef::Builtin(b)) => self.builtin_value(*b, &[]),
                _ => "1".to_owned(),
            },
        }
    }

    fn builtin_value(&mut self, builtin: BuiltinType, facets: &[Facet]) -> String {
        if let Some(e) = pick_enumeration(facets) {
            return e;
        }
        // Numeric bounds: emit a value inside [lo, hi].
        let bound = |facets: &[Facet], pick: fn(&Facet) -> Option<f64>| -> Option<f64> {
            facets.iter().find_map(pick)
        };
        let lo = bound(facets, |f| match f {
            Facet::MinInclusive(v) => v.parse().ok(),
            Facet::MinExclusive(v) => v.parse::<f64>().ok().map(|x| x + 1.0),
            _ => None,
        });
        let hi = bound(facets, |f| match f {
            Facet::MaxInclusive(v) => v.parse().ok(),
            Facet::MaxExclusive(v) => v.parse::<f64>().ok().map(|x| x - 1.0),
            _ => None,
        });
        let exact_len = facets.iter().find_map(|f| match f {
            Facet::Length(n) => Some(*n as usize),
            Facet::MinLength(n) => Some(*n as usize),
            _ => None,
        });

        use BuiltinType::*;
        match builtin {
            Boolean => if self.rng.gen_bool(0.5) {
                "true"
            } else {
                "false"
            }
            .to_owned(),
            Integer | Long | Int | Short | Byte | Decimal => {
                let lo = lo.unwrap_or(-50.0);
                let hi = hi.unwrap_or(99.0).max(lo);
                format!("{}", self.rng.gen_range(lo as i64..=hi as i64))
            }
            NonNegativeInteger | UnsignedLong | UnsignedInt | UnsignedShort | UnsignedByte => {
                let lo = lo.unwrap_or(0.0).max(0.0);
                let hi = hi.unwrap_or(99.0).max(lo);
                format!("{}", self.rng.gen_range(lo as u64..=hi as u64))
            }
            PositiveInteger => {
                let lo = lo.unwrap_or(1.0).max(1.0);
                let hi = hi.unwrap_or(99.0).max(lo);
                format!("{}", self.rng.gen_range(lo as u64..=hi as u64))
            }
            NonPositiveInteger => format!("-{}", self.rng.gen_range(0..50)),
            NegativeInteger => format!("-{}", self.rng.gen_range(1..50)),
            Float | Double => format!("{}.5", self.rng.gen_range(0..100)),
            Date => format!(
                "200{}-{:02}-{:02}",
                self.rng.gen_range(0..10),
                self.rng.gen_range(1..=12),
                self.rng.gen_range(1..=28)
            ),
            DateTime => format!(
                "2005-{:02}-{:02}T{:02}:{:02}:00",
                self.rng.gen_range(1..=12),
                self.rng.gen_range(1..=28),
                self.rng.gen_range(0..24),
                self.rng.gen_range(0..60)
            ),
            Time => format!(
                "{:02}:{:02}:00",
                self.rng.gen_range(0..24),
                self.rng.gen_range(0..60)
            ),
            GYear => format!("{}", self.rng.gen_range(1990..2006)),
            GYearMonth => format!("2005-{:02}", self.rng.gen_range(1..=12)),
            GMonth => format!("--{:02}", self.rng.gen_range(1..=12)),
            GMonthDay => format!(
                "--{:02}-{:02}",
                self.rng.gen_range(1..=12),
                self.rng.gen_range(1..=28)
            ),
            GDay => format!("---{:02}", self.rng.gen_range(1..=28)),
            Duration => "P1Y".to_owned(),
            Name | NcName | Id | IdRef | Entity => {
                format!("name{}", self.rng.gen_range(0..10_000))
            }
            _ => {
                // String-family types (and anything else): sized words.
                let len = exact_len.unwrap_or_else(|| self.rng.gen_range(3..12));
                let mut s = std::string::String::with_capacity(len);
                for _ in 0..len {
                    s.push((b'a' + self.rng.gen_range(0..26)) as char);
                }
                s
            }
        }
    }
}

fn pick_enumeration(facets: &[Facet]) -> Option<String> {
    facets.iter().find_map(|f| match f {
        Facet::Enumeration(v) => Some(v.clone()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_xsd::{parse_schema, validate, validate::parse_document};

    fn round_trip(xsd: &str, seed: u64) {
        let schema = parse_schema(xsd).expect("schema parses");
        let options = InstanceOptions {
            seed,
            ..InstanceOptions::default()
        };
        let instance = generate_instance(&schema, &options).expect("instance generated");
        let text = instance.to_string();
        let document = parse_document(&text).expect("instance re-parses");
        let report = validate(&document, &schema).expect("validation runs");
        assert!(report.is_valid(), "seed {seed}:\n{text}\n{report}");
    }

    #[test]
    fn corpus_schemas_generate_valid_instances() {
        use crate::corpus;
        for xsd in [
            corpus::po1_xsd(),
            corpus::po2_xsd(),
            corpus::article_xsd(),
            corpus::book_xsd(),
            corpus::dcmd_item_xsd(),
            corpus::dcmd_ord_xsd(),
        ] {
            for seed in 0..8 {
                round_trip(xsd, seed);
            }
        }
    }

    #[test]
    fn protein_schemas_generate_valid_instances() {
        let corpus = crate::synth::protein_corpus();
        round_trip(&corpus.pir_xsd, 1);
        round_trip(&corpus.pdb_xsd, 2);
    }

    #[test]
    fn facet_constrained_values_respect_bounds() {
        let xsd = r#"<xs:schema xmlns:xs="x">
          <xs:simpleType name="Qty">
            <xs:restriction base="xs:integer">
              <xs:minInclusive value="10"/><xs:maxInclusive value="12"/>
            </xs:restriction>
          </xs:simpleType>
          <xs:element name="r"><xs:complexType><xs:sequence>
            <xs:element name="q" type="Qty" maxOccurs="unbounded"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        for seed in 0..16 {
            round_trip(xsd, seed);
        }
    }

    #[test]
    fn enumerations_pick_a_listed_value() {
        let xsd = r#"<xs:schema xmlns:xs="x">
          <xs:simpleType name="Size">
            <xs:restriction base="xs:string">
              <xs:enumeration value="S"/><xs:enumeration value="M"/>
            </xs:restriction>
          </xs:simpleType>
          <xs:element name="r" type="Size"/>
        </xs:schema>"#;
        let schema = parse_schema(xsd).unwrap();
        let instance = generate_instance(&schema, &InstanceOptions::default()).unwrap();
        assert_eq!(instance.text(), "S");
        round_trip(xsd, 0);
    }

    #[test]
    fn required_attributes_and_fixed_values_are_emitted() {
        let xsd = r#"<xs:schema xmlns:xs="x">
          <xs:element name="r"><xs:complexType>
            <xs:sequence><xs:element name="x" type="xs:string"/></xs:sequence>
            <xs:attribute name="id" type="xs:positiveInteger" use="required"/>
            <xs:attribute name="version" type="xs:string" fixed="1.0"/>
          </xs:complexType></xs:element>
        </xs:schema>"#;
        let schema = parse_schema(xsd).unwrap();
        let instance = generate_instance(&schema, &InstanceOptions::default()).unwrap();
        assert!(instance.attr("id").is_some());
        if let Some(v) = instance.attr("version") {
            assert_eq!(v, "1.0");
        }
        for seed in 0..8 {
            round_trip(xsd, seed);
        }
    }

    #[test]
    fn recursive_schemas_terminate() {
        let xsd = r#"<xs:schema xmlns:xs="x">
          <xs:complexType name="Node"><xs:sequence>
            <xs:element name="value" type="xs:string"/>
            <xs:element name="child" type="Node" minOccurs="0"/>
          </xs:sequence></xs:complexType>
          <xs:element name="tree" type="Node"/>
        </xs:schema>"#;
        for seed in 0..8 {
            round_trip(xsd, seed);
        }
    }

    #[test]
    fn choice_and_group_content_round_trips() {
        let xsd = r#"<xs:schema xmlns:xs="x">
          <xs:group name="Pair"><xs:sequence>
            <xs:element name="k" type="xs:string"/>
            <xs:element name="v" type="xs:string"/>
          </xs:sequence></xs:group>
          <xs:element name="r"><xs:complexType>
            <xs:choice>
              <xs:element name="a" type="xs:int"/>
              <xs:sequence><xs:group ref="Pair"/></xs:sequence>
            </xs:choice>
          </xs:complexType></xs:element>
        </xs:schema>"#;
        for seed in 0..16 {
            round_trip(xsd, seed);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let schema = parse_schema(crate::corpus::dcmd_ord_xsd()).unwrap();
        let options = InstanceOptions::default();
        let a = generate_instance(&schema, &options).unwrap();
        let b = generate_instance(&schema, &options).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        let other = InstanceOptions {
            seed: 99,
            ..options
        };
        let c = generate_instance(&schema, &other).unwrap();
        assert_ne!(
            a.to_string(),
            c.to_string(),
            "different seeds should differ"
        );
    }

    #[test]
    fn missing_root_returns_none() {
        let schema = parse_schema(r#"<xs:schema xmlns:xs="x"/>"#).unwrap();
        assert!(generate_instance(&schema, &InstanceOptions::default()).is_none());
        let schema2 = parse_schema(crate::corpus::po1_xsd()).unwrap();
        assert!(generate_instance_of(&schema2, "NoSuch", &InstanceOptions::default()).is_none());
        assert!(generate_instance_of(&schema2, "PO", &InstanceOptions::default()).is_some());
    }
}

#[cfg(test)]
mod option_tests {
    use super::*;
    use qmatch_xsd::parse_schema;

    #[test]
    fn optional_probability_zero_emits_the_minimal_document() {
        let schema = parse_schema(crate::corpus::article_xsd()).unwrap();
        let options = InstanceOptions {
            optional_probability: 0.0,
            max_repeats: 0,
            ..InstanceOptions::default()
        };
        let minimal = generate_instance(&schema, &options).unwrap();
        let text = minimal.to_string();
        // Abstract and DOI are minOccurs="0"; they must be absent.
        assert!(!text.contains("Abstract"), "{text}");
        assert!(!text.contains("DOI"), "{text}");
        // Required members are present exactly once.
        assert_eq!(text.matches("<Title>").count(), 1, "{text}");
        assert_eq!(text.matches("<Author>").count(), 1, "{text}");
    }

    #[test]
    fn optional_probability_one_emits_every_optional() {
        let schema = parse_schema(crate::corpus::article_xsd()).unwrap();
        let options = InstanceOptions {
            optional_probability: 1.0,
            ..InstanceOptions::default()
        };
        let full = generate_instance(&schema, &options).unwrap();
        let text = full.to_string();
        assert!(text.contains("Abstract"), "{text}");
        assert!(text.contains("DOI"), "{text}");
        assert!(text.contains("Affiliation"), "{text}");
    }

    #[test]
    fn max_repeats_bounds_unbounded_particles() {
        let schema = parse_schema(crate::corpus::article_xsd()).unwrap();
        for max_repeats in [0u32, 1, 5] {
            let options = InstanceOptions {
                optional_probability: 1.0,
                max_repeats,
                seed: 11,
                ..InstanceOptions::default()
            };
            let instance = generate_instance(&schema, &options).unwrap();
            let authors = instance.to_string().matches("<Author>").count();
            // Author is minOccurs=1 maxOccurs=unbounded.
            assert!(
                authors >= 1 && authors <= 1 + max_repeats as usize,
                "max_repeats={max_repeats}: {authors} authors"
            );
        }
    }
}
