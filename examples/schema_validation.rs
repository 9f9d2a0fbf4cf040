//! The full schema toolchain around the matcher: generate a valid instance
//! document from a schema, validate it, then break it and watch the
//! validator report each problem with its path.
//!
//! ```sh
//! cargo run --example schema_validation
//! ```

use qmatch::datasets::corpus;
use qmatch::datasets::instances::{generate_instance, InstanceOptions};
use qmatch::xml::Document;
use qmatch::xsd::{parse_schema, validate};

fn main() {
    let schema = parse_schema(corpus::po1_xsd()).expect("corpus schema parses");

    // 1. Generate a valid instance.
    let instance =
        generate_instance(&schema, &InstanceOptions::default()).expect("schema has a root");
    println!("generated instance of {}:\n{instance}", instance.name());

    // 2. It validates.
    let printed = instance.to_string();
    let doc = Document::parse(&printed).expect("generated XML parses");
    let report = validate(&doc, &schema).expect("validation runs");
    println!("validation: {report}\n");
    assert!(report.is_valid());

    // 3. Break it three ways and look at the diagnostics.
    let broken = r#"<PO currency="USD">
      <OrderNo>minus-forty-two</OrderNo>
      <PurchaseInfo>
        <BillingAddr>1 Main St</BillingAddr>
        <Lines>
          <Item>bolt</Item>
          <Quantity>0</Quantity>
          <UnitOfMeasure>box</UnitOfMeasure>
        </Lines>
      </PurchaseInfo>
      <PurchaseDate>2005-04-05</PurchaseDate>
      <Surprise/>
    </PO>"#;
    let doc = Document::parse(broken).expect("well-formed XML");
    let report = validate(&doc, &schema).expect("validation runs");
    println!("broken instance problems ({}):", report.errors.len());
    for error in &report.errors {
        println!("  {error}");
    }
    assert!(!report.is_valid());
}
