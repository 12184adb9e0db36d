//! `BENCHMARK.json` and the code must name the same things.

use serde::Value;
use wcbench::report::{MetricDef, END_TO_END, PER_LAYER};
use wcbench::workloads::Workload;

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.field(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is {other:?}, not a string"),
    }
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.field(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("`{key}` is {other:?}, not a list"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();

    let named: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let coded: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(named, coded);

    let defs = |key: &str| -> Vec<(String, String, String)> {
        list(&doc, key)
            .iter()
            .map(|m| {
                (
                    text(m, "name").to_string(),
                    text(m, "unit").to_string(),
                    text(m, "better").to_string(),
                )
            })
            .collect()
    };
    let owned = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
            .collect()
    };
    assert_eq!(defs("end_to_end"), owned(&END_TO_END));
    assert_eq!(defs("per_layer"), owned(&PER_LAYER));
    assert!(list(&doc, "end_to_end")
        .iter()
        .any(|m| text(m, "name") == "setup_s"));
}
