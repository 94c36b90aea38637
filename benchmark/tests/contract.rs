//! `BENCHMARK.json` and the code must say the same thing: the same
//! workloads with the same reasons, the same metrics with the same units
//! and directions, and a file inside the driver's limits.

use autobatch_benchmark::json::{parse, Value};
use autobatch_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use autobatch_benchmark::workload::Workload;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    assert!(text.len() <= 64 * 1024, "the file is at most 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(m) => m.keys().map(String::as_str).collect(),
        _ => panic!("an object"),
    }
}

#[test]
fn top_level_has_exactly_the_contract_keys() {
    let c = contract();
    assert_eq!(
        keys(&c),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command: Vec<&str> = c
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = c
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = c.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

#[test]
fn workloads_match_the_code() {
    let c = contract();
    let listed = c.get("workloads").unwrap().items();
    assert_eq!(listed.len(), Workload::ALL.len());
    for (entry, w) in listed.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), w.name());
        assert_eq!(text(entry, "why"), w.why());
        assert!(!w.why().contains('\n') && w.why().len() <= 200);
    }
}

fn check_metrics(listed: &[Value], defs: &[MetricDef], bounded: bool) {
    assert_eq!(listed.len(), defs.len());
    for (entry, d) in listed.iter().zip(defs) {
        if bounded {
            assert_eq!(keys(entry), ["better", "bound", "name", "unit"]);
            let bound = entry.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        } else {
            assert_eq!(keys(entry), ["better", "name", "unit"]);
        }
        assert_eq!(text(entry, "name"), d.name);
        assert_eq!(text(entry, "unit"), d.unit);
        assert_eq!(text(entry, "better"), d.better);
    }
}

#[test]
fn metrics_match_the_catalogue() {
    let c = contract();
    check_metrics(c.get("end_to_end").unwrap().items(), END_TO_END, true);
    check_metrics(c.get("per_layer").unwrap().items(), PER_LAYER, false);
    // Set-up time carries the largest bound, as the contract asks.
    let bound = |name: &str| {
        c.get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .find(|m| text(m, "name") == name)
            .and_then(|m| m.get("bound")?.as_f64())
            .unwrap()
    };
    assert!(END_TO_END.iter().all(|d| bound(d.name) <= bound("setup_s")));
}
