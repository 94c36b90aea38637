//! What a run prints and writes: the table of metrics by name and unit,
//! the one-line result the driver reads, and the span file of a traced
//! run.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::quote;
use crate::loadgen::Span;
use crate::run::Outcome;

/// The human-readable report of one run.
pub fn table(o: &Outcome, kind: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {} ({kind}) ==", o.workload.name());
    for (phase, c) in &o.phases {
        let _ = writeln!(
            s,
            "  {phase:<14} sent {:>7}  succeeded {:>7}  failed {:>5}",
            c.sent, c.ok, c.failed
        );
    }
    for m in &o.metrics {
        let _ = writeln!(
            s,
            "  {:<32} {:>16.6} {:<6} ({} is better)",
            m.def.name, m.value, m.def.unit, m.def.better
        );
    }
    for n in &o.notes {
        let _ = writeln!(s, "  note: {n}");
    }
    if o.lateness_flagged {
        let _ = writeln!(
            s,
            "  FLAG: the load generator ran late; paced latencies are invalid"
        );
    }
    if !o.correct {
        let _ = writeln!(s, "  FAIL: {} of {} requests failed", o.failed, o.attempted);
    }
    s
}

/// The result object the driver reads from the last line of stdout:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.def.name),
                number(m.value),
                quote(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit measured; a value JSON cannot hold
/// (NaN, infinity) reads as 0 rather than breaking the document.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Write a traced run's spans as one JSON document.
///
/// # Errors
///
/// Whatever creating the directory or the file reports.
pub fn write_trace(dir: &Path, o: &Outcome, header: &[(&str, String)]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut s = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(s, "  {}: {},", quote(k), quote(v));
    }
    let _ = writeln!(
        s,
        "  \"note\": \"TCP spans are on the run's clock; replay spans (supervisor, shard, batch_server, vm.*) are measured in separate passes and laid on their own axis, levels of one chunk starting together\","
    );
    s.push_str("  \"spans\": [\n");
    let rows: Vec<String> = o.spans.iter().map(span_row).collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    std::fs::write(dir.join(format!("trace-{}.json", o.workload.name())), s)
}

fn span_row(sp: &Span) -> String {
    format!(
        "    {{\"name\": {}, \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
        quote(sp.name),
        sp.id,
        quote(sp.parent),
        sp.start_ns,
        sp.end_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::loadgen::Counts;
    use crate::metrics::{bind, END_TO_END, PER_LAYER};
    use crate::workload::Workload;

    fn outcome(defs: &'static [crate::metrics::MetricDef]) -> Outcome {
        let values: Vec<(&str, f64)> = defs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, 1.5 + i as f64))
            .collect();
        Outcome {
            workload: Workload::EchoSmall,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: bind(defs, &values),
            phases: vec![("saturation".into(), Counts::default())],
            notes: vec!["a note".into()],
            lateness_flagged: false,
            spans: vec![Span {
                name: "request",
                id: 3,
                parent: "",
                start_ns: 1,
                end_ns: 9,
            }],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        for defs in [END_TO_END, PER_LAYER] {
            let line = result_line(&outcome(defs));
            assert!(!line.contains('\n'));
            let v = parse(&line).expect("the result line is JSON");
            let crate::json::Value::Obj(top) = &v else {
                panic!("an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            for d in defs {
                let m = v.get("metrics").unwrap().get(d.name).expect(d.name);
                assert!(m.get("value").unwrap().as_f64().unwrap() >= 1.5);
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit));
            }
        }
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let t = table(&outcome(END_TO_END), "untraced");
        for d in END_TO_END {
            assert!(t.contains(d.name) && t.contains(d.unit));
        }
        assert!(t.contains("sent") && t.contains("succeeded") && t.contains("failed"));
    }

    #[test]
    fn non_finite_values_do_not_break_the_document() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn trace_file_is_json() {
        // Inside the package's own ignored `out/`, never outside the tree.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        write_trace(&dir, &outcome(END_TO_END), &[("seed", "7".into())]).unwrap();
        let text = std::fs::read_to_string(dir.join("trace-echo_small.json")).unwrap();
        let v = parse(&text).expect("trace file parses");
        assert_eq!(v.get("spans").unwrap().items().len(), 1);
        assert_eq!(v.get("seed").unwrap().as_str(), Some("7"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
