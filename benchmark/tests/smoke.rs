//! End to end, in `--quick` mode: the real binaries, a real server
//! child, both kinds of run. Quick numbers mean nothing; what is checked
//! is that every reply was verified, that the result line parses and
//! carries exactly the catalogue's metrics, and that the trace file is
//! written.

use std::process::Command;

use autobatch_benchmark::json::{parse, Value};
use autobatch_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};

/// Run `bench --quick` on the cheapest workload from the repository
/// root, as `run.sh` does.
fn quick(trace: &str) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--quick",
            "--workload",
            "echo_small",
            "--seed",
            "5",
            "--trace",
            trace,
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    assert!(
        out.status.success(),
        "bench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is the result object");
    (stdout, result)
}

fn check(result: &Value, defs: &[MetricDef]) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is an object")
    };
    assert_eq!(metrics.len(), defs.len(), "exactly the catalogue's metrics");
    for d in defs {
        let m = metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("{} is reported", d.name));
        assert!(m.get("value").unwrap().as_f64().is_some());
        assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit));
    }
}

#[test]
fn untraced_quick_run_reports_every_end_to_end_metric() {
    let (stdout, result) = quick("0");
    check(&result, END_TO_END);
    assert!(
        stdout.contains("QUICK"),
        "a quick run says it is not comparable"
    );
    for phase in ["saturation", "paced-1", "paced-3"] {
        assert!(stdout.contains(phase), "counts for {phase} are printed");
    }
    let value = |name: &str| {
        result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    assert!(
        END_TO_END.iter().all(|d| value(d.name) > 0.0),
        "no end-to-end metric reads 0"
    );
}

#[test]
fn traced_quick_run_reports_every_layer_metric_and_writes_spans() {
    let (_, result) = quick("1");
    check(&result, PER_LAYER);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-echo_small.json");
    let trace = parse(&std::fs::read_to_string(path).expect("the trace file is written"))
        .expect("the trace file parses");
    let names: std::collections::BTreeSet<&str> = trace
        .get("spans")
        .unwrap()
        .items()
        .iter()
        .filter_map(|s| s.get("name")?.as_str())
        .collect();
    for name in [
        "request",
        "client.send_lag",
        "client.wait_reply",
        "ingress.queue",
        "supervisor",
        "shard",
        "batch_server",
        "vm.admit",
        "vm.step",
        "vm.retire",
    ] {
        assert!(names.contains(name), "a {name} span is recorded");
    }
    assert_eq!(trace.get("seed").unwrap().as_str(), Some("5"));
}

#[test]
fn agree_refuses_quick_numbers() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--agree"])
        .output()
        .expect("bench runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not comparable"));
}
