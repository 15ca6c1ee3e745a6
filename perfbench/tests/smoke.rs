//! Short runs of every workload: output checks pass, nothing fails, the
//! timed transactions allocate nothing, and every metric name printed is
//! the one `BENCHMARK.json` and `ledger.json` define.

use perfbench::ledger::PER_LAYER;
use perfbench::workloads::Workload;
use perfbench::{run, Config, Report, END_TO_END, REPORTED_END_TO_END};

fn read(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` values between the keys `from` and `to` (or the end).
fn names_between(json: &str, from: &str, to: Option<&str>) -> Vec<String> {
    let start = json.find(&format!("\"{from}\"")).expect("section present");
    let end = to.map_or(json.len(), |t| {
        json.find(&format!("\"{t}\"")).expect("section present")
    });
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn config(w: Workload, trace: bool) -> Config {
    Config {
        workload: w,
        seed: 7,
        seconds: 1.0,
        trace,
        trace_out: None,
    }
}

fn extra(rep: &Report, name: &str) -> f64 {
    rep.extra
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

#[test]
fn benchmark_json_names_match_the_program() {
    let bench = read("../BENCHMARK.json");
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names_between(&bench, "end_to_end", Some("per_layer")), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names_between(&bench, "per_layer", None), layers);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        names_between(&bench, "workloads", Some("end_to_end")),
        workloads
    );

    let ledger = read("ledger.json");
    let mut all_e2e = e2e.clone();
    all_e2e.extend(REPORTED_END_TO_END.iter().map(|m| m.0));
    assert_eq!(
        names_between(&ledger, "end_to_end", Some("per_layer")),
        all_e2e
    );
    let ledger_layers = names_between(&ledger, "per_layer", None);
    assert_eq!(ledger_layers, layers);
}

#[test]
fn every_workload_passes_its_checks_without_allocating() {
    for w in Workload::ALL {
        let rep = run(&config(w, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(rep.correct(), "{}: {:?}", w.name(), rep.failures.notes);
        assert_eq!(extra(&rep, "fail_ratio"), 0.0, "{}", w.name());
        assert_eq!(extra(&rep, "heap_allocs_per_txn"), 0.0, "{}", w.name());
        let names: Vec<&str> = rep.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", w.name());
        for m in &rep.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        for m in &rep.extra {
            assert!(
                REPORTED_END_TO_END.iter().any(|e| e.0 == m.name),
                "{}: unlisted metric {}",
                w.name(),
                m.name
            );
        }
        let line = rep.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_run_prints_the_whole_ledger() {
    let rep = run(&config(Workload::Fig4Soleil, true)).expect("traced run");
    assert!(rep.correct(), "{:?}", rep.failures.notes);
    let names: Vec<&str> = rep.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    for m in &rep.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let get = |n: &str| {
        rep.metrics
            .iter()
            .find(|m| m.name == n)
            .expect("listed")
            .value
    };
    // The seeded anomaly share reaches the scoped Console exactly.
    assert!((get("rtsj.scoped_calls_per_txn") - 0.1).abs() < 0.01);
    assert_eq!(get("rtsj.substrate_allocs_per_txn"), 0.0);
    assert_eq!(get("runtime.activations_per_txn"), 3.0);
}
