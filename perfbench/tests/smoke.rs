//! Every workload at a tiny size: each contract metric appears with its
//! unit, every answer is right, and the oracle rejects a wrong
//! expectation.

use perfbench::{run, Config, Workload, E2E, PER_LAYER};

fn tiny(w: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(w, 7, 0.4, trace);
    cfg.resident = 3_000;
    cfg
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, names) in [(false, &E2E[..]), (true, &PER_LAYER[..])] {
            let out = run(&tiny(w, trace)).expect("run");
            assert!(out.correct, "{}: {} wrong answers", w.name(), out.failed);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let got: Vec<&str> = out.metrics.0.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, names, "{} trace={trace}", w.name());
            for m in &out.metrics.0 {
                assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            assert!(out.record.iter().any(|(k, _)| k == "features"));
        }
    }
}

#[test]
fn oracle_rejects_a_wrong_expected_value() {
    for w in Workload::ALL {
        let mut cfg = tiny(w, false);
        cfg.corrupt_oracle = true;
        let out = run(&cfg).expect("run");
        assert!(!out.correct, "{}: a wrong expectation passed", w.name());
        assert_eq!(out.failed, 1, "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_metrics_with_their_units() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the package");
    let cfg = |trace| {
        let mut c = Config::new(Workload::StoreChurn, 1, 0.2, trace);
        c.resident = 1_000;
        c
    };
    for trace in [false, true] {
        let out = run(&cfg(trace)).expect("run");
        for m in &out.metrics.0 {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
