//! The benchmark's self-tests: inputs depend only on the seed, the
//! output check rejects wrong answers, and every printed metric and
//! every workload is declared in `BENCHMARK.json` and `predictions.json`.

use std::collections::BTreeSet;

use conch_perfbench::adapter::{batch_program, BatchOutput};
use conch_perfbench::gen::{batch, hunt_seed};
use conch_perfbench::workloads::{check, metric_names, traced, Workload};
use conch_runtime::Runtime;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The string values of `key` in the JSON array under `section`, in
/// order (enough for the files' fixed layout).
fn values(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no `{section}` array"));
    let body = &json[start..];
    let end = body.find("\n  ]").expect("array closes");
    let needle = format!("\"{key}\": \"");
    body[..end]
        .match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            rest[..rest.find('"').expect("string closes")].to_owned()
        })
        .collect()
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for faults in [false, true] {
        for seed in [0, 1, 0xDEAD_BEEF] {
            assert_eq!(batch(seed, 3, faults), batch(seed, 3, faults));
            assert_ne!(batch(seed, 3, faults), batch(seed + 1, 3, faults));
            assert_ne!(batch(seed, 3, faults), batch(seed, 4, faults));
            assert_eq!(hunt_seed(seed, 9), hunt_seed(seed, 9));
            assert_ne!(hunt_seed(seed, 9), hunt_seed(seed + 1, 9));
        }
    }
    assert!(batch(5, 0, true).storm.is_some());
    assert!(batch(5, 0, false).storm.is_none());
}

#[test]
fn the_output_check_passes_a_real_batch_and_rejects_tampering() {
    for faults in [false, true] {
        let b = batch(7, 0, faults);
        let out = BatchOutput::from(Runtime::new().run(batch_program(&b)).expect("batch runs"));
        let (failed, problems) = check(&b, &out);
        assert_eq!(
            (failed, problems),
            (0, Vec::<String>::new()),
            "faults={faults}"
        );

        let mut wrong = out.clone();
        let (conn, slot) = wrong
            .statuses
            .iter()
            .enumerate()
            .find_map(|(c, s)| s.iter().position(|&x| x == 200).map(|j| (c, j)))
            .expect("some request was served");
        wrong.statuses[conn][slot] = 500;
        let (failed, problems) = check(&b, &wrong);
        assert!(
            failed > 0 || !problems.is_empty(),
            "faults={faults}: a wrong status passed"
        );

        let mut lost = out.clone();
        lost.per_shard[0].served -= 1;
        assert!(
            !check(&b, &lost).1.is_empty(),
            "faults={faults}: a lost outcome passed"
        );
    }
}

#[test]
fn every_printed_metric_is_declared_with_its_unit() {
    let json = read("../BENCHMARK.json");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared: Vec<(String, String)> = values(&json, section, "name")
            .into_iter()
            .zip(values(&json, section, "unit"))
            .collect();
        let printed: Vec<(String, String)> = metric_names(trace)
            .into_iter()
            .map(|(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(
            printed, declared,
            "{section} differs from what a run prints"
        );
    }
}

#[test]
fn every_workload_has_a_reason_and_every_layer_metric_a_prediction() {
    let bench = read("../BENCHMARK.json");
    let names = values(&bench, "workloads", "name");
    let whys = values(&bench, "workloads", "why");
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names, ours);
    assert!(whys.iter().all(|w| !w.is_empty()));

    let predictions = read("predictions.json");
    for w in &ours {
        assert!(
            predictions.contains(&format!("\"{w}\": {{")),
            "no workload entry for {w}"
        );
    }
    assert!(predictions.contains("\"not_in_any_workload\""));
    let predicted: BTreeSet<String> = values(&predictions, "predictions", "metric")
        .into_iter()
        .collect();
    for m in values(&bench, "per_layer", "name") {
        assert!(predicted.contains(&m), "no prediction for {m}");
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    let timing = |unit: &str, name: &str| {
        matches!(unit, "ns" | "s" | "ns/step" | "us/sched" | "samples/s")
            || name.ends_with("replay_share")
            || name.ends_with("overhead_share")
    };
    let counts = || -> Vec<(&'static str, f64)> {
        traced(Workload::Storm, 3)
            .metrics
            .into_iter()
            .filter(|m| !timing(m.unit, m.name))
            .map(|m| (m.name, m.value))
            .collect()
    };
    let first = counts();
    assert!(first
        .iter()
        .any(|(n, v)| *n == "runtime.steps_per_request" && *v > 0.0));
    assert_eq!(first, counts());
}
