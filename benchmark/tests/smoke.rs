//! Self-test: the smoke tier of the suite runs through `run.sh`, and every
//! workload and metric `BENCHMARK.json` names appears in its output exactly
//! once, finite and with its unit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use sparker_profiles::{parse_json, JsonValue};

type Object = BTreeMap<String, JsonValue>;

fn object(v: &JsonValue) -> &Object {
    match v {
        JsonValue::Object(map) => map,
        other => panic!("expected an object, got {other}"),
    }
}

fn string(v: &JsonValue) -> &str {
    v.as_str()
        .unwrap_or_else(|| panic!("expected a string, got {v}"))
}

/// `name → unit` of one metric list of BENCHMARK.json.
fn declared(benchmark: &Object, list: &str) -> BTreeMap<String, String> {
    let JsonValue::Array(items) = &benchmark[list] else {
        panic!("BENCHMARK.json: {list} is not an array")
    };
    let map: BTreeMap<String, String> = items
        .iter()
        .map(|m| {
            let m = object(m);
            (
                string(&m["name"]).to_string(),
                string(&m["unit"]).to_string(),
            )
        })
        .collect();
    assert_eq!(map.len(), items.len(), "{list}: a name is used twice");
    map
}

#[test]
fn smoke_suite_reports_everything_benchmark_json_names() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package.parent().expect("the package sits in the repo");
    let benchmark = parse_json(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap())
        .expect("BENCHMARK.json parses");
    let benchmark = object(&benchmark);
    let end_to_end = declared(benchmark, "end_to_end");
    let per_layer = declared(benchmark, "per_layer");
    let JsonValue::Array(workloads) = &benchmark["workloads"] else {
        panic!("BENCHMARK.json: workloads is not an array")
    };
    let workloads: BTreeSet<&str> = workloads
        .iter()
        .map(|w| string(&object(w)["name"]))
        .collect();

    let out_dir = package.join("out").join("self-test");
    let out = Command::new("bash")
        .arg(package.join("run.sh"))
        .args(["--smoke", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run.sh starts");
    assert!(
        out.status.success(),
        "run.sh --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let results = parse_json(stdout.lines().last().expect("a results line")).unwrap();
    let results = object(&results);
    assert_eq!(results["claim"], JsonValue::Null);
    let stamp = object(&results["stamp"]);
    for key in [
        "nproc",
        "git_sha",
        "rustc",
        "seed",
        "config_default",
        "config_scaling",
    ] {
        assert!(stamp.contains_key(key), "stamp lacks {key}");
    }

    let reported = object(&results["workloads"]);
    assert_eq!(
        reported.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        workloads,
        "workloads of the suite and of BENCHMARK.json differ"
    );
    for (name, w) in reported {
        let w = object(w);
        assert_eq!(w["correct"], JsonValue::Bool(true), "{name} is incorrect");
        assert_eq!(w["failed"], JsonValue::Number(0.0), "{name} has failures");
        for (list, key, declared) in [
            ("end_to_end", "median", &end_to_end),
            ("per_layer", "value", &per_layer),
        ] {
            // A JSON object holds each name once; equal key sets make it
            // exactly once on both sides.
            let metrics = object(&w[list]);
            assert_eq!(
                metrics.keys().collect::<Vec<_>>(),
                declared.keys().collect::<Vec<_>>(),
                "{name}: {list} metrics differ from BENCHMARK.json"
            );
            for (metric, unit) in declared {
                let m = object(&metrics[metric]);
                assert_eq!(string(&m["unit"]), unit, "{name}.{metric} unit");
                assert!(
                    matches!(m[key], JsonValue::Number(v) if v.is_finite()),
                    "{name}.{metric} is not a finite number"
                );
            }
        }
    }
    assert!(out_dir.join("trace.json").is_file(), "no trace file");
}
