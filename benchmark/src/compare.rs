//! `compare a.json b.json`: two results files of the suite, workload by
//! workload and metric by metric, against the bounds `BENCHMARK.json`
//! fixes. `a` is the base of every ratio.

use sparker_profiles::{parse_json, JsonValue};

use crate::stats::{median, spread};

/// Walk `path` down nested objects; `at` names the file for the error.
fn get<'a>(mut v: &'a JsonValue, path: &[&str], at: &str) -> Result<&'a JsonValue, String> {
    for key in path {
        v = match v {
            JsonValue::Object(map) => map.get(*key),
            _ => None,
        }
        .ok_or_else(|| format!("{at}: no {}", path.join(".")))?;
    }
    Ok(v)
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn array<'a>(v: &'a JsonValue, path: &[&str], at: &str) -> Result<&'a [JsonValue], String> {
    match get(v, path, at)? {
        JsonValue::Array(items) => Ok(items),
        _ => Err(format!("{at}: {} is not an array", path.join("."))),
    }
}

/// The `values` of one workload × metric of a results file.
fn values(results: &JsonValue, workload: &str, metric: &str, at: &str) -> Result<Vec<f64>, String> {
    let path = ["workloads", workload, "end_to_end", metric, "values"];
    array(results, &path, at)?
        .iter()
        .map(|v| match v {
            JsonValue::Number(n) => Ok(*n),
            _ => Err(format!("{at}: {} holds a non-number", path.join("."))),
        })
        .collect()
}

/// `(name, better == "lower", bound)` of every end-to-end metric.
fn bounds(benchmark: &JsonValue) -> Result<Vec<(String, bool, f64)>, String> {
    let at = "BENCHMARK.json";
    array(benchmark, &["end_to_end"], at)?
        .iter()
        .map(|m| {
            match (
                get(m, &["name"], at)?,
                get(m, &["better"], at)?,
                get(m, &["bound"], at)?,
            ) {
                (JsonValue::String(n), JsonValue::String(b), JsonValue::Number(bound)) => {
                    Ok((n.clone(), b == "lower", *bound))
                }
                _ => Err(format!("{at}: malformed end_to_end entry")),
            }
        })
        .collect()
}

pub fn run(argv: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = argv else {
        return Err("usage: run.sh compare a.json b.json".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let benchmark = load("BENCHMARK.json")?;
    let bounds = bounds(&benchmark)?;

    println!("base a = {a_path}, b = {b_path}; ratio = b median / a median");
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "ratio", "spread", "bound"
    );
    let mut regressed = false;
    for w in array(&benchmark, &["workloads"], "BENCHMARK.json")? {
        let JsonValue::String(workload) = get(w, &["name"], "BENCHMARK.json")? else {
            return Err("BENCHMARK.json: a workload name is not a string".to_string());
        };
        for (metric, lower_is_better, bound) in &bounds {
            let (lower_is_better, bound) = (*lower_is_better, *bound);
            let va = values(&a, workload, metric, a_path)?;
            let vb = values(&b, workload, metric, b_path)?;
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            // With one run per side there is no spread to resolve against.
            let spread = spread(&va)
                .into_iter()
                .chain(spread(&vb))
                .fold(0.0, f64::max);
            let verdict = if spread > bound {
                "unresolved"
            } else if worse_by > bound {
                regressed = true;
                "regressed"
            } else {
                "within-bound"
            };
            println!(
                "{workload:<16} {metric:<16} {ma:>14.4} {mb:>14.4} {:>8.4} {:>7.2}% {:>6.1}%  {verdict}",
                mb / ma,
                spread * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(!regressed)
}
