//! The whole suite in one command: every workload, several untraced runs
//! on consecutive seeds plus one traced run, one stamped results file.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use sparker_core::PipelineConfig;
use sparker_profiles::JsonValue;

use crate::outcome::{number, object, text, Outcome};
use crate::spec::{self, CLIENTS, END_TO_END, PER_LAYER, WORKERS};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::{noting_steal, run_untraced, traced, Args, Env};

/// Measured seconds of one untraced run; `BENCHMARK.json`'s `run_seconds`
/// is the full-size value.
pub fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        2.0
    } else {
        15.0
    }
}

pub fn write_file(path: &Path, content: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// First stdout line of a helper command, or "unknown" (a checkout that is
/// not a git repository has no sha).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn stamp(args: &Args, seconds: f64, reps: usize) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object([
        ("nproc", number(nproc as f64)),
        ("git_sha", text(first_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(first_line("rustc", &["-V"]))),
        ("seed", number(args.seed as f64)),
        ("smoke", JsonValue::Bool(args.smoke)),
        ("reps", number(reps as f64)),
        ("seconds", number(seconds)),
        ("workers", number(WORKERS as f64)),
        ("clients", number(CLIENTS as f64)),
        (
            "config_default",
            text(PipelineConfig::default().to_config_string()),
        ),
        (
            "config_scaling",
            text(PipelineConfig::scaling().to_config_string()),
        ),
    ])
}

/// Median, quartiles and the raw values of one metric over the repetitions.
fn summary(unit: &str, values: &[f64]) -> JsonValue {
    let mut fields = BTreeMap::new();
    fields.insert("unit".to_string(), text(unit));
    fields.insert("median".to_string(), number(median(values)));
    if let Some([q1, _, q3]) = quartiles(values) {
        fields.insert("q1".to_string(), number(q1));
        fields.insert("q3".to_string(), number(q3));
    }
    fields.insert(
        "values".to_string(),
        JsonValue::Array(values.iter().map(|v| number(*v)).collect()),
    );
    JsonValue::Object(fields)
}

pub fn run(args: &Args) -> Result<bool, String> {
    let env = Env::from_process(args.out.clone())?;
    let seconds = args.seconds.unwrap_or(default_seconds(args.smoke));
    let reps = args.reps.unwrap_or(if args.smoke { 1 } else { 5 });
    let mut tracer = Tracer::new();
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();

    for w in spec::workloads(args.smoke) {
        // A run that breaks down is a failed run of the suite, not its end:
        // the other runs' numbers are still worth writing out.
        let mut runs: Vec<Outcome> = Vec::with_capacity(reps);
        let mut broken: Vec<String> = Vec::new();
        for rep in 0..reps {
            eprintln!("{}: run {}/{reps} (tracing off)", w.name, rep + 1);
            match run_untraced(&w, args.seed + rep as u64, seconds, &env) {
                Ok(outcome) => runs.push(outcome),
                Err(e) => broken.push(format!("run {}: {e}", rep + 1)),
            }
        }
        if runs.is_empty() {
            return Err(format!("{}: no run completed: {broken:?}", w.name));
        }
        eprintln!("{}: traced run", w.name);
        let layers = noting_steal(|| traced::run(&w, args.seed, &env, &mut tracer))?;

        let mut end_to_end = BTreeMap::new();
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            eprintln!("{}: {name} = {} {unit}", w.name, median(&values));
            end_to_end.insert(name.to_string(), summary(unit, &values));
        }
        let attempted: u64 = runs.iter().map(|r| r.tally.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.tally.failed).sum();
        let correct = broken.is_empty() && runs.iter().all(Outcome::correct) && layers.correct();
        all_correct &= correct;
        for note in runs
            .iter()
            .flat_map(|r| &r.tally.notes)
            .chain(&layers.tally.notes)
            .chain(&broken)
        {
            eprintln!("{}: FAILED: {note}", w.name);
        }
        workloads.insert(
            w.name.to_string(),
            object([
                ("why", text(w.why)),
                ("config", text(w.config_name())),
                ("correct", JsonValue::Bool(correct)),
                ("attempted", number(attempted as f64)),
                ("failed", number(failed as f64)),
                ("failed_share", number(failed as f64 / attempted as f64)),
                ("broken_runs", number(broken.len() as f64)),
                ("end_to_end", JsonValue::Object(end_to_end)),
                (
                    "runs",
                    JsonValue::Array(
                        runs.into_iter()
                            .map(|r| JsonValue::Object(r.detail))
                            .collect(),
                    ),
                ),
                ("per_layer", layers.metrics_json(&PER_LAYER)),
                ("traced_attempted", number(layers.tally.attempted as f64)),
                ("traced_failed", number(layers.tally.failed as f64)),
                ("traced", JsonValue::Object(layers.detail)),
            ]),
        );
    }

    let results = object([
        ("stamp", stamp(args, seconds, reps)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", JsonValue::Null),
        ("workloads", JsonValue::Object(workloads)),
    ])
    .to_string();
    write_file(&env.out.join("trace.json"), &tracer.to_chrome_json())?;
    write_file(&env.out.join("results.json"), &results)?;
    println!("{results}");
    Ok(all_correct)
}
