//! Batch workloads, tracing off: spawn the `sparker` CLI on generated
//! files, time it from outside, check what it wrote.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use sparker_profiles::JsonValue;

use crate::child::{run_to_exit, Exit};
use crate::data::{self, Counts, Inputs};
use crate::outcome::{number, text, Outcome, Tally};
use crate::spec::{Workload, WORKERS};
use crate::stats::{median, quartiles};
use crate::Env;

/// How often set-up is repeated for its median.
const SETUPS: usize = 3;
/// Timed CLI runs a measurement needs at least, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// Set-up of a batch workload: generate the dataset, write the JSON-lines
/// file and the config file.
pub fn set_up(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let (profiles, truth) = data::generate(w, seed);
    Inputs::write(dir, profiles, truth, &w.pipeline_config())
}

/// One checked CLI run.
pub struct CliRun {
    pub exit: Exit,
    pub counts: Counts,
    pub f1: f64,
    pub csv_hash: u64,
}

/// Run the CLI once over `inputs` and check its exit code, its stdout and
/// the entities CSV it wrote.
pub fn run_cli(env: &Env, inputs: &Inputs) -> Result<CliRun, String> {
    let stdout_path = env.work.join("cli.stdout");
    let csv_path = env.work.join("entities.csv");
    let _ = std::fs::remove_file(&csv_path);
    let mut command = Command::new(&env.sparker_bin);
    command
        .arg("--source-a")
        .arg(&inputs.jsonl)
        .arg("--config")
        .arg(&inputs.config)
        .args(["--backend", "fused", "--workers", &WORKERS.to_string()])
        .arg("--output")
        .arg(&csv_path);
    let exit = run_to_exit(&command, &stdout_path)?;
    if exit.code != Some(0) {
        return Err(format!("CLI exit code {:?}", exit.code));
    }
    let stdout = std::fs::read_to_string(&stdout_path).map_err(|e| format!("CLI stdout: {e}"))?;
    let (loaded, counts) = data::parse_cli_stdout(&stdout)?;
    let profiles = inputs.collection.profiles();
    if loaded != profiles.len() as u64 {
        return Err(format!(
            "CLI loaded {loaded} profiles, wrote {}",
            profiles.len()
        ));
    }
    let csv = std::fs::read(&csv_path).map_err(|e| format!("entities CSV: {e}"))?;
    let entities = data::check_entities(&String::from_utf8_lossy(&csv), profiles, &inputs.truth)?;
    if entities.clusters != counts.entities {
        return Err(format!(
            "CSV has {} entities, stdout says {}",
            entities.clusters, counts.entities
        ));
    }
    Ok(CliRun {
        exit,
        counts,
        f1: entities.f1,
        csv_hash: data::content_hash(&csv),
    })
}

/// Repeat checked CLI runs over the same inputs: one discarded warm-up
/// (page cache, binary), then timed runs until `seconds` have passed.
/// Every repetition must print the same counts and write the same bytes.
pub struct Repeated {
    pub walls: Vec<f64>,
    pub rss_mib: Vec<f64>,
    pub counts: Option<Counts>,
    pub f1: f64,
}

pub fn repeat_cli(
    env: &Env,
    inputs: &Inputs,
    seconds: f64,
    min_runs: usize,
    tally: &mut Tally,
) -> Repeated {
    let mut out = Repeated {
        walls: Vec::new(),
        rss_mib: Vec::new(),
        counts: None,
        f1: f64::NAN,
    };
    let mut first: Option<(Counts, u64)> = None;
    let mut started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    for run in 0.. {
        if run == 1 {
            started = Instant::now(); // the warm-up is not measured
        }
        if run > min_runs && started.elapsed() >= budget {
            break;
        }
        let result = run_cli(env, inputs).and_then(|r| match first {
            Some(f) if f != (r.counts, r.csv_hash) => Err(format!(
                "run {run} differs from run 0: {:?} vs {:?}",
                (r.counts, r.csv_hash),
                f
            )),
            _ => Ok(r),
        });
        match result {
            Ok(r) => {
                first.get_or_insert((r.counts, r.csv_hash));
                out.counts = Some(r.counts);
                out.f1 = r.f1;
                if run > 0 {
                    out.walls.push(r.exit.wall.as_secs_f64());
                    out.rss_mib.push(r.exit.max_rss_kib as f64 / 1024.0);
                }
                tally.record(None);
            }
            Err(e) => {
                tally.record(Some(e));
                if tally.failed >= 3 {
                    break; // a broken build fails every run; don't spin
                }
            }
        }
    }
    out
}

pub fn run(w: &Workload, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        inputs = Some(set_up(w, seed, &env.work)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUPS > 0");

    let mut tally = Tally::default();
    let rep = repeat_cli(env, &inputs, seconds, MIN_RUNS, &mut tally);
    if rep.walls.is_empty() {
        return Err(format!("no CLI run succeeded: {:?}", tally.notes));
    }
    let wall = median(&rep.walls);
    // MIN_RUNS samples support no percentile with ten samples beyond it;
    // the upper quartile is the highest cut they do support.
    let [_, _, upper_quartile] = quartiles(&rep.walls).expect("MIN_RUNS >= 2");

    let mut detail = BTreeMap::new();
    detail.insert("profiles".into(), number(inputs.collection.len() as f64));
    detail.insert("timed_runs".into(), number(rep.walls.len() as f64));
    detail.insert("wall_s".into(), number(wall));
    detail.insert(
        "walls_s".into(),
        JsonValue::Array(rep.walls.iter().map(|w| number(*w)).collect()),
    );
    detail.insert(
        "latency_tail_is".into(),
        text(format!(
            "upper quartile of {} timed runs (too few for a higher percentile)",
            rep.walls.len()
        )),
    );
    if let Some(counts) = rep.counts {
        counts.describe(&mut detail);
    }
    Ok(Outcome {
        tally,
        metrics: vec![
            ("throughput", inputs.collection.len() as f64 / wall),
            ("latency_p50_ms", wall * 1e3),
            ("latency_tail_ms", upper_quartile * 1e3),
            ("peak_rss_mb", median(&rep.rss_mib)),
            ("cluster_f1", rep.f1),
            ("setup_s", median(&setups)),
        ],
        detail,
    })
}
