//! The SparkER-rs benchmark. Three ways in (all through `run.sh`, which
//! builds the `sparker` binary and this package first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last stdout line is the result object. `--trace 0`
//!   measures from outside with tracing off and prints the end-to-end
//!   metrics; `--trace 1` is the traced run and prints the per-layer ones.
//! * no `--workload` — the suite: every workload, `--reps` untraced runs on
//!   consecutive seeds plus one traced run, one results file.
//! * `compare a.json b.json` — two results files against the bounds in
//!   `BENCHMARK.json`.

mod batch;
mod child;
mod compare;
mod data;
mod http;
mod ops;
mod outcome;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use spec::{Kind, Workload};
use trace::Tracer;

/// Where the program under test and the benchmark's scratch files are.
pub struct Env {
    /// The release `sparker` binary (`SPARKER_BIN`, set by `run.sh`).
    pub sparker_bin: PathBuf,
    /// Kept outputs: results and trace files.
    pub out: PathBuf,
    /// Scratch files of this process; removed when it ends.
    pub work: PathBuf,
}

impl Env {
    fn from_process(out: Option<String>) -> Result<Env, String> {
        let sparker_bin = std::env::var_os("SPARKER_BIN")
            .map(PathBuf::from)
            .filter(|p| p.is_file())
            .ok_or("SPARKER_BIN must name the built `sparker` binary; run benchmark/run.sh")?;
        let out = PathBuf::from(out.unwrap_or_else(|| "benchmark/out".to_string()));
        let work = out.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        Ok(Env {
            sparker_bin,
            out,
            work,
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// `(steal, total)` jiffies of all CPUs so far, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Run `body` and note in its outcome which share of the host's CPU time
/// the hypervisor gave to someone else meanwhile. A run with a large share
/// measured the neighbours, not the program.
pub fn noting_steal(
    body: impl FnOnce() -> Result<outcome::Outcome, String>,
) -> Result<outcome::Outcome, String> {
    let before = cpu_jiffies();
    let mut outcome = body()?;
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_jiffies()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        outcome
            .detail
            .insert("cpu_steal_share".into(), outcome::number(share));
    }
    Ok(outcome)
}

/// One untraced run of `w`: end-to-end metrics from outside the program.
pub fn run_untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<outcome::Outcome, String> {
    noting_steal(|| match w.kind {
        Kind::Batch => batch::run(w, seed, seconds, env),
        Kind::Serve => serve::run(w, seed, seconds, env),
    })
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub reps: Option<usize>,
    pub out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        reps: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = Some(num(flag, value()?)?),
            "--trace" => args.trace = num::<u8>(flag, value()?)? != 0,
            "--reps" => args.reps = Some(num(flag, value()?)?),
            "--out" => args.out = Some(value()?.to_string()),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}; see benchmark/README.md")),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) || args.reps == Some(0) {
        return Err("--seconds and --reps must be positive".to_string());
    }
    Ok(args)
}

/// One run of one workload; the last line printed is the result object.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let workloads = spec::workloads(args.smoke);
    let w = workloads
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let env = Env::from_process(args.out.clone())?;
    let seconds = args.seconds.unwrap_or(suite::default_seconds(args.smoke));
    let (outcome, units): (_, &[_]) = if args.trace {
        let mut tracer = Tracer::new();
        let outcome = noting_steal(|| traced::run(w, args.seed, &env, &mut tracer))?;
        suite::write_file(&env.out.join("trace.json"), &tracer.to_chrome_json())?;
        (outcome, &spec::PER_LAYER)
    } else {
        (
            run_untraced(w, args.seed, seconds, &env)?,
            &spec::END_TO_END,
        )
    };
    for (key, value) in &outcome.detail {
        eprintln!("{name}: {key} = {value}");
    }
    for note in &outcome.tally.notes {
        eprintln!("{name}: FAILED: {note}");
    }
    println!("{}", outcome.result_line(units));
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = if argv.first().is_some_and(|a| a == child::SPAWN_CHILD) {
        child::spawn_child_main(&argv[1..]).map(|()| true)
    } else if argv.first().is_some_and(|a| a == "compare") {
        compare::run(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(name, &args),
            None => suite::run(&args),
        })
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
