//! `sparker` — command-line batch runner for the ER pipeline.
//!
//! The paper's workflow ends with "the optimized configuration can be
//! applied to the whole data in a batch mode"; this binary is that batch
//! mode. It loads one (dirty) or two (clean–clean) CSV/JSON-lines sources,
//! optionally a ground truth and a saved configuration, runs the pipeline,
//! prints per-step statistics and writes the resolved entities.
//!
//! ```text
//! sparker --source-a abt.csv --source-b buy.csv \
//!         --ground-truth matches.csv \
//!         --config tuned.conf --output entities.csv
//!
//! sparker --demo            # run on a generated Abt-Buy-shaped dataset
//! ```

use sparker::blocking;
use sparker::datasets::{generate, DatasetConfig, Preset};
use sparker::metablocking::{
    train_supervised, BlockGraph, EdgeScorer, LinearModel, TrainOptions, WeightScheme,
};
use sparker::profiles::{
    parse_csv, profiles_from_csv, profiles_from_json_lines, profiles_from_json_lines_on,
    push_csv_row, token_pass_from_json_lines, CsvOptions, GroundTruth, InternedRanges, Pair,
    Profile, ProfileCollection, ProfileId, SourceId,
};
use sparker::serve::ResolverState;
use sparker::{
    export_edges_tsv, ExecutionBackend, LostPairsReport, Pipeline, PipelineConfig, PurgeConfig,
    WeightFilter,
};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Args {
    source_a: Option<String>,
    source_b: Option<String>,
    ground_truth: Option<String>,
    config: Option<String>,
    output: Option<String>,
    id_column: String,
    demo: bool,
    show_lost: bool,
    backend: Option<String>,
    workers: Option<usize>,
    preset: Option<String>,
    mem_budget_mb: Option<u64>,
    edge_scorer: Option<String>,
    export_edges: Option<String>,
    weight_filter: Option<String>,
}

const USAGE: &str = "\
sparker — SparkER entity-resolution pipeline (batch mode)

USAGE:
    sparker --source-a <file> [--source-b <file>] [options]
    sparker --demo
    sparker serve [--preset <name>] [--addr <host:port>] [--workers <n>]
                  [--config <file>] [--clean-clean]
    sparker train --out <model.json> [--preset <name>] [--config <file>]

OPTIONS:
    --source-a <file>      First source (.csv or .jsonl). Required unless --demo.
    --source-b <file>      Second source; enables clean-clean ER. Omit for dirty ER.
    --ground-truth <file>  CSV with columns id_a,id_b of true matches (original ids).
    --config <file>        Pipeline configuration saved by the library
                           (PipelineConfig::to_config_string); default config otherwise.
    --output <file>        Write resolved entities as CSV (entity_id,source,original_id).
    --id-column <name>     CSV column holding record ids (default: id).
    --backend <name>       Execution backend: sequential, dataflow or fused
                           (default: fused). All backends produce identical
                           results. fused runs the worker-pool engine: JSON
                           lines load and token blocking run in parallel with
                           no shuffle (one pass that keeps no attribute text
                           when nothing reads it: no loose schema, entropy,
                           string measure or --show-lost; the `text:` line
                           says which), and the prune->score stages overlap:
                           meta-blocking streams pruned pairs through a
                           bounded channel into the matcher, so no candidate
                           graph is built.
                           sequential is the single-threaded reference,
                           dataflow the paper's shuffle/broadcast formulation.
    --workers <n>          Worker count for the dataflow/fused backends
                           (default: available parallelism).
    --preset <name>        Run on a named generated scaling preset instead of
                           files: dirty_10k, dirty_100k or skewed_1m. The
                           preset's exact ground truth is evaluated. Presets
                           run under the scaling-tier pipeline configuration
                           (PipelineConfig::scaling) unless --config is given.
    --mem-budget-mb <n>    Hard memory budget in MiB for the run; stages that
                           would exceed it spill sorted batches to a run-scoped
                           temp dir. 0 or unset = stay in RAM. Results are
                           byte-identical either way. Equivalent to setting
                           SPARKER_MEM_BUDGET_MB.
    --edge-scorer <name>   Override the meta-blocking edge scorer of the active
                           configuration: cbs, ecbs, js, ejs, arcs, chi2, or
                           supervised:<model.json> (a model written by
                           `sparker train`). Requires a configuration with
                           meta-blocking enabled.
    --export-edges <file>  Write the retained weighted candidate edges as a TSV
                           edge list (a, b, weight; ids resolved to
                           source:original_id). Requires meta-blocking.
    --weight-filter <expr> With --export-edges: keep only edges whose weight
                           satisfies `w <op> <number>`, e.g. \"w >= 0.2\".
                           Operators: >=, >, <=, <, ==, !=.
    --show-lost            With a ground truth: print the blocking false-positive
                           drill-down (lost pairs and their shared keys).
    --demo                 Run on a generated Abt-Buy-shaped dataset instead of files.
    --help                 Show this help.

ENVIRONMENT:
    SPARKER_MEM_BUDGET_MB  Memory budget in MiB (see --mem-budget-mb, which
                           takes precedence).

SERVE MODE:
    sparker serve boots the online incremental ER service: a resident
    resolver (token dictionary, postings, similarity graph, live
    union-find) behind an HTTP JSON API. Endpoints: POST /profiles,
    GET /clusters/{id} (dirty) or /clusters/{source}/{id} (clean-clean),
    GET /stats, POST /shutdown. Incremental results are equivalent to a
    cold batch run over the same profiles (set SPARKER_SERVE_CHECK=1 to
    assert this per operation).

    --preset <name>        Warm-load a generated scaling preset before
                           accepting requests (dirty_10k, dirty_100k,
                           skewed_1m). Defaults the configuration to
                           PipelineConfig::scaling().
    --addr <host:port>     Listen address (default 127.0.0.1:7878; use
                           port 0 for an ephemeral port).
    --workers <n>          Max concurrent connection handlers (default:
                           available parallelism).
    --config <file>        Pipeline configuration for the resolver
                           (default: scaling() with --preset, default()
                           otherwise).
    --clean-clean          Serve a clean-clean (two-source) task instead
                           of dirty ER. Without --preset only.

TRAIN MODE:
    sparker train fits the supervised edge scorer: a logistic model over
    the 12-feature edge vector (co-occurrence, Jaccard/Dice/cosine,
    block sizes, degrees, entropy), trained with BLOSS-style balanced
    sampling against a generated preset's exact ground truth. The model
    is written as one-line JSON, loadable with
    --edge-scorer supervised:<model.json> or an mb.model config line.

    --out <model.json>     Where to write the trained model (required).
    --preset <name>        Training preset (default dirty_1k). Generation
                           is seeded, so training is deterministic.
    --config <file>        Pipeline configuration whose purge/filter
                           settings shape the training block collection
                           (default: PipelineConfig::scaling()).
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        id_column: "id".to_string(),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--source-a" => args.source_a = Some(value("--source-a")?),
            "--source-b" => args.source_b = Some(value("--source-b")?),
            "--ground-truth" => args.ground_truth = Some(value("--ground-truth")?),
            "--config" => args.config = Some(value("--config")?),
            "--output" => args.output = Some(value("--output")?),
            "--id-column" => args.id_column = value("--id-column")?,
            "--backend" => args.backend = Some(value("--backend")?),
            "--workers" => {
                let v = value("--workers")?;
                args.workers = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--workers needs an integer, got {v}"))?,
                );
            }
            "--preset" => args.preset = Some(value("--preset")?),
            "--mem-budget-mb" => {
                let v = value("--mem-budget-mb")?;
                args.mem_budget_mb = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--mem-budget-mb needs an integer, got {v}"))?,
                );
            }
            "--edge-scorer" => args.edge_scorer = Some(value("--edge-scorer")?),
            "--export-edges" => args.export_edges = Some(value("--export-edges")?),
            "--weight-filter" => args.weight_filter = Some(value("--weight-filter")?),
            "--show-lost" => args.show_lost = true,
            "--demo" => args.demo = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}; see --help")),
        }
    }
    if !args.demo && args.preset.is_none() && args.source_a.is_none() {
        return Err("--source-a is required (or use --demo / --preset); see --help".to_string());
    }
    if args.weight_filter.is_some() && args.export_edges.is_none() {
        return Err("--weight-filter requires --export-edges; see --help".to_string());
    }
    Ok(args)
}

/// What loading the source files cost, printed as the `load:` line: the
/// bytes read and the read's wall time, the parse's — or, for a run that
/// reads no attribute text, the token pass's — and the range merge's with
/// the distinct tokens it found.
#[derive(Default)]
struct LoadStats {
    bytes: usize,
    read: Duration,
    parse: Duration,
    merge: Option<(Duration, usize)>,
}

impl LoadStats {
    /// Read one source file, counting its bytes and the read's time.
    fn read(&mut self, path: &str) -> Result<String, String> {
        let started = Instant::now();
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        self.read += started.elapsed();
        self.bytes += text.len();
        Ok(text)
    }

    /// `parse(text)`, its time counted as the parse's.
    fn parse<T>(&mut self, text: &str, parse: impl FnOnce(&str) -> T) -> T {
        let started = Instant::now();
        let parsed = parse(text);
        self.parse += started.elapsed();
        parsed
    }

    fn line(&self, workers: usize) -> String {
        let mb = self.bytes as f64 / 1e6;
        let rate = mb / self.parse.as_secs_f64().max(1e-9);
        match self.merge {
            Some((merge, tokens)) => format!(
                "load: read {} bytes ({:.1?}), token pass {:.1?} ({rate:.0} MB/s), \
                 merge {merge:.1?}, {tokens} distinct tokens, {workers} workers",
                self.bytes, self.read, self.parse,
            ),
            None => format!(
                "load: read {} bytes ({:.1?}), parse {:.1?} ({rate:.0} MB/s), text kept, \
                 {workers} workers",
                self.bytes, self.read, self.parse,
            ),
        }
    }
}

/// Load one source file; JSON lines are parsed on the backend's worker
/// pool when it has one.
fn load_source(
    path: &str,
    source: SourceId,
    id_column: &str,
    backend: &ExecutionBackend,
    stats: &mut LoadStats,
) -> Result<Vec<Profile>, String> {
    let text = stats.read(path)?;
    stats
        .parse(&text, |text| {
            if is_json_lines(path) {
                match backend.context() {
                    Some(ctx) => profiles_from_json_lines_on(ctx, text, source, id_column),
                    None => profiles_from_json_lines(text, source, id_column),
                }
            } else {
                let options = CsvOptions {
                    id_column: Some(id_column.to_string()),
                    ..CsvOptions::default()
                };
                profiles_from_csv(text, source, &options)
            }
        })
        .map_err(|e| format!("{path}: {e}"))
}

/// Load one JSON-lines source for a run that reads no attribute text: its
/// bare profiles and its token pass, taken while parsing on the backend's
/// pool. The file's text is dropped on return.
fn load_source_tokens(
    path: &str,
    source: SourceId,
    id_column: &str,
    backend: &ExecutionBackend,
    stats: &mut LoadStats,
) -> Result<(Vec<Profile>, InternedRanges), String> {
    let text = stats.read(path)?;
    stats
        .parse(&text, |text| {
            token_pass_from_json_lines(backend.context(), text, source, id_column)
        })
        .map_err(|e| format!("{path}: {e}"))
}

fn is_json_lines(path: &str) -> bool {
    path.ends_with(".jsonl") || path.ends_with(".json")
}

/// What makes this run keep its profiles' attribute text: empty when the
/// token pass is all it reads of them — the fused backend over JSON-lines
/// files, a configuration with no text reader
/// ([`PipelineConfig::text_readers`]) and no `--show-lost` — so the
/// loader can tokenize while parsing and keep no value.
fn text_kept_by(args: &Args, backend: &ExecutionBackend, config: &PipelineConfig) -> Vec<String> {
    let mut readers = Vec::new();
    if !matches!(backend, ExecutionBackend::FusedPool(_)) {
        readers.push(format!("--backend {}", backend.name()));
    }
    if args.preset.is_some() {
        readers.push("--preset".to_string());
    } else if args.demo {
        readers.push("--demo".to_string());
    }
    let sources = [&args.source_a, &args.source_b];
    if sources
        .iter()
        .any(|s| s.as_deref().is_some_and(|p| !is_json_lines(p)))
    {
        readers.push("CSV source".to_string());
    }
    if args.show_lost {
        readers.push("--show-lost".to_string());
    }
    readers.extend(config.text_readers().into_iter().map(str::to_string));
    readers
}

fn load_ground_truth(path: &str, collection: &ProfileCollection) -> Result<GroundTruth, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let rows = parse_csv(&text, ',').map_err(|e| format!("{path}: {e}"))?;
    let mut pairs = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if i == 0 && row.iter().any(|c| c.eq_ignore_ascii_case("id_a")) {
            continue; // header
        }
        if row.len() < 2 {
            return Err(format!("{path}: line {} needs two columns", i + 1));
        }
        pairs.push((row[0].as_str(), row[1].as_str()));
    }
    GroundTruth::from_original_ids(collection, pairs).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // A malformed --weight-filter should fail before any data is loaded.
    let weight_filter = args
        .weight_filter
        .as_deref()
        .map(WeightFilter::parse)
        .transpose()
        .map_err(|e| format!("--weight-filter: {e}"))?;

    // The budget flag is exported as SPARKER_MEM_BUDGET_MB *before* the
    // backend is constructed: engine contexts resolve their budget from the
    // environment at creation, and the sequential backend re-reads it per
    // run, so one code path serves all three.
    if let Some(mb) = args.mem_budget_mb {
        std::env::set_var(sparker::dataflow::MEM_BUDGET_ENV, mb.to_string());
    }

    // Backend selection (validated before any data is loaded).
    let workers = args
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
    let backend = ExecutionBackend::parse(args.backend.as_deref().unwrap_or("fused"), workers)?;

    // Configuration, read before the data: it decides how the data is
    // loaded. Preset runs default to the scaling-tier configuration
    // (bounded candidates per profile) instead of the Abt-Buy-scale default;
    // an explicit --config always wins.
    let mut config = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            PipelineConfig::from_config_string(&text).map_err(|e| e.to_string())?
        }
        None if args.preset.is_some() => PipelineConfig::scaling(),
        None => PipelineConfig::default(),
    };
    if let Some(spec) = &args.edge_scorer {
        let mb = config.blocking.meta_blocking.as_mut().ok_or_else(|| {
            "--edge-scorer needs a configuration with meta-blocking enabled".to_string()
        })?;
        mb.scorer = parse_edge_scorer(spec)?;
    }
    if args.export_edges.is_some() && config.blocking.meta_blocking.is_none() {
        return Err(
            "--export-edges needs a configuration with meta-blocking enabled (no weighted edges)"
                .to_string(),
        );
    }

    // Data. A run that reads no attribute text tokenizes its JSON lines
    // while parsing them and keeps bare profiles plus the token pass;
    // every other run keeps the text.
    let kept_by = text_kept_by(&args, &backend, &config);
    let mut pass = None;
    let mut load = None;
    let (collection, ground_truth) = if let Some(name) = &args.preset {
        let preset = Preset::by_name(name).ok_or_else(|| {
            format!(
                "unknown preset {name:?}; expected one of {}",
                Preset::NAMES.join(", ")
            )
        })?;
        let ds = preset.generate();
        println!("preset {}: generated scaling-tier dataset", preset.name);
        (ds.collection, Some(ds.ground_truth))
    } else if args.demo {
        let ds = generate(&DatasetConfig {
            entities: 1000,
            unmatched_per_source: 250,
            ..DatasetConfig::default()
        });
        println!("demo mode: generated Abt-Buy-shaped dataset");
        (ds.collection, Some(ds.ground_truth))
    } else {
        let source_a = args.source_a.as_deref().unwrap();
        let stats = load.insert(LoadStats::default());
        let collection = if kept_by.is_empty() {
            let (a, mut ranges) =
                load_source_tokens(source_a, SourceId(0), &args.id_column, &backend, stats)?;
            let collection = match &args.source_b {
                Some(b) => {
                    let (b, ranges_b) =
                        load_source_tokens(b, SourceId(1), &args.id_column, &backend, stats)?;
                    ranges.append(ranges_b);
                    ProfileCollection::clean_clean(a, b)
                }
                None => ProfileCollection::dirty(a),
            };
            let started = Instant::now();
            let (dict, keys) = ranges.merge(backend.context());
            stats.merge = Some((started.elapsed(), dict.len()));
            pass = Some((dict, keys));
            collection.without_text()
        } else {
            let a = load_source(source_a, SourceId(0), &args.id_column, &backend, stats)?;
            match &args.source_b {
                Some(b) => {
                    let b = load_source(b, SourceId(1), &args.id_column, &backend, stats)?;
                    ProfileCollection::clean_clean(a, b)
                }
                None => ProfileCollection::dirty(a),
            }
        };
        let gt = args
            .ground_truth
            .as_ref()
            .map(|p| load_ground_truth(p, &collection))
            .transpose()?;
        (collection, gt)
    };
    println!(
        "loaded {} profiles ({:?}), {} comparable pairs",
        collection.len(),
        collection.kind(),
        collection.comparable_pairs()
    );
    if pass.is_some() {
        println!("text: dropped at load (tokens interned while parsing)");
    } else {
        println!("text: kept ({})", kept_by.join(", "));
    }
    if let Some(load) = &load {
        println!(
            "{}",
            load.line(backend.context().map_or(1, |ctx| ctx.workers()))
        );
    }

    // Run on the selected backend (default: the fused pool engine).
    let pipeline = Pipeline::new(config);
    let result = match pass {
        Some(pass) => pipeline.run_on_pass(&backend, &collection, pass),
        None => pipeline.run_on(&backend, &collection),
    };

    if let Some(ctx) = backend.context() {
        let snap = ctx.metrics();
        println!(
            "{} engine: {} workers, {} stages, {} tasks, {} shuffled records",
            backend.name(),
            ctx.workers(),
            snap.stages.len(),
            snap.total_tasks(),
            snap.total_shuffle_records(),
        );
    }
    print!("{}", result.report.render_table());
    if let Some(f) = &result.report.fused {
        let overlap = f.busy_time().as_secs_f64() / f.wall.as_secs_f64().max(1e-9);
        println!(
            "fused: {} morsels, produce busy {:.1?} + consume busy {:.1?} over wall {:.1?} \
             (overlap {overlap:.2}x), queue wait {:.1?}, backpressure {}, payloads {}, \
             max batch {} pairs ({} KiB)",
            f.morsels,
            f.produce_busy,
            f.consume_busy,
            f.wall,
            f.queue_wait,
            f.backpressure_yields,
            f.payloads,
            f.max_batch,
            f.max_batch * std::mem::size_of::<(Pair, f64)>() / 1024,
        );
    }
    println!(
        "blocker: {} blocks -> {} cleaned ({:.1?})",
        result.blocker.initial_blocks, result.blocker.cleaned_blocks, result.timings.blocking,
    );
    println!(
        "candidates: {} pairs ({:.1?})",
        result.blocker.candidates.len(),
        result.timings.candidates,
    );
    let m = &result.report.matcher;
    println!(
        "matcher: {} matching pairs ({:.1?}); pairs={} bound_rejected={} abandoned={} verified={} kept={}",
        result.similarity.len(),
        result.timings.matching,
        m.pairs,
        m.bound_rejected,
        m.abandoned,
        m.verified,
        m.kept,
    );
    // Members grouped by cluster once: the counts below and the entity
    // rows written at the end both read it.
    let (cluster_offsets, cluster_members) = result.clusters.grouped();
    let entities = cluster_offsets.len() - 1;
    println!(
        "clusterer: {} entities, {} with >1 profile ({:.1?})",
        entities,
        cluster_offsets
            .windows(2)
            .filter(|w| w[1] - w[0] > 1)
            .count(),
        result.timings.clustering,
    );
    println!(
        "result counts: candidates={} matches={} entities={}",
        result.blocker.candidates.len(),
        result.similarity.len(),
        entities,
    );
    println!(
        "memory: budget_mb={} peak_rss_mb={} spilled_mb={} spill_batches={}",
        result.report.mem_budget_bytes >> 20,
        result.report.peak_rss_bytes >> 20,
        result.report.spilled_bytes >> 20,
        result.report.spill_batches,
    );

    // Similarity-graph export: the retained weighted candidate edges as a
    // TSV edge list, optionally thinned by a weight-filter expression.
    if let Some(path) = &args.export_edges {
        let tsv = export_edges_tsv(
            &collection,
            result.blocker.candidates.weighted(),
            weight_filter.as_ref(),
        );
        std::fs::write(path, &tsv).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "exported {} of {} weighted edges to {path}",
            tsv.lines().count() - 1,
            result.blocker.candidates.len(),
        );
    }

    // Evaluation.
    if let Some(gt) = &ground_truth {
        let eval = result.evaluate(gt);
        println!("\nevaluation against ground truth ({} matches):", gt.len());
        println!(
            "  blocking   recall {:.4}  precision {:.4}  RR {:.4}",
            eval.blocking.recall, eval.blocking.precision, eval.blocking.reduction_ratio
        );
        println!(
            "  matching   recall {:.4}  precision {:.4}  F1 {:.4}",
            eval.matching.recall, eval.matching.precision, eval.matching.f1
        );
        println!(
            "  clustering recall {:.4}  precision {:.4}  F1 {:.4}",
            eval.clustering.recall, eval.clustering.precision, eval.clustering.f1
        );
        if args.show_lost {
            let report = LostPairsReport::build(&collection, gt, &result.blocker.candidates);
            println!("\nlost ground-truth pairs after blocking: {}", report.len());
            for fp in report.lost.iter().take(10) {
                println!(
                    "  {} <-> {} | shared keys: {}",
                    fp.original_ids.0,
                    fp.original_ids.1,
                    fp.shared_tokens.join(", ")
                );
            }
        }
    }

    // Output.
    if let Some(path) = &args.output {
        let rows = write_entities(path, &collection, &cluster_offsets, &cluster_members)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nwrote {rows} entity rows to {path}");
    }
    // The process exits next and the OS reclaims the whole heap at once:
    // freeing the profiles and the run's results one small allocation at
    // a time (over a million of them at 100 k profiles) would only delay
    // the exit. Every output above is already written and flushed.
    std::mem::forget(collection);
    std::mem::forget(result);
    Ok(())
}

/// Stream the resolved entities to `path` as CSV
/// (`entity_id,source,original_id`, one row per profile, clusters in id
/// order) — byte for byte what `write_csv` makes of the same rows. Returns
/// the number of entity rows.
fn write_entities(
    path: &str,
    collection: &ProfileCollection,
    offsets: &[u32],
    members: &[ProfileId],
) -> std::io::Result<usize> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut row = String::new();
    push_csv_row(&mut row, &["entity_id", "source", "original_id"], ',');
    out.write_all(row.as_bytes())?;
    for w in offsets.windows(2) {
        let group = &members[w[0] as usize..w[1] as usize];
        let entity = group[0].0;
        for &m in group {
            let p = collection.get(m);
            // Integers never need quoting: only the original id goes
            // through the CSV quoting rule.
            row.clear();
            write!(row, "{entity},{},", p.source.0).expect("writing to a String");
            push_csv_row(&mut row, &[&p.original_id], ',');
            out.write_all(row.as_bytes())?;
        }
    }
    out.flush()?;
    Ok(members.len())
}

/// Parse an `--edge-scorer` value: a classic scheme name or
/// `supervised:<model.json>`.
fn parse_edge_scorer(spec: &str) -> Result<EdgeScorer, String> {
    if let Some(path) = spec.strip_prefix("supervised:") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let model = LinearModel::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(EdgeScorer::Supervised(model));
    }
    let scheme = match spec {
        "cbs" => WeightScheme::Cbs,
        "ecbs" => WeightScheme::Ecbs,
        "js" => WeightScheme::Js,
        "ejs" => WeightScheme::Ejs,
        "arcs" => WeightScheme::Arcs,
        "chi2" => WeightScheme::ChiSquare,
        other => {
            return Err(format!(
                "unknown edge scorer {other:?}; use cbs, ecbs, js, ejs, arcs, chi2 \
                 or supervised:<model.json>"
            ))
        }
    };
    Ok(EdgeScorer::Classic(scheme))
}

/// `sparker train`: fit the supervised edge scorer on a generated preset
/// and write the model as one-line JSON.
fn run_train(argv: &[String]) -> Result<(), String> {
    let mut preset_name = "dirty_1k".to_string();
    let mut out: Option<String> = None;
    let mut config_path: Option<String> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--preset" => preset_name = value("--preset")?,
            "--out" => out = Some(value("--out")?),
            "--config" => config_path = Some(value("--config")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown train flag {other}; see --help")),
        }
    }
    let out = out.ok_or_else(|| "train requires --out <model.json>; see --help".to_string())?;
    let preset = Preset::by_name(&preset_name).ok_or_else(|| {
        format!(
            "unknown preset {preset_name:?}; expected one of {}",
            Preset::NAMES.join(", ")
        )
    })?;
    let config = match &config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            PipelineConfig::from_config_string(&text).map_err(|e| e.to_string())?
        }
        None => PipelineConfig::scaling(),
    };

    let ds = preset.generate();
    println!(
        "preset {}: {} profiles, {} ground-truth matches",
        preset.name,
        ds.collection.len(),
        ds.ground_truth.len()
    );

    // Build the training block collection the way a preset run would:
    // schema-agnostic token blocking under the configuration's purge and
    // filter settings (loose-schema partitioning, if configured, is not
    // applied — training features are schema-agnostic).
    let bc = &config.blocking;
    let blocks = blocking::token_blocking(&ds.collection);
    let blocks = match bc.purge {
        PurgeConfig::Off => blocks,
        PurgeConfig::Oversized { max_fraction } => {
            blocking::purge_oversized(blocks, ds.collection.len(), max_fraction)
        }
        PurgeConfig::ComparisonLevel { smoothing } => {
            blocking::purge_by_comparison_level(blocks, smoothing)
        }
    };
    let blocks = match bc.filter_ratio {
        Some(ratio) => blocking::block_filtering(blocks, ratio),
        None => blocks,
    };
    let graph = BlockGraph::new(&blocks, None);

    let report = train_supervised(&graph, &ds.ground_truth, &TrainOptions::default());
    println!(
        "trained: {} positive / {} negative edges sampled, final loss {:.4}",
        report.positives, report.negatives, report.final_loss
    );
    let json = report.model.to_json();
    std::fs::write(&out, format!("{json}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote model to {out}");
    Ok(())
}

fn run_serve(argv: &[String]) -> Result<(), String> {
    let mut preset: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers: Option<usize> = None;
    let mut config_path: Option<String> = None;
    let mut clean_clean = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--preset" => preset = Some(value("--preset")?),
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                let v = value("--workers")?;
                workers = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--workers needs an integer, got {v}"))?,
                );
            }
            "--config" => config_path = Some(value("--config")?),
            "--clean-clean" => clean_clean = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown serve flag {other}; see --help")),
        }
    }

    let config = match &config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            PipelineConfig::from_config_string(&text).map_err(|e| e.to_string())?
        }
        None if preset.is_some() => PipelineConfig::scaling(),
        None => PipelineConfig::default(),
    };
    let workers =
        workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));

    let kind = if clean_clean {
        sparker::profiles::ErKind::CleanClean
    } else {
        sparker::profiles::ErKind::Dirty
    };
    let mut resolver = ResolverState::new(config, kind);
    if let Some(name) = &preset {
        if clean_clean {
            return Err("--clean-clean cannot be combined with --preset".to_string());
        }
        let p = Preset::by_name(name).ok_or_else(|| {
            format!(
                "unknown preset {name:?}; expected one of {}",
                Preset::NAMES.join(", ")
            )
        })?;
        let ds = p.generate();
        let n = resolver
            .bulk_load(ds.collection.profiles().to_vec())
            .map_err(|e| format!("warm-loading preset {name}: {e}"))?;
        println!("preset {}: warm-loaded {} profiles", p.name, n);
    }
    println!(
        "resolver: {:?} task, fast_path={}",
        kind,
        resolver.fast_path()
    );

    let mut handle = sparker::serve::serve(resolver, &addr, workers)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serving on http://{} ({} workers)", handle.addr(), workers);
    handle.join();
    println!("shutdown complete");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "serve") {
        return match run_serve(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().is_some_and(|a| a == "train") {
        return match run_train(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
