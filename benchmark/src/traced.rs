//! The traced run: link the crates and record a span around each call into
//! a layer's public functions, then derive unit costs from the counts those
//! calls return. Every workload walks every layer — a resident resolver
//! replaying the workload's op mix (`serve`), then the staged batch
//! pipeline over the resulting collection (`profiles` … `clustering`,
//! `core`) — so each per-layer metric exists on each workload.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use sparker_blocking::{purge_by_comparison_level, purge_oversized};
use sparker_core::{ExecutionBackend, Pipeline, PurgeConfig};
use sparker_dataflow::Context;
use sparker_matching::{CandidateGraph, ThresholdMatcher};
use sparker_metablocking::BlockGraph;
use sparker_profiles::{
    profiles_from_json_lines, ErKind, JsonValue, Pair, Profile, ProfileCollection, SourceId,
};
use sparker_serve::{OpKind, ResolverState};

use crate::batch::repeat_cli;
use crate::data::{Counts, Inputs};
use crate::http;
use crate::ops::{final_collection, written, Applied, Op, OpStream, Plan};
use crate::outcome::{number, Outcome, Tally};
use crate::spec::{Kind, Workload, CLIENTS, WORKERS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Env;

/// Untraced CLI runs that give the reference wall clock of the batch pass.
const REFERENCE_RUNS: usize = 3;
/// Clean-state HTTP reads that give the HTTP layer's overhead.
const HTTP_PROBES: usize = 300;
/// Records of the engine shuffle microbenchmark.
const SHUFFLE_RECORDS: u32 = 1_000_000;

type Metrics = Vec<(&'static str, f64)>;

pub fn run(w: &Workload, seed: u64, env: &Env, t: &mut Tracer) -> Result<Outcome, String> {
    t.lane(w.name);
    let mut tally = Tally::default();
    let mut m = Metrics::new();
    let mut detail = BTreeMap::new();

    let mut plan = Plan::generate(w, seed);
    let pass = t.begin("benchmark", "resolver_pass");
    let served = serve_layer(w, &plan, seed, t, &mut tally, &mut m)?;
    t.end(pass);

    // The batch pass runs over what the resolver ended up holding (serve
    // workloads) or over the whole dataset (batch workloads, whose resolver
    // only probed a warm prefix).
    let profiles = match w.kind {
        Kind::Serve => final_collection(&plan, &served.applied),
        Kind::Batch => {
            let mut all = std::mem::take(&mut plan.warm);
            all.append(&mut plan.held);
            all
        }
    };
    let inputs = Inputs::write(&env.work, profiles, plan.truth, &w.pipeline_config())?;
    let pass = t.begin("benchmark", "batch_pass");
    let counts = batch_layers(w, &inputs, env, t, &mut tally, &mut m, &mut detail)?;
    t.end(pass);
    if w.kind == Kind::Serve {
        tally.check(served.counts == counts, || {
            format!(
                "resolver ended at {:?}, batch pipeline gives {counts:?}",
                served.counts
            )
        });
    }

    m.push(("dataflow.shuffle_ns_per_record", shuffle_ns_per_record(t)?));
    detail.insert("profiles".into(), number(inputs.collection.len() as f64));
    detail.insert("replayed_ops".into(), number(w.replay_ops as f64));
    Ok(Outcome {
        tally,
        metrics: m,
        detail,
    })
}

/// The staged pipeline as `Pipeline::run_on` orders it, one span per call,
/// then the same pipeline untraced through `run_on` itself.
fn batch_layers(
    w: &Workload,
    inputs: &Inputs,
    env: &Env,
    t: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
    detail: &mut BTreeMap<String, JsonValue>,
) -> Result<Counts, String> {
    // Reference: the same inputs through the CLI, from outside, untraced.
    let reference = repeat_cli(env, inputs, 0.0, REFERENCE_RUNS, tally);
    let (Some(cli_counts), false) = (reference.counts, reference.walls.is_empty()) else {
        return Err(format!("no reference CLI run succeeded: {:?}", tally.notes));
    };
    let cli_wall = median(&reference.walls);

    let config = w.pipeline_config();
    let bc = &config.blocking;
    let mb = bc
        .meta_blocking
        .as_ref()
        .filter(|mb| !mb.use_entropy && bc.loose_schema.is_none())
        .ok_or("the traced pass covers schema-agnostic meta-blocking configs only")?;

    let text =
        std::fs::read_to_string(&inputs.jsonl).map_err(|e| format!("reading inputs: {e}"))?;
    let (loaded, load_s) = t.span("profiles", "profiles_from_json_lines", || {
        profiles_from_json_lines(&text, SourceId(0), "id")
    });
    let loaded = loaded.map_err(|e| format!("loading inputs: {e}"))?;
    let n = loaded.len() as f64;
    let collection = ProfileCollection::dirty(loaded);

    let backend = ExecutionBackend::fused(WORKERS);
    let ctx = backend.context().expect("fused backend has a context");
    let budget = backend.budget();

    let (blocks, build_s) = t.span("blocking", "build_blocks", || {
        backend.build_blocks(&collection, None, &budget)
    });
    let initial_blocks = blocks.len() as f64;
    let (blocks, purge_s) = t.span("blocking", "purge", || match bc.purge {
        PurgeConfig::Off => blocks,
        PurgeConfig::Oversized { max_fraction } => {
            purge_oversized(blocks, collection.len(), max_fraction)
        }
        PurgeConfig::ComparisonLevel { smoothing } => purge_by_comparison_level(blocks, smoothing),
    });
    let (blocks, filter_s) = t.span("blocking", "filter_blocks", || match bc.filter_ratio {
        Some(ratio) => backend.filter_blocks(blocks, ratio),
        None => blocks,
    });
    let comparisons = blocks.total_comparisons() as f64;

    // `prune_candidates` builds the block graph and prunes it in one call;
    // a standalone build beside it splits the two costs.
    let (graph, graph_s) = t.span("metablocking", "block_graph", || {
        BlockGraph::new_budgeted(&blocks, None, &budget)
    });
    drop(graph);
    let (retained, prune_call_s) = t.span("metablocking", "prune_candidates", || {
        backend.prune_candidates(&blocks, None, mb, &budget)
    });
    let (candidates, collect_s) = t.span("core", "collect_candidates", || {
        retained.iter().map(|(p, _)| *p).collect::<HashSet<Pair>>()
    });
    let matcher = ThresholdMatcher::new(config.matching.measure, config.matching.threshold);
    let (similarity, score_s) = t.span("matching", "score_pairs", || {
        backend.score_pairs(&matcher, &collection, &candidates, &budget)
    });
    let (clusters, cluster_s) = t.span("clustering", "cluster_edges", || {
        backend.cluster_edges(config.clustering, similarity.edges(), &collection)
    });
    let engine = ctx.metrics();
    let staged = Counts {
        candidates: candidates.len() as u64,
        matches: similarity.len() as u64,
        entities: clusters.num_clusters() as u64,
    };

    // The cascade's filter counters come from the stats variant of the
    // call `score_pairs` makes; its edges must equal the stage's.
    let (with_stats, _) = t.span("matching", "match_candidates_pool_stats", || {
        let graph = Arc::new(CandidateGraph::from_pairs_budgeted(
            collection.len(),
            candidates.iter().copied(),
            &budget,
        ));
        matcher.match_candidates_pool_stats(ctx, &collection, &graph)
    });
    let (similarity_again, filter) = with_stats;
    tally.check(similarity_again.edges() == similarity.edges(), || {
        "match_candidates_pool_stats and score_pairs disagree".to_string()
    });

    // Untraced: the fused driver on a fresh engine, as the CLI runs it.
    let fresh = ExecutionBackend::fused(WORKERS);
    let started = Instant::now();
    let result = Pipeline::new(config.clone()).run_on(&fresh, &collection);
    let run_on_s = started.elapsed().as_secs_f64();
    let fused = Counts {
        candidates: result.blocker.candidates.len() as u64,
        matches: result.similarity.len() as u64,
        entities: result.clusters.num_clusters() as u64,
    };
    tally.check(staged == fused && fused == cli_counts, || {
        format!("counts differ: staged {staged:?}, run_on {fused:?}, CLI {cli_counts:?}")
    });

    let prune_s = (prune_call_s - graph_s).max(0.0);
    let staged_sum_s =
        build_s + purge_s + filter_s + prune_call_s + collect_s + score_s + cluster_s;
    let outside_s = cli_wall - run_on_s - load_s;
    let busy = engine.stage_worker_busy();
    let busy_mean = busy.iter().map(|d| d.as_secs_f64()).sum::<f64>() / busy.len().max(1) as f64;
    let busy_max = busy.iter().map(|d| d.as_secs_f64()).fold(0.0, f64::max);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    m.extend([
        ("profiles.load_s", load_s),
        ("profiles.load_ns_per_profile", ratio(load_s * 1e9, n)),
        (
            "profiles.load_mb_per_s",
            ratio(text.len() as f64 / 1e6, load_s),
        ),
        ("blocking.build_blocks_s", build_s),
        ("blocking.build_ns_per_profile", ratio(build_s * 1e9, n)),
        ("blocking.blocks", initial_blocks),
        ("blocking.purge_s", purge_s),
        ("blocking.filter_blocks_s", filter_s),
        ("blocking.blocks_after_clean", blocks.len() as f64),
        ("blocking.comparisons", comparisons),
        (
            "dataflow.shuffled_records",
            engine.total_shuffle_records() as f64,
        ),
        ("dataflow.tasks", engine.total_tasks() as f64),
        ("dataflow.busy_s", engine.total_busy_time().as_secs_f64()),
        (
            "dataflow.queue_wait_s",
            engine.total_queue_wait().as_secs_f64(),
        ),
        ("dataflow.worker_busy_skew", ratio(busy_max, busy_mean)),
        ("metablocking.graph_build_s", graph_s),
        ("metablocking.prune_s", prune_s),
        ("metablocking.comparisons", comparisons),
        (
            "metablocking.ns_per_comparison",
            ratio(prune_s * 1e9, comparisons),
        ),
        ("metablocking.candidates", staged.candidates as f64),
        (
            "metablocking.retained_ratio",
            ratio(staged.candidates as f64, comparisons),
        ),
        ("matching.score_s", score_s),
        (
            "matching.ns_per_candidate",
            ratio(score_s * 1e9, staged.candidates as f64),
        ),
        ("matching.matches", staged.matches as f64),
        (
            "matching.match_ratio",
            ratio(staged.matches as f64, staged.candidates as f64),
        ),
        (
            "matching.filtered_share",
            ratio(filter.filtered() as f64, filter.pairs as f64),
        ),
        ("clustering.cluster_s", cluster_s),
        (
            "clustering.ns_per_edge",
            ratio(cluster_s * 1e9, staged.matches as f64),
        ),
        ("clustering.entities", staged.entities as f64),
        ("core.run_on_s", run_on_s),
        ("core.staged_sum_s", staged_sum_s),
        ("core.fused_gain", ratio(staged_sum_s, run_on_s)),
        ("core.outside_pipeline_s", outside_s),
    ]);
    detail.insert("cli_wall_s".into(), number(cli_wall));
    // staged_sum + load + outside against the CLI's wall clock: far from 1
    // means the traced pass measures something the CLI does not do.
    detail.insert(
        "accounted_share_of_wall".into(),
        number((staged_sum_s + load_s + outside_s) / cli_wall),
    );
    detail.insert(
        "prune_plus_score_share_of_run_on".into(),
        number((prune_s + score_s) / run_on_s),
    );
    detail.insert(
        "load_plus_build_share_of_wall".into(),
        number((load_s + build_s) / cli_wall),
    );
    Ok(fused)
}

/// What the resolver pass leaves behind for the batch pass to check.
struct Served {
    applied: Vec<Applied>,
    counts: Counts,
}

/// A resident `ResolverState`: bulk-load the warm set, then replay the
/// workload's op mix (the clients' streams, round-robin) with a span per
/// call. A read that finds the state dirty is split into its `refresh` and
/// its clean `query`, which is what `query` does internally.
fn serve_layer(
    w: &Workload,
    plan: &Plan,
    seed: u64,
    t: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<Served, String> {
    let mut resolver = ResolverState::new(w.pipeline_config(), ErKind::Dirty);
    let warm = plan.warm.clone();
    let (loaded, bulk_load_s) = t.span("serve", "bulk_load", || resolver.bulk_load(warm));
    tally.check(loaded == Ok(plan.warm.len()), || {
        format!("bulk_load gave {loaded:?}")
    });
    t.span("serve", "first_refresh", || resolver.refresh());
    let before = resolver.stats().ops;

    let mut streams: Vec<OpStream> = (0..CLIENTS)
        .map(|c| OpStream::new(plan, w.mix, seed, c))
        .collect();
    let mut applied: Vec<Applied> = (0..CLIENTS).map(|_| Applied::default()).collect();
    let (mut upsert_us, mut refresh_ms, mut query_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut dirty = false;
    for i in 0..w.replay_ops {
        let client = i % CLIENTS;
        let op = streams[client].next_op();
        match op {
            Op::Query(index) => {
                if dirty {
                    let ((), s) = t.span("serve", "refresh", || resolver.refresh());
                    refresh_ms.push(s * 1e3);
                    dirty = false;
                }
                let id = &plan.warm[index].original_id;
                let (view, s) = t.span("serve", "query", || resolver.query(0, id));
                query_us.push(s * 1e6);
                tally.check(
                    view.is_some_and(|v| v.members.iter().any(|(_, m)| m == id)),
                    || format!("query {id}: the profile is not in its own cluster"),
                );
            }
            Op::Insert(_) | Op::Update(..) => {
                let profile: Profile = written(plan, op).expect("a write posts a profile");
                let (kind, s) = t.span("serve", "upsert", || resolver.upsert(profile));
                upsert_us.push(s * 1e6);
                let want = if matches!(op, Op::Insert(_)) {
                    OpKind::Inserted
                } else {
                    OpKind::Updated
                };
                tally.check(kind == Ok(want), || format!("{op:?} gave {kind:?}"));
                applied[client].record(op);
                dirty = true;
            }
        }
    }
    let (end, _) = t.span("serve", "stats", || resolver.stats());
    let upserts = (end.ops.inserts + end.ops.updates) - (before.inserts + before.updates);
    let queries = end.ops.queries - before.queries;
    let refreshes = end.ops.refreshes - before.refreshes;
    if upsert_us.is_empty() || query_us.is_empty() || refresh_ms.is_empty() {
        return Err(format!(
            "{} replayed ops gave {} upserts, {} queries, {} refreshes: too few",
            w.replay_ops,
            upsert_us.len(),
            query_us.len(),
            refresh_ms.len()
        ));
    }

    // The HTTP layer: the same clean-state read through `sparker_serve`'s
    // server on loopback, minus the in-process read.
    let mut handle = sparker_serve::serve(resolver, "127.0.0.1:0", WORKERS)
        .map_err(|e| format!("binding the in-process server: {e}"))?;
    let addr = handle.addr();
    let mut http_us = Vec::with_capacity(HTTP_PROBES);
    for i in 0..HTTP_PROBES {
        let id = &plan.warm[i % plan.warm.len()].original_id;
        let (reply, s) = t.span("serve", "http_query", || {
            http::request(addr, "GET", &format!("/clusters/{id}"), "")
        });
        http_us.push(s * 1e6);
        tally.check(reply.as_ref().is_ok_and(|r| r.status == 200), || {
            format!("GET /clusters/{id} on the in-process server failed")
        });
    }
    handle.shutdown();

    let query = median(&query_us);
    m.extend([
        ("serve.bulk_load_s", bulk_load_s),
        ("serve.upsert_us", median(&upsert_us)),
        ("serve.refresh_ms", median(&refresh_ms)),
        ("serve.query_us", query),
        ("serve.http_overhead_us", median(&http_us) - query),
        (
            "serve.refreshes_per_upsert",
            refreshes as f64 / upserts as f64,
        ),
        (
            "serve.refreshes_per_query",
            refreshes as f64 / queries as f64,
        ),
        ("serve.fast_path", f64::from(u8::from(end.fast_path))),
    ]);
    Ok(Served {
        applied,
        counts: Counts {
            candidates: end.candidates as u64,
            matches: end.matches as u64,
            entities: end.entities as u64,
        },
    })
}

/// The engine's shuffle on its own: `group_by_key` over a million
/// `(u32, u32)` records at [`WORKERS`] workers.
fn shuffle_ns_per_record(t: &mut Tracer) -> Result<f64, String> {
    const KEYS: u32 = 50_000;
    let ctx = Context::new(WORKERS);
    let records: Vec<(u32, u32)> = (0..SHUFFLE_RECORDS)
        .map(|i| (i.wrapping_mul(2_654_435_761) % KEYS, i))
        .collect();
    let dataset = ctx.parallelize(records, ctx.default_partitions());
    let (grouped, s) = t.span("dataflow", "group_by_key", || dataset.group_by_key());
    if grouped.count() != KEYS as usize {
        return Err(format!(
            "shuffle gave {} groups, not {KEYS}",
            grouped.count()
        ));
    }
    Ok(s * 1e9 / f64::from(SHUFFLE_RECORDS))
}
