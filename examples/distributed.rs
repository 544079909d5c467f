//! The distributed mode: one pipeline, three execution backends.
//!
//! SparkER's reason to exist is scaling ER on a cluster; this example runs
//! the *same* unified driver (`Pipeline::run_on`) once per
//! `ExecutionBackend` — sequential driver loops, the shuffle-based
//! dataflow engine (broadcast-join meta-blocking, label-propagation
//! connected components) and the morsel-driven pool with the prune→score
//! stages fused (per-worker union–find in the clusterer) — asserts the
//! results are
//! identical, prints each run's per-stage `PipelineReport` table, and
//! dumps the engine's per-stage accounting: the tasks/shuffle-volume
//! numbers that determine cluster cost.
//!
//! ```text
//! cargo run --release --example distributed
//! ```

use sparker::datasets::{generate, DatasetConfig, Domain};
use sparker::{ExecutionBackend, Pipeline, PipelineConfig};

fn main() {
    let ds = generate(&DatasetConfig {
        entities: 1000,
        unmatched_per_source: 250,
        domain: Domain::Products,
        seed: 42,
        ..DatasetConfig::default()
    });
    let pipeline = Pipeline::new(PipelineConfig::default());

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let backends = [
        ExecutionBackend::Sequential,
        ExecutionBackend::dataflow(workers),
        ExecutionBackend::fused(workers),
    ];

    let mut results = Vec::new();
    for backend in &backends {
        let result = pipeline.run_on(backend, &ds.collection);
        println!(
            "--- {} ({} worker{}) ---",
            backend.name(),
            backend.workers(),
            if backend.workers() == 1 { "" } else { "s" },
        );
        print!("{}", result.report.render_table());
        println!();
        results.push(result);
    }

    // The defining property: identical results from all three backends.
    let [seq, df, fused] = &results[..] else {
        unreachable!()
    };
    assert_eq!(seq.blocker.candidates, df.blocker.candidates);
    assert_eq!(seq.similarity, df.similarity);
    assert_eq!(seq.clusters, df.clusters);
    assert_eq!(seq.blocker.candidates, fused.blocker.candidates);
    assert_eq!(seq.similarity, fused.similarity);
    assert_eq!(seq.clusters, fused.clusters);
    println!(
        "results identical: {} candidates, {} matches, {} entities\n",
        df.blocker.candidates.len(),
        df.similarity.len(),
        df.clusters.num_clusters()
    );

    // Engine accounting of the fused run: what a Spark UI would show. The
    // `pipeline/...` rows are the driver's stage-scope markers.
    let snap = backends[2].context().unwrap().metrics();
    println!(
        "{:<24} {:>6} {:>12} {:>12} {:>10}",
        "stage", "tasks", "in-records", "out-records", "shuffled"
    );
    for s in &snap.stages {
        println!(
            "{:<24} {:>6} {:>12} {:>12} {:>10}",
            s.name, s.tasks, s.input_records, s.output_records, s.shuffle_records
        );
    }
    println!(
        "\ntotals: {} stages, {} tasks, {} broadcast variables, {} shuffled records",
        snap.stages.len(),
        snap.total_tasks(),
        snap.broadcasts,
        snap.total_shuffle_records()
    );
    let eval = fused.evaluate(&ds.ground_truth);
    println!(
        "quality: blocking recall {:.4}, cluster F1 {:.4}",
        eval.blocking.recall, eval.clustering.f1
    );
}
