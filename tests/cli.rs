//! Integration tests of the `sparker` CLI binary (batch mode).

use std::process::Command;

fn sparker() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sparker"))
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sparker-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn clean_clean_csv_run_with_ground_truth_and_output() {
    let dir = tempdir("cc");
    let a = write(
        &dir,
        "a.csv",
        "id,name,price\na1,sony bravia tv kd40,699.99\na2,samsung galaxy phone s9,899.00\n",
    );
    let b = write(
        &dir,
        "b.csv",
        "id,title,cost\nb1,sony KD40 bravia television,689.99\nb2,apple iphone x,999.00\n",
    );
    let gt = write(&dir, "gt.csv", "id_a,id_b\na1,b1\n");
    let out = dir.join("entities.csv");

    let result = sparker()
        .args([
            "--source-a",
            &a,
            "--source-b",
            &b,
            "--ground-truth",
            &gt,
            "--output",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("loaded 4 profiles"), "{stdout}");
    assert!(stdout.contains("clustering recall 1.0000"), "{stdout}");

    let entities = std::fs::read_to_string(&out).unwrap();
    assert!(entities.starts_with("entity_id,source,original_id"));
    // a1 and b1 share an entity id.
    let rows: Vec<Vec<&str>> = entities
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let entity_of = |oid: &str| rows.iter().find(|r| r[2] == oid).unwrap()[0];
    assert_eq!(entity_of("a1"), entity_of("b1"));
    assert_ne!(entity_of("a1"), entity_of("a2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dirty_jsonl_run() {
    let dir = tempdir("dirty");
    let src = write(
        &dir,
        "records.jsonl",
        concat!(
            "{\"id\":\"r1\",\"title\":\"entity resolution at scale\",\"year\":2019}\n",
            "{\"id\":\"r2\",\"title\":\"entity resolution at scale\",\"year\":2019}\n",
            "{\"id\":\"r3\",\"title\":\"unrelated paper topic graphs\",\"year\":2020}\n",
        ),
    );
    let result = sparker().args(["--source-a", &src]).output().unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("loaded 3 profiles (Dirty)"), "{stdout}");
    assert!(stdout.contains("1 with >1 profile"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dirty_jsonl_run_with_ground_truth() {
    // Both ids of a dirty ground-truth row name records of the one source.
    let dir = tempdir("dirty-gt");
    let src = write(
        &dir,
        "d.jsonl",
        concat!(
            "{\"id\":\"a\",\"title\":\"entity resolution at scale\"}\n",
            "{\"id\":\"b\",\"title\":\"entity resolution at scale\"}\n",
            "{\"id\":\"c\",\"title\":\"unrelated paper topic graphs\"}\n",
        ),
    );
    let gt = write(&dir, "gt.csv", "id_a,id_b\na,b\n");
    let result = sparker()
        .args(["--source-a", &src, "--ground-truth", &gt])
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(
        stdout.contains("evaluation against ground truth (1 matches):"),
        "{stdout}"
    );
    assert!(stdout.contains("clustering recall 1.0000"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_file_is_honoured() {
    let dir = tempdir("config");
    let a = write(&dir, "a.csv", "id,name\na1,alpha beta gamma\n");
    let b = write(&dir, "b.csv", "id,name\nb1,alpha beta gamma\n");
    // A config that disables meta-blocking and uses dice at a low threshold.
    let config = write(
        &dir,
        "pipeline.conf",
        "loose_schema = off\npurge = off\nfilter = off\nmeta_blocking = off\n\
         matcher.measure = dice\nmatcher.threshold = 0.2\nclustering = unique-mapping\n",
    );
    let result = sparker()
        .args(["--source-a", &a, "--source-b", &b, "--config", &config])
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("1 with >1 profile"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_config_value_fails_cleanly_naming_its_line() {
    // Values the pipeline stages would assert on (exit 101, a panic
    // message) must be refused while the config is read: non-zero exit,
    // no panic, and the message names the offending line.
    let dir = tempdir("badconfig");
    let a = write(
        &dir,
        "a.csv",
        "id,name\na1,alpha beta gamma\na2,alpha beta\n",
    );
    for (i, entry) in [
        "mb.pruning = WEP 0",
        "mb.pruning = BLAST 2",
        "filter = 1.5",
        "matcher.threshold = NaN",
    ]
    .into_iter()
    .enumerate()
    {
        let config = write(
            &dir,
            &format!("bad{i}.conf"),
            &format!("purge = off\n{entry}\n"),
        );
        let result = sparker()
            .args(["--source-a", &a, "--config", &config])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(!result.status.success(), "{entry}: accepted");
        assert_ne!(result.status.code(), Some(101), "{entry}: {stderr}");
        assert!(!stderr.contains("panicked"), "{entry}: {stderr}");
        assert!(stderr.contains("line 2"), "{entry}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backends_agree_on_result_counts() {
    let dir = tempdir("workers");
    let a = write(
        &dir,
        "a.csv",
        "id,name
a1,sony bravia tv kd40
a2,samsung galaxy phone
",
    );
    let b = write(
        &dir,
        "b.csv",
        "id,title
b1,sony kd40 bravia television
b2,apple iphone
",
    );
    let run = |backend: &str| {
        let result = sparker()
            .args([
                "--source-a",
                &a,
                "--source-b",
                &b,
                "--backend",
                backend,
                "--workers",
                "4",
            ])
            .output()
            .unwrap();
        assert!(
            result.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&result.stderr)
        );
        String::from_utf8_lossy(&result.stdout).into_owned()
    };
    let seq_out = run("sequential");
    let df_out = run("dataflow");
    let fused_out = run("fused");
    assert!(df_out.contains("dataflow engine: 4 workers"), "{df_out}");
    assert!(fused_out.contains("fused engine: 4 workers"), "{fused_out}");
    // Every backend prints the per-stage report table...
    for out in [&seq_out, &df_out, &fused_out] {
        for stage in [
            "build_blocks",
            "filter_blocks",
            "prune_candidates",
            "score_pairs",
            "cluster_edges",
        ] {
            assert!(out.contains(stage), "missing {stage} in {out}");
        }
    }
    // ...and all three agree on the result counts.
    let counts = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("result counts:"))
            .map(|l| l.to_string())
            .expect("result counts line")
    };
    assert_eq!(counts(&seq_out), counts(&df_out));
    assert_eq!(counts(&seq_out), counts(&fused_out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_backend_is_fused() {
    let dir = tempdir("default-backend");
    let src = write(
        &dir,
        "records.csv",
        "id,title\nr1,entity resolution at scale\nr2,entity resolution at scale\n",
    );
    let result = sparker().args(["--source-a", &src]).output().unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("fused engine:"), "{stdout}");
    assert!(stdout.contains("backend=fused"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_backend_fails_cleanly() {
    // `pool` was a backend once; it must fail like any other unknown name,
    // and the error names the three that exist.
    for name in ["spark", "pool"] {
        let result = sparker()
            .args(["--demo", "--backend", name])
            .output()
            .unwrap();
        assert!(!result.status.success(), "{name}");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(stderr.contains("unknown backend"), "{name}: {stderr}");
        assert!(
            stderr.contains("sequential, dataflow or fused"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn bad_flags_fail_cleanly() {
    for flag in ["--bogus", "--fused"] {
        let result = sparker().args(["--demo", flag]).output().unwrap();
        assert!(!result.status.success(), "{flag}");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }

    let result = sparker().output().unwrap();
    assert!(!result.status.success());
    assert!(String::from_utf8_lossy(&result.stderr).contains("--source-a is required"));
}

#[test]
fn missing_file_fails_cleanly() {
    let result = sparker()
        .args(["--source-a", "/nonexistent/x.csv"])
        .output()
        .unwrap();
    assert!(!result.status.success());
    assert!(String::from_utf8_lossy(&result.stderr).contains("reading"));
}

#[test]
fn entity_csv_is_byte_identical_to_write_csv() {
    // Ids with a separator, a quote and a newline need CSV quoting; the
    // streamed output must quote them exactly as `write_csv` does over the
    // rows of `EntityClusters::clusters`.
    use sparker::profiles::{profiles_from_json_lines, write_csv, ProfileCollection, SourceId};
    use sparker::{Pipeline, PipelineConfig};
    let dir = tempdir("csv-bytes");
    let src = write(
        &dir,
        "records.jsonl",
        concat!(
            "{\"id\":\"a,1\",\"title\":\"sony bravia tv kd40 black\"}\n",
            "{\"id\":\"say \\\"hi\\\"\",\"title\":\"sony bravia tv kd40 black edition\"}\n",
            "{\"id\":\"two\\nlines\",\"title\":\"apple iphone x silver\"}\n",
            "{\"id\":\"plain\",\"title\":\"apple iphone x silver 64gb\"}\n",
            "{\"id\":\"lone, \\\"odd\\\"\",\"title\":\"garden hose green\"}\n",
        ),
    );
    let out = dir.join("entities.csv");
    let result = sparker()
        .args(["--source-a", &src, "--workers", "2", "--output"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );

    let text = std::fs::read_to_string(&src).unwrap();
    let collection =
        ProfileCollection::dirty(profiles_from_json_lines(&text, SourceId(0), "id").unwrap());
    let clusters = Pipeline::new(PipelineConfig::default())
        .run(&collection)
        .clusters;
    let mut rows = vec![vec![
        "entity_id".to_string(),
        "source".to_string(),
        "original_id".to_string(),
    ]];
    for (entity, members) in clusters.clusters() {
        for m in members {
            let p = collection.get(m);
            rows.push(vec![
                entity.to_string(),
                p.source.0.to_string(),
                p.original_id.clone(),
            ]);
        }
    }
    assert!(
        clusters.num_clusters() < collection.len(),
        "some ids cluster"
    );
    let expected = write_csv(&rows, ',');
    assert!(expected.contains("\"two\nlines\""), "{expected}");
    assert_eq!(std::fs::read_to_string(&out).unwrap(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The lines of a run's stdout that must not depend on the backend: the
/// per-stage table, the engine, `fused:`, `load:` and `memory:` lines are
/// measurements and go, along with every `(…)` timing.
fn semantic(stdout: &str) -> Vec<String> {
    let mut in_table = false;
    stdout
        .lines()
        .filter(|l| {
            if l.starts_with("stage ") {
                in_table = true;
            } else if in_table && l.starts_with("total ") {
                in_table = false;
                return false;
            }
            !in_table
                && !["fused engine:", "fused:", "load:", "memory:"]
                    .iter()
                    .any(|p| l.starts_with(p))
        })
        .map(cut_timings)
        .collect()
}

/// `line` with every ` (…)` timing cut.
fn cut_timings(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(open) = rest.find(" (") {
        out.push_str(&rest[..open]);
        match rest[open..].find(')') {
            Some(close) => rest = &rest[open + close + 1..],
            None => {
                rest = &rest[open..];
                break;
            }
        }
    }
    out.push_str(rest);
    out
}

#[test]
fn fused_reads_of_the_candidate_set_match_sequential() {
    // The fused backend keeps no retained edges after scoring them: its
    // candidate set re-derives them the first time something reads the
    // pairs. `--show-lost` (membership) and `--export-edges` (the weighted
    // edges in order) are such reads; both must print and write exactly
    // what the sequential run does (`semantic` lines).
    let dir = tempdir("on-demand");
    let tsv = dir.join("edges.tsv");
    let run = |backend: &[&str]| {
        let result = sparker()
            .args(["--preset", "dirty_1k", "--edge-scorer", "js", "--show-lost"])
            .args(backend)
            .arg("--export-edges")
            .arg(&tsv)
            .output()
            .unwrap();
        assert!(
            result.status.success(),
            "{backend:?}: {}",
            String::from_utf8_lossy(&result.stderr)
        );
        let stdout = String::from_utf8_lossy(&result.stdout).into_owned();
        (stdout, std::fs::read(&tsv).unwrap())
    };
    let (seq_out, seq_tsv) = run(&["--backend", "sequential"]);
    let (fused_out, fused_tsv) = run(&["--backend", "fused", "--workers", "2"]);
    assert!(fused_out.contains("fused engine: 2 workers"), "{fused_out}");
    assert!(
        fused_out
            .lines()
            .any(|l| l.starts_with("fused:") && l.contains(", payloads ")),
        "{fused_out}"
    );
    let seq_lines = semantic(&seq_out);
    assert!(
        seq_lines
            .iter()
            .any(|l| l.starts_with("lost ground-truth pairs after blocking:")),
        "{seq_out}"
    );
    assert!(
        seq_lines.iter().any(|l| l.starts_with("exported ")),
        "{seq_out}"
    );
    assert_eq!(semantic(&fused_out), seq_lines);
    assert!(seq_tsv.len() > 100, "the export holds edges");
    assert!(seq_tsv == fused_tsv, "the exported TSVs differ");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dense_fused_run_caps_its_batches() {
    // One block shared by 2 000 profiles (~2 M forward edges) is cut into
    // more morsels than the worker count asks for, none of whose batches
    // exceeds the plan's 16 Ki-pair cap.
    let dir = tempdir("dense");
    let mut csv = String::from("id,name\n");
    for i in 0..2000 {
        csv.push_str(&format!("p{i},common w{} v{} u{}\n", i % 17, i % 23, i % 5));
    }
    let source = write(&dir, "dense.csv", &csv);
    let config = write(&dir, "dense.conf", "purge = off\nfilter = off\n");
    let result = sparker()
        .args(["--source-a", &source, "--config", &config])
        .args(["--backend", "fused", "--workers", "2"])
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    let fused = stdout
        .lines()
        .find(|l| l.starts_with("fused:"))
        .unwrap_or_else(|| panic!("no fused: line in {stdout}"));
    let number_before = |marker: &str| -> usize {
        let head = &fused[..fused.find(marker).unwrap_or_else(|| panic!("{fused}"))];
        head.rsplit(' ').next().unwrap().parse().unwrap()
    };
    let morsels: usize = fused["fused: ".len()..]
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let max_batch = number_before(" pairs (");
    assert!(morsels > 64, "{fused}");
    assert!(max_batch > 0 && max_batch <= 16384, "{fused}");
    assert!(
        fused.contains(&format!("({} KiB)", max_batch * 16 / 1024)),
        "{fused}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_free_load_matches_text_keeping_runs() {
    // A fused JSON-lines run whose configuration reads no text tokenizes
    // while parsing and keeps bare profiles; `--show-lost` (which reads
    // shared tokens) and the sequential backend keep the text. All three
    // must print the same counts, cascade counters and evaluation and
    // write the same entity CSV and edge TSV — dirty and clean-clean.
    use sparker::datasets::{
        export_dataset, generate, generate_dirty, DatasetConfig, ExportFormat,
    };
    let dir = tempdir("text-free");
    let config = DatasetConfig {
        entities: 150,
        unmatched_per_source: 40,
        seed: 11,
        ..DatasetConfig::default()
    };
    for (tag, ds) in [
        ("clean", generate(&config)),
        ("dirty", generate_dirty(&config, 3)),
    ] {
        let files = export_dataset(&ds, dir.join(tag), ExportFormat::JsonLines).unwrap();
        let run = |extra: &[&str]| {
            let (csv, tsv) = (dir.join("out.csv"), dir.join("out.tsv"));
            let mut command = sparker();
            command.arg("--source-a").arg(&files.sources[0]);
            if let Some(b) = files.sources.get(1) {
                command.arg("--source-b").arg(b);
            }
            let result = command
                .arg("--ground-truth")
                .arg(&files.ground_truth)
                .arg("--output")
                .arg(&csv)
                .arg("--export-edges")
                .arg(&tsv)
                .args(extra)
                .output()
                .unwrap();
            assert!(
                result.status.success(),
                "{tag} {extra:?}: {}",
                String::from_utf8_lossy(&result.stderr)
            );
            let stdout = String::from_utf8_lossy(&result.stdout).into_owned();
            let text = stdout
                .lines()
                .find(|l| l.starts_with("text: "))
                .unwrap_or_else(|| panic!("no text: line in {stdout}"))
                .to_string();
            let lines: Vec<String> = semantic(&stdout)
                .into_iter()
                .filter(|l| {
                    !(l.is_empty()
                        || l.starts_with("text: ")
                        || l.starts_with("lost ground-truth pairs")
                        || l.contains(" <-> "))
                })
                .collect();
            (
                text,
                lines,
                std::fs::read(&csv).unwrap(),
                std::fs::read(&tsv).unwrap(),
            )
        };
        let free = run(&["--backend", "fused", "--workers", "2"]);
        let kept = run(&["--backend", "fused", "--workers", "2", "--show-lost"]);
        let oracle = run(&["--backend", "sequential"]);
        assert_eq!(
            free.0,
            "text: dropped at load (tokens interned while parsing)"
        );
        assert_eq!(kept.0, "text: kept (--show-lost)");
        assert_eq!(oracle.0, "text: kept (--backend sequential)");
        assert!(
            free.1.iter().any(|l| l.starts_with("  clustering recall")),
            "{tag}: {:?}",
            free.1
        );
        for (name, other) in [("text-keeping fused", &kept), ("sequential", &oracle)] {
            assert_eq!(free.1, other.1, "{tag}: {name} printed otherwise");
            assert!(free.2 == other.2, "{tag}: {name} wrote another entity CSV");
            assert!(free.3 == other.3, "{tag}: {name} exported other edges");
        }
    }
    // Every setting that reads text keeps it, and says which.
    let files = export_dataset(
        &generate(&config),
        dir.join("readers"),
        ExportFormat::JsonLines,
    )
    .unwrap();
    for (conf, reader) in [
        ("loose_schema = on\n", "loose_schema"),
        ("mb.entropy = true\n", "mb.entropy"),
        ("matcher.measure = levenshtein\n", "matcher.measure"),
        ("meta_blocking = off\n", "meta_blocking"),
    ] {
        let conf_path = write(&dir, "readers.conf", conf);
        let result = sparker()
            .arg("--source-a")
            .arg(&files.sources[0])
            .args([
                "--config",
                &conf_path,
                "--backend",
                "fused",
                "--workers",
                "2",
            ])
            .output()
            .unwrap();
        assert!(result.status.success(), "{conf}");
        let stdout = String::from_utf8_lossy(&result.stdout);
        assert!(
            stdout.contains(&format!("text: kept ({reader})")),
            "{conf}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
