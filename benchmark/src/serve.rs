//! Serve workloads, tracing off: spawn `sparker serve`, warm it over HTTP,
//! drive a closed loop of [`CLIENTS`] connections, then hold the server's
//! final counts against one cold batch run over the final collection.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sparker_profiles::{parse_json, JsonValue, Profile};

use crate::batch::run_cli;
use crate::child::Server;
use crate::data::{self, Counts, Inputs};
use crate::http;
use crate::ops::{final_collection, written, Applied, Op, OpStream, Plan};
use crate::outcome::{number, text, Outcome, Tally};
use crate::spec::{Workload, CLIENTS};
use crate::stats::{median, percentile, samples_beyond};
use crate::Env;

/// How often set-up is repeated for its median.
const SETUPS: usize = 3;
/// Profiles per warm-load request.
const WARM_BATCH: usize = 500;
/// A percentile is reported only with this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// A warm server and what it was warmed with.
struct Warm {
    server: Server,
    plan: Plan,
}

/// `GET /stats` as a map of its numeric fields.
fn stats(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let reply = http::request(addr, "GET", "/stats", "").map_err(|e| format!("GET /stats: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "GET /stats answered {}: {}",
            reply.status, reply.body
        ));
    }
    let JsonValue::Object(map) = parse_json(&reply.body).map_err(|e| format!("/stats: {e}"))?
    else {
        return Err(format!("/stats is not an object: {}", reply.body));
    };
    Ok(map
        .into_iter()
        .filter_map(|(k, v)| match v {
            JsonValue::Number(n) => Some((k, n)),
            JsonValue::Bool(b) => Some((k, f64::from(u8::from(b)))),
            _ => None,
        })
        .collect())
}

fn post(addr: SocketAddr, profiles: &[Profile], expect: &str) -> Option<String> {
    let bodies: Vec<String> = profiles.iter().map(data::http_body).collect();
    let body = match bodies.as_slice() {
        [one] => one.clone(),
        many => format!("[{}]", many.join(",")),
    };
    match http::request(addr, "POST", "/profiles", &body) {
        Ok(r) if r.status == 200 && r.body == expect => None,
        Ok(r) => Some(format!(
            "POST /profiles answered {} {:?}, expected {expect:?}",
            r.status, r.body
        )),
        Err(e) => Some(format!("POST /profiles: {e}")),
    }
}

/// Set-up of a serve workload: generate the dataset, write the config,
/// boot the server, warm-load it over HTTP, read `/stats` once (which runs
/// the first refresh).
fn set_up(w: &Workload, seed: u64, env: &Env, tally: &mut Tally) -> Result<Warm, String> {
    let plan = Plan::generate(w, seed);
    let config_path = env.work.join("serve.conf");
    std::fs::write(&config_path, w.pipeline_config().to_config_string())
        .map_err(|e| format!("writing {}: {e}", config_path.display()))?;
    let server = Server::boot(&env.sparker_bin, &config_path)?;
    for batch in plan.warm.chunks(WARM_BATCH) {
        let expect = format!("{{\"inserted\":{},\"updated\":0}}", batch.len());
        tally.record(post(server.addr, batch, &expect));
    }
    let s = stats(server.addr)?;
    tally.check(s.get("profiles") == Some(&(plan.warm.len() as f64)), || {
        format!(
            "/stats after warm-load: {:?} profiles, posted {}",
            s.get("profiles"),
            plan.warm.len()
        )
    });
    tally.check(s.get("fast_path") == Some(&1.0), || {
        "server is not on the incremental fast path".to_string()
    });
    Ok(Warm { server, plan })
}

/// One client's log.
#[derive(Default)]
struct ClientLog {
    query_ms: Vec<f64>,
    upsert_ms: Vec<f64>,
    tally: Tally,
    applied: Applied,
}

/// A closed loop: the next request goes out when the reply is in. A failed
/// or refused request is counted and leaves no latency sample.
fn client(plan: &Plan, mut ops: OpStream, addr: SocketAddr, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let op = ops.next_op();
        let started = Instant::now();
        let problem = match op {
            Op::Query(i) => {
                let id = &plan.warm[i].original_id;
                let needle = format!("\"id\":\"{id}\"");
                match http::request(addr, "GET", &format!("/clusters/{id}"), "") {
                    Ok(r) if r.status == 200 && r.body.contains(&needle) => None,
                    Ok(r) => Some(format!(
                        "GET /clusters/{id} answered {} {:?}",
                        r.status, r.body
                    )),
                    Err(e) => Some(format!("GET /clusters/{id}: {e}")),
                }
            }
            Op::Insert(_) | Op::Update(..) => {
                let profile = written(plan, op).expect("a write posts a profile");
                let expect = if matches!(op, Op::Insert(_)) {
                    "{\"inserted\":1,\"updated\":0}"
                } else {
                    "{\"inserted\":0,\"updated\":1}"
                };
                post(addr, &[profile], expect)
            }
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if problem.is_none() {
            match op {
                Op::Query(_) => log.query_ms.push(ms),
                _ => log.upsert_ms.push(ms),
            }
            log.applied.record(op);
        }
        log.tally.record(problem);
    }
    log
}

/// p50 and p99 of one op kind. The p99 is `supported` with at least
/// [`MIN_BEYOND`] samples beyond it.
struct Latency {
    samples: usize,
    p50: f64,
    p99: f64,
    supported: bool,
}

fn latency(samples: &mut [f64]) -> Option<Latency> {
    samples.sort_by(f64::total_cmp);
    (!samples.is_empty()).then(|| Latency {
        samples: samples.len(),
        p50: percentile(samples, 0.5),
        p99: percentile(samples, 0.99),
        supported: samples_beyond(samples.len(), 0.99) >= MIN_BEYOND,
    })
}

pub fn run(w: &Workload, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let mut tally = Tally::default();

    // Set-up, repeated for its median; the last warm server is measured.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm = None;
    for _ in 0..SETUPS {
        if let Some(Warm { server, .. }) = warm.take() {
            tally.record(server.shutdown().err());
        }
        let started = Instant::now();
        warm = Some(set_up(w, seed, env, &mut tally)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let Warm { server, plan } = warm.expect("SETUPS > 0");
    let addr = server.addr;

    // The measured closed loop.
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ops = OpStream::new(&plan, w.mix, seed, c);
                let plan = &plan;
                scope.spawn(move || client(plan, ops, addr, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut query_ms = Vec::new();
    let mut upsert_ms = Vec::new();
    let mut applied = Vec::new();
    for log in logs {
        query_ms.extend(log.query_ms);
        upsert_ms.extend(log.upsert_ms);
        tally.merge(log.tally);
        applied.push(log.applied);
    }
    let completed = query_ms.len() + upsert_ms.len();
    let inserts: usize = applied.iter().map(|a| a.inserted.len()).sum();
    let updates = upsert_ms.len() - inserts;

    // The server's own counters must agree with what the clients saw.
    let end = stats(addr)?;
    let expect = [
        ("profiles", plan.warm.len() + inserts),
        ("inserts", plan.warm.len() + inserts),
        ("updates", updates),
        ("queries", query_ms.len()),
    ];
    for (field, want) in expect {
        tally.check(end.get(field) == Some(&(want as f64)), || {
            format!(
                "/stats {field} = {:?}, clients count {want}",
                end.get(field)
            )
        });
    }
    let peak_rss_mib = server.peak_rss_kib()? as f64 / 1024.0;
    tally.record(server.shutdown().err());

    // One cold batch run over the final collection, same config: the
    // incremental state must equal it, and its CSV gives the F1.
    let warm_profiles = plan.warm.len();
    let collection = final_collection(&plan, &applied);
    let inputs = Inputs::write(&env.work, collection, plan.truth, &w.pipeline_config())?;
    let cold = run_cli(env, &inputs)?;
    let served = Counts {
        candidates: end.get("candidates").copied().unwrap_or(-1.0) as u64,
        matches: end.get("matches").copied().unwrap_or(-1.0) as u64,
        entities: end.get("entities").copied().unwrap_or(-1.0) as u64,
    };
    tally.check(served == cold.counts, || {
        format!(
            "server ended at {served:?}, cold batch run gives {:?}",
            cold.counts
        )
    });

    // The op kind the mix is about carries the latency metrics.
    let queries = latency(&mut query_ms);
    let upserts = latency(&mut upsert_ms);
    let (main_name, main) = if w.mix.write_share < 0.5 {
        ("query", &queries)
    } else {
        ("upsert", &upserts)
    };
    // At the design rates the main kind has several thousand samples. A
    // host slow enough to leave its p99 unsupported still gets a number
    // (the metric must not vanish), flagged in `latency_tail_is`.
    let main = main.as_ref().ok_or("the main op kind has no sample")?;
    let tail_is = format!(
        "p99 of {} {main_name} samples{}",
        main.samples,
        if main.supported {
            ""
        } else {
            " (fewer than ten beyond it: unreliable)"
        }
    );

    let mut detail = BTreeMap::new();
    detail.insert("warm_profiles".into(), number(warm_profiles as f64));
    detail.insert(
        "final_profiles".into(),
        number(inputs.collection.len() as f64),
    );
    detail.insert("measured_s".into(), number(wall));
    detail.insert("ops".into(), number(completed as f64));
    detail.insert("inserts".into(), number(inserts as f64));
    detail.insert("updates".into(), number(updates as f64));
    detail.insert("latency_tail_is".into(), text(tail_is));
    for (kind, lat) in [("query", &queries), ("upsert", &upserts)] {
        let Some(lat) = lat else { continue };
        detail.insert(format!("{kind}_samples"), number(lat.samples as f64));
        detail.insert(format!("{kind}_p50_ms"), number(lat.p50));
        detail.insert(
            format!("{kind}_p99_ms"),
            if lat.supported || kind == main_name {
                number(lat.p99)
            } else {
                text(format!(
                    "omitted: {} samples leave fewer than {MIN_BEYOND} beyond p99",
                    lat.samples
                ))
            },
        );
    }
    let refreshes = end.get("refreshes").copied().unwrap_or(f64::NAN);
    detail.insert("refreshes".into(), number(refreshes));
    detail.insert(
        "refreshes_per_upsert".into(),
        number(refreshes / (warm_profiles + upsert_ms.len()) as f64),
    );
    cold.counts.describe(&mut detail);
    detail.insert(
        "cold_batch_wall_s".into(),
        number(cold.exit.wall.as_secs_f64()),
    );

    Ok(Outcome {
        tally,
        metrics: vec![
            ("throughput", completed as f64 / wall),
            ("latency_p50_ms", main.p50),
            ("latency_tail_ms", main.p99),
            ("peak_rss_mb", peak_rss_mib),
            ("cluster_f1", cold.f1),
            ("setup_s", median(&setups)),
        ],
        detail,
    })
}
