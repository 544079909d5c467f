//! Integration tests for the HTTP front-end: ephemeral-port boot,
//! concurrent clients, JSON well-formedness, 400/404/413/431 behavior,
//! idle-connection timeouts, and graceful shutdown with no dropped
//! in-flight requests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sparker_core::PipelineConfig;
use sparker_profiles::{parse_json, ErKind, JsonValue};
use sparker_serve::http::IDLE_TIMEOUT;
use sparker_serve::{serve, ResolverState, ServerHandle};

fn boot(workers: usize) -> ServerHandle {
    let resolver = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
    serve(resolver, "127.0.0.1:0", workers).expect("bind ephemeral port")
}

/// Minimal HTTP/1.1 client: one request, read to EOF (the server closes),
/// return (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, JsonValue) {
    let (status, body) = request(addr, "GET", path, "");
    let json = parse_json(&body).expect("response body is well-formed JSON");
    (status, json)
}

fn field_u64(v: &JsonValue, key: &str) -> u64 {
    let JsonValue::Object(map) = v else {
        panic!("expected object, got {v}")
    };
    match map.get(key) {
        Some(JsonValue::Number(n)) => *n as u64,
        other => panic!("field {key}: expected number, got {other:?}"),
    }
}

#[test]
fn insert_query_stats_roundtrip() {
    let handle = boot(4);
    let addr = handle.addr();

    let (status, body) = request(
        addr,
        "POST",
        "/profiles",
        r#"[{"id":"a","attributes":{"name":"sony bravia tv"}},
            {"id":"b","attributes":{"name":"sony bravia tv 40"}},
            {"id":"c","attributes":{"name":"garmin gps watch"}}]"#,
    );
    assert_eq!(status, 200);
    let reply = parse_json(&body).expect("well-formed JSON");
    assert_eq!(field_u64(&reply, "inserted"), 3);
    assert_eq!(field_u64(&reply, "updated"), 0);

    let (status, cluster) = get_json(addr, "/clusters/a");
    assert_eq!(status, 200);
    let JsonValue::Object(map) = &cluster else {
        panic!("expected object")
    };
    let JsonValue::Array(members) = &map["members"] else {
        panic!("members must be an array")
    };
    let ids: Vec<&str> = members
        .iter()
        .map(|m| {
            let JsonValue::Object(m) = m else {
                panic!("member must be an object")
            };
            m["id"].as_str().expect("member id is a string")
        })
        .collect();
    assert_eq!(ids, ["a", "b"]);

    let (status, stats) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    assert_eq!(field_u64(&stats, "profiles"), 3);
    assert_eq!(field_u64(&stats, "entities"), 2);
    assert_eq!(field_u64(&stats, "inserts"), 3);

    // Updates are recognized by (source, id).
    let (status, body) = request(
        addr,
        "POST",
        "/profiles",
        r#"{"id":"a","attributes":{"name":"something else now"}}"#,
    );
    assert_eq!(status, 200);
    let reply = parse_json(&body).expect("well-formed JSON");
    assert_eq!(field_u64(&reply, "inserted"), 0);
    assert_eq!(field_u64(&reply, "updated"), 1);
}

#[test]
fn malformed_bodies_get_400() {
    let handle = boot(2);
    let addr = handle.addr();
    let cases = [
        "not json at all",
        r#"{"id":"a"}"#,                                    // missing attributes
        r#"{"attributes":{"name":"x"}}"#,                   // missing id
        r#"{"id":"","attributes":{"name":"x"}}"#,           // empty id
        r#"{"id":"a","attributes":"flat"}"#,                // attributes not an object
        r#"{"id":"a","source":7,"attributes":{"n":"x"}}"#,  // source out of range (dirty)
        r#"{"id":"a","source":-1,"attributes":{"n":"x"}}"#, // negative source
        r#"[{"id":"a","attributes":{"n":"x"}}, 42]"#,       // non-object in array
        r#"{"id":"a","attributes":{"n":"x"}} trailing"#,    // trailing garbage
        // Parses, but its second element's source is out of range (dirty).
        r#"[{"id":"a","attributes":{"n":"x"}},{"id":"b","source":1,"attributes":{"n":"y"}}]"#,
    ];
    for body in cases {
        let (status, reply) = request(addr, "POST", "/profiles", body);
        assert_eq!(status, 400, "body {body:?} must be rejected, got {reply}");
        let json = parse_json(&reply).expect("error body is well-formed JSON");
        let JsonValue::Object(map) = json else {
            panic!("error body must be an object")
        };
        assert!(map.contains_key("error"), "error body names the problem");
    }
    // A rejected batch is atomic: nothing from the mixed arrays landed,
    // whether the parse or the resolver refused them.
    let (_, stats) = get_json(addr, "/stats");
    assert_eq!(field_u64(&stats, "profiles"), 0);
}

#[test]
fn unknown_routes_and_ids_get_404() {
    let handle = boot(2);
    let addr = handle.addr();
    let (status, _) = get_json(addr, "/clusters/never-inserted");
    assert_eq!(status, 404);
    let (status, _) = get_json(addr, "/nope");
    assert_eq!(status, 404);
    let (status, body) = request(addr, "DELETE", "/profiles", "");
    assert_eq!(status, 404, "unsupported method on a known path: {body}");
    // Bad source segment is a 400, not a 404 (the route exists).
    let (status, _) = request(addr, "GET", "/clusters/xyz/a", "");
    assert_eq!(status, 400);
}

#[test]
fn concurrent_clients_see_consistent_state() {
    let handle = boot(8);
    let addr = handle.addr();
    let threads = 8usize;
    let per_thread = 12usize;
    let failures = Arc::new(AtomicUsize::new(0));
    let mut joins = Vec::new();
    for t in 0..threads {
        let failures = Arc::clone(&failures);
        joins.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let body = format!(
                    r#"{{"id":"t{t}-{i}","attributes":{{"name":"item {} common words"}}}}"#,
                    (t * per_thread + i) % 5
                );
                let (status, _) = request(addr, "POST", "/profiles", &body);
                if status != 200 {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
                // Interleave reads: every response must be parseable and
                // internally consistent.
                let (status, stats) = get_json(addr, "/stats");
                if status != 200 || field_u64(&stats, "entities") > field_u64(&stats, "profiles") {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    assert_eq!(failures.load(Ordering::SeqCst), 0);
    let (_, stats) = get_json(addr, "/stats");
    assert_eq!(field_u64(&stats, "profiles"), (threads * per_thread) as u64);
    assert_eq!(field_u64(&stats, "inserts"), (threads * per_thread) as u64);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let mut handle = boot(4);
    let addr = handle.addr();
    // Launch a wave of inserts, then shut down while they are in flight.
    // Every request that was accepted must complete with a valid response;
    // requests arriving after shutdown may be refused but must never hang.
    let clients: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let body =
                    format!(r#"{{"id":"g{i}","attributes":{{"name":"shutdown wave {i}"}}}}"#);
                // Late requests race the listener teardown; connection
                // errors are acceptable, half-written responses are not.
                let mut stream = match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => return true,
                };
                let req = format!(
                    "POST /profiles HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                if stream.write_all(req.as_bytes()).is_err() {
                    return true;
                }
                let mut response = String::new();
                if stream.read_to_string(&mut response).is_err() {
                    return true;
                }
                // An accepted request must have gotten a complete reply.
                response.is_empty() || response.contains("200 OK")
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(5));
    handle.shutdown();
    for c in clients {
        assert!(
            c.join().expect("client thread"),
            "dropped in-flight request"
        );
    }
    // After shutdown the resolver state is still intact and queryable
    // in-process; whatever number of inserts landed must be clustered.
    handle.with_resolver(|r| {
        let stats = r.stats();
        assert_eq!(
            stats.entities, stats.profiles,
            "distinct texts stay singletons"
        );
    });
}

#[test]
fn http_shutdown_endpoint_stops_the_server() {
    let mut handle = boot(2);
    let addr = handle.addr();
    let (status, body) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("true"));
    // join() returns once the accept loop exits and in-flight work drains.
    handle.join();
    // New connections are now refused or dropped without a response.
    let late = TcpStream::connect(addr);
    if let Ok(mut s) = late {
        let _ = s.write_all(b"GET /stats HTTP/1.1\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.is_empty(), "no handler should answer after shutdown");
    }
}

#[test]
fn large_multibyte_body_is_stored_verbatim() {
    // A 500-profile body (~80 KB) with raw multi-byte text, escaped quotes,
    // backslashes and newlines, `\u` escapes and a surrogate pair: every
    // value must come back exactly as sent.
    let handle = boot(2);
    let addr = handle.addr();
    let expected_name = |i: usize| format!("café 中文 😀 \"q{i}\" back\\slash\nline é😀 {i}");
    let body: Vec<String> = (0..500)
        .map(|i| {
            let name = JsonValue::String(expected_name(i)).to_string();
            // The tail of `name` again, written with `\u` escapes.
            let name = name.replacen(" é😀 ", " \\u00e9\\ud83d\\ude00 ", 1);
            format!(r#"{{"id":"p{i}-ß","attributes":{{"name":{name},"tags":["Ж{i}","naïve"]}}}}"#)
        })
        .collect();
    let body = format!("[{}]", body.join(",\n"));
    assert!(body.len() > 60_000, "a warm-load-sized body");
    assert!(body.contains("\\ud83d\\ude00"), "surrogate pairs are sent");
    let (status, reply) = request(addr, "POST", "/profiles", &body);
    assert_eq!(status, 200, "{reply}");
    let reply = parse_json(&reply).expect("well-formed JSON");
    assert_eq!(field_u64(&reply, "inserted"), 500);

    let stored = handle.with_resolver(|r| r.materialize_collection());
    assert_eq!(stored.len(), 500);
    for i in 0..500 {
        let id = format!("p{i}-ß");
        let p = stored
            .profiles()
            .iter()
            .find(|p| p.original_id == id)
            .unwrap_or_else(|| panic!("{id} stored"));
        assert_eq!(p.value_of("name"), Some(expected_name(i).as_str()));
        let tags: Vec<&str> = p.values_of("tags").collect();
        assert_eq!(tags, [format!("Ж{i}").as_str(), "naïve"]);
    }
}

/// Send raw request bytes, read the reply to EOF, return (status, body).
fn raw_request(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Boot a server holding two profiles, with its lazy refresh already
/// done, and return it with its settled `/stats`.
fn boot_settled() -> (ServerHandle, JsonValue) {
    let handle = boot(2);
    let addr = handle.addr();
    let (status, _) = request(
        addr,
        "POST",
        "/profiles",
        r#"[{"id":"a","attributes":{"name":"sony tv"}},{"id":"b","attributes":{"name":"sony tv 40"}}]"#,
    );
    assert_eq!(status, 200);
    get_json(addr, "/stats");
    let (status, stats) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    (handle, stats)
}

fn assert_refused(addr: SocketAddr, bytes: &[u8], status: u16, needle: &str) {
    let (got, body) = raw_request(addr, bytes);
    assert_eq!(got, status, "body: {body}");
    let JsonValue::Object(map) = parse_json(&body).expect("error body is JSON") else {
        panic!("error body must be an object: {body}")
    };
    let Some(JsonValue::String(msg)) = map.get("error") else {
        panic!("error body lacks an error message: {body}")
    };
    assert!(msg.contains(needle), "{msg}");
}

#[test]
fn oversized_body_gets_413_and_the_server_keeps_answering() {
    let (mut handle, before) = boot_settled();
    let addr = handle.addr();
    // A declared body of 100 TB: refused from the header alone.
    assert_refused(
        addr,
        b"POST /profiles HTTP/1.1\r\nHost: localhost\r\nContent-Length: 100000000000000\r\n\r\n",
        413,
        "exceeds",
    );
    // The same server answers the next connection, unchanged.
    let (status, after) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    assert_eq!(after, before);
    handle.shutdown();
}

#[test]
fn overlong_request_and_header_lines_get_431() {
    let (mut handle, before) = boot_settled();
    let addr = handle.addr();
    let long = "x".repeat(20_000);
    assert_refused(
        addr,
        format!("GET /clusters/{long} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes(),
        431,
        "request line",
    );
    assert_refused(
        addr,
        format!("GET /stats HTTP/1.1\r\nX-Padding: {long}\r\n\r\n").as_bytes(),
        431,
        "header line",
    );
    let many: String = (0..200).map(|i| format!("X-H{i}: v\r\n")).collect();
    assert_refused(
        addr,
        format!("GET /stats HTTP/1.1\r\n{many}\r\n").as_bytes(),
        431,
        "header count",
    );
    let (status, after) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    assert_eq!(after, before);
    handle.shutdown();
}

#[test]
fn idle_connections_time_out_and_free_their_slots() {
    let (mut handle, before) = boot_settled();
    let addr = handle.addr();
    // As many stalled clients as the server has handler slots (2), each
    // halfway through its request line and then silent.
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"GET /sta")
                .expect("send half a request line");
            stream
        })
        .collect();
    // A fresh request is answered once the idle ones time out; reading
    // its reply gives up (and fails the test) well after that.
    let patience = IDLE_TIMEOUT + std::time::Duration::from_secs(3);
    let started = std::time::Instant::now();
    let mut fresh = TcpStream::connect(addr).expect("connect");
    fresh.set_read_timeout(Some(patience)).expect("set timeout");
    fresh
        .write_all(b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    fresh
        .read_to_string(&mut response)
        .expect("a fresh request must be answered while idle clients hold every slot");
    let waited = started.elapsed();
    assert!(waited < patience, "a fresh request waited {waited:?}");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let (_, body) = response.split_once("\r\n\r\n").expect("a body");
    assert_eq!(parse_json(body).expect("JSON body"), before);
    // The idle clients were closed without a reply.
    for mut stream in idle {
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty(), "idle client got {rest:?}");
    }
    handle.shutdown();
}

#[test]
fn a_panic_under_the_resolver_lock_answers_500_and_frees_every_slot() {
    // The scenario runs on its own thread: a server that wedges leaves it
    // stuck (dropping the handle waits for the leaked slots), and the test
    // fails on the timeout below instead of hanging.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let mut handle = boot(2);
        let addr = handle.addr();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.with_resolver(|_| panic!("a handler panics mid-update"))
        }));
        assert!(panicked.is_err());
        // More requests than the server has handler slots (2), each
        // needing the poisoned resolver.
        let requests = [
            ("GET", "/stats", ""),
            ("GET", "/clusters/a", ""),
            (
                "POST",
                "/profiles",
                r#"{"id":"a","attributes":{"name":"sony tv"}}"#,
            ),
            ("GET", "/stats", ""),
            ("GET", "/clusters/0/a", ""),
        ];
        for (method, path, body) in requests {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let patience = IDLE_TIMEOUT + std::time::Duration::from_secs(3);
            stream
                .set_read_timeout(Some(patience))
                .expect("set timeout");
            let req = format!(
                "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(req.as_bytes()).expect("send request");
            let mut response = String::new();
            stream
                .read_to_string(&mut response)
                .unwrap_or_else(|e| panic!("{method} {path} got no reply: {e}"));
            assert!(
                response.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
                "{method} {path}: {response:?}"
            );
            let (_, body) = response.split_once("\r\n\r\n").expect("a body");
            let JsonValue::Object(reply) = parse_json(body).expect("JSON body") else {
                panic!("{method} {path}: {body}")
            };
            assert!(
                matches!(reply.get("error"), Some(JsonValue::String(_))),
                "{body}"
            );
        }
        // A route that does not need the resolver still answers as before.
        assert_eq!(request(addr, "GET", "/nowhere", "").0, 404);
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("every request answers 500 and shutdown returns");
    scenario
        .join()
        .expect("the scenario thread finished cleanly");
}
