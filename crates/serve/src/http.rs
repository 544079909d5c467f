//! Dependency-free HTTP/1.1 JSON front-end for [`ResolverState`].
//!
//! A thread-per-connection `std::net` server (the container is offline, so
//! no async runtime or HTTP crate is available — nor needed: the resolver
//! serializes on a mutex anyway, so a bounded thread pool per connection is
//! the right shape). One request per connection, `Connection: close`.
//!
//! # Endpoints
//!
//! * `POST /profiles` — body is one profile object or an array of them:
//!   `{"source": 0, "id": "p1", "attributes": {"name": "sony tv"}}`
//!   (`source` optional, default 0; attribute values are stringified with
//!   the same rules as the batch JSON loader). The request is applied as
//!   one delta with one maintenance pass ([`ResolverState::bulk_load`]):
//!   an array is all or nothing. Responds `{"inserted": n, "updated": m}`.
//! * `GET /clusters/{id}` (dirty) or `GET /clusters/{source}/{id}` —
//!   the profile's cluster: `{"cluster": label, "members": [{"source": s,
//!   "id": "..."}]}`; 404 for unknown ids.
//! * `GET /stats` — aggregate counts, field-aligned with the batch CLI's
//!   `result counts:` line: `{"profiles": .., "candidates": ..,
//!   "matches": .., "entities": .., ...}`.
//! * `POST /shutdown` — begin graceful shutdown (in-flight requests
//!   drain; the accept loop exits).
//!
//! Malformed requests/bodies get 400, unknown routes/ids 404, a body
//! over [`MAX_BODY_BYTES`] 413 (refused before anything is allocated for
//! it), a request or header line over [`MAX_LINE_BYTES`] — or more than
//! [`MAX_HEADERS`] header lines — 431; always with a JSON
//! `{"error": "..."}` body. A client that sends or reads nothing for
//! [`IDLE_TIMEOUT`] is disconnected.
//!
//! A handler that panics answers 500 and frees its slot. The panic may
//! leave the resolver poisoned (it panicked mid-update); every request
//! that needs the resolver then answers 500 instead of reading a state
//! that may be half-written, while the server keeps accepting and shuts
//! down cleanly.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparker_profiles::{parse_json, JsonValue, Profile, SourceId};

use crate::resolver::ResolverState;

/// Largest request body accepted (64 MiB) — far above any batch of
/// profiles a client posts, far below what would exhaust memory.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Longest request line or header line accepted, terminator included.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// How much of a refused request is read and discarded before closing,
/// and for how long at most, so the client sees the reply instead of a
/// connection reset.
const DRAIN_BYTES: usize = 1 << 20;
const DRAIN_TIME: Duration = Duration::from_secs(1);

/// Longest a connection may go without a byte arriving while its request
/// is read, or leaving while its reply is written, before it is closed and
/// its handler slot freed — so idle or stalled clients cannot hold every
/// slot.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(2);

struct Shared {
    resolver: Mutex<ResolverState>,
    shutdown: AtomicBool,
    /// Bound address; `/shutdown` self-connects to it to unblock the
    /// accept loop.
    addr: SocketAddr,
    /// (in-flight handler count, available worker slots)
    gauge: Mutex<(usize, usize)>,
    gauge_cv: Condvar,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// The resolver, or a 500 if a panic poisoned it.
    fn resolver(&self) -> Result<MutexGuard<'_, ResolverState>, Reply> {
        self.resolver.lock().map_err(|_| {
            Reply::Internal(
                "the resolver is unavailable: an earlier request panicked while holding it"
                    .to_string(),
            )
        })
    }

    /// The gauge; it guards two counters no panic can leave half-updated.
    fn gauge(&self) -> MutexGuard<'_, (usize, usize)> {
        self.gauge
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A reserved handler slot: returned on drop, so a handler that panics
/// still frees it.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        let mut gauge = self.0.gauge();
        gauge.1 += 1;
        gauge.0 -= 1;
        drop(gauge);
        self.0.gauge_cv.notify_all();
    }
}

/// Handle to a running server: its bound address plus the levers for a
/// graceful stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request graceful shutdown: stop accepting, drain in-flight
    /// requests, join the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.drain();
    }

    /// Wait until no handler is in flight.
    fn drain(&self) {
        let mut gauge = self.shared.gauge();
        while gauge.0 > 0 {
            gauge = self
                .shared
                .gauge_cv
                .wait(gauge)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Run a closure against the resident resolver (e.g. to warm it or to
    /// verify equivalence from a test).
    pub fn with_resolver<T>(&self, f: impl FnOnce(&mut ResolverState) -> T) -> T {
        f(&mut self.shared.resolver.lock().expect("resolver lock"))
    }

    /// Block until the accept loop exits (i.e. until `/shutdown` or
    /// [`ServerHandle::shutdown`]), then drain in-flight requests.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.drain();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Boot the server on `addr` (use port 0 for an ephemeral port) with at
/// most `workers` concurrent connection handlers.
pub fn serve(
    resolver: ResolverState,
    addr: impl ToSocketAddrs,
    workers: usize,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let workers = workers.max(1);
    let shared = Arc::new(Shared {
        resolver: Mutex::new(resolver),
        shutdown: AtomicBool::new(false),
        addr,
        gauge: Mutex::new((0, workers)),
        gauge_cv: Condvar::new(),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("sparker-serve-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The connection that woke us (or a late client) gets dropped;
            // in-flight handlers keep draining.
            break;
        }
        // Reserve a worker slot (bounds handler concurrency) and count the
        // request as in-flight BEFORE the handler thread detaches, so a
        // shutdown triggered right after accept still waits for it. The
        // slot goes back when the handler's guard drops — or right away,
        // with the closure, if the thread cannot be spawned.
        {
            let mut gauge = shared.gauge();
            while gauge.1 == 0 {
                gauge = shared
                    .gauge_cv
                    .wait(gauge)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            gauge.1 -= 1;
            gauge.0 += 1;
        }
        let slot = Slot(Arc::clone(&shared));
        let _ = std::thread::Builder::new()
            .name("sparker-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &slot.0);
                drop(slot);
            });
    }
}

struct Request {
    method: String,
    path: String,
    body: String,
}

enum Reply {
    Ok(JsonValue),
    BadRequest(String),
    NotFound(String),
    /// A handler panicked, now or while holding the resolver before: 500.
    Internal(String),
}

/// Why a request was refused before routing.
enum RequestError {
    /// Unreadable or malformed: 400.
    Malformed(String),
    /// Declared body over [`MAX_BODY_BYTES`]: 413.
    BodyTooLarge(usize),
    /// Request or header line over [`MAX_LINE_BYTES`], or too many header
    /// lines: 431.
    HeadersTooLarge(&'static str),
    /// Nothing arrived for [`IDLE_TIMEOUT`]: closed without a reply.
    Idle,
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RequestError::Idle,
            _ => RequestError::Malformed(e.to_string()),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    stream.set_write_timeout(Some(IDLE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match read_request(&mut reader) {
        Ok(r) => r,
        Err(RequestError::Idle) => return Ok(()),
        Err(RequestError::Malformed(e)) => {
            return write_reply(
                &stream,
                400,
                &error_json(&format!("malformed request: {e}")),
            );
        }
        Err(RequestError::BodyTooLarge(len)) => {
            let msg = format!("body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit");
            return refuse(&stream, reader, 413, &msg);
        }
        Err(RequestError::HeadersTooLarge(what)) => {
            let msg = format!(
                "{what} exceeds the limit ({MAX_LINE_BYTES} bytes per line, {MAX_HEADERS} headers)"
            );
            return refuse(&stream, reader, 431, &msg);
        }
    };
    let reply = panic::catch_unwind(AssertUnwindSafe(|| route(&request, shared)))
        .unwrap_or_else(|_| Reply::Internal("the request handler panicked".to_string()));
    match reply {
        Reply::Ok(v) => write_reply(&stream, 200, &v.to_string()),
        Reply::BadRequest(msg) => write_reply(&stream, 400, &error_json(&msg)),
        Reply::NotFound(msg) => write_reply(&stream, 404, &error_json(&msg)),
        Reply::Internal(msg) => write_reply(&stream, 500, &error_json(&msg)),
    }
}

/// Reply to a request refused part-way through reading it, then read and
/// discard what the client is still sending — at most [`DRAIN_BYTES`],
/// for at most [`DRAIN_TIME`]: closing with unread input would reset the
/// connection under the reply.
fn refuse(
    stream: &TcpStream,
    mut reader: BufReader<TcpStream>,
    status: u16,
    msg: &str,
) -> io::Result<()> {
    write_reply(stream, status, &error_json(msg))?;
    stream.shutdown(Shutdown::Write)?;
    stream.set_read_timeout(Some(DRAIN_TIME))?;
    let deadline = Instant::now() + DRAIN_TIME;
    let mut buf = [0u8; 8192];
    let mut drained = 0;
    while drained < DRAIN_BYTES && Instant::now() < deadline {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    Ok(())
}

/// Read one line of at most [`MAX_LINE_BYTES`] into `line`.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    what: &'static str,
) -> Result<(), RequestError> {
    line.clear();
    (&mut *reader)
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(line)?;
    if line.len() > MAX_LINE_BYTES {
        return Err(RequestError::HeadersTooLarge(what));
    }
    Ok(())
}

fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, RequestError> {
    let malformed = |msg: &str| RequestError::Malformed(msg.to_string());
    let mut line = String::new();
    read_bounded_line(reader, &mut line, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| malformed("missing request path"))?
        .to_string();
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        read_bounded_line(reader, &mut line, "header line")?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::HeadersTooLarge("header count"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| malformed("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

fn route(request: &Request, shared: &Shared) -> Reply {
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["profiles"]) => post_profiles(&request.body, shared),
        ("GET", ["clusters", id]) => get_cluster(0, id, shared),
        ("GET", ["clusters", source, id]) => match source.parse::<u32>() {
            Ok(s) => get_cluster(s, id, shared),
            Err(_) => Reply::BadRequest(format!("source must be an integer, got {source:?}")),
        },
        ("GET", ["stats"]) => get_stats(shared),
        ("POST", ["shutdown"]) => {
            shared.begin_shutdown();
            let mut body = BTreeMap::new();
            body.insert("shutdown".to_string(), JsonValue::Bool(true));
            Reply::Ok(JsonValue::Object(body))
        }
        (_, _) => Reply::NotFound(format!("no route for {} {}", request.method, request.path)),
    }
}

/// Parse one profile object into a [`Profile`], mirroring the batch JSON
/// loader's stringification rules.
fn profile_from_json(value: &JsonValue) -> Result<Profile, String> {
    let JsonValue::Object(map) = value else {
        return Err("profile must be a JSON object".to_string());
    };
    let source = match map.get("source") {
        None => 0u8,
        Some(JsonValue::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= u8::MAX as f64 => {
            *n as u8
        }
        Some(other) => {
            return Err(format!(
                "source must be a small non-negative integer, got {other}"
            ))
        }
    };
    let id = match map.get("id") {
        Some(JsonValue::String(s)) if !s.is_empty() => s.clone(),
        Some(other) => return Err(format!("id must be a non-empty string, got {other}")),
        None => return Err("missing required field: id".to_string()),
    };
    let attributes = match map.get("attributes") {
        Some(JsonValue::Object(attrs)) => attrs,
        Some(other) => return Err(format!("attributes must be an object, got {other}")),
        None => return Err("missing required field: attributes".to_string()),
    };
    let mut builder = Profile::builder(SourceId(source), &id);
    for (name, v) in attributes {
        // Same convention as the batch JSON-lines loader: an array value
        // becomes one attribute instance per element.
        match v {
            JsonValue::Array(items) => {
                for item in items {
                    builder = builder.attr(name.clone(), item.to_text());
                }
            }
            other => builder = builder.attr(name.clone(), other.to_text()),
        }
    }
    Ok(builder.build())
}

fn post_profiles(body: &str, shared: &Shared) -> Reply {
    let value = match parse_json(body) {
        Ok(v) => v,
        Err(e) => return Reply::BadRequest(format!("invalid JSON body: {e}")),
    };
    let items: Vec<&JsonValue> = match &value {
        JsonValue::Array(items) => items.iter().collect(),
        obj @ JsonValue::Object(_) => vec![obj],
        other => {
            return Reply::BadRequest(format!(
                "body must be a profile object or an array of them, got {other}"
            ))
        }
    };
    let mut profiles = Vec::with_capacity(items.len());
    for item in items {
        match profile_from_json(item) {
            Ok(p) => profiles.push(p),
            Err(e) => return Reply::BadRequest(e),
        }
    }
    let mut resolver = match shared.resolver() {
        Ok(resolver) => resolver,
        Err(reply) => return reply,
    };
    // One request is one delta: all or nothing, one maintenance pass.
    let before = resolver.num_profiles();
    let n = match resolver.bulk_load(profiles) {
        Ok(n) => n,
        Err(e) => return Reply::BadRequest(e),
    };
    let inserted = resolver.num_profiles() - before;
    let updated = n - inserted;
    let mut out = BTreeMap::new();
    out.insert("inserted".to_string(), JsonValue::Number(inserted as f64));
    out.insert("updated".to_string(), JsonValue::Number(updated as f64));
    Reply::Ok(JsonValue::Object(out))
}

fn get_cluster(source: u32, id: &str, shared: &Shared) -> Reply {
    let mut resolver = match shared.resolver() {
        Ok(resolver) => resolver,
        Err(reply) => return reply,
    };
    match resolver.query(source, id) {
        None => Reply::NotFound(format!("unknown profile: source={source} id={id:?}")),
        Some(view) => {
            let members = view
                .members
                .iter()
                .map(|(s, oid)| {
                    let mut m = BTreeMap::new();
                    m.insert("source".to_string(), JsonValue::Number(*s as f64));
                    m.insert("id".to_string(), JsonValue::String(oid.clone()));
                    JsonValue::Object(m)
                })
                .collect();
            let mut out = BTreeMap::new();
            out.insert(
                "cluster".to_string(),
                JsonValue::Number(view.cluster as f64),
            );
            out.insert("members".to_string(), JsonValue::Array(members));
            Reply::Ok(JsonValue::Object(out))
        }
    }
}

fn get_stats(shared: &Shared) -> Reply {
    let mut resolver = match shared.resolver() {
        Ok(resolver) => resolver,
        Err(reply) => return reply,
    };
    let s = resolver.stats();
    let num = |n: u64| JsonValue::Number(n as f64);
    let mut out = BTreeMap::new();
    out.insert("profiles".to_string(), num(s.profiles as u64));
    out.insert(
        "sources".to_string(),
        JsonValue::Array(vec![num(s.sources[0] as u64), num(s.sources[1] as u64)]),
    );
    out.insert("candidates".to_string(), num(s.candidates as u64));
    out.insert("matches".to_string(), num(s.matches as u64));
    out.insert("entities".to_string(), num(s.entities as u64));
    out.insert("fast_path".to_string(), JsonValue::Bool(s.fast_path));
    out.insert("inserts".to_string(), num(s.ops.inserts));
    out.insert("updates".to_string(), num(s.ops.updates));
    out.insert("queries".to_string(), num(s.ops.queries));
    out.insert("refreshes".to_string(), num(s.ops.refreshes));
    Reply::Ok(JsonValue::Object(out))
}

fn error_json(msg: &str) -> String {
    let mut out = BTreeMap::new();
    out.insert("error".to_string(), JsonValue::String(msg.to_string()));
    JsonValue::Object(out).to_string()
}

fn write_reply(mut stream: &TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
