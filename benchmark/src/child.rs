//! Child processes: the batch CLI run to completion and the resident
//! server. Memory is read from the OS (`wait4` rusage for a finished child,
//! `/proc/<pid>/status` VmHWM for a live one), never from the program's own
//! report.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;
use crate::spec::WORKERS;

/// How a finished child ended and what it cost.
pub struct Exit {
    /// Exit code; `None` when a signal killed it.
    pub code: Option<i32>,
    /// Peak resident set in KiB (`ru_maxrss`).
    pub max_rss_kib: u64,
    /// Spawn → reaped.
    pub wall: Duration,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs;
/// `ru_maxrss` is the first long after the timevals.
type Rusage = [i64; 18];
const RU_MAXRSS: usize = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `child` and return its exit code and peak RSS. std's `wait` drops
/// the rusage, so this calls `wait4` itself; the `Child` is consumed so
/// nothing waits on the pid twice.
fn reap(child: Child, started: Instant) -> std::io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage: Rusage = [0; 18];
    // SAFETY: `status` and `usage` are live, writable and at least as large
    // as the `int` and `struct rusage` (144 bytes) the call fills; `pid` is
    // our own unreaped child, held by the `Child` this function owns.
    let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = started.elapsed();
    if got != pid {
        return Err(std::io::Error::last_os_error());
    }
    let exited = status & 0x7f == 0;
    Ok(Exit {
        code: exited.then_some((status >> 8) & 0xff),
        max_rss_kib: usage[RU_MAXRSS].max(0) as u64,
        wall,
    })
}

/// Run `command` (program and arguments) to completion with its stdout in
/// `stdout_path`.
///
/// A child's `ru_maxrss` starts from the resident set of the process that
/// spawned it (the kernel carries the old address space's high-water mark
/// over `exec`), and this harness holds whole datasets. So the program is
/// spawned by a freshly exec'd copy of this binary ([`spawn_child_main`]),
/// which is a couple of MiB, times and reaps it, and reports back.
pub fn run_to_exit(command: &Command, stdout_path: &Path) -> Result<Exit, String> {
    let helper = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(helper)
        .arg(SPAWN_CHILD)
        .arg(stdout_path)
        .arg(command.get_program())
        .args(command.get_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the child helper: {e}"))?;
    let report = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<i64> = report
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let [code, max_rss_kib, wall_ns] = fields.as_slice() else {
        return Err(format!(
            "running {:?}: helper reported {report:?}",
            command.get_program()
        ));
    };
    Ok(Exit {
        code: (*code >= 0).then_some(*code as i32),
        max_rss_kib: *max_rss_kib as u64,
        wall: Duration::from_nanos(*wall_ns as u64),
    })
}

/// First argument that turns this binary into the child helper.
pub const SPAWN_CHILD: &str = "spawn-child";

/// `spawn-child <stdout file> <program> <args…>`: run the program, print
/// `<exit code or -1> <ru_maxrss KiB> <wall ns>`.
pub fn spawn_child_main(argv: &[String]) -> Result<(), String> {
    let [stdout_path, program, args @ ..] = argv else {
        return Err(format!(
            "usage: {SPAWN_CHILD} <stdout file> <program> <args>"
        ));
    };
    let stdout = File::create(stdout_path).map_err(|e| format!("creating {stdout_path}: {e}"))?;
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(stdout))
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {program}: {e}"))?;
    let exit = reap(child, started).map_err(|e| format!("waiting for {program}: {e}"))?;
    println!(
        "{} {} {}",
        exit.code.unwrap_or(-1),
        exit.max_rss_kib,
        exit.wall.as_nanos()
    );
    Ok(())
}

/// A running `sparker serve` child. Dropping it without
/// [`Server::shutdown`] kills and reaps the process, so no error path
/// leaves a server behind.
pub struct Server {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn the server on an ephemeral loopback port and wait until it
    /// prints its bound address.
    pub fn boot(bin: &Path, config: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .arg("--config")
            .arg(config)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Server {
            child: Some(child),
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading server stdout: {e}"))?;
            if n == 0 {
                return Err("server exited before printing its address".to_string());
            }
            if let Some(rest) = line.strip_prefix("serving on http://") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("server address {addr:?}: {e}"))?;
                return Ok(server);
            }
        }
    }

    /// The live server's peak resident set in KiB (VmHWM).
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().expect("server is running").id();
        let path = format!("/proc/{pid}/status");
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// `POST /shutdown`, then wait for the process to drain and exit.
    /// `Ok` only for a clean stop: exit code 0 after "shutdown complete".
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = http::request(self.addr, "POST", "/shutdown", "")
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        if reply.status != 200 {
            return Err(format!("POST /shutdown answered {}", reply.status));
        }
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        let mut child = self.child.take().expect("server is running");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for server: {e}"))?;
        if !status.success() || !rest.contains("shutdown complete") {
            return Err(format!(
                "server stopped uncleanly: {status}, stdout tail {rest:?}"
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
