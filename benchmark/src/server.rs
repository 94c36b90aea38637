//! The server child: `bench-server` serves one workload's program behind
//! a real `IngressServer` in its own process, so that its CPU time and
//! peak memory are the server's alone and not the load generator's.
//!
//! The protocol is lines. The child prints `READY <addr> <setup_s>` once
//! it listens. Each `CPU` line on its stdin is answered with `CPU
//! <seconds>`, the process's CPU time so far by its own clock. When its
//! stdin reaches EOF it shuts the server down and prints `STATS
//! key=value ...`, the server's own lifetime counters.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::workload::Workload;

/// The `bench-server` binary built next to the running one.
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    // Test binaries live one level down, in `deps/`.
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("bench-server"))
        .find(|p| p.is_file())
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "bench-server is not built"))
}

/// A running server child.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Child start to listening, seconds, as the child measured it.
    pub setup_s: f64,
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// `READY <addr> <setup_s>`.
fn parse_ready(line: &str) -> Option<(SocketAddr, f64)> {
    let mut parts = line.strip_prefix("READY ")?.split_ascii_whitespace();
    Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
}

/// `STATS key=value ...`.
fn parse_stats(line: &str) -> Option<BTreeMap<String, u64>> {
    line.strip_prefix("STATS")?
        .split_ascii_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

impl Server {
    /// Start the child and wait until it listens.
    pub fn spawn(w: Workload) -> io::Result<Server> {
        let mut child = Command::new(server_binary()?)
            .args(["--workload", w.name()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        match parse_ready(&line) {
            Some((addr, setup_s)) => Ok(Server {
                child,
                stdout,
                addr,
                setup_s,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(bad(format!("bench-server did not come up: {line:?}")))
            }
        }
    }

    /// The child's process id, for `/proc`.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds the child has used so far.
    pub fn cpu_seconds(&mut self) -> io::Result<f64> {
        let stdin = self.child.stdin.as_mut().expect("stdin is piped");
        stdin.write_all(b"CPU\n")?;
        stdin.flush()?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        line.strip_prefix("CPU ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad(format!("unreadable CPU line {line:?}")))
    }

    /// Close the child's stdin, let it drain and stop, and return the
    /// counters it printed.
    pub fn shutdown(mut self) -> io::Result<BTreeMap<String, u64>> {
        drop(self.child.stdin.take());
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(bad(format!("bench-server exited with {status}")));
        }
        parse_stats(&line).ok_or_else(|| bad(format!("unreadable stats line {line:?}")))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `shutdown` the child is already reaped and both calls
        // are no-ops; on an error path this is what stops it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_line_parses() {
        let (addr, s) = parse_ready("READY 127.0.0.1:4242 0.012345678\n").unwrap();
        assert_eq!(addr.port(), 4242);
        assert!((s - 0.012345678).abs() < 1e-12);
        assert!(parse_ready("thread panicked").is_none());
    }

    #[test]
    fn stats_line_parses() {
        let m = parse_stats("STATS completed=7 shed=0 peak_buffered=12\n").unwrap();
        assert_eq!(m["completed"], 7);
        assert_eq!(m["peak_buffered"], 12);
        assert!(parse_stats("STATS completed=x").is_none());
        assert!(parse_stats("nope").is_none());
    }
}
