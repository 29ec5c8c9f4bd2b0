//! The `bas-serverd` child process: spawn on an OS-assigned loopback
//! port, read its peak memory, shut it down over stdin, and kill it if
//! the benchmark stops early.

use crate::workload::{DEPTH, UNIVERSE, WIDTH};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Pids of the daemons this process has running, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Kills every daemon still running (the watchdog's last resort, when
/// the run cannot unwind to the daemons' `Drop`).
pub fn kill_all() {
    for pid in live().drain(..) {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

/// How long a clean shutdown (drain and seal) may take.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it without [`Daemon::shutdown`] kills the
/// process and waits for it, so no daemon outlives a failed run.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `bin` on `127.0.0.1:0` with the workloads' sketch shape
    /// and one shard, and waits for its `listening <addr>` line.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--shard", "0:1.0"])
            .args(["--universe", &UNIVERSE.to_string()])
            .args(["--width", &WIDTH.to_string()])
            .args(["--depth", &DEPTH.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        live().push(child.id());
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut daemon = match stdout {
            Some(stdout) => Daemon {
                child,
                stdin,
                stdout,
                addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            },
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon stdout was not captured".into());
            }
        };
        let line = daemon.read_line()?;
        let addr = line
            .strip_prefix("listening ")
            .ok_or_else(|| format!("expected `listening <addr>`, got {line:?}"))?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("daemon address {addr:?}: {e}"))?;
        Ok(daemon)
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `VmHWM` (peak resident set) of the daemon process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM line in {path}"))?;
        Ok(kib / 1024.0)
    }

    /// Sends `shutdown` on stdin and requires the `shutdown clean` line
    /// and a zero exit status.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut stdin = self.stdin.take().ok_or("daemon stdin already closed")?;
        stdin
            .write_all(b"shutdown\n")
            .map_err(|e| format!("daemon stdin: {e}"))?;
        drop(stdin);
        loop {
            let line = self.read_line()?;
            if line.starts_with("shutdown clean") {
                break;
            }
        }
        let deadline = Instant::now() + SHUTDOWN_LIMIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon closed its stdout".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("daemon stdout: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let pid = self.child.id();
        live().retain(|&p| p != pid);
    }
}
