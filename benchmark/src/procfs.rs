//! Host-side accounting read from `/proc`, and the `cloud-node` child.
//!
//! CPU time is `utime + stime` of `/proc/<pid>/stat` (all threads of the
//! process, exited ones included) in clock ticks; Linux reports those at
//! `USER_HZ = 100` on every supported platform. Peak memory is `VmHWM` of
//! `/proc/<pid>/status`.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use smallbig::core::transport::NodeStats;
use smallbig::distributed::{LINE_LISTENING, LINE_STATS};

const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds `pid` has consumed so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    cpu_seconds_of(&stat).ok_or_else(|| format!("{path}: unexpected layout"))
}

/// Parses `utime + stime` out of one `/proc/<pid>/stat` line. The command
/// name (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
fn cpu_seconds_of(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of `pid`, in MB (10⁶ bytes).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    status_mb(pid, "VmHWM:")
}

/// Current resident set (`VmRSS`) of `pid`, in MB.
pub fn rss_mb(pid: u32) -> Result<f64, String> {
    status_mb(pid, "VmRSS:")
}

fn status_mb(pid: u32, key: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status_mb_of(&status, key).ok_or_else(|| format!("{path}: no {key} line"))
}

fn status_mb_of(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Every node currently running, so that the wall-clock limit can kill
/// them from another thread before the process exits.
static LIVE_NODES: Mutex<Vec<Arc<Mutex<Child>>>> = Mutex::new(Vec::new());

fn kill(child: &Mutex<Child>) {
    // A poisoned lock still guards a valid `Child`: killing it is safe.
    let mut child = child.lock().unwrap_or_else(|e| e.into_inner());
    let _ = child.kill();
    let _ = child.wait();
}

/// Kills every running node (the wall-clock limit's last act).
pub fn kill_nodes() {
    let nodes = LIVE_NODES.lock().unwrap_or_else(|e| e.into_inner());
    nodes.iter().for_each(|node| kill(node));
}

/// A running `cloud-node` process.
///
/// The node binds an ephemeral port (read back from its `LISTENING`
/// line), serves until `shutdown` arrives on its stdin, then prints
/// `STATS`. Dropping the handle on any path that did not call
/// [`CloudNode::shutdown`] kills the child, so a failed run never leaves a
/// node behind.
pub struct CloudNode {
    child: Arc<Mutex<Child>>,
    lines: mpsc::Receiver<String>,
    /// `ip:port` the node listens on.
    pub addr: String,
    /// Wall time from spawn to the `LISTENING` line.
    pub spawn_s: f64,
}

impl CloudNode {
    /// Spawns `bin` for the helmet workload and waits for it to listen.
    pub fn spawn(bin: &Path, timeout: Duration) -> Result<CloudNode, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--split", "helmet"])
            .args(["--expect-sessions", "0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let out = child.stdout.take().expect("stdout was piped");
        let child = Arc::new(Mutex::new(child));
        LIVE_NODES
            .lock()
            .expect("node registry poisoned")
            .push(Arc::clone(&child));
        let (tx, lines) = mpsc::channel();
        // Detached on purpose: the thread ends at the child's EOF, which
        // `shutdown` and `Drop` both force.
        std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut node = CloudNode {
            child,
            lines,
            addr: String::new(),
            spawn_s: 0.0,
        };
        let deadline = t0 + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match node.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix(LINE_LISTENING) {
                        node.addr = addr.trim().to_string();
                        node.spawn_s = t0.elapsed().as_secs_f64();
                        return Ok(node);
                    }
                }
                // Dropping `node` kills the child.
                Err(_) => return Err("cloud-node never printed LISTENING".to_string()),
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child().id()
    }

    fn child(&self) -> std::sync::MutexGuard<'_, Child> {
        self.child.lock().expect("node handle poisoned")
    }

    /// Asks the node to stop, waits for a clean exit and returns its
    /// `STATS`. A non-zero exit, a missing `STATS` line or a node still
    /// alive at `timeout` is an error (and the node is killed).
    pub fn shutdown(self, timeout: Duration) -> Result<NodeStats, String> {
        let deadline = Instant::now() + timeout;
        let stdin = self.child().stdin.take();
        if let Some(mut stdin) = stdin {
            stdin
                .write_all(b"shutdown\n")
                .and_then(|()| stdin.flush())
                .map_err(|e| format!("cloud-node stdin: {e}"))?;
        }
        let status = loop {
            let polled = self.child().try_wait();
            match polled {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("cloud-node ignored shutdown".to_string()),
                Err(e) => return Err(format!("cloud-node wait: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("cloud-node exited with {status}"));
        }
        let mut stats = None;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(json) = line.strip_prefix(LINE_STATS) {
                        stats =
                            Some(serde_json::from_str(json).map_err(|e| format!("STATS: {e}"))?);
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err("cloud-node stdout never closed".to_string())
                }
            }
        }
        stats.ok_or_else(|| "cloud-node exited without a STATS line".to_string())
    }
}

impl Drop for CloudNode {
    fn drop(&mut self) {
        // After a clean `shutdown` the child is already reaped and the
        // kill is a no-op; on every other path this is the kill switch.
        kill(&self.child);
        let mut nodes = LIVE_NODES.lock().unwrap_or_else(|e| e.into_inner());
        nodes.retain(|node| !Arc::ptr_eq(node, &self.child));
    }
}

/// Fails unless `bin` exists and is at least as new as every source file
/// cargo built it from (the dep-info file cargo writes beside it) — a
/// stale node would be measured as if it were the current tree.
pub fn require_fresh(bin: &Path) -> Result<(), String> {
    let hint = "run benchmark/run.sh, which builds it";
    let modified = |p: &Path| {
        std::fs::metadata(p)
            .and_then(|m| m.modified())
            .map_err(|e| format!("{}: {e} ({hint})", p.display()))
    };
    let built = modified(bin)?;
    let dep_info = bin.with_extension("d");
    let deps = std::fs::read_to_string(&dep_info)
        .map_err(|e| format!("{}: {e} ({hint})", dep_info.display()))?;
    let sources = deps.split_once(": ").map_or("", |(_, s)| s);
    for source in sources.split_whitespace() {
        if modified(Path::new(source))? > built {
            return Err(format!("{} is older than {source} ({hint})", bin.display()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a parenthesis, utime 250, stime 50.
        let stat = "42 (cloud node) x) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(cpu_seconds_of(stat), Some(3.0));
        assert_eq!(cpu_seconds_of("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2000 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(status_mb_of(status, "VmHWM:"), Some(2.048));
        assert_eq!(status_mb_of(status, "VmRSS:"), Some(0.1024));
        assert_eq!(status_mb_of("Name:\tx\n", "VmHWM:"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_seconds(std::process::id()).unwrap() >= 0.0);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }
}
