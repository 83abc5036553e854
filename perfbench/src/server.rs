//! `fdm-serve` child processes: spawning on ephemeral ports, readiness,
//! SIGKILL, and what `/proc` and `/metrics` say about them.
//!
//! Every spawned process is owned by a [`Server`] whose `Drop` kills and
//! reaps it, so an early return or a panic anywhere in a workload still
//! leaves no server behind; [`assert_no_strays`] checks that at the end of
//! every run.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a server may take to answer its first `PING`.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Step of the readiness poll. Well under a millisecond, so the poll does
/// not quantize `setup_s` or `recovery_s`.
const READY_POLL: Duration = Duration::from_micros(200);

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// Spawn attempts in [`start`]: a port handed out as free can still be
/// taken by another socket before the server binds it; the server then
/// exits, and is started again on fresh ports.
pub const SPAWN_ATTEMPTS: usize = 3;

static SPAWNED: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Ports this run has handed to a server.
static PORTS: Mutex<BTreeSet<u16>> = Mutex::new(BTreeSet::new());

/// A port the kernel just handed out as free and this run has not used
/// yet. The listener is closed before the server binds it.
fn free_port() -> Result<u16, String> {
    loop {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let port = listener.local_addr().map_err(|e| e.to_string())?.port();
        if PORTS.lock().expect("port registry").insert(port) {
            return Ok(port);
        }
    }
}

/// Spawns a server and waits until it answers `PING`, spawning it again
/// on fresh ports if it exits first.
pub fn start(bin: &Path, args: &[String], log: &Path) -> Result<(Server, TcpStream), String> {
    let mut last = String::new();
    for _ in 0..SPAWN_ATTEMPTS {
        let mut server = Server::spawn(bin, args, log)?;
        match server.connect_ready() {
            Ok(stream) => return Ok((server, stream)),
            Err(e) if server.exited() => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// One running `fdm-serve` process.
pub struct Server {
    child: Option<Child>,
    /// Protocol address, `127.0.0.1:<port>`.
    pub addr: String,
    /// `/metrics` address, `127.0.0.1:<port>`.
    pub metrics_addr: String,
    log: PathBuf,
}

impl Server {
    /// Spawns `bin` with `args` plus TCP and metrics listeners on fresh
    /// ephemeral ports. Its stderr goes to `log`. Does not wait for
    /// readiness; see [`Server::connect_ready`].
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let addr = format!("127.0.0.1:{}", free_port()?);
        let metrics_addr = format!("127.0.0.1:{}", free_port()?);
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(args)
            .args(["--listen", &addr, "--metrics", &metrics_addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        SPAWNED.lock().expect("spawn registry").push(child.id());
        Ok(Server {
            child: Some(child),
            addr,
            metrics_addr,
            log: log.to_path_buf(),
        })
    }

    /// Process id, while the process runs.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Polls connect + `PING` every [`READY_POLL`] until the server
    /// answers, and returns the connection that got the `pong`. A refused,
    /// reset or foreign connection means "not yet" (a server that lost its
    /// port exits); only an exited process or the deadline is an error.
    pub fn connect_ready(&mut self) -> Result<TcpStream, String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Some(child) = self.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!(
                        "server exited early ({status}): {}",
                        self.log_tail()
                    ));
                }
            }
            if let Ok(stream) = TcpStream::connect(&self.addr) {
                if ping(&stream).unwrap_or(false) {
                    return Ok(stream);
                }
            }
            if Instant::now() > deadline {
                return Err(format!("server not ready after {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(READY_POLL);
        }
    }

    /// Whether the process has exited on its own.
    pub fn exited(&mut self) -> bool {
        self.child
            .as_mut()
            .is_none_or(|c| matches!(c.try_wait(), Ok(Some(_))))
    }

    /// SIGKILLs the process and reaps it.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.pid().ok_or("server not running")?;
        peak_rss_mb_of(&pid.to_string())
    }

    /// User + system CPU time consumed so far, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let pid = self.pid().ok_or("server not running")?;
        cpu_ms_of(&pid.to_string())
    }

    /// One `GET /metrics` scrape.
    pub fn scrape(&self) -> Result<String, String> {
        let mut stream = TcpStream::connect(&self.metrics_addr).map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        stream
            .read_to_string(&mut body)
            .map_err(|e| e.to_string())?;
        Ok(body)
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        text.lines().rev().take(5).collect::<Vec<_>>().join(" | ")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Sends `PING` on `stream`; whether the reply was `OK pong`. Something
/// that is not a protocol server may never answer, hence the timeout.
fn ping(stream: &TcpStream) -> std::io::Result<bool> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    (&*stream).write_all(b"PING\n")?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    stream.set_read_timeout(None)?;
    Ok(line.trim_end() == "OK pong")
}

/// `VmHWM` of `/proc/<pid>/status` (`pid` may be `self`), in MiB.
pub fn peak_rss_mb_of(pid: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status_field_kb(&status, "VmHWM:")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM".to_string())
}

/// `utime + stime` of `/proc/<pid>/stat`, in milliseconds.
pub fn cpu_ms_of(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields
        .get(11..13)
        .ok_or("short stat")?
        .iter()
        .map(|f| f.parse::<f64>().unwrap_or(0.0))
        .sum();
    Ok(ticks * 1000.0 / USER_HZ)
}

fn status_field_kb(status: &str, field: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Threads of this process (`Threads:` of `/proc/self/status`).
pub fn own_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(usize::MAX)
}

/// Established TCP connections of this process: its distinct socket
/// inodes (a connection split into reader and writer handles shares one)
/// that `/proc/net/tcp` lists in state `01` (ESTABLISHED).
pub fn own_connections() -> usize {
    let inodes: std::collections::BTreeSet<String> = std::fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.filter_map(|e| e.ok())
                .filter_map(|e| std::fs::read_link(e.path()).ok())
                .filter_map(|t| {
                    let t = t.to_string_lossy();
                    Some(t.strip_prefix("socket:[")?.strip_suffix(']')?.to_string())
                })
                .collect()
        })
        .unwrap_or_default();
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|table| {
            table
                .lines()
                .skip(1)
                .filter(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    f.get(3) == Some(&"01") && f.get(9).is_some_and(|inode| inodes.contains(*inode))
                })
                .count()
        })
        .sum()
}

/// Fails if any process this run spawned is still alive (or unreaped).
pub fn assert_no_strays() -> Result<(), String> {
    let pids = SPAWNED.lock().expect("spawn registry").clone();
    let strays: Vec<u32> = pids
        .into_iter()
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .map(|cmd| String::from_utf8_lossy(&cmd).contains("fdm-serve"))
                .unwrap_or(false)
        })
        .collect();
    if strays.is_empty() {
        Ok(())
    } else {
        Err(format!("fdm-serve processes survived the run: {strays:?}"))
    }
}

/// Sum of the samples of `family` in a `/metrics` body whose labels
/// contain `label` (`""` matches every sample).
pub fn metric_sum(body: &str, family: &str, label: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(family).is_some_and(|rest| {
                (rest.starts_with(' ') && label.is_empty())
                    || (rest.starts_with('{')
                        && rest
                            .split('}')
                            .next()
                            .is_some_and(|labels| labels.contains(label)))
            })
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_metrics_samples_by_label() {
        let body = "# HELP fdm_busy_rejections_total x\n\
                    fdm_busy_rejections_total{reason=\"pending\"} 3\n\
                    fdm_busy_rejections_total{reason=\"rate\"} 4\n\
                    fdm_busy_rejections_totalx 100\n\
                    fdm_merge_bytes_total{kind=\"full\"} 1234\n\
                    fdm_merge_bytes_total{kind=\"delta\"} 56\n\
                    fdm_merge_cache_hits_total 9\n";
        assert_eq!(metric_sum(body, "fdm_busy_rejections_total", ""), 7.0);
        assert_eq!(
            metric_sum(body, "fdm_merge_bytes_total", "kind=\"full\""),
            1234.0
        );
        assert_eq!(metric_sum(body, "fdm_merge_bytes_total", ""), 1290.0);
        assert_eq!(metric_sum(body, "fdm_merge_cache_hits_total", ""), 9.0);
        assert_eq!(metric_sum(body, "fdm_merge_cache_hits_total", "kind"), 0.0);
        assert_eq!(metric_sum(body, "fdm_absent_total", ""), 0.0);
    }
}
