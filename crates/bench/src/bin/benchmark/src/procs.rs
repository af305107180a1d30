//! Child processes: building the `milr` binary, running it as
//! `preprocess` / `serve` children, readiness polling, `/proc` readers,
//! and the scratch directory. Every child and the scratch directory are
//! owned by drop guards, so success, failure and panic all clean up.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::wire::Client;

/// How long a daemon may take to print its listening line and to answer
/// `/healthz` before set-up counts as failed.
const READY_DEADLINE: Duration = Duration::from_secs(60);

/// Pause between readiness polls.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// which Linux fixes at 100 for user space on every mainstream
/// architecture).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Where build products and scratch files go: `CARGO_TARGET_DIR` when
/// set, `target` otherwise — always relative to (or inside) the
/// checkout the benchmark runs from.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the program under test from the checkout's source and returns
/// the path of the `milr` binary. A no-op build costs a fraction of a
/// second and guarantees the binary matches the source.
pub fn build_program() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/milr.rs").is_file() {
        return Err("run from the root of a milr checkout (Cargo.toml, src/bin/milr.rs)".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "milr",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin milr failed ({status})"));
    }
    let binary = target_dir().join("release").join("milr");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// A per-process scratch directory under the target directory, removed
/// on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<target>/benchmark-scratch/<pid>`, empty.
    pub fn create() -> Result<Self, String> {
        let dir = target_dir()
            .join("benchmark-scratch")
            .join(std::process::id().to_string());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs `milr preprocess` to completion, writing a sharded snapshot of
/// the seeded synthetic scene corpus to `out`.
pub fn preprocess(
    milr: &Path,
    per_category: usize,
    shard_bags: usize,
    seed: u64,
    out: &Path,
) -> Result<(), String> {
    let output = Command::new(milr)
        .args(["preprocess", "--kind", "scenes", "--sharded"])
        .args(["--per-category", &per_category.to_string()])
        .args(["--shard-bags", &shard_bags.to_string()])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn milr preprocess: {e}"))?;
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "milr preprocess failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ))
    }
}

/// One `milr serve` child. Dropping it kills the process, waits for it,
/// and joins the thread draining its stdout.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The address parsed from the `milrd listening on` line.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `milr serve <args> --addr 127.0.0.1:0` and waits for the
    /// `milrd listening on HOST:PORT` line.
    pub fn spawn(milr: &Path, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(milr)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn milr serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // The thread outlives the first line so the daemon never blocks
        // on a full pipe; it ends at EOF, when the child is gone.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                tx.send(line).ok();
            }
        });
        let mut daemon = Self {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = rx
            .recv_timeout(READY_DEADLINE)
            .map_err(|_| "milr serve printed no listening line".to_string())?;
        daemon.addr = parse_listen_line(&line)
            .ok_or_else(|| format!("unexpected first line from milr serve: {line:?}"))?;
        Ok(daemon)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `GET /healthz` until it answers 200 with a body `ready`
    /// accepts.
    pub fn wait_ready(&self, ready: impl Fn(&str) -> bool) -> Result<(), String> {
        let deadline = Instant::now() + READY_DEADLINE;
        let mut client = Client::new(self.addr, Duration::from_secs(5));
        loop {
            if let Ok(reply) = client.get("/healthz") {
                if reply.status == 200 && ready(&String::from_utf8_lossy(&reply.body)) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("daemon on {} never became ready", self.addr));
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }
}

/// Extracts `HOST:PORT` from `milrd listening on HOST:PORT (...)`.
pub fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("milrd listening on ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds (user + system) a `/proc/<pid>/stat` line accounts for.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds consumed so far, summed over `pids`.
pub fn cpu_seconds(pids: &[u32]) -> Result<f64, String> {
    pids.iter()
        .map(|pid| {
            let path = format!("/proc/{pid}/stat");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            parse_stat_cpu_s(&text).ok_or_else(|| format!("{path}: unexpected format"))
        })
        .sum()
}

/// Peak resident memory in MB, summed over `pids`.
pub fn peak_rss_mb(pids: &[u32]) -> Result<f64, String> {
    pids.iter()
        .map(|pid| {
            let path = format!("/proc/{pid}/status");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            parse_vm_hwm_kb(&text)
                .map(|kb| kb / 1024.0)
                .ok_or_else(|| format!("{path}: no VmHWM line"))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_yields_the_address() {
        let line = "milrd listening on 127.0.0.1:44705 (500 images, 5 categories, dim 100)";
        assert_eq!(
            parse_listen_line(line),
            Some("127.0.0.1:44705".parse().unwrap())
        );
        assert_eq!(parse_listen_line("milrd drained"), None);
        assert_eq!(parse_listen_line("milrd listening on nowhere"), None);
    }

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // utime and stime are fields 14 and 15; the command is field 2.
        let stat = "4242 (milr (x) y) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    250 50 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tmilr\nVmPeak:\t  200000 kB\nVmHWM:\t   87604 kB\nVmRSS:\t 80000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(87604.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tmilr\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = [std::process::id()];
        assert!(cpu_seconds(&me).unwrap() >= 0.0);
        assert!(peak_rss_mb(&me).unwrap() > 0.0);
        assert!(cpu_seconds(&[u32::MAX]).is_err());
    }
}
