//! The `isrl` processes the benchmark drives: `isrl train` for the
//! checkpoint and `isrl serve --listen` for the server under load.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::Workload;
use isrl_core::serving::protocol::ClientFrame;

/// How long a server may take to write its port file.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// The training seed. The checkpoint is trained on the same dataset and
/// users on every run, so `train_s` times the same work whatever `--seed`
/// is; the served dataset, the users and the arrivals follow `--seed`.
const TRAIN_SEED: u64 = 7;

/// Runs `isrl train` for the workload and returns its wall time.
pub fn train(isrl: &Path, w: &Workload, ckpt: &Path) -> Result<Duration, String> {
    let mut cmd = Command::new(isrl);
    cmd.arg("train")
        .args(["--builtin", &w.builtin(), "--seed", &TRAIN_SEED.to_string()])
        .args(["--algo", w.algo.as_str(), "--eps", &w.eps.to_string()])
        .args(["--episodes", &w.episodes.to_string()])
        .arg("--out")
        .arg(ckpt);
    if let Some(g) = w.geometry {
        cmd.args(["--geometry", g]);
    }
    let started = Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", isrl.display()))?;
    let took = started.elapsed();
    if !out.status.success() {
        return Err(format!(
            "isrl train failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(took)
}

/// A live `isrl serve --listen` process.
pub struct Server {
    child: Child,
    port: u16,
    /// Launch → port file written.
    pub setup: Duration,
}

impl Server {
    /// Launches the server and waits for its port file. With `trace_out`
    /// the server streams its telemetry (`serve_round` events) there.
    pub fn launch(
        isrl: &Path,
        w: &Workload,
        seed: u64,
        ckpt: &Path,
        port_file: &Path,
        trace_out: Option<&Path>,
    ) -> Result<Server, String> {
        let _ = std::fs::remove_file(port_file);
        let mut cmd = Command::new(isrl);
        cmd.arg("serve")
            .args(["--builtin", &w.builtin(), "--seed", &seed.to_string()])
            .arg("--model")
            .arg(ckpt)
            .args(["--listen", "127.0.0.1:0", "--port-file"])
            .arg(port_file);
        if let Some(g) = w.geometry {
            cmd.args(["--geometry", g]);
        }
        if let Some(t) = trace_out {
            cmd.arg("--trace-out").arg(t);
        }
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", isrl.display()))?;
        loop {
            // `fs::write` creates the file before filling it: wait for the
            // whole line.
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.ends_with('\n') {
                    let setup = started.elapsed();
                    let port = text.trim().parse().map_err(|_| {
                        let _ = child.kill();
                        let _ = child.wait();
                        format!("bad port file contents {text:?}")
                    })?;
                    return Ok(Server { child, port, setup });
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("isrl serve exited during start-up ({status})"));
            }
            if started.elapsed() > START_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("isrl serve did not write its port file".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Sends a `shutdown` frame, waits for the process to exit cleanly and
    /// returns the `serve.batch.*` counters it reported, by name.
    pub fn shutdown(mut self) -> Result<BTreeMap<String, f64>, String> {
        let sent = TcpStream::connect(self.addr()).and_then(|mut s| {
            let mut line = ClientFrame::Shutdown.to_line();
            line.push('\n');
            s.write_all(line.as_bytes())
        });
        if let Err(e) = sent {
            let _ = self.child.kill();
            let _ = self.child.wait();
            return Err(format!("send shutdown: {e}"));
        }
        let mut stdout = String::new();
        if let Some(mut out) = self.child.stdout.take() {
            let _ = out.read_to_string(&mut stdout);
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for server: {e}"))?;
        if !status.success() {
            return Err(format!("isrl serve exited with {status}"));
        }
        Ok(stdout
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                k.starts_with("serve.batch.")
                    .then(|| Some((k.to_string(), v.trim().parse().ok()?)))?
            })
            .collect())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on error paths: never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `serve_round` event: a request's server-side latency.
#[derive(Debug, Clone, Copy)]
pub struct ServeRound {
    pub req: u64,
    pub ms: f64,
    /// Emission time (ms since the server's telemetry epoch).
    pub t_ms: f64,
}

/// The `serve_round` events of a server's `--trace-out` file, in emission
/// order.
pub fn serve_rounds(trace: &Path) -> Result<Vec<ServeRound>, String> {
    let text =
        std::fs::read_to_string(trace).map_err(|e| format!("read {}: {e}", trace.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"serve_round\"")) {
        let doc = isrl_obs::json::parse(line)?;
        if doc.get("ev").and_then(|v| v.as_str()) != Some("serve_round") {
            continue;
        }
        let field = |k: &str| doc.get(k).and_then(|v| v.as_f64());
        match (field("req"), field("ms"), field("t_ms")) {
            (Some(req), Some(ms), Some(t_ms)) => out.push(ServeRound {
                req: req as u64,
                ms,
                t_ms,
            }),
            _ => return Err(format!("malformed serve_round event: {line}")),
        }
    }
    Ok(out)
}

/// A scratch directory for one invocation, inside the checkout and removed
/// on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(workload: &str, seed: u64) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_build")
            .join("perfbench-work")
            .join(format!("{workload}-s{seed}-p{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
