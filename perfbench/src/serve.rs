//! The server under test, hosted in a child process so each run starts
//! from fresh state and its memory is measured on its own.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use djinn::{DjinnServer, ModelRegistry, ServerConfig};
use dnn::cache::CacheMode;

use crate::gen::Model;

/// The one deployment every workload runs against: the paper's Table 3
/// batching (2 ms window), the CPU backend, and the exact-match cache
/// at its default budget.
pub fn deployment() -> ServerConfig {
    ServerConfig {
        bind_addr: "127.0.0.1:0".into(),
        cache_mode: CacheMode::Exact,
        ..ServerConfig::tonic_batching()
    }
}

/// Child-process entry: builds the registry, serves until stdin closes,
/// then shuts down and joins every server thread.
pub fn serve_main() -> Result<(), String> {
    let mut registry = ModelRegistry::new();
    for model in Model::ALL {
        registry.register(model.name(), model.network());
    }
    let server = DjinnServer::start(registry, deployment()).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    // Block until the parent closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

/// A running server child.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    pub started: Instant,
}

impl ServerProcess {
    /// Spawns this executable in `serve` mode and waits for its address.
    pub fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating executable: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("listening ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let mut proc = ServerProcess {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            started,
        };
        match addr {
            Some(a) => {
                proc.addr = a;
                Ok(proc)
            }
            None => {
                proc.stop();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    /// A `/proc/<pid>/status` memory field of the server (`VmHWM` for
    /// the peak so far, `VmRSS` for now), in MB.
    pub fn memory_mb(&self, field: &str) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Closes the child's stdin so it shuts down, and waits for it; kills
    /// it if it has not exited within ten seconds.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop();
        }
    }
}
