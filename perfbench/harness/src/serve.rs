//! Starting, timing and stopping one `reach serve` process.

use crate::http::Conn;
use std::fs::{self, File};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server. Dropping it kills the process and waits for it,
/// so no server outlives the benchmark, even on an error path.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// From spawning the process until the port file names its address.
    pub ready: Duration,
}

impl Server {
    /// Starts `reach serve` on `graph` with one worker and one engine
    /// thread, and waits until it has bound its port.
    pub fn start(reach: &Path, graph: &Path, index: &str, work: &Path) -> Result<Server, String> {
        let port_file = work.join("port");
        let _ = fs::remove_file(&port_file);
        let log = File::create(work.join("serve.log")).map_err(|e| format!("serve log: {e}"))?;
        let log2 = log.try_clone().map_err(|e| format!("serve log: {e}"))?;
        let started = Instant::now();
        let child = Command::new(reach)
            .arg("serve")
            .arg(graph)
            .args([
                "--index",
                index,
                "--port",
                "0",
                "--workers",
                "1",
                "--threads",
                "1",
            ])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", reach.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready: Duration::ZERO,
        };
        loop {
            // the file is written after the socket is bound; a partial
            // write fails to parse and is read again
            if let Ok(text) = fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    server.ready = started.elapsed();
                    server.addr = addr;
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                let log = fs::read_to_string(work.join("serve.log")).unwrap_or_default();
                return Err(format!("reach serve exited with {status}: {log}"));
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err("reach serve did not come up within 120 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// CPU time (user + system, all threads) the server has used so far.
    pub fn cpu(&self) -> Result<Duration, String> {
        cpu_of(&self.child.id().to_string())
    }

    /// Asks for a graceful drain and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut body = Vec::new();
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.request("POST", "/admin/shutdown", b"", &mut body, false));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("reach serve ended with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("reach serve did not drain within 30 s".into()),
                Err(e) => return Err(format!("waiting for reach serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// CPU time of process `pid` (`"self"` for this one) from
/// `/proc/<pid>/stat`: fields 14 and 15, in clock ticks of 1/100 s.
pub fn cpu_of(pid: &str) -> Result<Duration, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => Ok(Duration::from_millis(10 * (user + system))),
        _ => Err(format!("cannot parse /proc/{pid}/stat")),
    }
}
