//! The threaded HTTP query service: a listener thread feeding a
//! bounded connection queue drained by a fixed worker pool.
//!
//! Admission control happens in three places, each returning a real
//! HTTP status instead of falling over:
//!
//! * **accept**: when the queue already holds `queue_capacity`
//!   connections the listener answers `429` and closes — workers never
//!   see the connection;
//! * **head**: header blocks over [`crate::http::MAX_HEAD_BYTES`] get
//!   `431`, bodies declared larger than `max_body_bytes` get `413`,
//!   both before any proportional allocation;
//! * **time**: per-socket read/write timeouts turn a stalled client
//!   into a `408` (or a dropped write) instead of a parked worker.
//!
//! Between keep-alive requests a worker first spins: it polls the
//! socket on its core for a short window, so a client that answers
//! quickly skips a sleep and a wake-up. Then it parks in blocking reads
//! that wake often enough to notice shutdown (`DESIGN.md` §5d).
//!
//! Shutdown is a flag plus a drain: `shutdown()` (or
//! `POST /admin/shutdown`) stops the accept loop, then every queued
//! connection is served exactly one final response with
//! `Connection: close`, then workers exit and `join()` returns. A
//! request that was accepted is always answered in full.

use crate::body::{self, parse_vertex};
use crate::http::{read_request, write_response, RecvError, Request};
use crate::metrics::{Endpoint, IdleWait, Metrics};
use reach_core::{CondensationUse, IndexService};
use reach_graph::{Label, LabelSet};
use reach_labeled::LcrService;
use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads draining the connection queue.
    pub workers: usize,
    /// Bound on connections waiting for a worker; beyond it, `429`.
    pub queue_capacity: usize,
    /// Per-socket read timeout (stalled request → `408`).
    pub read_timeout: Duration,
    /// Per-socket write timeout (stalled client → connection dropped).
    pub write_timeout: Duration,
    /// Admission cap on request bodies (`413` beyond it).
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
        }
    }
}

/// The warm indexes a server answers from: a plain service (always)
/// and optionally an LCR service over the labeled variant of the same
/// graph.
pub struct Services {
    /// Plain reachability: `/query` and `/batch`.
    pub plain: Arc<IndexService>,
    /// Label-constrained reachability: `/lcr` (404 when absent).
    pub lcr: Option<Arc<LcrService>>,
}

impl Services {
    /// Build-report lines appended to the `/metrics` exposition: the
    /// same lines for every built index, each carrying its `index` label.
    fn build_info(&self) -> String {
        use std::fmt::Write as _;
        let p = &self.plain;
        let (n, m) = (p.num_vertices(), p.num_edges());
        let mut builds = vec![(p.report(), format!("kind=\"plain\",n=\"{n}\",m=\"{m}\""))];
        if let Some(l) = &self.lcr {
            let (n, m, k) = (l.num_vertices(), l.graph().num_edges(), l.num_labels());
            let info = format!("kind=\"lcr\",n=\"{n}\",m=\"{m}\",labels=\"{k}\"");
            builds.push((l.report(), info));
        }
        let mut out = format!("reach_engine_threads {}\n", p.engine_threads());
        for (r, info) in builds {
            let index = r.name;
            let condensation = match r.condensation {
                CondensationUse::Computed => "computed",
                CondensationUse::Shared => "shared",
                CondensationUse::Unused => "none",
            };
            let _ = writeln!(
                out,
                "reach_build_info{{index=\"{index}\",{info},condensation=\"{condensation}\"}} 1"
            );
            for (phase, d) in [
                ("condense", r.condense),
                ("order", r.order),
                ("label", r.label),
                ("total", r.total),
            ] {
                let _ = writeln!(
                    out,
                    "reach_build_seconds{{index=\"{index}\",phase=\"{phase}\"}} {:.6}",
                    d.as_secs_f64()
                );
            }
            let _ = writeln!(
                out,
                "reach_index_bytes{{index=\"{index}\"}} {}",
                r.size_bytes
            );
            let _ = writeln!(
                out,
                "reach_index_entries{{index=\"{index}\"}} {}",
                r.size_entries
            );
        }
        out
    }
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    services: Services,
    build_info: String,
    metrics: Metrics,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    not_empty: Condvar,
    spin_slots: SpinSlots,
}

impl Shared {
    /// Locks the connection queue, recovering from poisoning: the
    /// queue holds plain `TcpStream`s with no invariant a mid-panic
    /// thread could have broken, so the remaining threads keep serving
    /// instead of cascading the panic through every lock site.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<TcpStream>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.not_empty.notify_all();
        // wake the accept loop so the listener thread observes the flag
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: its bound address, its metrics, and the handle to
/// stop it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live metrics for this instance.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Whether shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates graceful shutdown: stop accepting, drain the queue,
    /// answer every accepted request. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the listener and every worker to exit. Call
    /// [`ServerHandle::shutdown`] first (or hit `/admin/shutdown`) or
    /// this blocks until someone does.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Binds, spawns the listener and `cfg.workers` workers, and returns.
pub fn start(services: Services, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let build_info = services.build_info();
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        cfg,
        addr,
        services,
        build_info,
        metrics: Metrics::new(),
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        not_empty: Condvar::new(),
        // room for all but one core's worth of spinners: none on one core
        spin_slots: SpinSlots::new(reach_graph::parallel::host_threads().saturating_sub(1)),
    });
    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&shared, listener)));
    }
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    Ok(ServerHandle { shared, threads })
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // likely the wake-up connection from begin_shutdown; any
            // real late-comer gets a clean 503 instead of a hang
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
            let _ = write_response(&mut stream, 503, "shutting down\n", false);
            return;
        }
        shared.metrics.record_connection();
        let rejected = {
            let mut queue = shared.lock_queue();
            if queue.len() >= shared.cfg.queue_capacity {
                Some(stream)
            } else {
                queue.push_back(stream);
                shared.not_empty.notify_one();
                None
            }
        };
        if let Some(mut stream) = rejected {
            // admission control: reject at the door, don't park
            shared.metrics.record_queue_full();
            let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
            let _ = write_response(
                &mut stream,
                429,
                "server busy: connection queue full\n",
                false,
            );
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match stream {
            Some(stream) => serve_connection(shared, stream),
            None => return,
        }
    }
}

/// Granularity at which an idle worker re-checks the shutdown flag,
/// and the one read timeout a connection's socket carries.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// How long a worker polls a kept-alive connection for its next request
/// before it parks in a blocking read. On a 2-vCPU host the window
/// caught 99% of the requests of a client thinking 50 µs between
/// requests, and 0–2% of those of a client thinking 150 µs
/// (`DESIGN.md` §5d).
const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// Bounds how many workers spin at once, so a spinning worker never
/// takes the last core from runnable work.
struct SpinSlots {
    cap: usize,
    busy: AtomicUsize,
}

impl SpinSlots {
    fn new(cap: usize) -> Self {
        SpinSlots {
            cap,
            busy: AtomicUsize::new(0),
        }
    }

    /// Takes a slot, or `None` when `cap` workers already spin.
    fn try_acquire(&self) -> Option<SpinSlot<'_>> {
        self.busy
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| {
                (b < self.cap).then_some(b + 1)
            })
            .ok()
            .map(|_| SpinSlot(self))
    }
}

/// A held spin slot; dropping it frees the slot.
struct SpinSlot<'a>(&'a SpinSlots);

impl Drop for SpinSlot<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::Release);
    }
}

/// The read side of a connection. Its socket times out every
/// [`IDLE_POLL`]; while a request is being read, `deadline` stretches
/// those slices to the configured read timeout, so the hot path sets no
/// socket option.
struct Conn<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
}

impl Read for Conn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e) if no_bytes_yet(&e) && self.deadline.is_some_and(|d| Instant::now() < d) => {
                }
                done => return done,
            }
        }
    }
}

/// Whether a read failed only for want of bytes: its poll slice ran out,
/// the socket is in non-blocking mode, or a signal cut it short.
fn no_bytes_yet(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// How the wait for a request's first byte ended without one.
enum NoRequest {
    /// EOF, a transport error, or shutdown: close quietly.
    Close,
    /// The connection stayed silent for the whole read timeout.
    TimedOut,
}

/// Waits for the first byte of the next request, idle since `since`:
/// spin, then park.
///
/// With `spin` asked for and a spin slot free, the worker puts the
/// socket in non-blocking mode and polls it for [`SPIN_WINDOW`],
/// staying on its core for a client that answers quickly. Between
/// polls it yields, so a client queued on the same core runs at once
/// instead of after the window. Otherwise, or when the window ends
/// empty, it parks in blocking reads of [`IDLE_POLL`], checking the
/// shutdown flag and the idle deadline between slices. `fill_buf`
/// consumes nothing, so neither phase can corrupt a request.
fn await_request(
    shared: &Shared,
    reader: &mut BufReader<Conn<'_>>,
    since: Instant,
    spin: bool,
) -> Result<IdleWait, NoRequest> {
    if !reader.buffer().is_empty() {
        return Ok(IdleWait::Spin); // pipelined: already here
    }
    if let Some(_slot) = spin.then(|| shared.spin_slots.try_acquire()).flatten() {
        let stream = reader.get_ref().stream;
        stream.set_nonblocking(true).map_err(|_| NoRequest::Close)?;
        let spin_end = since + SPIN_WINDOW;
        let arrived = loop {
            match reader.fill_buf() {
                Ok([]) => return Err(NoRequest::Close),
                Ok(_) => break true,
                Err(e) if no_bytes_yet(&e) => {
                    if Instant::now() >= spin_end {
                        break false;
                    }
                    std::thread::yield_now();
                }
                Err(_) => return Err(NoRequest::Close),
            }
        };
        stream
            .set_nonblocking(false)
            .map_err(|_| NoRequest::Close)?;
        if arrived {
            return Ok(IdleWait::Spin);
        }
    }
    loop {
        match reader.fill_buf() {
            Ok([]) => return Err(NoRequest::Close),
            Ok(_) => return Ok(IdleWait::Park),
            Err(e) if no_bytes_yet(&e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Err(NoRequest::Close); // drain: idle connections just close
                }
                if since.elapsed() >= shared.cfg.read_timeout {
                    return Err(NoRequest::TimedOut);
                }
            }
            Err(_) => return Err(NoRequest::Close),
        }
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(Conn {
        stream: &stream,
        deadline: None,
    });
    // a new connection's first request is usually already on its way
    let mut spin = true;
    loop {
        reader.get_mut().deadline = None;
        let idle_since = Instant::now();
        match await_request(shared, &mut reader, idle_since, spin) {
            Ok(wait) => shared.metrics.record_idle_wait(wait),
            Err(NoRequest::Close) => return,
            Err(NoRequest::TimedOut) => {
                let _ = write_response(&stream, 408, "request read timed out\n", false);
                shared
                    .metrics
                    .record_request(Endpoint::Other, Duration::ZERO, 408);
                return;
            }
        }
        // Spin for the next request only if this one came within the
        // window: a client that thinks longer would cost a window of
        // spinning per request and gain no latency from it.
        let arrived = Instant::now();
        spin = arrived - idle_since < SPIN_WINDOW;
        // the request, and the drain of an oversized body, get the
        // full read timeout however many poll slices it spans
        reader.get_mut().deadline = Some(arrived + shared.cfg.read_timeout);
        match read_request(&mut reader, shared.cfg.max_body_bytes) {
            Ok(req) => {
                let started = Instant::now();
                let (endpoint, status, body) = route(shared, &req);
                let keep = req.keep_alive
                    && endpoint != Endpoint::Shutdown
                    && !shared.shutdown.load(Ordering::SeqCst);
                let write = write_response(&stream, status, &body, keep);
                shared
                    .metrics
                    .record_request(endpoint, started.elapsed(), status);
                if write.is_err() || !keep {
                    return;
                }
            }
            Err(e) => {
                let (status, msg) = match e {
                    RecvError::Closed | RecvError::Io(_) => return,
                    RecvError::Timeout => (408, "request read timed out\n".to_string()),
                    RecvError::BodyTooLarge { declared, limit } => {
                        // drain a bounded amount of the oversized body
                        // so closing doesn't RST the client before it
                        // reads the 413 (unread data triggers a reset)
                        let drain = declared.min(256 * 1024) as u64;
                        let _ = std::io::copy(&mut (&mut reader).take(drain), &mut std::io::sink());
                        (
                            413,
                            format!("body of {declared} bytes exceeds the {limit}-byte limit\n"),
                        )
                    }
                    RecvError::HeadTooLarge => (431, "header block too large\n".to_string()),
                    RecvError::Malformed(m) => (400, format!("bad request: {m}\n")),
                };
                let _ = write_response(&stream, status, &msg, false);
                shared
                    .metrics
                    .record_request(Endpoint::Other, Duration::ZERO, status);
                return;
            }
        }
    }
}

/// Routes one request; returns `(endpoint, status, body)`.
fn route(shared: &Shared, req: &Request) -> (Endpoint, u16, String) {
    let path = req.path.split('?').next().unwrap_or(&req.path);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => (Endpoint::Healthz, 200, "ok\n".into()),
        ("GET", "/metrics") => (
            Endpoint::Metrics,
            200,
            shared.metrics.render(&shared.build_info),
        ),
        ("POST", "/query") => match handle_query(shared, &req.body) {
            Ok(body) => (Endpoint::Query, 200, body),
            Err(msg) => (Endpoint::Query, 400, msg),
        },
        ("POST", "/batch") => match handle_batch(shared, &req.body) {
            Ok(body) => (Endpoint::Batch, 200, body),
            Err(msg) => (Endpoint::Batch, 400, msg),
        },
        ("POST", "/lcr") => match &shared.services.lcr {
            None => (
                Endpoint::Lcr,
                404,
                "no LCR index loaded (start with --lcr NAME over a labeled graph)\n".into(),
            ),
            Some(svc) => match handle_lcr(svc, &req.body) {
                Ok(body) => (Endpoint::Lcr, 200, body),
                Err(msg) => (Endpoint::Lcr, 400, msg),
            },
        },
        ("POST", "/admin/shutdown") => {
            shared.begin_shutdown();
            (Endpoint::Shutdown, 200, "draining\n".into())
        }
        (_, "/healthz" | "/metrics" | "/query" | "/batch" | "/lcr" | "/admin/shutdown") => (
            Endpoint::Other,
            405,
            format!("method {} not allowed on {path}\n", req.method),
        ),
        _ => (Endpoint::Other, 404, format!("no such endpoint {path}\n")),
    }
}

fn handle_query(shared: &Shared, body: &str) -> Result<String, String> {
    let svc = &shared.services.plain;
    let (s, t) = body::parse_query(body, svc.num_vertices())?;
    Ok(if svc.query(s, t) { "true\n" } else { "false\n" }.into())
}

fn handle_batch(shared: &Shared, body: &str) -> Result<String, String> {
    let svc = &shared.services.plain;
    let pairs = body::parse_batch(body, svc.num_vertices())?;
    shared.metrics.record_batch(pairs.len());
    let answers = svc.query_batch(&pairs);
    let mut out = String::with_capacity(6 * answers.len());
    for a in answers {
        out.push_str(if a { "true\n" } else { "false\n" });
    }
    Ok(out)
}

fn handle_lcr(svc: &LcrService, body: &str) -> Result<String, String> {
    let mut toks = body.split_whitespace();
    let (Some(s), Some(t), Some(labels), None) =
        (toks.next(), toks.next(), toks.next(), toks.next())
    else {
        return Err(format!(
            "expected \"<s> <t> <l1,l2,…|*>\", got {:?}\n",
            body.trim()
        ));
    };
    let n = svc.num_vertices();
    let (s, t) = (parse_vertex(s, n)?, parse_vertex(t, n)?);
    let k = svc.num_labels();
    let allowed = if labels == "*" {
        LabelSet::full(k)
    } else {
        let mut set = LabelSet(0);
        for tok in labels.split(',') {
            let l: u32 = tok.parse().map_err(|_| format!("bad label {tok:?}\n"))?;
            if l as usize >= k {
                return Err(format!("label {l} outside alphabet 0..{k}\n"));
            }
            let l = Label::try_new(l).map_err(|e| format!("{e}\n"))?;
            set = set.insert(l);
        }
        set
    };
    Ok(if svc.query(s, t, allowed) {
        "true\n"
    } else {
        "false\n"
    }
    .into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_slots_cap_the_spinners() {
        let none = SpinSlots::new(0);
        assert!(none.try_acquire().is_none(), "cap 0 never spins");

        let slots = SpinSlots::new(2);
        let first = slots.try_acquire();
        let second = slots.try_acquire();
        assert!(first.is_some() && second.is_some());
        assert!(slots.try_acquire().is_none(), "the third of two fails");
        drop(first);
        let third = slots.try_acquire();
        assert!(third.is_some(), "a release frees a slot");
        assert!(slots.try_acquire().is_none());
        drop((second, third));
        assert_eq!(slots.busy.load(Ordering::Relaxed), 0);
    }
}
