//! Server metrics: request counters, per-endpoint latency histograms,
//! batch-size distribution, admission-control rejects — rendered as a
//! plain-text exposition on `GET /metrics`.
//!
//! Everything is a relaxed atomic: recording a sample is a handful of
//! `fetch_add`s on the request path, and the exposition reads whatever
//! snapshot the atomics hold. Quantiles are derived from fixed
//! power-of-two bucket boundaries, so a reported p99 is the *upper
//! bound* of the bucket holding the 99th-percentile sample.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Power-of-two histogram buckets: bucket `i` counts samples with
/// `value <= 2^i` (microseconds for latencies, pairs for batch sizes),
/// and the last bucket is the overflow (+inf) bucket.
pub const HIST_BUCKETS: usize = 22;

/// A fixed-bucket log₂ histogram with a running sum.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Upper bound of bucket `i` (`None` for the +inf bucket).
    pub fn bucket_bound(i: usize) -> Option<u64> {
        (i + 1 < HIST_BUCKETS).then(|| 1u64 << i)
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            // index of the smallest 2^i >= value, capped at overflow
            (64 - (value - 1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`), or
    /// `None` if the histogram is empty. The +inf bucket reports the
    /// last finite bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..HIST_BUCKETS {
            seen += self.counts[i].load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::bucket_bound(i).unwrap_or(1u64 << (HIST_BUCKETS - 2)));
            }
        }
        None
    }

    /// Per-bucket cumulative counts `(upper_bound, cumulative)`, the
    /// shape the text exposition prints.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0u64;
        (0..HIST_BUCKETS)
            .map(|i| {
                acc += self.counts[i].load(Ordering::Relaxed);
                (Self::bucket_bound(i), acc)
            })
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The routes the server accounts for. Every handled request maps to
/// exactly one endpoint; unroutable or unreadable requests count under
/// [`Endpoint::Other`], so endpoint counts and status counts add up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /query` — one plain reachability pair.
    Query,
    /// `POST /batch` — newline-separated pairs through the engine.
    Batch,
    /// `POST /lcr` — one label-constrained pair.
    Lcr,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /admin/shutdown`.
    Shutdown,
    /// Anything else: unknown paths, bad methods, unparseable requests.
    Other,
}

/// All endpoints, in exposition order.
pub const ENDPOINTS: [Endpoint; 7] = [
    Endpoint::Query,
    Endpoint::Batch,
    Endpoint::Lcr,
    Endpoint::Healthz,
    Endpoint::Metrics,
    Endpoint::Shutdown,
    Endpoint::Other,
];

impl Endpoint {
    /// Label value used in the exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Query => "query",
            Endpoint::Batch => "batch",
            Endpoint::Lcr => "lcr",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn idx(self) -> usize {
        match self {
            Endpoint::Query => 0,
            Endpoint::Batch => 1,
            Endpoint::Lcr => 2,
            Endpoint::Healthz => 3,
            Endpoint::Metrics => 4,
            Endpoint::Shutdown => 5,
            Endpoint::Other => 6,
        }
    }
}

/// How a worker came by the first byte of a request: the two halves of
/// its wait between keep-alive requests (`DESIGN.md` §5d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleWait {
    /// The byte arrived while the worker polled the socket on its core.
    Spin,
    /// The byte arrived while the worker slept in a blocking read.
    Park,
}

impl IdleWait {
    /// Label value used in the exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            IdleWait::Spin => "spin",
            IdleWait::Park => "park",
        }
    }
}

/// Statuses the server can emit; anything else lands in the last slot.
const STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 429, 431, 0];

/// All counters and histograms for one server instance.
#[derive(Debug)]
pub struct Metrics {
    requests: [AtomicU64; ENDPOINTS.len()],
    latency_us: [Histogram; ENDPOINTS.len()],
    responses: [AtomicU64; STATUSES.len()],
    batch_pairs: AtomicU64,
    batch_sizes: Histogram,
    rejected_queue_full: AtomicU64,
    connections: AtomicU64,
    idle_waits: [AtomicU64; 2],
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics {
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_us: std::array::from_fn(|_| Histogram::new()),
            responses: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_pairs: AtomicU64::new(0),
            batch_sizes: Histogram::new(),
            rejected_queue_full: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            idle_waits: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records a handled request: which endpoint, how long, what
    /// status went out. Exactly one call per written response keeps
    /// `sum(requests) == sum(responses)`.
    pub fn record_request(&self, endpoint: Endpoint, elapsed: Duration, status: u16) {
        self.requests[endpoint.idx()].fetch_add(1, Ordering::Relaxed);
        self.latency_us[endpoint.idx()].observe(elapsed.as_micros() as u64);
        let slot = STATUSES
            .iter()
            .position(|&s| s == status)
            .unwrap_or(STATUSES.len() - 1);
        self.responses[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the size of one `/batch` request.
    pub fn record_batch(&self, pairs: usize) {
        self.batch_pairs.fetch_add(pairs as u64, Ordering::Relaxed);
        self.batch_sizes.observe(pairs as u64);
    }

    /// Records a connection rejected at accept because the queue was
    /// full (the 429 path — no request is ever parsed).
    pub fn record_queue_full(&self) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records how the first byte of one request arrived.
    pub fn record_idle_wait(&self, wait: IdleWait) {
        self.idle_waits[wait as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Requests whose first byte arrived by `wait`.
    pub fn idle_waits(&self, wait: IdleWait) -> u64 {
        self.idle_waits[wait as usize].load(Ordering::Relaxed)
    }

    /// Requests handled on `endpoint`.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.requests[endpoint.idx()].load(Ordering::Relaxed)
    }

    /// Responses written with `status`.
    pub fn responses_with_status(&self, status: u16) -> u64 {
        STATUSES
            .iter()
            .position(|&s| s == status)
            .map(|i| self.responses[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total requests across every endpoint.
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total responses across every status.
    pub fn total_responses(&self) -> u64 {
        self.responses
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Connections rejected with 429 at accept time.
    pub fn queue_full_rejects(&self) -> u64 {
        self.rejected_queue_full.load(Ordering::Relaxed)
    }

    /// Renders the text exposition. `build_info` lines (index name,
    /// build phases, graph size) are appended verbatim by the server,
    /// which knows what it built.
    pub fn render(&self, build_info: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "# reach-server metrics (latencies in microseconds, histogram bounds are powers of two)"
        );
        for ep in ENDPOINTS {
            let _ = writeln!(
                out,
                "reach_requests_total{{endpoint=\"{}\"}} {}",
                ep.as_str(),
                self.requests(ep)
            );
        }
        for (i, &status) in STATUSES.iter().enumerate() {
            let count = self.responses[i].load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let label = if status == 0 {
                "other".to_string()
            } else {
                status.to_string()
            };
            let _ = writeln!(out, "reach_responses_total{{status=\"{label}\"}} {count}");
        }
        for ep in ENDPOINTS {
            let h = &self.latency_us[ep.idx()];
            if h.count() == 0 {
                continue;
            }
            for (bound, cum) in h.cumulative() {
                let le = bound.map_or("+Inf".to_string(), |b| b.to_string());
                let _ = writeln!(
                    out,
                    "reach_request_latency_us_bucket{{endpoint=\"{}\",le=\"{le}\"}} {cum}",
                    ep.as_str()
                );
            }
            let _ = writeln!(
                out,
                "reach_request_latency_us_count{{endpoint=\"{}\"}} {}",
                ep.as_str(),
                h.count()
            );
            let _ = writeln!(
                out,
                "reach_request_latency_us_sum{{endpoint=\"{}\"}} {}",
                ep.as_str(),
                h.sum()
            );
            for (q, name) in [(0.5, "0.5"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(
                        out,
                        "reach_request_latency_us{{endpoint=\"{}\",quantile=\"{name}\"}} {v}",
                        ep.as_str()
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "reach_batch_pairs_total {}",
            self.batch_pairs.load(Ordering::Relaxed)
        );
        if self.batch_sizes.count() > 0 {
            for (bound, cum) in self.batch_sizes.cumulative() {
                let le = bound.map_or("+Inf".to_string(), |b| b.to_string());
                let _ = writeln!(out, "reach_batch_size_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "reach_batch_size_count {}", self.batch_sizes.count());
        }
        let _ = writeln!(
            out,
            "reach_rejected_total{{reason=\"queue_full\"}} {}",
            self.queue_full_rejects()
        );
        let _ = writeln!(
            out,
            "reach_connections_total {}",
            self.connections.load(Ordering::Relaxed)
        );
        for wait in [IdleWait::Spin, IdleWait::Park] {
            let _ = writeln!(
                out,
                "reach_idle_waits_total{{outcome=\"{}\"}} {}",
                wait.as_str(),
                self.idle_waits(wait)
            );
        }
        let _ = writeln!(
            out,
            "reach_scratch_overflows_total {}",
            reach_graph::scratch_overflow_count()
        );
        out.push_str(build_info);
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1110);
        // samples ≤ bounds 1,2,4,4,128,1024 → p50 rank 3 lands in the ≤4 bucket
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.99), Some(1024));
        // huge values land in the overflow bucket but never panic
        h.observe(u64::MAX);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn bucket_index_is_smallest_upper_bound() {
        let h = Histogram::new();
        h.observe(1u64 << 63);
        let cum = h.cumulative();
        assert_eq!(cum[HIST_BUCKETS - 1].1, 1, "overflow bucket");
        assert_eq!(cum[HIST_BUCKETS - 2].1, 0);
    }

    #[test]
    fn counters_add_up_and_render() {
        let m = Metrics::new();
        m.record_request(Endpoint::Query, Duration::from_micros(10), 200);
        m.record_request(Endpoint::Query, Duration::from_micros(20), 400);
        m.record_request(Endpoint::Other, Duration::from_micros(5), 404);
        m.record_batch(64);
        m.record_queue_full();
        m.record_idle_wait(IdleWait::Spin);
        m.record_idle_wait(IdleWait::Spin);
        m.record_idle_wait(IdleWait::Park);
        assert_eq!(m.idle_waits(IdleWait::Spin), 2);
        assert_eq!(m.requests(Endpoint::Query), 2);
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_responses(), 3);
        assert_eq!(m.responses_with_status(200), 1);
        let text = m.render("reach_build_info{index=\"BFL\"} 1\n");
        assert!(text.contains("reach_requests_total{endpoint=\"query\"} 2"));
        assert!(text.contains("reach_responses_total{status=\"404\"} 1"));
        assert!(text.contains("reach_batch_pairs_total 64"));
        assert!(text.contains("reach_rejected_total{reason=\"queue_full\"} 1"));
        assert!(text.contains("reach_scratch_overflows_total"));
        assert!(text.contains("reach_idle_waits_total{outcome=\"spin\"} 2"));
        assert!(text.contains("reach_idle_waits_total{outcome=\"park\"} 1"));
        assert!(text.contains("reach_build_info"));
    }
}
