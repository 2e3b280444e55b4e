//! Server-side request metrics: counters, per-endpoint latency percentiles,
//! and log-spaced histograms, rendered as the `/metrics` JSON body alongside
//! the process-wide `obs` run report.
//!
//! Everything is hand-rolled on std sync primitives. Counters are atomics on
//! the hot path; latencies go through a short mutex-guarded append per
//! request (a bounded recent-window ring plus monotonically growing
//! buckets), which at the request rates this server targets is noise next to
//! a synthesis run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper edges (milliseconds) of the log-spaced latency buckets; the last
/// bucket is unbounded.
pub const BUCKET_EDGES_MS: [f64; 12] = [
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
];

/// Percentile samples kept per endpoint (most recent window; older samples
/// survive only in the buckets and count/mean).
const SAMPLE_WINDOW: usize = 4096;

#[derive(Default)]
struct EndpointLat {
    count: u64,
    sum_ms: f64,
    max_ms: f64,
    buckets: [u64; BUCKET_EDGES_MS.len() + 1],
    // Ring buffer of the most recent SAMPLE_WINDOW latencies.
    samples: Vec<f64>,
    next: usize,
}

impl EndpointLat {
    fn record(&mut self, ms: f64) {
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
        let idx = BUCKET_EDGES_MS
            .iter()
            .position(|&edge| ms <= edge)
            .unwrap_or(BUCKET_EDGES_MS.len());
        self.buckets[idx] += 1;
        if self.samples.len() < SAMPLE_WINDOW {
            self.samples.push(ms);
        } else {
            self.samples[self.next] = ms;
            self.next = (self.next + 1) % SAMPLE_WINDOW;
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`) of ascending `sorted`: the
    /// `ceil(p·n)`-th smallest sample, clamped to `[1, n]`. The product is
    /// rounded to 1e-9 first so a decimal `p` that binary floats cannot hold
    /// exactly does not round up a whole rank. 0 when empty.
    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let exact = p * sorted.len() as f64;
        let rank = ((exact * 1e9).round() / 1e9).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn to_json(&self, endpoint: &str) -> String {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let mean = if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        };
        let mut buckets = String::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            let edge = BUCKET_EDGES_MS
                .get(i)
                .map(|e| obs::json_f64(*e))
                .unwrap_or_else(|| "null".to_string());
            buckets.push_str(&format!("{{\"le_ms\":{edge},\"count\":{count}}}"));
        }
        format!(
            "{{\"endpoint\":\"{}\",\"count\":{},\"mean_ms\":{},\"p50_ms\":{},\"p90_ms\":{},\
             \"p99_ms\":{},\"max_ms\":{},\"buckets\":[{}]}}",
            obs::json_escape(endpoint),
            self.count,
            obs::json_f64(mean),
            obs::json_f64(Self::percentile(&sorted, 0.50)),
            obs::json_f64(Self::percentile(&sorted, 0.90)),
            obs::json_f64(Self::percentile(&sorted, 0.99)),
            obs::json_f64(self.max_ms),
            buckets,
        )
    }
}

/// Process-lifetime server metrics, shared by all worker threads.
pub struct ServerMetrics {
    started: Instant,
    requests_total: AtomicU64,
    errors_total: AtomicU64,
    active: AtomicU64,
    latencies: Mutex<HashMap<&'static str, EndpointLat>>,
    // Admission control: connections enqueued for a worker vs. shed with a
    // 503 because the queue was full.
    queued_total: AtomicU64,
    shed_total: AtomicU64,
    // Keep-alive accounting: completed connections and the requests they
    // carried, so `/metrics` can report requests-per-connection.
    connections_total: AtomicU64,
    conn_requests_total: AtomicU64,
    max_requests_per_conn: AtomicU64,
    // Per-model `/synthesize` request counts (ROADMAP item 4).
    model_requests: Mutex<HashMap<String, u64>>,
}

/// RAII guard: counts a request as active until dropped, then records its
/// latency and outcome under its endpoint label.
pub struct RequestTimer<'a> {
    metrics: &'a ServerMetrics,
    endpoint: &'static str,
    start: Instant,
    status: u16,
}

impl RequestTimer<'_> {
    /// Records the response status (anything >= 400 counts as an error).
    pub fn set_status(&mut self, status: u16) {
        self.status = status;
    }
}

impl Drop for RequestTimer<'_> {
    fn drop(&mut self) {
        let ms = self.start.elapsed().as_secs_f64() * 1e3;
        self.metrics.active.fetch_sub(1, Ordering::Relaxed);
        if self.status >= 400 {
            self.metrics.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        let mut map = self.metrics.latencies.lock().unwrap();
        map.entry(self.endpoint).or_default().record(ms);
        obs::hist("serve.latency_ms", ms);
    }
}

impl ServerMetrics {
    /// Fresh metrics; `started` anchors the uptime report.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            active: AtomicU64::new(0),
            latencies: Mutex::new(HashMap::new()),
            queued_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            conn_requests_total: AtomicU64::new(0),
            max_requests_per_conn: AtomicU64::new(0),
            model_requests: Mutex::new(HashMap::new()),
        }
    }

    /// Starts timing one request against `endpoint` (a static route label,
    /// not the raw path, to bound the label set).
    pub fn begin(&self, endpoint: &'static str) -> RequestTimer<'_> {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve.requests", 1);
        RequestTimer {
            metrics: self,
            endpoint,
            start: Instant::now(),
            status: 200,
        }
    }

    /// Total requests started.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Completed requests that answered with status >= 400.
    pub fn errors_total(&self) -> u64 {
        self.errors_total.load(Ordering::Relaxed)
    }

    /// Requests currently in flight.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Counts a connection admitted into the worker queue.
    pub fn note_queued(&self) {
        self.queued_total.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve.admission.queued", 1);
    }

    /// Counts a connection shed with `503` because the queue was full.
    pub fn note_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve.admission.shed", 1);
    }

    /// Connections admitted into the worker queue.
    pub fn queued_total(&self) -> u64 {
        self.queued_total.load(Ordering::Relaxed)
    }

    /// Connections shed with `503` at admission.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Records a finished connection that served `requests` requests.
    pub fn note_connection_done(&self, requests: u64) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.conn_requests_total.fetch_add(requests, Ordering::Relaxed);
        self.max_requests_per_conn
            .fetch_max(requests, Ordering::Relaxed);
        obs::counter("serve.keepalive.connections", 1);
    }

    /// Completed connections.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Mean requests per completed connection (0 before any completes).
    pub fn requests_per_conn(&self) -> f64 {
        let conns = self.connections_total();
        if conns == 0 {
            return 0.0;
        }
        self.conn_requests_total.load(Ordering::Relaxed) as f64 / conns as f64
    }

    /// Counts one `/synthesize` request against `model`.
    pub fn note_model_request(&self, model: &str) {
        let mut map = self.model_requests.lock().unwrap();
        *map.entry(model.to_string()).or_insert(0) += 1;
    }

    /// Per-model `/synthesize` counts, sorted by name.
    pub fn model_requests(&self) -> Vec<(String, u64)> {
        let map = self.model_requests.lock().unwrap();
        let mut out: Vec<(String, u64)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort();
        out
    }

    /// The server half of the `/metrics` body (the handler wraps this with
    /// the obs run report and cache stats).
    pub fn to_json(&self) -> String {
        let map = self.latencies.lock().unwrap();
        let mut endpoints: Vec<&&'static str> = map.keys().collect();
        endpoints.sort();
        let latency = endpoints
            .iter()
            .map(|ep| map[**ep].to_json(ep))
            .collect::<Vec<_>>()
            .join(",");
        drop(map);
        let models = self
            .model_requests()
            .into_iter()
            .map(|(name, count)| format!("\"{}\":{count}", obs::json_escape(&name)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"uptime_secs\":{},\"requests_total\":{},\"errors_total\":{},\
             \"active_requests\":{},\
             \"admission\":{{\"queued\":{},\"shed\":{}}},\
             \"keepalive\":{{\"connections_total\":{},\"requests_per_conn\":{},\
             \"max_requests_per_conn\":{}}},\
             \"model_requests\":{{{}}},\"latency\":[{}]}}",
            obs::json_f64(self.started.elapsed().as_secs_f64()),
            self.requests_total(),
            self.errors_total(),
            self.active(),
            self.queued_total(),
            self.shed_total(),
            self.connections_total(),
            obs::json_f64(self.requests_per_conn()),
            self.max_requests_per_conn.load(Ordering::Relaxed),
            models,
            latency,
        )
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_records_latency_and_errors() {
        let m = ServerMetrics::new();
        {
            let _t = m.begin("/healthz");
            assert_eq!(m.active(), 1);
        }
        {
            let mut t = m.begin("/synthesize");
            t.set_status(404);
        }
        assert_eq!(m.active(), 0);
        assert_eq!(m.requests_total(), 2);
        assert_eq!(m.errors_total(), 1);
        let json = m.to_json();
        assert!(json.contains("\"endpoint\":\"/healthz\""), "{json}");
        assert!(json.contains("\"endpoint\":\"/synthesize\""), "{json}");
        assert!(json.contains("\"p50_ms\":"), "{json}");
        assert!(json.contains("\"p99_ms\":"), "{json}");
        assert!(json.contains("\"le_ms\":null"), "{json}");
    }

    #[test]
    fn admission_keepalive_and_model_counters() {
        let m = ServerMetrics::new();
        m.note_queued();
        m.note_queued();
        m.note_shed();
        m.note_connection_done(3);
        m.note_connection_done(5);
        m.note_model_request("restaurant");
        m.note_model_request("restaurant");
        m.note_model_request("cora");
        assert_eq!(m.queued_total(), 2);
        assert_eq!(m.shed_total(), 1);
        assert_eq!(m.connections_total(), 2);
        assert_eq!(m.requests_per_conn(), 4.0);
        assert_eq!(
            m.model_requests(),
            vec![("cora".to_string(), 1), ("restaurant".to_string(), 2)]
        );
        let json = m.to_json();
        for needle in [
            "\"admission\":{\"queued\":2,\"shed\":1}",
            "\"connections_total\":2",
            "\"requests_per_conn\":4",
            "\"max_requests_per_conn\":5",
            "\"model_requests\":{\"cora\":1,\"restaurant\":2}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let m = ServerMetrics::new();
        let mut lat = EndpointLat::default();
        for ms in 1..=100 {
            lat.record(ms as f64);
        }
        let mut sorted = lat.samples.clone();
        sorted.sort_by(f64::total_cmp);
        // Nearest rank on 100 samples: the ceil(p·100)-th smallest.
        assert_eq!(EndpointLat::percentile(&sorted, 0.50), 50.0);
        assert_eq!(EndpointLat::percentile(&sorted, 0.99), 99.0);
        assert_eq!(EndpointLat::percentile(&sorted, 0.0), 1.0);
        assert_eq!(EndpointLat::percentile(&sorted, 1.0), 100.0);
        assert_eq!(EndpointLat::percentile(&[], 0.5), 0.0);
        assert_eq!(lat.max_ms, 100.0);
        assert_eq!(lat.count, 100);
        assert_eq!(lat.buckets.iter().sum::<u64>(), 100);
        drop(m);
    }
}
