//! Live serving metrics, rendered in Prometheus text format.
//!
//! Everything is a plain atomic — no locks on the request path, no
//! allocation until `/metrics` renders. The histogram buckets are fixed
//! at compile time (Prometheus-style cumulative `le` buckets), so two
//! scrapes are always comparable and the exporter needs no state.
//! [`Histogram`], [`render_header`] and [`render_scalar`] are the
//! workspace's one exposition toolkit: the router's registry renders
//! through them too.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Endpoints that get their own counter + latency histogram. `Other`
/// absorbs 404s and bad requests so abuse is visible too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Rank,
    Annotate,
    Feedback,
    Healthz,
    Metrics,
    Other,
}

impl Endpoint {
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Rank,
        Endpoint::Annotate,
        Endpoint::Feedback,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Rank => "rank",
            Endpoint::Annotate => "annotate",
            Endpoint::Feedback => "feedback",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Rank => 0,
            Endpoint::Annotate => 1,
            Endpoint::Feedback => 2,
            Endpoint::Healthz => 3,
            Endpoint::Metrics => 4,
            Endpoint::Other => 5,
        }
    }
}

/// Upper bounds of the latency buckets, in seconds. Spans sub-100µs
/// cache hits to multi-second pathologies; the final implicit bucket is
/// `+Inf`.
pub const LATENCY_BUCKETS_SECS: [f64; 12] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
];

/// One latency histogram over [`LATENCY_BUCKETS_SECS`]: recording is
/// three relaxed atomic adds, rendering cumulates on the fly.
#[derive(Default)]
pub struct Histogram {
    /// One slot per finite bucket plus the `+Inf` slot. Stored
    /// non-cumulative; cumulated at render time.
    buckets: [AtomicU64; LATENCY_BUCKETS_SECS.len() + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub fn observe(&self, secs: f64) {
        let slot = LATENCY_BUCKETS_SECS
            .iter()
            .position(|&ub| secs <= ub)
            .unwrap_or(LATENCY_BUCKETS_SECS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((secs * 1e6) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Append the `_bucket`/`_sum`/`_count` series of metric `name`.
    /// `labels` is a rendered label list without braces
    /// (`endpoint="rank"`), or empty for an unlabelled series.
    pub fn render(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS_SECS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{ub}\"}} {cumulative}"
            );
        }
        cumulative += self.buckets[LATENCY_BUCKETS_SECS.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
        );
        let (open, close) = if labels.is_empty() {
            ("", "")
        } else {
            ("{", "}")
        };
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(out, "{name}_sum{open}{labels}{close} {sum}");
        let _ = writeln!(out, "{name}_count{open}{labels}{close} {}", self.count());
    }
}

/// Append the `# HELP`/`# TYPE` header of metric `name`; `kind` is
/// `counter`, `gauge` or `histogram`.
pub fn render_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Append one unlabelled counter or gauge, header included.
pub fn render_scalar(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    render_header(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

/// The server's metric registry. One instance per [`crate::Server`],
/// shared by acceptor, workers and the batcher.
#[derive(Default)]
pub struct Metrics {
    requests: [AtomicU64; Endpoint::ALL.len()],
    latency: [Histogram; Endpoint::ALL.len()],
    /// Requests refused with 503 because a bound was hit (connection
    /// backlog or rank queue).
    shed: AtomicU64,
    /// Rank jobs currently queued in the micro-batcher.
    queue_depth: AtomicU64,
    /// Micro-batches executed, and documents they carried — the ratio
    /// is the realized batch size.
    batches: AtomicU64,
    batched_docs: AtomicU64,
    /// Requests that blew the per-request deadline (answered 408).
    timeouts: AtomicU64,
    /// Connections dropped on a transport error mid-request (resets,
    /// truncated sends). Idle keep-alive closes are not counted.
    io_errors: AtomicU64,
    /// Result-cache outcomes: a hit answers from the rendered body
    /// without touching the batcher or the ranker.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Entries evicted under capacity pressure (CLOCK sweep). Lazy
    /// dead-epoch retirement is *not* counted here — it only moves the
    /// bytes gauge.
    cache_evictions: AtomicU64,
    /// Resident cache bytes (bodies + per-entry overhead).
    cache_bytes: AtomicU64,
    /// Time a `/rank` job spent queued: accept to batcher dispatch.
    /// Separates "we queued too long" from "ranking was slow" when an
    /// SLO is missed.
    queue_wait: Histogram,
    /// Sealed click-log events not yet folded into the served snapshot
    /// (newest sealed segment vs. served epoch).
    ingest_lag_events: AtomicU64,
    /// Incremental delta publishes applied to the served snapshot.
    delta_publishes: AtomicU64,
    /// Bytes across live sealed click-log segments.
    segment_bytes: AtomicU64,
    /// Feedback batches accepted through `POST /feedback` and folded
    /// into the online §VIII adjuster.
    feedback: AtomicU64,
    /// Ranks covered by the installed propensity table (0 = naive, no
    /// IPW reweighting). Refreshed from the live handle at scrape time.
    propensity_ranks: AtomicU64,
}

impl Metrics {
    pub fn record_request(&self, ep: Endpoint, secs: f64) {
        self.requests[ep.index()].fetch_add(1, Ordering::Relaxed);
        self.latency[ep.index()].observe(secs);
    }

    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn requests_total(&self, ep: Endpoint) -> u64 {
        self.requests[ep.index()].load(Ordering::Relaxed)
    }

    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    pub fn record_batch(&self, docs: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_docs.fetch_add(docs as u64, Ordering::Relaxed);
    }

    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn timeout_total(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    pub fn record_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_cache_bytes(&self, bytes: u64) {
        self.cache_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn sub_cache_bytes(&self, bytes: u64) {
        self.cache_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn cache_hits_total(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    pub fn cache_misses_total(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    pub fn cache_evictions_total(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes.load(Ordering::Relaxed)
    }

    /// Observe one job's accept→dispatch wait.
    pub fn record_queue_wait(&self, secs: f64) {
        self.queue_wait.observe(secs);
    }

    /// Set the ingest lag: sealed events not yet in the served epoch.
    pub fn set_ingest_lag_events(&self, events: u64) {
        self.ingest_lag_events.store(events, Ordering::Relaxed);
    }

    /// Count one incremental delta publish.
    pub fn record_delta_publish(&self) {
        self.delta_publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the live sealed-segment footprint of the click log.
    pub fn set_segment_bytes(&self, bytes: u64) {
        self.segment_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Count one accepted feedback batch.
    pub fn record_feedback(&self) {
        self.feedback.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the rank coverage of the installed propensity table.
    pub fn set_propensity_ranks(&self, ranks: u64) {
        self.propensity_ranks.store(ranks, Ordering::Relaxed);
    }

    pub fn propensity_ranks(&self) -> u64 {
        self.propensity_ranks.load(Ordering::Relaxed)
    }

    /// Render the whole registry in Prometheus text exposition format.
    /// `epoch` is read from the live [`ctxrank_framework::ServiceHandle`]
    /// at scrape time so the gauge always names the snapshot actually
    /// being served.
    pub fn render_prometheus(&self, epoch: u64) -> String {
        let mut out = String::with_capacity(4096);
        let load = |v: &AtomicU64| v.load(Ordering::Relaxed);

        render_header(
            &mut out,
            "ctxrank_requests_total",
            "counter",
            "Requests handled, by endpoint.",
        );
        for ep in Endpoint::ALL {
            let _ = writeln!(
                out,
                "ctxrank_requests_total{{endpoint=\"{}\"}} {}",
                ep.label(),
                load(&self.requests[ep.index()])
            );
        }

        let scalars = [
            (
                "ctxrank_shed_total",
                "counter",
                "Requests refused with 503 under load.",
                load(&self.shed),
            ),
            (
                "ctxrank_timeout_total",
                "counter",
                "Requests that exceeded the per-request deadline.",
                load(&self.timeouts),
            ),
            (
                "ctxrank_io_error_total",
                "counter",
                "Connections dropped on a transport error mid-request.",
                load(&self.io_errors),
            ),
            (
                "ctxrank_cache_hits_total",
                "counter",
                "Rank requests answered from the result cache.",
                load(&self.cache_hits),
            ),
            (
                "ctxrank_cache_misses_total",
                "counter",
                "Rank requests that missed the result cache.",
                load(&self.cache_misses),
            ),
            (
                "ctxrank_cache_evictions_total",
                "counter",
                "Cache entries evicted under capacity pressure.",
                load(&self.cache_evictions),
            ),
            (
                "ctxrank_cache_bytes",
                "gauge",
                "Resident result-cache bytes.",
                load(&self.cache_bytes),
            ),
            (
                "ctxrank_queue_depth",
                "gauge",
                "Rank jobs waiting in the micro-batcher.",
                load(&self.queue_depth),
            ),
            (
                "ctxrank_snapshot_epoch",
                "gauge",
                "Epoch of the snapshot being served.",
                epoch,
            ),
            (
                "ctxrank_ingest_lag_events",
                "gauge",
                "Sealed click-log events not yet folded into the served epoch.",
                load(&self.ingest_lag_events),
            ),
            (
                "ctxrank_delta_publish_total",
                "counter",
                "Incremental delta publishes applied to the served snapshot.",
                load(&self.delta_publishes),
            ),
            (
                "ctxrank_segment_bytes",
                "gauge",
                "Bytes across live sealed click-log segments.",
                load(&self.segment_bytes),
            ),
            (
                "ctxrank_feedback_total",
                "counter",
                "Feedback batches folded into the online CTR adjuster.",
                load(&self.feedback),
            ),
            (
                "ctxrank_propensity_ranks",
                "gauge",
                "Ranks covered by the installed propensity table (0 = naive).",
                load(&self.propensity_ranks),
            ),
            (
                "ctxrank_rank_batches_total",
                "counter",
                "Micro-batches executed.",
                load(&self.batches),
            ),
            (
                "ctxrank_rank_batched_docs_total",
                "counter",
                "Documents ranked through micro-batches.",
                load(&self.batched_docs),
            ),
        ];
        for (name, kind, help, value) in scalars {
            render_scalar(&mut out, name, kind, help, value);
        }

        const QUEUE_WAIT: &str = "ctxrank_queue_wait_seconds";
        render_header(
            &mut out,
            QUEUE_WAIT,
            "histogram",
            "Rank-job wait from accept to batcher dispatch.",
        );
        self.queue_wait.render(&mut out, QUEUE_WAIT, "");

        const LATENCY: &str = "ctxrank_request_latency_seconds";
        render_header(
            &mut out,
            LATENCY,
            "histogram",
            "Request latency, by endpoint.",
        );
        for ep in Endpoint::ALL {
            self.latency[ep.index()].render(
                &mut out,
                LATENCY,
                &format!("endpoint=\"{}\"", ep.label()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_count_matches() {
        let m = Metrics::default();
        m.record_request(Endpoint::Rank, 0.00005); // first bucket
        m.record_request(Endpoint::Rank, 0.002); // mid bucket
        m.record_request(Endpoint::Rank, 5.0); // +Inf only
        let text = m.render_prometheus(7);
        assert!(text
            .contains("ctxrank_request_latency_seconds_bucket{endpoint=\"rank\",le=\"0.0001\"} 1"));
        assert!(text
            .contains("ctxrank_request_latency_seconds_bucket{endpoint=\"rank\",le=\"0.0025\"} 2"));
        assert!(text
            .contains("ctxrank_request_latency_seconds_bucket{endpoint=\"rank\",le=\"+Inf\"} 3"));
        assert!(text.contains("ctxrank_request_latency_seconds_count{endpoint=\"rank\"} 3"));
        assert!(text.contains("ctxrank_snapshot_epoch 7"));
    }

    #[test]
    fn counters_and_gauges_render() {
        let m = Metrics::default();
        m.record_shed();
        m.record_shed();
        m.set_queue_depth(5);
        m.record_batch(16);
        m.record_timeout();
        m.record_io_error();
        m.record_io_error();
        m.record_io_error();
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_shed_total 2"));
        assert!(text.contains("ctxrank_timeout_total 1"));
        assert!(text.contains("ctxrank_io_error_total 3"));
        assert_eq!(m.timeout_total(), 1);
        assert!(text.contains("ctxrank_queue_depth 5"));
        assert!(text.contains("ctxrank_rank_batches_total 1"));
        assert!(text.contains("ctxrank_rank_batched_docs_total 16"));
        assert!(text.contains("ctxrank_requests_total{endpoint=\"metrics\"} 0"));
    }

    #[test]
    fn cache_counters_and_bytes_render() {
        let m = Metrics::default();
        m.record_cache_miss();
        m.record_cache_hit();
        m.record_cache_hit();
        m.record_cache_eviction();
        m.add_cache_bytes(500);
        m.sub_cache_bytes(120);
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_cache_hits_total 2"));
        assert!(text.contains("ctxrank_cache_misses_total 1"));
        assert!(text.contains("ctxrank_cache_evictions_total 1"));
        assert!(text.contains("ctxrank_cache_bytes 380"));
        assert_eq!(m.cache_hits_total(), 2);
        assert_eq!(m.cache_misses_total(), 1);
        assert_eq!(m.cache_evictions_total(), 1);
        assert_eq!(m.cache_bytes(), 380);
    }

    #[test]
    fn ingestion_metrics_render() {
        let m = Metrics::default();
        m.set_ingest_lag_events(42);
        m.record_delta_publish();
        m.record_delta_publish();
        m.set_segment_bytes(8192);
        let text = m.render_prometheus(3);
        assert!(text.contains("ctxrank_ingest_lag_events 42"));
        assert!(text.contains("ctxrank_delta_publish_total 2"));
        assert!(text.contains("ctxrank_segment_bytes 8192"));
        // The lag gauge is a set-style gauge: it can go back down.
        m.set_ingest_lag_events(0);
        assert!(m
            .render_prometheus(3)
            .contains("ctxrank_ingest_lag_events 0"));
    }

    #[test]
    fn feedback_and_propensity_metrics_render() {
        let m = Metrics::default();
        m.record_feedback();
        m.record_feedback();
        m.record_feedback();
        m.set_propensity_ranks(8);
        m.record_request(Endpoint::Feedback, 0.001);
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_feedback_total 3"));
        assert!(text.contains("ctxrank_propensity_ranks 8"));
        assert!(text.contains("ctxrank_requests_total{endpoint=\"feedback\"} 1"));
        assert_eq!(m.propensity_ranks(), 8);
        // Gauge semantics: replacing the table can shrink coverage.
        m.set_propensity_ranks(0);
        assert!(m
            .render_prometheus(1)
            .contains("ctxrank_propensity_ranks 0"));
    }

    #[test]
    fn queue_wait_histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.record_queue_wait(0.00005); // first bucket
        m.record_queue_wait(0.0004); // le=0.0005
        m.record_queue_wait(3.0); // +Inf only
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"0.0005\"} 2"));
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ctxrank_queue_wait_seconds_count 3"));
    }
}
