//! Golden `/metrics` exposition: a registry populated with fixed values
//! must render exactly the committed text — every bucket line, `+Inf`,
//! `_sum`, `_count`, and the unlabelled queue-wait series. Scrape
//! parsers and CI greps read this text, so any byte change is a break.

use ctxrank_serve::{Endpoint, Metrics};

fn populated() -> Metrics {
    let m = Metrics::default();
    // Observations below, on and above bucket bounds, on every endpoint.
    let latencies = [0.00005, 0.0001, 0.0003, 0.001, 0.004, 0.02, 0.3, 5.0];
    for (i, ep) in Endpoint::ALL.into_iter().enumerate() {
        for secs in &latencies[..=i + 2] {
            m.record_request(ep, *secs);
        }
    }
    for secs in [0.00002, 0.0004, 0.0004, 0.007, 0.09, 3.0] {
        m.record_queue_wait(secs);
    }
    m.record_shed();
    m.record_shed();
    m.record_timeout();
    for _ in 0..3 {
        m.record_io_error();
    }
    m.record_cache_miss();
    m.record_cache_hit();
    m.record_cache_hit();
    m.record_cache_eviction();
    m.add_cache_bytes(500);
    m.sub_cache_bytes(120);
    m.set_queue_depth(5);
    m.record_batch(16);
    m.record_batch(3);
    m.set_ingest_lag_events(42);
    m.record_delta_publish();
    m.set_segment_bytes(8192);
    m.record_feedback();
    m.set_propensity_ranks(8);
    m
}

#[test]
fn serve_exposition_matches_golden_text() {
    assert_eq!(
        populated().render_prometheus(7),
        include_str!("golden/metrics.prom")
    );
}
