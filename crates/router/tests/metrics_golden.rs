//! Golden router `/metrics` exposition: a 3-shard registry populated
//! with fixed values must render exactly the committed text — counters,
//! the observed-epoch gauge and every per-shard histogram line.

use ctxrank_router::RouterMetrics;

#[test]
fn router_exposition_matches_golden_text() {
    let m = RouterMetrics::new(3);
    m.record_fanout(3);
    m.record_fanout(3);
    m.record_failover();
    m.record_epoch_mismatch();
    m.record_request();
    m.record_request();
    m.record_error();
    for secs in [0.00001, 0.0001, 0.003] {
        m.record_shard_latency(0, secs);
    }
    for secs in [0.0025, 0.04, 0.5] {
        m.record_shard_latency(1, secs);
    }
    // Shard 2 sees one +Inf observation; out-of-range shards are ignored.
    m.record_shard_latency(2, 10.0);
    m.record_shard_latency(9, 1.0);
    assert_eq!(m.render_prometheus(11), include_str!("golden/metrics.prom"));
}
