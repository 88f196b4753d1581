//! Driver for the server loopback benchmark `perf_report` runs:
//! micro-batched keep-alive `/rank` traffic versus one request per
//! connection at batch size 1, against a real `ctxrank-serve` server
//! on an ephemeral loopback port.

use crate::Experiment;
use std::net::SocketAddr;

/// How many client threads drive the server. The interesting regime is
/// more concurrent clients than cores: that is what fills micro-batches.
pub const LOOPBACK_CLIENTS: usize = 16;
/// Requests issued per client thread per measured pass. High enough
/// that the per-pass thread spawns are amortized to noise.
pub const LOOPBACK_REQUESTS_PER_CLIENT: usize = 64;
/// Serving requests are page-fragment sized, not full 2.5 KB documents.
pub const LOOPBACK_DOC_BYTES: usize = 300;

/// Pre-rendered `/rank` request bodies (JSON) plus the number of raw
/// document-text bytes they carry (the throughput denominator).
pub struct LoopbackWorkload {
    pub bodies: Vec<String>,
    pub doc_bytes: usize,
}

/// One JSON body per request in a full pass, cycled from the synthetic
/// news stream with ~6 candidate surfaces each.
pub fn loopback_workload(exp: &Experiment) -> LoopbackWorkload {
    let surfaces: Vec<&String> = {
        let mut s: Vec<&String> = exp.interest_raw.keys().collect();
        s.sort_unstable();
        s
    };
    let total = LOOPBACK_CLIENTS * LOOPBACK_REQUESTS_PER_CLIENT;
    let mut bodies = Vec::with_capacity(total);
    let mut doc_bytes = 0;
    for i in 0..total {
        let story = &exp.world.news[i % exp.world.news.len()];
        let mut text = story.text.clone();
        let mut cut = LOOPBACK_DOC_BYTES.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
        doc_bytes += text.len();
        let candidates: Vec<serde_json::Value> = (0..6)
            .map(|j| serde_json::Value::Str(surfaces[(i * 7 + j * 13) % surfaces.len()].clone()))
            .collect();
        let body = serde_json::json!({
            "text": text,
            "candidates": serde_json::Value::Seq(candidates),
        });
        bodies.push(serde_json::to_string(&body).expect("render body"));
    }
    LoopbackWorkload { bodies, doc_bytes }
}

/// Drive one full pass: `LOOPBACK_CLIENTS` threads each send their
/// slice of `bodies`. With `keep_alive` each client reuses one
/// connection; otherwise every request opens a fresh connection (the
/// baseline). Panics on any non-200, so a shedding or torn server
/// fails the benchmark rather than skewing it.
pub fn drive_loopback_pass(addr: SocketAddr, bodies: &[String], keep_alive: bool) -> usize {
    std::thread::scope(|scope| {
        let threads: Vec<_> = bodies
            .chunks(bodies.len().div_ceil(LOOPBACK_CLIENTS))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut results = 0usize;
                    let mut conn = if keep_alive {
                        Some(ctxrank_serve::client::Conn::connect(addr).expect("connect"))
                    } else {
                        None
                    };
                    for body in chunk {
                        let (status, _, resp) = match conn.as_mut() {
                            Some(c) => c.request("POST", "/rank", Some(body)),
                            None => {
                                ctxrank_serve::client::one_shot(addr, "POST", "/rank", Some(body))
                            }
                        }
                        .expect("rank request");
                        assert_eq!(status, 200, "loopback bench got {status}: {resp}");
                        results += resp.len();
                    }
                    results
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client")).sum()
    })
}

/// Server configuration for the two measured modes. Both use the same
/// worker count and a queue deep enough that nothing sheds; only the
/// batch size differs.
pub fn loopback_config(batch_max_size: usize) -> ctxrank_serve::ServeConfig {
    ctxrank_serve::ServeConfig {
        workers: LOOPBACK_CLIENTS,
        queue_capacity: 4096,
        batch_max_size,
        batch_max_wait: std::time::Duration::from_micros(50),
        ..ctxrank_serve::ServeConfig::default()
    }
}
