//! The load generator: open-loop and closed-loop `/rank` lanes.
//!
//! Each lane is one thread with one keep-alive connection; lane 0 runs
//! on the calling thread, so `lanes` is the generator's whole thread
//! and connection count. Lanes sleep until a request is due — they
//! never spin — and report how late they sent against the schedule.

use crate::stats::Fnv;
use crate::trace::Tracer;
use ctxrank_serve::Conn;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The `/rank` request body for a document and its candidates.
pub fn rank_body(text: &str, candidates: &[String]) -> String {
    serde_json::to_string(&serde_json::json!({
        "text": text,
        "candidates": serde_json::Value::Seq(
            candidates.iter().cloned().map(serde_json::Value::Str).collect()
        ),
    }))
    .expect("render request body")
}

/// The body of request `i` of a run, generated when it is sent so a run
/// holds no pool of request bodies.
pub type Source<'a> = dyn Fn(usize) -> String + Sync + 'a;

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct Reply {
    pub lane: usize,
    pub body: usize,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// The epoch the response body claims, if it starts with one.
    pub epoch: Option<u64>,
    /// FNV-1a digest of the body's bytes after the epoch digits: runs
    /// keep this instead of the bodies themselves.
    pub digest: u64,
    /// Open loop: from the scheduled arrival to the last response byte.
    /// Closed loop: from send to the last response byte.
    pub latency_ms: f64,
    /// How long after it could have been sent the request went out:
    /// after both its due time and the lane's previous response.
    pub late_ms: f64,
}

impl Reply {
    fn new(lane: usize, body: usize, (status, payload): (u16, String)) -> Self {
        Self {
            lane,
            body,
            status,
            epoch: reply_epoch(&payload),
            digest: Fnv::of(after_epoch(payload.as_bytes())),
            latency_ms: 0.0,
            late_ms: 0.0,
        }
    }
}

/// Start offset that lets every lane thread reach its first sleep
/// before the first arrival is due.
const START_SLACK: Duration = Duration::from_millis(20);

/// Open loop: arrival `k` is due `arrivals[k].0` seconds after the
/// phase starts, carries body `arrivals[k].1`, and goes out on lane
/// `k % lanes`.
pub fn open_loop(
    addr: SocketAddr,
    arrivals: &[(f64, usize)],
    source: &Source<'_>,
    lanes: usize,
    tracer: Option<&Tracer>,
) -> Vec<Reply> {
    let start = Instant::now() + START_SLACK;
    run_lanes(lanes, |lane| {
        let mut conn = Lane::connect(addr);
        let mut out = Vec::with_capacity(arrivals.len() / lanes + 1);
        for (k, &(at, body)) in arrivals.iter().enumerate().skip(lane).step_by(lanes) {
            let json = source(body);
            let due = start + Duration::from_secs_f64(at);
            let ready = Instant::now();
            if due > ready {
                std::thread::sleep(due - ready);
            }
            let sent = Instant::now();
            let response = conn.post(&json);
            let done = Instant::now();
            if let Some(t) = tracer {
                t.record_interval("bench.request", None, k as u64, sent, done);
            }
            out.push(Reply {
                latency_ms: ms(done.saturating_duration_since(due)),
                late_ms: ms(sent.saturating_duration_since(due.max(ready))),
                ..Reply::new(lane, body, response)
            });
        }
        out
    })
}

/// Closed loop: every lane sends its next request as soon as the
/// previous one completes, until `seconds` have passed, taking bodies
/// from `next`.
pub fn closed_loop(
    addr: SocketAddr,
    source: &Source<'_>,
    lanes: usize,
    seconds: f64,
    next: &(dyn Fn() -> usize + Sync),
) -> Vec<Reply> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    run_lanes(lanes, |lane| {
        let mut conn = Lane::connect(addr);
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let body = next();
            let json = source(body);
            let sent = Instant::now();
            let response = conn.post(&json);
            let done = Instant::now();
            out.push(Reply {
                latency_ms: ms(done - sent),
                ..Reply::new(lane, body, response)
            });
        }
        out
    })
}

/// Run `lane(i)` for `i in 0..lanes`, lane 0 on this thread, and
/// concatenate the results in lane order.
fn run_lanes<F>(lanes: usize, lane: F) -> Vec<Reply>
where
    F: Fn(usize) -> Vec<Reply> + Sync,
{
    let lanes = lanes.max(1);
    std::thread::scope(|scope| {
        let lane = &lane;
        let others: Vec<_> = (1..lanes).map(|i| scope.spawn(move || lane(i))).collect();
        let mut out = lane(0);
        for h in others {
            out.extend(h.join().expect("load lane panicked"));
        }
        out
    })
}

/// A lane's connection; reconnects after a transport error.
struct Lane {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Lane {
    fn connect(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: Conn::connect(addr).ok(),
        }
    }

    fn post(&mut self, json: &str) -> (u16, String) {
        if self.conn.is_none() {
            self.conn = Conn::connect(self.addr).ok();
        }
        let Some(conn) = self.conn.as_mut() else {
            return (0, String::new());
        };
        match conn.request("POST", "/rank", Some(json)) {
            Ok((status, _headers, body)) => (status, body),
            Err(_) => {
                self.conn = None;
                (0, String::new())
            }
        }
    }
}

/// One GET over a fresh connection: the readiness check at set-up.
pub fn get(addr: SocketAddr, path: &str) -> String {
    let mut conn = Conn::connect(addr).expect("connect for scrape");
    let (status, _, body) = conn.request("GET", path, None).expect("scrape");
    assert_eq!(status, 200, "GET {path} answered {status}");
    body
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The epoch a `/rank` response body claims (`{"epoch":N,...`).
pub fn reply_epoch(payload: &str) -> Option<u64> {
    let rest = payload.strip_prefix("{\"epoch\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The bytes of a rendered `/rank` body after its epoch digits — the
/// part that does not depend on the epoch.
pub fn after_epoch(rendered: &[u8]) -> &[u8] {
    let rest = rendered.strip_prefix(b"{\"epoch\":").unwrap_or(rendered);
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    &rest[digits..]
}

/// Whether `reply` is a 200 whose body is `{"epoch":E` followed by
/// `expected_rest` for the epoch `E` it claims — exactly what
/// `render_rank_response(E, ranked)` produces when `expected_rest` is
/// [`after_epoch`] of a render of `ranked` at any epoch. Bytes are
/// compared through their 64-bit digest; any differing byte fails.
pub fn reply_ok(reply: &Reply, expected_rest: &[u8]) -> bool {
    reply.status == 200 && reply.epoch.is_some() && reply.digest == Fnv::of(expected_rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, payload: &str) -> Reply {
        Reply::new(0, 0, (status, payload.to_string()))
    }

    #[test]
    fn tampered_body_is_a_failure() {
        let rendered = r#"{"epoch":3,"results":[{"surface":"a","score":1.5,"relevance":0.25}]}"#;
        let rest = after_epoch(rendered.as_bytes());
        assert!(reply_ok(&reply(200, rendered), rest));
        // The same results at a later epoch are what that epoch renders.
        let later = reply(200, &rendered.replace(":3,", ":4,"));
        assert!(reply_ok(&later, rest));
        assert_eq!(later.epoch, Some(4));
        // One changed digit in a score.
        assert!(!reply_ok(
            &reply(200, &rendered.replace("1.5", "1.6")),
            rest
        ));
        // A truncated body, a missing epoch, a shed request and a
        // transport error.
        assert!(!reply_ok(&reply(200, &rendered[..20]), rest));
        assert!(!reply_ok(
            &reply(200, r#"{"results":[]}"#),
            br#"{"results":[]}"#
        ));
        assert!(!reply_ok(&reply(503, rendered), rest));
        assert!(!reply_ok(&reply(0, ""), rest));
    }

    #[test]
    fn epoch_is_read_from_the_body_prefix() {
        assert_eq!(reply_epoch(r#"{"epoch":42,"results":[]}"#), Some(42));
        assert_eq!(reply_epoch(r#"{"error":"x"}"#), None);
    }
}
