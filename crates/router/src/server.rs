//! The router's HTTP front: a thin listener over [`ScatterGather`].
//!
//! Reuses the serve crate's HTTP/1.1 reader/writer verbatim so the
//! router speaks exactly the wire dialect shards and clients already
//! speak. Unlike the shard server there is no batcher and no worker
//! pool — each connection gets its own handler thread, and the real
//! concurrency lives in the per-request scatter (one scoped thread
//! per shard). Endpoints:
//!
//! * `POST /rank` — scatter, gather, merge; byte-identical body to the
//!   unsharded server's answer.
//! * `GET /healthz` — role, shard count, last uniformly-observed epoch.
//! * `GET /metrics` — Prometheus text (see [`RouterMetrics`]).
//! * `POST /admin/shutdown` — gated by
//!   [`RouterServerConfig::enable_shutdown_endpoint`]; wakes
//!   [`RouterServer::wait_for_shutdown_request`].
//!
//! [`RouterMetrics`]: crate::metrics::RouterMetrics

use crate::ScatterGather;
use ctxrank_serve::http::{read_request_deadline, write_response, HttpError, Request, Response};
use ctxrank_serve::{KEEP_ALIVE_TIMEOUT, REQUEST_DEADLINE, RETRY_AFTER_SECS};
use serde_json::json;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Listener knobs. `Default` binds an ephemeral loopback port with the
/// admin shutdown endpoint off. Keep-alive timeout, request deadline
/// and `Retry-After` are the serve crate's defaults
/// ([`KEEP_ALIVE_TIMEOUT`], [`REQUEST_DEADLINE`], [`RETRY_AFTER_SECS`]).
#[derive(Debug, Clone)]
pub struct RouterServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Expose `POST /admin/shutdown`.
    pub enable_shutdown_endpoint: bool,
}

impl Default for RouterServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            enable_shutdown_endpoint: false,
        }
    }
}

struct Inner {
    sg: Arc<ScatterGather>,
    config: RouterServerConfig,
    shutting: AtomicBool,
    /// Handler threads still alive (reaped opportunistically by the
    /// acceptor, joined on shutdown).
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
}

/// A running router front. Call [`RouterServer::shutdown`] for a
/// graceful drain; dropping without it aborts the threads unjoined.
pub struct RouterServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl RouterServer {
    /// Bind and start serving `sg`. Returns as soon as the listener is
    /// live.
    pub fn start(sg: Arc<ScatterGather>, config: RouterServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            sg,
            config,
            shutting: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ctxrank-router-acceptor".into())
                .spawn(move || run_acceptor(&inner, listener))
                .expect("spawn acceptor")
        };
        Ok(Self {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a client calls `POST /admin/shutdown` (requires
    /// `enable_shutdown_endpoint`).
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self
            .inner
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        while !*requested {
            requested = self
                .inner
                .shutdown_cv
                .wait(requested)
                .expect("shutdown flag poisoned");
        }
    }

    /// Graceful drain: stop accepting, finish in-flight requests, join
    /// every handler thread.
    pub fn shutdown(mut self) {
        self.inner.shutting.store(true, Ordering::Release);
        // Wake the acceptor out of `accept()`; it checks the flag
        // before handling the throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            t.join().expect("acceptor panicked");
        }
        let handlers =
            std::mem::take(&mut *self.inner.handlers.lock().expect("handler list poisoned"));
        for t in handlers {
            t.join().expect("handler panicked");
        }
    }
}

fn run_acceptor(inner: &Arc<Inner>, listener: TcpListener) {
    for conn in listener.incoming() {
        if inner.shutting.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let handler = {
            let inner = Arc::clone(inner);
            std::thread::Builder::new()
                .name("ctxrank-router-conn".into())
                .spawn(move || serve_connection(&inner, stream))
                .expect("spawn handler")
        };
        let mut handlers = inner.handlers.lock().expect("handler list poisoned");
        handlers.retain(|h| !h.is_finished());
        handlers.push(handler);
    }
}

fn serve_connection(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(KEEP_ALIVE_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        // Idle timeout must be re-armed each iteration: the request
        // parser re-arms the socket timeout against its own deadline.
        let _ = reader.get_ref().set_read_timeout(Some(KEEP_ALIVE_TIMEOUT));
        let request = match read_request_deadline(&mut reader, Some(REQUEST_DEADLINE)) {
            Ok(Some(req)) => req,
            Ok(None) | Err(HttpError::Io(_)) => return,
            Err(HttpError::Timeout) => {
                let resp = Response::json(408, &json!({"error": "request timed out"}));
                let _ = write_response(&mut writer, &resp, false);
                return;
            }
            Err(HttpError::TooLarge) => {
                let resp = Response::json(413, &json!({"error": "request too large"}));
                let _ = write_response(&mut writer, &resp, false);
                return;
            }
            Err(HttpError::BadRequest(detail)) => {
                let resp = Response::json(400, &json!({"error": detail}));
                let _ = write_response(&mut writer, &resp, false);
                return;
            }
        };
        let keep_alive = request.keep_alive && !inner.shutting.load(Ordering::Acquire);
        let response = dispatch(inner, &request);
        if write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn dispatch(inner: &Inner, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/rank") => {
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return Response::json(400, &json!({"error": "body is not UTF-8"}));
            };
            match inner.sg.rank(body) {
                Ok(outcome) => outcome.render(),
                Err(e) => {
                    let status = e.status();
                    let resp = Response::json(status, &json!({"error": e.to_string()}));
                    if status == 503 {
                        resp.with_header("retry-after", RETRY_AFTER_SECS.to_string())
                    } else {
                        resp
                    }
                }
            }
        }
        ("GET", "/healthz") => Response::json(
            200,
            &json!({
                "status": "ok",
                "role": "router",
                "shards": inner.sg.shard_count(),
                "observed_epoch": inner.sg.observed_epoch(),
            }),
        ),
        ("GET", "/metrics") => Response::text(
            200,
            inner
                .sg
                .metrics()
                .render_prometheus(inner.sg.observed_epoch()),
        ),
        ("POST", "/admin/shutdown") if inner.config.enable_shutdown_endpoint => {
            let mut requested = inner
                .shutdown_requested
                .lock()
                .expect("shutdown flag poisoned");
            *requested = true;
            inner.shutdown_cv.notify_all();
            Response::json(200, &json!({"status": "shutting down"}))
        }
        ("GET" | "POST", _) => Response::json(404, &json!({"error": "no such endpoint"})),
        _ => Response::json(405, &json!({"error": "method not allowed"})),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RouterConfig, ShardSpec};
    use ctxrank_serve::{one_shot, ClientConfig};
    use std::time::Duration;

    fn start_router(shards: Vec<ShardSpec>) -> RouterServer {
        let sg = Arc::new(ScatterGather::new(
            shards,
            RouterConfig {
                client: ClientConfig {
                    connect_timeout: Duration::from_millis(200),
                    read_timeout: Duration::from_millis(200),
                    retries: 0,
                    ..ClientConfig::default()
                },
                gather_retries: 0,
                retry_backoff: Duration::from_millis(1),
            },
        ));
        RouterServer::start(
            sg,
            RouterServerConfig {
                enable_shutdown_endpoint: true,
                ..RouterServerConfig::default()
            },
        )
        .expect("start router")
    }

    /// A shard spec pointing at a bound-then-dropped port: connects are
    /// refused deterministically.
    fn dead_shard() -> ShardSpec {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        ShardSpec::single(addr)
    }

    #[test]
    fn healthz_and_metrics_respond_without_backends() {
        let router = start_router(vec![dead_shard(), dead_shard()]);
        let addr = router.local_addr();
        let (status, _, body) = one_shot(addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"role\":\"router\""), "{body}");
        assert!(body.contains("\"shards\":2"), "{body}");
        let (status, _, body) = one_shot(addr, "GET", "/metrics", None).expect("metrics");
        assert_eq!(status, 200);
        assert!(body.contains("ctxrank_router_fanout_total"), "{body}");
        router.shutdown();
    }

    #[test]
    fn rank_against_dead_shards_is_503_with_retry_after() {
        let router = start_router(vec![dead_shard()]);
        let addr = router.local_addr();
        let (status, headers, body) = one_shot(
            addr,
            "POST",
            "/rank",
            Some(r#"{"text":"x","candidates":["a"]}"#),
        )
        .expect("rank");
        assert_eq!(status, 503, "{body}");
        assert!(
            headers
                .iter()
                .any(|(name, _)| name.eq_ignore_ascii_case("retry-after")),
            "{headers:?}"
        );
        assert!(body.contains("unavailable"), "{body}");
        router.shutdown();
    }

    #[test]
    fn unknown_endpoint_is_404_and_shutdown_wakes_waiter() {
        let router = start_router(vec![dead_shard()]);
        let addr = router.local_addr();
        let (status, _, _) = one_shot(addr, "GET", "/nope", None).expect("404");
        assert_eq!(status, 404);
        let (status, _, _) = one_shot(addr, "POST", "/admin/shutdown", None).expect("shutdown");
        assert_eq!(status, 200);
        router.wait_for_shutdown_request();
        router.shutdown();
    }
}
