//! Hosting the program in-process: build the experiment and snapshot,
//! round-trip the snapshot through its on-disk arena, and start the
//! servers a workload sends to.

use crate::catalog::Workload;
use crate::trace::Tracer;
use ctxrank_bench::{build_projector, build_snapshot, Experiment, ExperimentConfig};
use ctxrank_framework::{
    load_snapshot, partition_snapshot, save_snapshot, ServiceHandle, SnapshotProjector,
};
use ctxrank_router::{RouterConfig, RouterServer, RouterServerConfig, ScatterGather, ShardSpec};
use ctxrank_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the synthetic world the program is built from. Fixed, so
/// `--seed` varies only the generated workload, never the program's
/// data.
pub const WORLD_SEED: u64 = 0xd43a;

/// Result-cache budget, as `serve_demo` ships it.
pub const CACHE_BYTES: usize = 32 << 20;

/// Shards behind the router on `rank_routed`.
pub const SHARDS: usize = 2;

/// The server configuration every served workload uses.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default().with_cache(CACHE_BYTES)
}

/// The serving side of a workload.
pub struct Served {
    /// Unsharded handle over the loaded snapshot. It serves
    /// `rank_unique` and `rank_hot_publish`; on `rank_routed` it is the
    /// in-process reference the routed bodies are compared with.
    pub handle: Arc<ServiceHandle>,
    /// The delta projector `rank_hot_publish` folds click batches with.
    pub projector: Option<SnapshotProjector>,
    /// The unsharded server, or the shard servers behind the router.
    pub servers: Vec<Server>,
    pub router: Option<RouterServer>,
    /// The router's scatter-gather core, for its metrics.
    pub gather: Option<Arc<ScatterGather>>,
    /// Where the load goes: the server or the router.
    pub target: SocketAddr,
}

impl Served {
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        // The last handle on the scatter-gather closes its pooled shard
        // connections; a shard worker holding one would otherwise sit
        // out its keep-alive timeout before the shard can drain.
        drop(self.gather);
        for server in self.servers {
            server.shutdown();
        }
    }
}

pub struct Env {
    pub exp: Experiment,
    pub served: Option<Served>,
}

impl Env {
    pub fn shutdown(self) {
        if let Some(served) = self.served {
            served.shutdown();
        }
    }
}

/// Time `f` as a child span of `parent` when tracing.
fn step<R>(
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    if let Some(t) = tracer {
        t.record_interval(name, parent, 0, start, Instant::now());
    }
    out
}

/// Set the workload up from nothing until it is ready for its first
/// request; returns the environment and the seconds it took.
pub fn setup(w: Workload, scratch: &Path, rep: usize, tracer: Option<&Tracer>) -> (Env, f64) {
    let start = Instant::now();
    let root = tracer.map(|t| t.reserve_id());
    let exp = step(tracer, root, "setup.experiment", || {
        Experiment::build(ExperimentConfig::small(WORLD_SEED))
    });
    let served =
        (w != Workload::AnnotateCorpus).then(|| serve(w, &exp, scratch, rep, tracer, root));
    let end = Instant::now();
    if let (Some(t), Some(id)) = (tracer, root) {
        t.record_reserved(id, "setup", None, 0, start, end);
    }
    (Env { exp, served }, (end - start).as_secs_f64())
}

fn serve(
    w: Workload,
    exp: &Experiment,
    scratch: &Path,
    rep: usize,
    tracer: Option<&Tracer>,
    root: Option<u64>,
) -> Served {
    let (projector, built) = step(tracer, root, "setup.snapshot", || {
        if w == Workload::RankHotPublish {
            let (projector, snapshot) = build_projector(exp);
            (Some(projector), snapshot)
        } else {
            (None, build_snapshot(exp))
        }
    });
    let dir = scratch.join(format!("arena-{}-{rep}", std::process::id()));
    step(tracer, root, "setup.save", || {
        save_snapshot(&built, &dir).expect("save snapshot arena")
    });
    drop(built);
    let loaded = step(tracer, root, "framework.load", || {
        load_snapshot(&dir).expect("load snapshot arena")
    });
    std::fs::remove_dir_all(&dir).expect("remove snapshot arena");
    let handle = Arc::new(ServiceHandle::new(loaded));

    let (servers, router, gather, target) = step(tracer, root, "setup.start", || {
        if w == Workload::RankRouted {
            let parts = step(tracer, root, "framework.partition", || {
                partition_snapshot(&handle.current(), SHARDS).expect("partition snapshot")
            });
            let servers: Vec<Server> = parts
                .into_iter()
                .map(|p| {
                    let shard = Arc::new(ServiceHandle::new(p.snapshot));
                    Server::start(shard, serve_config().as_shard(p.bounds)).expect("start shard")
                })
                .collect();
            let specs = servers
                .iter()
                .map(|s| ShardSpec::single(s.local_addr()))
                .collect();
            let sg = Arc::new(ScatterGather::new(specs, RouterConfig::default()));
            let router = RouterServer::start(Arc::clone(&sg), RouterServerConfig::default())
                .expect("start router");
            let target = router.local_addr();
            (servers, Some(router), Some(sg), target)
        } else {
            let server = Server::start(Arc::clone(&handle), serve_config()).expect("start server");
            let target = server.local_addr();
            (vec![server], None, None, target)
        }
    });
    // Ready means answering: one health check through the front door.
    crate::load::get(target, "/healthz");
    Served {
        handle,
        projector,
        servers,
        router,
        gather,
        target,
    }
}

/// Set up `reps` times, keeping the last environment; returns it with
/// every repetition's set-up seconds.
pub fn setup_repeated(
    w: Workload,
    reps: usize,
    scratch: &Path,
    tracer: Option<&Tracer>,
) -> (Env, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        if let Some(env) = kept.take() {
            Env::shutdown(env);
        }
        let (env, secs) = setup(w, scratch, rep, tracer);
        times.push(secs);
        kept = Some(env);
    }
    (kept.expect("at least one set-up"), times)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
