//! Sharded-cluster demo: split one snapshot across two shard servers
//! (shard 0 with a replica), put the scatter-gather router in front,
//! and prove the two headline properties live:
//!
//! * the router's merged `/rank` body is **byte-identical** to an
//!   unsharded single-process server ranking the same snapshot;
//! * a **two-phase epoch publish** (prepare on every backend, then
//!   commit) advances the whole cluster under concurrent router
//!   traffic without any client ever seeing a mixed-epoch response.
//!
//! ```text
//! cargo run --release --example cluster_demo
//! # in another terminal:
//! curl -s localhost:7979/healthz
//! curl -s localhost:7979/rank -d '{"text": "...", "candidates": ["..."]}'
//! curl -s localhost:7979/metrics
//! curl -s -X POST localhost:7979/admin/shutdown
//! ```
//!
//! Knobs: `CTXRANK_ROUTER_ADDR` (default `127.0.0.1:7979`),
//! `CTXRANK_SHARD0_ADDR` (`:7980`), `CTXRANK_SHARD1_ADDR` (`:7981`),
//! `CTXRANK_SHARD0_REPLICA_ADDR` (`:7982`), `CTXRANK_SINGLE_ADDR`
//! (`:7983` — the unsharded comparison server), `CTXRANK_THREADS`.

use ctxrank_bench::{build_projector, Experiment, ExperimentConfig};
use ctxrank_framework::persist::save_snapshot;
use ctxrank_framework::{partition_snapshot, ServiceHandle, Snapshot};
use ctxrank_querylog::{Event, SegmentConfig, SegmentStore};
use ctxrank_router::{RouterConfig, RouterServer, RouterServerConfig, ScatterGather, ShardSpec};
use ctxrank_serve::{one_shot, request_classified, ClientConfig, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn addr_env(var: &str, default: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| default.to_string())
}

/// Start one shard server (`bounds` published, owned flags rendered,
/// epoch barrier admin on).
fn start_shard(
    snapshot: Arc<Snapshot>,
    bounds: ctxrank_framework::ShardBounds,
    addr: String,
) -> Server {
    Server::start(
        Arc::new(ServiceHandle::new(snapshot)),
        ServeConfig {
            addr,
            // Explicit worker count: a single-core box would otherwise
            // size the pool at 1, and the router's pooled keep-alive
            // connection would starve the admin (barrier) endpoints.
            workers: 4,
            enable_shutdown_endpoint: true,
            ..ServeConfig::default()
        }
        .as_shard(bounds),
    )
    .expect("start shard server")
}

/// `POST /rank` and return the response body, panicking on non-200.
fn rank_body(addr: SocketAddr, body: &str) -> String {
    let (status, _, text) = one_shot(addr, "POST", "/rank", Some(body)).expect("rank request");
    assert_eq!(status, 200, "rank failed at {addr}: {text}");
    text
}

fn main() {
    eprintln!("cluster_demo: building the synthetic experiment (offline stage pipeline)...");
    let exp = Experiment::build(ExperimentConfig::small(0xd43a));
    let (mut projector, full) = build_projector(&exp);
    eprintln!(
        "cluster_demo: snapshot epoch {} with {} concepts",
        full.epoch(),
        full.interest().len()
    );

    // --- partition and boot the cluster --------------------------------
    let parts = partition_snapshot(&full, 2).expect("partition snapshot");
    let shard0 = start_shard(
        parts[0].snapshot.clone(),
        parts[0].bounds,
        addr_env("CTXRANK_SHARD0_ADDR", "127.0.0.1:7980"),
    );
    let shard1 = start_shard(
        parts[1].snapshot.clone(),
        parts[1].bounds,
        addr_env("CTXRANK_SHARD1_ADDR", "127.0.0.1:7981"),
    );
    // A replica of shard 0: same partition, second process slot. The
    // router fails over to it if the primary dies.
    let replica0 = start_shard(
        parts[0].snapshot.clone(),
        parts[0].bounds,
        addr_env("CTXRANK_SHARD0_REPLICA_ADDR", "127.0.0.1:7982"),
    );
    // The unsharded comparison server: one process, the whole snapshot.
    let handle = Arc::new(ServiceHandle::new(full.clone()));
    let single = Server::start(
        Arc::clone(&handle),
        ServeConfig {
            addr: addr_env("CTXRANK_SINGLE_ADDR", "127.0.0.1:7983"),
            workers: 4,
            enable_shutdown_endpoint: true,
            ..ServeConfig::default()
        },
    )
    .expect("start unsharded server");

    let sg = Arc::new(ScatterGather::new(
        vec![
            ShardSpec {
                primary: shard0.local_addr(),
                replicas: vec![replica0.local_addr()],
            },
            ShardSpec::single(shard1.local_addr()),
        ],
        RouterConfig::default(),
    ));
    let router = RouterServer::start(
        Arc::clone(&sg),
        RouterServerConfig {
            addr: addr_env("CTXRANK_ROUTER_ADDR", "127.0.0.1:7979"),
            enable_shutdown_endpoint: true,
        },
    )
    .expect("start router");
    eprintln!(
        "cluster_demo: shard 0 on {} (replica {}), shard 1 on {}, unsharded on {}",
        shard0.local_addr(),
        replica0.local_addr(),
        shard1.local_addr(),
        single.local_addr()
    );

    // --- prove bit-identity at the boot epoch --------------------------
    // Real surfaces plus one globally-unknown candidate, so the merge
    // exercises both the owned and the deduplicated-unknown paths.
    let mut surfaces: Vec<&String> = exp.interest_raw.keys().collect();
    surfaces.sort_unstable();
    let mut sample: Vec<String> = surfaces.iter().take(3).map(|s| s.to_string()).collect();
    sample.push("sharded unknown concept".to_string());
    let sample_doc = exp.world.news[0].text.chars().take(200).collect::<String>();
    let body = serde_json::to_string(&serde_json::json!({
        "text": sample_doc,
        "candidates": serde_json::Value::Seq(
            sample.iter().cloned().map(serde_json::Value::Str).collect()
        ),
    }))
    .expect("sample body");

    let merged = rank_body(router.local_addr(), &body);
    let unsharded = rank_body(single.local_addr(), &body);
    assert_eq!(merged, unsharded, "router merge diverged from unsharded");
    eprintln!("cluster_demo: router merge is byte-identical to the unsharded answer ✓");

    // --- two-phase publish to epoch E+1 under router traffic -----------
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        let router_addr = router.local_addr();
        let body = body.clone();
        std::thread::spawn(move || {
            let mut epochs: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Acquire) {
                if let Ok((200, _, text)) = one_shot(router_addr, "POST", "/rank", Some(&body)) {
                    let epoch: u64 = text
                        .split("\"epoch\":")
                        .nth(1)
                        .and_then(|rest| {
                            rest.split(|c: char| !c.is_ascii_digit())
                                .next()?
                                .parse()
                                .ok()
                        })
                        .expect("epoch in response");
                    epochs.push(epoch);
                }
            }
            epochs
        })
    };

    // A burst of fresh click events folds into a delta publish on the
    // unsharded handle — that gives us the next epoch's full snapshot.
    let mut store = SegmentStore::in_memory(SegmentConfig::default());
    for (i, s) in surfaces.iter().take(64).enumerate() {
        store
            .append(&Event::Click {
                story: 1_000_000 + i as u64,
                surface: s.to_string(),
                views: 120,
                clicks: (i % 7) as u64,
            })
            .expect("in-memory append");
    }
    store.seal().expect("seal ingest burst");
    let next_epoch = projector
        .publish_from(&store, &handle)
        .expect("delta publish");
    let next_full = handle.current();
    eprintln!("cluster_demo: unsharded server advanced to epoch {next_epoch}; running the shard barrier...");

    // Phase 1 — prepare: every backend (primaries *and* replicas) loads
    // the next partition into staging. No shard serves it yet.
    let next_parts = partition_snapshot(&next_full, 2).expect("partition next snapshot");
    let admin_client = ClientConfig {
        connect_timeout: std::time::Duration::from_secs(5),
        read_timeout: std::time::Duration::from_secs(5),
        retries: 0,
        ..ClientConfig::default()
    };
    let scratch = std::env::temp_dir().join(format!("ctxrank-cluster-demo-{}", std::process::id()));
    let backends: [(&Server, usize); 3] = [(&shard0, 0), (&replica0, 0), (&shard1, 1)];
    for (i, (server, part)) in backends.iter().enumerate() {
        let dir = scratch.join(format!("backend{i}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        save_snapshot(&next_parts[*part].snapshot, &dir).expect("save partition");
        let prepare = serde_json::to_string(&serde_json::json!({
            "dir": dir.to_string_lossy().into_owned(),
            "epoch": next_epoch,
        }))
        .expect("prepare body");
        let (status, _, text) = request_classified(
            server.local_addr(),
            "POST",
            "/admin/epoch/prepare",
            Some(&prepare),
            &admin_client,
        )
        .expect("prepare request");
        assert_eq!(status, 200, "prepare failed: {text}");
    }
    // Phase 2 — commit: atomically flip every backend to the staged
    // epoch. Router traffic continues throughout; a gather that lands
    // across the commit wave mixes epochs, which the router detects and
    // retries — clients only ever see single-epoch merges.
    let commit =
        serde_json::to_string(&serde_json::json!({ "epoch": next_epoch })).expect("commit body");
    for (server, _) in backends.iter() {
        let (status, _, text) = request_classified(
            server.local_addr(),
            "POST",
            "/admin/epoch/commit",
            Some(&commit),
            &admin_client,
        )
        .expect("commit request");
        assert_eq!(status, 200, "commit failed: {text}");
    }
    stop.store(true, Ordering::Release);
    let epochs = traffic.join().expect("traffic thread");
    let flips = epochs.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "router-observed epochs regressed: {epochs:?}"
    );
    eprintln!(
        "cluster_demo: {} in-flight responses, epochs monotone with {flips} flip(s), {} mixed-epoch gather(s) retried internally",
        epochs.len(),
        sg.metrics().epoch_mismatch_total()
    );
    let _ = std::fs::remove_dir_all(&scratch);

    // Bit-identity must hold at the new epoch too.
    let merged = rank_body(router.local_addr(), &body);
    let unsharded = rank_body(single.local_addr(), &body);
    assert_eq!(merged, unsharded, "post-publish merge diverged");
    eprintln!("cluster_demo: post-publish merge is byte-identical at epoch {next_epoch} ✓");

    let local = router.local_addr();
    println!("cluster_demo: router ready on http://{local} (epoch {next_epoch})");
    println!("  curl -s {local}/healthz");
    println!("  curl -s {local}/rank -d '{body}'");
    println!("  curl -s {local}/metrics");
    println!(
        "  curl -s {}/rank -d '...'   # unsharded comparison server",
        single.local_addr()
    );
    println!("  curl -s -X POST {local}/admin/shutdown");

    router.wait_for_shutdown_request();
    eprintln!("cluster_demo: shutdown requested, draining router and shards...");
    router.shutdown();
    shard0.shutdown();
    replica0.shutdown();
    shard1.shutdown();
    single.shutdown();
    eprintln!("cluster_demo: done");
}
