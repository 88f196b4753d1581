//! `ctxrank-router` — run the scatter-gather router as a process.
//!
//! ```text
//! ctxrank-router --addr 127.0.0.1:7979 \
//!     --shard 127.0.0.1:7980,127.0.0.1:7982 \
//!     --shard 127.0.0.1:7981
//! ```
//!
//! Each `--shard` names one partition: the primary first, then any
//! replicas, comma-separated. Shards must be `ctxrank-serve` processes
//! started in shard mode (`ServeConfig::as_shard`) so their `/rank`
//! results carry ownership flags. Stop with `POST /admin/shutdown`.

use ctxrank_router::{RouterConfig, RouterServer, RouterServerConfig, ScatterGather, ShardSpec};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ctxrank-router --addr HOST:PORT --shard PRIMARY[,REPLICA...] [--shard ...]\n\
         \n\
         options:\n\
           --addr HOST:PORT        listen address (default 127.0.0.1:7979)\n\
           --shard SPEC            one shard: primary[,replica...]; repeatable, shard\n\
                                   order must match the partition order (shard 0 first)\n\
           --shard-timeout-ms N    per-attempt connect/read budget (default 2000)\n\
           --gather-retries N      mixed-epoch whole-scatter retries (default 8)"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7979".to_string();
    let mut shards: Vec<ShardSpec> = Vec::new();
    let mut config = RouterConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--shard" => match ShardSpec::parse(&value("--shard")) {
                Ok(spec) => shards.push(spec),
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            },
            "--shard-timeout-ms" => {
                let ms: u64 = value("--shard-timeout-ms").parse().unwrap_or_else(|_| {
                    eprintln!("--shard-timeout-ms wants an integer");
                    usage()
                });
                config.client.connect_timeout = Duration::from_millis(ms);
                config.client.read_timeout = Duration::from_millis(ms);
            }
            "--gather-retries" => {
                config.gather_retries = value("--gather-retries").parse().unwrap_or_else(|_| {
                    eprintln!("--gather-retries wants an integer");
                    usage()
                });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if shards.is_empty() {
        eprintln!("at least one --shard is required");
        usage();
    }

    let shard_count = shards.len();
    let sg = Arc::new(ScatterGather::new(shards, config));
    let server = RouterServer::start(
        sg,
        RouterServerConfig {
            addr,
            enable_shutdown_endpoint: true,
        },
    )
    .expect("bind router listener");
    println!(
        "ctxrank-router listening on http://{} ({} shard(s)); stop with POST /admin/shutdown",
        server.local_addr(),
        shard_count
    );
    server.wait_for_shutdown_request();
    server.shutdown();
    println!("router drained");
}
