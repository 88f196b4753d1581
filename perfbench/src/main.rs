//! `ctxrank-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rank_unique --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Hosts the program in-process (servers
//! on loopback ports), drives one workload, checks every output, and
//! prints a host and provenance line followed by the result line:
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`), each with its unit. Exits 1 when a correctness check
//! fails and 3 when the generator fell behind its schedule (the run is
//! invalid and prints no result). Traced runs also write their spans to
//! `.bench_out/`. See `perfbench/README.md` for the workloads and the
//! metric-to-layer map.

mod annotate;
mod catalog;
mod load;
mod report;
mod served;
mod setup;
mod stats;
mod trace;

use catalog::Workload;
use report::{json_str, Report};
use std::path::Path;
use std::process::ExitCode;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;
/// Where runs write their span logs and scratch arenas, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!(
        "--workload is required: one of {}",
        names.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Set the workload up, run it, and check it: the report and the
/// metrics this run prints.
fn execute(args: &Args, out_dir: &Path) -> (Report, Vec<(&'static str, f64, &'static str)>) {
    let w = args.workload;
    let tracer = args.trace.then(trace::Tracer::default);
    let mut report = Report::default();
    let (mut env, setup_times) = setup::setup_repeated(w, SETUP_REPS, out_dir, tracer.as_ref());
    report.set("setup_s", stats::median(&setup_times).expect("set-up ran"));
    report.set("setup_rss_mb", setup::peak_rss_mb());
    report.note("setup_s_samples", format!("{setup_times:?}"));
    match env.served.as_mut() {
        Some(served) => served::run(
            w,
            &env.exp,
            served,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
            tracer.as_ref(),
        ),
        None => annotate::run(
            &env.exp,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
            tracer.as_ref(),
        ),
    }
    // The peak under load moves with how many requests a run completes
    // (every distinct body enters the result cache), so it is reported
    // but not gated.
    let peak = setup::peak_rss_mb();
    report.set("bench.peak_rss_mb", peak);
    report.note("peak_rss_mb", peak);
    env.shutdown();

    if let Some(t) = &tracer {
        let st = t.self_times_us();
        for (span, metric) in [
            ("framework.load", "framework.load_ms"),
            ("framework.partition", "framework.partition_ms"),
        ] {
            if let Some(v) = st.get(span) {
                report.set(metric, stats::median(v).unwrap_or(f64::NAN) / 1e3);
            }
        }
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        std::fs::write(&path, trace::to_json_lines(&t.spans())).expect("write span log");
        report.note("span_log", path.display());
    }

    let (metrics, missing) = report.metrics(w, args.trace);
    report.check("every_declared_metric_measured", missing.is_empty());
    if !missing.is_empty() {
        eprintln!("perfbench: not measured: {}", missing.join(", "));
    }
    (report, metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let w = args.workload;
    let (report, metrics) = execute(&args, out_dir);
    let config = setup::serve_config();
    let fields = [
        ("workload", json_str(w.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("world_seed", setup::WORLD_SEED.to_string()),
        (
            "server_config",
            format!(
                "{{\"workers\": {}, \"conn_backlog\": {}, \"queue_capacity\": {}, \"batch_max_size\": {}, \"batch_max_wait_us\": {}, \"cache_capacity_bytes\": {}, \"cache_shards\": {}, \"router_shards\": {}}}",
                if config.workers == 0 { ctxrank_parallel::num_threads() } else { config.workers },
                config.conn_backlog,
                config.queue_capacity,
                config.batch_max_size,
                config.batch_max_wait.as_micros(),
                config.cache_capacity_bytes,
                config.cache_shards,
                setup::SHARDS,
            ),
        ),
        (
            "pinned",
            format!(
                "{{\"rank_unique_rps\": {}, \"rank_hot_publish_read_rps\": {}, \"rank_routed_rps\": {}, \"open_loop_share\": {}, \"publish_interval_ms\": {}, \"events_per_publish\": {}, \"hot_bodies\": {}, \"hot_zipf_s\": {}, \"late_limit_ms\": {}, \"setup_reps\": {SETUP_REPS}}}",
                served::UNIQUE_RPS,
                served::HOT_READ_RPS,
                served::ROUTED_RPS,
                served::OPEN_SHARE,
                served::PUBLISH_INTERVAL.as_millis(),
                served::EVENTS_PER_PUBLISH,
                served::HOT_BODIES,
                served::HOT_ZIPF_S,
                served::LATE_LIMIT_MS,
            ),
        ),
    ];
    println!("{}", report::provenance(&report, &fields));
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: run invalid, no result recorded: {why}");
        return ExitCode::from(3);
    }
    println!("{}", report::result_line(&report, &metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed; see the provenance line");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload rank_routed --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::RankRouted);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        let d = args("--workload annotate_corpus").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload rank_unique --trace 2").is_err());
    }

    /// Every workload, untraced and traced, on a short run: all checks
    /// pass, nothing fails, and every metric it declares is measured
    /// (a bypassed layer's metric reads 0).
    #[test]
    fn each_workload_emits_every_metric_it_declares() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-out");
        std::fs::create_dir_all(&out_dir).unwrap();
        for w in Workload::ALL {
            for trace in [false, true] {
                let a = Args {
                    workload: w,
                    seed: 5,
                    seconds: 1.0,
                    trace,
                };
                let (report, metrics) = execute(&a, &out_dir);
                let label = format!("{} trace={trace}", w.name());
                assert!(report.correct(), "{label}: {:?}", report.checks);
                assert!(report.attempted > 0, "{label}");
                let expected = if trace {
                    catalog::PER_LAYER.len()
                } else {
                    catalog::END_TO_END.len()
                };
                assert_eq!(metrics.len(), expected, "{label}");
                for &(name, value, _) in &metrics {
                    let bypassed = trace
                        && catalog::PER_LAYER
                            .iter()
                            .any(|m| m.name == name && !m.loaded_by(w));
                    if bypassed {
                        assert_eq!(value, 0.0, "{label}: {name} on a bypassed layer");
                    }
                }
                if !trace {
                    assert!(metrics.iter().all(|m| m.1 > 0.0), "{label}: {metrics:?}");
                }
            }
        }
    }
}
