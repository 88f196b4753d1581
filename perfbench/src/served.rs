//! The three `/rank` workloads: `rank_unique`, `rank_hot_publish` and
//! `rank_routed`.
//!
//! A run warms up, then measures an open-loop phase at the workload's
//! pinned rate (latency from each scheduled arrival, generator
//! lateness), then a closed-loop phase with every lane sending back to
//! back. `rank_hot_publish` has no closed-loop phase: its reads stay at
//! the pinned rate while a click feeder appends, seals, folds and
//! publishes a batch at a fixed interval. The traced run splits the
//! measured phase into an untraced and a traced half, then replays the
//! traced half's bodies through the public functions the server calls,
//! in the server's order.

use crate::catalog::Workload;
use crate::load::{self, Reply};
use crate::report::Report;
use crate::setup::{Served, CACHE_BYTES};
use crate::stats::{median, tail, Rng, Scrape, Zipf};
use crate::trace::Tracer;
use ctxrank_bench::Experiment;
use ctxrank_framework::{ServiceHandle, SnapshotProjector};
use ctxrank_querylog::{Event, SegmentConfig, SegmentStore};
use ctxrank_router::{RouterConfig, ScatterGather, ShardSpec};
use ctxrank_serve::{query_hash, render_rank_response, Conn, ResultCache, LATENCY_BUCKETS_SECS};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Pinned offered rates of the open-loop phase (requests per second,
/// all lanes together).
pub const UNIQUE_RPS: f64 = 500.0;
pub const HOT_READ_RPS: f64 = 500.0;
pub const ROUTED_RPS: f64 = 250.0;

/// Share of `--seconds` spent in the open-loop phase; the rest is
/// closed-loop.
pub const OPEN_SHARE: f64 = 0.25;
/// Unmeasured warm-up at the pinned rate before the first phase.
pub const WARMUP_SECS: f64 = 0.5;

/// Paper-sized documents (§VI: about 2.5 KB) with 6 candidates each.
pub const DOC_BYTES: usize = 2500;
pub const CANDIDATES: usize = 6;

/// `rank_hot_publish`: the repeated-body universe and its skew.
pub const HOT_BODIES: usize = 16;
pub const HOT_ZIPF_S: f64 = 1.0;
/// `rank_hot_publish`: one click batch of this many events is appended,
/// sealed, folded and published every interval.
pub const PUBLISH_INTERVAL: Duration = Duration::from_millis(50);
pub const EVENTS_PER_PUBLISH: usize = 500;

/// Bodies replayed through the serve and framework functions in a
/// traced run.
const REPLAY_SAMPLE: usize = 300;

/// A run whose generator sent its p99 request later than this after it
/// could have fell behind its schedule and is invalid. Wake-up jitter
/// of a few milliseconds is the host scheduler's; lateness beyond this
/// means the generator could not keep the pinned rate.
pub const LATE_LIMIT_MS: f64 = 20.0;

pub fn pinned_rps(w: Workload) -> f64 {
    match w {
        Workload::RankUnique => UNIQUE_RPS,
        Workload::RankHotPublish => HOT_READ_RPS,
        Workload::RankRouted => ROUTED_RPS,
        Workload::AnnotateCorpus => 0.0,
    }
}

/// A request's document text and candidate surfaces.
type Doc = (String, Vec<String>);

/// Generated inputs of one served run.
struct Inputs<'e> {
    exp: &'e Experiment,
    seed: u64,
    /// Surfaces read candidates are drawn from.
    surfaces: Vec<String>,
    /// `rank_hot_publish`'s fixed documents; empty on the distinct-body
    /// workloads, whose documents are generated from the seed and their
    /// index alone.
    hot: Vec<Doc>,
    /// Arrivals (due offset in seconds, body) of the warm-up and of each
    /// open-loop phase.
    warm: Vec<(f64, usize)>,
    open: Vec<Vec<(f64, usize)>>,
    /// Distinct-body workloads: closed-loop requests take bodies from
    /// here on, each once.
    closed_base: usize,
    /// `rank_hot_publish`: the surfaces the click feed reports on,
    /// disjoint from every read candidate, so the feed moves no read's
    /// ranking.
    feed_surfaces: Vec<String>,
}

impl Inputs<'_> {
    /// Document `i`: a hot document, or a distinct story excerpt (its
    /// tag makes it unique) with candidates drawn from the seed and `i`.
    fn doc(&self, i: usize) -> Doc {
        if !self.hot.is_empty() {
            return self.hot[i].clone();
        }
        let mut rng = Rng::new(self.seed, 0x1000_0000 + i as u64);
        let tag = format!("request {}-{i}", self.seed);
        doc(self.exp, &mut rng, &self.surfaces, &tag)
    }

    fn body(&self, i: usize) -> String {
        let (text, candidates) = self.doc(i);
        load::rank_body(&text, &candidates)
    }
}

fn doc(exp: &Experiment, rng: &mut Rng, surfaces: &[String], tag: &str) -> Doc {
    let story = &exp.world.news[rng.below(exp.world.news.len())].text;
    let mut cut = DOC_BYTES.min(story.len());
    while !story.is_char_boundary(cut) {
        cut -= 1;
    }
    let text = format!("{} [{tag}]", &story[..cut]);
    let candidates: Vec<String> = rng
        .distinct(CANDIDATES, surfaces.len())
        .into_iter()
        .map(|i| surfaces[i].clone())
        .collect();
    (text, candidates)
}

fn inputs<'e>(w: Workload, exp: &'e Experiment, seed: u64, open_secs: &[f64]) -> Inputs<'e> {
    let mut surfaces: Vec<String> = exp.interest_raw.keys().cloned().collect();
    surfaces.sort_unstable();
    let mut rng = Rng::new(seed, 1);
    let rate = pinned_rps(w);
    let (mut hot, mut zipf, mut feed_surfaces) = (Vec::new(), None, Vec::new());
    if w == Workload::RankHotPublish {
        // Seeded split of the surfaces: reads rank one half, the click
        // feed reports on the other.
        for i in (1..surfaces.len()).rev() {
            surfaces.swap(i, rng.below(i + 1));
        }
        feed_surfaces = surfaces.split_off(surfaces.len() / 2);
        hot = (0..HOT_BODIES)
            .map(|i| doc(exp, &mut rng, &surfaces, &format!("hot {i}")))
            .collect();
        zipf = Some(Zipf::new(HOT_BODIES, HOT_ZIPF_S));
    }
    // Arrival k of the run takes a Zipf-drawn hot body, or body k: every
    // distinct-body request gets its own document, so the result cache
    // never hits.
    let mut next = 0;
    let mut sched = |rng: &mut Rng, secs: f64| -> Vec<(f64, usize)> {
        let times = crate::stats::poisson_schedule(rng, rate, secs);
        times
            .into_iter()
            .map(|t| {
                next += 1;
                (t, zipf.as_ref().map_or(next - 1, |z| z.sample(rng)))
            })
            .collect()
    };
    let warm = sched(&mut rng, WARMUP_SECS);
    let open = open_secs
        .iter()
        .map(|&secs| sched(&mut rng, secs))
        .collect();
    Inputs {
        exp,
        seed,
        surfaces,
        hot,
        warm,
        open,
        closed_base: next,
        feed_surfaces,
    }
}

/// One publish of a click batch.
struct Publish {
    latency_ms: f64,
    late_ms: f64,
    epoch: u64,
    /// The handle served the published epoch right after the publish.
    served: bool,
}

/// The click feeder of `rank_hot_publish`.
struct Feed {
    projector: SnapshotProjector,
    store: SegmentStore,
    rng: Rng,
    surfaces: Vec<String>,
    next_story: u64,
}

impl Feed {
    fn batch(&mut self) -> Vec<Event> {
        (0..EVENTS_PER_PUBLISH)
            .map(|_| {
                let views = 50 + self.rng.below(150) as u64;
                let clicks = self.rng.below(views as usize / 8 + 1) as u64;
                self.next_story += 1;
                Event::Click {
                    story: self.next_story,
                    surface: self.surfaces[self.rng.below(self.surfaces.len())].clone(),
                    views,
                    clicks,
                }
            })
            .collect()
    }

    /// Publish a batch every [`PUBLISH_INTERVAL`] from `start` until
    /// `secs` have passed. Traced, each publish runs as its steps
    /// (`SnapshotProjector::publish_from` spelled out) with a span each.
    fn run(
        &mut self,
        handle: &ServiceHandle,
        metrics: &ctxrank_serve::Metrics,
        start: Instant,
        secs: f64,
        tracer: Option<&Tracer>,
    ) -> Vec<Publish> {
        let end = start + Duration::from_secs_f64(secs);
        let mut out = Vec::new();
        for k in 0u32.. {
            let due = start + PUBLISH_INTERVAL * k;
            if due >= end {
                break;
            }
            let events = self.batch();
            let ready = Instant::now();
            if due > ready {
                std::thread::sleep(due - ready);
            }
            let first_append = Instant::now();
            let epoch = match tracer {
                None => {
                    for e in &events {
                        self.store.append(e).expect("append click");
                    }
                    self.store.sync().expect("sync segment");
                    self.store.seal().expect("seal segment");
                    self.projector
                        .publish_from(&self.store, handle)
                        .expect("delta publish")
                }
                Some(t) => self.publish_traced(handle, &events, u64::from(k), t),
            };
            let done = Instant::now();
            metrics.record_delta_publish();
            out.push(Publish {
                latency_ms: load::ms(done - first_append),
                late_ms: load::ms(first_append.saturating_duration_since(due.max(ready))),
                epoch,
                served: handle.epoch() == epoch,
            });
        }
        out
    }

    fn publish_traced(
        &mut self,
        handle: &ServiceHandle,
        events: &[Event],
        k: u64,
        t: &Tracer,
    ) -> u64 {
        t.span("ingest.publish", None, k, |root| {
            let p = Some(root);
            t.span("querylog.append", p, k, |_| {
                for e in events {
                    self.store.append(e).expect("append click");
                }
            });
            t.span("querylog.seal", p, k, |_| {
                self.store.sync().expect("sync segment");
                self.store.seal().expect("seal segment");
            });
            let delta = t.span("framework.fold", p, k, |_| {
                self.projector
                    .delta_from(&self.store)
                    .expect("fold sealed segments")
            });
            let next = t.span("framework.rebuild", p, k, |_| {
                handle
                    .current()
                    .merge_delta(&mut self.projector, &delta)
                    .expect("merge delta")
            });
            t.span("framework.feedback", p, k, |_| {
                for (surface, add) in &delta.adds {
                    if add.views > 0 {
                        handle.record_feedback(surface, add.views, add.clicks);
                    }
                }
            });
            t.span("framework.swap", p, k, |_| handle.publish(next))
        })
    }
}

/// What one measured phase produced.
struct Phase {
    replies: Vec<Reply>,
    publishes: Vec<Publish>,
    /// Open loop: requests had due times.
    scheduled: bool,
    before: Scrape,
    after: Scrape,
    router_before: Scrape,
    router_after: Scrape,
}

enum Drive<'a> {
    Open(&'a [(f64, usize)]),
    Closed(f64),
}

struct Ctx<'a> {
    served: &'a Served,
    inputs: &'a Inputs<'a>,
    lanes: usize,
    feed: Option<Feed>,
    next_closed: AtomicUsize,
}

impl Ctx<'_> {
    /// The text every server's and the router's `/metrics` serves,
    /// rendered in-process: a scrape over HTTP would queue behind the
    /// router's idle keep-alive connections, which hold every shard
    /// worker until their timeout.
    fn scrape(&self) -> (Scrape, Scrape) {
        let epoch = self.served.handle.epoch();
        let serve = Scrape::sum(
            self.served
                .servers
                .iter()
                .map(|s| Scrape::parse(&s.metrics().render_prometheus(epoch))),
        );
        let router = self
            .served
            .gather
            .as_ref()
            .map_or_else(Scrape::default, |sg| {
                Scrape::parse(&sg.metrics().render_prometheus(sg.observed_epoch()))
            });
        (serve, router)
    }

    /// Run one phase: the read lanes on this thread and its spawned
    /// lane threads, the click feeder (when present) beside them.
    fn phase(&mut self, drive: Drive, tracer: Option<&Tracer>) -> Phase {
        let (before, router_before) = self.scrape();
        let target = self.served.target;
        let start = Instant::now();
        let (inputs, lanes) = (self.inputs, self.lanes);
        let handle = &*self.served.handle;
        let metrics = self.served.servers[0].metrics();
        let next_closed = &self.next_closed;
        let (secs, scheduled) = match drive {
            Drive::Open(a) => (a.last().map_or(0.0, |x| x.0), true),
            Drive::Closed(s) => (s, false),
        };
        let source = |i: usize| inputs.body(i);
        let (replies, publishes) = std::thread::scope(|scope| {
            let feeder = self
                .feed
                .as_mut()
                .map(|f| scope.spawn(move || f.run(handle, metrics, start, secs, tracer)));
            let replies = match drive {
                Drive::Open(arrivals) => load::open_loop(target, arrivals, &source, lanes, tracer),
                Drive::Closed(s) => {
                    let next = || inputs.closed_base + next_closed.fetch_add(1, Ordering::Relaxed);
                    load::closed_loop(target, &source, lanes, s, &next)
                }
            };
            let publishes = feeder.map_or_else(Vec::new, |h| h.join().expect("feeder panicked"));
            (replies, publishes)
        });
        let (after, router_after) = self.scrape();
        Phase {
            replies,
            publishes,
            scheduled,
            before,
            after,
            router_before,
            router_after,
        }
    }
}

/// Reference bodies: for each body, what an in-process
/// `rank_batch_online` renders after the epoch digits
/// ([`load::after_epoch`]) — the whole body at any epoch but its number.
fn references(
    handle: &ServiceHandle,
    inputs: &Inputs,
    used: impl IntoIterator<Item = usize>,
) -> HashMap<usize, Vec<u8>> {
    let mut ids: Vec<usize> = used
        .into_iter()
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    ids.sort_unstable();
    let mut out = HashMap::with_capacity(ids.len());
    // In chunks, so the parsed documents never all sit in memory.
    for chunk in ids.chunks(512) {
        let parts: Vec<Doc> = chunk.iter().map(|&i| inputs.doc(i)).collect();
        let docs: Vec<(&str, &[String])> = parts
            .iter()
            .map(|(t, c)| (t.as_str(), c.as_slice()))
            .collect();
        let (epoch, ranked) = handle.rank_batch_online(&docs);
        for (&i, r) in chunk.iter().zip(ranked) {
            let body = render_rank_response(epoch, &r).body;
            out.insert(i, load::after_epoch(&body).to_vec());
        }
    }
    out
}

/// Count replies that do not match their reference, and check epochs:
/// each connection's epochs never go back and stay within `epochs`.
fn verify(
    replies: &[Reply],
    refs: &HashMap<usize, Vec<u8>>,
    epochs: std::ops::RangeInclusive<u64>,
    report: &mut Report,
) -> u64 {
    let mut failed = 0;
    let mut last: HashMap<usize, u64> = HashMap::new();
    for r in replies {
        if !load::reply_ok(r, &refs[&r.body]) {
            failed += 1;
        }
        if let (200, Some(epoch)) = (r.status, r.epoch) {
            let prev = last.insert(r.lane, epoch).unwrap_or(0);
            report.check("epochs_monotone_per_connection", epoch >= prev);
            report.check("epochs_served_were_published", epochs.contains(&epoch));
        }
    }
    failed
}

fn latencies(replies: &[Reply]) -> Vec<f64> {
    replies.iter().map(|r| r.latency_ms).collect()
}

/// The workload's own operation: publishes on `rank_hot_publish`,
/// `/rank` requests otherwise.
fn op_latencies(hot: bool, p: &Phase) -> Vec<f64> {
    if hot {
        p.publishes.iter().map(|x| x.latency_ms).collect()
    } else {
        latencies(&p.replies)
    }
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    w: Workload,
    exp: &Experiment,
    served: &mut Served,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
    tracer: Option<&Tracer>,
) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let hot = w == Workload::RankHotPublish;
    // The generator's threads and connections, the feeder included,
    // never exceed the host's cores.
    let lanes = if hot { nproc.saturating_sub(1) } else { nproc }.max(1);
    report.set("bench.generator_threads", (lanes + usize::from(hot)) as f64);
    report.note(
        "generator",
        format!(
            "{lanes} lane thread(s) with one connection each, {} feeder thread(s)",
            usize::from(hot)
        ),
    );
    report.note("offered_rps", pinned_rps(w));

    // `rank_hot_publish` reads at the pinned rate throughout; the other
    // workloads turn closed-loop after their open-loop share.
    let open_secs = if hot { seconds } else { seconds * OPEN_SHARE };
    let closed_secs = seconds - open_secs;
    let open_split = if hot && traced {
        vec![open_secs / 2.0; 2]
    } else {
        vec![open_secs]
    };
    let inputs = inputs(w, exp, seed, &open_split);
    let feed = served.projector.take().map(|projector| Feed {
        projector,
        store: SegmentStore::in_memory(SegmentConfig::default()),
        rng: Rng::new(seed, 2),
        surfaces: inputs.feed_surfaces.clone(),
        next_story: 0,
    });
    let epoch0 = served.handle.epoch();
    // Hot references are ranked before the feed starts; the feed only
    // reports on surfaces no read ranks, so they hold at every epoch.
    let hot_refs = hot.then(|| references(&served.handle, &inputs, 0..HOT_BODIES));

    let mut ctx = Ctx {
        served: &*served,
        inputs: &inputs,
        lanes,
        feed: None,
        next_closed: AtomicUsize::new(0),
    };
    // Warm the connections, caches and stem cache; no feed yet.
    ctx.phase(Drive::Open(&inputs.warm), None);
    ctx.feed = feed;
    // The pinned rate, then every lane closed-loop (not on
    // `rank_hot_publish`). Traced, the measured phase is split into an untraced
    // and a traced half.
    let mut phases = vec![ctx.phase(Drive::Open(&inputs.open[0]), None)];
    if hot && traced {
        phases.push(ctx.phase(Drive::Open(&inputs.open[1]), tracer));
    } else if traced {
        phases.push(ctx.phase(Drive::Closed(closed_secs / 2.0), None));
        phases.push(ctx.phase(Drive::Closed(closed_secs / 2.0), tracer));
    } else if !hot {
        phases.push(ctx.phase(Drive::Closed(closed_secs), None));
    }
    // First body index no request of this run has used.
    let fresh = inputs.closed_base + ctx.next_closed.load(Ordering::Relaxed);

    // Correctness: every reply against its in-process reference, every
    // publish serving the next epoch at once.
    let replies = || phases.iter().flat_map(|p| &p.replies);
    let publishes: Vec<&Publish> = phases.iter().flat_map(|p| &p.publishes).collect();
    let refs = match hot_refs {
        Some(r) => r,
        None => references(&served.handle, &inputs, replies().map(|r| r.body)),
    };
    let max_epoch = publishes.iter().map(|p| p.epoch).max().unwrap_or(epoch0);
    let mut failed = 0;
    for p in &phases {
        failed += verify(&p.replies, &refs, epoch0..=max_epoch, report);
    }
    for (i, p) in publishes.iter().enumerate() {
        if !p.served || p.epoch != epoch0 + 1 + i as u64 {
            failed += 1;
        }
    }
    report.attempted = (replies().count() + publishes.len()) as u64;
    report.failed = failed;
    report.set(
        "bench.error_ratio",
        failed as f64 / report.attempted.max(1) as f64,
    );
    let (pinned, last) = (&phases[0], &phases[phases.len() - 1]);
    if hot {
        let counted = last
            .after
            .delta(&pinned.before, "ctxrank_delta_publish_total");
        report.check(
            "publishes_counted_on_metrics",
            counted as usize == publishes.len(),
        );
    } else {
        let hits = last.after.delta(&pinned.before, "ctxrank_cache_hits_total");
        report.check("distinct_bodies_never_hit_the_cache", hits == 0.0);
    }

    // Generator lateness across every scheduled send: open-loop
    // requests and publishes.
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| {
            let sends = p.replies.iter().filter(|_| p.scheduled).map(|r| r.late_ms);
            sends.chain(p.publishes.iter().map(|x| x.late_ms))
        })
        .collect();
    if let Some(t) = tail(&late) {
        report.set("bench.late_p99_ms", t.value);
        report.note(
            "generator_late_ms",
            format!("p{:.2} {:.4} of {} sends", t.percentile, t.value, t.samples),
        );
        if t.value > LATE_LIMIT_MS {
            report.invalid = Some(format!(
                "generator sent its p{:.2} request {:.3} ms late (limit {LATE_LIMIT_MS} ms)",
                t.percentile, t.value
            ));
        }
    }

    // The pinned rate: the median read.
    let pinned_read_p50 = median(&latencies(&pinned.replies)).unwrap_or(f64::NAN);
    report.set("serve.read_p50_ms", pinned_read_p50);
    report.note("pinned_read_p50_ms", pinned_read_p50);
    // The tail: requests at the pinned rate, or every publish.
    let tail_sample: Vec<f64> = if hot {
        phases.iter().flat_map(|p| op_latencies(true, p)).collect()
    } else {
        latencies(&pinned.replies)
    };
    if let Some(t) = tail(&tail_sample) {
        report.set("bench.tail_ms", t.value);
        report.note(
            "pinned_tail_ms",
            format!(
                "p{:.2} {:.4} of {} samples",
                t.percentile, t.value, t.samples
            ),
        );
    }

    // End-to-end: the median operation of the first untraced phase of
    // the workload's own operation — publishes beside the pinned reads,
    // or requests with every lane closed-loop.
    let measured = &phases[usize::from(!hot)];
    let op = op_latencies(hot, measured);
    report.set("p50_ms", median(&op).unwrap_or(f64::NAN));
    report.note("p50_samples", op.len());
    if !hot {
        let secs = if traced {
            closed_secs / 2.0
        } else {
            closed_secs
        };
        let bytes: usize = measured
            .replies
            .iter()
            .filter(|r| r.status == 200)
            .map(|r| inputs.doc(r.body).0.len())
            .sum();
        report.note("saturated_rps", measured.replies.len() as f64 / secs);
        report.note("saturated_document_mb_s", bytes as f64 / secs / 1e6);
    }
    if !traced {
        return;
    }

    // Traced run: per-layer figures from the traced half.
    let t = tracer.expect("traced run has a tracer");
    let b = last;
    let p50_b = median(&op_latencies(hot, b)).unwrap_or(f64::NAN);
    report.set(
        "bench.trace_overhead",
        p50_b / median(&op).unwrap_or(f64::NAN),
    );
    let read_p50 = median(&latencies(&b.replies)).unwrap_or(f64::NAN);

    let d = |key: &str| b.after.delta(&b.before, key);
    let (hits, misses) = (
        d("ctxrank_cache_hits_total"),
        d("ctxrank_cache_misses_total"),
    );
    report.set(
        "serve.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let qwait = |q| {
        b.after.histogram_quantile(
            &b.before,
            "ctxrank_queue_wait_seconds",
            &LATENCY_BUCKETS_SECS,
            q,
        ) * 1e3
    };
    report.set("serve.queue_wait_p50_ms", qwait(0.5));
    report.set("serve.queue_wait_p99_ms", qwait(0.99));
    // The buckets are too coarse around the batch window to place a
    // median; the decomposition below uses the exact mean.
    let waits = d("ctxrank_queue_wait_seconds_count");
    let qwait_mean_ms = if waits > 0.0 {
        d("ctxrank_queue_wait_seconds_sum") / waits * 1e3
    } else {
        0.0
    };
    let batches = d("ctxrank_rank_batches_total");
    let batch_mean = if batches > 0.0 {
        d("ctxrank_rank_batched_docs_total") / batches
    } else {
        1.0
    };
    report.set("serve.batch_docs_mean", batch_mean);
    report.set("serve.shed", d("ctxrank_shed_total"));
    report.set("serve.timeouts", d("ctxrank_timeout_total"));
    report.set("serve.io_errors", d("ctxrank_io_error_total"));
    if w == Workload::RankRouted {
        let r = |key: &str| b.router_after.delta(&b.router_before, key);
        report.set("router.failover", r("ctxrank_router_failover_total"));
        report.set(
            "router.epoch_mismatch",
            r("ctxrank_router_epoch_mismatch_total"),
        );
    }

    // Replay the traced half's bodies, in the order the server handles
    // a request: parse, cache probe, rank (context + score), render.
    let sample: Vec<usize> = b
        .replies
        .iter()
        .map(|r| r.body)
        .take(REPLAY_SAMPLE)
        .collect();
    let parts: Vec<Doc> = sample.iter().map(|&i| inputs.doc(i)).collect();
    let handle = &served.handle;
    let cache = ResultCache::new(CACHE_BYTES, crate::setup::serve_config().cache_shards);
    let scratch_metrics = ctxrank_serve::Metrics::default();
    let epoch = handle.epoch();
    for (k, (text, candidates)) in parts.iter().enumerate() {
        let body = load::rank_body(text, candidates);
        let json = body.as_bytes();
        let k = k as u64;
        t.span("serve.request", None, k, |root| {
            let p = Some(root);
            t.span("serve.parse", p, k, |_| {
                serde_json::from_slice::<serde_json::Value>(json).expect("parse body")
            });
            let (qhash, hit) = t.span("serve.cache_probe", p, k, |_| {
                let q = query_hash(text, candidates);
                (q, cache.get(epoch, q, &scratch_metrics).is_some())
            });
            if hit {
                return;
            }
            let ranker = handle.ranker();
            t.span("framework.context", p, k, |_| {
                ranker.context_tids_cached(text)
            });
            let ranked = t.span("framework.rank", p, k, |_| handle.rank(text, candidates));
            let resp = t.span("serve.render", p, k, |_| {
                render_rank_response(epoch, &ranked)
            });
            cache.insert(epoch, qhash, resp.body.into(), &scratch_metrics);
        });
    }
    // Ranking as the batcher does it: batches of the observed mean size.
    let per_batch = (batch_mean.round() as usize).max(1);
    for (k, chunk) in parts.chunks(per_batch).enumerate() {
        let docs: Vec<(&str, &[String])> = chunk
            .iter()
            .map(|(t, c)| (t.as_str(), c.as_slice()))
            .collect();
        t.span("framework.rank_batch", None, k as u64, |_| {
            handle.rank_batch_online(&docs)
        });
    }
    if w == Workload::RankRouted {
        // The router goes first: its idle pooled connections hold every
        // shard worker, which the replay's own connections need.
        if let Some(router) = served.router.take() {
            router.shutdown();
        }
        served.gather = None;
        replay_router(served, &inputs, fresh, t, report);
    }

    let st = t.self_times_us();
    let med = |name: &str| st.get(name).and_then(|v| median(v));
    let parse = med("serve.parse").unwrap_or(f64::NAN);
    let probe = med("serve.cache_probe").unwrap_or(f64::NAN);
    let render = med("serve.render").unwrap_or(f64::NAN);
    let context = med("framework.context").unwrap_or(f64::NAN);
    let rank_batch = med("framework.rank_batch").unwrap_or(f64::NAN);
    report.set("serve.parse_us", parse);
    report.set("serve.cache_probe_us", probe);
    report.set("serve.render_us", render);
    report.set("framework.context_us", context);
    // Scoring is `rank` minus its context resolution, paired per
    // request.
    let by_request = |name: &str| -> HashMap<u64, f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, (s.end_ns - s.start_ns) as f64 / 1e3))
            .collect()
    };
    let contexts = by_request("framework.context");
    let scores: Vec<f64> = by_request("framework.rank")
        .into_iter()
        .filter_map(|(k, rank)| contexts.get(&k).map(|c| rank - c))
        .collect();
    report.set("framework.score_us", median(&scores).unwrap_or(f64::NAN));
    report.set("framework.rank_batch_us", rank_batch);
    // What the spans above do not cover: socket, HTTP framing, thread
    // hand-offs (and, routed, the router's own front end). A cache hit
    // skips the batcher, ranking and rendering.
    let hit_ratio = report.get("serve.cache_hit_ratio").unwrap_or(0.0);
    let unattributed = if w == Workload::RankRouted {
        read_p50 - report.get("router.gather_ms").unwrap_or(f64::NAN)
    } else {
        read_p50
            - (parse + probe) / 1e3
            - (1.0 - hit_ratio) * (qwait_mean_ms + (rank_batch + render) / 1e3)
    };
    report.set("serve.unattributed_ms", unattributed);
    if hot {
        let per_event: Vec<f64> = st
            .get("querylog.append")
            .map(|v| v.iter().map(|x| x / EVENTS_PER_PUBLISH as f64).collect())
            .unwrap_or_default();
        report.set("querylog.append_us", median(&per_event).unwrap_or(f64::NAN));
        let ms = |name: &str| med(name).map_or(f64::NAN, |us| us / 1e3);
        report.set("querylog.seal_ms", ms("querylog.seal"));
        report.set("querylog.events_per_publish", EVENTS_PER_PUBLISH as f64);
        report.set("framework.fold_ms", ms("framework.fold"));
        report.set("framework.rebuild_ms", ms("framework.rebuild"));
        report.set(
            "framework.swap_us",
            med("framework.swap").unwrap_or(f64::NAN),
        );
    }
}

/// Router layers, from outside: an in-process scatter-gather over the
/// same shards, and each shard's direct round trip for a body of the
/// same shape. Both use bodies no request has sent (from `fresh` on),
/// so the shards' result caches miss as they do in the run.
fn replay_router(served: &Served, inputs: &Inputs, fresh: usize, t: &Tracer, report: &mut Report) {
    let shards: Vec<_> = served.servers.iter().map(|s| s.local_addr()).collect();
    let sg = ScatterGather::new(
        shards.iter().map(|&a| ShardSpec::single(a)).collect(),
        RouterConfig::default(),
    );
    let mut conns: Vec<Conn> = shards
        .iter()
        .map(|&a| Conn::connect(a).expect("connect shard"))
        .collect();
    let (mut gather, mut slowest, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..REPLAY_SAMPLE {
        let (gathered, direct) = (inputs.body(fresh + 2 * k), inputs.body(fresh + 2 * k + 1));
        let k = k as u64;
        let start = Instant::now();
        let ok = sg.rank(&gathered).is_ok();
        let end = Instant::now();
        t.record_interval("router.gather", None, k, start, end);
        let mut worst: f64 = 0.0;
        for c in conns.iter_mut() {
            let s = Instant::now();
            let status = c.request("POST", "/rank", Some(&direct)).map_or(0, |r| r.0);
            t.record_interval("router.shard", None, k, s, Instant::now());
            report.check("router_replay_ok", ok && status == 200);
            worst = worst.max(load::ms(s.elapsed()));
        }
        let g = load::ms(end - start);
        gather.push(g);
        slowest.push(worst);
        overhead.push(g - worst);
    }
    report.set("router.gather_ms", median(&gather).unwrap_or(f64::NAN));
    report.set(
        "router.slowest_shard_ms",
        median(&slowest).unwrap_or(f64::NAN),
    );
    report.set("router.overhead_ms", median(&overhead).unwrap_or(f64::NAN));
}
