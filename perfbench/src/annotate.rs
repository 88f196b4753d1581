//! `annotate_corpus`: batch annotation of the synthetic news stories
//! through `Pipeline::process` on one worker per core.
//!
//! Each pass annotates every story once, in a seeded order. Every
//! annotation is fingerprinted and compared with a serial reference
//! pass. The traced run times an untraced and a traced half of passes,
//! then replays one serial pass stage by stage through the public
//! functions `process` calls.

use crate::report::Report;
use crate::stats::{median, tail, Fnv, Rng};
use crate::trace::Tracer;
use ctxrank_bench::Experiment;
use ctxrank_shortcuts::{
    detect_patterns, ConceptDetector, ConceptVectorBuilder, DetectionKind, Pipeline,
};
use std::time::Instant;

/// FNV-1a fingerprint of one annotated document: its text and every
/// annotation field, floats by their bits.
fn fingerprint(doc: &ctxrank_shortcuts::pipeline::ProcessedDoc) -> u64 {
    let mut h = Fnv::default();
    h.write(doc.text.as_bytes());
    for a in &doc.annotations {
        h.write(&(a.span.start as u64).to_le_bytes());
        h.write(&(a.span.end as u64).to_le_bytes());
        h.write(a.surface.as_bytes());
        h.write(&a.score.to_bits().to_le_bytes());
        h.write(&a.position_frac.to_bits().to_le_bytes());
        match &a.kind {
            DetectionKind::Pattern(p) => h.write(&[0, *p as u8]),
            DetectionKind::Entity {
                type_code,
                subtype,
                geo,
            } => {
                h.write(&[1, *type_code]);
                h.write(subtype.as_bytes());
                if let Some((lat, lon)) = geo {
                    h.write(&lat.to_bits().to_le_bytes());
                    h.write(&lon.to_bits().to_le_bytes());
                }
            }
            DetectionKind::Concept => h.write(&[2]),
        }
    }
    h.0
}

struct Pass {
    secs: f64,
    /// Per-story `process` latency, ms.
    latencies: Vec<f64>,
    mismatches: u64,
}

fn pass(
    pipeline: &Pipeline<'_>,
    stories: &[&str],
    reference: &[u64],
    order: &[usize],
    workers: usize,
    tracer: Option<&Tracer>,
) -> Pass {
    let start = Instant::now();
    let out = ctxrank_parallel::par_map(workers, order, |&i| {
        let t = Instant::now();
        let doc = pipeline.process(stories[i]);
        let done = Instant::now();
        if let Some(tr) = tracer {
            tr.record_interval("annotate.story", None, i as u64, t, done);
        }
        (crate::load::ms(done - t), fingerprint(&doc) == reference[i])
    });
    Pass {
        secs: start.elapsed().as_secs_f64(),
        latencies: out.iter().map(|x| x.0).collect(),
        mismatches: out.iter().filter(|x| !x.1).count() as u64,
    }
}

/// Passes in seeded story orders until `seconds` have passed.
fn passes(
    pipeline: &Pipeline<'_>,
    stories: &[&str],
    reference: &[u64],
    rng: &mut Rng,
    workers: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..stories.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        out.push(pass(pipeline, stories, reference, &order, workers, tracer));
    }
    out
}

pub fn run(
    exp: &Experiment,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
    tracer: Option<&Tracer>,
) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pipeline = exp.annotation_pipeline();
    let stories: Vec<&str> = exp.world.news.iter().map(|s| s.text.as_str()).collect();
    let pass_bytes: usize = stories.iter().map(|s| s.len()).sum();
    let workers = ctxrank_parallel::effective_workers(nproc, stories.len());
    report.set("parallel.workers", workers as f64);
    // The caller's thread only waits on the pool: the workers are the
    // program's, the generator is this one thread.
    report.set("bench.generator_threads", 1.0);
    report.note(
        "corpus",
        format!("{} stories, {pass_bytes} bytes per pass", stories.len()),
    );

    // Serial reference, not measured: the fingerprint every parallel
    // pass must reproduce.
    let reference: Vec<u64> = stories
        .iter()
        .map(|s| fingerprint(&pipeline.process(s)))
        .collect();

    let mut rng = Rng::new(seed, 3);
    // Warm-up pass, then a quarter second of serial passes for
    // `parallel.efficiency`.
    passes(
        &pipeline, &stories, &reference, &mut rng, workers, 0.0, None,
    );
    let serial = passes(&pipeline, &stories, &reference, &mut rng, 1, 0.25, None);
    let serial_secs =
        median(&serial.iter().map(|p| p.secs).collect::<Vec<_>>()).unwrap_or(f64::NAN);

    // Traced: an untraced and a traced half.
    let first_secs = if traced { seconds / 2.0 } else { seconds };
    let a = passes(
        &pipeline, &stories, &reference, &mut rng, workers, first_secs, None,
    );
    let b = if traced {
        passes(
            &pipeline,
            &stories,
            &reference,
            &mut rng,
            workers,
            seconds / 2.0,
            tracer,
        )
    } else {
        Vec::new()
    };
    let all = || a.iter().chain(&b);
    report.attempted = all().map(|p| p.latencies.len() as u64).sum();
    report.failed = all().map(|p| p.mismatches).sum();
    report.check("annotations_match_serial_reference", report.failed == 0);
    report.set(
        "bench.error_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );

    let lat = |ps: &[Pass]| -> Vec<f64> {
        ps.iter()
            .flat_map(|p| p.latencies.iter().copied())
            .collect()
    };
    let lat_a = lat(&a);
    report.set("p50_ms", median(&lat_a).unwrap_or(f64::NAN));
    report.note("p50_samples", lat_a.len());
    if let Some(t) = tail(&lat_a) {
        report.set("bench.tail_ms", t.value);
        report.note(
            "tail_ms",
            format!(
                "p{:.2} {:.4} of {} samples",
                t.percentile, t.value, t.samples
            ),
        );
    }
    let secs: f64 = a.iter().map(|p| p.secs).sum();
    report.note("annotate_mb_s", (pass_bytes * a.len()) as f64 / secs / 1e6);
    report.note("passes", a.len());
    let pass_secs = median(&a.iter().map(|p| p.secs).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    report.set(
        "parallel.efficiency",
        serial_secs / (workers as f64 * pass_secs),
    );
    if !traced {
        return;
    }
    report.set(
        "bench.trace_overhead",
        median(&lat(&b)).unwrap_or(f64::NAN) / median(&lat_a).unwrap_or(f64::NAN),
    );
    let tr = tracer.expect("traced run has a tracer");
    // One serial pass stage by stage, in `process`'s order, then the
    // whole `process` on the same story for the unattributed rest.
    let config = pipeline.config();
    let mut resolve = Vec::with_capacity(stories.len());
    for (i, raw) in stories.iter().enumerate() {
        let k = i as u64;
        let stages_start = Instant::now();
        tr.span("annotate.stages", None, k, |root| {
            let p = Some(root);
            let text = tr.span("text.html", p, k, |_| ctxrank_text::strip_html(raw));
            let norm: Vec<String> = tr.span("text.tokenize", p, k, |_| {
                ctxrank_text::tokenize(&text)
                    .iter()
                    .map(|t| ctxrank_text::normalize_term(t.text))
                    .collect()
            });
            tr.span("text.sentences", p, k, |_| ctxrank_text::sentences(&text));
            tr.span("shortcuts.patterns", p, k, |_| detect_patterns(&text));
            tr.span("shortcuts.dict", p, k, |_| {
                exp.dictionary.detect(&norm, config.disambiguation_window)
            });
            tr.span("shortcuts.concepts", p, k, |_| {
                let mut detector = ConceptDetector::new(&exp.units);
                detector.min_score = config.concept_min_score;
                detector.detect_ids(&norm)
            });
            tr.span("shortcuts.vector", p, k, |_| {
                ConceptVectorBuilder::new(
                    &exp.units,
                    |t| exp.world.corpus.idf(t),
                    config.vector.clone(),
                )
                .build_from_tokens(&norm)
            });
        });
        let stages = stages_start.elapsed();
        let start = Instant::now();
        let doc = pipeline.process(raw);
        let whole = start.elapsed();
        tr.record_interval("shortcuts.process", None, k, start, Instant::now());
        std::hint::black_box(doc);
        resolve.push((whole.as_secs_f64() - stages.as_secs_f64()) * 1e6);
    }
    let st = tr.self_times_us();
    for (span, metric) in [
        ("text.html", "text.html_us"),
        ("text.tokenize", "text.tokenize_us"),
        ("text.sentences", "text.sentences_us"),
        ("shortcuts.patterns", "shortcuts.patterns_us"),
        ("shortcuts.dict", "shortcuts.dict_us"),
        ("shortcuts.concepts", "shortcuts.concepts_us"),
        ("shortcuts.vector", "shortcuts.vector_us"),
    ] {
        report.set(
            metric,
            st.get(span).and_then(|v| median(v)).unwrap_or(f64::NAN),
        );
    }
    report.set("shortcuts.resolve_us", median(&resolve).unwrap_or(f64::NAN));
}
