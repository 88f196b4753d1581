//! The benchmark's workloads and metrics: the single list the run
//! fills, the tests check and `BENCHMARK.json` mirrors.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RankUnique,
    RankHotPublish,
    RankRouted,
    AnnotateCorpus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RankUnique,
        Workload::RankHotPublish,
        Workload::RankRouted,
        Workload::AnnotateCorpus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RankUnique => "rank_unique",
            Workload::RankHotPublish => "rank_hot_publish",
            Workload::RankRouted => "rank_routed",
            Workload::AnnotateCorpus => "annotate_corpus",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

// `better` and `bound` are read by the test that holds
// `BENCHMARK.json` to this catalog.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every end-to-end metric. `p50_ms` is the
/// median of the workload's own operation with the generator
/// saturating it: a `/rank` request with every lane closed-loop
/// (`rank_unique`, `rank_routed`); a click batch from its first append
/// until the epoch that serves it, published every interval beside
/// closed-loop reads (`rank_hot_publish`); one story through the
/// annotation pipeline with one worker per core busy
/// (`annotate_corpus`).
/// `setup_s` is the median time of the run's set-ups, `setup_rss_mb` the
/// process's peak resident memory once they are done.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads whose path goes through this layer (bit per
    /// [`Workload`]). On the others the metric reads 0.
    loads: u8,
}

impl PerLayer {
    pub fn loaded_by(&self, w: Workload) -> bool {
        self.loads & w.bit() != 0
    }
}

const UNIQUE: u8 = 1 << Workload::RankUnique as u8;
const HOT: u8 = 1 << Workload::RankHotPublish as u8;
const ROUTED: u8 = 1 << Workload::RankRouted as u8;
const ANNOTATE: u8 = 1 << Workload::AnnotateCorpus as u8;
const SERVED: u8 = UNIQUE | HOT | ROUTED;

const fn layer(name: &'static str, unit: &'static str, better: Better, loads: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        loads,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 44] = [
    layer("serve.parse_us", "us", Lower, SERVED),
    layer("serve.render_us", "us", Lower, SERVED),
    layer("serve.cache_probe_us", "us", Lower, SERVED),
    layer("serve.cache_hit_ratio", "ratio", Higher, SERVED),
    layer("serve.queue_wait_p50_ms", "ms", Lower, SERVED),
    layer("serve.queue_wait_p99_ms", "ms", Lower, SERVED),
    layer("serve.batch_docs_mean", "docs", Higher, SERVED),
    layer("serve.shed", "count", Lower, SERVED),
    layer("serve.timeouts", "count", Lower, SERVED),
    layer("serve.io_errors", "count", Lower, SERVED),
    layer("serve.unattributed_ms", "ms", Lower, SERVED),
    layer("serve.read_p50_ms", "ms", Lower, SERVED),
    layer("framework.context_us", "us", Lower, SERVED),
    layer("framework.score_us", "us", Lower, SERVED),
    layer("framework.rank_batch_us", "us", Lower, SERVED),
    layer("framework.fold_ms", "ms", Lower, HOT),
    layer("framework.rebuild_ms", "ms", Lower, HOT),
    layer("framework.swap_us", "us", Lower, HOT),
    layer("framework.load_ms", "ms", Lower, SERVED),
    layer("framework.partition_ms", "ms", Lower, ROUTED),
    layer("querylog.append_us", "us", Lower, HOT),
    layer("querylog.seal_ms", "ms", Lower, HOT),
    layer("querylog.events_per_publish", "count", Higher, HOT),
    layer("router.gather_ms", "ms", Lower, ROUTED),
    layer("router.slowest_shard_ms", "ms", Lower, ROUTED),
    layer("router.overhead_ms", "ms", Lower, ROUTED),
    layer("router.failover", "count", Lower, ROUTED),
    layer("router.epoch_mismatch", "count", Lower, ROUTED),
    layer("text.html_us", "us", Lower, ANNOTATE),
    layer("text.tokenize_us", "us", Lower, ANNOTATE),
    layer("text.sentences_us", "us", Lower, ANNOTATE),
    layer("shortcuts.patterns_us", "us", Lower, ANNOTATE),
    layer("shortcuts.dict_us", "us", Lower, ANNOTATE),
    layer("shortcuts.concepts_us", "us", Lower, ANNOTATE),
    layer("shortcuts.vector_us", "us", Lower, ANNOTATE),
    layer("shortcuts.resolve_us", "us", Lower, ANNOTATE),
    layer("parallel.workers", "count", Higher, ANNOTATE),
    layer("parallel.efficiency", "ratio", Higher, ANNOTATE),
    layer("bench.tail_ms", "ms", Lower, SERVED | ANNOTATE),
    layer("bench.peak_rss_mb", "MB", Lower, SERVED | ANNOTATE),
    layer("bench.late_p99_ms", "ms", Lower, SERVED),
    layer("bench.trace_overhead", "ratio", Lower, SERVED | ANNOTATE),
    layer("bench.generator_threads", "count", Lower, SERVED | ANNOTATE),
    layer("bench.error_ratio", "ratio", Lower, SERVED | ANNOTATE),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A name the benchmark contract accepts: starts with a letter or
    /// digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(!valid_name("_lead"));
        assert!(!valid_name("a b"));
    }

    #[test]
    fn every_workload_loads_some_layer() {
        for w in Workload::ALL {
            assert!(PER_LAYER.iter().any(|m| m.loaded_by(w)), "{}", w.name());
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics above, with the same units and directions.
    #[test]
    fn benchmark_json_mirrors_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        let list = |key: &str| match doc.get(key) {
            Some(serde_json::Value::Seq(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |v: &serde_json::Value, k: &str| {
            v.get(k)
                .and_then(|x| x.as_str())
                .unwrap_or_else(|| panic!("{k} in {v:?}"))
                .to_string()
        };
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), m.better.as_str());
            let bound = v.get("bound").and_then(|b| b.as_f64()).expect("bound");
            assert_eq!(bound, m.bound, "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (v, m) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), m.better.as_str());
        }
    }
}
