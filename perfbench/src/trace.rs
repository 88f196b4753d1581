//! In-memory spans around the benchmark's calls into the program.
//!
//! A span has a name, start, end, parent and request id. Spans are kept
//! in memory while the run measures and written out once it ends;
//! layers are reported by self time: a span's duration minus the part
//! of its interval covered by its children.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span. `f` receives the span's id so it can open
    /// child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve_id();
        let start = Instant::now();
        let out = f(id);
        self.record(
            id,
            parent,
            name,
            request,
            self.ns(start),
            self.ns(Instant::now()),
        );
        out
    }

    /// An id for a span whose interval is recorded later with
    /// [`Tracer::record_reserved`], so children can name it first.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record the interval of a span reserved with [`Tracer::reserve_id`].
    pub fn record_reserved(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.record(id, parent, name, request, self.ns(start), self.ns(end));
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record an interval measured by the caller (`start`/`end` are
    /// instants on the same clock). Returns the new span's id.
    pub fn record_interval(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve_id();
        self.record(id, parent, name, request, self.ns(start), self.ns(end));
        id
    }

    fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans
            .lock()
            .expect("span log poisoned")
            .push(SpanRecord {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            });
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Self time of every span, in microseconds, grouped by name.
    pub fn self_times_us(&self) -> HashMap<&'static str, Vec<f64>> {
        self_times_us(&self.spans())
    }
}

/// Self time of every span in `spans`, in microseconds, grouped by name.
pub fn self_times_us(spans: &[SpanRecord]) -> HashMap<&'static str, Vec<f64>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the parent.
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        out.entry(s.name)
            .or_default()
            .push(total.saturating_sub(covered) as f64 / 1e3);
    }
    out
}

/// The span log as JSON lines, one span per line.
pub fn to_json_lines(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.name, s.request, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            request: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 10_000),
            span(2, Some(1), "a", 1_000, 4_000),
            // Overlaps `a`: the union 1000..5000 is covered once.
            span(3, Some(1), "b", 3_000, 5_000),
            span(4, Some(1), "c", 8_000, 9_000),
        ];
        let st = self_times_us(&spans);
        assert_eq!(st["root"], vec![5.0]);
        assert_eq!(st["a"], vec![3.0]);
        assert_eq!(st["c"], vec![1.0]);
    }

    #[test]
    fn tracer_nests_spans() {
        let t = Tracer::default();
        t.span("outer", None, 7, |id| {
            t.span("inner", Some(id), 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let st = t.self_times_us();
        assert!(st["inner"][0] >= 2000.0);
        assert!(st["outer"][0] < st["inner"][0]);
        assert!(to_json_lines(&spans).contains("\"name\":\"inner\",\"request\":7"));
    }
}
