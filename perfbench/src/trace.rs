//! In-memory spans recorded around the benchmark's calls into each layer's
//! public functions, and the self-time table derived from them.
//!
//! A span is (name, start, end, parent, request id). Names are
//! `<layer>.<call>`; the layer is the part before the first dot. Parents are
//! linked automatically through a per-thread stack of open spans, so a span
//! opened inside another on the same thread becomes its child.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        // ordering: Relaxed — the counter only has to hand out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().push(Span {
            id,
            parent,
            req,
            name,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Durations in µs of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
                s.name,
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.id, (s.dur_us() - covered).max(0.0))
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: String,
    pub spans: usize,
    pub total_us: f64,
    pub self_us: f64,
}

/// Sum span counts, durations and self times per layer, sorted by layer.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut rows: HashMap<&str, LayerRow> = HashMap::new();
    for s in spans {
        let layer = layer_of(s.name);
        let row = rows.entry(layer).or_insert_with(|| LayerRow {
            layer: layer.to_string(),
            spans: 0,
            total_us: 0.0,
            self_us: 0.0,
        });
        row.spans += 1;
        row.total_us += s.dur_us();
        row.self_us += selfs[&s.id];
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    rows.sort_by(|a, b| a.layer.cmp(&b.layer));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "loadgen.request", 0.0, 100.0),
            span(2, Some(1), "core.execute", 10.0, 40.0),
            // Two overlapping children (say, parallel workers) cover 50..80.
            span(3, Some(1), "core.decode", 50.0, 70.0),
            span(4, Some(1), "core.decode", 60.0, 80.0),
            span(5, Some(2), "sparql.parse", 10.0, 15.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 40.0);
        assert_eq!(selfs[&2], 25.0);
        assert_eq!(selfs[&3], 20.0);
        assert_eq!(selfs[&5], 5.0);

        let table = layer_table(&spans);
        let core = table.iter().find(|r| r.layer == "core").unwrap();
        assert_eq!((core.spans, core.total_us, core.self_us), (3, 70.0, 65.0));
        assert_eq!(table.iter().map(|r| r.self_us).sum::<f64>(), 110.0);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        let v = t.span("loadgen.request", 7, || {
            t.span("core.execute", 7, || 41) + 1
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((inner.req, outer.req), (7, 7));
        assert!(inner.start_us >= outer.start_us && inner.end_us <= outer.end_us);
        assert_eq!(t.durations("core.execute").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.execute", 1, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_round_trip_to_jsonl() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/unit-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let t = Tracer::new(true);
        t.span("server.exchange", 3, || ());
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"server.exchange\""));
        assert!(text.contains("\"parent\":null"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
