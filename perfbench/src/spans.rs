//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span is a name, a start and end on one monotonic clock, the span
//! that was open when it started, and the op it belongs to. Spans stay
//! in memory while the workload runs and are written out once it ends,
//! so recording costs one clock read and one push per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `engine.step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (0 outside timed ops).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer runs the closure and
/// nothing else, so the untraced and traced passes share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// All closed spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Self time in seconds per span name, over the first span named
    /// `root` and its descendants: each span's duration minus the part
    /// its direct children cover.
    #[must_use]
    pub fn self_time_s(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let Some(root) = self.spans.iter().position(|s| s.name == root) else {
            return out;
        };
        let mut inside = vec![false; self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents start before their children, so one pass in start
        // order settles membership.
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
            if let (true, Some(p)) = (inside[i], s.parent) {
                child_ns[p] += s.dur_ns();
            }
        }
        for (i, s) in self.spans.iter().enumerate().filter(|&(i, _)| inside[i]) {
            *out.entry(s.name).or_insert(0.0) +=
                s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e9;
        }
        out
    }

    /// Write the spans as JSON lines to `path`.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("engine.step", |_| 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.span("setup", |_| spin(2));
        tr.set_op(3);
        tr.span("work", |tr| {
            tr.span("engine.step", |tr| {
                spin(4);
                tr.span("oracle.rank", |_| spin(4));
            });
        });
        let spans = &tr.spans()[1..];
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(1));
        assert_eq!(spans[2].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 3));
        let st = tr.self_time_s("work");
        assert!(!st.contains_key("setup"));
        // Self times partition the root span exactly (to rounding).
        let total: f64 = st.values().sum();
        assert!((total - spans[0].dur_ns() as f64 / 1e9).abs() < 1e-9);
        assert!(st["engine.step"] >= 0.004 && st["oracle.rank"] >= 0.004);
        assert!(st["work"] < st["engine.step"]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut tr = Tracer::new(true);
        tr.span("a.x", |tr| tr.span("b.y", |_| ()));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_build/perfbench-test")
            .join(std::process::id().to_string());
        let path = dir.join("spans.jsonl");
        tr.write_jsonl(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        std::fs::remove_dir_all(&dir).expect("cleans up");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"name\":\"b.y\"") && lines[1].contains("\"parent\":0"));
    }
}
