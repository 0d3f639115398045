//! The benchmark's own tracing: spans around calls *into* the program.
//!
//! Every call the traced pass makes into a layer's public functions is a
//! span — name, start, end, parent, op id — kept in memory and written out
//! once when the run ends.  A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.  Spans inside the
//! program are a later change; nothing here depends on `cej-obs`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A shadow call repeats work hidden inside a real call so that the
    /// layer doing it can be timed from outside; its time is not part of
    /// the op's latency.
    pub shadow: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on the spans recorded from here on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn open(&mut self, name: &'static str, shadow: bool) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            shadow,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) -> u64 {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Runs `f` as a real call under a span; returns its result and the
    /// span's duration in nanoseconds.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let id = self.open(name, false);
        let out = f(self);
        (out, self.close(id))
    }

    /// Runs `f` as a shadow call (see [`Span::shadow`]).
    pub fn shadow<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name, true);
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per line: a header, then every span with its
    /// self time.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let selfs = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"shadow\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns, span.shadow
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (children may overlap each other and are clipped to
/// the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(name, _)| *name == span.name) {
            Some(entry) => entry.1 += self_ns,
            None => out.push((span.name, self_ns)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
            shadow: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: union is 10..60
            span("c", Some(0), 90, 130), // clipped to the parent: 90..100
            span("a.inner", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 40, 5]);
    }

    #[test]
    fn contained_and_identical_children_do_not_double_count() {
        let spans = vec![
            span("op", None, 0, 50),
            span("x", Some(0), 0, 50),
            span("y", Some(0), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 10]);
    }

    #[test]
    fn by_name_sums_across_ops() {
        let spans = vec![
            span("op", None, 0, 10),
            span("k", Some(0), 2, 6),
            span("op", None, 10, 30),
            span("k", Some(2), 10, 25),
        ];
        assert_eq!(self_time_by_name(&spans), vec![("op", 11), ("k", 19)]);
    }

    #[test]
    fn tracer_nests_calls_under_the_open_span() {
        let mut t = Tracer::new();
        t.set_op(7);
        let ((), outer_ns) = t.call("outer", |t| {
            t.shadow("inner", || std::hint::black_box(1 + 1));
            t.call("real", |_| ());
        });
        t.shadow("after", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[1].shadow), (Some(0), true));
        assert_eq!((spans[2].parent, spans[2].shadow), (Some(0), false));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[0].duration_ns(), outer_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
    }
}
