//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: kept in memory while the run measures, written out as
//! JSON lines when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// Request identifier: the spans of one request share it.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. One per thread; ids are made unique
/// across recorders by `id_base`.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, id_base: u64) -> Self {
        Self {
            origin,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Times `f` as a span and returns its id, duration and result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (u64, u64, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, req, parent, start, end);
        (id, (end - start).as_nanos() as u64, out)
    }

    /// Records a span from timestamps the caller took itself.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        id
    }
}

/// Self time of every span: its duration minus what its child spans
/// cover. The ladder invokes each layer separately on the same request,
/// so a child's time is its own duration (children of one parent never
/// overlap), and a child that happened to run longer than its parent
/// clamps the parent's self time at zero instead of going negative.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_clamps_at_zero() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 40, 60),
            span(4, Some(3), 45, 50),
            // A child measured longer than its parent (separate invocations).
            span(5, None, 0, 10),
            span(6, Some(5), 0, 25),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 15);
        assert_eq!(own[&4], 5);
        assert_eq!(own[&5], 0);
        assert_eq!(own[&6], 25);
        // With nothing clamped, self times add up to the root's duration.
        assert_eq!(own[&1] + own[&2] + own[&3] + own[&4], 100);
    }

    #[test]
    fn the_tracer_nests_spans_by_parent_and_request() {
        let mut t = Tracer::new(Instant::now(), 1_000);
        let (root, _, ()) = t.span("root", 7, None, || ());
        let (child, dur, v) = t.span("child", 7, Some(root), || 42);
        assert_eq!((root, child, v), (1_000, 1_001, 42));
        assert_eq!(t.spans[1].parent, Some(1_000));
        assert_eq!(t.spans[1].req, 7);
        assert_eq!(t.spans[1].dur_ns(), dur);
        assert!(t.spans[0].end_ns <= t.spans[1].start_ns);
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let dir = crate::run::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[span(1, None, 0, 9), span(2, Some(1), 2, 5)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = apex_serve::json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("parent").and_then(apex_serve::Json::as_u64),
            Some(1)
        );
        assert_eq!(
            second.get("name").and_then(apex_serve::Json::as_str),
            Some("t")
        );
        assert!(lines[0].contains("\"parent\":null"));
    }
}
