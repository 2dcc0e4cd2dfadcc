//! In-memory span recorder for the traced layer run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; nothing inside the library is
//! instrumented. Every span keeps its name, start, end and parent, and
//! the whole set is written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end)` seconds since the tracer was made.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Records nested spans. A span's path is its ancestors' names and its
/// own, joined by `/` (for example `mesh-sparse/setup/topo.build`).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn path(&self, id: usize) -> String {
        let s = &self.spans[id];
        match s.parent {
            Some(p) => format!("{}/{}", self.path(p), s.name),
            None => s.name.to_string(),
        }
    }

    /// A span's duration minus the part of it its children cover
    /// (children never overlap: the run is single-threaded).
    fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start) - children
    }

    /// Summed self time of every span at `path`; panics when no span
    /// has that path, so a renamed span cannot silently read as 0.
    pub fn self_secs(&self, path: &str) -> f64 {
        let ids: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.path(i) == path)
            .collect();
        assert!(!ids.is_empty(), "no span recorded at {path}");
        ids.into_iter().map(|i| self.self_time(i)).sum()
    }

    /// Summed duration of every span at `path`.
    pub fn total_secs(&self, path: &str) -> f64 {
        let ids: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.path(i) == path)
            .collect();
        assert!(!ids.is_empty(), "no span recorded at {path}");
        ids.into_iter()
            .map(|i| self.spans[i].end - self.spans[i].start)
            .sum()
    }

    /// All spans as JSON lines, with each span's derived self time.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = format!("{header}\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"path\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                s.name,
                self.path(id),
                s.start,
                s.end,
                self.self_time(id)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
