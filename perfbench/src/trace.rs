//! In-memory span recorder for the traced pass.
//!
//! The benchmark opens a span around each of its own calls into a
//! layer's public API (name, start, end, parent). Spans stay in memory
//! while the pass runs and are written out once it ends. A layer's self
//! time is its spans' duration minus the part covered by child spans;
//! the root span's self time is the time outside every layer span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, in seconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A stack of open spans plus every span recorded so far.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and
    /// returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.now();
        self.spans[id].end = end;
        self.spans[id].secs()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of span `id`: its duration minus its children's.
    fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Self time summed per span name, over the subtree of `root`.
    pub fn self_times(&self, root: usize) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for id in root..self.spans.len() {
            if id == root || self.descends_from(id, root) {
                *out.entry(self.spans[id].name.clone()).or_insert(0.0) += self.self_secs(id);
            }
        }
        out
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        while let Some(p) = self.spans[id].parent {
            if p == root {
                return true;
            }
            id = p;
        }
        false
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// The spans as JSON: one object per span with its index as `id`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}}}{sep}",
                s.name, s.start, s.end
            );
        }
        out.push(']');
        out
    }
}
