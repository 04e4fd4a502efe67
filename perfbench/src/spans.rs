//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the
//! recorder's epoch), the id of the cell or request it belongs to, and
//! the name of its parent span within that id. Spans are written out
//! once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Cell or request id shared by every span of that unit of work.
    pub id: u64,
    /// Layer call the span times.
    pub name: &'static str,
    /// Enclosing span of the same id, if any.
    pub parent: Option<&'static str>,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans for one run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far, in completion order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: u64,
        end: u64,
    ) {
        self.spans.push(Span {
            id,
            name,
            parent,
            start,
            end,
        });
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.record(id, name, parent, start, end);
        r
    }

    /// Durations (ns) of every `name` span whose id passes `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(u64) -> bool) -> Samples {
        let mut s = Samples::new();
        for span in self.spans.iter().filter(|s| s.name == name && keep(s.id)) {
            s.push(span.ns() as f64);
        }
        s
    }

    /// Share of the `parent`-named spans' total time (over ids passing
    /// `keep`) that their direct children cover. One minus this is the
    /// parents' self time: work no layer span accounts for.
    pub fn coverage(&self, parent: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let (mut total, mut covered) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| keep(s.id)) {
            if s.name == parent {
                total += s.ns();
            } else if s.parent == Some(parent) {
                covered += s.ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}
