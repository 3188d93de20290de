//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the crates is instrumented. A span
//! has a name, a start, an end, the span that caused it and the id of
//! the candidate or request it belongs to. Spans stay in memory until
//! the run ends and are then written as one JSON object per line.

use magis_obs::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Candidate or request id shared by every span of one unit of
    /// work.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records spans on one thread. A disabled recorder runs the wrapped
/// calls without reading the clock, which is what the tracing-overhead
/// measurement compares against.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later `time`/`open` calls nest under.
    pub fn open(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("close without open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, req);
        let r = f();
        self.close();
        r
    }

    /// Appends another thread's spans (same epoch), keeping its parent
    /// links valid.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Per-`req` sum of the durations (µs) of spans called `name`, for
    /// layers called several times per candidate.
    pub fn durations_per_req_us(&self, name: &str) -> Vec<f64> {
        let mut by_req = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_req.entry(s.req).or_default() += s.dur_us();
        }
        by_req.into_values().collect()
    }

    /// Total duration (µs) of spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Writes one JSON object per span. `self_us` is the span's
    /// duration minus the part of it its child spans cover.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let line = Json::Obj(vec![
                ("id".into(), Json::UInt(i as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("name".into(), Json::Str(s.name.into())),
                ("req".into(), Json::UInt(s.req)),
                ("start_us".into(), Json::Float(s.start_ns as f64 / 1e3)),
                ("end_us".into(), Json::Float(s.end_ns as f64 / 1e3)),
                (
                    "self_us".into(),
                    Json::Float(dur.saturating_sub(child_ns[i]) as f64 / 1e3),
                ),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}
