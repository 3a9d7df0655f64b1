//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the measured program is instrumented: a span brackets a
//! public call (or a timed run of calls) made from this crate. Spans are
//! kept in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the causing span (`u32::MAX` for a root).
    pub parent: u32,
    /// Request the span serves; spans of one request share it.
    pub req: u64,
    /// Calls the span covers (1 for a single call).
    pub calls: u32,
}

pub const ROOT: u32 = u32::MAX;

/// Request spans kept per run (the first ones); later requests are not
/// traced. Replay spans are always kept.
const MAX_REQUEST_SPANS: u64 = 100_000;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    requests: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Ns since the epoch for an instant taken elsewhere.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span; returns its index for use as a parent.
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Records the span of one workload request, up to the per-run cap.
    pub fn record_request(&mut self, span: Span) {
        if self.requests < MAX_REQUEST_SPANS {
            self.requests += 1;
            self.record(span);
        }
    }

    /// Opens a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> u32 {
        let t = self.now();
        self.record(Span {
            name,
            start: t,
            end: t,
            parent: ROOT,
            req: 0,
            calls: 0,
        })
    }

    pub fn close(&mut self, idx: u32, calls: u32) {
        let t = self.now();
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = t;
            s.calls = calls;
        }
    }

    /// Per-call durations (ns) of spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).min(u32::MAX as u64) as u32)
            .collect()
    }

    /// Mean ns per call over every span named `name`, medianed across the
    /// spans (each span times a run of `calls` calls).
    pub fn median_per_call(&self, name: &str) -> f64 {
        let per: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| (s.end - s.start) as f64 / s.calls as f64)
            .collect();
        crate::stats::median(&per)
    }

    /// Writes every span as CSV (`name,start_ns,end_ns,parent,req,calls`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,req,calls")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.name, s.start, s.end, parent, s.req, s.calls
            )?;
        }
        w.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
