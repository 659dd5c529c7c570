//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written as Chrome trace events when the run ends
//! (load the file in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Display lanes (`tid` in the trace file): the run's phases, the
/// replay's blocks, and the layer calls inside each block.
pub const LANE_PHASE: u32 = 0;
pub const LANE_BLOCK: u32 = 1;
pub const LANE_LAYER: u32 = 2;

/// Index of a recorded span, for naming it as a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    name: String,
    lane: u32,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<SpanId>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span that began at `start` and ends now.
    pub fn close(
        &mut self,
        name: impl Into<String>,
        lane: u32,
        start: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.record(name, lane, start, Instant::now(), parent)
    }

    pub fn record(
        &mut self,
        name: impl Into<String>,
        lane: u32,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            lane,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            parent,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Reserves a span whose extent is known only after its children
    /// (a replayed block): the children name it as parent, then
    /// [`Spans::finish`] sets its end.
    pub fn open(&mut self, name: impl Into<String>, lane: u32, start: Instant) -> SpanId {
        self.record(name, lane, start, start, None)
    }

    pub fn finish(&mut self, id: SpanId) {
        let span = &mut self.spans[id.0];
        span.dur_ns = self.origin.elapsed().as_nanos() as u64 - span.start_ns;
    }

    /// Writes every span as a complete (`"ph": "X"`) event; `args` carry
    /// the span's id and its parent's so self time can be computed.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}",
                span.name,
                span.lane,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ", \"parent\": {}", parent.0);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
