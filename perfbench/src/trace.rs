//! Spans for the traced run, kept in memory on the tracing thread.
//!
//! A span covers one call into a layer. Its self time is its duration
//! minus the time of the spans it encloses. Calls made once per event
//! are timed on a pseudo-random sample of one event in [`SAMPLE_EVERY`]
//! (a fixed stride would alias with the documents' regular record
//! shapes) and scaled up; coarser calls (reads, batches, output) are
//! timed every time. Each span's duration is corrected by the measured
//! cost of an empty span.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Per-event spans are recorded for one event in this many, on average.
pub const SAMPLE_EVERY: u64 = 16;

/// Decides which events are in the sample: a xorshift stream seeded the
/// same way on every run.
#[derive(Debug)]
pub struct Sampler {
    state: u64,
    /// Events seen.
    pub events: u64,
    /// Events in the sample.
    pub sampled: u64,
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler {
            state: 0x9E37_79B9_7F4A_7C15,
            events: 0,
            sampled: 0,
        }
    }
}

impl Sampler {
    /// Whether the next event is in the sample.
    pub fn take(&mut self) -> bool {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let on = self.state.is_multiple_of(SAMPLE_EVERY);
        self.events += 1;
        self.sampled += on as u64;
        on
    }

    /// The factor that scales sampled span time up to all events.
    pub fn scale(&self) -> f64 {
        self.events as f64 / self.sampled.max(1) as f64
    }
}

/// Spans written to the trace file per run; later spans still count.
const MAX_LOGGED_SPANS: usize = 100_000;

/// The layers the benchmark times, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The `Read` source handed to `SaxReader`.
    SaxRead,
    /// `SaxReader::next_event`, minus the reads inside it.
    SaxReader,
    /// `SymbolTable::lookup`.
    SaxSymbol,
    /// `StartTag::attributes` and entity decoding.
    SaxAttrs,
    /// `StreamEngine` entry points and `take_results`.
    CoreEngine,
    /// `BatchProducer::next_batch`, minus the reads inside it.
    SaxBatch,
    /// The shard worker applying a batch to its engine.
    CorePipeline,
    /// Formatting and writing result lines.
    CliOutput,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 8] = [
    Layer::SaxRead,
    Layer::SaxReader,
    Layer::SaxSymbol,
    Layer::SaxAttrs,
    Layer::CoreEngine,
    Layer::SaxBatch,
    Layer::CorePipeline,
    Layer::CliOutput,
];

impl Layer {
    /// The module-path name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SaxRead => "sax.read",
            Layer::SaxReader => "sax.reader",
            Layer::SaxSymbol => "sax.symbol",
            Layer::SaxAttrs => "sax.attrs",
            Layer::CoreEngine => "core.engine",
            Layer::SaxBatch => "sax.batch",
            Layer::CorePipeline => "core.pipeline",
            Layer::CliOutput => "cli.output",
        }
    }
}

/// Accumulated span time, in nanoseconds, per layer.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Self time of spans timed on every call.
    pub self_ns: [u64; 8],
    /// Self time of sampled spans (before scaling).
    pub sampled_self_ns: [u64; 8],
    /// Whole duration of spans timed on every call.
    pub total_ns: [u64; 8],
    /// Whole duration of sampled spans (before scaling).
    pub sampled_total_ns: [u64; 8],
    /// Time of sampled spans inside spans timed on every call: scaled
    /// up, it is the unsampled children's share of those spans too.
    pub sampled_inner_ns: [u64; 8],
}

impl LayerTimes {
    /// Estimated self time of `layer`, with sampled spans scaled by `k`.
    pub fn self_s(&self, layer: Layer, k: f64) -> f64 {
        let i = layer as usize;
        let sampled = self.sampled_self_ns[i] as f64 - self.sampled_inner_ns[i] as f64;
        ((self.self_ns[i] as f64 + sampled * k) / 1e9).max(0.0)
    }

    /// Estimated whole span time of `layer` (children included).
    pub fn total_s(&self, layer: Layer, k: f64) -> f64 {
        let i = layer as usize;
        (self.total_ns[i] as f64 + self.sampled_total_ns[i] as f64 * k) / 1e9
    }
}

/// One recorded span, for the trace file.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span belongs to.
    pub layer: Layer,
    /// Index of the enclosing span in the log, if it was logged.
    pub parent: Option<u32>,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// Duration after correction by the cost of an empty span.
    pub dur_ns: u64,
}

struct Open {
    layer: Layer,
    sampled: bool,
    start: Instant,
    child_ns: u64,
    sampled_child_ns: u64,
    log_index: Option<u32>,
}

struct Tracer {
    origin: Instant,
    span_ns: u64,
    stack: Vec<Open>,
    times: LayerTimes,
    log: Vec<Span>,
    read_bytes: u64,
    read_wait_ns: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        origin: Instant::now(),
        span_ns: 0,
        stack: Vec::new(),
        times: LayerTimes::default(),
        log: Vec::new(),
        read_bytes: 0,
        read_wait_ns: 0,
    });
}

/// What [`finish`] hands back.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Per-layer times.
    pub times: LayerTimes,
    /// The first spans, in start order.
    pub log: Vec<Span>,
    /// Bytes returned by traced `Read` sources.
    pub read_bytes: u64,
    /// Time traced `Read` sources spent blocked waiting for input.
    pub read_wait_ns: u64,
}

/// Starts a fresh trace on this thread, first measuring what an empty
/// span costs so that every span's duration can be corrected by it.
pub fn begin() {
    reset(0);
    for _ in 0..2001 {
        let _g = span(Layer::SaxRead);
    }
    let mut empty: Vec<u64> = TRACER.with(|t| t.borrow().log.iter().map(|s| s.dur_ns).collect());
    empty.sort_unstable();
    reset(empty[empty.len() / 2]);
}

fn reset(span_ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.origin = Instant::now();
        t.span_ns = span_ns;
        t.stack.clear();
        t.times = LayerTimes::default();
        t.log.clear();
        t.read_bytes = 0;
        t.read_wait_ns = 0;
    });
}

/// Ends the trace on this thread and returns what it recorded.
pub fn finish() -> Recorded {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        Recorded {
            times: std::mem::take(&mut t.times),
            log: std::mem::take(&mut t.log),
            read_bytes: t.read_bytes,
            read_wait_ns: t.read_wait_ns,
        }
    })
}

/// Counts bytes delivered by a traced `Read` source.
pub fn add_read_bytes(n: usize) {
    TRACER.with(|t| t.borrow_mut().read_bytes += n as u64);
}

/// Counts time a traced `Read` source spent blocked on its input.
pub fn add_read_wait(d: Duration) {
    TRACER.with(|t| t.borrow_mut().read_wait_ns += d.as_nanos() as u64);
}

/// Closes its span when dropped.
#[must_use]
pub struct Guard(bool);

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 {
            exit();
        }
    }
}

/// Opens a span timed on every call.
pub fn span(layer: Layer) -> Guard {
    enter(layer, false);
    Guard(true)
}

/// Opens a per-event span if this event is in the sample (`on`).
pub fn sample(layer: Layer, on: bool) -> Guard {
    if on {
        enter(layer, true);
    }
    Guard(on)
}

fn enter(layer: Layer, sampled: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let log_index = (t.log.len() < MAX_LOGGED_SPANS).then(|| {
            let parent = t.stack.last().and_then(|o| o.log_index);
            t.log.push(Span {
                layer,
                parent,
                start_ns: 0,
                dur_ns: 0,
            });
            (t.log.len() - 1) as u32
        });
        t.stack.push(Open {
            layer,
            sampled,
            start: Instant::now(),
            child_ns: 0,
            sampled_child_ns: 0,
            log_index,
        });
    });
}

fn exit() {
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let open = t.stack.pop().expect("span exit without enter");
        let dur = ((end - open.start).as_nanos() as u64).saturating_sub(t.span_ns);
        let own = dur.saturating_sub(open.child_ns);
        let i = open.layer as usize;
        if open.sampled {
            t.times.sampled_self_ns[i] += own;
            t.times.sampled_total_ns[i] += dur;
        } else {
            t.times.self_ns[i] += own;
            t.times.total_ns[i] += dur;
            t.times.sampled_inner_ns[i] += open.sampled_child_ns;
        }
        if let Some(parent) = t.stack.last_mut() {
            if open.sampled && !parent.sampled {
                parent.sampled_child_ns += dur;
            } else {
                parent.child_ns += dur;
            }
        }
        if let Some(li) = open.log_index {
            let start_ns = (open.start - t.origin).as_nanos() as u64;
            let span = &mut t.log[li as usize];
            span.start_ns = start_ns;
            span.dur_ns = dur;
        }
    });
}

/// Renders `log` in the Chrome trace-event format (`chrome://tracing`,
/// Perfetto). Timestamps are microseconds.
pub fn chrome_json(log: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in log.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        begin();
        {
            let _outer = span(Layer::SaxReader);
            std::thread::sleep(Duration::from_millis(4));
            let _inner = span(Layer::SaxRead);
            std::thread::sleep(Duration::from_millis(4));
        }
        {
            let _skipped = sample(Layer::CoreEngine, false);
        }
        let r = finish();
        let reader = r.times.self_s(Layer::SaxReader, 1.0);
        let read = r.times.self_s(Layer::SaxRead, 1.0);
        assert!((0.004..0.008).contains(&reader), "{reader}");
        assert!((0.004..0.008).contains(&read), "{read}");
        assert!(r.times.total_s(Layer::SaxReader, 1.0) >= reader + read - 1e-6);
        assert_eq!(r.times.total_s(Layer::CoreEngine, 1.0), 0.0);
        assert_eq!(r.log.len(), 2);
        assert_eq!(r.log[1].parent, Some(0));
    }
}
