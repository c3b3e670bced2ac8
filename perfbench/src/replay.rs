//! In-process replays of each workload with spans around every call into
//! a layer. Each replay makes the calls the `twigm` CLI makes for the
//! workload's flags, through the same public functions, and writes the
//! same lines, so its output is checked against the oracle too.

use std::fs::File;
use std::io::{self, BufReader, LineWriter, Read, Write};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

use twigm::pipeline::shard_queries;
use twigm::{Engine, EngineStats, MultiTwigM, PipelineOptions, StreamEngine};
use twigm_sax::{
    BatchEventKind, BatchPlan, BatchProducer, Event, EventBatch, NodeId, SaxReader, Symbol,
    SymbolTable,
};

use crate::child::due_offset;
use crate::trace::{self, sample, span, Layer, Recorded, Sampler, LAYERS};
use crate::workload::{Mode, Workload, FEED_CHUNK, FEED_RATE};

/// The CLI's read buffer for file input.
const FILE_BUFFER: usize = 256 * 1024;

/// Counts gathered by one replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of the replay.
    pub wall: Duration,
    /// Spans and read accounting.
    pub recorded: Recorded,
    /// Per-event spans were taken on one event in `k`.
    pub k: f64,
    /// Events the reader emitted.
    pub reader_events: u64,
    /// `SymbolTable::lookup` calls.
    pub lookups: u64,
    /// Start tags seen by the event loop.
    pub start_tags: u64,
    /// Start tags whose attributes were decoded.
    pub tags_decoded: u64,
    /// Calls into the engine's per-event entry points.
    pub engine_events: u64,
    /// The engine's own counters.
    pub engine: EngineStats,
    /// Batches produced (threaded workload only).
    pub batches: u64,
    /// Result lines written.
    pub out_lines: u64,
    /// Bytes of result lines written.
    pub out_bytes: u64,
}

impl Replay {
    /// `trace.coverage_frac`: the layers' self times summed, over the
    /// replay's wall time.
    pub fn coverage(&self) -> f64 {
        let covered: f64 = LAYERS
            .iter()
            .map(|&l| self.recorded.times.self_s(l, self.k))
            .sum();
        covered / self.wall.as_secs_f64()
    }
}

/// Replays `workload` once. `input` is the generated document, also on
/// disk at `input_path`; the result lines go to `out_path`.
pub fn replay(
    workload: &Workload,
    input: &[u8],
    input_path: &Path,
    out_path: &Path,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let out = File::create(out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let mut out = Output::new(LineWriter::new(out));
    trace::begin();
    let start = Instant::now();
    let file = || -> Result<_, String> {
        let f = File::open(input_path).map_err(|e| format!("{}: {e}", input_path.display()))?;
        Ok(TracedRead(BufReader::with_capacity(FILE_BUFFER, f)))
    };
    let run = match workload.mode {
        Mode::Path => {
            let query = twigm_xpath::parse(workload.queries[0]).map_err(|e| e.to_string())?;
            let mut engine = Engine::new(&query).map_err(|e| e.to_string())?;
            drive_serial(&mut engine, file()?, &mut r).and_then(|()| {
                let ids = {
                    let _g = span(Layer::CoreEngine);
                    engine.take_results()
                };
                r.engine = engine.stats().clone();
                let _g = span(Layer::CliOutput);
                ids.iter().try_for_each(|id| out.line(format_args!("{id}")))
            })
        }
        Mode::Union => {
            let mut engine = multi(workload)?;
            drive_serial(&mut engine, file()?, &mut r).and_then(|()| {
                let mut ids = {
                    let _g = span(Layer::CoreEngine);
                    StreamEngine::take_results(&mut engine)
                };
                r.engine = engine.stats().clone();
                let _g = span(Layer::CliOutput);
                ids.sort_unstable();
                ids.dedup();
                ids.iter().try_for_each(|id| out.line(format_args!("{id}")))
            })
        }
        Mode::Feed => {
            let mut engine = multi(workload)?;
            let (rx, gen) = feed_source(input);
            thread::scope(|s| {
                let generator = s.spawn(gen);
                let driven = drive_serial(&mut engine, ChannelRead::new(rx), &mut r);
                generator.join().expect("feed generator panicked");
                driven
            })
            .and_then(|()| {
                let results = {
                    let _g = span(Layer::CoreEngine);
                    engine.take_tagged_results()
                };
                r.engine = engine.stats().clone();
                let _g = span(Layer::CliOutput);
                results
                    .iter()
                    .try_for_each(|t| out.line(format_args!("Q{}\t{}", t.query, t.node)))
            })
        }
        Mode::UnionThreaded => drive_sharded(workload, file()?, &mut r, &mut out),
    };
    let flushed = {
        let _g = span(Layer::CliOutput);
        out.w.flush().map_err(|e| e.to_string())
    };
    r.wall = start.elapsed();
    r.recorded = trace::finish();
    run.and(flushed)?;
    r.out_lines = out.lines;
    r.out_bytes = out.bytes;
    Ok(r)
}

/// Result lines, counted.
struct Output<W: Write> {
    w: W,
    lines: u64,
    bytes: u64,
}

impl<W: Write> Output<W> {
    fn new(w: W) -> Self {
        Output {
            w,
            lines: 0,
            bytes: 0,
        }
    }

    fn line(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), String> {
        let text = format!("{args}\n");
        self.lines += 1;
        self.bytes += text.len() as u64;
        self.w.write_all(text.as_bytes()).map_err(|e| e.to_string())
    }
}

fn multi(workload: &Workload) -> Result<MultiTwigM, String> {
    let mut engine = MultiTwigM::new();
    for text in &workload.queries {
        let query = twigm_xpath::parse(text).map_err(|e| e.to_string())?;
        engine.add_query(&query).map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// The serial event loop of `run_engine` / `MultiTwigM::run`, with spans.
fn drive_serial<E: StreamEngine, R: Read>(
    engine: &mut E,
    src: R,
    r: &mut Replay,
) -> Result<(), String> {
    let table = engine
        .symbols()
        .cloned()
        .ok_or("engine has no symbol table")?;
    let mut reader = SaxReader::new(src);
    let mut sampler = Sampler::default();
    loop {
        let on = sampler.take();
        let event = {
            let _g = sample(Layer::SaxReader, on);
            reader.next_event()
        };
        let Some(event) = event.map_err(|e| e.to_string())? else {
            break;
        };
        match event {
            Event::Start(tag) => {
                let sym = lookup(&table, tag.name(), on, r);
                r.start_tags += 1;
                let mut attrs = Vec::new();
                if engine.needs_attributes(sym) {
                    r.tags_decoded += 1;
                    let _g = sample(Layer::SaxAttrs, on);
                    for a in tag.attributes() {
                        attrs.push(a.map_err(|e| e.to_string())?);
                    }
                }
                let _g = sample(Layer::CoreEngine, on);
                engine.start_element_sym(sym, tag.name(), &attrs, tag.level(), tag.id());
            }
            Event::End(tag) => {
                let sym = lookup(&table, tag.name(), on, r);
                let _g = sample(Layer::CoreEngine, on);
                engine.end_element_sym(sym, tag.name(), tag.level());
            }
            Event::Text(text) => {
                let _g = sample(Layer::CoreEngine, on);
                engine.text(&text);
            }
            _ => continue,
        }
        r.engine_events += 1;
    }
    r.reader_events = reader.events_emitted();
    r.k = sampler.scale();
    Ok(())
}

fn lookup(table: &SymbolTable, name: &str, on: bool, r: &mut Replay) -> Symbol {
    r.lookups += 1;
    let _g = sample(Layer::SaxSymbol, on);
    table.lookup(name)
}

/// The `--threads 2` union: the producer's batches (`sax.batch`) and the
/// single shard worker's replay of them (`core.pipeline`), run one after
/// the other on this thread so each gets its own spans.
fn drive_sharded<R: Read>(
    workload: &Workload,
    src: R,
    r: &mut Replay,
    out: &mut Output<impl Write>,
) -> Result<(), String> {
    let branches = twigm_xpath::parse_union(&workload.union_text()).map_err(|e| e.to_string())?;
    let mut shard = shard_queries(&branches, 1)
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or("no shard")?;
    let plan = shard_plan(&shard);
    let local = MultiTwigM::symbols(&shard).clone();
    let batch_events = PipelineOptions::default().batch_events;
    let mut producer = BatchProducer::new(SaxReader::new(src), plan);
    let mut batch = EventBatch::new();
    let mut sampler = Sampler::default();
    loop {
        let more = {
            let _g = span(Layer::SaxBatch);
            producer.next_batch(&mut batch, batch_events)
        };
        if !more.map_err(|e| e.to_string())? {
            break;
        }
        r.batches += 1;
        let _g = span(Layer::CorePipeline);
        let mut attrs = Vec::new();
        for event in batch.events() {
            let on = sampler.take();
            let name = batch.str_of(event);
            match event.kind {
                BatchEventKind::Start => {
                    attrs.clear();
                    attrs.extend(batch.attrs_of(event));
                    let sym = lookup(&local, name, on, r);
                    let _g = sample(Layer::CoreEngine, on);
                    StreamEngine::start_element_sym(
                        &mut shard,
                        sym,
                        name,
                        &attrs,
                        event.level,
                        NodeId::new(event.id),
                    );
                }
                BatchEventKind::End => {
                    let sym = lookup(&local, name, on, r);
                    let _g = sample(Layer::CoreEngine, on);
                    StreamEngine::end_element_sym(&mut shard, sym, name, event.level);
                }
                BatchEventKind::Text => {
                    let _g = sample(Layer::CoreEngine, on);
                    StreamEngine::text_at(&mut shard, name, event.level);
                }
            }
            r.engine_events += 1;
        }
    }
    r.reader_events = producer.events_emitted();
    r.k = sampler.scale();
    let mut ids = {
        let _g = span(Layer::CoreEngine);
        StreamEngine::take_results(&mut shard)
    };
    r.engine = MultiTwigM::stats(&shard).clone();
    {
        let _g = span(Layer::CorePipeline);
        ids.sort_unstable();
        ids.dedup();
    }
    let _g = span(Layer::CliOutput);
    ids.iter().try_for_each(|id| out.line(format_args!("{id}")))
}

/// The producer plan `run_multi_sharded` builds for a single shard: the
/// shard's vocabulary re-interned, its attribute needs and relevance.
fn shard_plan(shard: &MultiTwigM) -> BatchPlan {
    let mut table = SymbolTable::new();
    for (_, name) in shard.symbols().iter() {
        table.intern(name);
    }
    let attr_syms = table
        .iter()
        .map(|(_, name)| {
            let local = shard.symbols().lookup(name);
            local.is_known() && MultiTwigM::needs_attributes(shard, local)
        })
        .collect();
    let rel = shard.relevance();
    let relevant = rel.symbols.map(|local| {
        let mut union = vec![false; table.len()];
        for (sym, name) in shard.symbols().iter() {
            if sym.index().and_then(|i| local.get(i)) == Some(&true) {
                if let Some(i) = table.lookup(name).index() {
                    union[i] = true;
                }
            }
        }
        union
    });
    BatchPlan {
        attr_syms,
        attr_unknown: MultiTwigM::needs_attributes(shard, Symbol::UNKNOWN),
        relevant,
        wants_text: rel.wants_text,
        table,
    }
}

/// A file source whose reads are `sax.read` spans.
struct TracedRead<R>(R);

impl<R: Read> Read for TracedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let _g = span(Layer::SaxRead);
        let n = self.0.read(buf)?;
        trace::add_read_bytes(n);
        Ok(n)
    }
}

/// The in-process stand-in for the feed's stdin pipe: chunks arrive on a
/// bounded channel on the generator's schedule; time blocked on an empty
/// channel is `sax.read` wait time.
struct ChannelRead {
    rx: Receiver<Vec<u8>>,
    chunk: Vec<u8>,
    pos: usize,
}

impl ChannelRead {
    fn new(rx: Receiver<Vec<u8>>) -> Self {
        ChannelRead {
            rx,
            chunk: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for ChannelRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let _g = span(Layer::SaxRead);
        while self.pos == self.chunk.len() {
            let next = match self.rx.try_recv() {
                Ok(chunk) => chunk,
                Err(TryRecvError::Empty) => {
                    let blocked = Instant::now();
                    let next = self.rx.recv();
                    trace::add_read_wait(blocked.elapsed());
                    match next {
                        Ok(chunk) => chunk,
                        Err(_) => return Ok(0),
                    }
                }
                Err(TryRecvError::Disconnected) => return Ok(0),
            };
            self.chunk = next;
            self.pos = 0;
        }
        let n = buf.len().min(self.chunk.len() - self.pos);
        buf[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        trace::add_read_bytes(n);
        Ok(n)
    }
}

/// A bounded channel (four chunks, like a 64 KiB pipe) and the generator
/// that fills it on the feed schedule.
fn feed_source(input: &[u8]) -> (Receiver<Vec<u8>>, impl FnOnce() + Send + '_) {
    let (tx, rx) = sync_channel::<Vec<u8>>(4);
    let generator = move || {
        let origin = Instant::now();
        for (i, piece) in input.chunks(FEED_CHUNK).enumerate() {
            let due = origin + due_offset(i, FEED_CHUNK, FEED_RATE);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            if tx.send(piece.to_vec()).is_err() {
                break;
            }
        }
    };
    (rx, generator)
}
