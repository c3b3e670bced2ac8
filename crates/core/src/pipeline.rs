//! Parallel pipelined execution: scan on a producer thread, evaluate on
//! consumer threads.
//!
//! The serial driver ([`crate::engine::drive`]) interleaves scanning and
//! evaluation on one thread; end-to-end time is the *sum* of parse and
//! evaluation cost. The pipeline ([`run_pipeline`]) decouples them:
//!
//! * a **producer thread** runs the [`SaxReader`] and packs events into
//!   fixed-capacity [`EventBatch`]es (interned symbols, flat string
//!   arena — no per-event allocation), applying the symbol-relevance
//!   **prefilter** so events no engine can dispatch on never cross a
//!   channel;
//! * every batch is broadcast over one **bounded channel** per consumer
//!   (backpressure: the producer blocks when a consumer lags), and
//!   drained batches are recycled, so the steady state performs no
//!   per-batch heap traffic;
//! * one **consumer thread** per engine replays the batches into it. A
//!   single query ([`run_engine_pipelined`]) has one consumer; a union
//!   ([`run_multi_sharded`]) is sharded over several, and their results
//!   merge deterministically in document order.
//!
//! The engines share one vocabulary. The shards of [`shard_queries`]
//! each intern into a copy of the previous shard's table, so every
//! shard's table is a prefix of the last one. The producer looks each
//! tag up once in that last table, and the symbol it stores means the
//! same in every consumer.
//!
//! End-to-end time becomes `max(parse, evaluate)` plus channel overhead
//! instead of `parse + evaluate`, and the prefilter shrinks the
//! `evaluate` term further. Every configuration returns byte-identical
//! results to the serial driver; the differential suite in
//! `twigm-testkit` enforces this over the generator corpus. A panic on
//! any pipeline thread ends the run with [`SaxError::Panicked`].

use std::any::Any;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::Arc;
use std::thread;

use twigm_sax::batch::{
    BatchEventKind, BatchPlan, BatchProducer, EventBatch, DEFAULT_BATCH_EVENTS,
};
use twigm_sax::{NodeId, SaxError, SaxReader, Symbol};

use crate::engine::StreamEngine;
use crate::multi::MultiTwigM;
use crate::observe::NoopObserver;
use crate::relevance::{union_into, Relevance};
use crate::stats::EngineStats;

/// Tuning knobs for the pipelined drivers.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Events per batch (default [`DEFAULT_BATCH_EVENTS`]).
    pub batch_events: usize,
    /// Bounded-channel capacity in batches; the producer can run at most
    /// this far ahead of the slowest consumer.
    pub queue_depth: usize,
    /// Apply the symbol-relevance prefilter at the producer. Off, every
    /// event is delivered — the ablation baseline.
    pub prefilter: bool,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            batch_events: DEFAULT_BATCH_EVENTS,
            queue_depth: 4,
            prefilter: true,
        }
    }
}

/// Counters from one pipelined run — the queue-health picture the
/// engine's own [`EngineStats`] cannot see.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Threads that touched the stream (producer + consumers).
    pub threads: usize,
    /// Batches shipped across the channel.
    pub batches: u64,
    /// Reader events scanned by the producer.
    pub events_scanned: u64,
    /// Events delivered to engines after the prefilter.
    pub events_delivered: u64,
    /// Events the prefilter dropped (plus ignored comments/PIs).
    pub events_filtered: u64,
    /// Times the producer found the queue full and had to block.
    pub producer_stalls: u64,
    /// Times a consumer found the queue empty and had to block.
    pub consumer_stalls: u64,
    /// Peak number of in-flight batches observed.
    pub max_queue_depth: u64,
    /// Bytes consumed from the input stream.
    pub bytes: u64,
}

impl PipelineStats {
    /// Adds one thread's share of the counters.
    fn absorb(&mut self, part: PipelineStats) {
        self.batches += part.batches;
        self.events_scanned += part.events_scanned;
        self.events_delivered += part.events_delivered;
        self.events_filtered += part.events_filtered;
        self.producer_stalls += part.producer_stalls;
        self.consumer_stalls += part.consumer_stalls;
        self.max_queue_depth = self.max_queue_depth.max(part.max_queue_depth);
        self.bytes += part.bytes;
    }
}

/// Builds the producer's delivery plan for a set of engines: the longest
/// of their symbol tables, and the OR over the engines of their
/// attribute needs and — when `prefilter` is on — their relevance.
///
/// # Panics
///
/// If some engine's table is not a prefix of the longest one, since the
/// batch symbols would then mean different tags to different engines.
fn plan_for<E: StreamEngine>(engines: &[E], prefilter: bool) -> BatchPlan {
    let table = engines
        .iter()
        .filter_map(|e| e.symbols())
        .max_by_key(|t| t.len())
        .cloned()
        .unwrap_or_default();
    for t in engines.iter().filter_map(|e| e.symbols()) {
        assert!(
            t.iter().all(|(sym, name)| table.lookup(name) == sym),
            "pipelined engines must share one symbol table (build shards with shard_queries)"
        );
    }
    let mut rel = Relevance {
        symbols: Some(Vec::new()),
        wants_text: false,
    };
    for engine in engines {
        let own = if prefilter {
            engine.relevance()
        } else {
            Relevance::all()
        };
        union_into(&mut rel, &own);
    }
    BatchPlan {
        attr_syms: table
            .iter()
            .map(|(sym, _)| engines.iter().any(|e| e.needs_attributes(sym)))
            .collect(),
        attr_unknown: engines.iter().any(|e| e.needs_attributes(Symbol::UNKNOWN)),
        relevant: rel.symbols,
        wants_text: rel.wants_text,
        table,
    }
}

/// A batch in flight: shared by every consumer it was broadcast to.
type Batch = Arc<EventBatch>;

/// Runs `engines` over `src` with one producer thread and one consumer
/// thread per engine; each engine sees the whole (prefiltered) stream,
/// and its results stay in it for the caller to drain.
///
/// The engines must share one symbol space: a single engine, or shards
/// from [`shard_queries`]. A panic on any of the threads is returned as
/// [`SaxError::Panicked`].
pub fn run_pipeline<E: StreamEngine + Send, R: Read + Send>(
    engines: &mut [E],
    src: R,
    opts: &PipelineOptions,
) -> Result<PipelineStats, SaxError> {
    let plan = plan_for(engines, opts.prefilter);
    let batch_events = opts.batch_events.max(1);
    let queue_depth = opts.queue_depth.max(1);
    let received: Vec<AtomicU64> = engines.iter().map(|_| AtomicU64::new(0)).collect();
    let mut stats = PipelineStats {
        threads: engines.len() + 1,
        ..PipelineStats::default()
    };
    let mut error = None;
    thread::scope(|scope| {
        let (free_tx, free_rx) = channel::<Batch>();
        let mut txs = Vec::with_capacity(engines.len());
        let mut handles = Vec::with_capacity(engines.len() + 1);
        for (engine, received) in engines.iter_mut().zip(&received) {
            let (tx, rx) = sync_channel::<Batch>(queue_depth);
            txs.push(tx);
            let free_tx = free_tx.clone();
            let consumer = move || consume(engine, rx, free_tx, received);
            handles.push(("consumer", scope.spawn(consumer)));
        }
        let received = &received;
        let producer = move || {
            let producer = BatchProducer::new(SaxReader::new(src), plan);
            produce(producer, batch_events, &txs, free_rx, received)
        };
        handles.push(("producer", scope.spawn(producer)));
        // The single join site: a thread's panic becomes an error.
        for (thread, handle) in handles {
            match handle.join() {
                Ok(Ok(part)) => stats.absorb(part),
                Ok(Err(e)) => {
                    error.get_or_insert(e);
                }
                Err(payload) => {
                    error.get_or_insert(SaxError::Panicked {
                        thread,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// The producer loop: fills batches under the plan and broadcasts each
/// to every consumer. Returning drops the producer's closure and with it
/// the senders, which closes the consumers' channels.
fn produce<R: Read>(
    mut producer: BatchProducer<R>,
    batch_events: usize,
    txs: &[SyncSender<Batch>],
    free: Receiver<Batch>,
    received: &[AtomicU64],
) -> Result<PipelineStats, SaxError> {
    let mut stats = PipelineStats::default();
    'produce: loop {
        // Reuse a batch every consumer has let go of; allocate while
        // none has come back.
        let mut batch = free
            .try_iter()
            .find_map(|mut b| Arc::get_mut(&mut b).is_some().then_some(b))
            .unwrap_or_default();
        let fill = Arc::get_mut(&mut batch).expect("a recycled batch is unshared");
        if !producer.next_batch(fill, batch_events)? {
            break;
        }
        stats.batches += 1;
        stats.events_scanned += fill.scanned;
        stats.events_filtered += fill.filtered;
        stats.events_delivered += fill.len() as u64;
        for tx in txs {
            match tx.try_send(batch.clone()) {
                Ok(()) => {}
                Err(TrySendError::Full(back)) => {
                    stats.producer_stalls += 1;
                    if tx.send(back).is_err() {
                        break 'produce;
                    }
                }
                Err(TrySendError::Disconnected(_)) => break 'produce,
            }
        }
        for r in received {
            let in_flight = stats.batches.saturating_sub(r.load(Ordering::Relaxed));
            stats.max_queue_depth = stats.max_queue_depth.max(in_flight);
        }
    }
    stats.bytes = producer.bytes_consumed();
    Ok(stats)
}

/// The consumer loop: replays every batch into `engine` through the
/// `_sym` entry points (the producer looked the symbols up), then hands
/// the batch back for reuse. Returns this consumer's share of the
/// counters, its stalls.
fn consume<E: StreamEngine>(
    engine: &mut E,
    rx: Receiver<Batch>,
    free: Sender<Batch>,
    received: &AtomicU64,
) -> Result<PipelineStats, SaxError> {
    let mut stats = PipelineStats::default();
    loop {
        let batch = match rx.try_recv() {
            Ok(batch) => batch,
            Err(TryRecvError::Empty) => {
                stats.consumer_stalls += 1;
                match rx.recv() {
                    Ok(batch) => batch,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        received.fetch_add(1, Ordering::Relaxed);
        {
            let mut attrs = Vec::new();
            for event in batch.events() {
                let name = batch.str_of(event);
                match event.kind {
                    BatchEventKind::Start => {
                        attrs.clear();
                        attrs.extend(batch.attrs_of(event));
                        let id = NodeId::new(event.id);
                        engine.start_element_sym(event.sym, name, &attrs, event.level, id);
                    }
                    BatchEventKind::End => engine.end_element_sym(event.sym, name, event.level),
                    BatchEventKind::Text => engine.text_at(name, event.level),
                }
            }
        }
        // The producer may already be gone.
        let _ = free.send(batch);
    }
    Ok(stats)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => s.to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "(no message)".to_string()),
    }
}

/// Runs `engine` over `src` with scanning pipelined onto a producer
/// thread; results are identical to [`crate::engine::run_engine`].
pub fn run_engine_pipelined<E: StreamEngine + Send, R: Read + Send>(
    mut engine: E,
    src: R,
    opts: &PipelineOptions,
) -> Result<(Vec<NodeId>, E, PipelineStats), SaxError> {
    let stats = run_pipeline(std::slice::from_mut(&mut engine), src, opts)?;
    let results = engine.take_results();
    Ok((results, engine, stats))
}

/// The merged output of a sharded multi-query run.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Union of all shard results, deduplicated and sorted in document
    /// order — identical to [`crate::engine::evaluate_union`] over the
    /// same query set.
    pub ids: Vec<NodeId>,
    /// Engine counters merged across shards (sums and maxes, as in
    /// [`EngineStats::merge`]).
    pub stats: EngineStats,
    /// Total machine-node count |Q| summed over every shard.
    pub machine_size: usize,
    /// Queue-health counters for the run.
    pub pipeline: PipelineStats,
}

/// Runs a union workload sharded across `shards.len()` consumer threads.
///
/// Each shard is a [`MultiTwigM`] holding a partition of the query set,
/// built by [`shard_queries`] so that all shards share one symbol space.
/// Results are merged exactly as [`crate::engine::evaluate_union`]
/// merges them — concatenate, sort by pre-order id, deduplicate — so the
/// output is byte-identical to the serial union regardless of shard
/// count or scheduling.
pub fn run_multi_sharded<R: Read + Send>(
    mut shards: Vec<MultiTwigM>,
    src: R,
    opts: &PipelineOptions,
) -> Result<ShardedOutcome, SaxError> {
    assert!(!shards.is_empty(), "sharded run needs at least one shard");
    let pipeline = run_pipeline(&mut shards, src, opts)?;
    let mut stats = EngineStats::default();
    let mut ids = Vec::new();
    for shard in &mut shards {
        stats.merge(shard.stats());
        ids.extend(StreamEngine::take_results(shard));
    }
    ids.sort_unstable();
    ids.dedup();
    Ok(ShardedOutcome {
        ids,
        stats,
        machine_size: shards.iter().map(MultiTwigM::machine_size).sum(),
        pipeline,
    })
}

/// Partitions `branches` round-robin into at most `shards` multi-query
/// engines (fewer when there are fewer branches) — the unit
/// [`run_multi_sharded`] consumes. Each shard interns into a copy of the
/// previous shard's symbol table, so all of them share one vocabulary.
pub fn shard_queries(
    branches: &[twigm_xpath::Path],
    shards: usize,
) -> Result<Vec<MultiTwigM>, crate::machine::MachineError> {
    let shards = shards.clamp(1, branches.len().max(1));
    let mut engines: Vec<MultiTwigM> = Vec::with_capacity(shards);
    for k in 0..shards {
        let table = engines
            .last()
            .map(|e| e.symbols().clone())
            .unwrap_or_default();
        let mut engine = MultiTwigM::over_symbols(table, NoopObserver);
        for branch in branches.iter().skip(k).step_by(shards) {
            engine.add_query(branch)?;
        }
        engines.push(engine);
    }
    Ok(engines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_union, run_engine, Engine};
    use twigm_xpath::{parse, parse_union};

    fn serial_ids(query: &str, xml: &[u8]) -> Vec<u64> {
        let engine = Engine::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml).unwrap();
        ids.into_iter().map(|id| id.get()).collect()
    }

    fn pipelined_ids(query: &str, xml: &[u8], opts: &PipelineOptions) -> Vec<u64> {
        let engine = Engine::new(&parse(query).unwrap()).unwrap();
        let (ids, _, _) = run_engine_pipelined(engine, xml, opts).unwrap();
        ids.into_iter().map(|id| id.get()).collect()
    }

    fn nested_doc() -> Vec<u8> {
        let mut xml = String::from("<r>");
        for i in 0..200 {
            xml.push_str(&format!(
                "<a k=\"{i}\"><noise><b>deep</b></noise><b>t{i}</b><c>{i}</c></a>"
            ));
            xml.push_str("<junk>filler<junk>more</junk></junk>");
        }
        xml.push_str("</r>");
        xml.into_bytes()
    }

    #[test]
    fn pipelined_matches_serial_across_query_classes() {
        let xml = nested_doc();
        let opts = PipelineOptions::default();
        for query in [
            "//a/b",
            "//a[c]/b",
            "/r/a/c",
            "//a[@k]/c",
            "//a[c = '7']/b",
            "//a/*",
            "/r/a[2]",
        ] {
            assert_eq!(
                pipelined_ids(query, &xml, &opts),
                serial_ids(query, &xml),
                "query {query}"
            );
        }
    }

    #[test]
    fn tiny_batches_and_queue_still_agree() {
        let xml = nested_doc();
        let opts = PipelineOptions {
            batch_events: 3,
            queue_depth: 1,
            prefilter: true,
        };
        assert_eq!(
            pipelined_ids("//a[c]/b", &xml, &opts),
            serial_ids("//a[c]/b", &xml)
        );
    }

    #[test]
    fn prefilter_drops_events_without_changing_results() {
        let xml = nested_doc();
        let on = PipelineOptions::default();
        let off = PipelineOptions {
            prefilter: false,
            ..PipelineOptions::default()
        };
        let run = |opts: &PipelineOptions| {
            let engine = Engine::new(&parse("//a[c]/b").unwrap()).unwrap();
            run_engine_pipelined(engine, &xml[..], opts).unwrap()
        };
        let (ids_on, _, stats_on) = run(&on);
        let (ids_off, _, stats_off) = run(&off);
        assert_eq!(ids_on, ids_off);
        assert_eq!(stats_on.events_scanned, stats_off.events_scanned);
        assert!(
            stats_on.events_filtered > stats_off.events_filtered,
            "prefilter should drop the junk/noise subtrees: {stats_on:?}"
        );
        assert_eq!(
            stats_on.events_delivered + stats_on.events_filtered,
            stats_on.events_scanned
        );
        assert_eq!(stats_on.bytes, xml.len() as u64);
    }

    #[test]
    fn text_after_skipped_subtree_routes_by_document_level() {
        // The skipped <noise> subtree must not desynchronize text
        // routing for the predicate on <a>'s direct text.
        let xml = b"<r><a><noise><x>zz</x></noise>hit</a><a><noise/>miss!</a></r>";
        let query = "//a[text() = 'hit']";
        let opts = PipelineOptions::default();
        assert_eq!(pipelined_ids(query, xml, &opts), serial_ids(query, xml));
        assert_eq!(pipelined_ids(query, xml, &opts), vec![1]);
    }

    #[test]
    fn pipelined_surfaces_scan_errors() {
        let engine = Engine::new(&parse("//a").unwrap()).unwrap();
        let err = run_engine_pipelined(engine, &b"<r><a></r>"[..], &PipelineOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn sharded_union_matches_serial_union() {
        let xml = nested_doc();
        let branches =
            parse_union("//a/b | //a[c]/b | //junk/junk | //a[@k = '3'] | //nothing").unwrap();
        let serial: Vec<u64> = evaluate_union(&branches, &xml[..])
            .unwrap()
            .into_iter()
            .map(|id| id.get())
            .collect();
        for shard_count in [1, 2, 4] {
            let shards = shard_queries(&branches, shard_count).unwrap();
            let outcome = run_multi_sharded(shards, &xml[..], &PipelineOptions::default()).unwrap();
            let got: Vec<u64> = outcome.ids.iter().map(|id| id.get()).collect();
            assert_eq!(got, serial, "shards = {shard_count}");
            assert_eq!(
                outcome.pipeline.threads,
                shard_count.min(branches.len()) + 1
            );
            assert_eq!(outcome.pipeline.bytes, xml.len() as u64);
        }
    }

    #[test]
    fn sharded_union_handles_disjoint_vocabularies() {
        // Shard 0's query mentions only {a, b}, shard 1's only {junk}.
        // Shard 1 interns into a copy of shard 0's table, so the
        // producer's symbols from the last table mean the same in both.
        let xml = nested_doc();
        let branches = parse_union("//a/b | //junk//junk").unwrap();
        let serial: Vec<u64> = evaluate_union(&branches, &xml[..])
            .unwrap()
            .into_iter()
            .map(|id| id.get())
            .collect();
        let shards = shard_queries(&branches, 2).unwrap();
        assert_eq!(shards.len(), 2);
        let outcome = run_multi_sharded(shards, &xml[..], &PipelineOptions::default()).unwrap();
        let got: Vec<u64> = outcome.ids.iter().map(|id| id.get()).collect();
        assert_eq!(got, serial);
    }

    #[test]
    fn sharded_run_surfaces_scan_errors() {
        let branches = parse_union("//a | //b").unwrap();
        let shards = shard_queries(&branches, 2).unwrap();
        let err = run_multi_sharded(shards, &b"<r><a>"[..], &PipelineOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn shards_share_one_symbol_space() {
        let branches = parse_union("//a/b | //junk | //c[a]").unwrap();
        let shards = shard_queries(&branches, 3).unwrap();
        let last = shards[2].symbols();
        for shard in &shards {
            for (sym, name) in shard.symbols().iter() {
                assert_eq!(last.lookup(name), sym, "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one symbol table")]
    fn independently_built_shards_are_refused() {
        let mut shards = vec![MultiTwigM::new(), MultiTwigM::new()];
        shards[0].add_query(&parse("//a").unwrap()).unwrap();
        shards[1].add_query(&parse("//b").unwrap()).unwrap();
        let _ = run_multi_sharded(shards, &b"<r/>"[..], &PipelineOptions::default());
    }

    /// An engine that panics on the start tag named `.0`.
    struct PanicsOn(&'static str, EngineStats);

    impl StreamEngine for PanicsOn {
        fn start_element_sym(
            &mut self,
            _: Symbol,
            tag: &str,
            _: &[twigm_sax::Attribute<'_>],
            _: u32,
            _: NodeId,
        ) -> bool {
            if tag == self.0 {
                panic!("test double met <{tag}>");
            }
            false
        }
        fn end_element_sym(&mut self, _: Symbol, _: &str, _: u32) {}
        fn take_results(&mut self) -> Vec<NodeId> {
            Vec::new()
        }
        fn stats(&self) -> &EngineStats {
            &self.1
        }
    }

    #[test]
    fn a_consumer_panic_is_an_error() {
        let engine = PanicsOn("boom", EngineStats::default());
        let xml = &b"<r><a/><boom/><a/></r>"[..];
        let opts = PipelineOptions {
            batch_events: 1,
            ..PipelineOptions::default()
        };
        match run_engine_pipelined(engine, xml, &opts) {
            Err(SaxError::Panicked { thread, message }) => {
                assert_eq!(thread, "consumer");
                assert_eq!(message, "test double met <boom>");
            }
            other => panic!("expected a panic error, got {:?}", other.map(|r| r.0)),
        }
    }

    #[test]
    fn a_producer_panic_is_an_error() {
        struct Fails;
        impl std::io::Read for Fails {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                panic!("source failed")
            }
        }
        let engine = Engine::new(&parse("//a").unwrap()).unwrap();
        let err = run_engine_pipelined(engine, Fails, &PipelineOptions::default()).err();
        assert_eq!(
            err.map(|e| e.to_string()).as_deref(),
            Some("pipeline producer thread panicked: source failed")
        );
    }

    #[test]
    fn shard_queries_partitions_round_robin() {
        let branches = parse_union("//a | //b | //c").unwrap();
        let shards = shard_queries(&branches, 2).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].query_count(), 2);
        assert_eq!(shards[1].query_count(), 1);
        // More shards than branches collapses to one per branch.
        let shards = shard_queries(&branches, 8).unwrap();
        assert_eq!(shards.len(), 3);
    }

    #[test]
    fn pipeline_stats_account_for_the_stream() {
        let xml = nested_doc();
        let engine = Engine::new(&parse("//a/b").unwrap()).unwrap();
        let opts = PipelineOptions {
            batch_events: 64,
            ..PipelineOptions::default()
        };
        let (_, _, stats) = run_engine_pipelined(engine, &xml[..], &opts).unwrap();
        assert_eq!(stats.threads, 2);
        assert!(stats.batches > 1);
        assert!(stats.events_scanned > 0);
        assert_eq!(
            stats.events_delivered + stats.events_filtered,
            stats.events_scanned
        );
        assert!(stats.max_queue_depth >= 1);
    }
}
