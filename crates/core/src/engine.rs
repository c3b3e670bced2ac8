//! The common streaming-engine interface and the auto-selecting driver.

use std::fmt;
use std::io::Read;
use std::ops::ControlFlow;

use twigm_sax::{Attribute, Event, NodeId, SaxError, SaxReader, Symbol, SymbolTable};
use twigm_xpath::Path;

use crate::branch::BranchM;
use crate::machine::{Machine, MachineError};
use crate::observe::{MachineObserver, NoopObserver};
use crate::path::PathM;
use crate::relevance::{machine_relevance, Relevance};
use crate::stats::EngineStats;
use crate::twig::TwigM;

/// A streaming XPath evaluator driven by the paper's modified SAX events.
///
/// Implementations receive `startElement(tag, level, id)`,
/// `endElement(tag, level)` and character data in document order, and
/// accumulate the ids of return-node matches, which the caller drains
/// with [`StreamEngine::take_results`] (possibly incrementally, after any
/// event).
pub trait StreamEngine {
    /// Processes a start tag. Returns `true` when the element was pushed
    /// onto the return node's stack (i.e. it became a solution candidate)
    /// — used by the fragment collector to know what to record.
    fn start_element(&mut self, tag: &str, attrs: &[Attribute<'_>], level: u32, id: NodeId)
        -> bool;

    /// Processes character data (may arrive in chunks).
    fn text(&mut self, _text: &str) {}

    /// Processes an end tag.
    fn end_element(&mut self, tag: &str, level: u32);

    /// Symbol-dispatch start tag: `sym` is `self.symbols().lookup(tag)`,
    /// computed once by the driver. Engines with a symbol table override
    /// this to dispatch on dense tables without re-hashing `tag`; the
    /// default falls back to the string path so existing implementations
    /// keep compiling.
    fn start_element_sym(
        &mut self,
        sym: Symbol,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        let _ = sym;
        self.start_element(tag, attrs, level, id)
    }

    /// Symbol-dispatch end tag; same contract as
    /// [`StreamEngine::start_element_sym`].
    fn end_element_sym(&mut self, sym: Symbol, tag: &str, level: u32) {
        let _ = sym;
        self.end_element(tag, level)
    }

    /// The engine's interner, when it has one. Drivers that see `Some`
    /// perform one lookup per event and call the `_sym` entry points;
    /// `None` (the default) keeps them on the string path.
    fn symbols(&self) -> Option<&SymbolTable> {
        None
    }

    /// Whether a start event with this symbol needs its attributes
    /// collected. Engines that test no attributes for `sym` return
    /// `false`, letting the driver skip attribute decoding entirely (the
    /// common case: a non-matching tag costs zero allocations). The
    /// conservative default collects always.
    fn needs_attributes(&self, sym: Symbol) -> bool {
        let _ = sym;
        true
    }

    /// Character data with the *document* level of the containing
    /// element made explicit. The pipelined batch path uses this entry
    /// point: engines track the current depth internally, but they only
    /// advance it on events they actually receive, so after a prefilter
    /// has skipped a subtree the internal depth can go stale. Batches
    /// record each text chunk's containing level, and depth-tracking
    /// engines override this to route on it directly. The default
    /// ignores the hint and falls back to [`StreamEngine::text`].
    fn text_at(&mut self, text: &str, level: u32) {
        let _ = level;
        self.text(text)
    }

    /// Which symbols and stream features this engine dispatches on, for
    /// the pipeline prefilter. The conservative default claims
    /// everything is relevant, which disables filtering and is always
    /// correct.
    fn relevance(&self) -> Relevance {
        Relevance::all()
    }

    /// Drains the results decided so far, in decision order.
    fn take_results(&mut self) -> Vec<NodeId>;

    /// Work / memory counters.
    fn stats(&self) -> &EngineStats;

    /// The compiled machine's node count |Q|, when the engine has one.
    /// Together with the document recursion depth R this lets harnesses
    /// assert Theorem 4.4's `peak_entries <= |Q| * R` bound uniformly,
    /// without knowing each engine's concrete machine accessor. `None`
    /// (the default) means "no bound claimed" — e.g. enumeration
    /// baselines whose buffering is not covered by the theorem.
    fn machine_size(&self) -> Option<usize> {
        None
    }
}

impl<E: StreamEngine + ?Sized> StreamEngine for &mut E {
    fn start_element(
        &mut self,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        (**self).start_element(tag, attrs, level, id)
    }

    fn text(&mut self, text: &str) {
        (**self).text(text)
    }

    fn end_element(&mut self, tag: &str, level: u32) {
        (**self).end_element(tag, level)
    }

    fn start_element_sym(
        &mut self,
        sym: Symbol,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        (**self).start_element_sym(sym, tag, attrs, level, id)
    }

    fn end_element_sym(&mut self, sym: Symbol, tag: &str, level: u32) {
        (**self).end_element_sym(sym, tag, level)
    }

    fn text_at(&mut self, text: &str, level: u32) {
        (**self).text_at(text, level)
    }

    fn relevance(&self) -> Relevance {
        (**self).relevance()
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        (**self).symbols()
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        (**self).needs_attributes(sym)
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        (**self).take_results()
    }

    fn stats(&self) -> &EngineStats {
        (**self).stats()
    }

    fn machine_size(&self) -> Option<usize> {
        (**self).machine_size()
    }
}

/// An error from end-to-end evaluation.
#[derive(Debug)]
pub enum EvalError {
    /// The XML stream was malformed.
    Sax(SaxError),
    /// The query could not be compiled.
    Machine(MachineError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Sax(e) => write!(f, "XML error: {e}"),
            EvalError::Machine(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Sax(e) => Some(e),
            EvalError::Machine(e) => Some(e),
        }
    }
}

impl From<SaxError> for EvalError {
    fn from(e: SaxError) -> Self {
        EvalError::Sax(e)
    }
}

impl From<MachineError> for EvalError {
    fn from(e: MachineError) -> Self {
        EvalError::Machine(e)
    }
}

/// An engine that picks the cheapest machine for the query (paper §3):
/// [`PathM`] for `XP{/,//,*}`, [`BranchM`] for `XP{/,[]}`, and [`TwigM`]
/// for the full language.
///
/// Generic over a [`MachineObserver`] like the machines themselves; the
/// default [`NoopObserver`] keeps `Engine` the plain unobserved driver.
pub enum Engine<O: MachineObserver = NoopObserver> {
    /// Predicate-free query.
    Path(PathM<O>),
    /// Child-axis-only query with predicates.
    Branch(BranchM<O>),
    /// The general machine.
    Twig(TwigM<O>),
}

impl Engine {
    /// Compiles `query`, selecting the machine by the query's class.
    pub fn new(query: &Path) -> Result<Engine, MachineError> {
        Engine::with_observer(query, NoopObserver)
    }
}

/// Evaluates `$body` with `$e` bound to whichever machine `$engine`
/// holds.
macro_rules! on_machine {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            Engine::Path($e) => $body,
            Engine::Branch($e) => $body,
            Engine::Twig($e) => $body,
        }
    };
}

impl<O: MachineObserver> Engine<O> {
    /// Compiles `query` with an attached observer, selecting the machine
    /// by the query's class.
    pub fn with_observer(query: &Path, observer: O) -> Result<Engine<O>, MachineError> {
        if query.is_predicate_free() {
            Ok(Engine::Path(PathM::with_observer(query, observer)?))
        } else if query.is_branch_only() {
            Ok(Engine::Branch(BranchM::with_observer(query, observer)?))
        } else {
            Ok(Engine::Twig(TwigM::with_observer(query, observer)?))
        }
    }

    /// Which machine was selected, as a display string.
    pub fn machine_name(&self) -> &'static str {
        match self {
            Engine::Path(_) => "PathM",
            Engine::Branch(_) => "BranchM",
            Engine::Twig(_) => "TwigM",
        }
    }

    /// The compiled machine (e.g. to label observer node ids).
    pub fn machine(&self) -> &Machine {
        on_machine!(self, e => e.machine())
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        on_machine!(self, e => e.observer())
    }

    /// Consumes the engine, returning the observer.
    pub fn into_observer(self) -> O {
        on_machine!(self, e => e.into_observer())
    }
}

impl<O: MachineObserver> StreamEngine for Engine<O> {
    fn start_element(
        &mut self,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        on_machine!(self, e => e.start_element(tag, attrs, level, id))
    }

    fn text(&mut self, text: &str) {
        on_machine!(self, e => e.text(text))
    }

    fn end_element(&mut self, tag: &str, level: u32) {
        on_machine!(self, e => e.end_element(tag, level))
    }

    fn start_element_sym(
        &mut self,
        sym: Symbol,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        on_machine!(self, e => e.start_element_sym(sym, tag, attrs, level, id))
    }

    fn end_element_sym(&mut self, sym: Symbol, tag: &str, level: u32) {
        on_machine!(self, e => e.end_element_sym(sym, tag, level))
    }

    fn text_at(&mut self, text: &str, level: u32) {
        on_machine!(self, e => e.text_at(text, level))
    }

    fn relevance(&self) -> Relevance {
        machine_relevance(self.machine())
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        on_machine!(self, e => e.symbols())
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        on_machine!(self, e => e.needs_attributes(sym))
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        on_machine!(self, e => e.take_results())
    }

    fn stats(&self) -> &EngineStats {
        on_machine!(self, e => e.stats())
    }

    fn machine_size(&self) -> Option<usize> {
        on_machine!(self, e => e.machine_size())
    }
}

/// Stream-side accounting from the serial loop's telemetry hook.
///
/// These are the stream-side quantities the engine counters cannot see:
/// how many bytes and SAX events the reader produced, how deep the
/// document recursed (the `R` of Theorem 4.4's `|Q|·R` memory bound),
/// and when the first result was decided — the latency metric of the
/// earliest-answering literature (PAPERS.md).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamTelemetry {
    /// Bytes consumed from the input stream.
    pub bytes: u64,
    /// SAX events the reader emitted (tags, text, comments, PIs).
    pub events: u64,
    /// Deepest element nesting seen — the recursion depth `R`.
    pub max_depth: u32,
    /// Event count at which the first result was decided.
    pub first_result_event: Option<u64>,
    /// Bytes consumed when the first result was decided.
    pub first_result_byte: Option<u64>,
}

/// A progress sample handed to a [`Telemetry`] hook's callback.
#[derive(Debug, Clone, Copy)]
pub struct StreamProgress {
    /// Bytes consumed so far.
    pub bytes: u64,
    /// SAX events processed so far.
    pub events: u64,
    /// Results decided so far.
    pub results: u64,
}

/// A per-event hook on [`drive`], the serial loop. `()` is the hook that
/// is off: its `ENABLED = false` compiles the calls out of the loop.
pub trait DriveHook<E: ?Sized> {
    /// Whether [`drive`] calls the hook at all.
    const ENABLED: bool = true;

    /// Called after every reader event with the engine, the level of a
    /// start tag (0 for other events) and the bytes consumed so far.
    /// `Break` ends the run after this event.
    fn after_event(&mut self, engine: &mut E, start_level: u32, bytes: u64) -> ControlFlow<()>;
}

impl<E: ?Sized> DriveHook<E> for () {
    const ENABLED: bool = false;
    fn after_event(&mut self, _: &mut E, _: u32, _: u64) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// The telemetry hook: accounts [`StreamTelemetry`], and when `every` is
/// non-zero hands `progress` a sample after every `every` events.
/// Result arrival is seen through the engine's `stats().results`
/// counter (every engine bumps it at the emitting transition), so the
/// per-event cost is a couple of counter updates.
pub struct Telemetry<F> {
    /// What has been accounted so far.
    pub stream: StreamTelemetry,
    every: u64,
    progress: F,
}

impl<F: FnMut(&StreamProgress)> Telemetry<F> {
    /// A hook calling `progress` every `every` events (never when 0).
    pub fn new(every: u64, progress: F) -> Self {
        Telemetry {
            stream: StreamTelemetry::default(),
            every,
            progress,
        }
    }
}

impl<E: StreamEngine + ?Sized, F: FnMut(&StreamProgress)> DriveHook<E> for Telemetry<F> {
    fn after_event(&mut self, engine: &mut E, start_level: u32, bytes: u64) -> ControlFlow<()> {
        let results = engine.stats().results;
        let t = &mut self.stream;
        t.events += 1;
        t.max_depth = t.max_depth.max(start_level);
        if t.first_result_event.is_none() && results > 0 {
            t.first_result_event = Some(t.events);
            t.first_result_byte = Some(bytes);
        }
        if self.every != 0 && t.events.is_multiple_of(self.every) {
            (self.progress)(&StreamProgress {
                bytes,
                events: t.events,
                results,
            });
        }
        ControlFlow::Continue(())
    }
}

/// The serial driver: streams `src` through `engine`, one reader event at
/// a time. Every start and end tag is looked up once in the engine's
/// interner and delivered through the `_sym` entry points; an engine
/// without an interner gets [`Symbol::UNKNOWN`] and the trait's string
/// fallbacks. Attributes are decoded only when the engine's
/// `needs_attributes` asks; the reader has already checked their
/// references, so which tags a query mentions never decides whether a
/// document is accepted. The loop never drains results; that is left to
/// the caller (or a hook). Returns the number of bytes read.
pub fn drive<E: StreamEngine + ?Sized, R: Read, H: DriveHook<E>>(
    engine: &mut E,
    src: R,
    hook: &mut H,
) -> Result<u64, SaxError> {
    // Snapshot the interner once: the loop then pays one FxHash lookup
    // per tag and dispatches on symbols.
    let table = engine.symbols().cloned();
    let lookup = |name: &str| table.as_ref().map_or(Symbol::UNKNOWN, |t| t.lookup(name));
    let mut reader = SaxReader::new(src);
    while let Some(event) = reader.next_event()? {
        let mut start_level = 0;
        match event {
            Event::Start(tag) => {
                start_level = tag.level();
                let sym = lookup(tag.name());
                // An empty Vec never allocates, so a tag whose
                // attributes are skipped costs no allocation.
                let mut attrs: Vec<Attribute<'_>> = Vec::new();
                if engine.needs_attributes(sym) {
                    for a in tag.attributes() {
                        attrs.push(a?);
                    }
                }
                engine.start_element_sym(sym, tag.name(), &attrs, start_level, tag.id());
            }
            Event::End(tag) => engine.end_element_sym(lookup(tag.name()), tag.name(), tag.level()),
            Event::Text(t) => engine.text(&t),
            Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
        }
        if H::ENABLED
            && hook
                .after_event(engine, start_level, reader.offset())
                .is_break()
        {
            break;
        }
    }
    Ok(reader.offset())
}

/// Runs `engine` over a complete XML stream and returns its results.
pub fn run_engine<E: StreamEngine, R: Read>(
    mut engine: E,
    src: R,
) -> Result<(Vec<NodeId>, E), SaxError> {
    drive(&mut engine, src, &mut ())?;
    let results = engine.take_results();
    Ok((results, engine))
}

/// Like [`run_engine`], with the [`Telemetry`] hook on: bytes, events,
/// recursion depth and time-to-first-result, and `progress` called every
/// `progress_every` events (never when 0).
pub fn run_engine_traced<E: StreamEngine, R: Read>(
    mut engine: E,
    src: R,
    progress_every: u64,
    progress: impl FnMut(&StreamProgress),
) -> Result<(Vec<NodeId>, E, StreamTelemetry), SaxError> {
    let mut hook = Telemetry::new(progress_every, progress);
    hook.stream.bytes = drive(&mut engine, src, &mut hook)?;
    let results = engine.take_results();
    Ok((results, engine, hook.stream))
}

/// One-call evaluation: compiles `query`, streams `src` through the
/// best-fitting machine, and returns the matched node ids in decision
/// order.
pub fn evaluate<R: Read>(query: &Path, src: R) -> Result<Vec<NodeId>, EvalError> {
    let engine = Engine::new(query)?;
    let (results, _) = run_engine(engine, src)?;
    Ok(results)
}

/// Evaluates a union of queries (`//a | //b[c]`) in a single pass via
/// the multi-query engine, returning the set union of the branch
/// results sorted in document order.
///
/// ```
/// let branches = twigm_xpath::parse_union("//a | //b[c]").unwrap();
/// let xml = b"<r><a/><b><c/></b><b/></r>";
/// let ids = twigm::evaluate_union(&branches, &xml[..]).unwrap();
/// assert_eq!(ids.len(), 2);
/// ```
pub fn evaluate_union<R: Read>(branches: &[Path], src: R) -> Result<Vec<NodeId>, EvalError> {
    let mut engine = crate::multi::MultiTwigM::new();
    for branch in branches {
        engine.add_query(branch)?;
    }
    let results = engine.run(src)?;
    let mut ids: Vec<u64> = results.into_iter().map(|r| r.node.get()).collect();
    ids.sort_unstable();
    ids.dedup();
    Ok(ids.into_iter().map(NodeId::new).collect())
}

/// Like [`evaluate`], but returns ids in **document order**.
///
/// TwigM decides results as predicates resolve, which is not document
/// order in general (an inner match can be decided before an outer,
/// earlier one). Pre-order ids order exactly by document position, so a
/// sort restores it. This necessarily buffers the id list — callers who
/// need bounded-memory streaming should consume decision order instead.
pub fn evaluate_ordered<R: Read>(query: &Path, src: R) -> Result<Vec<NodeId>, EvalError> {
    let mut ids = evaluate(query, src)?;
    ids.sort_unstable_by_key(|id| id.get());
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn engine_selects_the_cheapest_machine() {
        let q = parse("//a//b").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "PathM");
        let q = parse("/a[b]/c").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "BranchM");
        let q = parse("//a[b]/c").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "TwigM");
        let q = parse("/a/*[b]").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "TwigM");
    }

    #[test]
    fn evaluate_end_to_end() {
        let xml = b"<r><a><b/></a><a/></r>" as &[u8];
        let q = parse("//a/b").unwrap();
        let ids = evaluate(&q, xml).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].get(), 2);
    }

    #[test]
    fn evaluate_surfaces_sax_errors() {
        let q = parse("//a").unwrap();
        assert!(matches!(
            evaluate(&q, b"<r>" as &[u8]),
            Err(EvalError::Sax(_))
        ));
    }

    #[test]
    fn eval_error_display() {
        let e = EvalError::Sax(SaxError::UnexpectedEof { open_element: None });
        assert!(e.to_string().contains("XML error"));
    }

    #[test]
    fn traced_run_accounts_bytes_events_and_first_result() {
        let xml = b"<r><a><b/></a><a/></r>" as &[u8];
        let engine = Engine::new(&parse("//a/b").unwrap()).unwrap();
        let (ids, _, telemetry) = run_engine_traced(engine, xml, 0, |_| {}).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(telemetry.bytes, xml.len() as u64);
        // <r><a><b></b></a><a></a></r> = 8 events.
        assert_eq!(telemetry.events, 8);
        assert_eq!(telemetry.max_depth, 3);
        // PathM emits b on its start tag: the 3rd event.
        assert_eq!(telemetry.first_result_event, Some(3));
        assert!(telemetry.first_result_byte.unwrap() <= telemetry.bytes);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let xml = b"<r><a><b/></a><a><b/><b/></a></r>" as &[u8];
        let q = parse("//a[b]").unwrap();
        let (plain, _) = run_engine(Engine::new(&q).unwrap(), xml).unwrap();
        let (traced, _, _) = run_engine_traced(Engine::new(&q).unwrap(), xml, 0, |_| {}).unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn traced_run_reports_progress_at_the_requested_cadence() {
        let xml = b"<r><a/><a/><a/><a/><a/></r>" as &[u8];
        let mut samples = Vec::new();
        let engine = Engine::new(&parse("//a").unwrap()).unwrap();
        let (_, _, telemetry) = run_engine_traced(engine, xml, 4, |p| {
            samples.push((p.events, p.results));
        })
        .unwrap();
        // 12 events => samples at 4, 8, 12.
        assert_eq!(telemetry.events, 12);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].0, 4);
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "monotone");
    }

    #[test]
    fn traced_run_drives_the_multi_engine_for_unions() {
        let xml = b"<r><a/><b><c/></b><b/></r>" as &[u8];
        let branches = twigm_xpath::parse_union("//a | //b[c]").unwrap();
        let mut engine = crate::multi::MultiTwigM::new();
        for b in &branches {
            engine.add_query(b).unwrap();
        }
        let (ids, engine, telemetry) = run_engine_traced(engine, xml, 0, |_| {}).unwrap();
        let mut got: Vec<u64> = ids.iter().map(|id| id.get()).collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(telemetry.bytes, xml.len() as u64);
        // |Q| summed over branches: //a has 1 node, //b[c] has 2.
        assert_eq!(StreamEngine::machine_size(&engine), Some(3));
    }
}

#[cfg(test)]
mod ordering_tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn evaluate_ordered_sorts_decision_order_results() {
        // Text predicates are only decidable at end tags, so here the
        // inner (later-id) match is decided before the outer one;
        // evaluate_ordered restores document order.
        let xml = b"<r><a>v<a>v</a></a></r>" as &[u8];
        let q = parse("//a[text() = 'v']").unwrap();
        let decision = evaluate(&q, xml).unwrap();
        let ordered = evaluate_ordered(&q, xml).unwrap();
        assert_eq!(decision.len(), 2);
        assert_eq!(
            ordered.iter().map(|id| id.get()).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // Decision order here is inner-first (</a> of the inner element
        // arrives first).
        assert_eq!(decision[0].get(), 2);
    }

    #[test]
    fn evaluate_union_deduplicates_and_orders() {
        let xml = b"<r><a/><b/><a/></r>" as &[u8];
        let branches = twigm_xpath::parse_union("//a | /r/a | //b").unwrap();
        assert_eq!(branches.len(), 3);
        let ids = evaluate_union(&branches, xml).unwrap();
        assert_eq!(
            ids.iter().map(|id| id.get()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }
}
