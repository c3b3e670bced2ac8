//! Multi-query evaluation: many standing XPath queries over one stream.
//!
//! The paper's related work (§6) distinguishes *query processors* (one
//! query, return matching nodes — TwigM) from *filtering systems*
//! (YFilter, XTrie, XPush: thousands of standing queries, report which
//! match). [`MultiTwigM`] bridges the two: it runs any number of TwigM
//! machines over a single event stream with a **shared dispatch index**,
//! so an event touches only the machine nodes whose name test can match
//! it, not every machine. Each result is tagged with the query that
//! produced it.
//!
//! Per-event cost is `O(candidates(tag) + wildcard nodes)` instead of
//! `Σ|Qᵢ|`, which is what makes hundreds of standing queries practical —
//! the shape YFilter obtains by sharing automaton prefixes.

use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};
use twigm_xpath::Path;

use crate::engine::StreamEngine;
use crate::fxhash::FxHashSet;
use crate::machine::{MNode, Machine, MachineError};
use crate::observe::{MachineObserver, NoopObserver};
use crate::query::QCond;
use crate::stats::EngineStats;

/// Encodes a `(query, machine node)` pair into the single `u32` the
/// [`MachineObserver`] hooks carry: `query << 20 | node`. Machines stay
/// far below 2²⁰ nodes, so the encoding is lossless for any realistic
/// query set.
pub fn encode_obs_node(qid: QueryId, v: usize) -> u32 {
    debug_assert!(v < (1 << 20), "machine node index exceeds encoding");
    ((qid as u32) << 20) | (v as u32)
}

/// Splits an observer node id produced by [`encode_obs_node`] back into
/// its `(query, machine node)` pair.
pub fn decode_obs_node(enc: u32) -> (QueryId, usize) {
    ((enc >> 20) as QueryId, (enc & 0xF_FFFF) as usize)
}

/// A stack entry, as in [`crate::TwigM`].
#[derive(Debug, Clone)]
struct Entry {
    level: u32,
    slots: u64,
    candidates: Vec<u64>,
    text: String,
    counts: Vec<u32>,
}

/// Identifies one registered query.
pub type QueryId = usize;

/// A result produced by one of the registered queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedResult {
    /// Which registered query matched.
    pub query: QueryId,
    /// The matching element.
    pub node: NodeId,
}

/// One registered query's runtime state.
struct QueryState {
    machine: Machine,
    stacks: Vec<Vec<Entry>>,
    emitted: FxHashSet<u64>,
    /// Sibling counters for positional predicates (node -> by parent level).
    pos_counts: Vec<Vec<u32>>,
}

/// A multi-query streaming engine.
///
/// # Example
///
/// ```
/// use twigm::multi::MultiTwigM;
///
/// let mut engine = MultiTwigM::new();
/// let alerts = engine.add_query(&twigm_xpath::parse("//order[total > 100]").unwrap()).unwrap();
/// let audits = engine.add_query(&twigm_xpath::parse("//order[@region = 'EU']").unwrap()).unwrap();
/// let xml = br#"<feed><order region="EU"><total>250</total></order></feed>"#;
/// let results = engine.run(&xml[..]).unwrap();
/// assert_eq!(results.len(), 2); // both standing queries matched
/// assert!(results.iter().any(|r| r.query == alerts));
/// assert!(results.iter().any(|r| r.query == audits));
/// ```
pub struct MultiTwigM<O: MachineObserver = NoopObserver> {
    queries: Vec<QueryState>,
    /// The symbol space shared by every registered machine.
    table: SymbolTable,
    /// Dense dispatch: symbol index → (query, machine node) pairs with
    /// that tag, across all registered queries.
    by_sym: Vec<Vec<(usize, usize)>>,
    /// Per symbol index: some dispatched node tests attributes.
    attr_syms: Vec<bool>,
    /// Some wildcard node tests attributes.
    attr_wild: bool,
    /// (query, machine node) pairs labelled `*`.
    wildcards: Vec<(usize, usize)>,
    /// (query, machine node) pairs that accumulate text.
    text_nodes: Vec<(usize, usize)>,
    depth: u32,
    results: Vec<TaggedResult>,
    stats: EngineStats,
    live_entries: u64,
    /// Filtering mode: report at most one match per query per document
    /// and stop evaluating a query once it has matched (YFilter-style
    /// boolean filtering).
    filter_mode: bool,
    /// Per query: already matched within the current document.
    matched: Vec<bool>,
    observer: O,
}

impl MultiTwigM {
    /// Creates an engine with no queries.
    pub fn new() -> Self {
        Self::with_observer(NoopObserver)
    }
}

impl<O: MachineObserver> MultiTwigM<O> {
    /// Creates an engine with no queries and an attached observer. Hook
    /// node ids are `(query, node)` pairs packed by [`encode_obs_node`].
    pub fn with_observer(observer: O) -> Self {
        Self::over_symbols(SymbolTable::new(), observer)
    }

    /// Creates an engine whose queries intern into (a copy of) `table`,
    /// so that `table` stays a prefix of this engine's symbol space —
    /// how [`crate::pipeline::shard_queries`] gives every shard one
    /// vocabulary.
    pub(crate) fn over_symbols(table: SymbolTable, observer: O) -> Self {
        MultiTwigM {
            queries: Vec::new(),
            table,
            by_sym: Vec::new(),
            attr_syms: Vec::new(),
            attr_wild: false,
            wildcards: Vec::new(),
            text_nodes: Vec::new(),
            depth: 0,
            results: Vec::new(),
            stats: EngineStats::default(),
            live_entries: 0,
            filter_mode: false,
            matched: Vec::new(),
            observer,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the engine, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Switches the engine into *filtering* mode: each query reports at
    /// most one (tagged) match per document, and a query that has matched
    /// stops consuming events until the next document — the boolean
    /// matching problem of the filtering systems in the paper's related
    /// work (§6), with early termination as the payoff.
    pub fn filter_mode(mut self) -> Self {
        self.filter_mode = true;
        self
    }

    /// Registers a query; returns its id (used to tag results).
    ///
    /// Queries can be added between documents, but not in the middle of
    /// one (entries for already-open elements would be missing).
    pub fn add_query(&mut self, query: &Path) -> Result<QueryId, MachineError> {
        assert_eq!(
            self.depth, 0,
            "queries must be registered between documents"
        );
        let machine = Machine::from_path_in(query, &mut self.table)?;
        let qid = self.queries.len();
        // Grow the dense tables to the (append-only) shared symbol space.
        if self.by_sym.len() < self.table.len() {
            self.by_sym.resize(self.table.len(), Vec::new());
            self.attr_syms.resize(self.table.len(), false);
        }
        for (v, node) in machine.nodes.iter().enumerate() {
            match node.sym.index() {
                Some(i) => {
                    self.by_sym[i].push((qid, v));
                    self.attr_syms[i] |= !node.start_conds.is_empty();
                }
                None => {
                    self.wildcards.push((qid, v));
                    self.attr_wild |= !node.start_conds.is_empty();
                }
            }
            if node.needs_text {
                self.text_nodes.push((qid, v));
            }
        }
        let stacks = vec![Vec::new(); machine.len()];
        let pos_counts = vec![Vec::new(); machine.len()];
        self.queries.push(QueryState {
            machine,
            stacks,
            emitted: FxHashSet::default(),
            pos_counts,
        });
        self.matched.push(false);
        Ok(qid)
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Total machine-node count summed over every registered query — the
    /// |Q| of Theorem 4.4 for the multi-query machine: its aggregated
    /// `peak_entries` is bounded by this total times the recursion depth.
    pub fn machine_size(&self) -> usize {
        self.queries.iter().map(|q| q.machine.len()).sum()
    }

    /// The symbol space shared by every registered machine. Callers
    /// driving the engine event by event can look a tag up once and use
    /// the `_sym` entry points.
    pub fn symbols(&self) -> &SymbolTable {
        &self.table
    }

    /// Whether a start event with this symbol needs its attributes
    /// collected by the driver.
    pub fn needs_attributes(&self, sym: Symbol) -> bool {
        self.attr_wild
            || match sym.index() {
                Some(i) if i < self.attr_syms.len() => self.attr_syms[i],
                _ => false,
            }
    }

    /// Work counters (aggregated over all queries).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Drains the tagged results decided so far.
    pub fn take_tagged_results(&mut self) -> Vec<TaggedResult> {
        std::mem::take(&mut self.results)
    }

    /// Runs a complete document through the serial driver and returns
    /// its tagged results.
    pub fn run<R: std::io::Read>(
        &mut self,
        src: R,
    ) -> Result<Vec<TaggedResult>, twigm_sax::SaxError> {
        crate::engine::drive(self, src, &mut ())?;
        Ok(self.take_tagged_results())
    }

    /// Visits the dispatch list for a symbol: nodes tagged `sym`, then
    /// wildcard nodes. Borrows only the index fields, so callers can
    /// mutate `queries`/`stats` while iterating.
    fn dispatch<'a>(
        by_sym: &'a [Vec<(usize, usize)>],
        wildcards: &'a [(usize, usize)],
        sym: Symbol,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let tagged: &[(usize, usize)] = match sym.index() {
            Some(i) if i < by_sym.len() => &by_sym[i],
            _ => &[],
        };
        tagged.iter().copied().chain(wildcards.iter().copied())
    }

    fn initial_slots(node: &MNode, attrs: &[Attribute<'_>]) -> u64 {
        let mut slots = 0u64;
        for &i in &node.start_conds {
            let ok = match &node.conditions[i] {
                QCond::AttrExists(name) => attrs.iter().any(|a| a.name == name),
                QCond::AttrCmp(name, op, lit) => attrs
                    .iter()
                    .any(|a| a.name == name && op.eval(&a.value, lit)),
                QCond::AttrFn(name, func, arg) => attrs
                    .iter()
                    .any(|a| a.name == name && func.eval(&a.value, arg)),
                _ => unreachable!("start_conds holds only attribute conditions"),
            };
            if ok {
                slots |= 1 << i;
            }
        }
        slots
    }

    /// δs, applied across all registered machines via the shared dense
    /// index.
    pub fn start_element_sym(
        &mut self,
        sym: Symbol,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) {
        self.stats.start_events += 1;
        self.depth = level;
        if O::ENABLED {
            self.observer.on_start_element(sym, level, id);
        }
        // Reset child sibling scopes for positional predicates (the
        // pos_nodes index is empty for non-positional queries, keeping
        // this free on the common path).
        for state in &mut self.queries {
            for &v in state.machine.pos_nodes() {
                let counts = &mut state.pos_counts[v];
                if counts.len() <= level as usize {
                    counts.resize(level as usize + 1, 0);
                }
                counts[level as usize] = 0;
            }
        }
        for (qid, v) in Self::dispatch(&self.by_sym, &self.wildcards, sym) {
            if self.filter_mode && self.matched[qid] {
                continue;
            }
            let state = &mut self.queries[qid];
            // Dispatch guarantees the name matches: tag entries by
            // construction, wildcard entries always.
            let node = &state.machine.nodes[v];
            let qualified = match node.parent {
                None => {
                    self.stats.qualification_probes += 1;
                    node.edge.test(level as i64)
                }
                Some(p) => {
                    let mut found = false;
                    for e in state.stacks[p].iter().rev() {
                        self.stats.qualification_probes += 1;
                        if node.edge.test(level as i64 - e.level as i64) {
                            found = true;
                            break;
                        }
                    }
                    found
                }
            };
            if !qualified {
                continue;
            }
            let mut slots = Self::initial_slots(node, attrs);
            if !node.pos_conds.is_empty() {
                let parent_level = level.saturating_sub(1) as usize;
                let counts = &mut state.pos_counts[v];
                if counts.len() <= parent_level {
                    counts.resize(parent_level + 1, 0);
                }
                counts[parent_level] += 1;
                let position = counts[parent_level];
                for &(slot, n) in &node.pos_conds {
                    if position == n {
                        slots |= 1 << slot;
                    }
                }
            }
            let mut candidates = Vec::new();
            if node.is_sol {
                candidates.push(id.get());
            }
            state.stacks[v].push(Entry {
                level,
                slots,
                candidates,
                text: String::new(),
                counts: vec![0; node.count_conds.len()],
            });
            self.stats.pushes += 1;
            self.live_entries += 1;
            if O::ENABLED {
                self.observer
                    .on_push(encode_obs_node(qid, v), level, node.is_sol);
            }
        }
        self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
    }

    /// Character data, routed through the shared text index.
    pub fn text(&mut self, text: &str) {
        self.text_at(text, self.depth)
    }

    /// Character data with an explicit containing level — the entry
    /// point for prefiltered batch streams, where the internally tracked
    /// depth can lag behind the document (skipped subtrees never update
    /// it).
    pub fn text_at(&mut self, text: &str, level: u32) {
        for &(qid, v) in &self.text_nodes {
            if let Some(top) = self.queries[qid].stacks[v].last_mut() {
                if top.level == level {
                    top.text.push_str(text);
                }
            }
        }
    }

    /// Dispatch-relevance of the whole query set over the shared symbol
    /// table: the union of every registered machine's needs. Computed
    /// from the shared dense dispatch index, so it stays exact as
    /// queries are added.
    pub fn relevance(&self) -> crate::relevance::Relevance {
        let wants_text = !self.text_nodes.is_empty();
        let any_positional = self
            .queries
            .iter()
            .any(|q| !q.machine.pos_nodes().is_empty());
        if !self.wildcards.is_empty() || any_positional {
            return crate::relevance::Relevance {
                symbols: None,
                wants_text,
            };
        }
        crate::relevance::Relevance {
            symbols: Some(self.by_sym.iter().map(|nodes| !nodes.is_empty()).collect()),
            wants_text,
        }
    }

    /// δe, applied across all registered machines via the shared dense
    /// index.
    pub fn end_element_sym(&mut self, sym: Symbol, level: u32) {
        self.stats.end_events += 1;
        self.depth = level.saturating_sub(1);
        if O::ENABLED {
            self.observer.on_end_element(sym, level);
        }
        for (qid, v) in Self::dispatch(&self.by_sym, &self.wildcards, sym) {
            if self.filter_mode && self.matched[qid] {
                // A matched filter query still needs its stacks unwound so
                // the engine is clean for the next document; popping by
                // level keeps that cheap.
                let state = &mut self.queries[qid];
                while state.stacks[v].last().is_some_and(|e| e.level == level) {
                    state.stacks[v].pop();
                    self.live_entries -= 1;
                    self.stats.pops += 1;
                    if O::ENABLED {
                        // Discarded unevaluated: report as unsatisfied.
                        self.observer.on_pop(encode_obs_node(qid, v), level, false);
                    }
                }
                continue;
            }
            let state = &mut self.queries[qid];
            let node = &state.machine.nodes[v];
            let Some(top) = state.stacks[v].last() else {
                continue;
            };
            if top.level != level {
                continue;
            }
            let mut entry = state.stacks[v].pop().expect("checked non-empty");
            self.stats.pops += 1;
            self.live_entries -= 1;
            for &i in &node.text_conds {
                let ok = match &node.conditions[i] {
                    QCond::TextExists => !entry.text.is_empty(),
                    QCond::TextCmp(op, lit) => !entry.text.is_empty() && op.eval(&entry.text, lit),
                    QCond::TextFn(func, arg) => {
                        !entry.text.is_empty() && func.eval(&entry.text, arg)
                    }
                    _ => unreachable!("text_conds holds only text conditions"),
                };
                if ok {
                    entry.slots |= 1 << i;
                }
            }
            for &(cond, counter, op, n) in &node.count_conds {
                if op.eval_f64(entry.counts[counter] as f64, n as f64) {
                    entry.slots |= 1 << cond;
                }
            }
            let satisfied = node.formula.eval(entry.slots);
            if O::ENABLED {
                self.observer
                    .on_pop(encode_obs_node(qid, v), level, satisfied);
            }
            if !satisfied {
                continue;
            }
            match node.parent {
                None => {
                    for id in entry.candidates {
                        if self.filter_mode {
                            if !self.matched[qid] {
                                self.matched[qid] = true;
                                self.results.push(TaggedResult {
                                    query: qid,
                                    node: NodeId::new(id),
                                });
                                self.stats.results += 1;
                                if O::ENABLED {
                                    self.observer.on_result(NodeId::new(id));
                                }
                            }
                        } else if state.emitted.insert(id) {
                            self.results.push(TaggedResult {
                                query: qid,
                                node: NodeId::new(id),
                            });
                            self.stats.results += 1;
                            if O::ENABLED {
                                self.observer.on_result(NodeId::new(id));
                            }
                        }
                    }
                }
                Some(p) => {
                    let slot_bit = 1u64 << node.parent_slot.expect("non-root has a slot");
                    let parent_counter = node.parent_counter;
                    let edge = node.edge;
                    let emitted = &state.emitted;
                    for e in state.stacks[p].iter_mut() {
                        self.stats.upload_probes += 1;
                        if !edge.test(level as i64 - e.level as i64) {
                            continue;
                        }
                        match parent_counter {
                            Some(ci) => e.counts[ci] += 1,
                            None => e.slots |= slot_bit,
                        }
                        let mut inserted = 0u64;
                        for &cand in &entry.candidates {
                            if !emitted.contains(&cand) && !e.candidates.contains(&cand) {
                                e.candidates.push(cand);
                                self.stats.candidates_merged += 1;
                                inserted += 1;
                            }
                        }
                        if O::ENABLED {
                            self.observer.on_upload(
                                encode_obs_node(qid, v),
                                encode_obs_node(qid, p),
                                inserted,
                            );
                        }
                    }
                }
            }
        }
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
        if level == 1 {
            for state in &mut self.queries {
                debug_assert!(state.stacks.iter().all(Vec::is_empty));
                state.emitted.clear();
            }
            self.matched.iter_mut().for_each(|m| *m = false);
            if O::ENABLED {
                self.observer.on_document_end();
            }
        }
    }
}

impl Default for MultiTwigM {
    fn default() -> Self {
        Self::new()
    }
}

/// Lets the multi-query engine ride the generic drivers
/// ([`crate::engine::run_engine`] and the traced variant), e.g. for
/// *union* queries where per-query tags are irrelevant.
///
/// [`StreamEngine::take_results`] flattens the pending
/// [`TaggedResult`]s to bare node ids in decision order — the same id
/// can appear once per matching query, so union-semantics callers
/// dedup afterwards. Use [`MultiTwigM::take_tagged_results`] directly
/// when the tags matter.
impl<O: MachineObserver> StreamEngine for MultiTwigM<O> {
    fn start_element(
        &mut self,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        MultiTwigM::start_element_sym(self, self.table.lookup(tag), attrs, level, id);
        false
    }

    fn start_element_sym(
        &mut self,
        sym: Symbol,
        _tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        MultiTwigM::start_element_sym(self, sym, attrs, level, id);
        false
    }

    fn text(&mut self, text: &str) {
        MultiTwigM::text(self, text);
    }

    fn text_at(&mut self, text: &str, level: u32) {
        MultiTwigM::text_at(self, text, level);
    }

    fn relevance(&self) -> crate::relevance::Relevance {
        MultiTwigM::relevance(self)
    }

    fn end_element(&mut self, tag: &str, level: u32) {
        MultiTwigM::end_element_sym(self, self.table.lookup(tag), level);
    }

    fn end_element_sym(&mut self, sym: Symbol, _tag: &str, level: u32) {
        MultiTwigM::end_element_sym(self, sym, level);
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(&self.table)
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        MultiTwigM::needs_attributes(self, sym)
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        self.results.drain(..).map(|r| r.node).collect()
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn machine_size(&self) -> Option<usize> {
        Some(self.queries.iter().map(|q| q.machine.len()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_engine;
    use crate::twig::TwigM;
    use twigm_xpath::parse;

    fn tagged(engine: &mut MultiTwigM, xml: &str) -> Vec<(usize, u64)> {
        let results = engine.run(xml.as_bytes()).unwrap();
        let mut out: Vec<(usize, u64)> = results
            .into_iter()
            .map(|r| (r.query, r.node.get()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn two_queries_one_stream() {
        let mut engine = MultiTwigM::new();
        let q0 = engine.add_query(&parse("//a/b").unwrap()).unwrap();
        let q1 = engine.add_query(&parse("//a[c]").unwrap()).unwrap();
        let results = tagged(&mut engine, "<r><a><b/></a><a><c/></a></r>");
        assert_eq!(results, vec![(q0, 2), (q1, 3)]);
    }

    #[test]
    fn agrees_with_individual_twigm_engines() {
        let queries = [
            "//a//b",
            "//a[b]//c",
            "//a[@k]/b",
            "//b[text() = '1']",
            "//*[a][b]",
            "/r/a",
        ];
        let xml = r#"<r><a k="1"><b>1</b><c/><a><b>2</b></a></a><b>1</b></r>"#;
        let mut multi = MultiTwigM::new();
        for q in queries {
            multi.add_query(&parse(q).unwrap()).unwrap();
        }
        let mut combined = tagged(&mut multi, xml);
        combined.sort_unstable();
        let mut expected = Vec::new();
        for (qid, q) in queries.iter().enumerate() {
            let (ids, _) =
                run_engine(TwigM::new(&parse(q).unwrap()).unwrap(), xml.as_bytes()).unwrap();
            for id in ids {
                expected.push((qid, id.get()));
            }
        }
        expected.sort_unstable();
        assert_eq!(combined, expected);
    }

    #[test]
    fn dispatch_skips_unrelated_machines() {
        // 100 queries on distinct tags: an event for tag t must probe
        // only t's machine nodes, so qualification probes stay tiny.
        let mut engine = MultiTwigM::new();
        for i in 0..100 {
            engine
                .add_query(&parse(&format!("//tag{i}/x")).unwrap())
                .unwrap();
        }
        let xml = "<r><tag5><x/></tag5></r>";
        let results = engine.run(xml.as_bytes()).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].query, 5);
        // 3 start events; only tag5's two nodes (+0 wildcards) probed.
        assert!(
            engine.stats().qualification_probes <= 6,
            "probes = {}",
            engine.stats().qualification_probes
        );
    }

    #[test]
    fn reusable_across_documents() {
        let mut engine = MultiTwigM::new();
        engine.add_query(&parse("//a[b]").unwrap()).unwrap();
        for _ in 0..3 {
            let results = engine.run(&b"<a><b/></a>"[..]).unwrap();
            assert_eq!(results.len(), 1);
        }
    }

    #[test]
    fn queries_addable_between_documents() {
        let mut engine = MultiTwigM::new();
        engine.add_query(&parse("//a").unwrap()).unwrap();
        assert_eq!(engine.run(&b"<a/>"[..]).unwrap().len(), 1);
        engine.add_query(&parse("//a//a").unwrap()).unwrap();
        assert_eq!(engine.run(&b"<a><a/></a>"[..]).unwrap().len(), 3);
        assert_eq!(engine.query_count(), 2);
    }

    #[test]
    fn same_query_twice_reports_twice() {
        let mut engine = MultiTwigM::new();
        let q0 = engine.add_query(&parse("//a").unwrap()).unwrap();
        let q1 = engine.add_query(&parse("//a").unwrap()).unwrap();
        let results = tagged(&mut engine, "<a/>");
        assert_eq!(results, vec![(q0, 0), (q1, 0)]);
    }

    #[test]
    fn empty_engine_consumes_streams() {
        let mut engine = MultiTwigM::new();
        assert!(engine.run(&b"<a><b/></a>"[..]).unwrap().is_empty());
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn filter_mode_reports_one_match_per_query() {
        let mut engine = MultiTwigM::new().filter_mode();
        let q0 = engine.add_query(&parse("//a").unwrap()).unwrap();
        let q1 = engine.add_query(&parse("//b[c]").unwrap()).unwrap();
        let q2 = engine.add_query(&parse("//zzz").unwrap()).unwrap();
        let results = engine
            .run(&b"<r><a/><a/><b><c/></b><a/><b><c/></b></r>"[..])
            .unwrap();
        let mut queries: Vec<usize> = results.iter().map(|r| r.query).collect();
        queries.sort_unstable();
        assert_eq!(queries, vec![q0, q1]);
        assert!(!results.iter().any(|r| r.query == q2));
    }

    #[test]
    fn filter_mode_resets_per_document() {
        let mut engine = MultiTwigM::new().filter_mode();
        engine.add_query(&parse("//a").unwrap()).unwrap();
        for _ in 0..3 {
            let results = engine.run(&b"<r><a/><a/></r>"[..]).unwrap();
            assert_eq!(results.len(), 1, "one match per document");
        }
    }

    #[test]
    fn filter_mode_does_less_work_after_matching() {
        let mut xml = String::from("<r><a/>");
        for _ in 0..1000 {
            xml.push_str("<a><b/></a>");
        }
        xml.push_str("</r>");
        let run_with = |filter: bool| {
            let mut engine = MultiTwigM::new();
            if filter {
                engine = engine.filter_mode();
            }
            engine.add_query(&parse("//a").unwrap()).unwrap();
            engine.run(xml.as_bytes()).unwrap();
            engine.stats().pushes
        };
        let filtered = run_with(true);
        let full = run_with(false);
        assert!(
            filtered * 10 < full,
            "filtering should skip pushes after the match: {filtered} vs {full}"
        );
    }

    #[test]
    fn filter_mode_matches_agree_with_full_evaluation() {
        let xml = "<r><a><b/></a><x><b><c/></b></x></r>";
        let queries = ["//a/b", "//b[c]", "//x//c", "//a[c]"];
        let mut filter = MultiTwigM::new().filter_mode();
        let mut full = MultiTwigM::new();
        for q in queries {
            filter.add_query(&parse(q).unwrap()).unwrap();
            full.add_query(&parse(q).unwrap()).unwrap();
        }
        let filtered: Vec<usize> = {
            let mut v: Vec<usize> = filter
                .run(xml.as_bytes())
                .unwrap()
                .iter()
                .map(|r| r.query)
                .collect();
            v.sort_unstable();
            v
        };
        let mut matched_full: Vec<usize> = full
            .run(xml.as_bytes())
            .unwrap()
            .iter()
            .map(|r| r.query)
            .collect();
        matched_full.sort_unstable();
        matched_full.dedup();
        assert_eq!(filtered, matched_full);
    }
}
