//! The TwigM machine (paper §3.3, §4): streaming evaluation of the full
//! `XP{/,//,*,[]}` language over possibly recursive XML.
//!
//! Each machine node `v` owns a stack of entries, one per *active* XML
//! element that solves the prefix subquery of `v` (Proposition 4.2). An
//! entry is the paper's triple: the element's `level`, its *branch match*
//! (here a slot bitset evaluated through the node's predicate formula),
//! and its *candidate set* (undecided solutions, as sorted node ids).
//!
//! * On `startElement(tag, level, id)` (δs, Algorithm 1): every machine
//!   node named `tag` or `*` whose parent stack holds an entry at a
//!   satisfying level distance pushes a fresh entry; the return node also
//!   seeds its entry's candidate set with `id`.
//! * On `endElement(tag, level)` (δe): a machine node whose top entry sits
//!   at `level` pops it. If the entry's formula is satisfied, the match is
//!   real: the node's β-slot is set in every parent entry at a satisfying
//!   distance and the candidates are uploaded to them — or, at the machine
//!   root, emitted as results. If the formula is not satisfied the entry
//!   is discarded, pruning every pattern match it participated in without
//!   enumerating them.
//!
//! Duplicate elimination: one solution can be decided via several root
//! entries (recursive data), so emitted ids are remembered for the
//! duration of the document and filtered from later uploads and
//! emissions.
//!
//! As an extension beyond the paper, candidates whose whole chain of
//! entries already has satisfied *monotone* formulas are delivered
//! **eagerly** — often at the match's start tag — instead of waiting for
//! the machine root to pop (see `eager_deliver`'s internal docs and
//! experiment E11).
//!
//! These transitions exist once, on `Run`: one query's machine, stacks,
//! emitted set and positional counters. [`TwigM`] is one `Run`;
//! [`crate::MultiTwigM`] is one `Run` per registered query behind a
//! shared dispatch index. Both pass the same `Shared` part — counters,
//! observer, live totals, decided results — into every transition.

use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};
use twigm_xpath::Path;

use crate::engine::StreamEngine;
use crate::fxhash::FxHashSet;
use crate::machine::{MNode, Machine, MachineError};
use crate::multi::{encode_obs_node, QueryId, TaggedResult};
use crate::observe::{MachineObserver, NoopObserver};
use crate::query::QCond;
use crate::stats::EngineStats;

/// One stack element: the paper's `(level, branch match, candidates)`
/// triple, plus accumulated text when the node has text-valued
/// predicates.
#[derive(Debug, Clone)]
struct Entry {
    /// Level of the matched active XML element.
    level: u32,
    /// Branch-match bitset over the node's conditions.
    slots: u64,
    /// Undecided candidate node ids (sorted ascending).
    candidates: Vec<u64>,
    /// Concatenated direct text content (only maintained when the node
    /// has `text()`-valued conditions).
    text: String,
    /// Child-match counters for `count()` conditions (empty unless the
    /// node has them).
    counts: Vec<u32>,
}

/// What every query of an engine shares: the counters, the observer, the
/// live totals behind the peak counters, the decided results and, in
/// filter mode, which queries have matched in the current document.
pub(crate) struct Shared<O> {
    pub(crate) stats: EngineStats,
    pub(crate) observer: O,
    /// Live entry / candidate counts, summed over every query.
    live_entries: u64,
    live_candidates: u64,
    pub(crate) results: Vec<TaggedResult>,
    /// Filter mode only: per query, whether it has matched in the
    /// current document (it then reports nothing more until the next).
    pub(crate) matched: Option<Vec<bool>>,
}

impl<O: MachineObserver> Shared<O> {
    pub(crate) fn new(observer: O) -> Self {
        Shared {
            stats: EngineStats::default(),
            observer,
            live_entries: 0,
            live_candidates: 0,
            results: Vec::new(),
            matched: None,
        }
    }

    /// Whether `q` has matched in this document under filter mode.
    pub(crate) fn is_matched(&self, q: QueryId) -> bool {
        self.matched.as_ref().is_some_and(|m| m[q])
    }

    /// Opens a δs transition.
    pub(crate) fn begin_start(&mut self, sym: Symbol, level: u32, id: NodeId) {
        self.stats.start_events += 1;
        if O::ENABLED {
            self.observer.on_start_element(sym, level, id);
        }
    }

    /// Opens a δe transition.
    pub(crate) fn begin_end(&mut self, sym: Symbol, level: u32) {
        self.stats.end_events += 1;
        if O::ENABLED {
            self.observer.on_end_element(sym, level);
        }
    }

    /// Closes a transition: folds the live totals into the peaks.
    pub(crate) fn finish_event(&mut self) {
        self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
        self.stats.peak_candidates = self.stats.peak_candidates.max(self.live_candidates);
        self.finish_idle_event();
    }

    /// Closes a transition that moved no entry, so the peaks stand.
    fn finish_idle_event(&mut self) {
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
    }

    /// The document root closed: nothing is active any more.
    pub(crate) fn end_document(&mut self) {
        self.live_candidates = 0;
        if let Some(m) = &mut self.matched {
            m.fill(false);
        }
        if O::ENABLED {
            self.observer.on_document_end();
        }
    }

    /// Reports a decided result of query `q`.
    fn emit(&mut self, q: QueryId, id: NodeId) {
        if let Some(m) = &mut self.matched {
            if std::mem::replace(&mut m[q], true) {
                return;
            }
        }
        self.results.push(TaggedResult { query: q, node: id });
        self.stats.results += 1;
        if O::ENABLED {
            self.observer.on_result(id);
        }
    }

    /// Drains the decided results as bare node ids, in decision order.
    pub(crate) fn take_ids(&mut self) -> Vec<NodeId> {
        self.results.drain(..).map(|r| r.node).collect()
    }
}

/// One query's run of the machine: its stacks, the ids it has emitted in
/// the current document and its positional counters. Every transition
/// takes the query's id `q` (for the observer's node ids and the tagged
/// results) and the engine's [`Shared`] part.
pub(crate) struct Run {
    machine: Machine,
    stacks: Vec<Vec<Entry>>,
    /// Ids already emitted in the current document.
    emitted: FxHashSet<u64>,
    /// Sibling counters for positional predicates: per positional node,
    /// indexed by the parent element's level.
    pos_counts: Vec<Vec<u32>>,
    /// The return node and each of its ancestors hold with nothing but
    /// their spine child (a predicate-free path). Then a qualifying push
    /// of the return node is already a decided result — PathM's rule
    /// (paper §3.1) — and skips the eager climb and the duplicate set.
    sol_decided_at_push: bool,
    /// The level sets of `eager_deliver`'s climb, kept between deliveries
    /// so that a delivery allocates nothing.
    levels: Vec<u32>,
    next_levels: Vec<u32>,
}

impl Run {
    pub(crate) fn new(machine: Machine) -> Self {
        let sol_decided_at_push =
            std::iter::successors(Some(machine.sol), |&v| machine.nodes[v].parent).all(|v| {
                let node = &machine.nodes[v];
                node.eager_safe && node.holds(node.spine_mask)
            });
        Run {
            stacks: vec![Vec::new(); machine.len()],
            pos_counts: vec![Vec::new(); machine.len()],
            machine,
            emitted: FxHashSet::default(),
            sol_decided_at_push,
            levels: Vec::new(),
            next_levels: Vec::new(),
        }
    }

    pub(crate) fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The `i`-th machine node a `sym` event reaches: the first `n_tag`
    /// are the nodes tagged `sym`, the rest the wildcards.
    fn dispatched(&self, sym: Symbol, n_tag: usize, i: usize) -> usize {
        if i < n_tag {
            self.machine.tag_nodes(sym)[i]
        } else {
            self.machine.wildcards()[i - n_tag]
        }
    }

    /// Evaluates the start-tag conditions (attribute tests) of `node`.
    fn initial_slots(node: &MNode, attrs: &[Attribute<'_>]) -> u64 {
        let mut slots = 0u64;
        for &i in &node.start_conds {
            let satisfied = match &node.conditions[i] {
                QCond::AttrExists(name) => attrs.iter().any(|a| a.name == name),
                QCond::AttrCmp(name, op, lit) => attrs
                    .iter()
                    .any(|a| a.name == name && op.eval(&a.value, lit)),
                QCond::AttrFn(name, func, arg) => attrs
                    .iter()
                    .any(|a| a.name == name && func.eval(&a.value, arg)),
                _ => unreachable!("start_conds holds only attribute conditions"),
            };
            if satisfied {
                slots |= 1 << i;
            }
        }
        slots
    }

    /// Evaluates the end-tag conditions (text tests and `count()`
    /// comparisons) of `node` against a popped entry.
    fn apply_end_conds(node: &MNode, entry: &mut Entry) {
        for &i in &node.text_conds {
            let satisfied = match &node.conditions[i] {
                QCond::TextExists => !entry.text.is_empty(),
                // XPath comparisons over an empty node-set are false, so
                // a text test requires text to exist, even for `!=`.
                QCond::TextCmp(op, lit) => !entry.text.is_empty() && op.eval(&entry.text, lit),
                QCond::TextFn(func, arg) => !entry.text.is_empty() && func.eval(&entry.text, arg),
                _ => unreachable!("text_conds holds only text conditions"),
            };
            if satisfied {
                entry.slots |= 1 << i;
            }
        }
        for &(cond, counter, op, n) in &node.count_conds {
            if op.eval_f64(entry.counts[counter] as f64, n as f64) {
                entry.slots |= 1 << cond;
            }
        }
    }

    /// A start tag at `level` opens a fresh sibling scope for its
    /// children: resets the positional counters keyed by its level.
    pub(crate) fn reset_positions(&mut self, level: u32) {
        for &v in self.machine.pos_nodes() {
            let counts = &mut self.pos_counts[v];
            if counts.len() <= level as usize {
                counts.resize(level as usize + 1, 0);
            }
            counts[level as usize] = 0;
        }
    }

    /// Routes character data to entries that accumulate text: the top
    /// entry of a text-needing node, if it corresponds to the element at
    /// `level`.
    pub(crate) fn text_at(&mut self, text: &str, level: u32) {
        for &v in self.machine.text_nodes() {
            if let Some(top) = self.stacks[v].last_mut() {
                if top.level == level {
                    top.text.push_str(text);
                }
            }
        }
    }

    /// The document root closed: every stack is empty, and ids may repeat
    /// in the next document.
    pub(crate) fn end_document(&mut self) {
        debug_assert!(self.stacks.iter().all(Vec::is_empty));
        self.emitted.clear();
    }

    /// The push of δs for machine node `v` (whose name test the caller
    /// has matched). Returns whether the element became a solution
    /// candidate.
    #[inline]
    pub(crate) fn push<O: MachineObserver>(
        &mut self,
        q: QueryId,
        v: usize,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
        sh: &mut Shared<O>,
    ) -> bool {
        let node = &self.machine.nodes[v];
        // The qualification probe (the machine root probes the virtual
        // document root at level 0).
        let mut probe = |parent_level: u32| {
            sh.stats.qualification_probes += 1;
            node.edge.test(level as i64 - parent_level as i64)
        };
        let qualified = match node.parent {
            None => probe(0),
            Some(p) => self.stacks[p].iter().rev().any(|e| probe(e.level)),
        };
        if !qualified {
            return false;
        }
        let mut slots = Self::initial_slots(node, attrs);
        if !node.pos_conds.is_empty() {
            // The element's 1-based position among qualifying siblings
            // (its parent element sits one level up).
            let parent_level = level.saturating_sub(1) as usize;
            let counts = &mut self.pos_counts[v];
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
        let mut eager_sol = false;
        let mut decided = false;
        if node.is_sol {
            if self.sol_decided_at_push {
                decided = true;
            } else if node.eager_safe && node.holds(slots) {
                // The return node's own predicates already hold: deliver
                // the candidate immediately instead of buffering it in
                // the entry.
                eager_sol = true;
            } else {
                candidates.push(id.get());
                sh.live_candidates += 1;
            }
        }
        self.stacks[v].push(Entry {
            level,
            slots,
            candidates,
            text: String::new(),
            counts: vec![0; node.count_conds.len()],
        });
        let is_sol = node.is_sol;
        if O::ENABLED {
            sh.observer.on_push(encode_obs_node(q, v), level, is_sol);
        }
        if decided {
            // A start tag's id is new, so it cannot be a duplicate.
            sh.emit(q, id);
        } else if eager_sol {
            self.eager_deliver(q, v, level, &[id.get()], sh);
        }
        sh.stats.pushes += 1;
        sh.live_entries += 1;
        is_sol
    }

    /// Eagerly delivers decided candidates upward from `from_node`'s
    /// entry at `from_level`.
    ///
    /// A candidate whose chain of stack entries all have *monotone,
    /// already-satisfied* formulas (with each hop's spine-child bit
    /// assumed — the delivery itself proves that subtree matches) is a
    /// decided solution and can be emitted the moment it is discovered,
    /// restoring PathM-grade incrementality ("results should be
    /// distributed … as soon as they are found", paper §1). Entries whose
    /// formula is not yet satisfied buffer the candidates as usual; the
    /// flush points in δs/δe release them when a later bit completes the
    /// formula. The climb visits each machine node once with its set of
    /// qualifying levels, so a delivery costs O(|Q|·R).
    fn eager_deliver<O: MachineObserver>(
        &mut self,
        q: QueryId,
        from_node: usize,
        from_level: u32,
        cands: &[u64],
        sh: &mut Shared<O>,
    ) {
        let mut levels = std::mem::take(&mut self.levels);
        let mut next_levels = std::mem::take(&mut self.next_levels);
        levels.clear();
        levels.push(from_level);
        let mut node = from_node;
        loop {
            let Some(p) = self.machine.nodes[node].parent else {
                // The machine root: the candidates are decided.
                for &id in cands {
                    if self.emitted.insert(id) {
                        sh.emit(q, NodeId::new(id));
                    }
                }
                break;
            };
            let edge = self.machine.nodes[node].edge;
            let pnode = &self.machine.nodes[p];
            next_levels.clear();
            for e in self.stacks[p].iter_mut() {
                if !levels.iter().any(|&l| edge.test(l as i64 - e.level as i64)) {
                    continue;
                }
                if pnode.eager_safe && pnode.holds(e.slots | pnode.spine_mask) {
                    next_levels.push(e.level);
                } else {
                    Self::merge_candidates(&mut e.candidates, cands, &self.emitted, sh);
                }
            }
            if next_levels.is_empty() {
                break;
            }
            next_levels.dedup();
            node = p;
            std::mem::swap(&mut levels, &mut next_levels);
        }
        self.levels = levels;
        self.next_levels = next_levels;
    }

    /// Merges `src` (sorted) into `dst` (sorted), skipping already-emitted
    /// ids, and accounts the ids inserted; returns how many there were.
    fn merge_candidates<O>(
        dst: &mut Vec<u64>,
        src: &[u64],
        emitted: &FxHashSet<u64>,
        sh: &mut Shared<O>,
    ) -> u64 {
        let before = dst.len();
        // Candidates arrive in roughly increasing id order, so an upload
        // usually appends past the destination's tail.
        let appends = match (dst.last(), src.first()) {
            (Some(last), Some(first)) => first > last,
            _ => true,
        };
        dst.extend(src.iter().filter(|id| !emitted.contains(id)));
        if !appends {
            // Two sorted runs: the stable sort merges them in one pass.
            dst.sort();
            dst.dedup();
        }
        let inserted = (dst.len() - before) as u64;
        sh.stats.candidates_merged += inserted;
        sh.live_candidates += inserted;
        inserted
    }

    /// The pop of δe for machine node `v`: if its top entry sits at
    /// `level` it pops, and a satisfied entry uploads to its parent or,
    /// at the machine root, emits.
    #[inline]
    pub(crate) fn pop<O: MachineObserver>(
        &mut self,
        q: QueryId,
        v: usize,
        level: u32,
        sh: &mut Shared<O>,
    ) {
        if self.stacks[v].last().map(|top| top.level) != Some(level) {
            return;
        }
        let mut entry = self.stacks[v].pop().expect("checked non-empty");
        let node = &self.machine.nodes[v];
        sh.stats.pops += 1;
        sh.live_entries -= 1;
        sh.live_candidates -= entry.candidates.len() as u64;
        Self::apply_end_conds(node, &mut entry);
        let satisfied = node.holds(entry.slots);
        if O::ENABLED {
            sh.observer.on_pop(encode_obs_node(q, v), level, satisfied);
        }
        if !satisfied {
            // Failed predicates: the entry and every pattern match it
            // participates in are pruned, without enumeration.
            return;
        }
        let Some(p) = node.parent else {
            // Machine root: the candidates are decided solutions.
            for id in entry.candidates {
                if self.emitted.insert(id) {
                    sh.emit(q, NodeId::new(id));
                }
            }
            return;
        };
        let slot_bit = 1u64 << node.parent_slot.expect("non-root has a slot");
        let edge = node.edge;
        let parent_counter = node.parent_counter;
        let pnode = &self.machine.nodes[p];
        // Targets whose formula completed with this upload: their
        // buffered candidates are decided and flush upward immediately.
        let mut flush: Vec<(u32, Vec<u64>)> = Vec::new();
        for e in self.stacks[p].iter_mut() {
            sh.stats.upload_probes += 1;
            if !edge.test(level as i64 - e.level as i64) {
                continue;
            }
            match parent_counter {
                // A counted child: increment instead of setting a bit
                // (the bit is decided at the parent's pop by the
                // comparison).
                Some(ci) => e.counts[ci] += 1,
                None => e.slots |= slot_bit,
            }
            let inserted =
                Self::merge_candidates(&mut e.candidates, &entry.candidates, &self.emitted, sh);
            if O::ENABLED {
                sh.observer
                    .on_upload(encode_obs_node(q, v), encode_obs_node(q, p), inserted);
            }
            if pnode.eager_safe
                && !e.candidates.is_empty()
                && pnode.holds(e.slots | pnode.spine_mask)
            {
                let cands = std::mem::take(&mut e.candidates);
                sh.live_candidates -= cands.len() as u64;
                flush.push((e.level, cands));
            }
        }
        for (lvl, cands) in flush {
            self.eager_deliver(q, p, lvl, &cands, sh);
        }
    }

    /// Filter mode's unwinding for a query that has already matched: pops
    /// `v`'s entry at `level` unevaluated, so the stacks are clean for
    /// the next document.
    pub(crate) fn discard<O: MachineObserver>(
        &mut self,
        q: QueryId,
        v: usize,
        level: u32,
        sh: &mut Shared<O>,
    ) {
        if self.stacks[v].last().map(|top| top.level) != Some(level) {
            return;
        }
        let entry = self.stacks[v].pop().expect("checked non-empty");
        sh.stats.pops += 1;
        sh.live_entries -= 1;
        sh.live_candidates -= entry.candidates.len() as u64;
        if O::ENABLED {
            // Discarded unevaluated: report as unsatisfied.
            sh.observer.on_pop(encode_obs_node(q, v), level, false);
        }
    }
}

/// The TwigM streaming engine: one `Run` of the machine.
///
/// The `O` parameter is a [`MachineObserver`] receiving every machine
/// transition; the default [`NoopObserver`] compiles all hooks away, so
/// `TwigM` (no parameter) is exactly the unobserved machine.
pub struct TwigM<O: MachineObserver = NoopObserver> {
    run: Run,
    shared: Shared<O>,
    /// Level of the innermost open element (for routing text events).
    depth: u32,
}

impl TwigM {
    /// Compiles a query into a TwigM machine.
    pub fn new(query: &Path) -> Result<Self, MachineError> {
        Self::with_observer(query, NoopObserver)
    }

    /// Builds the engine around an existing compiled machine.
    pub fn from_machine(machine: Machine) -> Self {
        Self::from_machine_with(machine, NoopObserver)
    }
}

impl<O: MachineObserver> TwigM<O> {
    /// Compiles a query into a TwigM machine observed by `observer`.
    pub fn with_observer(query: &Path, observer: O) -> Result<Self, MachineError> {
        Ok(Self::from_machine_with(
            Machine::from_path(query)?,
            observer,
        ))
    }

    /// Builds an observed engine around an existing compiled machine.
    pub fn from_machine_with(machine: Machine, observer: O) -> Self {
        TwigM {
            run: Run::new(machine),
            shared: Shared::new(observer),
            depth: 0,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.shared.observer
    }

    /// Mutable access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.shared.observer
    }

    /// Consumes the engine, returning the observer (typically to export
    /// what it recorded after a run).
    pub fn into_observer(self) -> O {
        self.shared.observer
    }

    /// The compiled machine.
    pub fn machine(&self) -> &Machine {
        self.run.machine()
    }

    /// Current total number of stack entries (used in tests of the
    /// compact-encoding claim).
    pub fn total_entries(&self) -> usize {
        self.run.stacks.iter().map(Vec::len).sum()
    }

    /// The levels currently on each machine node's stack, bottom to top
    /// (the paper's machine state, as in the figure 2/4 snapshots).
    ///
    /// By Proposition 4.2 these are exactly the levels of the *active*
    /// XML elements that solve each node's prefix subquery — the
    /// invariant the `prop42_invariant` integration test checks against
    /// a DOM oracle after every event.
    pub fn stack_levels(&self) -> Vec<Vec<u32>> {
        self.run
            .stacks
            .iter()
            .map(|stack| stack.iter().map(|e| e.level).collect())
            .collect()
    }

    /// δs (Algorithm 1), dispatching on an interned symbol: the nodes
    /// tagged `sym` plus the wildcard nodes, via dense table indexing —
    /// no per-node string compare, no allocation for non-matching tags.
    fn start_sym(&mut self, sym: Symbol, attrs: &[Attribute<'_>], level: u32, id: NodeId) -> bool {
        let sh = &mut self.shared;
        sh.begin_start(sym, level, id);
        self.depth = level;
        self.run.reset_positions(level);
        let n_tag = self.run.machine.tag_nodes(sym).len();
        let reached = n_tag + self.run.machine.wildcards().len();
        if reached == 0 {
            // Most tags reach no machine node: no entry moves.
            sh.finish_idle_event();
            return false;
        }
        let mut became_candidate = false;
        for i in 0..reached {
            let v = self.run.dispatched(sym, n_tag, i);
            became_candidate |= self.run.push(0, v, attrs, level, id, sh);
        }
        sh.finish_event();
        became_candidate
    }

    /// δe (Algorithm 1), dispatching on an interned symbol.
    fn end_sym(&mut self, sym: Symbol, level: u32) {
        let sh = &mut self.shared;
        sh.begin_end(sym, level);
        self.depth = level.saturating_sub(1);
        let n_tag = self.run.machine.tag_nodes(sym).len();
        let reached = n_tag + self.run.machine.wildcards().len();
        if reached == 0 {
            sh.finish_idle_event();
        } else {
            for i in 0..reached {
                let v = self.run.dispatched(sym, n_tag, i);
                self.run.pop(0, v, level, sh);
            }
            sh.finish_event();
        }
        if level == 1 {
            self.run.end_document();
            sh.end_document();
        }
    }
}

impl<O: MachineObserver> StreamEngine for TwigM<O> {
    /// δs via the symbol the driver looked up.
    fn start_element_sym(
        &mut self,
        sym: Symbol,
        _tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        self.start_sym(sym, attrs, level, id)
    }

    /// Routes character data to entries that accumulate text: the top
    /// entry of a text-needing node, if it corresponds to the innermost
    /// open element.
    fn text(&mut self, text: &str) {
        self.run.text_at(text, self.depth)
    }

    /// Depth-explicit text routing. `self.depth` only advances on events
    /// the machine actually receives, so under a prefiltered batch
    /// stream the caller supplies the true containing level instead.
    fn text_at(&mut self, text: &str, level: u32) {
        self.run.text_at(text, level)
    }

    fn relevance(&self) -> crate::relevance::Relevance {
        crate::relevance::machine_relevance(self.machine())
    }

    /// δe via the symbol the driver looked up.
    fn end_element_sym(&mut self, sym: Symbol, _tag: &str, level: u32) {
        self.end_sym(sym, level)
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(self.machine().symbols())
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        self.machine().needs_attributes(sym)
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        self.shared.take_ids()
    }

    fn stats(&self) -> &EngineStats {
        &self.shared.stats
    }

    fn machine_size(&self) -> Option<usize> {
        Some(self.machine().len())
    }
}

/// Tag-name entry points for hand-driven tests: one interner lookup,
/// then the symbol path the driver uses.
#[cfg(test)]
impl<O: MachineObserver> TwigM<O> {
    pub(crate) fn start(
        &mut self,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        let sym = self.machine().symbols().lookup(tag);
        self.start_sym(sym, attrs, level, id)
    }

    pub(crate) fn end(&mut self, tag: &str, level: u32) {
        let sym = self.machine().symbols().lookup(tag);
        self.end_sym(sym, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    /// Builds the paper's figure 1(a) document for a given `n`:
    /// `a₁…aₙ` nested, `aₙ` containing `b₁…bₙ` nested, `bₙ` containing
    /// `c₁`, plus `d₁` under `a₁` and `e₁` under `b₁` (closing sides).
    fn figure1_doc(n: usize) -> String {
        let mut xml = String::new();
        for _ in 0..n {
            xml.push_str("<a>");
        }
        for _ in 0..n {
            xml.push_str("<b>");
        }
        xml.push_str("<c/>");
        for i in 0..n {
            if i == n - 1 {
                xml.push_str("<e/>"); // e under b1, the outermost b
            }
            xml.push_str("</b>");
        }
        for i in 0..n {
            if i == n - 1 {
                xml.push_str("<d/>"); // d under a1, the outermost a
            }
            xml.push_str("</a>");
        }
        xml
    }

    #[test]
    fn paper_example_q1_selects_c1() {
        // //a[d]//b[e]//c over figure 1(a): c1 is a solution because the
        // match (a1, b1, c1) satisfies both predicates.
        let xml = figure1_doc(4);
        let ids = run("//a[d]//b[e]//c", &xml);
        assert_eq!(ids.len(), 1);
        // c is the (2n+1)-th start tag: ids are 0-based pre-order.
        assert_eq!(ids[0], 8);
    }

    #[test]
    fn paper_intro_variant_with_child_axis() {
        // //a[d]/b[e]//c: only (an, b1) are parent/child, but e is under
        // b1 and d under a1 — an has no d child, so no match.
        let xml = figure1_doc(3);
        assert!(run("//a[d]/b[e]//c", &xml).is_empty());
    }

    #[test]
    fn compact_encoding_stores_2n_entries_for_n_squared_matches() {
        // The paper's headline claim (§1 contribution 1): processing Q1
        // on figure 1(a), TwigM stores 2n+1 entries to encode n² matches.
        let n = 16;
        let xml = figure1_doc(n);
        let mut engine = TwigM::new(&parse("//a[d]//b[e]//c").unwrap()).unwrap();
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        let stats = engine.stats();
        // Peak: n entries on a's stack + n on b's stack + 1 on c's.
        assert_eq!(stats.peak_entries, 2 * n as u64 + 1);
        // And never an explicit match tuple.
        assert_eq!(stats.tuples_materialized, 0);
    }

    #[test]
    fn predicate_failure_prunes_candidates() {
        // No e anywhere: c1 must not be emitted.
        let xml = "<a><b><c/></b><d/></a>";
        assert!(run("//a[d]//b[e]//c", xml).is_empty());
        // No d: same.
        let xml = "<a><b><c/><e/></b></a>";
        assert!(run("//a[d]//b[e]//c", xml).is_empty());
        // Both present: match.
        let xml = "<a><b><c/><e/></b><d/></a>";
        assert_eq!(run("//a[d]//b[e]//c", xml).len(), 1);
    }

    #[test]
    fn results_are_deduplicated_across_root_entries() {
        // Both nested a's satisfy [d]; c must be reported once.
        let xml = "<a><a><b><c/><e/></b><d/></a><d/></a>";
        let ids = run("//a[d]//b[e]//c", xml);
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn multiple_solutions_all_emitted() {
        let xml = "<r><a><b/><c><b/></c></a><a><b/></a></r>";
        let ids = run("//a//b", xml);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn attribute_predicates() {
        let xml = r#"<r><p id="1"><q/></p><p><q/></p></r>"#;
        assert_eq!(run("//p[@id]/q", xml).len(), 1);
        assert_eq!(run("//p[@id = '1']/q", xml).len(), 1);
        assert_eq!(run("//p[@id = '2']/q", xml).len(), 0);
        assert_eq!(run("//p[@id != '2']/q", xml).len(), 1);
    }

    #[test]
    fn numeric_attribute_comparisons() {
        let xml = r#"<r><i v="5"/><i v="15"/><i v="x"/></r>"#;
        assert_eq!(run("//i[@v > 10]", xml).len(), 1);
        assert_eq!(run("//i[@v <= 5]", xml).len(), 1);
        assert_eq!(run("//i[@v >= 5]", xml).len(), 2);
    }

    #[test]
    fn text_value_predicates() {
        let xml = "<r><t>alpha</t><t>beta</t><t/></r>";
        assert_eq!(run("//t[text() = 'alpha']", xml), vec![1]);
        assert_eq!(run("//t[text()]", xml).len(), 2);
        assert_eq!(run("//t[text() != 'alpha']", xml).len(), 1);
    }

    #[test]
    fn element_value_predicates_compare_child_text() {
        let xml = "<r><item><price>5</price></item><item><price>20</price></item></r>";
        assert_eq!(run("//item[price < 10]", xml).len(), 1);
        assert_eq!(run("//item[price]", xml).len(), 2);
    }

    #[test]
    fn chunked_text_accumulates() {
        // Text arriving in several events must concatenate before the
        // comparison at the end tag.
        let mut engine = TwigM::new(&parse("//t[text() = 'abc']").unwrap()).unwrap();
        engine.start("r", &[], 1, NodeId::new(0));
        engine.start("t", &[], 2, NodeId::new(1));
        engine.text("a");
        engine.text("b");
        engine.text("c");
        engine.end("t", 2);
        engine.end("r", 1);
        assert_eq!(engine.take_results().len(), 1);
    }

    #[test]
    fn text_routed_to_innermost_element_only() {
        // <t>out<t>in</t></t>: each t entry sees only its direct text.
        let xml = "<r><t>out<t>in</t></t></r>";
        assert_eq!(run("//t[text() = 'in']", xml), vec![2]);
        assert_eq!(run("//t[text() = 'out']", xml), vec![1]);
    }

    #[test]
    fn or_and_nested_predicates() {
        let xml = "<r><a><b/></a><a><c/></a><a><d/></a></r>";
        assert_eq!(run("//a[b or c]", xml).len(), 2);
        assert_eq!(run("//a[b and c]", xml).len(), 0);
        let xml = "<r><a><b><c/></b></a><a><b/></a></r>";
        assert_eq!(run("//a[b[c]]", xml).len(), 1);
    }

    #[test]
    fn wildcard_queries() {
        let xml = "<r><a><x/></a><b><y/></b></r>";
        assert_eq!(run("//*", xml).len(), 5);
        assert_eq!(run("/r/*", xml).len(), 2);
        assert_eq!(run("/r/*/x", xml).len(), 1);
        assert_eq!(run("/*/a", xml).len(), 1);
    }

    #[test]
    fn folded_wildcard_distances() {
        let xml = "<r><a><m><b/></m></a><a><b/></a></r>";
        // /r/a/*/b: only the b under m qualifies.
        assert_eq!(run("/r/a/*/b", xml).len(), 1);
    }

    #[test]
    fn recursive_descendant_predicates() {
        // Deeply recursive sections: [title] at several levels.
        let xml = "<doc><sec><title/><sec><sec><title/><p/></sec></sec></sec></doc>";
        assert_eq!(run("//sec[title]//p", xml).len(), 1);
        assert_eq!(run("//sec[title]/p", xml).len(), 1);
    }

    #[test]
    fn sol_with_its_own_predicate() {
        let xml = "<r><a><c><x/></c></a><a><c/></a></r>";
        assert_eq!(run("//a/c[x]", xml).len(), 1);
    }

    #[test]
    fn predicate_path_with_descendant_axis() {
        let xml = "<r><a><b><deep><e/></deep></b></a><a><b/></a></r>";
        assert_eq!(run("//a[.//e]", xml).len(), 1);
        assert_eq!(run("//a[b//e]", xml).len(), 1);
        assert_eq!(run("//a[b/e]", xml).len(), 0);
    }

    #[test]
    fn deep_value_path_with_attribute() {
        let xml = r#"<r><a><b><c id="x"/></b></a><a><b><c/></b></a></r>"#;
        assert_eq!(run("//a[b/c/@id = 'x']", xml).len(), 1);
        assert_eq!(run("//a[b/c/@id]", xml).len(), 1);
    }

    #[test]
    fn same_tag_at_multiple_query_positions() {
        // //a//a: nested a's.
        let xml = "<a><a><a/></a></a>";
        assert_eq!(run("//a//a", xml).len(), 2);
        assert_eq!(run("//a//a//a", xml).len(), 1);
    }

    #[test]
    fn root_edge_conditions() {
        let xml = "<a><a/></a>";
        assert_eq!(run("/a", xml), vec![0]);
        assert_eq!(run("//a", xml).len(), 2);
        // /a/a matches only the nested one.
        assert_eq!(run("/a/a", xml), vec![1]);
    }

    #[test]
    fn empty_result_take_is_idempotent() {
        let mut engine = TwigM::new(&parse("//zzz").unwrap()).unwrap();
        engine.start("r", &[], 1, NodeId::new(0));
        engine.end("r", 1);
        assert!(engine.take_results().is_empty());
        assert!(engine.take_results().is_empty());
    }

    #[test]
    fn engine_is_reusable_across_documents() {
        let q = parse("//a[b]").unwrap();
        let mut engine = TwigM::new(&q).unwrap();
        for _ in 0..2 {
            engine.start("a", &[], 1, NodeId::new(0));
            engine.start("b", &[], 2, NodeId::new(1));
            engine.end("b", 2);
            engine.end("a", 1);
            assert_eq!(engine.take_results().len(), 1);
            assert_eq!(engine.total_entries(), 0);
        }
    }

    #[test]
    fn stats_track_work() {
        let xml = figure1_doc(4);
        let engine = TwigM::new(&parse("//a[d]//b[e]//c").unwrap()).unwrap();
        let (_, engine) = run_engine(engine, xml.as_bytes()).unwrap();
        let s = engine.stats();
        assert_eq!(s.start_events, 11);
        assert_eq!(s.end_events, 11);
        assert!(s.pushes >= 9);
        assert_eq!(s.pushes, s.pops);
        assert!(s.work() > 0);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn contains_on_text_and_attributes() {
        let xml = r#"<r><p k="alpha">hello world</p><p k="beta">goodbye</p></r>"#;
        assert_eq!(run("//p[contains(text(), 'world')]", xml), vec![1]);
        assert_eq!(run("//p[contains(@k, 'eta')]", xml), vec![2]);
        assert_eq!(run("//p[starts-with(text(), 'good')]", xml), vec![2]);
        assert_eq!(run("//p[ends-with(@k, 'pha')]", xml), vec![1]);
        assert_eq!(run("//p[contains(text(), 'zzz')]", xml).len(), 0);
    }

    #[test]
    fn contains_on_child_element_text() {
        let xml = "<r><item><name>blue chair</name></item><item><name>red desk</name></item></r>";
        assert_eq!(run("//item[contains(name, 'chair')]", xml), vec![1]);
        assert_eq!(run("//r[contains(.//name, 'desk')]", xml), vec![0]);
    }

    #[test]
    fn contains_requires_text_to_exist() {
        // An element with no text never satisfies contains, even with ''.
        let xml = "<r><p/><p>x</p></r>";
        assert_eq!(run("//p[contains(text(), '')]", xml), vec![2]);
    }

    #[test]
    fn positional_predicates_select_by_sibling_index() {
        let xml = "<r><a/><a/><b/><a/></r>";
        assert_eq!(run("/r/a[1]", xml), vec![1]);
        assert_eq!(run("/r/a[2]", xml), vec![2]);
        // Position counts only name-matching siblings: the 3rd a is
        // after the b.
        assert_eq!(run("/r/a[3]", xml), vec![4]);
        assert_eq!(run("/r/a[4]", xml).len(), 0);
    }

    #[test]
    fn positions_reset_per_parent() {
        let xml = "<r><g><a/><a/></g><g><a/></g></r>";
        // Each g's first a.
        assert_eq!(run("//g/a[1]", xml), vec![2, 5]);
        assert_eq!(run("//g/a[2]", xml), vec![3]);
    }

    #[test]
    fn position_with_following_filter_matches_xpath() {
        // a[2][b]: the 2nd a, kept only if it has b.
        let xml = "<r><a/><a><b/></a></r>";
        assert_eq!(run("/r/a[2][b]", xml), vec![2]);
        let xml = "<r><a><b/></a><a/></r>";
        assert_eq!(run("/r/a[2][b]", xml).len(), 0);
    }

    #[test]
    fn position_on_wildcard_counts_all_children() {
        let xml = "<r><x/><y/><z/></r>";
        assert_eq!(run("/r/*[2]", xml), vec![2]);
    }

    #[test]
    fn position_under_recursive_parents() {
        // Nested g's: each keeps its own counters. Outer g's children
        // are a(1), g(2), a(5): its 2nd a is id 5. Inner g's 2nd a is 4.
        let xml = "<g><a/><g><a/><a/></g><a/></g>";
        assert_eq!(run("//g/a[2]", xml), vec![4, 5]);
    }

    #[test]
    fn position_needs_child_axis() {
        assert!(matches!(
            TwigM::new(&parse("//a[2]").unwrap()),
            Err(crate::machine::MachineError::PositionNeedsChildAxis { .. })
        ));
        // Child axis after a descendant step is fine.
        assert!(TwigM::new(&parse("//g/a[2]").unwrap()).is_ok());
    }

    #[test]
    fn position_in_nested_predicates() {
        // [b[2]] — elements whose 2nd b... exists (i.e. have >= 2 b's
        // and the 2nd one matches b, trivially true).
        let xml = "<r><a><b/><b/></a><a><b/></a></r>";
        assert_eq!(run("//a[b[2]]", xml), vec![1]);
    }
}

#[cfg(test)]
mod not_count_tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn not_negates_child_existence() {
        let xml = "<r><a><b/></a><a><c/></a></r>";
        assert_eq!(run("//a[not(b)]", xml), vec![3]);
        assert_eq!(run("//a[not(not(b))]", xml), vec![1]);
        assert_eq!(run("//a[not(b or c)]", xml).len(), 0);
        assert_eq!(run("//a[not(b and c)]", xml).len(), 2);
    }

    #[test]
    fn not_with_value_tests() {
        let xml = r#"<r><p k="1">x</p><p>y</p></r>"#;
        assert_eq!(run("//p[not(@k)]", xml), vec![2]);
        assert_eq!(run("//p[not(text() = 'x')]", xml), vec![2]);
        // Negation of an empty-node-set comparison is true.
        let xml = "<r><p/></r>";
        assert_eq!(run("//p[not(text() = 'x')]", xml), vec![1]);
    }

    #[test]
    fn not_over_descendant_paths() {
        let xml = "<r><a><x><e/></x></a><a><x/></a></r>";
        assert_eq!(run("//a[not(.//e)]", xml), vec![4]);
    }

    #[test]
    fn count_compares_child_matches() {
        let xml = "<r><a><b/></a><a><b/><b/></a><a/></r>";
        assert_eq!(run("//a[count(b) >= 2]", xml), vec![3]);
        assert_eq!(run("//a[count(b) = 1]", xml), vec![1]);
        assert_eq!(run("//a[count(b) = 0]", xml), vec![6]);
        assert_eq!(run("//a[count(b) < 2]", xml), vec![1, 6]);
    }

    #[test]
    fn count_with_descendant_axis_counts_all() {
        let xml = "<r><a><x><b/></x><b/></a><a><b/></a></r>";
        assert_eq!(run("//a[count(.//b) = 2]", xml), vec![1]);
        assert_eq!(run("//a[count(b) = 1]", xml), vec![1, 5]);
    }

    #[test]
    fn count_of_filtered_children() {
        // Only b's carrying @k count.
        let xml = r#"<r><a><b k="1"/><b/></a><a><b k="1"/><b k="2"/></a></r>"#;
        assert_eq!(run("//a[count(b[@k]) >= 2]", xml), vec![4]);
    }

    #[test]
    fn count_on_recursive_data_counts_per_context() {
        let xml = "<a><b/><a><b/><b/></a></a>";
        // Outer a has 1 b child (+1 nested a); inner has 2.
        assert_eq!(run("//a[count(b) = 2]", xml), vec![2]);
        // Descendant count: outer sees 3 b's.
        assert_eq!(run("//a[count(.//b) = 3]", xml), vec![0]);
    }

    #[test]
    fn count_combined_with_other_predicates() {
        let xml = "<r><a><b/><b/><c/></a><a><b/><b/></a></r>";
        assert_eq!(run("//a[count(b) = 2][c]", xml), vec![1]);
        assert_eq!(run("//a[count(b) = 2 and not(c)]", xml), vec![5]);
    }

    #[test]
    fn parser_restrictions_hold() {
        assert!(parse("//a[count(b/c) = 1]").is_err());
        assert!(parse("//a[count(@k) = 1]").is_err());
        assert!(parse("//a[count(b)]").is_err());
        assert!(parse("//a[count(b) = 1.5]").is_err());
        assert!(parse("//a[not(b)]").is_ok());
        assert!(parse("//a[not b]").is_err());
    }
}

#[cfg(test)]
mod eager_delivery_tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn satisfied_path_emits_at_start_tag() {
        let mut engine = TwigM::new(&parse("//a[d]/b").unwrap()).unwrap();
        engine.start("a", &[], 1, NodeId::new(0));
        engine.start("d", &[], 2, NodeId::new(1));
        engine.end("d", 2);
        let was_candidate = engine.start("b", &[], 2, NodeId::new(2));
        assert!(was_candidate);
        assert_eq!(engine.take_results(), vec![NodeId::new(2)]);
        // Zero candidates ever buffered.
        assert_eq!(engine.stats().peak_candidates, 0);
        engine.end("b", 2);
        engine.end("a", 1);
        assert!(engine.take_results().is_empty(), "no re-emission at pops");
    }

    #[test]
    fn eager_delivery_deduplicates_across_satisfied_ancestors() {
        // Both nested a's satisfied: the b must be emitted exactly once
        // even though two satisfied chains deliver it.
        let xml = "<a><d/><a><d/><b/></a></a>";
        assert_eq!(run("//a[d]//b", xml), vec![4]);
        let xml = "<a><d/><a><d/><b/><b/></a></a>";
        assert_eq!(run("//a[d]//b", xml), vec![4, 5]);
    }

    #[test]
    fn eager_with_or_formulas() {
        let mut engine = TwigM::new(&parse("//a[d or e]/b").unwrap()).unwrap();
        engine.start("a", &[], 1, NodeId::new(0));
        engine.start("e", &[], 2, NodeId::new(1));
        engine.end("e", 2);
        engine.start("b", &[], 2, NodeId::new(2));
        // Or-formula already satisfied by e: emitted at start.
        assert_eq!(engine.take_results(), vec![NodeId::new(2)]);
        engine.end("b", 2);
        engine.end("a", 1);
    }

    #[test]
    fn not_formulas_disable_eager_but_stay_correct() {
        // not(c) can flip false after being true: no early emission, but
        // the final answers are right either way.
        let xml = "<r><a><d/><b/></a><a><d/><b/><c/></a></r>";
        assert_eq!(run("//a[d][not(c)]/b", xml), vec![3]);
        let mut engine = TwigM::new(&parse("//a[not(c)]/b").unwrap()).unwrap();
        engine.start("a", &[], 1, NodeId::new(0));
        engine.start("b", &[], 2, NodeId::new(1));
        engine.end("b", 2);
        // Not yet decidable: c could still arrive.
        assert!(engine.take_results().is_empty());
        engine.end("a", 1);
        assert_eq!(engine.take_results(), vec![NodeId::new(1)]);
    }

    #[test]
    fn attribute_predicates_decide_at_start() {
        // All conditions on the chain are start-evaluable: instant result.
        let mut engine = TwigM::new(&parse("//a[@k]/b[@m]").unwrap()).unwrap();
        let attr_k = [twigm_sax::Attribute {
            name: "k",
            value: std::borrow::Cow::Borrowed("1"),
        }];
        let attr_m = [twigm_sax::Attribute {
            name: "m",
            value: std::borrow::Cow::Borrowed("2"),
        }];
        engine.start("a", &attr_k, 1, NodeId::new(0));
        engine.start("b", &attr_m, 2, NodeId::new(1));
        assert_eq!(engine.take_results(), vec![NodeId::new(1)]);
        engine.end("b", 2);
        engine.end("a", 1);
    }

    #[test]
    fn buffered_candidates_flush_when_a_later_bit_completes_the_formula() {
        // b's buffer in a until d arrives; the flush happens at </d>, not
        // at </a>.
        let mut engine = TwigM::new(&parse("//a[d]/b").unwrap()).unwrap();
        engine.start("a", &[], 1, NodeId::new(0));
        for i in 0..5u64 {
            engine.start("b", &[], 2, NodeId::new(1 + i));
            engine.end("b", 2);
        }
        assert!(engine.take_results().is_empty());
        assert_eq!(engine.stats().peak_candidates, 5);
        engine.start("d", &[], 2, NodeId::new(6));
        engine.end("d", 2);
        assert_eq!(engine.take_results().len(), 5);
        engine.end("a", 1);
        assert!(engine.take_results().is_empty());
    }
}
