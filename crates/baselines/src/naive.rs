//! The explicit-enumeration baseline (the XSQ / SPEX class).
//!
//! This engine is algorithmically identical to TwigM in *what* it
//! computes, but it represents the search space the way the systems the
//! paper criticizes do: **one stack entry per pattern match** — that is,
//! per (active element, parent-match) pair — instead of TwigM's one entry
//! per active element. Every entry keeps a pointer to the specific parent
//! match it extends, so entries are exactly the explicitly-materialized
//! query-pattern matches whose count the paper shows to be
//! `O((|D|/|Q|)^|Q|)` on recursive data.
//!
//! On the paper's figure 1(a) data with query `//a//b//c`, TwigM's stacks
//! peak at `2n + 1` entries; this engine's peak at `n + n·(n+1)/2 + …` —
//! the quadratic-and-beyond growth that makes XSQ's curves take off in
//! figures 7 and 9. The `tuples_materialized` counter records every
//! match object created, which experiment E7 plots against TwigM's entry
//! count.

use twigm::engine::StreamEngine;
use twigm::fxhash::FxHashSet;
use twigm::machine::{MNode, Machine, MachineError};
use twigm::query::QCond;
use twigm::stats::EngineStats;
use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};
use twigm_xpath::Path;

/// One explicitly materialized (partial) pattern match.
#[derive(Debug, Clone)]
struct MatchEntry {
    /// Level of the matched element.
    level: u32,
    /// Index of the parent match within the parent node's stack
    /// (usize::MAX for matches of the machine root).
    parent_index: usize,
    /// Branch-match bitset for this specific match.
    slots: u64,
    /// Undecided candidates carried by this match chain.
    candidates: Vec<u64>,
    /// Accumulated text (when the node has text conditions).
    text: String,
    /// Child-match counters for `count()` conditions.
    counts: Vec<u32>,
}

/// The explicit-match streaming engine.
pub struct NaiveEnum {
    machine: Machine,
    stacks: Vec<Vec<MatchEntry>>,
    /// Sibling counters for positional predicates (node -> by parent level).
    pos_counts: Vec<Vec<u32>>,
    depth: u32,
    emitted: FxHashSet<u64>,
    results: Vec<NodeId>,
    stats: EngineStats,
    live_entries: u64,
}

impl NaiveEnum {
    /// Compiles a query.
    pub fn new(query: &Path) -> Result<Self, MachineError> {
        let machine = Machine::from_path(query)?;
        let stacks = vec![Vec::new(); machine.len()];
        let pos_counts = vec![Vec::new(); machine.len()];
        Ok(NaiveEnum {
            machine,
            stacks,
            pos_counts,
            depth: 0,
            emitted: FxHashSet::default(),
            results: Vec::new(),
            stats: EngineStats::default(),
            live_entries: 0,
        })
    }

    /// Total live match objects (used by the encoding experiment).
    pub fn total_entries(&self) -> usize {
        self.stacks.iter().map(Vec::len).sum()
    }

    /// Machine node count |Q|. Exposed as a plain accessor — NOT via
    /// `StreamEngine::machine_size` — because enumeration keeps one
    /// entry per (element, parent-match) pair, so its `peak_entries`
    /// provably exceeds Theorem 4.4's `|Q| · R` bound on recursive data;
    /// claiming the bound through the trait hook would be wrong.
    pub fn machine_len(&self) -> usize {
        self.machine.len()
    }

    /// δs on an interned symbol. Dispatch visits the symbol's tag list,
    /// then the wildcard list; edges have distance ≥ 1, so same-level
    /// entries never interact within one event and the visit order
    /// relative to the old ascending scan is immaterial.
    fn start_sym(&mut self, sym: Symbol, attrs: &[Attribute<'_>], level: u32, id: NodeId) -> bool {
        self.stats.start_events += 1;
        self.depth = level;
        // Reset child sibling scopes for positional predicates.
        for &v in self.machine.pos_nodes() {
            let counts = &mut self.pos_counts[v];
            if counts.len() <= level as usize {
                counts.resize(level as usize + 1, 0);
            }
            counts[level as usize] = 0;
        }
        let mut became_candidate = false;
        let n_tag = self.machine.tag_nodes(sym).len();
        let n_wild = self.machine.wildcards().len();
        for i in 0..n_tag + n_wild {
            let v = if i < n_tag {
                self.machine.tag_nodes(sym)[i]
            } else {
                self.machine.wildcards()[i - n_tag]
            };
            let node = &self.machine.nodes[v];
            let mut slots = Self::initial_slots(node, attrs);
            // Positional predicates count per element, not per match.
            if !node.pos_conds.is_empty() {
                let parent_level = level.saturating_sub(1) as usize;
                // Only count the element when it extends some parent
                // match (the same rule TwigM applies).
                let qualifies = match node.parent {
                    None => node.edge.test(level as i64),
                    Some(p) => self.stacks[p]
                        .iter()
                        .any(|e| node.edge.test(level as i64 - e.level as i64)),
                };
                if qualifies {
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
            }
            match node.parent {
                None => {
                    self.stats.qualification_probes += 1;
                    if node.edge.test(level as i64) {
                        let mut candidates = Vec::new();
                        if node.is_sol {
                            candidates.push(id.get());
                            became_candidate = true;
                        }
                        self.stacks[v].push(MatchEntry {
                            level,
                            parent_index: usize::MAX,
                            slots,
                            candidates,
                            text: String::new(),
                            counts: vec![0; node.count_conds.len()],
                        });
                        self.stats.pushes += 1;
                        self.stats.tuples_materialized += 1;
                        self.live_entries += 1;
                    }
                }
                Some(p) => {
                    // THE defining difference from TwigM: one new match
                    // per qualifying parent match, not a single entry.
                    let mut new_entries = Vec::new();
                    for (pi, e) in self.stacks[p].iter().enumerate() {
                        self.stats.qualification_probes += 1;
                        if node.edge.test(level as i64 - e.level as i64) {
                            let mut candidates = Vec::new();
                            if node.is_sol {
                                candidates.push(id.get());
                                became_candidate = true;
                            }
                            new_entries.push(MatchEntry {
                                level,
                                parent_index: pi,
                                slots,
                                candidates,
                                text: String::new(),
                                counts: vec![0; node.count_conds.len()],
                            });
                        }
                    }
                    self.stats.pushes += new_entries.len() as u64;
                    self.stats.tuples_materialized += new_entries.len() as u64;
                    self.live_entries += new_entries.len() as u64;
                    self.stacks[v].extend(new_entries);
                }
            }
        }
        self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
        became_candidate
    }

    /// δe on an interned symbol.
    fn end_sym(&mut self, sym: Symbol, level: u32) {
        self.stats.end_events += 1;
        self.depth = level.saturating_sub(1);
        let n_tag = self.machine.tag_nodes(sym).len();
        let n_wild = self.machine.wildcards().len();
        for i in 0..n_tag + n_wild {
            let v = if i < n_tag {
                self.machine.tag_nodes(sym)[i]
            } else {
                self.machine.wildcards()[i - n_tag]
            };
            let node = &self.machine.nodes[v];
            // Pop every match of the closing element (they are contiguous
            // on top of the stack).
            while self.stacks[v].last().is_some_and(|e| e.level == level) {
                let mut entry = self.stacks[v].pop().expect("checked non-empty");
                self.stats.pops += 1;
                self.live_entries -= 1;
                for &i in &node.text_conds {
                    let ok = match &node.conditions[i] {
                        QCond::TextExists => !entry.text.is_empty(),
                        QCond::TextCmp(op, lit) => {
                            !entry.text.is_empty() && op.eval(&entry.text, lit)
                        }
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
                if !node.formula.eval(entry.slots) {
                    continue;
                }
                match node.parent {
                    None => {
                        for id in entry.candidates {
                            if self.emitted.insert(id) {
                                self.results.push(NodeId::new(id));
                                self.stats.results += 1;
                            }
                        }
                    }
                    Some(p) => {
                        // Upload to the *single* parent match this entry
                        // extends.
                        self.stats.upload_probes += 1;
                        let slot_bit = 1u64 << node.parent_slot.expect("non-root has a slot");
                        let emitted = &self.emitted;
                        let parent = &mut self.stacks[p][entry.parent_index];
                        match node.parent_counter {
                            Some(ci) => parent.counts[ci] += 1,
                            None => parent.slots |= slot_bit,
                        }
                        for id in entry.candidates {
                            if !emitted.contains(&id) && !parent.candidates.contains(&id) {
                                parent.candidates.push(id);
                                self.stats.candidates_merged += 1;
                            }
                        }
                    }
                }
            }
        }
        if level == 1 {
            debug_assert!(self.stacks.iter().all(Vec::is_empty));
            self.emitted.clear();
        }
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
}

impl StreamEngine for NaiveEnum {
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

    fn text(&mut self, text: &str) {
        for &v in self.machine.text_nodes() {
            // All matches of the innermost element accumulate text.
            let depth = self.depth;
            for e in self.stacks[v].iter_mut().rev() {
                if e.level != depth {
                    break;
                }
                e.text.push_str(text);
            }
        }
    }

    fn end_element_sym(&mut self, sym: Symbol, _tag: &str, level: u32) {
        self.end_sym(sym, level)
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(self.machine.symbols())
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        self.machine.needs_attributes(sym)
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.results)
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm::engine::run_engine;
    use twigm::twig::TwigM;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = NaiveEnum::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

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
                xml.push_str("<e/>");
            }
            xml.push_str("</b>");
        }
        for i in 0..n {
            if i == n - 1 {
                xml.push_str("<d/>");
            }
            xml.push_str("</a>");
        }
        xml
    }

    #[test]
    fn agrees_with_twigm_on_paper_example() {
        let xml = figure1_doc(4);
        for q in ["//a[d]//b[e]//c", "//a//b//c", "//a[d]/b[e]//c"] {
            let query = parse(q).unwrap();
            let naive = {
                let engine = NaiveEnum::new(&query).unwrap();
                run_engine(engine, xml.as_bytes()).unwrap().0
            };
            let twig = {
                let engine = TwigM::new(&query).unwrap();
                run_engine(engine, xml.as_bytes()).unwrap().0
            };
            let mut a: Vec<u64> = naive.into_iter().map(NodeId::get).collect();
            let mut b: Vec<u64> = twig.into_iter().map(NodeId::get).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "disagreement on {q}");
        }
    }

    #[test]
    fn materializes_quadratically_many_matches() {
        // On figure 1(a) with //a//b//c: the b node accumulates one match
        // per (b element, a match) pair — n(n+1)/2-ish growth versus
        // TwigM's 2n+1.
        let n = 12;
        let xml = figure1_doc(n);
        let query = parse("//a//b//c").unwrap();
        let mut naive = NaiveEnum::new(&query).unwrap();
        let _ = run_engine(&mut naive, xml.as_bytes()).unwrap();
        let mut twig = TwigM::new(&query).unwrap();
        let _ = run_engine(&mut twig, xml.as_bytes()).unwrap();
        let n = n as u64;
        // TwigM: linear.
        assert_eq!(twig.stats().peak_entries, 2 * n + 1);
        // NaiveEnum: superlinear (n a-matches + n·n b-matches + n²
        // c-matches at peak).
        assert!(
            naive.stats().peak_entries >= n * n,
            "expected quadratic blow-up, got {}",
            naive.stats().peak_entries
        );
        assert!(naive.stats().tuples_materialized > twig.stats().pushes);
    }

    #[test]
    fn attribute_and_text_predicates() {
        let xml = r#"<r><p id="1">x</p><p>y</p></r>"#;
        assert_eq!(run("//p[@id]", xml).len(), 1);
        assert_eq!(run("//p[text() = 'y']", xml).len(), 1);
    }

    #[test]
    fn candidate_dedup_across_chains() {
        // c reachable via two (a, b) chains must be emitted once.
        let xml = "<a><a><b><c/><e/></b><d/></a><d/></a>";
        assert_eq!(run("//a[d]//b[e]//c", xml).len(), 1);
    }

    #[test]
    fn wildcard_and_folded_edges() {
        let xml = "<r><a><m><b/></m></a><a><b/></a></r>";
        assert_eq!(run("/r/a/*/b", xml).len(), 1);
        assert_eq!(run("//a//b", xml).len(), 2);
    }
}
