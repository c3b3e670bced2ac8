//! The lazy-DFA baseline (the XMLTK class) for `XP{/,//,*}`.
//!
//! The query is compiled to an NFA over root-to-node tag sequences
//! (position `j` = "the first `j` steps are matched"; a `//` step allows
//! staying at position `j-1` while descending). During the stream the
//! engine keeps a stack of DFA states — one per open element — and
//! determinizes *lazily*: the transition `(state, tag)` is computed by
//! subset construction on first use and cached, exactly like XMLTK's lazy
//! DFA. Per event the steady-state cost is a single hash lookup, which is
//! why this class wins on predicate-free queries (paper figure 7); the
//! price is a state space that can grow exponentially with the number of
//! wildcards-plus-descendants, reproduced by experiment E9.

use twigm::engine::StreamEngine;
use twigm::fxhash::FxHashMap;
use twigm::machine::MachineError;
use twigm::stats::EngineStats;
use twigm_sax::{Attribute, NodeId, Symbol};
use twigm_xpath::{Axis, NameTest, Path};

/// One NFA position: `j` means "steps `0..j` matched".
type NfaSet = Vec<u16>;

/// The lazy-DFA streaming engine for predicate-free queries.
pub struct LazyDfa {
    /// Step name tests, indexed by position (position `j` consumes
    /// `steps[j]`).
    steps: Vec<(Axis, NameTest)>,
    /// Interned DFA states.
    states: Vec<NfaSet>,
    state_ids: FxHashMap<NfaSet, usize>,
    /// Transition cache: (state, tag) → state.
    transitions: FxHashMap<(usize, String), usize>,
    /// Which DFA states are accepting (contain the final NFA position).
    accepting: Vec<bool>,
    /// Stack of DFA states, one per open element; bottom is the state
    /// before the root element.
    stack: Vec<usize>,
    results: Vec<NodeId>,
    stats: EngineStats,
}

impl LazyDfa {
    /// Compiles a predicate-free query.
    ///
    /// Predicates cannot be expressed by a finite automaton (the paper's
    /// §1, citing \[25\]); like XMLTK, this engine debug-asserts the query
    /// is in `XP{/,//,*}` and ignores predicates otherwise.
    pub fn new(query: &Path) -> Result<Self, MachineError> {
        debug_assert!(
            query.is_predicate_free(),
            "LazyDfa evaluates XP{{/,//,*}}; predicates need TwigM"
        );
        let steps: Vec<(Axis, NameTest)> = query
            .steps
            .iter()
            .map(|s| (s.axis, s.test.clone()))
            .collect();
        let mut dfa = LazyDfa {
            steps,
            states: Vec::new(),
            state_ids: FxHashMap::default(),
            transitions: FxHashMap::default(),
            accepting: Vec::new(),
            stack: Vec::new(),
            results: Vec::new(),
            stats: EngineStats::default(),
        };
        let initial = dfa.intern(vec![0]);
        dfa.stack.push(initial);
        Ok(dfa)
    }

    /// Number of DFA states materialized so far (XMLTK's memory story —
    /// and its exponential worst case with many wildcards).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    fn intern(&mut self, set: NfaSet) -> usize {
        if let Some(&id) = self.state_ids.get(&set) {
            return id;
        }
        let id = self.states.len();
        let accepting = set.contains(&(self.steps.len() as u16));
        self.states.push(set.clone());
        self.state_ids.insert(set, id);
        self.accepting.push(accepting);
        id
    }

    /// Subset-construction step: all NFA positions reachable from `from`
    /// by descending into an element named `tag`.
    fn successors(&self, from: &NfaSet, tag: &str) -> NfaSet {
        let n = self.steps.len() as u16;
        let mut next = Vec::new();
        for &j in from {
            if j < n {
                let (axis, test) = &self.steps[j as usize];
                // A `//` step may treat this element as an intermediate
                // ancestor and stay at position j.
                if *axis == Axis::Descendant {
                    next.push(j);
                }
                if test.matches(tag) {
                    next.push(j + 1);
                }
            }
            // Position n (full match) never advances: descendants of a
            // match are not matches unless reached independently.
        }
        next.sort_unstable();
        next.dedup();
        next
    }

    fn transition(&mut self, state: usize, tag: &str) -> usize {
        if let Some(&to) = self.transitions.get(&(state, tag.to_string())) {
            return to;
        }
        let set = self.states[state].clone();
        let next = self.successors(&set, tag);
        let to = self.intern(next);
        self.transitions.insert((state, tag.to_string()), to);
        to
    }
}

/// No interner: the driver hands [`Symbol::UNKNOWN`] and the DFA
/// transitions on the tag name.
impl StreamEngine for LazyDfa {
    fn start_element_sym(
        &mut self,
        _sym: Symbol,
        tag: &str,
        _attrs: &[Attribute<'_>],
        _level: u32,
        id: NodeId,
    ) -> bool {
        self.stats.start_events += 1;
        let current = *self.stack.last().expect("stack holds the initial state");
        let next = self.transition(current, tag);
        self.stack.push(next);
        self.stats.pushes += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(self.stack.len() as u64);
        if self.accepting[next] {
            self.results.push(id);
            self.stats.results += 1;
            true
        } else {
            false
        }
    }

    fn end_element_sym(&mut self, _sym: Symbol, _tag: &str, _level: u32) {
        self.stats.end_events += 1;
        self.stack.pop();
        self.stats.pops += 1;
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
    use twigm::TwigM;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = LazyDfa::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        ids.into_iter().map(NodeId::get).collect()
    }

    #[test]
    fn simple_paths() {
        let xml = "<r><a><b/></a><b/><c><a><b/></a></c></r>";
        assert_eq!(run("//a/b", xml).len(), 2);
        assert_eq!(run("//b", xml).len(), 3);
        assert_eq!(run("/r/b", xml).len(), 1);
        assert_eq!(run("/r/*/b", xml).len(), 1);
    }

    #[test]
    fn descendants_of_matches_are_not_matches() {
        let xml = "<a><b><b/></b></a>";
        assert_eq!(run("/a/b", xml), vec![1]);
        assert_eq!(run("//b", xml).len(), 2);
    }

    #[test]
    fn recursive_data() {
        let xml = "<a><a><a/></a></a>";
        assert_eq!(run("//a", xml).len(), 3);
        assert_eq!(run("//a//a", xml).len(), 2);
        assert_eq!(run("/a/a", xml), vec![1]);
    }

    #[test]
    fn agrees_with_twigm_on_mixed_queries() {
        let xml = "<r><x><y><z/></y></x><y><z><z/></z></y><w><x><z/></x></w></r>";
        for q in ["//z", "//y//z", "/r/*/z", "//x/*", "//*//z", "/r//y/z"] {
            let query = parse(q).unwrap();
            let dfa = {
                let e = LazyDfa::new(&query).unwrap();
                run_engine(e, xml.as_bytes()).unwrap().0
            };
            let twig = {
                let e = TwigM::new(&query).unwrap();
                run_engine(e, xml.as_bytes()).unwrap().0
            };
            assert_eq!(dfa, twig, "disagreement on {q}");
        }
    }

    #[test]
    fn states_are_built_lazily() {
        let query = parse("//a/b/c").unwrap();
        let mut engine = LazyDfa::new(&query).unwrap();
        assert_eq!(engine.state_count(), 1);
        let _ = run_engine(&mut engine, b"<r><a><b><c/></b></a></r>" as &[u8]).unwrap();
        let after_first = engine.state_count();
        assert!(after_first > 1);
        // A second identical document adds no states.
        let _ = run_engine(&mut engine, b"<r><a><b><c/></b></a></r>" as &[u8]).unwrap();
        assert_eq!(engine.state_count(), after_first);
    }

    #[test]
    fn wildcard_descendant_mixes_grow_the_state_space() {
        // //*//*//* over varied data forces many distinct subset states.
        let query = parse("//*//*//*").unwrap();
        let mut engine = LazyDfa::new(&query).unwrap();
        let xml = "<a><b><c><d><e/></d></c></b></a>";
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        assert!(engine.state_count() >= 4);
        let ids = {
            let e = LazyDfa::new(&query).unwrap();
            run_engine(e, xml.as_bytes()).unwrap().0
        };
        // Elements at depth >= 3 all match.
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn constant_stack_memory() {
        let query = parse("//a/b").unwrap();
        let mut engine = LazyDfa::new(&query).unwrap();
        let xml = "<r><a><b/></a><a><b/></a><a><b/></a></r>";
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        // Stack depth peaked at document depth + 1 (initial state).
        assert_eq!(engine.stats().peak_entries, 4);
    }
}
