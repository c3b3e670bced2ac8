//! Differential checking of every engine against the DOM oracle, plus
//! Theorem 4.4 accounting assertions.

use std::fmt;

use twigm::engine::{run_engine, StreamEngine};
use twigm::{MultiTwigM, TwigM};
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_baselines::{LazyDfa, NaiveEnum};
use twigm_sax::{Event, NodeId, SaxError, SaxReader};
use twigm_xpath::Path;

/// Coarse classification of a failure, used to decide whether a shrink
/// step preserved "the same bug".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An engine's result set differs from the DOM oracle's.
    Divergence,
    /// An engine claiming Theorem 4.4 exceeded `|Q| * R` peak entries.
    Bound,
    /// An engine claiming the compact encoding materialized tuples.
    Tuples,
    /// Re-feeding under a chunk split changed results or peak memory.
    Resplit,
    /// A metamorphic rewrite's result-set relation does not hold.
    Metamorphic,
    /// Generated XML or query text failed to parse (generator or
    /// parser/printer bug).
    Parse,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Divergence => "divergence",
            ViolationKind::Bound => "bound",
            ViolationKind::Tuples => "tuples",
            ViolationKind::Resplit => "resplit",
            ViolationKind::Metamorphic => "metamorphic",
            ViolationKind::Parse => "parse",
        })
    }
}

/// One confirmed check failure.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What class of failure this is.
    pub kind: ViolationKind,
    /// Which engine (or harness stage) failed.
    pub engine: &'static str,
    /// The query under test, as XPath text.
    pub query: String,
    /// Human-readable specifics (expected/got sets, bound numbers, ...).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} on `{}`: {}",
            self.kind, self.engine, self.query, self.detail
        )
    }
}

/// Raw node ids, sorted, for comparison against [`oracle_ids`].
pub fn sorted(ids: Vec<NodeId>) -> Vec<u64> {
    let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

/// The DOM oracle's answer, or `None` when the document fails to parse
/// (reported by the caller as a [`ViolationKind::Parse`]).
pub fn oracle_ids(doc: &Document, query: &Path) -> Vec<u64> {
    sorted(InMemEval::new(doc).evaluate(query))
}

/// Runs one engine to completion and checks it against the expected set
/// and, when the engine claims one, the Theorem 4.4 bound.
fn check_engine<E: StreamEngine>(
    engine: E,
    name: &'static str,
    xml: &[u8],
    query: &Path,
    expected: &[u64],
    depth: u64,
    out: &mut Vec<Violation>,
) {
    let (ids, engine) = match run_engine(engine, xml) {
        Ok(pair) => pair,
        Err(e) => {
            out.push(Violation {
                kind: ViolationKind::Parse,
                engine: name,
                query: query.to_string(),
                detail: format!("engine run failed on oracle-parseable XML: {e}"),
            });
            return;
        }
    };
    let ids = sorted(ids);
    if ids != expected {
        out.push(Violation {
            kind: ViolationKind::Divergence,
            engine: name,
            query: query.to_string(),
            detail: format!("expected {expected:?}, got {ids:?}"),
        });
    }
    if let Some(q) = engine.machine_size() {
        let stats = engine.stats();
        let bound = q as u64 * depth;
        if stats.peak_entries > bound {
            out.push(Violation {
                kind: ViolationKind::Bound,
                engine: name,
                query: query.to_string(),
                detail: format!("peak_entries {} > |Q|*R = {q}*{depth}", stats.peak_entries),
            });
        }
        if stats.tuples_materialized != 0 {
            out.push(Violation {
                kind: ViolationKind::Tuples,
                engine: name,
                query: query.to_string(),
                detail: format!("materialized {} tuples", stats.tuples_materialized),
            });
        }
    }
}

/// Drives `twig` and a `multi` holding the same single query over `xml`
/// event by event, each fed attributes as its `needs_attributes` gate
/// asks. Returns the ids `multi` decided, and the first
/// difference between the two: the ids drained after some event, or
/// else the final [`EngineStats`](twigm::EngineStats).
fn lockstep(
    twig: &mut TwigM,
    multi: &mut MultiTwigM,
    xml: &[u8],
) -> Result<(Vec<NodeId>, Option<String>), SaxError> {
    let twig_table = twig.machine().symbols().clone();
    let multi_table = MultiTwigM::symbols(multi).clone();
    let mut reader = SaxReader::from_bytes(xml);
    let mut ids = Vec::new();
    let mut difference = None;
    let mut events = 0u64;
    while let Some(event) = reader.next_event()? {
        events += 1;
        match event {
            Event::Start(tag) => {
                let (name, level, id) = (tag.name(), tag.level(), tag.id());
                let (twig_sym, multi_sym) = (twig_table.lookup(name), multi_table.lookup(name));
                // Each engine sees attributes only where its own gate asks
                // for them, as under `engine::drive`, so a gate that
                // misses a tested tag shows up as a difference.
                let twig_wants = twig.needs_attributes(twig_sym);
                let multi_wants = MultiTwigM::needs_attributes(multi, multi_sym);
                let mut attrs = Vec::new();
                if twig_wants || multi_wants {
                    attrs = tag.attributes().collect::<Result<Vec<_>, _>>()?;
                }
                let gated = |wants: bool| if wants { &attrs[..] } else { &[] };
                twig.start_element_sym(twig_sym, name, gated(twig_wants), level, id);
                multi.start_element_sym(multi_sym, gated(multi_wants), level, id);
            }
            Event::End(tag) => {
                let (name, level) = (tag.name(), tag.level());
                twig.end_element_sym(twig_table.lookup(name), name, level);
                multi.end_element_sym(multi_table.lookup(name), level);
            }
            Event::Text(text) => {
                twig.text(&text);
                multi.text(&text);
            }
            Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
        }
        let single = twig.take_results();
        let tagged: Vec<NodeId> = multi
            .take_tagged_results()
            .into_iter()
            .map(|r| r.node)
            .collect();
        if difference.is_none() && single != tagged {
            difference = Some(format!(
                "after event {events}: TwigM decided {single:?}, MultiTwigM {tagged:?}"
            ));
        }
        ids.extend(tagged);
    }
    if difference.is_none() && twig.stats() != multi.stats() {
        difference = Some(format!(
            "final stats differ: TwigM {:?}, MultiTwigM {:?}",
            twig.stats(),
            multi.stats()
        ));
    }
    Ok((ids, difference))
}

/// Differentially checks every applicable engine on one (document,
/// query) pair. `doc` must be the parse of `xml`.
pub fn check_case(doc: &Document, xml: &[u8], query: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    let expected = oracle_ids(doc, query);
    let depth = doc.depth() as u64;

    match TwigM::new(query) {
        Ok(e) => check_engine(e, "TwigM", xml, query, &expected, depth, &mut out),
        Err(e) => {
            out.push(Violation {
                kind: ViolationKind::Parse,
                engine: "TwigM",
                query: query.to_string(),
                detail: format!("compile failed: {e}"),
            });
            return out;
        }
    }
    if let Ok(e) = NaiveEnum::new(query) {
        // NaiveEnum keeps one entry per (element, parent-match) pair, so
        // it claims no bound (machine_size is None) — divergence only.
        check_engine(e, "NaiveEnum", xml, query, &expected, depth, &mut out);
    }
    if query.is_predicate_free() {
        if let Ok(e) = LazyDfa::new(query) {
            check_engine(e, "LazyDfa", xml, query, &expected, depth, &mut out);
        }
    }

    // The multi-query machine with a single registered query runs the
    // same transitions as TwigM: it must decide the same ids after every
    // event and end with the same counters, and its aggregated peak
    // respects the summed-|Q| bound.
    let mut multi = MultiTwigM::new();
    if multi.add_query(query).is_ok() {
        let mut twig = TwigM::new(query).expect("TwigM compiled this query above");
        match lockstep(&mut twig, &mut multi, xml) {
            Ok((ids, difference)) => {
                if let Some(detail) = difference {
                    out.push(Violation {
                        kind: ViolationKind::Divergence,
                        engine: "MultiTwigM",
                        query: query.to_string(),
                        detail,
                    });
                }
                let ids = sorted(ids);
                if ids != expected {
                    out.push(Violation {
                        kind: ViolationKind::Divergence,
                        engine: "MultiTwigM",
                        query: query.to_string(),
                        detail: format!("expected {expected:?}, got {ids:?}"),
                    });
                }
                let bound = multi.machine_size() as u64 * depth;
                if multi.stats().peak_entries > bound {
                    out.push(Violation {
                        kind: ViolationKind::Bound,
                        engine: "MultiTwigM",
                        query: query.to_string(),
                        detail: format!(
                            "peak_entries {} > |Q|*R = {}*{depth}",
                            multi.stats().peak_entries,
                            multi.machine_size()
                        ),
                    });
                }
            }
            Err(e) => out.push(Violation {
                kind: ViolationKind::Parse,
                engine: "MultiTwigM",
                query: query.to_string(),
                detail: format!("run failed: {e}"),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn clean_case_has_no_violations() {
        let xml = b"<r><a><b/></a><a/></r>";
        let doc = Document::parse_bytes(xml).unwrap();
        let query = parse("//a[b]").unwrap();
        assert!(check_case(&doc, xml, &query).is_empty());
    }

    #[test]
    fn oracle_matches_manual_expectation() {
        let xml = b"<r><a><b/></a><a/></r>";
        let doc = Document::parse_bytes(xml).unwrap();
        assert_eq!(oracle_ids(&doc, &parse("//a").unwrap()), vec![1, 3]);
    }

    #[test]
    fn divergence_is_detected() {
        // A deliberately broken "engine": claims everything matches.
        struct LiarStats(twigm::stats::EngineStats, Vec<NodeId>);
        impl StreamEngine for LiarStats {
            fn start_element_sym(
                &mut self,
                _sym: twigm_sax::Symbol,
                _tag: &str,
                _attrs: &[twigm_sax::Attribute<'_>],
                _level: u32,
                id: NodeId,
            ) -> bool {
                self.1.push(id);
                true
            }
            fn end_element_sym(&mut self, _sym: twigm_sax::Symbol, _tag: &str, _level: u32) {}
            fn take_results(&mut self) -> Vec<NodeId> {
                std::mem::take(&mut self.1)
            }
            fn stats(&self) -> &twigm::stats::EngineStats {
                &self.0
            }
        }
        let xml = b"<r><a/></r>";
        let query = parse("//a").unwrap();
        let mut out = Vec::new();
        check_engine(
            LiarStats(Default::default(), Vec::new()),
            "Liar",
            xml,
            &query,
            &[1],
            2,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::Divergence);
    }
}
