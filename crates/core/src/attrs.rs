//! Attribute-value output for `//path/@attr` queries.
//!
//! The machines decide *which elements* match (the id of the attribute's
//! owner element); [`AttrCollector`] additionally captures the attribute
//! *value* at the start tag and releases `(owner id, value)` pairs as the
//! wrapped engine decides each owner — the attribute analogue of
//! [`crate::fragments::FragmentCollector`].

use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};

use crate::engine::StreamEngine;
use crate::fxhash::FxHashMap;
use crate::stats::EngineStats;

/// Wraps an engine compiled from a query with a trailing `/@attr`
/// selector and captures the attribute values of decided matches.
pub struct AttrCollector<E> {
    inner: E,
    attr: String,
    /// Values of undecided candidates.
    pending: FxHashMap<u64, String>,
    /// Decided `(owner element id, attribute value)` pairs.
    values: Vec<(NodeId, String)>,
    result_ids: Vec<NodeId>,
}

impl<E: StreamEngine> AttrCollector<E> {
    /// Wraps `inner`; `attr` must be the query's trailing attribute name.
    pub fn new(inner: E, attr: impl Into<String>) -> Self {
        AttrCollector {
            inner,
            attr: attr.into(),
            pending: FxHashMap::default(),
            values: Vec::new(),
            result_ids: Vec::new(),
        }
    }

    /// Drains the decided `(owner id, value)` pairs, in decision order.
    pub fn take_values(&mut self) -> Vec<(NodeId, String)> {
        std::mem::take(&mut self.values)
    }

    fn drain_decisions(&mut self) {
        for id in self.inner.take_results() {
            self.result_ids.push(id);
            // The engine's decision required AttrExists, so the value
            // was recorded at the start tag.
            if let Some(value) = self.pending.remove(&id.get()) {
                self.values.push((id, value));
            }
        }
    }
}

/// Forwards the inner engine's interner, so the driver's symbols reach it
/// unchanged.
impl<E: StreamEngine> StreamEngine for AttrCollector<E> {
    fn start_element_sym(
        &mut self,
        sym: Symbol,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        let became_candidate = self.inner.start_element_sym(sym, tag, attrs, level, id);
        if became_candidate {
            if let Some(a) = attrs.iter().find(|a| a.name == self.attr) {
                self.pending.insert(id.get(), a.value.clone().into_owned());
            }
        }
        self.drain_decisions();
        became_candidate
    }

    fn text(&mut self, text: &str) {
        self.inner.text(text);
    }

    fn end_element_sym(&mut self, sym: Symbol, tag: &str, level: u32) {
        self.inner.end_element_sym(sym, tag, level);
        self.drain_decisions();
        if level == 1 {
            self.pending.clear();
        }
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        self.inner.symbols()
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.result_ids)
    }

    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    fn machine_size(&self) -> Option<usize> {
        self.inner.machine_size()
    }
}

/// One-call convenience: evaluates a `/@attr` query and returns the
/// `(owner id, value)` pairs.
///
/// # Example
///
/// ```
/// let query = twigm_xpath::parse("//book[title]/@year").unwrap();
/// let xml = br#"<bib><book year="2006"><title/></book><book year="1999"/></bib>"#;
/// let values = twigm::attrs::evaluate_attr(&query, &xml[..]).unwrap();
/// assert_eq!(values.len(), 1);
/// assert_eq!(values[0].1, "2006");
/// ```
pub fn evaluate_attr<R: std::io::Read>(
    query: &twigm_xpath::Path,
    src: R,
) -> Result<Vec<(NodeId, String)>, crate::engine::EvalError> {
    let attr = query
        .attr
        .clone()
        .expect("evaluate_attr requires a query with a trailing /@attr selector");
    let engine = crate::engine::Engine::new(query)?;
    let collector = AttrCollector::new(engine, attr);
    let (_, mut collector) = crate::engine::run_engine(collector, src)?;
    Ok(collector.take_values())
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn values_are_captured_for_decided_matches() {
        let query = parse("//book/@year").unwrap();
        let xml = br#"<bib><book year="1999"/><book/><book year="2006"/></bib>"#;
        let values = evaluate_attr(&query, &xml[..]).unwrap();
        let values: Vec<&str> = values.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(values, ["1999", "2006"]);
    }

    #[test]
    fn predicates_gate_attribute_results() {
        let query = parse("//book[title]/@year").unwrap();
        let xml = br#"<bib><book year="1999"/><book year="2006"><title/></book></bib>"#;
        let values = evaluate_attr(&query, &xml[..]).unwrap();
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].1, "2006");
    }

    #[test]
    fn entity_decoded_values_survive() {
        let query = parse("//a/@v").unwrap();
        let xml = br#"<r><a v="x &amp; y"/></r>"#;
        let values = evaluate_attr(&query, &xml[..]).unwrap();
        assert_eq!(values[0].1, "x & y");
    }

    #[test]
    fn recursive_owners_each_report() {
        let query = parse("//a/@v").unwrap();
        let xml = br#"<a v="outer"><a v="inner"/></a>"#;
        let values = evaluate_attr(&query, &xml[..]).unwrap();
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn ids_match_plain_evaluation() {
        let query = parse("//book/@year").unwrap();
        let xml = br#"<bib><book year="1999"/><book year="2006"/></bib>"#;
        let pairs = evaluate_attr(&query, &xml[..]).unwrap();
        let plain = crate::evaluate(&query, &xml[..]).unwrap();
        let pair_ids: Vec<u64> = pairs.iter().map(|(id, _)| id.get()).collect();
        let mut plain_ids: Vec<u64> = plain.into_iter().map(NodeId::get).collect();
        plain_ids.sort_unstable();
        let mut sorted_pairs = pair_ids.clone();
        sorted_pairs.sort_unstable();
        assert_eq!(sorted_pairs, plain_ids);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    #[should_panic(expected = "trailing /@attr")]
    fn evaluate_attr_requires_an_attr_query() {
        let query = parse("//book").unwrap();
        let _ = evaluate_attr(&query, &b"<r/>"[..]);
    }

    #[test]
    fn collector_survives_multiple_documents() {
        let query = parse("//a/@v").unwrap();
        let engine = crate::engine::Engine::new(&query).unwrap();
        let mut collector = AttrCollector::new(engine, "v");
        for round in 0..2 {
            let xml = format!(r#"<r><a v="doc{round}"/></r>"#);
            let _ = crate::engine::run_engine(&mut collector, xml.as_bytes()).unwrap();
            let values = collector.take_values();
            assert_eq!(values.len(), 1, "round {round}");
            assert_eq!(values[0].1, format!("doc{round}"));
        }
    }
}
