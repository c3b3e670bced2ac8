//! Tests of streaming-specific behaviour: incremental output, bounded
//! state, engine reuse across documents, and robustness against
//! pathological inputs.

use twigm::engine::run_engine;
use twigm::{StreamEngine, TwigM};
use twigm_sax::{NodeId, Symbol};
use twigm_xpath::parse;

/// Hand-driven events by tag name: one interner lookup, then the symbol
/// entry points the driver uses.
trait ByName {
    fn start(&mut self, tag: &str, level: u32, id: u64) -> bool;
    fn end(&mut self, tag: &str, level: u32);
}

impl<E: StreamEngine> ByName for E {
    fn start(&mut self, tag: &str, level: u32, id: u64) -> bool {
        let sym = self.symbols().map_or(Symbol::UNKNOWN, |t| t.lookup(tag));
        self.start_element_sym(sym, tag, &[], level, NodeId::new(id))
    }

    fn end(&mut self, tag: &str, level: u32) {
        let sym = self.symbols().map_or(Symbol::UNKNOWN, |t| t.lookup(tag));
        self.end_element_sym(sym, tag, level)
    }
}

/// A predicate-free query must deliver each result at the return node's
/// start tag — i.e. before the rest of the document is read (PathM's
/// rule, paper §3.1, which TwigM keeps).
#[test]
fn predicate_free_queries_emit_at_start_tag() {
    let query = parse("//a/b").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    engine.start("r", 1, 0);
    engine.start("a", 2, 1);
    let was_candidate = engine.start("b", 3, 2);
    assert!(was_candidate);
    // The result is available immediately, with the element still open.
    assert_eq!(engine.take_results(), vec![NodeId::new(2)]);
}

/// TwigM delivers a result at the earliest event where the decision is
/// complete — with eager delivery that is the `</d>` that completes the
/// predicate, well before the enclosing `</a>` or end of stream.
#[test]
fn twigm_emits_when_decidable_not_at_eof() {
    let query = parse("//a[d]/b").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    engine.start("r", 1, 0);
    engine.start("a", 2, 1);
    engine.start("b", 3, 2);
    engine.end("b", 3);
    assert!(
        engine.take_results().is_empty(),
        "undecidable before the predicate resolves"
    );
    engine.start("d", 3, 3);
    engine.end("d", 3);
    // The </d> completed a's branch match: b is decided immediately.
    assert_eq!(engine.take_results(), vec![NodeId::new(2)]);
    // A later b is decided at its own START tag (a's formula already
    // holds along the chain).
    engine.start("b", 3, 4);
    assert_eq!(engine.take_results(), vec![NodeId::new(4)]);
    engine.end("b", 3);
    engine.end("a", 2);
    engine.end("r", 1);
    assert!(engine.take_results().is_empty(), "no duplicates at pops");
}

/// One engine instance can process a sequence of documents (the
/// streaming deployment of the paper's intro: continuous arrivals).
#[test]
fn engines_reset_cleanly_between_documents() {
    let query = parse("//a[b]//c").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    for round in 0..3 {
        let (ids, _) = run_engine(&mut engine, &b"<a><b/><x><c/></x></a>"[..]).unwrap();
        assert_eq!(ids.len(), 1, "round {round}");
        assert_eq!(engine.total_entries(), 0, "round {round}");
    }
    // A non-matching document between matching ones.
    let (ids, _) = run_engine(&mut engine, &b"<a><x><c/></x></a>"[..]).unwrap();
    assert!(ids.is_empty());
    let (ids, _) = run_engine(&mut engine, &b"<a><b/><x><c/></x></a>"[..]).unwrap();
    assert_eq!(ids.len(), 1);
}

/// Deep documents: stacks grow linearly with depth, nothing overflows.
#[test]
fn very_deep_documents_are_handled() {
    let depth = 20_000usize;
    let mut xml = String::with_capacity(depth * 7 + 16);
    for _ in 0..depth {
        xml.push_str("<a>");
    }
    xml.push_str("<b/>");
    for _ in 0..depth {
        xml.push_str("</a>");
    }
    let query = parse("//a[b]").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let (ids, _) = run_engine(&mut engine, xml.as_bytes()).unwrap();
    // Only the innermost `a` has a `b` CHILD.
    assert_eq!(ids.len(), 1);
    assert_eq!(engine.stats().peak_entries as usize, depth + 1);
}

/// Wide documents: siblings do not accumulate state.
#[test]
fn very_wide_documents_use_constant_state() {
    let mut xml = String::from("<r>");
    for i in 0..50_000 {
        xml.push_str(if i % 2 == 0 { "<a><b/></a>" } else { "<a/>" });
    }
    xml.push_str("</r>");
    let query = parse("//a[b]").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let (ids, _) = run_engine(&mut engine, xml.as_bytes()).unwrap();
    assert_eq!(ids.len(), 25_000);
    assert!(engine.stats().peak_entries <= 3);
}

/// Text chunking (the reader may split long text) must not change value
/// predicate outcomes.
#[test]
fn split_text_events_evaluate_like_whole_text() {
    let query = parse("//t[text() = 'hello world']").unwrap();
    let run_split = |chunks: &[&str]| {
        let mut engine = TwigM::new(&query).unwrap();
        engine.start("t", 1, 0);
        for c in chunks {
            engine.text(c);
        }
        engine.end("t", 1);
        engine.take_results().len()
    };
    assert_eq!(run_split(&["hello world"]), 1);
    assert_eq!(run_split(&["hello", " ", "world"]), 1);
    assert_eq!(run_split(&["hel", "lo wor", "ld"]), 1);
    assert_eq!(run_split(&["hello", "world"]), 0); // missing space
}

/// Results drained mid-stream must not reappear at the end.
#[test]
fn incremental_draining_is_exact() {
    let query = parse("//a").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let mut total = 0;
    engine.start("r", 1, 0);
    for i in 0..100u64 {
        engine.start("a", 2, i + 1);
        engine.end("a", 2);
        total += engine.take_results().len();
    }
    engine.end("r", 1);
    total += engine.take_results().len();
    assert_eq!(total, 100);
}

/// Attributes with entity references and mixed content round through the
/// whole pipeline.
#[test]
fn escaped_content_through_the_pipeline() {
    let xml = br#"<r><p t="a&amp;b">x &lt; y</p><p t="ab">z</p></r>"#;
    let ids = twigm::evaluate(&parse("//p[@t = 'a&b']").unwrap(), &xml[..]).unwrap();
    assert_eq!(ids.len(), 1);
    let ids = twigm::evaluate(&parse("//p[text() = 'x < y']").unwrap(), &xml[..]).unwrap();
    assert_eq!(ids.len(), 1);
}

/// Malformed streams surface errors without panicking, in every engine.
#[test]
fn malformed_streams_error_cleanly() {
    for xml in [&b"<a><b></a>"[..], b"<a>", b"", b"<a/><b/>"] {
        let query = parse("//a").unwrap();
        assert!(run_engine(TwigM::new(&query).unwrap(), xml).is_err());
    }
}
