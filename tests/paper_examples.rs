//! End-to-end walkthroughs of every worked example in the paper,
//! asserting both the answers and the complexity claims.

use twigm::engine::run_engine;
use twigm::{StreamEngine, TwigM};
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_datagen::recursive::figure1_string;
use twigm_sax::NodeId;
use twigm_xpath::parse;

fn ids<E: StreamEngine>(engine: E, xml: &str) -> Vec<u64> {
    let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
    let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

/// §1 / figure 1: query Q1 = //a[d]//b[e]//c over the n-nested document.
/// Only (a1, b1, c1) satisfies the predicates, so c1 is the unique
/// solution despite its n² pattern matches.
#[test]
fn figure1_q1_selects_exactly_c1() {
    for n in [1usize, 2, 3, 8, 40] {
        let xml = figure1_string(n);
        let query = parse("//a[d]//b[e]//c").unwrap();
        let result = ids(TwigM::new(&query).unwrap(), &xml);
        // c is the (2n)th element in pre-order (0-based).
        assert_eq!(result, vec![2 * n as u64], "n = {n}");
    }
}

/// §1: the intro's variant //a[d]/b[e]//c (child axis between a and b)
/// has no solution for n >= 2: b1 is a child of a_n, but d hangs under
/// a1.
#[test]
fn intro_variant_with_child_axis_is_empty() {
    for n in [2usize, 3, 10] {
        let xml = figure1_string(n);
        let query = parse("//a[d]/b[e]//c").unwrap();
        assert!(ids(TwigM::new(&query).unwrap(), &xml).is_empty(), "n = {n}");
    }
    // For n = 1, a1 = a_n and the match exists.
    let query = parse("//a[d]/b[e]//c").unwrap();
    assert_eq!(
        ids(TwigM::new(&query).unwrap(), &figure1_string(1)),
        vec![2]
    );
}

/// §1 contribution 1 and §3.3: TwigM stores 2n+1 stack entries encoding
/// the n² pattern matches of c1 — measured, not asserted rhetorically.
#[test]
fn compact_encoding_bound_holds_across_n() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    for n in [2u64, 8, 32, 128] {
        let xml = figure1_string(n as usize);
        let mut engine = TwigM::new(&query).unwrap();
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        assert_eq!(engine.stats().peak_entries, 2 * n + 1, "n = {n}");
        assert_eq!(engine.stats().tuples_materialized, 0);
    }
}

/// §3.1 / figure 2: the PathM example //a//b//c over nested a*, b*, c.
/// TwigM, which generalises PathM, emits c1 at its start tag.
#[test]
fn figure2_pathm_example() {
    let n = 4;
    let xml = figure1_string(n);
    let query = parse("//a//b//c").unwrap();
    assert_eq!(ids(TwigM::new(&query).unwrap(), &xml), vec![2 * n as u64]);
    // The smaller instance of the figure: c1 is decided on its start tag.
    let mut engine = TwigM::new(&query).unwrap();
    let (decided, _) = run_engine(&mut engine, &b"<a><a><b><b><c/></b></b></a></a>"[..]).unwrap();
    assert_eq!(decided, vec![NodeId::new(4)]);
    assert_eq!(engine.stats().peak_candidates, 0, "nothing is buffered");
}

/// §3.2 / figure 3: the BranchM example Q3 = /a[d]/b[e]/c over
/// a1(b1(c1, e1), d1) outputs {c1}; TwigM, which generalises BranchM,
/// agrees.
#[test]
fn figure3_branchm_example() {
    let xml = "<a><b><c/><e/></b><d/></a>";
    let query = parse("/a[d]/b[e]/c").unwrap();
    assert_eq!(ids(TwigM::new(&query).unwrap(), xml), vec![2]);
    // Remove d: no solution.
    let xml = "<a><b><c/><e/></b></a>";
    assert!(ids(TwigM::new(&query).unwrap(), xml).is_empty());
}

/// §3.3 / figure 4: the machine for Q1 has five nodes (a, b, c, d, e)
/// and the d/e predicate edges are exact while spine edges are ≥.
#[test]
fn figure4_machine_shape() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    let engine = TwigM::new(&query).unwrap();
    assert_eq!(engine.machine().len(), 5);
}

/// §2 Proposition 2.1: active nodes (and hence per-stack entries) are
/// bounded by document depth.
#[test]
fn stack_sizes_bounded_by_depth() {
    // A broad, shallow document: many siblings, depth 3.
    let mut xml = String::from("<r>");
    for _ in 0..500 {
        xml.push_str("<a><b/></a>");
    }
    xml.push_str("</r>");
    let query = parse("//a[b]").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
    // Depth 3 bounds each stack; two stacked nodes -> peak <= 3.
    assert!(engine.stats().peak_entries <= 3);
    assert_eq!(engine.stats().results, 500);
}

/// The DOM oracle's ids for `query` over `xml`, sorted.
fn oracle(query: &str, xml: &str) -> Vec<u64> {
    let doc = Document::parse_bytes(xml.as_bytes()).unwrap();
    let found = InMemEval::new(&doc).evaluate(&parse(query).unwrap());
    let mut ids: Vec<u64> = found.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

/// The paper's §3 sub-languages — `XP{/,//,*}` (PathM's) and `XP{/,[]}`
/// (BranchM's) — run on TwigM, the one machine, and match the DOM
/// oracle. The expected ids are the ones the two sub-machines produced.
#[test]
fn path_and_branch_queries_match_the_oracle() {
    let shared = "<a><b><c/><e/></b><b><c/></b><d/></a>";
    let cases: &[(&str, &str, &[u64])] = &[
        // XP{/,//,*}.
        ("//b/c", shared, &[2, 5]),
        ("//c", shared, &[2, 5]),
        ("/a/*/c", shared, &[2, 5]),
        ("//*", shared, &[0, 1, 2, 3, 4, 5, 6]),
        ("/a//c", shared, &[2, 5]),
        ("//a//b", shared, &[1, 4]),
        ("//a//b//c", "<a><a><b><b><c/></b></b></a></a>", &[4]),
        (
            "//y",
            "<r><x><y/></x><y/><x><x><y/></x></x></r>",
            &[2, 3, 6],
        ),
        ("//a/b", "<r><a><b/><m><b/></m></a></r>", &[2]),
        ("//a//b", "<r><a><b/><m><b/></m></a></r>", &[2, 4]),
        ("/r/*/b", "<r><a><b/></a><c><b/></c></r>", &[2, 4]),
        ("/r/*", "<r><a><b/></a><c><b/></c></r>", &[1, 3]),
        ("//*", "<r><a><b/></a><c><b/></c></r>", &[0, 1, 2, 3, 4]),
        ("//zzz", "<r><a/></r>", &[]),
        ("/a/b", "<r><b/></r>", &[]),
        ("//a", "<a><a><a/></a></a>", &[0, 1, 2]),
        ("//a//a", "<a><a><a/></a></a>", &[1, 2]),
        // XP{/,[]}.
        ("/a/b/c", shared, &[2, 5]),
        ("/a[d]/b/c", shared, &[2, 5]),
        ("/a/b[e]/c", shared, &[2]),
        ("/a[d]/b[e]/c", shared, &[2]),
        ("/a[b]", shared, &[0]),
        ("/a[b]/c", shared, &[]),
        ("/a/b[e]/c", "<a><b><c/><e/></b></a>", &[2]),
        ("/a/b[e]/c", "<a><b><c/></b><b><c/><e/></b></a>", &[4]),
        ("/a/b[e]/c", "<a><b><c/><c/><e/></b></a>", &[2, 3]),
        (
            "/a/b[@id = '7']/c",
            r#"<a><b id="7"><c>x</c></b></a>"#,
            &[2],
        ),
        ("/a/b[@id = '8']/c", r#"<a><b id="7"><c>x</c></b></a>"#, &[]),
        (
            "/a/b/c[text() = 'x']",
            r#"<a><b id="7"><c>x</c></b></a>"#,
            &[2],
        ),
        ("/a/b[c = 'x']/c", r#"<a><b id="7"><c>x</c></b></a>"#, &[2]),
        ("/a[b]", "<a><b/></a>", &[0]),
        ("/a[b]", "<a><c/></a>", &[]),
        ("/a/b/@id", r#"<a><b id="x"/><b/></a>"#, &[1]),
        // The full language, for contrast.
        ("//a[d]//c", shared, &[2, 5]),
        ("//a[b]/c", shared, &[]),
        ("/a/*[b]", "<a><x><b/></x><y/></a>", &[1]),
    ];
    for &(query, xml, expected) in cases {
        assert_eq!(oracle(query, xml), expected, "oracle: {query} over {xml}");
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        assert_eq!(ids(engine, xml), expected, "TwigM: {query} over {xml}");
    }
    // The sub-machines' memory claims hold on TwigM too.
    let peak = |query: &str, xml: &str| {
        let mut engine = TwigM::new(&parse(query).unwrap()).unwrap();
        run_engine(&mut engine, xml.as_bytes()).unwrap();
        engine.stats().peak_entries
    };
    // A path query: one entry per open matched element.
    assert_eq!(peak("//a//b", "<a><b></b><b></b><b></b><b></b></a>"), 2);
    // A branch query: at most |Q| = 5 live entries.
    assert!(peak("/a[d]/b[e]/c", "<a><b><c/><e/></b><d/></a>") <= 5);
}

/// §5.6: "memory usage remains at 1MB" — the streaming analogue we can
/// assert deterministically: peak stack entries stay constant as data
/// grows (here: grows 8x, peak identical).
#[test]
fn peak_entries_constant_as_data_grows() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    let peak_of = |copies: usize| {
        let mut xml = String::from("<root>");
        for _ in 0..copies {
            xml.push_str(&figure1_string(5));
        }
        xml.push_str("</root>");
        let mut engine = TwigM::new(&query).unwrap();
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        engine.stats().peak_entries
    };
    assert_eq!(peak_of(1), peak_of(8));
}

// ---------------------------------------------------------------------
// Golden pins for figures 2–4: exact NodeId sets from every engine whose
// language covers the query.
// ---------------------------------------------------------------------

use twigm::attrs::AttrCollector;
use twigm::fragments::FragmentCollector;
use twigm::MultiTwigM;
use twigm_baselines::{LazyDfa, NaiveEnum};

/// Asserts `query` over `xml` yields exactly `expected` (sorted ids)
/// from every applicable engine.
fn golden(query_text: &str, xml: &str, expected: &[u64]) {
    let query = parse(query_text).unwrap();

    assert_eq!(
        ids(TwigM::new(&query).unwrap(), xml),
        expected,
        "TwigM: {query_text}"
    );
    assert_eq!(
        ids(NaiveEnum::new(&query).unwrap(), xml),
        expected,
        "NaiveEnum: {query_text}"
    );
    if query.is_predicate_free() {
        assert_eq!(
            ids(LazyDfa::new(&query).unwrap(), xml),
            expected,
            "LazyDfa: {query_text}"
        );
    }
    let mut multi = MultiTwigM::new();
    let qid = multi.add_query(&query).unwrap();
    let mut got: Vec<u64> = multi
        .run(xml.as_bytes())
        .unwrap()
        .into_iter()
        .filter(|r| r.query == qid)
        .map(|r| r.node.get())
        .collect();
    got.sort_unstable();
    assert_eq!(got, expected, "MultiTwigM: {query_text}");
}

/// The ids and stats of TwigM run bare over `xml`, then wrapped in each
/// collector: a wrapper that stopped forwarding the interner would hand
/// TwigM unknown symbols, so it would match nothing and count no pushes.
fn assert_collectors_keep_symbol_dispatch(query_text: &str, xml: &str) {
    let query = parse(query_text).unwrap();
    let (bare_ids, bare) = run_engine(TwigM::new(&query).unwrap(), xml.as_bytes()).unwrap();
    let (frag_ids, frag) = run_engine(
        FragmentCollector::new(TwigM::new(&query).unwrap()),
        xml.as_bytes(),
    )
    .unwrap();
    assert_eq!(frag_ids, bare_ids, "FragmentCollector ids: {query_text}");
    assert_eq!(
        frag.inner().stats(),
        bare.stats(),
        "FragmentCollector stats: {query_text}"
    );
    let (attr_ids, attr) = run_engine(
        AttrCollector::new(TwigM::new(&query).unwrap(), "id"),
        xml.as_bytes(),
    )
    .unwrap();
    assert_eq!(attr_ids, bare_ids, "AttrCollector ids: {query_text}");
    assert_eq!(
        attr.stats(),
        bare.stats(),
        "AttrCollector stats: {query_text}"
    );
}

#[test]
fn collectors_keep_symbol_dispatch_on_the_figure_inputs() {
    for (query, xml) in [
        ("//a//b//c", figure1_string(4)),
        ("//a//b//c", figure1_string(1)),
        ("/a[d]/b[e]/c", "<a><b><c/><e/></b><d/></a>".to_string()),
        ("/a[d]/b[e]/c", "<a><b><c/><e/></b></a>".to_string()),
        ("/a[d]/b[e]/c", "<a><b><c/></b><d/></a>".to_string()),
        ("//a[d]//b[e]//c", figure1_string(4)),
        ("//a[d]//b[e]//c", "<a><b><c/></b><d/></a>".to_string()),
    ] {
        assert_collectors_keep_symbol_dispatch(query, &xml);
    }
}

/// Figure 2: M2 = //a//b//c over the nested a,a,b,b,c document — c1
/// (pre-order id 2n) is the unique answer.
#[test]
fn figure2_golden_all_engines() {
    golden("//a//b//c", &figure1_string(4), &[8]);
    // Shallowest instance, where a1 = a_n.
    golden("//a//b//c", &figure1_string(1), &[2]);
}

/// Figure 3: Q3 = /a[d]/b[e]/c over a1(b1(c1, e1), d1) — {c1} at id 2,
/// and ∅ once d is removed.
#[test]
fn figure3_golden_all_engines() {
    golden("/a[d]/b[e]/c", "<a><b><c/><e/></b><d/></a>", &[2]);
    golden("/a[d]/b[e]/c", "<a><b><c/><e/></b></a>", &[]);
    golden("/a[d]/b[e]/c", "<a><b><c/></b><d/></a>", &[]);
}

/// Figure 4: Q1 = //a[d]//b[e]//c over figure 1(a) — the five-node
/// machine delivers exactly c1 despite n² pattern matches.
#[test]
fn figure4_golden_all_engines() {
    golden("//a[d]//b[e]//c", &figure1_string(4), &[8]);
    // Drop the e predicate's witness: no answer.
    golden("//a[d]//b[e]//c", "<a><b><c/></b><d/></a>", &[]);
}
