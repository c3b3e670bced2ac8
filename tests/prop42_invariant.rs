//! Empirical verification of the paper's **Proposition 4.2**:
//!
//! > On the startElement event for a node a, a is pushed onto a machine
//! > node v's stack if and only if a is an active node and a solution to
//! > the prefix subquery of v.
//!
//! The test drives TwigM event by event over random recursive documents
//! and, **after every single event**, compares each machine node's stack
//! (as levels) against an independent oracle: the set of currently
//! *active* elements (the open ancestor chain) that solve the node's
//! prefix subquery, computed by direct recursion over the machine's
//! edges.

// Requires the optional proptest dev-dependency; see the workspace
// Cargo.toml ("Offline, hermetic builds") for how to enable it.
#![cfg(feature = "proptest-tests")]

use proptest::prelude::*;
use twigm::machine::Machine;
use twigm::{StreamEngine, TwigM};
use twigm_sax::{Event, NodeId, SaxReader};
use twigm_xpath::{parse, Path};

/// One open element at a point in the stream.
#[derive(Debug, Clone)]
struct ActiveElem {
    tag: String,
    level: u32,
}

/// Does the chain `actives[..=idx]` make `actives[idx]` a solution of the
/// prefix subquery of machine node `v`? (Recursive definition 4.2: the
/// name test matches and some qualifying ancestor solves the parent's
/// prefix subquery.)
fn solves_prefix(machine: &Machine, v: usize, actives: &[ActiveElem], idx: usize) -> bool {
    let node = &machine.nodes[v];
    let elem = &actives[idx];
    if !node.name.matches(&elem.tag) {
        return false;
    }
    match node.parent {
        None => node.edge.test(elem.level as i64),
        Some(p) => (0..idx).any(|a| {
            node.edge.test(elem.level as i64 - actives[a].level as i64)
                && solves_prefix(machine, p, actives, a)
        }),
    }
}

/// The oracle's expected stack for node `v`: levels of active elements
/// solving its prefix subquery, in document (= level) order.
fn expected_stack(machine: &Machine, v: usize, actives: &[ActiveElem]) -> Vec<u32> {
    (0..actives.len())
        .filter(|&i| solves_prefix(machine, v, actives, i))
        .map(|i| actives[i].level)
        .collect()
}

fn check_invariant_throughout(query: &Path, xml: &str) -> Result<(), TestCaseError> {
    let mut engine = TwigM::new(query).unwrap();
    let machine_len = engine.machine().len();
    let symbols = engine.machine().symbols().clone();
    let mut reader = SaxReader::from_bytes(xml.as_bytes());
    let mut actives: Vec<ActiveElem> = Vec::new();
    let mut event_no = 0;
    while let Some(event) = reader.next_event().unwrap() {
        match event {
            Event::Start(tag) => {
                let attrs: Vec<_> = tag.attributes().collect::<Result<_, _>>().unwrap();
                actives.push(ActiveElem {
                    tag: tag.name().to_string(),
                    level: tag.level(),
                });
                let sym = symbols.lookup(tag.name());
                engine.start_element_sym(sym, tag.name(), &attrs, tag.level(), tag.id());
            }
            Event::End(tag) => {
                engine.end_element_sym(symbols.lookup(tag.name()), tag.name(), tag.level());
                actives.pop();
            }
            Event::Text(t) => {
                engine.text(&t);
                continue;
            }
            _ => continue,
        }
        event_no += 1;
        let stacks = engine.stack_levels();
        #[allow(clippy::needless_range_loop)] // v indexes machine AND stacks
        for v in 0..machine_len {
            let expected = expected_stack(engine.machine(), v, &actives);
            prop_assert_eq!(
                &stacks[v],
                &expected,
                "Proposition 4.2 violated at event {} for machine node {}\nquery: {}\nxml: {}",
                event_no,
                v,
                query,
                xml
            );
        }
    }
    // Document done: every stack must be empty.
    prop_assert!(engine.stack_levels().iter().all(Vec::is_empty));
    Ok(())
}

/// Random recursive documents over a tiny alphabet.
fn doc_strategy() -> impl Strategy<Value = String> {
    fn node(depth: u32) -> BoxedStrategy<String> {
        let tag = proptest::sample::select(&["a", "b", "c"][..]);
        if depth == 0 {
            tag.prop_map(|t| format!("<{t}/>")).boxed()
        } else {
            (tag, proptest::collection::vec(node(depth - 1), 0..4))
                .prop_map(|(t, children)| format!("<{t}>{}</{t}>", children.concat()))
                .boxed()
        }
    }
    node(4)
}

/// Random predicate-free-ish queries — Proposition 4.2 concerns the
/// prefix subquery (predicates never gate pushes), so plain paths with
/// wildcards exercise it fully; a few predicates are mixed in to confirm
/// they indeed do not change stack contents.
fn query_strategy() -> impl Strategy<Value = String> {
    let step = (
        proptest::sample::select(&["/", "//"][..]),
        proptest::sample::select(&["a", "b", "c", "*"][..]),
        proptest::option::of(proptest::sample::select(&["[a]", "[b][c]", "[not(a)]"][..])),
    )
        .prop_map(|(axis, name, pred)| format!("{axis}{name}{}", pred.unwrap_or("")));
    proptest::collection::vec(step, 1..4).prop_map(|steps| steps.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stacks_hold_exactly_the_prefix_subquery_solutions(
        xml in doc_strategy(),
        query in query_strategy(),
    ) {
        let parsed = parse(&query).unwrap();
        check_invariant_throughout(&parsed, &xml)?;
    }
}

#[test]
fn figure2_snapshot_matches_the_paper() {
    // Figure 2(c): M2 = //a//b//c over nested a,a,b,b,c — at the moment
    // c1 is open, v1 holds [1,2], v2 holds [3,4], v3 holds [5].
    let query = parse("//a//b//c").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let symbols = engine.machine().symbols().clone();
    for (tag, level, id) in [
        ("a", 1, 0),
        ("a", 2, 1),
        ("b", 3, 2),
        ("b", 4, 3),
        ("c", 5, 4),
    ] {
        engine.start_element_sym(symbols.lookup(tag), tag, &[], level, NodeId::new(id));
    }
    assert_eq!(engine.stack_levels(), vec![vec![1, 2], vec![3, 4], vec![5]]);
}
