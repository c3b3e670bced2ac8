//! Differential property testing: random recursive documents × random
//! `XP{/,//,*,[]}` queries, with the in-memory DOM evaluator as oracle.
//!
//! Every streaming engine must compute exactly the oracle's node set:
//! * TwigM on every query;
//! * NaiveEnum (explicit enumeration) on every query;
//! * the lazy DFA on predicate-free queries.
//!
//! The document alphabet is tiny ({a,b,c,d} + 2 attribute names + small
//! numeric text) so that tags recurse, predicates flip between satisfied
//! and not, and value tests hit all comparison outcomes.

// Requires the optional proptest dev-dependency; see the workspace
// Cargo.toml ("Offline, hermetic builds") for how to enable it.
#![cfg(feature = "proptest-tests")]

use proptest::prelude::*;
use twigm::engine::run_engine;
use twigm::{StreamEngine, TwigM};
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_baselines::{LazyDfa, NaiveEnum};
use twigm_sax::NodeId;
use twigm_xpath::{Axis, CmpOp, Literal, NameTest, Path, PredExpr, Step, StrFunc, Value};

// ---------------------------------------------------------------------
// Random documents.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Elem {
    tag: &'static str,
    attrs: Vec<(&'static str, String)>,
    text: Option<String>,
    children: Vec<Elem>,
}

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const ATTRS: [&str; 2] = ["k", "m"];

fn elem_strategy() -> impl Strategy<Value = Elem> {
    let tag = proptest::sample::select(&TAGS[..]);
    let attr = (
        proptest::sample::select(&ATTRS[..]),
        (0u8..4).prop_map(|v| v.to_string()),
    );
    let attrs = proptest::collection::vec(attr, 0..3).prop_map(|mut attrs| {
        attrs.sort_by_key(|(k, _)| *k);
        attrs.dedup_by_key(|(k, _)| *k);
        attrs
    });
    let text = proptest::option::of((0u8..4).prop_map(|v| v.to_string()));
    let leaf = (tag, attrs, text).prop_map(|(tag, attrs, text)| Elem {
        tag,
        attrs,
        text,
        children: Vec::new(),
    });
    leaf.prop_recursive(5, 40, 4, move |inner| {
        let tag = proptest::sample::select(&TAGS[..]);
        let attr = (
            proptest::sample::select(&ATTRS[..]),
            (0u8..4).prop_map(|v| v.to_string()),
        );
        let attrs = proptest::collection::vec(attr, 0..3).prop_map(|mut attrs| {
            attrs.sort_by_key(|(k, _)| *k);
            attrs.dedup_by_key(|(k, _)| *k);
            attrs
        });
        let text = proptest::option::of((0u8..4).prop_map(|v| v.to_string()));
        (tag, attrs, text, proptest::collection::vec(inner, 0..4)).prop_map(
            |(tag, attrs, text, children)| Elem {
                tag,
                attrs,
                text,
                children,
            },
        )
    })
}

fn serialize(elem: &Elem, out: &mut String) {
    out.push('<');
    out.push_str(elem.tag);
    for (k, v) in &elem.attrs {
        out.push_str(&format!(" {k}=\"{v}\""));
    }
    out.push('>');
    if let Some(t) = &elem.text {
        out.push_str(t);
    }
    for c in &elem.children {
        serialize(c, out);
    }
    out.push_str("</");
    out.push_str(elem.tag);
    out.push('>');
}

// ---------------------------------------------------------------------
// Random queries.
// ---------------------------------------------------------------------

fn name_strategy() -> impl Strategy<Value = NameTest> {
    prop_oneof![
        4 => proptest::sample::select(&TAGS[..]).prop_map(|t| NameTest::Tag(t.to_string())),
        1 => Just(NameTest::Wildcard),
    ]
}

fn axis_strategy() -> impl Strategy<Value = Axis> {
    prop_oneof![Just(Axis::Child), Just(Axis::Descendant)]
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (0u8..4).prop_map(|v| Literal::String(v.to_string())),
        (0u8..4).prop_map(|v| Literal::Number(v as f64)),
    ]
}

fn cmp_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
    ]
}

fn value_strategy(depth: u32) -> BoxedStrategy<Value> {
    let steps = proptest::collection::vec(step_strategy(depth), 0..3);
    (
        steps,
        proptest::option::of(proptest::sample::select(&ATTRS[..])),
        any::<bool>(),
    )
        .prop_map(|(mut steps, attr, text)| {
            if steps.is_empty() && attr.is_none() && !text {
                steps.push(Step::new(Axis::Child, NameTest::Tag("b".into())));
            }
            let text = text && attr.is_none();
            Value {
                steps,
                attr: attr.map(str::to_string),
                text,
            }
        })
        .boxed()
}

fn strfunc_strategy() -> impl Strategy<Value = StrFunc> {
    prop_oneof![
        Just(StrFunc::Contains),
        Just(StrFunc::StartsWith),
        Just(StrFunc::EndsWith),
    ]
}

fn pred_strategy(depth: u32) -> BoxedStrategy<PredExpr> {
    let leaf = prop_oneof![
        3 => value_strategy(depth).prop_map(PredExpr::Exists),
        2 => (value_strategy(depth), cmp_strategy(), literal_strategy())
            .prop_map(|(v, op, lit)| PredExpr::Compare(v, op, lit)),
        1 => (strfunc_strategy(), value_strategy(depth), (0u8..4).prop_map(|v| v.to_string()))
            .prop_map(|(f, v, arg)| PredExpr::StrFn(f, v, arg)),
        1 => (step_strategy(depth), cmp_strategy(), 0u32..4)
            .prop_map(|(step, op, n)| {
                PredExpr::CountCmp(Value::path(vec![step]), op, n)
            }),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        let inner = pred_strategy(depth - 1);
        prop_oneof![
            5 => leaf,
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PredExpr::And(Box::new(a), Box::new(b))),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PredExpr::Or(Box::new(a), Box::new(b))),
            1 => inner.prop_map(|a| PredExpr::Not(Box::new(a))),
        ]
        .boxed()
    }
}

fn step_strategy(depth: u32) -> BoxedStrategy<Step> {
    let preds = if depth == 0 {
        Just(Vec::new()).boxed()
    } else {
        proptest::collection::vec(pred_strategy(depth - 1), 0..2).boxed()
    };
    // An optional leading positional predicate, valid only on child-axis
    // steps (and it must come first).
    let pos = proptest::option::of(1u32..4);
    (axis_strategy(), name_strategy(), preds, pos)
        .prop_map(|(axis, test, mut predicates, pos)| {
            if axis == Axis::Child {
                if let Some(n) = pos {
                    predicates.insert(0, PredExpr::Position(n));
                }
            }
            Step {
                axis,
                test,
                predicates,
            }
        })
        .boxed()
}

fn query_strategy() -> impl Strategy<Value = Path> {
    (
        proptest::collection::vec(step_strategy(2), 1..4),
        proptest::option::of(proptest::sample::select(&ATTRS[..])),
    )
        .prop_map(|(steps, attr)| Path {
            steps,
            attr: attr.map(str::to_string),
        })
}

// ---------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------

fn sorted(ids: Vec<NodeId>) -> Vec<u64> {
    let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_engines_match_the_dom_oracle(
        root in elem_strategy(),
        query in query_strategy(),
    ) {
        let mut xml = String::new();
        serialize(&root, &mut xml);

        let doc = Document::parse_bytes(xml.as_bytes()).unwrap();
        let expected = sorted(InMemEval::new(&doc).evaluate(&query));

        let twig = sorted(run_engine(TwigM::new(&query).unwrap(), xml.as_bytes()).unwrap().0);
        prop_assert_eq!(
            &twig, &expected,
            "TwigM disagrees with oracle\nquery: {}\nxml: {}", query, xml
        );

        let naive = sorted(run_engine(NaiveEnum::new(&query).unwrap(), xml.as_bytes()).unwrap().0);
        prop_assert_eq!(
            &naive, &expected,
            "NaiveEnum disagrees with oracle\nquery: {}\nxml: {}", query, xml
        );

        // The multi-query engine must agree when given the same single
        // query.
        let mut multi = twigm::MultiTwigM::new();
        multi.add_query(&query).unwrap();
        let tagged = multi.run(xml.as_bytes()).unwrap();
        let multi_ids = sorted(tagged.into_iter().map(|r| r.node).collect());
        prop_assert_eq!(
            &multi_ids, &expected,
            "MultiTwigM disagrees with oracle\nquery: {}\nxml: {}", query, xml
        );

        if query.is_predicate_free() {
            let dfa = sorted(run_engine(LazyDfa::new(&query).unwrap(), xml.as_bytes()).unwrap().0);
            prop_assert_eq!(
                &dfa, &expected,
                "LazyDfa disagrees\nquery: {}\nxml: {}", query, xml
            );
        }
    }

    #[test]
    fn union_matches_per_branch_union(
        root in elem_strategy(),
        q1 in query_strategy(),
        q2 in query_strategy(),
    ) {
        let mut xml = String::new();
        serialize(&root, &mut xml);
        let branches = vec![q1.clone(), q2.clone()];
        let union = twigm::evaluate_union(&branches, xml.as_bytes()).unwrap();
        let union: Vec<u64> = union.into_iter().map(NodeId::get).collect();
        let doc = Document::parse_bytes(xml.as_bytes()).unwrap();
        let mut oracle = InMemEval::new(&doc);
        let mut expected: Vec<u64> = oracle
            .evaluate(&q1)
            .into_iter()
            .chain(oracle.evaluate(&q2))
            .map(NodeId::get)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(
            union, expected,
            "union disagrees\nq1: {}\nq2: {}\nxml: {}", q1, q2, xml
        );
    }

    #[test]
    fn fragment_collector_ids_match_plain_results(
        root in elem_strategy(),
        query in query_strategy(),
    ) {
        let mut xml = String::new();
        serialize(&root, &mut xml);
        let plain = sorted(run_engine(TwigM::new(&query).unwrap(), xml.as_bytes()).unwrap().0);
        let collector =
            twigm::fragments::FragmentCollector::new(TwigM::new(&query).unwrap());
        let (_, mut collector) = run_engine(collector, xml.as_bytes()).unwrap();
        let fragments = collector.take_fragments();
        let mut frag_ids: Vec<u64> = fragments.iter().map(|(id, _)| id.get()).collect();
        frag_ids.sort_unstable();
        prop_assert_eq!(
            &frag_ids, &plain,
            "fragment ids diverge\nquery: {}\nxml: {}", query, xml
        );
        // Every fragment must reparse as a standalone document.
        for (_, frag) in &fragments {
            let mut reader = twigm_sax::SaxReader::from_bytes(frag.as_bytes());
            while let Ok(Some(_)) = reader.next_event() {}
        }
    }

    #[test]
    fn simplified_queries_are_equivalent(
        root in elem_strategy(),
        query in query_strategy(),
    ) {
        let mut xml = String::new();
        serialize(&root, &mut xml);
        let simplified = twigm_xpath::simplify(&query);
        let original =
            sorted(run_engine(TwigM::new(&query).unwrap(), xml.as_bytes()).unwrap().0);
        let reduced =
            sorted(run_engine(TwigM::new(&simplified).unwrap(), xml.as_bytes()).unwrap().0);
        prop_assert_eq!(
            original, reduced,
            "simplification changed semantics\noriginal: {}\nsimplified: {}\nxml: {}",
            query, simplified, xml
        );
    }

    #[test]
    fn twigm_never_duplicates_results(
        root in elem_strategy(),
        query in query_strategy(),
    ) {
        let mut xml = String::new();
        serialize(&root, &mut xml);
        let (ids, _) = run_engine(TwigM::new(&query).unwrap(), xml.as_bytes()).unwrap();
        let mut raw: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        let before = raw.len();
        raw.sort_unstable();
        raw.dedup();
        prop_assert_eq!(before, raw.len(), "duplicate emissions\nquery: {}\nxml: {}", query, xml);
    }

    #[test]
    fn stack_entries_bounded_by_query_times_depth(
        root in elem_strategy(),
        query in query_strategy(),
    ) {
        let mut xml = String::new();
        serialize(&root, &mut xml);
        let doc = Document::parse_bytes(xml.as_bytes()).unwrap();
        let mut engine = TwigM::new(&query).unwrap();
        let machine_size = engine.machine().len() as u64;
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        // Proposition 2.1 + §3: per-node stacks hold only active
        // elements, so total entries <= |machine| * depth.
        prop_assert!(
            engine.stats().peak_entries <= machine_size * doc.depth() as u64,
            "peak {} exceeds |Q|*R = {}*{}\nquery: {}",
            engine.stats().peak_entries, machine_size, doc.depth(), query
        );
    }
}
