//! Quickstart: evaluate an XPath query over an XML stream with TwigM.
//!
//! Run with: `cargo run --example quickstart`

use twigm::engine::run_engine;
use twigm::fragments::FragmentCollector;
use twigm::{Engine, StreamEngine};
use twigm_xpath::parse;

fn main() {
    // The paper's running example: query Q1 over the figure 1(a) shape.
    // c1 participates in n^2 pattern matches of //a//b//c, but only the
    // match (a1, b1, c1) satisfies both predicates [d] and [e].
    let xml = br#"
        <a>
          <a>
            <b>
              <b>
                <c>the answer</c>
              </b>
              <e/>
            </b>
          </a>
          <d/>
        </a>"#;

    let query = parse("//a[d]//b[e]//c").expect("valid XPath");
    println!("query:   //a[d]//b[e]//c");
    println!(
        "machine: {} nodes",
        Engine::new(&query).unwrap().machine().len()
    );

    // 1. Node ids (the paper's formal output).
    let ids = twigm::evaluate(&query, &xml[..]).expect("well-formed XML");
    println!("matched node ids: {ids:?}");
    assert_eq!(ids.len(), 1);

    // 2. XML fragments (what the ViteX implementation returns).
    let engine = Engine::new(&query).unwrap();
    let collector = FragmentCollector::new(engine);
    let (_, mut collector) = run_engine(collector, &xml[..]).unwrap();
    for (id, fragment) in collector.take_fragments() {
        println!("fragment #{id}: {fragment}");
    }

    // 3. The engine is incremental: drive it event by event and observe
    //    counters. (Stats names follow Theorem 4.4's cost model.)
    let mut engine = twigm::TwigM::new(&query).unwrap();
    let (_, _) = run_engine(&mut engine, &xml[..]).unwrap();
    let stats = engine.stats();
    println!(
        "work: {} events, {} stack pushes, peak {} entries, {} result(s)",
        stats.events(),
        stats.pushes,
        stats.peak_entries,
        stats.results
    );
}
