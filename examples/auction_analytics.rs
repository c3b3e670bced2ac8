//! Running the XMark-style benchmark queries over auction data on TwigM
//! and comparing it with the baseline classes — including what goes
//! wrong for them (DFA: no predicates; explicit
//! enumeration: match blow-up on recursive description lists).
//!
//! Run with: `cargo run --release --example auction_analytics`

use twigm::engine::run_engine;
use twigm::Engine;
use twigm_baselines::{LazyDfa, NaiveEnum};
use twigm_xpath::parse;

fn main() {
    let (xml, report) = {
        let mut out = Vec::new();
        let report = twigm_datagen::auction::generate(42, 1024 * 1024, &mut out).expect("generate");
        (out, report)
    };
    println!(
        "auction site: {:.1} MB, {} elements, depth {}",
        report.bytes as f64 / 1048576.0,
        report.elements,
        report.max_depth
    );
    println!();

    let queries = [
        ("B1", "/site//regions/africa/item/name"),
        ("B2", "//people/person[@id = 'person0']/name"),
        ("B3", "//open_auction[bidder]/current"),
        ("B5", "//person[profile/@income > 50000]/name"),
        ("B6", "//open_auction[bidder/increase > 20]/itemref"),
        ("B7", "//description//listitem//text"),
    ];

    println!(
        "{:<4} {:<45} {:>8} {:>9} {:>10} {:>10}",
        "q", "query", "matches", "|Q|", "TwigM", "XSQ*-class"
    );
    for (name, text) in queries {
        let query = parse(text).expect("valid query");
        let start = std::time::Instant::now();
        let mut engine = Engine::new(&query).unwrap();
        let (ids, _) = run_engine(&mut engine, &xml[..]).unwrap();
        let twig_time = start.elapsed();

        let start = std::time::Instant::now();
        let naive = NaiveEnum::new(&query).unwrap();
        let (naive_ids, _) = run_engine(naive, &xml[..]).unwrap();
        let naive_time = start.elapsed();
        assert_eq!(ids.len(), naive_ids.len(), "engines must agree on {name}");

        println!(
            "{:<4} {:<45} {:>8} {:>9} {:>10} {:>10}",
            name,
            text,
            ids.len(),
            engine.machine().len(),
            format!("{twig_time:.1?}"),
            format!("{naive_time:.1?}"),
        );
    }

    // The DFA baseline: fastest on predicate-free queries, but it cannot
    // express predicates at all (paper §1).
    println!();
    let b7 = parse("//description//listitem//text").unwrap();
    let mut dfa = LazyDfa::new(&b7).unwrap();
    let start = std::time::Instant::now();
    let (ids, _) = run_engine(&mut dfa, &xml[..]).unwrap();
    println!(
        "XMLTK-class DFA on B7: {} matches in {:.1?} using {} lazily-built states",
        ids.len(),
        start.elapsed(),
        dfa.state_count()
    );
    let with_pred = parse("//open_auction[bidder]/current").unwrap();
    println!(
        "XMLTK-class DFA on B3 (predicate): unsupported — is_predicate_free() = {}",
        with_pred.is_predicate_free()
    );
}
