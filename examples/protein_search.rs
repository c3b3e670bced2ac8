//! Searching a large protein-sequence database in constant memory — the
//! paper's third evaluation dataset (§5.1), at example scale.
//!
//! Generates a protein database, streams it from disk, and runs the
//! protein query ladder, printing result counts and the memory story
//! (stack entries vs document size).
//!
//! Run with: `cargo run --release --example protein_search`

use std::io::BufReader;

use twigm::engine::run_engine;
use twigm::fragments::FragmentCollector;
use twigm::{StreamEngine, TwigM};
use twigm_xpath::parse;

fn main() {
    // ~2 MB of ProteinEntry records (the paper used the 75 MB PIR
    // export; the shape is identical).
    let dir = std::env::temp_dir().join("twigm-example-protein.xml");
    if !dir.exists() {
        let mut file = std::fs::File::create(&dir).expect("create temp file");
        twigm_datagen::protein::generate(42, 2 * 1024 * 1024, &mut file)
            .expect("generate protein data");
    }
    let size = std::fs::metadata(&dir).expect("metadata").len();
    println!(
        "database: {} ({:.1} MB)",
        dir.display(),
        size as f64 / 1048576.0
    );
    println!();

    let queries = [
        ("entry names", "/ProteinDatabase/ProteinEntry/protein/name"),
        ("all authors", "//reference//author"),
        ("entries with keywords", "//ProteinEntry[keywords]/protein"),
        ("mRNA accessions", "//accinfo[mol-type = 'mRNA']"),
        (
            "keywords of well-referenced entries",
            "//ProteinEntry[reference/refinfo[authors]]//keyword",
        ),
        (
            "sequences of complete proteins",
            "//*[header][summary/type = 'protein']/sequence",
        ),
    ];
    for (label, text) in queries {
        let query = parse(text).expect("valid query");
        let mut engine = TwigM::new(&query).unwrap();
        let file = BufReader::new(std::fs::File::open(&dir).expect("open"));
        let start = std::time::Instant::now();
        let (ids, _) = run_engine(&mut engine, file).expect("well-formed data");
        let elapsed = start.elapsed();
        let stats = engine.stats();
        println!(
            "{label:<40} {text}\n    -> {} matches in {elapsed:.2?} on a {}-node machine; \
             peak {} stack entries for {} events",
            ids.len(),
            engine.machine().len(),
            stats.peak_entries,
            stats.events()
        );
    }

    // Pull one fragment to show ViteX-style output.
    println!();
    let query = parse("//ProteinEntry[@id = 'PIR0']/protein").unwrap();
    let collector = FragmentCollector::new(TwigM::new(&query).unwrap());
    let file = BufReader::new(std::fs::File::open(&dir).expect("open"));
    let (_, mut collector) = run_engine(collector, file).unwrap();
    for (id, fragment) in collector.take_fragments() {
        println!("first entry's protein (node {id}): {fragment}");
    }
}
