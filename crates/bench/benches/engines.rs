//! Micro-benchmark: per-engine cost on one dataset/query per class
//! (the criterion companion of figure 7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twigm::{StreamEngine, TwigM};
use twigm_baselines::{inmem, LazyDfa, NaiveEnum};
use twigm_datagen::Dataset;
use twigm_xpath::parse;

fn run_engine<E: StreamEngine>(mut engine: E, xml: &[u8]) -> u64 {
    let (ids, _) = twigm::engine::run_engine(&mut engine, xml).unwrap();
    ids.len() as u64
}

fn bench_engines(c: &mut Criterion) {
    let (book, _) = Dataset::Book.generate_vec(512 * 1024);
    let cases: [(&str, &str); 3] = [
        ("path_q2", "//section//figure"),
        ("pred_q5", "//section[title]/p"),
        ("full_q9", "//section[figure[image]]//p"),
    ];
    for (label, query_text) in cases {
        let query = parse(query_text).unwrap();
        let mut group = c.benchmark_group(label);
        group.sample_size(15);
        group.throughput(Throughput::Bytes(book.len() as u64));
        group.bench_with_input(BenchmarkId::new("TwigM", label), &book, |b, xml| {
            b.iter(|| run_engine(TwigM::new(&query).unwrap(), xml))
        });
        if query.is_predicate_free() {
            group.bench_with_input(BenchmarkId::new("LazyDfa", label), &book, |b, xml| {
                b.iter(|| run_engine(LazyDfa::new(&query).unwrap(), xml))
            });
        }
        group.bench_with_input(BenchmarkId::new("NaiveEnum", label), &book, |b, xml| {
            b.iter(|| run_engine(NaiveEnum::new(&query).unwrap(), xml))
        });
        group.bench_with_input(BenchmarkId::new("InMemDom", label), &book, |b, xml| {
            b.iter(|| {
                let doc = inmem::Document::parse_bytes(xml).unwrap();
                inmem::InMemEval::new(&doc).evaluate(&query).len()
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
