//! Self-tests of the benchmark: its declared metrics, its oracle, its
//! workloads' queries and its trace's coverage.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use perfbench::bench::{self, COVERAGE_BOUNDS};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::oracle::Expected;
use perfbench::replay;
use perfbench::workload::Workload;
use twigm_testkit::obsjson::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    obsjson::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no array {key:?}"),
    }
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_metric_is_declared_with_its_unit_and_bound() {
    let json = benchmark_json();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = entries(&json, key);
        assert_eq!(declared.len(), table.len(), "{key}: count");
        for (name, unit) in table {
            assert!(is_metric_name(name), "{name}: not [A-Za-z0-9_.-]+");
            let entry = declared
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name} is not declared under {key}"));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(*unit),
                "{name}"
            );
            let better = entry.get("better").and_then(Json::as_str);
            assert!(matches!(better, Some("lower" | "higher")), "{name}: better");
            if key == "end_to_end" {
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert!(
                    bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                    "{name}: bound {bound:?}"
                );
            }
        }
    }
    let names: Vec<&str> = entries(&json, "workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
}

#[test]
fn the_oracle_rejects_a_corrupted_id_list() {
    let work = work_dir("oracle");
    for w in Workload::all() {
        let p = bench::prepare(&work, w.clone(), 1).unwrap();
        let good = p.expected.to_text();
        let lines: Vec<&str> = good.lines().skip(1).collect();
        let join = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
        assert!(
            p.expected.check(join(&lines).as_bytes()).is_ok(),
            "{}",
            w.name
        );

        let dropped = join(&lines[1..]);
        let mut changed = lines.clone();
        let bumped = match changed[0].split_once('\t') {
            Some((q, id)) => format!("{q}\t{}", id.parse::<u64>().unwrap() + 1_000_000_000),
            None => (changed[0].parse::<u64>().unwrap() + 1_000_000_000).to_string(),
        };
        changed[0] = &bumped;
        let mut doubled = lines.clone();
        doubled.push(lines[0]);
        for bad in [
            dropped,
            join(&changed),
            join(&doubled),
            "garbage\n".to_string(),
        ] {
            assert!(p.expected.check(bad.as_bytes()).is_err(), "{}", w.name);
        }
        if let Expected::Ordered(ids) = &p.expected {
            assert!(ids.len() >= 2, "{}", w.name);
            let mut swapped = lines.clone();
            swapped.swap(0, 1);
            assert!(
                p.expected.check(join(&swapped).as_bytes()).is_err(),
                "{}",
                w.name
            );
        }
        assert_eq!(Expected::from_text(&good).unwrap(), p.expected);
    }
}

#[test]
fn every_query_set_parses_and_matches_the_generated_data() {
    let work = work_dir("queries");
    for w in Workload::all() {
        twigm_xpath::parse_union(&w.union_text()).unwrap();
        for q in &w.queries {
            twigm_xpath::parse(q).unwrap_or_else(|e| panic!("{}: {q}: {e}", w.name));
        }
        for seed in [1, 2] {
            let p = bench::prepare(&work, w.clone(), seed).unwrap();
            assert!(!p.expected.is_empty(), "{} seed {seed}", w.name);
        }
    }
}

#[test]
fn trace_coverage_stays_within_its_bounds() {
    let work = work_dir("coverage");
    for w in Workload::all() {
        let p = bench::prepare(&work, w.clone(), 1).unwrap();
        let xml = std::fs::read(&p.input).unwrap();
        let out = work.join("replay.out");
        let mut coverage = Vec::new();
        for _ in 0..3 {
            let r = replay::replay(&w, &xml, &p.input, &out).unwrap();
            p.expected.check(&std::fs::read(&out).unwrap()).unwrap();
            coverage.push(r.coverage());
        }
        coverage.sort_by(f64::total_cmp);
        let median = coverage[1];
        assert!(
            (COVERAGE_BOUNDS.0..=COVERAGE_BOUNDS.1).contains(&median),
            "{}: trace.coverage_frac {median:.3} outside {COVERAGE_BOUNDS:?}",
            w.name
        );
    }
}
