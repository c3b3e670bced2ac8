//! The systems under comparison, mapped to the paper's contenders.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path as FsPath;
use std::time::{Duration, Instant};

use twigm::{Engine, EngineStats, MachineError, StreamEngine};
use twigm_baselines::{inmem, LazyDfa, NaiveEnum};
use twigm_xpath::Path;

use crate::harness::{run_stream_with_deadline, MeasuredRun, RunOutcome};

/// A system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The paper's contribution (auto-selecting PathM/BranchM/TwigM, as
    /// the ViteX implementation does).
    TwigM,
    /// The XMLTK class: lazy DFA, `XP{/,//,*}` only.
    Xmltk,
    /// The XSQ class: streaming with explicit pattern-match enumeration.
    Xsq,
    /// The Galax / XMLTaskForce class: in-memory DOM evaluation.
    InMemory,
}

/// All systems in the paper's presentation order.
pub const SYSTEMS: [System; 4] = [System::TwigM, System::Xmltk, System::Xsq, System::InMemory];

impl System {
    /// Display name (paper naming).
    pub fn name(&self) -> &'static str {
        match self {
            System::TwigM => "TwigM",
            System::Xmltk => "XMLTK*",
            System::Xsq => "XSQ*",
            System::InMemory => "InMem*",
        }
    }

    /// Longer description for legends.
    pub fn description(&self) -> &'static str {
        match self {
            System::TwigM => "TwigM (this paper; PathM/BranchM/TwigM auto-selected)",
            System::Xmltk => "XMLTK-class lazy DFA (XP{/,//,*} only)",
            System::Xsq => "XSQ-class explicit pattern-match enumeration",
            System::InMemory => "Galax/XMLTaskForce-class in-memory DOM evaluator",
        }
    }

    /// Can this system evaluate the query? (The DFA cannot express
    /// predicates — paper §1.)
    pub fn supports(&self, query: &Path) -> bool {
        match self {
            System::Xmltk => query.is_predicate_free(),
            _ => true,
        }
    }

    /// Runs the system once over a dataset file.
    pub fn run(&self, query: &Path, file: &FsPath, timeout: Duration) -> RunOutcome {
        if !self.supports(query) {
            return RunOutcome::Unsupported;
        }
        let start = Instant::now();
        let deadline = start + timeout;
        let opened = match File::open(file) {
            Ok(f) => BufReader::with_capacity(256 * 1024, f),
            Err(e) => return RunOutcome::Error(e.to_string()),
        };
        match self {
            System::TwigM => stream(Engine::new(query), opened, deadline, start),
            System::Xmltk => stream(LazyDfa::new(query), opened, deadline, start),
            System::Xsq => stream(NaiveEnum::new(query), opened, deadline, start),
            System::InMemory => {
                let doc = match inmem::Document::parse(opened) {
                    Ok(d) => d,
                    Err(e) => return RunOutcome::Error(e.to_string()),
                };
                if Instant::now() > deadline {
                    return RunOutcome::TimedOut;
                }
                let results = inmem::InMemEval::new(&doc).evaluate(query);
                if Instant::now() > deadline {
                    return RunOutcome::TimedOut;
                }
                RunOutcome::Ok(MeasuredRun {
                    duration: start.elapsed(),
                    results: results.len() as u64,
                    stats: EngineStats::default(),
                    peak_bytes: None,
                })
            }
        }
    }
}

/// Streams `src` through a freshly compiled engine on the serial loop,
/// under the deadline.
fn stream<E: StreamEngine>(
    engine: Result<E, MachineError>,
    src: impl Read,
    deadline: Instant,
    start: Instant,
) -> RunOutcome {
    let mut engine = match engine {
        Ok(e) => e,
        Err(e) => return RunOutcome::Error(e.to_string()),
    };
    match run_stream_with_deadline(&mut engine, src, Some(deadline)) {
        Ok(Some(results)) => RunOutcome::Ok(MeasuredRun {
            duration: start.elapsed(),
            results,
            stats: engine.stats().clone(),
            peak_bytes: None,
        }),
        Ok(None) => RunOutcome::TimedOut,
        Err(e) => RunOutcome::Error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::ensure_dataset;
    use twigm_datagen::Dataset;
    use twigm_xpath::parse;

    #[test]
    fn all_systems_agree_on_result_counts() {
        let file = ensure_dataset(Dataset::Book, 60_000).unwrap();
        let timeout = Duration::from_secs(60);
        for text in ["//section//figure", "//section[title]/p", "/bib/book/title"] {
            let query = parse(text).unwrap();
            let mut counts = Vec::new();
            for sys in SYSTEMS {
                match sys.run(&query, &file, timeout) {
                    RunOutcome::Ok(m) => counts.push((sys.name(), m.results)),
                    RunOutcome::Unsupported => {}
                    other => panic!("{} failed on {text}: {other:?}", sys.name()),
                }
            }
            assert!(counts.len() >= 3, "{text}");
            let first = counts[0].1;
            for (name, c) in &counts {
                assert_eq!(*c, first, "{name} disagrees on {text}");
            }
        }
    }

    #[test]
    fn dfa_reports_unsupported_for_predicates() {
        let file = ensure_dataset(Dataset::Book, 30_000).unwrap();
        let query = parse("//section[title]/p").unwrap();
        assert!(matches!(
            System::Xmltk.run(&query, &file, Duration::from_secs(5)),
            RunOutcome::Unsupported
        ));
    }

    #[test]
    fn missing_file_is_an_error() {
        let query = parse("//a").unwrap();
        assert!(matches!(
            System::TwigM.run(
                &query,
                FsPath::new("/nonexistent.xml"),
                Duration::from_secs(1)
            ),
            RunOutcome::Error(_)
        ));
    }
}
