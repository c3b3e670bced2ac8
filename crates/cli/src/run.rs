//! Query execution for the CLI: engine selection, output modes, stats,
//! tracing, and progress reporting.

use std::cell::RefCell;
use std::io::Read;
use std::time::{Duration, Instant};

use twigm::attrs::AttrCollector;
use twigm::engine::{drive as drive_serial, Telemetry};
use twigm::fragments::FragmentCollector;
use twigm::multi::MultiTwigM;
use twigm::pipeline::{run_multi_sharded, run_pipeline, shard_queries, PipelineOptions};
use twigm::{Engine, EngineStats, PipelineStats, StreamEngine, StreamProgress, StreamTelemetry};
use twigm_baselines::{inmem, LazyDfa, NaiveEnum};
use twigm_obs::trace::TransitionTracer;
use twigm_obs::{format_progress, StatsReport};
use twigm_sax::NodeId;
use twigm_xpath::Path;

use crate::args::{Args, EngineChoice, OutputMode, StatsMode};
use crate::sink::{Emit, FlushBeforeRead, Sink};

/// Events between `--progress` heartbeats.
const PROGRESS_INTERVAL: u64 = 4096;

/// Wall-clock measurements of one run, alongside the stream accounting
/// of the serial loop's telemetry hook or the pipeline's counters.
#[derive(Default)]
struct RunMeta {
    telemetry: Option<StreamTelemetry>,
    duration: Duration,
    time_to_first_result: Option<Duration>,
    pipeline: Option<PipelineStats>,
}

/// Streams `input` through `engine`. With `--threads` the pipeline runs
/// it and leaves the results in the engine; otherwise the serial loop
/// does, with `emit` printing results as they are decided and the
/// telemetry hook on only when the flags need it (byte/event accounting,
/// first-result latency, progress), so `--stats` (text) keeps the plain
/// hot path. A run whose output has failed stops with an error.
fn drive<E: StreamEngine + Send>(
    args: &Args,
    engine: &mut E,
    input: &mut (dyn Read + Send),
    emit: Option<&mut Emit<'_, '_, E>>,
) -> Result<RunMeta, String> {
    let start = Instant::now();
    let mut meta = RunMeta::default();
    if args.threads > 1 {
        let opts = PipelineOptions::default();
        let stats = run_pipeline(std::slice::from_mut(engine), input, &opts);
        meta.pipeline = Some(stats.map_err(|e| e.to_string())?);
    } else {
        let mut first: Option<Duration> = None;
        let mut next_heartbeat = PROGRESS_INTERVAL;
        let wants_telemetry =
            args.progress || matches!(args.stats, StatsMode::Json | StatsMode::Pretty);
        let mut telemetry = wants_telemetry.then(|| {
            Telemetry::new(1, |p: &StreamProgress| {
                if first.is_none() && p.results > 0 {
                    first = Some(start.elapsed());
                }
                if args.progress && p.events >= next_heartbeat {
                    next_heartbeat = p.events + PROGRESS_INTERVAL;
                    eprintln!("twigm: {}", format_progress(p, start.elapsed()));
                }
            })
        });
        // One call per combination of hooks, so each loop carries only
        // the hooks it runs.
        let sink = emit.as_ref().map(|e| e.sink());
        let bytes = match (telemetry.as_mut(), emit) {
            (None, None) => drive_serial(engine, input, &mut ()),
            (Some(t), None) => drive_serial(engine, input, t),
            (None, Some(e)) => drive_serial(engine, FlushBeforeRead::new(input, e.sink()), e),
            (Some(t), Some(e)) => {
                drive_serial(engine, FlushBeforeRead::new(input, e.sink()), &mut (t, e))
            }
        };
        if sink.is_some_and(|s| s.borrow().failed()) {
            return Err("output closed".into());
        }
        let bytes = bytes.map_err(|e| e.to_string())?;
        if let Some(hook) = telemetry {
            meta.telemetry = Some(StreamTelemetry {
                bytes,
                ..hook.stream
            });
            meta.time_to_first_result = first;
        }
    }
    meta.duration = start.elapsed();
    Ok(meta)
}

/// Drives `engine` over `input` and prints, through the sink, the lines
/// `print` drains from it: as each result is decided on a serial run,
/// after EOF on a pipelined one. `-c` prints only the number of results.
/// Returns that number.
fn drive_and_print<E: StreamEngine + Send>(
    args: &Args,
    engine: &mut E,
    input: &mut (dyn Read + Send),
    out: &RefCell<Sink<'_>>,
    print: fn(&mut E, &mut Sink<'_>) -> u64,
) -> Result<(u64, RunMeta), String> {
    if args.output == OutputMode::Count {
        let meta = drive(args, engine, input, None)?;
        Ok((print_ids(args, out, engine.take_results()), meta))
    } else if args.threads > 1 {
        let meta = drive(args, engine, input, None)?;
        Ok((print(engine, &mut out.borrow_mut()), meta))
    } else {
        let mut emit = Emit::new(out, print);
        let meta = drive(args, engine, input, Some(&mut emit))?;
        Ok((emit.printed(), meta))
    }
}

/// Prints a result list held until EOF: the ids one per line, or with
/// `-c` only their number; returns the number.
fn print_ids(args: &Args, out: &RefCell<Sink<'_>>, ids: Vec<NodeId>) -> u64 {
    let mut out = out.borrow_mut();
    if args.output == OutputMode::Count {
        out.line(ids.len());
        ids.len() as u64
    } else {
        out.lines(ids)
    }
}

/// Runs a single query, prints per `args.output`, returns the match
/// count.
pub fn run_single(
    args: &Args,
    input: &mut (dyn Read + Send),
    out: &RefCell<Sink<'_>>,
) -> Result<u64, String> {
    // A `|` union runs through the multi-query engine with set-union
    // output.
    let branches = twigm_xpath::parse_union(&args.queries[0]).map_err(|e| e.to_string())?;
    if branches.len() > 1 {
        return run_union(args, &branches, input, out);
    }
    let query = parse_query(&args.queries[0])?;
    if args.output == OutputMode::Values && query.attr.is_none() {
        return Err("--values requires a query ending in `/@attr`".into());
    }
    if args.trace.is_some() {
        return run_traced(args, &query, input, out);
    }
    let attr = query.attr.clone();
    match args.engine {
        EngineChoice::Dom => run_dom(args, &query, input, out),
        EngineChoice::Naive => {
            let engine = NaiveEnum::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "naive", engine, attr, input, out)
        }
        EngineChoice::Dfa => {
            if !query.is_predicate_free() {
                return Err(
                    "--engine dfa requires a predicate-free query (a DFA cannot \
                     evaluate predicates; see the paper, §1)"
                        .into(),
                );
            }
            let engine = LazyDfa::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "dfa", engine, attr, input, out)
        }
        EngineChoice::Twig => {
            let engine = Engine::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "twig", engine, attr, input, out)
        }
    }
}

/// A `a | b` union: every branch compiles into the multi-query engine
/// and the result sets merge into document order, deduplicated, so the
/// ids print after EOF. Rides the same drive/stats path as the
/// single-query modes, so `--stats`/`--progress` work here too; with
/// `--threads` the branches are sharded over `threads - 1` engines whose
/// results merge into document order, byte-identical to the serial run.
fn run_union(
    args: &Args,
    branches: &[Path],
    input: &mut (dyn Read + Send),
    out: &RefCell<Sink<'_>>,
) -> Result<u64, String> {
    if args.engine != EngineChoice::Twig {
        return Err("union queries run on the TwigM engine only".into());
    }
    if matches!(args.output, OutputMode::Fragments | OutputMode::Values) {
        return Err("--fragments/--values are not supported for union queries".into());
    }
    if args.trace.is_some() {
        return Err("--trace is not supported for union queries".into());
    }
    let (ids, stats, machine_size, meta) = if args.threads > 1 {
        let start = Instant::now();
        let shards = shard_queries(branches, args.threads - 1).map_err(|e| e.to_string())?;
        let outcome = run_multi_sharded(shards, input, &PipelineOptions::default())
            .map_err(|e| e.to_string())?;
        let meta = RunMeta {
            duration: start.elapsed(),
            pipeline: Some(outcome.pipeline),
            ..RunMeta::default()
        };
        (outcome.ids, outcome.stats, outcome.machine_size, meta)
    } else {
        let mut engine = MultiTwigM::new();
        for branch in branches {
            engine.add_query(branch).map_err(|e| e.to_string())?;
        }
        let meta = drive(args, &mut engine, input, None)?;
        // Set-union semantics: sort into document order, drop ids
        // matched by several branches.
        let mut ids = StreamEngine::take_results(&mut engine);
        ids.sort_unstable();
        ids.dedup();
        (ids, engine.stats().clone(), engine.machine_size(), meta)
    };
    let count = print_ids(args, out, ids);
    report_stats(args, "multi", &stats, Some(machine_size), &meta);
    Ok(count)
}

/// Runs one query with a [`TransitionTracer`] attached and writes the
/// recorded transitions to `args.trace` — JSON Lines when the file name
/// ends in `.jsonl`, Chrome trace-event JSON otherwise.
fn run_traced(
    args: &Args,
    query: &Path,
    input: &mut (dyn Read + Send),
    out: &RefCell<Sink<'_>>,
) -> Result<u64, String> {
    // Args::parse keeps the baselines away from --trace.
    let mut engine =
        Engine::with_observer(query, TransitionTracer::new()).map_err(|e| e.to_string())?;
    let machine = engine.machine().clone();
    let (count, meta) = drive_and_print(args, &mut engine, input, out, |e, s| {
        s.lines(e.take_results())
    })?;
    report_stats(args, "twig", engine.stats(), engine.machine_size(), &meta);
    let trace_path = args.trace.as_deref().expect("checked by caller");
    let tracer = engine.into_observer();
    if tracer.dropped() > 0 {
        eprintln!(
            "twigm: trace limit reached; {} transition(s) not recorded",
            tracer.dropped()
        );
    }
    let text = if trace_path.ends_with(".jsonl") {
        tracer.to_jsonl(Some(&machine))
    } else {
        tracer.to_chrome_trace(Some(&machine))
    };
    std::fs::write(trace_path, text).map_err(|e| format!("cannot write {trace_path}: {e}"))?;
    Ok(count)
}

fn run_streaming<E: StreamEngine + Send>(
    args: &Args,
    name: &str,
    engine: E,
    attr: Option<String>,
    input: &mut (dyn Read + Send),
    out: &RefCell<Sink<'_>>,
) -> Result<u64, String> {
    match args.output {
        OutputMode::Values => {
            let attr = attr.expect("validated in run_single");
            let mut collector = AttrCollector::new(engine, attr);
            let (count, meta) = drive_and_print(args, &mut collector, input, out, |c, s| {
                s.lines(c.take_values().into_iter().map(|(_, value)| value))
            })?;
            report_stats(
                args,
                name,
                collector.stats(),
                collector.machine_size(),
                &meta,
            );
            Ok(count)
        }
        OutputMode::Fragments => {
            let mut collector = FragmentCollector::new(engine);
            let (count, meta) = drive_and_print(args, &mut collector, input, out, |c, s| {
                s.lines(c.take_fragments().into_iter().map(|(_, fragment)| fragment))
            })?;
            report_stats(
                args,
                name,
                collector.stats(),
                collector.machine_size(),
                &meta,
            );
            Ok(count)
        }
        OutputMode::Ids | OutputMode::Count => {
            let mut engine = engine;
            let (count, meta) = drive_and_print(args, &mut engine, input, out, |e, s| {
                s.lines(e.take_results())
            })?;
            report_stats(args, name, engine.stats(), engine.machine_size(), &meta);
            Ok(count)
        }
    }
}

fn run_dom(
    args: &Args,
    query: &Path,
    input: &mut (dyn Read + Send),
    out: &RefCell<Sink<'_>>,
) -> Result<u64, String> {
    if matches!(args.stats, StatsMode::Json | StatsMode::Pretty) {
        return Err("--stats=json/pretty report streaming-engine counters; \
             --engine dom supports the plain --stats line only"
            .into());
    }
    if args.progress {
        return Err("--progress is not supported with --engine dom (no streaming pass)".into());
    }
    let doc = inmem::Document::parse(input).map_err(|e| e.to_string())?;
    let ids = inmem::InMemEval::new(&doc).evaluate(query);
    let count = match args.output {
        OutputMode::Fragments => {
            return Err("--fragments is not supported with --engine dom".into())
        }
        OutputMode::Values => return Err("--values is not supported with --engine dom".into()),
        OutputMode::Ids | OutputMode::Count => print_ids(args, out, ids),
    };
    if args.stats != StatsMode::Off {
        eprintln!(
            "twigm: dom: {} element(s) materialized, depth {}",
            doc.len(),
            doc.depth()
        );
    }
    Ok(count)
}

/// Runs several standing queries via [`MultiTwigM`]; output lines are
/// `Q<i><TAB><node id>`, or `Q<i>` with `--filter`, in decision order.
pub fn run_multi(
    args: &Args,
    input: &mut (dyn Read + Send),
    out: &RefCell<Sink<'_>>,
) -> Result<u64, String> {
    if args.engine != EngineChoice::Twig {
        return Err("multiple queries run on the TwigM engine only".into());
    }
    let mut engine = MultiTwigM::new();
    if args.filter {
        engine = engine.filter_mode();
    }
    for q in &args.queries {
        let query = parse_query(q)?;
        engine.add_query(&query).map_err(|e| e.to_string())?;
    }
    let print: fn(&mut MultiTwigM, &mut Sink<'_>) -> u64 = if args.filter {
        |m, s| {
            let results = m.take_tagged_results();
            for r in &results {
                s.line(format_args!("Q{}", r.query));
            }
            results.len() as u64
        }
    } else {
        |m, s| {
            let results = m.take_tagged_results();
            for r in &results {
                s.line(format_args!("Q{}\t{}", r.query, r.node));
            }
            results.len() as u64
        }
    };
    let (count, meta) = drive_and_print(args, &mut engine, input, out, print)?;
    report_stats(
        args,
        "multi",
        engine.stats(),
        Some(engine.machine_size()),
        &meta,
    );
    Ok(count)
}

fn parse_query(text: &str) -> Result<Path, String> {
    twigm_xpath::parse(text).map_err(|e| e.to_string())
}

/// Emits the stats in the selected mode on stderr. `Text` keeps the
/// historic one-line format; `Json`/`Pretty` render a [`StatsReport`]
/// with throughput and latency from the telemetry hook.
fn report_stats(
    args: &Args,
    engine: &str,
    stats: &EngineStats,
    machine_size: Option<usize>,
    meta: &RunMeta,
) {
    match args.stats {
        StatsMode::Off => {}
        StatsMode::Text => {
            eprintln!(
                "twigm: {} events, {} pushes, {} pops, {} probes, peak {} entries, \
                 {} candidate merges, {} result(s)",
                stats.events(),
                stats.pushes,
                stats.pops,
                stats.qualification_probes + stats.upload_probes,
                stats.peak_entries,
                stats.candidates_merged,
                stats.results
            );
        }
        StatsMode::Json | StatsMode::Pretty => {
            let report = StatsReport {
                engine: engine.to_string(),
                stats: stats.clone(),
                telemetry: meta.telemetry.clone(),
                machine_size,
                duration: meta.duration,
                time_to_first_result: meta.time_to_first_result,
                metrics: None,
                pipeline: meta.pipeline.clone(),
            };
            if args.stats == StatsMode::Json {
                eprintln!("{}", report.to_json());
            } else {
                eprint!("{}", report.to_pretty());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn run(argv: &[&str], xml: &str) -> (String, u64) {
        let args = Args::parse(argv.iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = xml.as_bytes();
        let mut out = Vec::new();
        let sink = RefCell::new(Sink::new(&mut out));
        let count = if args.queries.len() > 1 || args.filter {
            run_multi(&args, &mut input, &sink).unwrap()
        } else {
            run_single(&args, &mut input, &sink).unwrap()
        };
        sink.into_inner().finish().unwrap();
        (String::from_utf8(out).unwrap(), count)
    }

    #[test]
    fn ids_mode() {
        let (out, count) = run(&["//a/b"], "<r><a><b/></a><b/></r>");
        assert_eq!(out, "2\n");
        assert_eq!(count, 1);
    }

    #[test]
    fn count_mode() {
        let (out, count) = run(&["-c", "//b"], "<r><a><b/></a><b/></r>");
        assert_eq!(out, "2\n");
        assert_eq!(count, 2);
    }

    #[test]
    fn fragments_mode() {
        let (out, _) = run(&["--fragments", "//a[b]"], "<r><a><b>x</b></a></r>");
        assert_eq!(out, "<a><b>x</b></a>\n");
    }

    #[test]
    fn every_engine_choice_runs() {
        for engine in ["twig", "naive", "dom"] {
            let (out, _) = run(&["--engine", engine, "-c", "//a[b]"], "<r><a><b/></a></r>");
            assert_eq!(out, "1\n", "engine {engine}");
        }
        for engine in ["twig", "dfa"] {
            let (out, _) = run(&["--engine", engine, "-c", "//a"], "<r><a/></r>");
            assert_eq!(out, "1\n", "engine {engine}");
        }
        let (out, _) = run(&["-c", "/r/a[b]"], "<r><a><b/></a></r>");
        assert_eq!(out, "1\n");
    }

    #[test]
    fn stats_json_does_not_change_output() {
        // The traced driver must produce the same results as the plain
        // one for every output mode.
        let xml = r#"<r><a k="1"><b>x</b></a><a k="2"/></r>"#;
        for mode in [&["-c", "//a[b]"][..], &["--fragments", "//a[b]"][..]] {
            let plain = run(mode, xml);
            let mut with_stats = vec!["--stats=json"];
            with_stats.extend_from_slice(mode);
            assert_eq!(run(&with_stats, xml), plain, "{mode:?}");
        }
        let plain = run(&["--values", "//a/@k"], xml);
        assert_eq!(run(&["--stats=pretty", "--values", "//a/@k"], xml), plain);
    }

    #[test]
    fn union_goes_through_the_stats_path() {
        let (out, count) = run(&["--stats=json", "//a | //b[c]"], "<r><a/><b><c/></b></r>");
        assert_eq!(out, "1\n2\n");
        assert_eq!(count, 2);
        let (out, _) = run(&["-c", "//a | //a"], "<r><a/><a/></r>");
        assert_eq!(out, "2\n", "overlapping branches deduplicate");
    }

    #[test]
    fn traced_run_writes_the_requested_format() {
        let dir = std::env::temp_dir().join(format!("twigm-run-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let chrome = dir.join("t.json");
        let jsonl = dir.join("t.jsonl");
        let xml = "<r><a><b/></a></r>";
        let (out, _) = run(&["--trace", chrome.to_str().unwrap(), "-c", "//a[b]"], xml);
        assert_eq!(out, "1\n");
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        assert!(chrome_text.starts_with(r#"{"traceEvents":["#));
        let (out, _) = run(&["--trace", jsonl.to_str().unwrap(), "//a[b]"], xml);
        assert_eq!(out, "1\n", "the matching <a> is node 1");
        let jsonl_text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(jsonl_text.lines().count() > 4);
        assert!(jsonl_text.contains(r#""kind":"result""#));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_restrictions_are_enforced() {
        let args = Args::parse(["--engine", "dfa", "//a[b]"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        let err = run_single(&args, &mut input, &RefCell::new(Sink::new(&mut out))).unwrap_err();
        assert!(err.contains("predicate-free"));
    }

    #[test]
    fn trace_rejects_unions_and_dom_rejects_rich_stats() {
        let args = Args::parse(
            ["--trace", "/tmp/t.json", "//a | //b"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap()
        .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        let err = run_single(&args, &mut input, &RefCell::new(Sink::new(&mut out))).unwrap_err();
        assert!(err.contains("union"), "{err}");

        let args = Args::parse(
            ["--stats=json", "--engine", "dom", "//a"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap()
        .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        let err = run_single(&args, &mut input, &RefCell::new(Sink::new(&mut out))).unwrap_err();
        assert!(err.contains("dom"), "{err}");
    }

    #[test]
    fn multi_query_output_is_tagged() {
        let (out, count) = run(&["-q", "//a", "-q", "//b"], "<r><a/><b/></r>");
        assert_eq!(count, 2);
        assert!(out.contains("Q0\t1"));
        assert!(out.contains("Q1\t2"));
    }

    #[test]
    fn progress_and_rich_stats_leave_multi_query_output_alone() {
        let xml = "<r><a/><b><a/></b></r>";
        let plain = run(&["-q", "//a", "-q", "//b"], xml);
        for flag in ["--progress", "--stats=json", "--stats=pretty"] {
            assert_eq!(run(&[flag, "-q", "//a", "-q", "//b"], xml), plain, "{flag}");
        }
    }

    #[test]
    fn a_panicking_pipeline_thread_is_an_error() {
        /// Panics on the start tag `boom`.
        struct PanicsOnBoom(EngineStats);
        impl StreamEngine for PanicsOnBoom {
            fn start_element_sym(
                &mut self,
                _: twigm_sax::Symbol,
                tag: &str,
                _: &[twigm_sax::Attribute<'_>],
                _: u32,
                _: NodeId,
            ) -> bool {
                assert_ne!(tag, "boom", "test double met <boom>");
                false
            }
            fn end_element_sym(&mut self, _: twigm_sax::Symbol, _: &str, _: u32) {}
            fn take_results(&mut self) -> Vec<NodeId> {
                Vec::new()
            }
            fn stats(&self) -> &EngineStats {
                &self.0
            }
        }
        let args = Args::parse(["--threads", "2", "//a"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r><a/><boom/><a/></r>"[..];
        let mut engine = PanicsOnBoom(EngineStats::default());
        let err = drive(&args, &mut engine, &mut input, None).err();
        let err = err.expect("the panic must surface as an error");
        assert!(err.contains("pipeline consumer thread panicked"), "{err}");
        assert!(err.contains("test double met <boom>"), "{err}");
    }

    #[test]
    fn threads_match_serial_output() {
        // `--threads N` must be invisible in the output: same ids, same
        // order, for single queries, unions, and count mode.
        let mut xml = String::from("<r>");
        for i in 0..50 {
            xml.push_str(&format!(
                "<a k=\"{i}\"><x><b>deep</b></x><b>t</b><c/></a><junk><c/></junk>"
            ));
        }
        xml.push_str("</r>");
        for query in ["//a/b", "//a[b]/c", "//a[b = 't']/c", "//a | //junk/c"] {
            let serial = run(&[query], &xml);
            for threads in ["2", "4"] {
                assert_eq!(
                    run(&["--threads", threads, query], &xml),
                    serial,
                    "--threads {threads} changed output for {query}"
                );
            }
            let serial_count = run(&["-c", query], &xml);
            assert_eq!(
                run(&["--threads", "4", "-c", query], &xml),
                serial_count,
                "count mode for {query}"
            );
        }
    }

    #[test]
    fn threads_stats_json_reports_the_pipeline() {
        let args = Args::parse(
            ["--threads", "2", "--stats=json", "-c", "//a"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap()
        .unwrap();
        let mut input = &b"<r><a/><skipme/></r>"[..];
        let mut out = Vec::new();
        // Stats land on stderr (not captured here); this exercises the
        // pipelined drive + report path end to end without panicking.
        let count = run_single(&args, &mut input, &RefCell::new(Sink::new(&mut out))).unwrap();
        assert_eq!(count, 1);
        assert_eq!(String::from_utf8(out).unwrap(), "1\n");
    }

    #[test]
    fn threads_surface_malformed_xml() {
        let args = Args::parse(["--threads", "2", "//a"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r><a>"[..];
        let mut out = Vec::new();
        assert!(run_single(&args, &mut input, &RefCell::new(Sink::new(&mut out))).is_err());
    }

    #[test]
    fn bad_query_is_an_error() {
        let args = Args::parse(["not-a-query"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        assert!(run_single(&args, &mut input, &RefCell::new(Sink::new(&mut out))).is_err());
    }

    #[test]
    fn malformed_xml_is_an_error() {
        let args = Args::parse(["//a"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r>"[..];
        let mut out = Vec::new();
        assert!(run_single(&args, &mut input, &RefCell::new(Sink::new(&mut out))).is_err());
    }

    /// Hands out at most `step` bytes per read.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// One generated document and two generated queries (the second only
    /// for `-q`/`--filter`), as query texts that parse back.
    fn corpus_case(seed: u64) -> (Vec<u8>, Path, Path) {
        use twigm_datagen::SplitMix64;
        use twigm_testkit::{querygen, xmlgen};
        let mut rng = SplitMix64::seed_from_u64(seed);
        let xml = xmlgen::generate_doc(&mut rng, &xmlgen::DocConfig::default());
        let mut query = || loop {
            let q = querygen::generate_query(&mut rng, &querygen::QueryConfig::default());
            if let Ok(q) = parse_query(&q.to_string()) {
                return q;
            }
        };
        (xml, query(), query())
    }

    /// The lines printing `items` makes, and how many items there are.
    fn lines<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> (String, u64) {
        let mut n = 0;
        let text = items.into_iter().map(|item| {
            n += 1;
            format!("{item}\n")
        });
        (text.collect(), n)
    }

    /// What the engine of `mode` prints when it is drained once, after
    /// the whole document, and its result count; `None` when a query
    /// does not compile.
    fn drained_at_eof(mode: &str, xml: &[u8], q: &Path, q2: &Path) -> Option<(String, u64)> {
        use twigm::engine::run_engine;
        let multi = |filter: bool| {
            let mut engine = MultiTwigM::new();
            if filter {
                engine = engine.filter_mode();
            }
            engine.add_query(q).ok()?;
            engine.add_query(q2).ok()?;
            Some(
                engine
                    .run(xml)
                    .expect("generated documents are well-formed"),
            )
        };
        let out = match mode {
            "--ids" => lines(run_engine(Engine::new(q).ok()?, xml).ok()?.0),
            "-q" => lines(
                multi(false)?
                    .iter()
                    .map(|r| format!("Q{}\t{}", r.query, r.node)),
            ),
            "--filter" => lines(multi(true)?.iter().map(|r| format!("Q{}", r.query))),
            "--values" => {
                let attr = q.attr.clone()?;
                let collector = AttrCollector::new(Engine::new(q).ok()?, attr);
                let (_, mut collector) = run_engine(collector, xml).ok()?;
                lines(collector.take_values().into_iter().map(|(_, v)| v))
            }
            "--fragments" => {
                let collector = FragmentCollector::new(Engine::new(q).ok()?);
                let (_, mut collector) = run_engine(collector, xml).ok()?;
                lines(collector.take_fragments().into_iter().map(|(_, f)| f))
            }
            _ => unreachable!("{mode}"),
        };
        Some(out)
    }

    /// Streamed output is the EOF-drained output, line for line, however
    /// the input is split into reads.
    #[test]
    fn streamed_output_equals_eof_output_at_every_read_split() {
        let (mut compared, mut with_results) = (0, 0);
        for seed in 0..120 {
            let (xml, q, q2) = corpus_case(seed);
            for mode in ["--ids", "-q", "--filter", "--values", "--fragments"] {
                let mut q = q.clone();
                if mode == "--values" {
                    q.attr.get_or_insert_with(|| "id".to_string());
                }
                let Some((expected, expected_count)) = drained_at_eof(mode, &xml, &q, &q2) else {
                    continue;
                };
                let (q_text, q2_text) = (q.to_string(), q2.to_string());
                let argv = match mode {
                    "-q" => vec!["-q", &q_text, "-q", &q2_text],
                    "--filter" => vec![mode, "-q", &q_text, "-q", &q2_text],
                    _ => vec![mode, &q_text],
                };
                let args = Args::parse(argv.into_iter().map(String::from))
                    .unwrap()
                    .unwrap();
                for step in [1, 7, 64, 4096] {
                    let mut out = Vec::new();
                    let sink = RefCell::new(Sink::new(&mut out));
                    let mut input = Trickle { data: &xml, step };
                    let count = if args.queries.len() > 1 || args.filter {
                        run_multi(&args, &mut input, &sink)
                    } else {
                        run_single(&args, &mut input, &sink)
                    };
                    let count = count.unwrap_or_else(|e| panic!("seed {seed} {mode}: {e}"));
                    sink.into_inner().finish().unwrap();
                    let out = String::from_utf8(out).unwrap();
                    assert_eq!(
                        out, expected,
                        "seed {seed} {mode} {q} {q2}, {step}-byte reads"
                    );
                    assert_eq!(count, expected_count, "seed {seed} {mode}");
                    compared += 1;
                    with_results += (count > 0) as u32;
                }
            }
        }
        assert!(compared >= 2000, "only {compared} runs compared");
        assert!(with_results >= 200, "only {with_results} runs had results");
    }
}
