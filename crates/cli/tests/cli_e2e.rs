//! End-to-end tests of the `twigm` binary: spawn the real executable,
//! check stdout/stderr/exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

fn twigm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_twigm"))
}

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> (String, String, i32) {
    let mut child = twigm()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn twigm");
    // The process may exit before reading stdin (e.g. a bad flag), so a
    // broken pipe here is expected, not a failure.
    let _ = child.stdin.take().expect("stdin piped").write_all(stdin);
    let output = child.wait_with_output().expect("twigm runs");
    (
        String::from_utf8(output.stdout).expect("utf8 stdout"),
        String::from_utf8(output.stderr).expect("utf8 stderr"),
        output.status.code().unwrap_or(-1),
    )
}

#[test]
fn ids_from_stdin() {
    let (out, _, code) = run_with_stdin(&["//a/b"], b"<r><a><b/></a><b/></r>");
    assert_eq!(out, "2\n");
    assert_eq!(code, 0);
}

#[test]
fn count_and_fragments() {
    let xml = b"<r><a><b>hi</b></a><a/></r>";
    let (out, _, _) = run_with_stdin(&["--count", "//a"], xml);
    assert_eq!(out, "2\n");
    let (out, _, _) = run_with_stdin(&["--fragments", "//a[b]"], xml);
    assert_eq!(out, "<a><b>hi</b></a>\n");
}

#[test]
fn no_match_exit_code_is_one() {
    let (out, _, code) = run_with_stdin(&["//zzz"], b"<r/>");
    assert_eq!(out, "");
    assert_eq!(code, 1);
}

#[test]
fn errors_exit_two() {
    // Bad query.
    let (_, err, code) = run_with_stdin(&["("], b"<r/>");
    assert_eq!(code, 2);
    assert!(err.contains("twigm:"));
    // Malformed XML.
    let (_, _, code) = run_with_stdin(&["//a"], b"<r>");
    assert_eq!(code, 2);
    // Missing file.
    let (_, _, code) = run_with_stdin(&["//a", "/nonexistent/file.xml"], b"");
    assert_eq!(code, 2);
    // Unknown flag.
    let (_, _, code) = run_with_stdin(&["--frobnicate", "//a"], b"");
    assert_eq!(code, 2);
}

#[test]
fn file_argument() {
    let dir = std::env::temp_dir().join(format!("twigm-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.xml");
    std::fs::write(&path, b"<r><x/><x/><x/></r>").unwrap();
    let (out, _, code) = run_with_stdin(&["-c", "//x", path.to_str().unwrap()], b"");
    assert_eq!(out, "3\n");
    assert_eq!(code, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_go_to_stderr() {
    let (out, err, _) = run_with_stdin(&["--stats", "-c", "//a"], b"<r><a/></r>");
    assert_eq!(out, "1\n");
    assert!(err.contains("events"));
    assert!(err.contains("peak"));
}

#[test]
fn multi_query_mode() {
    let (out, _, code) = run_with_stdin(
        &["-q", "//a", "-q", "//b[c]"],
        b"<r><a/><b><c/></b><b/></r>",
    );
    assert_eq!(code, 0);
    assert!(out.contains("Q0\t1"));
    assert!(out.contains("Q1\t2"));
    assert_eq!(out.lines().count(), 2);
}

#[test]
fn help_prints_usage() {
    let (out, _, code) = run_with_stdin(&["--help"], b"");
    assert!(out.contains("USAGE"));
    assert_eq!(code, 0);
}

/// TwigM is the only machine: the sub-machine and auto-selection names
/// are gone from `--engine`, and the help lists what is left.
#[test]
fn engine_vocabulary_is_twig_and_the_baselines() {
    for retired in ["path", "branch", "auto"] {
        let (out, err, code) = run_with_stdin(&["--engine", retired, "//a"], b"<r><a/></r>");
        assert_eq!(code, 2, "--engine {retired}");
        assert_eq!(out, "", "--engine {retired}");
        assert!(
            err.contains("twig|naive|dfa|dom"),
            "--engine {retired}: {err}"
        );
    }
    let (help, _, _) = run_with_stdin(&["--help"], b"");
    assert!(help.contains("twig|naive|dfa|dom (default twig)"), "{help}");
    assert!(!help.contains("auto"), "{help}");
}

/// A predicate-free query runs on TwigM and says so in its stats.
#[test]
fn predicate_free_queries_report_the_twig_engine() {
    let (out, err, code) = run_with_stdin(&["--stats=json", "//a/b"], b"<r><a><b/></a></r>");
    assert_eq!(code, 0);
    assert_eq!(out, "2\n");
    assert!(err.contains(r#""engine":"twig""#), "{err}");
}

#[test]
fn dom_engine_cross_checks_twig() {
    let xml = b"<r><a><b/><c/></a><a><b/></a></r>";
    let (twig_out, _, _) = run_with_stdin(&["--engine", "twig", "//a[c]/b"], xml);
    let (dom_out, _, _) = run_with_stdin(&["--engine", "dom", "//a[c]/b"], xml);
    assert_eq!(twig_out, dom_out);
}

#[test]
fn values_mode_prints_attribute_values() {
    let xml = br#"<bib><book year="1999"/><book year="2006"><title/></book></bib>"#;
    let (out, _, code) = run_with_stdin(&["--values", "//book/@year"], xml);
    assert_eq!(out, "1999\n2006\n");
    assert_eq!(code, 0);
    let (out, _, _) = run_with_stdin(&["--values", "//book[title]/@year"], xml);
    assert_eq!(out, "2006\n");
    // --values without an attr query is an error.
    let (_, err, code) = run_with_stdin(&["--values", "//book"], xml);
    assert_eq!(code, 2);
    assert!(err.contains("/@attr"));
}

#[test]
fn union_queries_merge_results() {
    let xml = b"<r><a/><b><c/></b><a/></r>";
    let (out, _, code) = run_with_stdin(&["//a | //b[c]"], xml);
    assert_eq!(out, "1\n2\n4\n");
    assert_eq!(code, 0);
    let (out, _, _) = run_with_stdin(&["-c", "//a | //a"], xml);
    assert_eq!(out, "2\n", "overlapping branches deduplicate");
    let (_, err, code) = run_with_stdin(&["--fragments", "//a | //b"], xml);
    assert_eq!(code, 2);
    assert!(err.contains("union"));
}

#[test]
fn entity_declarations_flow_through() {
    let xml = br#"<!DOCTYPE r [<!ENTITY who "world">]><r><p>hello &who;</p></r>"#;
    let (out, _, _) = run_with_stdin(&["-c", "//p[contains(text(), 'world')]"], xml);
    assert_eq!(out, "1\n");
}

#[test]
fn filter_mode_reports_matching_queries_once() {
    let xml = b"<r><a/><a/><b><c/></b></r>";
    let (out, _, code) = run_with_stdin(
        &["--filter", "-q", "//a", "-q", "//b[c]", "-q", "//zzz"],
        xml,
    );
    assert_eq!(code, 0);
    let mut lines: Vec<&str> = out.lines().collect();
    lines.sort_unstable();
    assert_eq!(lines, vec!["Q0", "Q1"]);
}

/// A Figure-2-style query (descendant axes + predicate over recursive
/// data) driven end-to-end with every observability flag at once.
#[test]
fn observability_flags_on_a_figure_2_query() {
    let dir = std::env::temp_dir().join(format!("twigm-obs-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let xml = b"<r><a><a><b/><c/></a><c/></a><a/></r>";
    let (out, err, code) = run_with_stdin(
        &[
            "--stats=json",
            "--progress",
            "--trace",
            trace_path.to_str().unwrap(),
            "-c",
            "//a[b]//c",
        ],
        xml,
    );
    assert_eq!(code, 0);
    assert_eq!(out, "1\n", "only the inner <a> has a <b> child");
    // One twigm-stats-v1 object on stderr with the telemetry fields.
    let json_line = err
        .lines()
        .find(|l| l.contains("twigm-stats-v1"))
        .unwrap_or_else(|| panic!("no stats json on stderr: {err}"));
    for needle in [
        r#""engine":"twig""#,
        r#""bytes":37"#,
        r#""max_depth":4"#,
        r#""qr_bound""#,
        r#""first_result_event""#,
        r#""results":1"#,
    ] {
        assert!(
            json_line.contains(needle),
            "missing {needle} in {json_line}"
        );
    }
    // The Chrome trace landed on disk with balanced spans.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with(r#"{"traceEvents":["#));
    assert_eq!(
        trace.matches(r#""ph":"B""#).count(),
        trace.matches(r#""ph":"E""#).count()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_pretty_reports_the_memory_bound() {
    let (out, err, code) = run_with_stdin(
        &["--stats=pretty", "-c", "//a[b]//c"],
        b"<r><a><b/><c/></a></r>",
    );
    assert_eq!(code, 0);
    assert_eq!(out, "1\n");
    assert!(err.contains("peak entries"), "{err}");
    assert!(err.contains("|Q|"), "{err}");
    assert!(err.contains("events/s"), "{err}");
}

#[test]
fn progress_heartbeats_appear_for_large_inputs() {
    // ~30k events: enough to cross several 4096-event heartbeats.
    let mut xml = String::from("<r>");
    for _ in 0..5000 {
        xml.push_str("<a><b/></a>");
    }
    xml.push_str("</r>");
    let (out, err, code) = run_with_stdin(&["--progress", "-c", "//a[b]"], xml.as_bytes());
    assert_eq!(code, 0);
    assert_eq!(out, "5000\n");
    let heartbeats = err
        .lines()
        .filter(|l| l.starts_with("twigm: progress:"))
        .count();
    assert!(heartbeats >= 2, "expected several heartbeats: {err}");
    assert!(err.contains("events/s"), "{err}");
}

/// Satellite check: union queries report stats instead of silently
/// dropping them (they used to bypass the streaming stats path).
#[test]
fn union_queries_report_stats() {
    let xml = b"<r><a/><b><c/></b></r>";
    let (out, err, code) = run_with_stdin(&["--stats", "-c", "//a | //b[c]"], xml);
    assert_eq!(code, 0);
    assert_eq!(out, "2\n");
    assert!(err.contains("events"), "union --stats was dropped: {err}");
    assert!(err.contains("result(s)"), "{err}");
    let (_, err, _) = run_with_stdin(&["--stats=json", "//a | //b[c]"], xml);
    assert!(err.contains(r#""engine":"multi""#), "{err}");
}

#[test]
fn trace_jsonl_from_stdin() {
    let dir = std::env::temp_dir().join(format!("twigm-jsonl-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let (out, _, code) = run_with_stdin(
        &["--trace", path.to_str().unwrap(), "//a/b"],
        b"<r><a><b/></a></r>",
    );
    assert_eq!(code, 0);
    assert_eq!(out, "2\n");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(text.contains(r#""kind":"push""#), "{text}");
    assert!(text.contains(r#""tag":"a""#), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn filter_mode_applies_to_a_single_query_too() {
    let xml = b"<r><a/><a/><a/></r>";
    let (out, _, code) = run_with_stdin(&["--filter", "-q", "//a"], xml);
    assert_eq!(out, "Q0\n", "one line despite three matches");
    assert_eq!(code, 0);
}

/// Which tags a query mentions must not decide whether a document is
/// accepted: attribute values are checked for bad references even on
/// tags whose attributes no engine decodes, in every mode.
#[test]
fn attribute_entities_are_checked_whatever_the_query_mentions() {
    let xml = br#"<r><x a="&bogus;"/><y/></r>"#;
    let invocations: [&[&str]; 5] = [
        &["//y"],
        &["--threads", "2", "//y"],
        &["-q", "//y", "-q", "//x"],
        &["//x/@a"],
        &["--engine", "dom", "//y"],
    ];
    for args in invocations {
        let (out, err, code) = run_with_stdin(args, xml);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert_eq!(out, "", "{args:?}");
        assert!(
            err.contains("unknown entity `&bogus;` at byte 3"),
            "{args:?}: {err}"
        );
    }
}

/// Bytes the reader never turns into an event (a processing
/// instruction's data, the XML declaration) are still checked for UTF-8,
/// and every mode reports the bad byte instead of panicking. A `-q` run
/// keeps what it decided before the bad byte: `<r>` is decided at its
/// start tag, as `twigm //r` prints `0`.
#[test]
fn invalid_utf8_in_pi_data_and_the_declaration_exits_two() {
    for (xml, offset, multi_out) in [
        (&b"<r><?pi \xff?></r>"[..], 8, "Q0\t0\n"),
        (b"<?xml version=\"1.0\" encoding=\"\xff\"?><r/>", 30, ""),
    ] {
        let invocations: [(&[&str], &str); 4] = [
            (&["--count", "//r"], ""),
            (&["--engine", "dom", "--count", "//r"], ""),
            (&["--threads", "2", "--count", "//r"], ""),
            (&["-q", "//r", "-q", "//x"], multi_out),
        ];
        for (args, expected_out) in invocations {
            let (out, err, code) = run_with_stdin(args, xml);
            assert_eq!(code, 2, "{args:?}: {err}");
            assert_eq!(out, expected_out, "{args:?}");
            let expected = format!("invalid UTF-8 at byte {offset}");
            assert!(err.contains(&expected), "{args:?}: {err}");
        }
    }
}

/// The error is the same in every mode. A serial run has already
/// printed `//r`'s root, decided at its start tag before the bad
/// reference; `--threads` prints nothing before an error.
#[test]
fn character_references_must_name_xml_chars() {
    for (xml, query, serial_out) in [
        (&b"<r>&#0;</r>"[..], "//r", "0\n"),
        (br#"<r><x a="&#1;"/><y/></r>"#, "//y", ""),
    ] {
        for (threads, expected_out) in [("1", serial_out), ("2", "")] {
            let (out, err, code) = run_with_stdin(&["--threads", threads, query], xml);
            assert_eq!(code, 2, "{err}");
            assert_eq!(out, expected_out, "--threads {threads}");
            assert!(err.contains("invalid character reference"), "{err}");
        }
    }
}

/// `-q` runs take the same serial loop as single queries, so they get
/// heartbeats and the full stream telemetry.
#[test]
fn multi_query_runs_report_progress_and_telemetry() {
    let mut xml = String::from("<r>");
    for _ in 0..3000 {
        xml.push_str("<a><b/></a>");
    }
    xml.push_str("</r>");
    let queries = ["-q", "//a", "-q", "//b"];
    let (plain, _, _) = run_with_stdin(&queries, xml.as_bytes());
    let mut flagged = vec!["--progress", "--stats=json"];
    flagged.extend(queries);
    let (out, err, code) = run_with_stdin(&flagged, xml.as_bytes());
    assert_eq!(code, 0, "{err}");
    assert_eq!(out, plain, "flags changed the output");
    assert!(err.contains("twigm: progress:"), "{err}");
    let json_line = err
        .lines()
        .find(|l| l.contains("twigm-stats-v1"))
        .unwrap_or_else(|| panic!("no stats json on stderr: {err}"));
    for needle in [
        format!(r#""bytes":{}"#, xml.len()),
        r#""max_depth":3"#.to_string(),
        // <r>, <a> — //a is decided at its start tag.
        r#""first_result_event":2"#.to_string(),
    ] {
        assert!(
            json_line.contains(&needle),
            "missing {needle} in {json_line}"
        );
    }
}

/// A running `twigm` with its stdin open and its stdout lines arriving
/// on a channel, so a test can wait for a line with a timeout.
struct Streaming {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
    lines: std::sync::mpsc::Receiver<String>,
    reader: std::thread::JoinHandle<()>,
}

impl Streaming {
    fn spawn(args: &[&str]) -> Streaming {
        use std::io::BufRead;
        let mut child = twigm()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn twigm");
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout piped");
        let (tx, lines) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines() {
                if tx.send(line.expect("utf8 stdout")).is_err() {
                    break;
                }
            }
        });
        Streaming {
            child,
            stdin,
            lines,
            reader,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        let stdin = self.stdin.as_mut().expect("stdin still open");
        stdin.write_all(bytes).expect("write stdin");
        stdin.flush().expect("flush stdin");
    }

    fn next_line(&self, timeout: std::time::Duration) -> Option<String> {
        self.lines.recv_timeout(timeout).ok()
    }

    /// Writes `rest`, closes stdin and returns the lines not yet
    /// received, stderr and the exit code.
    fn finish(mut self, rest: &[u8]) -> (Vec<String>, String, i32) {
        use std::io::Read;
        self.write(rest);
        drop(self.stdin.take());
        let status = self.child.wait().expect("twigm runs");
        let mut err = String::new();
        let mut stderr = self.child.stderr.take().expect("stderr piped");
        stderr.read_to_string(&mut err).expect("utf8 stderr");
        let rest = self.lines.iter().collect();
        self.reader.join().expect("stdout reader thread");
        (rest, err, status.code().unwrap_or(-1))
    }
}

const STREAM_PREFIX: &[u8] = br#"<r><a k="1"><b/></a>"#;
const STREAM_REST: &[u8] = br#"<a k="2"/><b/></r>"#;

/// Every serial mode whose output is in decision order prints a result
/// as soon as it is decided: the first line arrives while stdin is still
/// open, and the whole output is what the run over the complete document
/// prints.
#[test]
fn results_leave_before_end_of_input() {
    let doc = [STREAM_PREFIX, STREAM_REST].concat();
    let modes: [&[&str]; 5] = [
        &["//a"],
        &["-q", "//a", "-q", "//b"],
        &["-q", "/r/a", "-q", "//zz"],
        &["--values", "//a/@k"],
        &["--fragments", "//a[b]"],
    ];
    for args in modes {
        let (whole, _, code) = run_with_stdin(args, &doc);
        assert_eq!(code, 0, "{args:?}");
        let mut run = Streaming::spawn(args);
        run.write(STREAM_PREFIX);
        let first = run.next_line(std::time::Duration::from_secs(20));
        let first = first.unwrap_or_else(|| panic!("{args:?}: no line before end of input"));
        let (rest, err, code) = run.finish(STREAM_REST);
        assert_eq!((code, err.as_str()), (0, ""), "{args:?}");
        let mut lines = vec![first];
        lines.extend(rest);
        assert_eq!(lines.join("\n") + "\n", whole, "{args:?}");
    }
}

/// `-c`, a `|` union (document order, deduplicated) and `--threads` keep
/// printing after end of input, with the same bytes as ever.
#[test]
fn count_unions_and_threads_print_after_end_of_input() {
    let cases: [(&[&str], &str); 3] = [
        (&["-c", "//a"], "2\n"),
        (&["//a | //b"], "1\n2\n3\n4\n"),
        (&["--threads", "2", "//a"], "1\n3\n"),
    ];
    for (args, expected) in cases {
        let mut run = Streaming::spawn(args);
        run.write(STREAM_PREFIX);
        let early = run.next_line(std::time::Duration::from_millis(300));
        assert_eq!(early, None, "{args:?} printed before end of input");
        let (lines, err, code) = run.finish(STREAM_REST);
        assert_eq!((code, err.as_str()), (0, ""), "{args:?}");
        assert_eq!(lines.join("\n") + "\n", expected, "{args:?}");
    }
}

/// A serial streaming run keeps the lines it wrote before an error, then
/// reports the error as before; `--threads` prints nothing before one.
#[test]
fn results_decided_before_an_error_stay_printed() {
    let xml = b"<r><a/><a>";
    let cases: [(&[&str], &str); 3] = [
        (&["//a"], "1\n2\n"),
        (&["-q", "//a", "-q", "//b"], "Q0\t1\nQ0\t2\n"),
        (&["--threads", "2", "//a"], ""),
    ];
    for (args, expected) in cases {
        let (out, err, code) = run_with_stdin(args, xml);
        assert_eq!(code, 2, "{args:?}");
        assert_eq!(out, expected, "{args:?}");
        assert_eq!(
            err, "twigm: unexpected end of stream: <a> is still open\n",
            "{args:?}"
        );
    }
}

/// `twigm //x big.xml | head -1`: once the reader of stdout has gone,
/// the run stops at its next flush, without reading the rest of its
/// input, and exits 0 with nothing on stderr.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::BufRead;
    const CHUNK: usize = 64 * 1024;
    const CHUNKS: usize = 256; // 16 MiB of input in all
    let mut child = twigm()
        .arg("//x")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn twigm");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let writer = std::thread::spawn(move || {
        let chunk = "<x/>".repeat(CHUNK / 4);
        let mut written = 0;
        if stdin.write_all(b"<r>").is_err() {
            return written;
        }
        for _ in 0..CHUNKS {
            if stdin.write_all(chunk.as_bytes()).is_err() {
                return written;
            }
            written += CHUNK;
        }
        let _ = stdin.write_all(b"</r>");
        written
    });
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read one line");
    assert_eq!(line, "1\n");
    drop(stdout);
    let output = child.wait_with_output().expect("twigm runs");
    let written = writer.join().expect("writer thread");
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&output.stderr), "");
    assert!(
        written < CHUNK * CHUNKS,
        "twigm read all {written} bytes of its input after stdout closed"
    );
}
