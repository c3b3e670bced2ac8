//! Hand-rolled argument parsing (the approved dependency list has no CLI
//! parser, and the surface is small enough not to need one).

/// What to print per match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Pre-order node ids, one per line (default).
    Ids,
    /// Serialized XML fragments, one per line.
    Fragments,
    /// Only the total count.
    Count,
    /// Attribute values (for queries ending in `/@attr`).
    Values,
}

/// Which engine evaluates the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The TwigM machine, which runs every query (default).
    Twig,
    /// The explicit-enumeration baseline (for cross-checking).
    Naive,
    /// The lazy-DFA baseline (predicate-free queries only).
    Dfa,
    /// The in-memory DOM baseline (loads the whole input).
    Dom,
}

/// How to report run statistics on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsMode {
    /// No stats reporting (default).
    Off,
    /// The classic one-line counter summary (`--stats`).
    Text,
    /// One `twigm-stats-v1` JSON object (`--stats=json`).
    Json,
    /// A multi-line human-readable report (`--stats=pretty`).
    Pretty,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The queries (one = classic mode; several = tagged multi-query).
    pub queries: Vec<String>,
    /// Input path (`None` / `-` = stdin).
    pub file: Option<String>,
    /// Output mode.
    pub output: OutputMode,
    /// Engine selection.
    pub engine: EngineChoice,
    /// Stats reporting mode (stderr).
    pub stats: StatsMode,
    /// Write a machine transition trace to this file (`.jsonl` = JSON
    /// Lines, anything else = Chrome trace-event JSON).
    pub trace: Option<String>,
    /// Periodic throughput heartbeats on stderr.
    pub progress: bool,
    /// Print elapsed time to stderr.
    pub time: bool,
    /// Filtering mode: report each matching query once (with `-q`).
    pub filter: bool,
    /// Worker threads. 1 (default) is the untouched serial path; above
    /// that the scan runs pipelined on a producer thread and union
    /// queries are sharded across workers.
    pub threads: usize,
}

const HELP: &str = "\
twigm — streaming XPath (XP{/,//,*,[]}) processor

USAGE:
    twigm [OPTIONS] QUERY [FILE]
    twigm [OPTIONS] -q QUERY [-q QUERY]... [FILE]

ARGS:
    QUERY   an XPath query, e.g. '//book[@year >= 2000]/title';
            unions are supported: '//a/b | //c[d]'
    FILE    XML input; omitted or '-' reads stdin

OPTIONS:
    -q, --query QUERY   register a standing query (repeatable); with
                        several queries, output lines are 'Qi<TAB>id'
        --ids           print matched node ids (default)
        --fragments     print matched elements as XML fragments
        --values        print attribute values (queries ending in /@attr)
    -c, --count         print only the number of matches
        --engine NAME   twig|naive|dfa|dom (default twig): the TwigM
                        machine, or a baseline to cross-check it with
        --filter        with -q: boolean filtering — print each matching
                        query once and stop evaluating it (pub/sub mode)
        --stats[=MODE]  print run statistics to stderr; MODE is text
                        (default: one-line counters), json (one
                        twigm-stats-v1 object), or pretty (multi-line
                        report with throughput and the |Q|·R bound)
        --trace FILE    record every machine transition (pushes, pops,
                        uploads, results); FILE ending in .jsonl gets
                        JSON Lines, anything else the Chrome trace-event
                        format (open in chrome://tracing or Perfetto);
                        machine engines only, --ids/--count output
        --progress      print throughput heartbeats to stderr while
                        streaming
        --threads N     parallel pipelined execution (default 1 = serial):
                        the XML scan moves to a producer thread feeding
                        batched events through a bounded queue, and a
                        union query's branches are sharded over N-1
                        evaluator threads; output is byte-identical to
                        the serial run; machine engines, --ids/--count
        --time          print elapsed time to stderr
    -h, --help          show this help

EXIT STATUS: 0 matches found, 1 no matches, 2 error.";

impl Args {
    /// Parses arguments; `Ok(None)` means help was printed.
    pub fn parse<I: Iterator<Item = String>>(mut argv: I) -> Result<Option<Args>, String> {
        let mut args = Args {
            queries: Vec::new(),
            file: None,
            output: OutputMode::Ids,
            engine: EngineChoice::Twig,
            stats: StatsMode::Off,
            trace: None,
            progress: false,
            time: false,
            filter: false,
            threads: 1,
        };
        let mut positional: Vec<String> = Vec::new();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "-h" | "--help" => {
                    println!("{HELP}");
                    return Ok(None);
                }
                "-q" | "--query" => {
                    let q = argv.next().ok_or("--query requires a value")?;
                    args.queries.push(q);
                }
                "--ids" => args.output = OutputMode::Ids,
                "--values" => args.output = OutputMode::Values,
                "--fragments" => args.output = OutputMode::Fragments,
                "-c" | "--count" => args.output = OutputMode::Count,
                "--stats" => args.stats = StatsMode::Text,
                mode if mode.starts_with("--stats=") => {
                    args.stats = match &mode["--stats=".len()..] {
                        "text" => StatsMode::Text,
                        "json" => StatsMode::Json,
                        "pretty" => StatsMode::Pretty,
                        other => {
                            return Err(format!("unknown stats mode `{other}` (text|json|pretty)"))
                        }
                    };
                }
                "--trace" => {
                    let path = argv.next().ok_or("--trace requires a file path")?;
                    args.trace = Some(path);
                }
                "--progress" => args.progress = true,
                "--threads" => {
                    let n = argv.next().ok_or("--threads requires a value")?;
                    args.threads =
                        n.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--threads expects a positive integer, got `{n}`")
                        })?;
                }
                "--filter" => args.filter = true,
                "--time" => args.time = true,
                "--engine" => {
                    let name = argv.next().ok_or("--engine requires a value")?;
                    args.engine = match name.as_str() {
                        "twig" => EngineChoice::Twig,
                        "naive" => EngineChoice::Naive,
                        "dfa" => EngineChoice::Dfa,
                        "dom" => EngineChoice::Dom,
                        other => {
                            return Err(format!("unknown engine `{other}` (twig|naive|dfa|dom)"))
                        }
                    };
                }
                other if other.starts_with('-') && other != "-" => {
                    return Err(format!("unknown option `{other}`"));
                }
                _ => positional.push(arg),
            }
        }
        // Positional handling: if no -q queries, the first positional is
        // the query; the next is the file.
        let mut positional = positional.into_iter();
        if args.queries.is_empty() {
            args.queries
                .push(positional.next().ok_or("missing QUERY argument")?);
        }
        args.file = positional.next();
        if let Some(extra) = positional.next() {
            return Err(format!("unexpected argument `{extra}`"));
        }
        if args.queries.len() > 1
            && matches!(args.output, OutputMode::Fragments | OutputMode::Values)
        {
            return Err("--fragments/--values are not supported with multiple queries".into());
        }
        if args.filter && matches!(args.output, OutputMode::Fragments | OutputMode::Values) {
            return Err("--filter reports query names; --fragments/--values do not apply".into());
        }
        if args.trace.is_some() {
            if args.engine != EngineChoice::Twig {
                return Err(
                    "--trace records machine transitions; it requires --engine twig".into(),
                );
            }
            if matches!(args.output, OutputMode::Fragments | OutputMode::Values) {
                return Err("--trace supports --ids/--count output only".into());
            }
            if args.queries.len() > 1 || args.filter {
                return Err("--trace supports a single query only".into());
            }
        }
        if args.threads > 1 {
            if args.engine != EngineChoice::Twig {
                return Err("--threads requires --engine twig".into());
            }
            if matches!(args.output, OutputMode::Fragments | OutputMode::Values) {
                return Err("--threads supports --ids/--count output only".into());
            }
            if args.queries.len() > 1 || args.filter {
                return Err(
                    "--threads supports a single query (unions via `|` are sharded); \
                     tagged -q output stays serial"
                        .into(),
                );
            }
            if args.trace.is_some() || args.progress {
                return Err("--threads cannot be combined with --trace/--progress".into());
            }
        }
        Ok(Some(args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn minimal_invocation() {
        let args = parse(&["//a"]).unwrap().unwrap();
        assert_eq!(args.queries, vec!["//a"]);
        assert_eq!(args.file, None);
        assert_eq!(args.output, OutputMode::Ids);
        assert_eq!(args.engine, EngineChoice::Twig);
    }

    #[test]
    fn engine_vocabulary_is_twig_and_the_baselines() {
        for (name, choice) in [
            ("twig", EngineChoice::Twig),
            ("naive", EngineChoice::Naive),
            ("dfa", EngineChoice::Dfa),
            ("dom", EngineChoice::Dom),
        ] {
            assert_eq!(
                parse(&["--engine", name, "//a"]).unwrap().unwrap().engine,
                choice
            );
        }
        for retired in ["auto", "path", "branch"] {
            let err = parse(&["--engine", retired, "//a"]).unwrap_err();
            assert!(err.contains("(twig|naive|dfa|dom)"), "{retired}: {err}");
        }
    }

    #[test]
    fn query_and_file() {
        let args = parse(&["//a", "data.xml"]).unwrap().unwrap();
        assert_eq!(args.file.as_deref(), Some("data.xml"));
    }

    #[test]
    fn flags_combine() {
        let args = parse(&["-c", "--engine", "dom", "--stats", "--time", "//a", "-"])
            .unwrap()
            .unwrap();
        assert_eq!(args.output, OutputMode::Count);
        assert_eq!(args.engine, EngineChoice::Dom);
        assert_eq!(args.stats, StatsMode::Text);
        assert!(args.time);
        assert_eq!(args.file.as_deref(), Some("-"));
    }

    #[test]
    fn stats_modes_parse() {
        assert_eq!(
            parse(&["//a"]).unwrap().unwrap().stats,
            StatsMode::Off,
            "stats default off"
        );
        assert_eq!(
            parse(&["--stats=json", "//a"]).unwrap().unwrap().stats,
            StatsMode::Json
        );
        assert_eq!(
            parse(&["--stats=pretty", "//a"]).unwrap().unwrap().stats,
            StatsMode::Pretty
        );
        assert_eq!(
            parse(&["--stats=text", "//a"]).unwrap().unwrap().stats,
            StatsMode::Text
        );
        assert!(parse(&["--stats=csv", "//a"]).is_err());
    }

    #[test]
    fn trace_and_progress_parse() {
        let args = parse(&["--trace", "out.json", "--progress", "//a"])
            .unwrap()
            .unwrap();
        assert_eq!(args.trace.as_deref(), Some("out.json"));
        assert!(args.progress);
    }

    #[test]
    fn trace_restrictions_are_enforced() {
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--trace", "t.json", "--engine", "dom", "//a"]).is_err());
        assert!(parse(&["--trace", "t.json", "--engine", "naive", "//a"]).is_err());
        assert!(parse(&["--trace", "t.json", "--fragments", "//a"]).is_err());
        assert!(parse(&["--trace", "t.json", "-q", "//a", "-q", "//b"]).is_err());
        assert!(parse(&["--trace", "t.json", "--filter", "-q", "//a"]).is_err());
    }

    #[test]
    fn threads_parse_and_default_to_serial() {
        assert_eq!(parse(&["//a"]).unwrap().unwrap().threads, 1);
        assert_eq!(
            parse(&["--threads", "4", "//a"]).unwrap().unwrap().threads,
            4
        );
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0", "//a"]).is_err());
        assert!(parse(&["--threads", "x", "//a"]).is_err());
    }

    #[test]
    fn threads_restrictions_are_enforced() {
        assert!(parse(&["--threads", "2", "--engine", "dom", "//a"]).is_err());
        assert!(parse(&["--threads", "2", "--engine", "naive", "//a"]).is_err());
        assert!(parse(&["--threads", "2", "--fragments", "//a"]).is_err());
        assert!(parse(&["--threads", "2", "-q", "//a", "-q", "//b"]).is_err());
        assert!(parse(&["--threads", "2", "--filter", "-q", "//a"]).is_err());
        assert!(parse(&["--threads", "2", "--trace", "t.json", "//a"]).is_err());
        assert!(parse(&["--threads", "2", "--progress", "//a"]).is_err());
        // --threads 1 is the serial path: everything still combines.
        assert!(parse(&["--threads", "1", "--progress", "//a"])
            .unwrap()
            .is_some());
        assert!(parse(&["--threads", "2", "--stats=json", "-c", "//a"])
            .unwrap()
            .is_some());
    }

    #[test]
    fn repeated_queries() {
        let args = parse(&["-q", "//a", "-q", "//b", "f.xml"])
            .unwrap()
            .unwrap();
        assert_eq!(args.queries.len(), 2);
        assert_eq!(args.file.as_deref(), Some("f.xml"));
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--engine", "nope", "//a"]).is_err());
        assert!(parse(&["--bogus", "//a"]).is_err());
        assert!(parse(&["//a", "f.xml", "extra"]).is_err());
        assert!(parse(&["-q", "//a", "-q", "//b", "--fragments"]).is_err());
        assert!(parse(&["--query"]).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse(&["--help"]).unwrap().is_none());
    }
}
