//! `twigm` — grep for XML streams.
//!
//! A command-line front end for the TwigM streaming XPath processor:
//! evaluates one or more `XP{/,//,*,[]}` queries over a file or stdin in
//! a single pass with bounded memory, printing node ids, fragments, or
//! counts. A serial run prints each result as soon as it is decided
//! (see `sink`).
//!
//! ```text
//! twigm '//book[@year >= 2000]/title' catalog.xml
//! cat feed.xml | twigm --fragments '//quote[price > 100]'
//! twigm --count --engine dom '//a[b]//c' data.xml   # cross-check a baseline
//! twigm -q '//alert' -q '//order[total > 10]' feed.xml   # standing queries
//! ```

use std::cell::RefCell;
use std::io::{BufReader, ErrorKind, Read};
use std::process::ExitCode;
use std::time::Instant;

mod args;
mod run;
mod sink;

use args::Args;
use sink::Sink;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS, // --help
        Err(message) => {
            eprintln!("twigm: {message}");
            eprintln!("try `twigm --help`");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut stdout = std::io::stdout().lock();
    let sink = RefCell::new(Sink::new(&mut stdout));
    let run = input(&args).and_then(|mut input| {
        if args.queries.len() > 1 || args.filter {
            run::run_multi(&args, &mut input, &sink)
        } else {
            run::run_single(&args, &mut input, &sink)
        }
    });
    // The lines written before an error stay written. A failed write
    // outranks the run's own outcome, since it is what stopped a
    // streaming run; a closed pipe is a reader such as `head` saying it
    // has seen enough, so it ends the run quietly and successfully.
    let run = match sink.into_inner().finish() {
        Ok(()) => run,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => return ExitCode::SUCCESS,
        Err(e) => Err(e.to_string()),
    };
    match run {
        Ok(matches) => {
            if args.time {
                eprintln!("twigm: {matches} match(es) in {:.3?}", start.elapsed());
            }
            if matches > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1) // grep convention: no matches
            }
        }
        Err(message) => {
            eprintln!("twigm: {message}");
            ExitCode::from(2)
        }
    }
}

// `Send` so the pipelined path (`--threads`) can move the stream to the
// producer thread; stdin and buffered files both qualify.
fn input(args: &Args) -> Result<Box<dyn Read + Send>, String> {
    match &args.file {
        None => Ok(Box::new(std::io::stdin())),
        Some(path) if path == "-" => Ok(Box::new(std::io::stdin())),
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            Ok(Box::new(BufReader::with_capacity(256 * 1024, file)))
        }
    }
}
