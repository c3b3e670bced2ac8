//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Builds the release `twigm` binary from the enclosing repository,
//! generates the workload's input from the seed, checks every run against
//! the DOM oracle, and prints a human-readable report followed by one
//! JSON result line.

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use perfbench::bench::{self, Context};
use perfbench::calibrate;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: only generate the input and the oracle into this
    /// directory, in a process of its own.
    prepare_into: Option<PathBuf>,
    /// Internal: run this `twigm` binary once on inputs already prepared
    /// in `--work`, and print the run's summary line.
    run_once: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut prepare_into = None;
    let mut twigm = None;
    let mut work = None;
    let mut argv = env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => trace = value()? == "1",
            "--prepare-into" => prepare_into = Some(PathBuf::from(value()?)),
            "--run-once" => twigm = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        prepare_into,
        run_once: twigm.zip(work),
    })
}

/// Builds `twigm-cli` in release mode into `target` and returns the
/// binary's path.
fn build_twigm(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "twigm-cli",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building twigm failed ({status})"));
    }
    Ok(target.join("release").join("twigm"))
}

/// Generates the input and the oracle in a child process, so that the
/// measuring process never holds them (see [`bench::load`]).
fn prepare_in_child(args: &Args, work: &Path) -> Result<(), String> {
    let exe = env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args([
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--prepare-into")
        .arg(work)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("preparing the inputs failed ({status})"));
    }
    Ok(())
}

/// One measured `twigm` run, made by a fresh copy of this program that
/// loads only the small expected output: `twigm`'s peak RSS as the
/// kernel reports it is then not inflated by this process's own peak.
fn run_once_in_child(args: &Args, ctx: &Context) -> Result<bench::Summary, String> {
    let exe = env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--run-once")
        .arg(&ctx.twigm)
        .arg("--work")
        .arg(&ctx.work)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("a measured run failed ({})", out.status));
    }
    bench::Summary::from_line(String::from_utf8_lossy(&out.stdout).trim())
}

fn run() -> Result<(), String> {
    // Internal: one calibration run (see `perfbench::calibrate`).
    let argv: Vec<String> = env::args().collect();
    if let [_, flag, path] = &argv[..] {
        if flag == "--calibrate" {
            calibrate::run_pass(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            return Ok(());
        }
    }
    let args = parse_args()?;
    if let Some(work) = &args.prepare_into {
        bench::prepare(work, args.workload, args.seed)?;
        return Ok(());
    }
    if let Some((twigm, work)) = &args.run_once {
        let ctx = Context {
            twigm: twigm.clone(),
            work: work.clone(),
        };
        let prepared = bench::load(work, args.workload.clone(), args.seed)?;
        println!("{}", prepared.run_once(&ctx)?.to_line());
        return Ok(());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark directory has no parent")?;
    let cwd = env::current_dir().map_err(|e| e.to_string())?;
    let target = match env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => cwd.join(dir),
        None => root.join(".bench_build"),
    };
    let twigm = build_twigm(root, &target)?;
    let work = target.join("perfbench");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Context { twigm, work };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (prepared, outcome) = if args.trace {
        let prepared = bench::prepare(&ctx.work, args.workload, args.seed)?;
        let outcome = bench::measure_traced(&ctx, &prepared, args.seconds)?;
        (prepared, outcome)
    } else {
        prepare_in_child(&args, &ctx.work)?;
        let prepared = bench::load(&ctx.work, args.workload.clone(), args.seed)?;
        let outcome = bench::measure(&ctx, &prepared, args.seconds, || {
            run_once_in_child(&args, &ctx)
        })?;
        (prepared, outcome)
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    println!(
        "perfbench workload={} seed={} input_bytes={} expected_results={} cores={} trace={} seconds={}",
        prepared.workload.name,
        prepared.seed,
        prepared.bytes,
        prepared.expected.len(),
        cores,
        args.trace as u8,
        args.seconds
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, unit) in table {
        println!(
            "  {name:<34} {:>16.6} {unit}",
            outcome.get(name).unwrap_or(0.0)
        );
    }
    println!(
        "  {:<34} {:>16.6} fraction ({} of {} operations failed)",
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.json(table));
    bench::remove_inputs(&ctx.work, &prepared.workload, prepared.seed);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
