//! Runs of the `twigm` binary as a child process: wall time, the arrival
//! time of every stdout line, exit status and peak resident memory.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// One finished `twigm` process.
#[derive(Debug)]
pub struct ChildRun {
    /// Exit code, or 128 + signal number.
    pub status: i32,
    /// From the origin (spawn, or the first due write of a feed) to exit.
    pub wall: Duration,
    /// When each stdout line arrived, from the same origin.
    pub line_times: Vec<Duration>,
    /// Everything the process printed.
    pub stdout: Vec<u8>,
    /// Peak resident set size, KiB.
    pub peak_rss_kib: u64,
}

/// A [`ChildRun`] fed through stdin by the open-loop generator.
#[derive(Debug)]
pub struct FeedRun {
    /// The process; its times count from the first write's due time.
    pub run: ChildRun,
    /// Largest lateness of a write against its due time.
    pub max_lag: Duration,
    /// When the last write returned, from the first write's due time.
    pub last_write: Duration,
}

/// Runs `bin args` with no stdin and waits for it to exit.
pub fn run_file(bin: &Path, args: &[String]) -> io::Result<ChildRun> {
    let origin = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let (stdout, line_times) = read_lines(&mut out, origin)?;
    let (status, peak_rss_kib) = reap(&child)?;
    Ok(ChildRun {
        status,
        wall: origin.elapsed(),
        line_times,
        stdout,
        peak_rss_kib,
    })
}

/// Runs `bin args`, writing the file `input` to its stdin in `chunk`-byte
/// writes, write `i` due at `i · chunk / rate` seconds after the first.
/// A write that is late does not shift the schedule of the ones after it.
pub fn run_feed(
    bin: &Path,
    args: &[String],
    input: &Path,
    chunk: usize,
    rate: u64,
) -> io::Result<FeedRun> {
    let mut data = File::open(input)?;
    let mut piece = vec![0u8; chunk];
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let origin = Instant::now();
    let mut out = child.stdout.take().expect("stdout is piped");
    let reader = thread::spawn(move || read_lines(&mut out, origin));
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut max_lag = Duration::ZERO;
    for i in 0.. {
        let n = read_up_to(&mut data, &mut piece)?;
        if n == 0 {
            break;
        }
        let due = origin + due_offset(i, chunk, rate);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        max_lag = max_lag.max(Instant::now().saturating_duration_since(due));
        if stdin.write_all(&piece[..n]).is_err() {
            break; // the process exited early; its status tells why
        }
    }
    let last_write = origin.elapsed();
    drop(stdin);
    let (stdout, line_times) = reader.join().expect("stdout reader panicked")?;
    let (status, peak_rss_kib) = reap(&child)?;
    Ok(FeedRun {
        run: ChildRun {
            status,
            wall: origin.elapsed(),
            line_times,
            stdout,
            peak_rss_kib,
        },
        max_lag,
        last_write,
    })
}

/// Due time of write `i` relative to the first.
pub fn due_offset(i: usize, chunk: usize, rate: u64) -> Duration {
    Duration::from_nanos((i as u128 * chunk as u128 * 1_000_000_000 / rate as u128) as u64)
}

/// Fills `buf` from `src` unless EOF comes first; returns the length.
fn read_up_to(src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match src.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Reads `src` to EOF, stamping every newline with its arrival time.
fn read_lines(src: &mut impl Read, origin: Instant) -> io::Result<(Vec<u8>, Vec<Duration>)> {
    let mut buf = vec![0u8; 64 * 1024];
    let mut out = Vec::new();
    let mut times = Vec::new();
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) => return Ok((out, times)),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let at = origin.elapsed();
        times.extend(buf[..n].iter().filter(|&&b| b == b'\n').map(|_| at));
        out.extend_from_slice(&buf[..n]);
    }
}

/// `struct rusage` of Linux: two `timeval`s, then fourteen `long`s of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    times: [c_long; 4],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
}

/// Waits for `child` with `wait4`, which, unlike `Child::wait`, also
/// returns the process's own peak RSS. Returns (status, peak RSS KiB).
fn reap(child: &Child) -> io::Result<(i32, u64)> {
    let pid = child.id() as c_int;
    let mut status: c_int = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as the kernel's `int` and `struct rusage`; `pid` is our own
        // unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok((code, usage.maxrss.max(0) as u64))
}
