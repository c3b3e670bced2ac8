//! Correction for the machine's own drifting speed.
//!
//! The benchmark shares its CPU cores with other tenants, whose load
//! changes the speed of branchy, byte-at-a-time code by up to ±30% over
//! minutes: ten consecutive 28-second runs of `protein-path` read from
//! 79 to 141 MB/s with the same binary. No run of any length averages
//! that out. So before every run of `twigm` an untraced benchmark run
//! also times a calibration run: a fresh process of this benchmark that
//! reads a fixed file, as `twigm` reads its input, and runs a small
//! XML-like tokenizer over it, sharing no code with the program. The
//! run's CPU-bound times are scaled by [`REFERENCE_S`] over the
//! calibration run's median time. A change to the program does not
//! change the calibration run, so it still moves the corrected figures
//! by its own amount. A fresh process tracks the drift better than a
//! loop inside the benchmark: in trials it brought the ten-seed spread
//! of `protein-path` from 0.17 to 0.06, the loop only to 0.09.

use std::hint::black_box;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::stats::median;

/// The calibration run's time, in seconds, that corrected figures are
/// scaled to: its typical time on the machine the benchmark was made on
/// (2 vCPU x86-64), so corrected figures read like raw ones there.
pub const REFERENCE_S: f64 = 0.0095;

/// Bytes of pseudo-XML the loop scans.
const CALIBRATION_BYTES: usize = 2 << 20;

/// Times of the calibration run taken during one benchmark run.
pub struct Calibration {
    exe: PathBuf,
    text: PathBuf,
    times: Vec<f64>,
}

impl Calibration {
    /// Writes the loop's fixed input under `work`; `exe` is this
    /// program, which [`run_pass`] runs in the child.
    pub fn new(exe: PathBuf, work: &Path) -> io::Result<Calibration> {
        let text = work.join("calibration.txt");
        std::fs::write(&text, fixed_text())?;
        Ok(Calibration {
            exe,
            text,
            times: Vec::new(),
        })
    }

    /// Times one calibration run: a fresh process, like `twigm`'s, that
    /// reads the fixed text and runs the loop over it.
    pub fn sample(&mut self) -> io::Result<()> {
        let args = [
            "--calibrate".to_string(),
            self.text.to_string_lossy().into_owned(),
        ];
        let run = crate::child::run_file(&self.exe, &args)?;
        self.times.push(run.wall.as_secs_f64());
        Ok(())
    }

    /// The factor CPU-bound times of this run are multiplied by:
    /// [`REFERENCE_S`] over the calibration run's median time.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / median(&self.times)
    }

    /// The calibration run's median time in this run, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// The child's side of a calibration run: reads `path` in 256 KiB reads,
/// as `twigm` reads a file, and runs the loop over it.
pub fn run_pass(path: &Path) -> io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut text = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        text.extend_from_slice(&buf[..n]);
    }
    Ok(black_box(tokenize(black_box(&text))))
}

/// The loop's input: tags, attributes and text drawn from a fixed linear
/// congruential stream.
fn fixed_text() -> Vec<u8> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut text = Vec::with_capacity(CALIBRATION_BYTES + 64);
    while text.len() < CALIBRATION_BYTES {
        let name: Vec<u8> = (0..2 + next(8)).map(|_| b'a' + next(26) as u8).collect();
        text.push(b'<');
        text.extend_from_slice(&name);
        if next(3) == 0 {
            text.extend_from_slice(b" id=\"");
            text.extend((0..next(6)).map(|_| b'0' + next(10) as u8));
            text.push(b'"');
        }
        text.push(b'>');
        text.extend((0..next(40)).map(|_| b" abcdefghij"[next(11) as usize]));
        text.extend_from_slice(b"</");
        text.extend_from_slice(&name);
        text.push(b'>');
    }
    text
}

/// The loop: a byte-at-a-time tag/attribute/text state machine that
/// hashes names and counts them in a 64 KiB table, as a symbol table
/// would.
fn tokenize(text: &[u8]) -> u64 {
    let mut table = vec![0u32; 1 << 14];
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Text,
        Name,
        Attrs,
        Quoted,
    }
    let mut state = State::Text;
    let (mut hash, mut tags) = (0xcbf2_9ce4_8422_2325u64, 0u64);
    for &b in text {
        state = match (state, b) {
            (State::Text, b'<') => {
                tags += 1;
                State::Name
            }
            (State::Name, b' ' | b'>') => {
                table[(hash >> 50) as usize] += 1;
                hash = 0xcbf2_9ce4_8422_2325;
                if b == b'>' {
                    State::Text
                } else {
                    State::Attrs
                }
            }
            (State::Attrs, b'>') => State::Text,
            (State::Name, _) => {
                hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                State::Name
            }
            (State::Attrs, b'"') => State::Quoted,
            (State::Quoted, b'"') => State::Attrs,
            (s, _) => s,
        };
    }
    hash ^ tags ^ table.iter().map(|&n| n as u64).sum::<u64>()
}
