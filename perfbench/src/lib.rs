//! The repository's benchmark: end-to-end runs of the release `twigm`
//! binary as a child process, and traced in-process replays that split
//! the time by layer. See `README.md` in this directory.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads peak RSS through Linux's wait4 and runs on Linux only");

pub mod bench;
pub mod calibrate;
pub mod child;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
