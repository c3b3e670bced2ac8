//! The four workloads: which data, which queries, which `twigm` flags.
//!
//! Query texts and sizes are pinned here rather than borrowed from the
//! figure benches, so the benchmark's inputs only change when the
//! benchmark itself changes.

use std::io;

use twigm_datagen::{auction, book, protein};

/// Fraction of the paper's Figure-5 dataset sizes the workloads use.
pub const SCALE: f64 = 0.25;

/// The generator feeding `auction-feed`: bytes per second.
pub const FEED_RATE: u64 = 16_000_000;
/// The generator feeding `auction-feed`: bytes per `write`.
pub const FEED_CHUNK: usize = 16 * 1024;

/// Which synthetic dataset a workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Protein-database records (shallow, wide, large).
    Protein,
    /// Recursive book/section data (depth up to 20).
    Book,
    /// XMark-style auction data.
    Auction,
}

impl Dataset {
    /// Lower-case name used in file names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Protein => "protein",
            Dataset::Book => "book",
            Dataset::Auction => "auction",
        }
    }

    /// Target size in bytes: the paper's Figure-5 size times [`SCALE`].
    pub fn target_bytes(self) -> usize {
        let paper = match self {
            Dataset::Protein => 75 << 20,
            Dataset::Book => 9 << 20,
            Dataset::Auction => 34 << 20,
        };
        (paper as f64 * SCALE) as usize
    }

    /// Generates `bytes` of this dataset from `seed`.
    pub fn generate(self, seed: u64, bytes: usize) -> io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(bytes + bytes / 8);
        match self {
            Dataset::Protein => protein::generate(seed, bytes, &mut out)?,
            Dataset::Book => book::generate(seed, bytes, &mut out)?,
            Dataset::Auction => auction::generate(seed, bytes, &mut out)?,
        };
        Ok(out)
    }
}

/// How `twigm` is invoked, and so which code path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One query over a file; output compared as a set of ids.
    Path,
    /// One `|` union over a file, serial; output in document order.
    Union,
    /// One `|` union over a file with `--threads 2`; document order.
    UnionThreaded,
    /// Standing `-q` queries over stdin written by an open-loop
    /// generator; output compared as `(Qi, id)` pairs.
    Feed,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Input data.
    pub dataset: Dataset,
    /// Invocation shape.
    pub mode: Mode,
    /// The query texts: one path, the union's branches, or the `-q` set.
    pub queries: Vec<&'static str>,
}

const BOOK_Q: [&str; 10] = [
    "/bib/book/title",
    "//section//figure",
    "/bib/*/title",
    "//section/*//image",
    "//section[title]/p",
    "//section[figure]//title",
    "//book[@year]//section[@id]/title",
    "//book[@year = '1999']/title",
    "//section[figure[image]]//p",
    "//book//*[title][figure/@width]/p",
];

const AUCTION_B: [&str; 8] = [
    "/site//regions/africa/item/name",
    "//people/person[@id = 'person0']/name",
    "//open_auction[bidder]/current",
    "//item[payment]/name",
    "//person[profile/@income > 50000]/name",
    "//open_auction[bidder/increase > 20]/itemref",
    "//description//listitem//text",
    "//closed_auction[annotation]/price",
];

const FEED_Q: [&str; 4] = [
    "//item[payment]/name",
    "//open_auction[bidder]/current",
    "//closed_auction[annotation]/price",
    "//person[profile/@income > 50000]/name",
];

impl Workload {
    /// Every workload, in report order.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "protein-path",
                dataset: Dataset::Protein,
                mode: Mode::Path,
                queries: vec!["/ProteinDatabase/ProteinEntry/protein/name"],
            },
            Workload {
                name: "book-union",
                dataset: Dataset::Book,
                mode: Mode::Union,
                queries: BOOK_Q.to_vec(),
            },
            Workload {
                name: "auction-union-t2",
                dataset: Dataset::Auction,
                mode: Mode::UnionThreaded,
                queries: AUCTION_B.to_vec(),
            },
            Workload {
                name: "auction-feed",
                dataset: Dataset::Auction,
                mode: Mode::Feed,
                queries: FEED_Q.to_vec(),
            },
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The union text `q1 | q2 | ...` (a single query for `Path`).
    pub fn union_text(&self) -> String {
        self.queries.join(" | ")
    }

    /// `twigm` arguments; `input` is the file to read, `None` for stdin.
    pub fn cli_args(&self, input: Option<&str>) -> Vec<String> {
        let mut args: Vec<String> = match self.mode {
            Mode::Path | Mode::Union => vec!["--ids".into(), self.union_text()],
            Mode::UnionThreaded => vec![
                "--threads".into(),
                "2".into(),
                "--ids".into(),
                self.union_text(),
            ],
            Mode::Feed => self
                .queries
                .iter()
                .flat_map(|q| ["-q".to_string(), q.to_string()])
                .collect(),
        };
        args.push(input.unwrap_or("-").to_string());
        args
    }
}
