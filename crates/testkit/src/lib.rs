//! Hermetic fuzzing and metamorphic-testing harness for the TwigM
//! streaming XPath engines.
//!
//! The paper's central claim (Chen, Davidson, Zheng — ICDE 2006) is an
//! *equivalence*: TwigM's compact stack encoding answers exactly the
//! queries that explicit pattern-match enumeration answers, while
//! buffering only `O(|Q| · R)` stack entries (Theorem 4.4). Hand-picked
//! fixtures under-test that claim — equivalence bugs cluster where `//`,
//! predicates and deep recursion interact — so this crate grinds seeded
//! random (document, query) pairs through every engine and cross-checks
//! them four ways:
//!
//! 1. **Differential** ([`check`]): every engine whose language covers
//!    the query (TwigM, NaiveEnum, MultiTwigM, and LazyDfa on
//!    predicate-free queries) must reproduce the
//!    in-memory DOM oracle's id set, and every engine claiming the
//!    Theorem 4.4 bound must respect `peak_entries <= |Q| * R` with zero
//!    materialized tuples.
//! 2. **Metamorphic** ([`metamorphic`]): rewriting a query in a way with
//!    a known result-set relation (`a/b` → `a//b` is ⊇, `a` → `a[*]` is
//!    ⊆, predicate reorder is =) must produce results satisfying that
//!    relation.
//! 3. **Stream robustness** ([`resplit`]): re-feeding the same bytes
//!    through [`twigm_sax::FeedReader`] under adversarial chunk splits
//!    (1-byte, mid-tag, mid-entity, mid-CDATA) must yield identical
//!    results *and* identical peak-memory accounting.
//! 4. **Regression corpus** ([`corpus`] + [`shrink`]): any divergence is
//!    shrunk by document subtree deletion and query-subtree deletion,
//!    serialized to a `tests/corpus/*.case` file, and replayed forever by
//!    the suite's corpus gate.
//!
//! Everything is deterministic: all randomness flows from one
//! [`twigm_datagen::SplitMix64`] seed, there is no wall-clock, network or
//! environment dependence in this library (the `testkit-fuzz` binary
//! adds an optional time budget *between* cases), and a run with a fixed
//! seed is bit-for-bit reproducible — [`runner::FuzzReport::fingerprint`]
//! pins that.
//!
//! # Example
//!
//! ```
//! use twigm_testkit::runner::{run_fuzz, FuzzConfig};
//!
//! let report = run_fuzz(&FuzzConfig {
//!     seed: 0xC0FFEE,
//!     cases: 10,
//!     ..FuzzConfig::default()
//! });
//! assert_eq!(report.cases, 10);
//! assert!(report.failures.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod corpus;
pub mod metamorphic;
pub mod obsjson;
pub mod querygen;
pub mod resplit;
pub mod runner;
pub mod shrink;
pub mod xmlgen;

pub use check::{Violation, ViolationKind};
pub use runner::{run_fuzz, FuzzConfig, FuzzReport};
