//! **TwigM** — a polynomial-time streaming XPath query processor for
//! (possibly recursive) XML streams.
//!
//! This crate reproduces the system of *"An Efficient XPath Query
//! Processor for XML Streams"* (Chen, Davidson, Zheng — ICDE 2006). It
//! evaluates queries in `XP{/,//,*,[]}` — child axis, descendant axis,
//! wildcards, and (unrestricted, nestable) predicates — over a single
//! sequential scan of an XML document, emitting matches of the query's
//! *return node* as they become decidable.
//!
//! # Why this is hard (paper §1)
//!
//! When a query mixes descendant axes with predicates and the data is
//! recursive (tags repeat along root-to-leaf paths), one candidate node can
//! participate in a number of query-pattern matches *exponential* in the
//! query size: for `//a[d]//b[e]//c` over `n` nested `a`s and `b`s, node
//! `c₁` has `n²` matches to `//a//b//c`. Algorithms that enumerate those
//! matches (e.g. XSQ) blow up. TwigM instead:
//!
//! 1. keeps, per query node `v`, a **stack** of the active XML elements
//!    that solve the *prefix subquery* of `v` — `2n` stack entries encode
//!    the `n²` matches;
//! 2. records predicate progress per stack entry as a **branch-match**
//!    boolean array, and the undecided solution candidates as a set;
//! 3. on each end tag, pops one entry — discarding it prunes *every*
//!    pattern match it participates in, without enumeration.
//!
//! The result is time `O((|Q| + R·B)·|Q|·|D|)` (Theorem 4.4; `R` =
//! document depth, `B` = query branching) and memory bounded by
//! `|Q| · R` stack entries plus undecided candidates.
//!
//! # One machine
//!
//! The paper's §3 builds up to TwigM through two teaching machines:
//! PathM for `XP{/,//,*}` (no predicates) and BranchM for `XP{/,[]}`
//! (no `//`/`*`). [`TwigM`] generalises both — a path pattern is a twig
//! with no branches — and it runs every single query here; [`Engine`]
//! names it. On a predicate-free query it still emits each result the
//! moment the return node's start tag arrives. [`MultiTwigM`] runs many
//! queries over one pass.
//!
//! # Quick start
//!
//! ```
//! use twigm::evaluate;
//!
//! let xml = br#"<lib><book year="2006"><title>Streams</title></book><book year="1999"><title>Trees</title></book></lib>"#;
//! let query = twigm_xpath::parse("//book[@year >= 2000]/title").unwrap();
//! let ids = evaluate(&query, &xml[..]).unwrap();
//! assert_eq!(ids.len(), 1);
//! ```
//!
//! Beyond node ids, [`fragments::FragmentCollector`] buffers and emits the
//! matched elements as serialized XML fragments, which is what the paper's
//! implementation (ViteX) returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod engine;
pub mod fragments;
pub mod fxhash;
pub mod machine;
pub mod multi;
pub mod observe;
pub mod pipeline;
pub mod query;
pub mod relevance;
pub mod stats;
pub mod twig;

pub use engine::{
    evaluate, evaluate_ordered, evaluate_union, run_engine, run_engine_traced, Engine,
    StreamEngine, StreamProgress, StreamTelemetry,
};
pub use machine::{Machine, MachineError};
pub use multi::MultiTwigM;
pub use observe::{MachineObserver, NoopObserver};
pub use pipeline::{
    run_engine_pipelined, run_multi_sharded, PipelineOptions, PipelineStats, ShardedOutcome,
};
pub use query::QueryTree;
pub use relevance::{machine_relevance, Relevance};
pub use stats::EngineStats;
pub use twig::TwigM;
