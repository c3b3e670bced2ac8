//! Parser and AST for `XP{/,//,*,[]}` — the XPath fragment evaluated by
//! the TwigM streaming query processor.
//!
//! The fragment (following the paper, §2) consists of:
//!
//! * child axis `/` and descendant axis shorthand `//`;
//! * name tests and the wildcard `*`;
//! * predicates `[...]`, nestable, containing relative paths
//!   (existential semantics), attribute tests (`[@id]`), and — as in the
//!   paper's implementation which "supports attributes as well as
//!   elements" — value comparisons (`[@year='2000']`, `[price < 10]`,
//!   `[text()='abc']`) combined with `and` / `or`.
//!
//! The grammar:
//!
//! ```text
//! query    := ('/' | '//') step (('/' | '//') step)*
//! step     := (NCName | '*') predicate*
//! predicate:= '[' or-expr ']'
//! or-expr  := and-expr ('or' and-expr)*
//! and-expr := term ('and' term)*
//! term     := '(' or-expr ')' | 'not(' or-expr ')' | integer
//!           | 'count(' rel-step ')' cmp integer
//!           | strfn '(' value ',' string ')'
//!           | value cmp literal | value
//! strfn    := 'contains' | 'starts-with' | 'ends-with'
//! value    := '@' NCName
//!           | 'text()'
//!           | rel-path ('/' '@' NCName | '/' 'text()')?
//! rel-path := step (('/' | '//') step)*        -- relative to context node
//! cmp      := '=' | '!=' | '<' | '<=' | '>' | '>='
//! literal  := string | number
//! ```
//!
//! # Example
//!
//! ```
//! use twigm_xpath::{parse, Axis};
//!
//! let q = parse("//a[d]//b[e]//c").unwrap(); // the paper's Q1
//! assert_eq!(q.steps.len(), 3);
//! assert_eq!(q.steps[1].axis, Axis::Descendant);
//! assert_eq!(q.to_string(), "//a[d]//b[e]//c");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod parser;
pub mod simplify;

pub use ast::{Axis, CmpOp, Literal, NameTest, Path, PredExpr, Step, StrFunc, Value};
pub use error::{ParseError, ParseResult};
pub use parser::{parse, parse_union};
pub use simplify::simplify;
