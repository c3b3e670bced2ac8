//! Umbrella crate for the TwigM workspace: re-exports the public
//! surface of every member crate so the examples and integration tests
//! (and downstream users who want one dependency) have a single import
//! root.
//!
//! * [`sax`] — streaming XML parser/writer ([`twigm_sax`]);
//! * [`xpath`] — the `XP{/,//,*,[]}` query language ([`twigm_xpath`]);
//! * [`engine`] — the TwigM machine and its driver ([`twigm`]);
//! * [`baselines`] — comparison systems ([`twigm_baselines`]);
//! * [`datagen`] — dataset generators ([`twigm_datagen`]).
//!
//! See the repository README for a tour, and DESIGN.md / EXPERIMENTS.md
//! for the paper-reproduction map.

#![forbid(unsafe_code)]

pub use twigm as engine;
pub use twigm_baselines as baselines;
pub use twigm_datagen as datagen;
pub use twigm_sax as sax;
pub use twigm_xpath as xpath;

/// One-call convenience: evaluate an XPath query string over an XML byte
/// slice, returning matched node ids.
///
/// ```
/// let ids = twigm_suite::query(b"<r><a><b/></a></r>", "//a/b").unwrap();
/// assert_eq!(ids.len(), 1);
/// ```
pub fn query(xml: &[u8], xpath: &str) -> Result<Vec<twigm_sax::NodeId>, QueryError> {
    let parsed = twigm_xpath::parse(xpath)?;
    Ok(twigm::evaluate(&parsed, xml)?)
}

/// Error type of [`query`].
#[derive(Debug)]
pub enum QueryError {
    /// The query string failed to parse.
    Parse(twigm_xpath::ParseError),
    /// Evaluation failed (malformed XML or uncompilable query).
    Eval(twigm::engine::EvalError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<twigm_xpath::ParseError> for QueryError {
    fn from(e: twigm_xpath::ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<twigm::engine::EvalError> for QueryError {
    fn from(e: twigm::engine::EvalError) -> Self {
        QueryError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_query_works() {
        let ids = crate::query(b"<r><a><b/></a><b/></r>", "//a/b").unwrap();
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn umbrella_query_errors() {
        assert!(matches!(
            crate::query(b"<r/>", "not a query"),
            Err(crate::QueryError::Parse(_))
        ));
        assert!(matches!(
            crate::query(b"<r>", "//a"),
            Err(crate::QueryError::Eval(_))
        ));
    }
}
