//! Typed parse errors with byte offsets.

use std::fmt;

/// Result alias used throughout the SAX crate.
pub type SaxResult<T> = Result<T, SaxError>;

/// An error raised while parsing an XML stream.
///
/// Every variant that refers to a position carries the absolute byte offset
/// from the start of the stream, so errors in multi-gigabyte streams can be
/// located precisely.
#[derive(Debug)]
pub enum SaxError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// Document content is not valid UTF-8 at the given offset.
    InvalidUtf8 {
        /// Byte offset of the offending sequence.
        offset: u64,
    },
    /// A syntactic error in markup (unterminated tag, bad name, ...).
    Syntax {
        /// Byte offset where the problem was detected.
        offset: u64,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An end tag did not match the open element.
    MismatchedTag {
        /// Byte offset of the end tag.
        offset: u64,
        /// The element that is currently open.
        expected: String,
        /// The name found in the end tag.
        found: String,
    },
    /// An end tag appeared with no element open.
    UnexpectedEndTag {
        /// Byte offset of the end tag.
        offset: u64,
        /// The name found in the end tag.
        found: String,
    },
    /// The stream ended while elements were still open.
    UnexpectedEof {
        /// The innermost element still open, if any.
        open_element: Option<String>,
    },
    /// Non-whitespace character data outside the root element.
    TextOutsideRoot {
        /// Byte offset of the text.
        offset: u64,
    },
    /// A second root element was found.
    MultipleRoots {
        /// Byte offset of the second root's start tag.
        offset: u64,
        /// Tag name of the second root.
        name: String,
    },
    /// The same attribute appeared twice on one element.
    DuplicateAttribute {
        /// Byte offset of the start tag.
        offset: u64,
        /// The repeated attribute name.
        name: String,
    },
    /// An unknown entity reference such as `&nbsp;` (no DTD support).
    UnknownEntity {
        /// Byte offset of the reference.
        offset: u64,
        /// The entity name without `&`/`;`.
        name: String,
    },
    /// A single piece of markup exceeded the maximum buffered size.
    MarkupTooLong {
        /// Byte offset where the markup started.
        offset: u64,
        /// The configured limit in bytes.
        limit: usize,
    },
    /// A thread of a pipelined run panicked, so the stream was not
    /// fully processed.
    Panicked {
        /// Which thread: `producer` or `consumer`.
        thread: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for SaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaxError::Io(e) => write!(f, "i/o error: {e}"),
            SaxError::InvalidUtf8 { offset } => {
                write!(f, "invalid UTF-8 at byte {offset}")
            }
            SaxError::Syntax { offset, message } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            SaxError::MismatchedTag {
                offset,
                expected,
                found,
            } => write!(
                f,
                "mismatched end tag at byte {offset}: expected </{expected}>, found </{found}>"
            ),
            SaxError::UnexpectedEndTag { offset, found } => {
                write!(
                    f,
                    "end tag </{found}> at byte {offset} with no open element"
                )
            }
            SaxError::UnexpectedEof { open_element } => match open_element {
                Some(name) => write!(f, "unexpected end of stream: <{name}> is still open"),
                None => write!(f, "unexpected end of stream"),
            },
            SaxError::TextOutsideRoot { offset } => {
                write!(
                    f,
                    "character data outside the root element at byte {offset}"
                )
            }
            SaxError::MultipleRoots { offset, name } => {
                write!(f, "second root element <{name}> at byte {offset}")
            }
            SaxError::DuplicateAttribute { offset, name } => {
                write!(f, "duplicate attribute `{name}` at byte {offset}")
            }
            SaxError::UnknownEntity { offset, name } => {
                write!(f, "unknown entity `&{name};` at byte {offset}")
            }
            SaxError::MarkupTooLong { offset, limit } => write!(
                f,
                "markup starting at byte {offset} exceeds the {limit}-byte buffer limit"
            ),
            SaxError::Panicked { thread, message } => {
                write!(f, "pipeline {thread} thread panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SaxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SaxError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SaxError {
    fn from(e: std::io::Error) -> Self {
        SaxError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_offsets() {
        let e = SaxError::Syntax {
            offset: 17,
            message: "expected `>`".into(),
        };
        assert_eq!(e.to_string(), "syntax error at byte 17: expected `>`");
    }

    #[test]
    fn display_mismatched_tag() {
        let e = SaxError::MismatchedTag {
            offset: 4,
            expected: "a".into(),
            found: "b".into(),
        };
        assert!(e.to_string().contains("</a>"));
        assert!(e.to_string().contains("</b>"));
    }

    #[test]
    fn io_error_source_preserved() {
        let e = SaxError::from(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn eof_with_and_without_open_element() {
        let open = SaxError::UnexpectedEof {
            open_element: Some("book".into()),
        };
        assert!(open.to_string().contains("<book>"));
        let closed = SaxError::UnexpectedEof { open_element: None };
        assert_eq!(closed.to_string(), "unexpected end of stream");
    }
}
