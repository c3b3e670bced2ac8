//! Streaming SAX-style XML parser and writer for the TwigM XPath processor.
//!
//! The TwigM paper (Chen, Davidson, Zheng — ICDE 2006) models an XML stream
//! as a sequence of *modified SAX events*:
//!
//! * `startElement(tag, level, id)` — `level` is the depth of the node in
//!   the XML tree (the root element has level 1) and `id` is a unique,
//!   document-order (pre-order) identifier;
//! * `endElement(tag, level)`.
//!
//! This crate provides exactly that event stream, produced by a pull-based
//! reader ([`SaxReader`]) that works over any [`std::io::Read`] with a
//! bounded internal buffer, so arbitrarily large documents can be processed
//! in constant memory.
//!
//! The parser handles start/end/empty tags, attributes, character data,
//! CDATA sections, comments, processing instructions, the XML declaration,
//! DOCTYPE declarations (skipped), and the five predefined entities plus
//! numeric character references. It checks well-formedness (tag balance,
//! single root element, attribute uniqueness) and reports typed errors with
//! byte offsets.
//!
//! [`XmlWriter`] is the inverse: an escaping serializer used by the dataset
//! generators and by TwigM's XML-fragment output mode.
//!
//! # Example
//!
//! ```
//! use twigm_sax::{SaxReader, Event};
//!
//! let xml = b"<book><title>Streams</title></book>";
//! let mut reader = SaxReader::from_bytes(&xml[..]);
//! let mut tags = Vec::new();
//! while let Some(event) = reader.next_event().unwrap() {
//!     if let Event::Start(tag) = event {
//!         tags.push(format!("{}@{}#{}", tag.name(), tag.level(), tag.id().get()));
//!     }
//! }
//! assert_eq!(tags, ["book@1#0", "title@2#1"]);
//! ```

// `deny` rather than `forbid`: two sites locally re-allow `unsafe`
// behind a safe API. The SSE2 fast path in `scan` needs raw 16-byte
// loads, and the reader's `InputBuf::checked_str` turns bytes its
// fill-time UTF-8 check already covered into `&str` without a second
// pass. `scripts/ci.sh` fails on any other site.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod entity;
mod error;
mod event;
pub mod namespaces;
mod reader;
pub mod scan;
mod symbol;
mod writer;

pub use batch::{BatchEvent, BatchEventKind, BatchPlan, BatchProducer, EventBatch};
pub use entity::{
    decode_entities, decode_entities_into, decode_entities_with, escape_attr, escape_text,
    EntityMap,
};
pub use error::{SaxError, SaxResult};
pub use event::{Attribute, EndTag, Event, NodeId, OwnedEvent, StartTag};
pub use namespaces::{NamespaceTracker, Resolved};
pub use reader::{FeedEvent, FeedReader, SaxReader};
pub use symbol::{Symbol, SymbolTable};
pub use writer::XmlWriter;
