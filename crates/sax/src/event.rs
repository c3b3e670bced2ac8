//! Event types produced by [`crate::SaxReader`].

use std::borrow::Cow;
use std::fmt;

use crate::entity::{check_entities, decode_entities_with, EntityMap};
use crate::error::{SaxError, SaxResult};

/// A unique, document-order (pre-order) identifier of an element node.
///
/// Ids are assigned by the reader in the order start tags are encountered,
/// starting from zero, exactly like the `id` component of the paper's
/// modified `startElement(tag, level, id)` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node id from its raw document-order index.
    pub fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw document-order index.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One `name="value"` attribute of a start tag.
///
/// The value has had its entity references decoded; it borrows from the
/// reader's buffer when no decoding was necessary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name.
    pub name: &'a str,
    /// Decoded attribute value.
    pub value: Cow<'a, str>,
}

/// A start tag: `<name attr="v">` (an empty tag `<name/>` is reported as a
/// start tag immediately followed by a synthetic end tag).
#[derive(Debug, Clone, Copy)]
pub struct StartTag<'a> {
    pub(crate) name: &'a str,
    /// Raw tag interior after the name (attribute text, syntactically
    /// validated by the reader), from which attributes are parsed lazily.
    pub(crate) attr_text: &'a str,
    /// Byte offset of the `<` in the stream, for attribute error reporting.
    pub(crate) offset: u64,
    pub(crate) level: u32,
    pub(crate) id: NodeId,
    /// General entities declared in the document's internal subset (for
    /// attribute-value decoding).
    pub(crate) entities: Option<&'a EntityMap>,
}

impl<'a> StartTag<'a> {
    /// The element's tag name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Depth of the element in the tree; the root element has level 1.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The element's document-order id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Absolute byte offset of the tag's `<` in the stream.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Iterates over the tag's attributes, decoding entity references in
    /// values on the fly.
    ///
    /// Attribute syntax and references were already validated by the
    /// reader, so this iterator yields no errors on a tag the reader
    /// produced.
    pub fn attributes(&self) -> Attributes<'a> {
        Attributes {
            rest: self.attr_text,
            offset: self.offset,
            entities: self.entities,
        }
    }

    /// Convenience lookup of a single attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<Cow<'a, str>> {
        for attr in self.attributes().flatten() {
            if attr.name == name {
                return Some(attr.value);
            }
        }
        None
    }
}

/// Iterator over the attributes of a [`StartTag`].
#[derive(Debug, Clone)]
pub struct Attributes<'a> {
    rest: &'a str,
    offset: u64,
    entities: Option<&'a EntityMap>,
}

impl<'a> Attributes<'a> {
    /// The next `(name, raw value)` pair, entity references undecoded.
    fn next_raw(&mut self) -> Option<SaxResult<(&'a str, &'a str)>> {
        let rest = self
            .rest
            .trim_start_matches(|c: char| c.is_ascii_whitespace());
        if rest.is_empty() {
            self.rest = rest;
            return None;
        }
        // The reader validated the shape `name = "value"`, so these
        // positions are guaranteed to exist.
        let eq = match rest.find('=') {
            Some(i) => i,
            None => return Some(Err(syntax(self.offset, "expected `=` in attribute"))),
        };
        let name = rest[..eq].trim_end_matches(|c: char| c.is_ascii_whitespace());
        let after_eq = rest[eq + 1..].trim_start_matches(|c: char| c.is_ascii_whitespace());
        let mut chars = after_eq.chars();
        let quote = match chars.next() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Some(Err(syntax(self.offset, "expected quoted attribute value"))),
        };
        let value_rest = &after_eq[1..];
        let close = match value_rest.find(quote) {
            Some(i) => i,
            None => return Some(Err(syntax(self.offset, "unterminated attribute value"))),
        };
        self.rest = &value_rest[close + 1..];
        Some(Ok((name, &value_rest[..close])))
    }
}

/// Checks the entity and character references in every attribute value
/// of a tag's attribute text, reporting what [`StartTag::attributes`]
/// would, without decoding any value.
pub(crate) fn check_attribute_refs(
    attr_text: &str,
    offset: u64,
    entities: &EntityMap,
) -> SaxResult<()> {
    let mut attrs = Attributes {
        rest: attr_text,
        offset,
        entities: Some(entities),
    };
    while let Some(attr) = attrs.next_raw() {
        check_entities(attr?.1, offset, Some(entities))?;
    }
    Ok(())
}

impl<'a> Iterator for Attributes<'a> {
    type Item = SaxResult<Attribute<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_raw()?.and_then(|(name, raw)| {
            let value = decode_entities_with(raw, self.offset, self.entities)?;
            Ok(Attribute { name, value })
        }))
    }
}

fn syntax(offset: u64, message: &str) -> SaxError {
    SaxError::Syntax {
        offset,
        message: message.to_string(),
    }
}

/// An end tag `</name>` (or the synthetic close of an empty tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndTag<'a> {
    pub(crate) name: &'a str,
    pub(crate) level: u32,
}

impl<'a> EndTag<'a> {
    /// The element's tag name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Depth of the element being closed; matches its start tag's level.
    pub fn level(&self) -> u32 {
        self.level
    }
}

/// One parsed event, borrowing from the reader's internal buffer.
///
/// Borrowed events avoid allocation on the hot path; call
/// [`Event::to_owned_event`] when the event must outlive the next
/// [`crate::SaxReader::next_event`] call.
#[derive(Debug, Clone)]
pub enum Event<'a> {
    /// A start tag, carrying the paper's `(tag, level, id)` triple.
    Start(StartTag<'a>),
    /// An end tag, carrying the paper's `(tag, level)` pair.
    End(EndTag<'a>),
    /// Character data. Long text runs may be split into several `Text`
    /// events at buffer boundaries, as permitted by the SAX model.
    Text(Cow<'a, str>),
    /// A comment `<!-- ... -->`.
    Comment(&'a str),
    /// A processing instruction `<?target data?>`.
    ProcessingInstruction {
        /// The PI target (first word).
        target: &'a str,
        /// Everything after the target, trimmed of the leading space.
        data: &'a str,
    },
}

impl Event<'_> {
    /// Copies the event into an owned representation.
    pub fn to_owned_event(&self) -> OwnedEvent {
        match self {
            Event::Start(tag) => {
                let attrs = tag
                    .attributes()
                    .filter_map(|a| a.ok())
                    .map(|a| (a.name.to_string(), a.value.into_owned()))
                    .collect();
                OwnedEvent::Start {
                    name: tag.name.to_string(),
                    attributes: attrs,
                    level: tag.level,
                    id: tag.id,
                }
            }
            Event::End(tag) => OwnedEvent::End {
                name: tag.name.to_string(),
                level: tag.level,
            },
            Event::Text(t) => OwnedEvent::Text(t.clone().into_owned()),
            Event::Comment(t) => OwnedEvent::Comment(t.to_string()),
            Event::ProcessingInstruction { target, data } => OwnedEvent::ProcessingInstruction {
                target: target.to_string(),
                data: data.to_string(),
            },
        }
    }
}

/// An owned copy of an [`Event`], convenient for collecting in tests and
/// examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedEvent {
    /// A start tag.
    Start {
        /// Tag name.
        name: String,
        /// Decoded `(name, value)` attribute pairs in document order.
        attributes: Vec<(String, String)>,
        /// Depth (root element = 1).
        level: u32,
        /// Document-order id.
        id: NodeId,
    },
    /// An end tag.
    End {
        /// Tag name.
        name: String,
        /// Depth of the element being closed.
        level: u32,
    },
    /// Character data.
    Text(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction {
        /// The PI target.
        target: String,
        /// The PI data.
        data: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(attr_text: &str) -> StartTag<'_> {
        StartTag {
            name: "e",
            attr_text,
            offset: 0,
            level: 1,
            id: NodeId::new(0),
            entities: None,
        }
    }

    #[test]
    fn node_id_ordering_follows_document_order() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(7).get(), 7);
        assert_eq!(NodeId::new(7).to_string(), "7");
    }

    #[test]
    fn attributes_iterate_in_order() {
        let tag = start(" a=\"1\" b='2'");
        let attrs: Vec<_> = tag.attributes().map(|a| a.unwrap()).collect();
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].name, "a");
        assert_eq!(attrs[0].value, "1");
        assert_eq!(attrs[1].name, "b");
        assert_eq!(attrs[1].value, "2");
    }

    #[test]
    fn attribute_values_are_entity_decoded() {
        let tag = start(" title=\"Tom &amp; Jerry &#x21;\"");
        let attr = tag.attributes().next().unwrap().unwrap();
        assert_eq!(attr.value, "Tom & Jerry !");
        assert!(matches!(attr.value, Cow::Owned(_)));
    }

    #[test]
    fn attribute_lookup_by_name() {
        let tag = start(" id=\"p1\" lang=\"en\"");
        assert_eq!(tag.attribute("lang").unwrap(), "en");
        assert!(tag.attribute("missing").is_none());
    }

    #[test]
    fn attribute_with_whitespace_around_equals() {
        let tag = start(" a =\t'x'  b\n= \"y\"");
        let attrs: Vec<_> = tag.attributes().map(|a| a.unwrap()).collect();
        assert_eq!(attrs[0].name, "a");
        assert_eq!(attrs[0].value, "x");
        assert_eq!(attrs[1].name, "b");
        assert_eq!(attrs[1].value, "y");
    }

    #[test]
    fn empty_attr_text_yields_nothing() {
        assert_eq!(start("").attributes().count(), 0);
        assert_eq!(start("   ").attributes().count(), 0);
    }

    #[test]
    fn quote_inside_other_quote_kind_is_literal() {
        let tag = start(" q=\"it's\"");
        let attr = tag.attributes().next().unwrap().unwrap();
        assert_eq!(attr.value, "it's");
    }
}
