//! Hermetic edge-case tests for lexical corners of the SAX scanner:
//! empty CDATA sections, `]]`/`]]>`-adjacent content, numeric character
//! references straddling buffer boundaries, and unterminated constructs
//! that must surface as typed errors, never panics.

use twigm_sax::{Event, FeedEvent, FeedReader, SaxError, SaxReader};

/// Parses the whole document, concatenating every `Text` event.
fn text_of(xml: &str) -> Result<String, SaxError> {
    let mut reader = SaxReader::from_bytes(xml.as_bytes());
    let mut out = String::new();
    loop {
        match reader.next_event()? {
            Some(Event::Text(t)) => out.push_str(&t),
            Some(_) => {}
            None => return Ok(out),
        }
    }
}

/// Drains a document to its terminal state: `Ok(())` or the error.
fn drain(xml: &[u8]) -> Result<(), SaxError> {
    let mut reader = SaxReader::from_bytes(xml);
    loop {
        match reader.next_event()? {
            Some(_) => {}
            None => return Ok(()),
        }
    }
}

#[test]
fn empty_cdata_section_is_no_text() {
    assert_eq!(text_of("<a><![CDATA[]]></a>").unwrap(), "");
    assert_eq!(text_of("<a>x<![CDATA[]]>y</a>").unwrap(), "xy");
}

#[test]
fn cdata_bracket_adjacency() {
    // A `]` hard against the CDATA terminator.
    assert_eq!(text_of("<a><![CDATA[x]]]></a>").unwrap(), "x]");
    // Two of them.
    assert_eq!(text_of("<a><![CDATA[x]]]]></a>").unwrap(), "x]]");
    // A CDATA section that is nothing but brackets.
    assert_eq!(
        text_of("<a><![CDATA[]]]]><![CDATA[]]]></a>").unwrap(),
        "]]]"
    );
    // `]]>` expressed by splitting it across two sections — the
    // standard way to embed the terminator itself.
    assert_eq!(
        text_of("<a><![CDATA[]]]]><![CDATA[>]]></a>").unwrap(),
        "]]>"
    );
    // Brackets in plain character data, nowhere near CDATA.
    assert_eq!(text_of("<a>x]] y</a>").unwrap(), "x]] y");
}

#[test]
fn numeric_char_refs_decode() {
    assert_eq!(text_of("<a>&#38;&#60;&#x3C;&#X43;</a>").unwrap(), "&<<C");
    assert_eq!(text_of("<a>&#x1F600;</a>").unwrap(), "\u{1F600}");
}

#[test]
fn numeric_char_refs_across_buffer_edges() {
    // Push the document one byte at a time through the incremental
    // reader: every reference is split at every interior position.
    let xml = b"<a>&#38;x&#x3C;y&amp;&#X21;</a>";
    let mut parser = FeedReader::new();
    let mut out = String::new();
    for (i, byte) in xml.iter().enumerate() {
        parser.feed(std::slice::from_ref(byte));
        if i + 1 == xml.len() {
            parser.finish();
        }
        loop {
            match parser.next_event().unwrap() {
                FeedEvent::Event(Event::Text(t)) => out.push_str(&t),
                FeedEvent::Event(_) => {}
                FeedEvent::NeedData | FeedEvent::Done => break,
            }
        }
    }
    assert_eq!(out, "&x<y&!");
}

#[test]
fn unterminated_constructs_error_not_panic() {
    // Each prefix must produce a typed error (any variant), not a panic
    // and not a silent success.
    for doc in [
        &b"<a"[..],
        b"<a ",
        b"<a x=\"v",
        b"<a x='v",
        b"<a>",
        b"<a><b></b>",
        b"<a><!--",
        b"<a><!-- never closed --",
        b"<a><![CDATA[",
        b"<a><![CDATA[x]]",
        b"<a><?pi",
        b"<a>&am",
        b"<a>&#x3C",
        b"<a></a",
        b"<!--",
        b"<?xml",
    ] {
        assert!(
            drain(doc).is_err(),
            "truncated `{}` did not error",
            String::from_utf8_lossy(doc)
        );
    }
}

#[test]
fn unterminated_element_reports_the_open_element() {
    match drain(b"<a><b>") {
        Err(SaxError::UnexpectedEof { open_element }) => {
            assert_eq!(open_element.as_deref(), Some("b"));
        }
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }
}

#[test]
fn invalid_numeric_refs_are_syntax_errors() {
    for doc in [
        "<a>&#xD800;</a>",
        "<a>&#xyz;</a>",
        "<a>&#;</a>",
        "<a>&#0;</a>",
        "<a b=\"&#1;\"/>",
    ] {
        match drain(doc.as_bytes()) {
            Err(SaxError::Syntax { .. }) => {}
            other => panic!("`{doc}` expected Syntax error, got {other:?}"),
        }
    }
}

#[test]
fn structural_errors_have_precise_variants() {
    assert!(matches!(
        drain(b"<a></b>"),
        Err(SaxError::MismatchedTag { expected, found, .. }) if expected == "a" && found == "b"
    ));
    assert!(matches!(
        drain(b"</a>"),
        Err(SaxError::UnexpectedEndTag { found, .. }) if found == "a"
    ));
    assert!(matches!(
        drain(b"<a/>text"),
        Err(SaxError::TextOutsideRoot { .. })
    ));
    assert!(matches!(
        drain(b"<a/><b/>"),
        Err(SaxError::MultipleRoots { name, .. }) if name == "b"
    ));
    assert!(matches!(
        drain(b"<a x=\"1\" x=\"2\"/>"),
        Err(SaxError::DuplicateAttribute { name, .. }) if name == "x"
    ));
    assert!(matches!(
        drain(b"<a>&nbsp;</a>"),
        Err(SaxError::UnknownEntity { name, .. }) if name == "nbsp"
    ));
}

/// References in attribute values are checked by the reader itself, so
/// a consumer that never reads a tag's attributes still gets the error.
#[test]
fn attribute_references_are_checked_without_reading_attributes() {
    match drain(br#"<r><x a="&bogus;"/><y/></r>"#) {
        Err(e @ SaxError::UnknownEntity { .. }) => {
            assert_eq!(e.to_string(), "unknown entity `&bogus;` at byte 3");
        }
        other => panic!("expected UnknownEntity, got {other:?}"),
    }
    assert!(drain(br#"<!DOCTYPE r [<!ENTITY e "x">]><r a="&e;&amp;&#x41;"/>"#).is_ok());
    // The tag's syntax is still judged first.
    assert!(matches!(
        drain(br#"<r a="&bogus;" a="1"/>"#),
        Err(SaxError::DuplicateAttribute { .. })
    ));
}

/// Compaction regression: the reader slides unconsumed bytes to the
/// front of its buffer (`copy_within` + `truncate`) once consumed bytes
/// pile up, and `base` must absorb exactly what was discarded so every
/// reported offset stays absolute. A document several buffer-chunks long
/// parsed through a tiny-chunk reader exercises the compaction path on
/// every refill; the offsets of all start tags must match the positions
/// found in the raw bytes, and the final reader offset must equal the
/// document length.
#[test]
fn compaction_preserves_offset_accounting_across_refills() {
    use std::io::Read;

    struct SmallChunks<'a>(&'a [u8]);
    impl Read for SmallChunks<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(out.len()).min(41);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    // ~200 KB (vs the 64 KB internal chunk): long text runs force
    // mid-text refills, so compaction fires with a non-empty tail too.
    let mut xml = Vec::new();
    xml.extend_from_slice(b"<list>");
    for i in 0..2500 {
        xml.extend_from_slice(format!("<item n=\"{i}\">").as_bytes());
        xml.extend_from_slice("x".repeat(60).as_bytes());
        xml.extend_from_slice(b"</item>");
    }
    xml.extend_from_slice(b"</list>");

    let mut expected = Vec::new();
    let mut at = 0;
    while let Some(p) = xml[at..].windows(5).position(|w| w == b"<item") {
        expected.push((at + p) as u64);
        at += p + 5;
    }
    assert_eq!(expected.len(), 2500);

    for tiny in [false, true] {
        let mut reader: SaxReader<Box<dyn Read>> = if tiny {
            SaxReader::new(Box::new(SmallChunks(&xml)))
        } else {
            SaxReader::new(Box::new(&xml[..]))
        };
        let mut seen = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            if let Event::Start(tag) = &e {
                if tag.name() == "item" {
                    seen.push(tag.offset());
                }
            }
        }
        assert_eq!(seen, expected, "tiny-chunk reads: {tiny}");
        assert_eq!(reader.offset(), xml.len() as u64, "tiny: {tiny}");
    }
}

/// Short labels for a reader's outcomes: `Sr` / `Er` for start / end of
/// `r`, `T` for text, `ERR` for an error, `EOF` for a clean end.
fn label(outcome: Result<Option<Event<'_>>, SaxError>) -> String {
    match outcome {
        Ok(Some(Event::Start(t))) => format!("S{}", t.name()),
        Ok(Some(Event::End(t))) => format!("E{}", t.name()),
        Ok(Some(_)) => "T".into(),
        Ok(None) => "EOF".into(),
        Err(_) => "ERR".into(),
    }
}

/// The reader is fused after its first error: it never resumes with more
/// events or reports a clean end, and it repeats the first error.
#[test]
fn reader_is_fused_after_the_first_error() {
    for (doc, before) in [
        ("<r><a>&bogus;</a><b/></r>", "Sr Sa"),
        ("<r><a></c><b/></r>", "Sr Sa"),
        ("<r>&#0;<b/></r>", "Sr"),
        ("<r><a x='1' x='2'/></r>", "Sr"),
    ] {
        let mut reader = SaxReader::from_bytes(doc.as_bytes());
        let mut seen = Vec::new();
        let first = loop {
            match reader.next_event() {
                Err(e) => break e,
                outcome => seen.push(label(outcome)),
            }
        };
        assert_eq!(seen.join(" "), before, "{doc}");
        for _ in 0..4 {
            match reader.next_event() {
                Err(e) => assert_eq!(e.to_string(), first.to_string(), "{doc}"),
                outcome => panic!("{doc}: resumed with {} after `{first}`", label(outcome)),
            }
        }

        // Fed one byte at a time, `NeedData` stays resumable but the
        // first error is just as final.
        let mut feed = FeedReader::new();
        let mut seen = Vec::new();
        let mut error = None;
        for (i, byte) in doc.as_bytes().iter().enumerate() {
            feed.feed(std::slice::from_ref(byte));
            if i + 1 == doc.len() {
                feed.finish();
            }
            loop {
                match feed.next_event() {
                    Ok(FeedEvent::Event(e)) => {
                        assert!(error.is_none(), "{doc}: event after an error");
                        seen.push(label(Ok(Some(e))));
                    }
                    Ok(FeedEvent::NeedData) => {
                        assert!(error.is_none(), "{doc}: NeedData after an error");
                        break;
                    }
                    Ok(FeedEvent::Done) => panic!("{doc}: Done after an error"),
                    Err(e) => {
                        error.get_or_insert(e.to_string());
                        break;
                    }
                }
            }
        }
        assert_eq!(seen.join(" "), before, "{doc} (fed)");
        assert_eq!(error.as_deref(), Some(first.to_string().as_str()), "{doc}");
    }
}

/// Drains a document fed one byte at a time: `Ok(())` or the error.
fn drain_fed(xml: &[u8]) -> Result<(), SaxError> {
    let mut feed = FeedReader::new();
    for byte in xml {
        feed.feed(std::slice::from_ref(byte));
        while let FeedEvent::Event(_) = feed.next_event()? {}
    }
    feed.finish();
    loop {
        match feed.next_event()? {
            FeedEvent::Event(_) => {}
            FeedEvent::Done => return Ok(()),
            FeedEvent::NeedData => unreachable!("NeedData after finish"),
        }
    }
}

/// A processing instruction's data and the XML declaration are held to
/// UTF-8 like every other range, whether or not an event carries them.
#[test]
fn pi_data_and_the_xml_declaration_are_utf8_checked() {
    for (doc, offset) in [
        (&b"<r><?pi \xff?></r>"[..], 8),
        (b"<?xml version=\"1.0\" encoding=\"\xff\"?><r/>", 30),
    ] {
        let shown = String::from_utf8_lossy(doc);
        for outcome in [drain(doc), drain_fed(doc)] {
            match outcome {
                Err(SaxError::InvalidUtf8 { offset: at }) => assert_eq!(at, offset, "{shown}"),
                other => panic!("{shown}: expected InvalidUtf8, got {other:?}"),
            }
        }
    }
}
