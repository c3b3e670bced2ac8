//! UTF-8 torture: malformed sequences in every kind of range the reader
//! converts to `&str`, at every phase around the reader's 64 KiB read
//! size, through both readers.
//!
//! The reader checks UTF-8 in bulk as bytes arrive and falls back to a
//! per-range check for anything its watermark does not cover, so a bad
//! byte must be reported at the same offset however the input was split:
//! by the pull reader's chunk edge or by a `FeedReader` split point.
//! Valid multi-byte characters cut by those edges must parse the same
//! both ways.

use twigm_sax::{FeedEvent, FeedReader, OwnedEvent, SaxError, SaxReader};

/// The pull reader's read size: documents are padded so that the byte
/// under test lands around this offset.
const CHUNK: usize = 64 * 1024;

/// Malformed sequences that can sit in the middle of a document.
const BAD: [(&str, &[u8]); 5] = [
    ("lone continuation byte", &[0x80]),
    ("overlong NUL", &[0xC0, 0x80]),
    ("surrogate", &[0xED, 0xA0, 0x80]),
    ("above U+10FFFF", &[0xF4, 0x90, 0x80, 0x80]),
    ("3-byte character cut short", &[0xE3, 0x81]),
];

/// Valid characters of every encoded length above one.
const GOOD: [&str; 3] = ["é", "日", "😀"];

/// A place for bytes under test: the document is `head`, then `pad`
/// repeated to move the bytes under test, then the bytes, then `tail`.
struct Context {
    name: &'static str,
    head: &'static str,
    pad: u8,
    tail: &'static str,
}

const CONTEXTS: [Context; 9] = [
    Context {
        name: "element name",
        head: "<r><a",
        pad: b'n',
        tail: "/></r>",
    },
    Context {
        name: "end-tag name",
        head: "<r><a></a",
        pad: b'n',
        tail: "></r>",
    },
    Context {
        name: "attribute value",
        head: "<r><a x=\"",
        pad: b'v',
        tail: "\"/></r>",
    },
    Context {
        name: "text",
        head: "<r>",
        pad: b't',
        tail: "</r>",
    },
    Context {
        name: "CDATA",
        head: "<r><![CDATA[",
        pad: b'c',
        tail: "]]></r>",
    },
    Context {
        name: "comment",
        head: "<r><!--",
        pad: b'c',
        tail: "--></r>",
    },
    Context {
        name: "PI target",
        head: "<r><?p",
        pad: b't',
        tail: " data?></r>",
    },
    Context {
        name: "PI data",
        head: "<r><?pi ",
        pad: b'd',
        tail: "?></r>",
    },
    Context {
        name: "XML declaration",
        head: "<?xml version=\"1.0\" encoding=\"",
        pad: b'e',
        tail: "\"?><r/>",
    },
];

impl Context {
    /// The document with `bytes` at offset `at` (at least `head.len()`).
    fn document(&self, bytes: &[u8], at: usize) -> Vec<u8> {
        let mut doc = self.head.as_bytes().to_vec();
        doc.resize(at, self.pad);
        doc.extend_from_slice(bytes);
        doc.extend_from_slice(self.tail.as_bytes());
        doc
    }
}

/// A well-formed document with `ch` at offset `at`: the context's
/// document, except that an end tag also needs its start tag.
fn well_formed(ctx: &Context, ch: &str, at: usize) -> Vec<u8> {
    if ctx.name != "end-tag name" {
        return ctx.document(ch.as_bytes(), at);
    }
    let mut doc = format!("<r><a{ch}>").into_bytes();
    doc.resize(at - "</a".len(), b't');
    doc.extend_from_slice(format!("</a{ch}></r>").as_bytes());
    doc
}

/// Every event of a document, or the error that ended it.
type Outcome = (Vec<OwnedEvent>, Option<SaxError>);

fn pull(doc: &[u8]) -> Outcome {
    let mut reader = SaxReader::from_bytes(doc);
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(Some(e)) => events.push(e.to_owned_event()),
            Ok(None) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}

/// Feeds `doc` to a [`FeedReader`] in pieces cut at `splits` (ascending).
fn fed(doc: &[u8], splits: &[usize]) -> Outcome {
    let mut reader = FeedReader::new();
    let mut events = Vec::new();
    let mut from = 0;
    let ends = splits.iter().copied().chain([doc.len()]);
    for (i, to) in ends.enumerate() {
        reader.feed(&doc[from..to]);
        from = to;
        if i == splits.len() {
            reader.finish();
        }
        loop {
            match reader.next_event() {
                Ok(FeedEvent::Event(e)) => events.push(e.to_owned_event()),
                Ok(FeedEvent::NeedData) => break,
                Ok(FeedEvent::Done) => return (events, None),
                Err(e) => return (events, Some(e)),
            }
        }
    }
    panic!("the reader neither finished nor failed after finish()");
}

fn same(a: &Outcome, b: &Outcome) -> bool {
    a.0 == b.0 && a.1.as_ref().map(|e| e.to_string()) == b.1.as_ref().map(|e| e.to_string())
}

/// Split points for a padded document: every position within 16 bytes of
/// `at`, the position of the bytes under test.
fn splits_near(doc: &[u8], at: usize) -> impl Iterator<Item = usize> {
    at.saturating_sub(16)..(at + 16).min(doc.len())
}

fn expect_invalid_utf8(outcome: &Outcome, offset: usize, what: &str) {
    match &outcome.1 {
        Some(SaxError::InvalidUtf8 { offset: at }) => {
            assert_eq!(*at, offset as u64, "{what}")
        }
        other => panic!("{what}: expected InvalidUtf8 at {offset}, got {other:?}"),
    }
}

/// Each malformed sequence, in each context, at phases 0..8 around the
/// chunk edge: both readers stop at its first byte with `InvalidUtf8`.
#[test]
fn malformed_sequences_are_reported_at_their_first_byte_around_the_chunk_edge() {
    for (bad_name, bad) in BAD {
        for ctx in &CONTEXTS {
            for phase in 0..8 {
                let at = CHUNK - 4 + phase;
                let doc = ctx.document(bad, at);
                let what = format!("{bad_name} in {} at {at}", ctx.name);
                let reference = pull(&doc);
                expect_invalid_utf8(&reference, at, &what);
                assert!(same(&fed(&doc, &[]), &reference), "{what}: whole feed");
                for split in splits_near(&doc, at) {
                    let outcome = fed(&doc, &[split]);
                    assert!(same(&outcome, &reference), "{what}: split at {split}");
                }
            }
        }
    }
}

/// Small documents fed at every split point, and one byte at a time: the
/// bulk check then sees every malformed sequence cut at every byte.
#[test]
fn malformed_sequences_are_reported_at_every_split_point() {
    for (bad_name, bad) in BAD {
        for ctx in &CONTEXTS {
            let at = ctx.head.len() + 2;
            let doc = ctx.document(bad, at);
            let what = format!("{bad_name} in {}", ctx.name);
            let reference = pull(&doc);
            expect_invalid_utf8(&reference, at, &what);
            for split in 0..=doc.len() {
                let outcome = fed(&doc, &[split]);
                assert!(same(&outcome, &reference), "{what}: split at {split}");
            }
            let bytes: Vec<usize> = (1..doc.len()).collect();
            assert!(same(&fed(&doc, &bytes), &reference), "{what}: bytewise");
        }
    }
}

/// A character cut off by the end of input is malformed too. In text it
/// is what the reader reports; everywhere else the cut also leaves markup
/// unterminated, and both readers agree on that error.
#[test]
fn a_character_cut_off_at_eof_fails_the_same_way_through_both_readers() {
    let cut = [0xE3, 0x81];
    for ctx in &CONTEXTS {
        for phase in 0..8 {
            let at = CHUNK - 4 + phase;
            let mut doc = ctx.document(&cut, at);
            doc.truncate(at + cut.len());
            let what = format!("cut character in {} at {at}", ctx.name);
            let reference = pull(&doc);
            match (&reference.1, ctx.name) {
                (_, "text") => expect_invalid_utf8(&reference, at, &what),
                (Some(SaxError::InvalidUtf8 { .. }) | None, _) => {
                    panic!("{what}: expected an unterminated-markup error, got {reference:?}")
                }
                (Some(_), _) => {}
            }
            for split in splits_near(&doc, at) {
                let outcome = fed(&doc, &[split]);
                assert!(same(&outcome, &reference), "{what}: split at {split}");
            }
        }
    }
}

/// Valid multi-byte characters cut by the chunk edge or a feed split
/// parse to the same events both ways, and arrive whole.
#[test]
fn valid_characters_straddling_an_edge_parse_the_same_both_ways() {
    for ch in GOOD {
        for ctx in &CONTEXTS {
            for back in 1..=ch.len() {
                let at = CHUNK - back;
                let doc = well_formed(ctx, ch, at);
                let what = format!("{ch:?} in {} at {at}", ctx.name);
                let reference = pull(&doc);
                assert!(reference.1.is_none(), "{what}: {:?}", reference.1);
                let shown = format!("{:?}", reference.0);
                let dropped = ctx.name == "XML declaration";
                assert_eq!(shown.contains(ch), !dropped, "{what}: {shown}");
                for split in splits_near(&doc, at) {
                    let outcome = fed(&doc, &[split]);
                    assert!(same(&outcome, &reference), "{what}: split at {split}");
                }
            }
            let doc = well_formed(ctx, ch, ctx.head.len() + 8);
            let reference = pull(&doc);
            for split in 0..=doc.len() {
                let outcome = fed(&doc, &[split]);
                assert!(
                    same(&outcome, &reference),
                    "{ch:?} in {}: {split}",
                    ctx.name
                );
            }
        }
    }
}
