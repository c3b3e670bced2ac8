//! The pull-based streaming XML reader.

use std::borrow::Cow;
use std::io::Read;

use crate::entity::{decode_entities_into, EntityMap};
use crate::error::{SaxError, SaxResult};
use crate::event::{check_attribute_refs, EndTag, Event, NodeId, StartTag};
use crate::scan;

/// Read granularity of the internal buffer.
const CHUNK: usize = 64 * 1024;
/// When this much text accumulates without markup, a partial
/// [`Event::Text`] is emitted so text nodes of unbounded size stream in
/// constant memory.
const TEXT_EMIT: usize = 256 * 1024;
/// Default cap on the size of a single piece of markup (one tag, comment,
/// CDATA section...). Prevents unbounded buffering on malformed input.
const DEFAULT_MAX_MARKUP: usize = 16 * 1024 * 1024;

/// A streaming, pull-based XML parser.
///
/// `SaxReader` reads from any [`Read`] with a bounded internal buffer and
/// produces borrowed [`Event`]s annotated with the TwigM paper's `level`
/// (root element = 1) and pre-order `id`. Memory use is bounded by the size
/// of the largest single piece of markup plus the element nesting depth.
///
/// Empty-element tags `<a/>` are reported as a start event immediately
/// followed by a synthetic end event, so downstream machines only deal with
/// balanced start/end pairs.
pub struct SaxReader<R> {
    src: R,
    /// Buffered input; `buf[pos..]` is unconsumed.
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
    /// Names of currently open elements (the paper's *active nodes*),
    /// concatenated into one reusable byte stack: `open_names[open_offsets[i]..
    /// open_offsets[i + 1]]` is the validated-UTF-8 name of the `i`-th open
    /// element. Pushing a start tag appends bytes instead of allocating an
    /// owned `String` per element; `String`s are only materialized on error
    /// paths.
    open_names: Vec<u8>,
    /// Start offset of each open element's name within `open_names`.
    open_offsets: Vec<usize>,
    next_id: u64,
    root_seen: bool,
    /// The previous event was a synthetic empty-tag end that borrowed its
    /// name from `open`; pop `open` at the start of the next call.
    pending_pop: bool,
    /// A `<a/>` start was just emitted; emit its synthetic end next.
    pending_empty_end: bool,
    max_markup: usize,
    /// General entities declared in the DOCTYPE internal subset.
    entities: EntityMap,
    /// Reusable decode buffer for text containing entity references:
    /// grown once to the working-set size, then reused for every text
    /// event instead of allocating a fresh `String` per event.
    text_scratch: String,
    /// Events emitted so far (event accounting for telemetry).
    events: u64,
}

/// What the scanner found, as plain ranges into `buf`.
///
/// The scanner performs no buffer mutation after computing the ranges it
/// returns, so they remain valid until the next `scan_next` call.
enum Scanned {
    Start {
        name: (usize, usize),
        attr: (usize, usize),
        /// Some attribute value contains `&`.
        refs: bool,
        self_closing: bool,
        offset: u64,
    },
    End {
        name: (usize, usize),
        offset: u64,
    },
    Text {
        range: (usize, usize),
        cdata: bool,
    },
    Comment {
        range: (usize, usize),
    },
    Pi {
        target: (usize, usize),
        data: (usize, usize),
    },
    /// A DOCTYPE declaration: its interior may declare entities.
    Doctype {
        range: (usize, usize),
    },
    Eof,
}

impl<'b> SaxReader<&'b [u8]> {
    /// Creates a reader over an in-memory document.
    pub fn from_bytes(bytes: &'b [u8]) -> Self {
        Self::new(bytes)
    }
}

impl SaxReader<std::io::BufReader<std::fs::File>> {
    /// Opens a file for streaming.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> SaxResult<Self> {
        let file = std::fs::File::open(path)?;
        Ok(Self::new(std::io::BufReader::new(file)))
    }
}

impl<R: Read> SaxReader<R> {
    /// Creates a reader over any byte source.
    pub fn new(src: R) -> Self {
        SaxReader {
            src,
            buf: Vec::with_capacity(CHUNK),
            pos: 0,
            eof: false,
            base: 0,
            open_names: Vec::new(),
            open_offsets: Vec::new(),
            next_id: 0,
            root_seen: false,
            pending_pop: false,
            pending_empty_end: false,
            max_markup: DEFAULT_MAX_MARKUP,
            entities: EntityMap::new(),
            text_scratch: String::new(),
            events: 0,
        }
    }

    /// Overrides the maximum size of a single piece of markup.
    pub fn with_max_markup(mut self, limit: usize) -> Self {
        self.max_markup = limit;
        self
    }

    /// Absolute byte offset of the next unconsumed input byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Current element nesting depth (number of open elements).
    pub fn depth(&self) -> u32 {
        self.open_offsets.len() as u32
    }

    /// Pushes an open element name (already validated as UTF-8) from
    /// `buf[range]` onto the reusable name stack.
    fn push_open(&mut self, range: (usize, usize)) {
        self.open_offsets.push(self.open_names.len());
        self.open_names
            .extend_from_slice(&self.buf[range.0..range.1]);
    }

    /// Pops the innermost open element name.
    fn pop_open(&mut self) {
        if let Some(off) = self.open_offsets.pop() {
            self.open_names.truncate(off);
        }
    }

    /// Name bytes of the innermost open element, if any.
    fn last_open(&self) -> Option<&[u8]> {
        self.open_offsets.last().map(|&off| &self.open_names[off..])
    }

    /// Name of the innermost open element as a `&str`.
    fn last_open_str(&self) -> Option<&str> {
        self.last_open()
            .map(|bytes| std::str::from_utf8(bytes).expect("open names are validated UTF-8"))
    }

    /// Number of events emitted so far. Together with
    /// [`SaxReader::offset`] this gives drivers byte/event accounting
    /// (events/s, bytes/s) without counting on their own.
    pub fn events_emitted(&self) -> u64 {
        self.events
    }

    /// Returns the next event, or `None` at a well-formed end of document.
    #[allow(clippy::should_implement_trait)]
    pub fn next_event(&mut self) -> SaxResult<Option<Event<'_>>> {
        if self.pending_pop {
            self.pop_open();
            self.pending_pop = false;
        }
        if self.pending_empty_end {
            self.pending_empty_end = false;
            self.pending_pop = true;
            let level = self.open_offsets.len() as u32;
            self.events += 1;
            let name = self
                .last_open_str()
                .expect("empty-tag end with empty stack");
            return Ok(Some(Event::End(EndTag { name, level })));
        }
        loop {
            match self.scan_next()? {
                Scanned::Doctype { range } => {
                    let text = self.str_at(range)?.to_string();
                    parse_entity_decls(&text, &mut self.entities);
                    continue;
                }
                Scanned::Eof => {
                    if let Some(name) = self.last_open_str() {
                        return Err(SaxError::UnexpectedEof {
                            open_element: Some(name.to_string()),
                        });
                    }
                    if !self.root_seen {
                        return Err(SaxError::UnexpectedEof { open_element: None });
                    }
                    return Ok(None);
                }
                Scanned::Start {
                    name,
                    attr,
                    refs,
                    self_closing,
                    offset,
                } => {
                    // Validate UTF-8 before mutating state. Only the error
                    // path materializes an owned name.
                    self.str_at(name)?;
                    let attr_text = self.str_at(attr)?;
                    if self.open_offsets.is_empty() && self.root_seen {
                        return Err(SaxError::MultipleRoots {
                            offset,
                            name: self.str_at(name)?.to_string(),
                        });
                    }
                    // References in attribute values are checked here, for
                    // every tag, so that whether a consumer decodes a tag's
                    // attributes never decides whether the document is
                    // accepted.
                    if refs {
                        check_attribute_refs(attr_text, offset, &self.entities)?;
                    }
                    self.push_open(name);
                    self.root_seen = true;
                    let level = self.open_offsets.len() as u32;
                    let id = NodeId::new(self.next_id);
                    self.next_id += 1;
                    self.pending_empty_end = self_closing;
                    self.events += 1;
                    // All mutation done; take the final borrows.
                    let name = str_unchecked(&self.buf, name);
                    let attr_text = str_unchecked(&self.buf, attr);
                    return Ok(Some(Event::Start(StartTag {
                        name,
                        attr_text,
                        offset,
                        level,
                        id,
                        entities: Some(&self.entities),
                    })));
                }
                Scanned::End { name, offset } => {
                    let found = self.str_at(name)?;
                    match self.last_open() {
                        None => {
                            return Err(SaxError::UnexpectedEndTag {
                                offset,
                                found: found.to_string(),
                            })
                        }
                        Some(expected) if expected != found.as_bytes() => {
                            return Err(SaxError::MismatchedTag {
                                offset,
                                expected: self.last_open_str().expect("checked").to_string(),
                                found: found.to_string(),
                            })
                        }
                        Some(_) => {}
                    }
                    let level = self.open_offsets.len() as u32;
                    self.pop_open();
                    self.events += 1;
                    let name = str_unchecked(&self.buf, name);
                    return Ok(Some(Event::End(EndTag { name, level })));
                }
                Scanned::Text { range, cdata } => {
                    if self.open_offsets.is_empty() {
                        // Only whitespace may appear outside the root.
                        let bytes = &self.buf[range.0..range.1];
                        if bytes.iter().all(|b| b.is_ascii_whitespace()) {
                            continue;
                        }
                        return Err(SaxError::TextOutsideRoot {
                            offset: self.base + range.0 as u64,
                        });
                    }
                    if range.0 == range.1 {
                        continue;
                    }
                    let offset = self.base + range.0 as u64;
                    self.events += 1;
                    self.str_at(range)?; // validate UTF-8
                    let s = str_unchecked(&self.buf, range);
                    // Decode into the reusable scratch: no per-event
                    // `String` once the scratch has grown. `buf` and
                    // `text_scratch` are disjoint fields, so the decode
                    // can read one while writing the other.
                    let text = if !cdata
                        && decode_entities_into(
                            s,
                            offset,
                            Some(&self.entities),
                            &mut self.text_scratch,
                        )? {
                        Cow::Borrowed(self.text_scratch.as_str())
                    } else {
                        Cow::Borrowed(str_unchecked(&self.buf, range))
                    };
                    return Ok(Some(Event::Text(text)));
                }
                Scanned::Comment { range } => {
                    self.events += 1;
                    let s = self.str_at(range)?;
                    return Ok(Some(Event::Comment(s)));
                }
                Scanned::Pi { target, data } => {
                    let target_s = self.str_at(target)?;
                    if target_s.eq_ignore_ascii_case("xml") {
                        continue; // XML declaration
                    }
                    self.events += 1;
                    let target = str_unchecked(&self.buf, target);
                    let data = str_unchecked(&self.buf, data);
                    return Ok(Some(Event::ProcessingInstruction { target, data }));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Scanner: computes the next markup item as ranges into `buf`.
    // ------------------------------------------------------------------

    fn scan_next(&mut self) -> SaxResult<Scanned> {
        if self.available() == 0 {
            self.fill()?;
            if self.available() == 0 {
                return Ok(Scanned::Eof);
            }
        }
        if self.buf[self.pos] != b'<' {
            return self.scan_text();
        }
        // Enough lookahead to classify `<![CDATA[`.
        self.ensure(9)?;
        let rest = &self.buf[self.pos..];
        if rest.len() >= 2 && rest[1] == b'/' {
            self.scan_end_tag()
        } else if rest.starts_with(b"<!--") {
            self.scan_comment()
        } else if rest.starts_with(b"<![CDATA[") {
            self.scan_cdata()
        } else if rest.len() >= 2 && rest[1] == b'!' {
            self.scan_decl()
        } else if rest.len() >= 2 && rest[1] == b'?' {
            self.scan_pi()
        } else {
            self.scan_start_tag()
        }
    }

    fn scan_text(&mut self) -> SaxResult<Scanned> {
        let offset = self.offset();
        let mut searched = 0;
        let end = loop {
            let hay = &self.buf[self.pos..];
            if let Some(i) = scan::memchr(b'<', &hay[searched..]) {
                break searched + i;
            }
            searched = hay.len();
            if self.eof {
                break searched;
            }
            if searched >= TEXT_EMIT {
                // Emit a partial chunk, cut at a safe boundary.
                let cut = safe_text_cut(hay);
                if cut > 0 {
                    break cut;
                }
            }
            self.check_markup_len(offset)?;
            self.fill()?;
        };
        let range = (self.pos, self.pos + end);
        self.pos += end;
        Ok(Scanned::Text {
            range,
            cdata: false,
        })
    }

    fn scan_end_tag(&mut self) -> SaxResult<Scanned> {
        let offset = self.offset();
        let gt = self
            .find_byte_rel(b'>', 2)?
            .ok_or_else(|| self.syntax_at(offset, "unterminated end tag"))?;
        let start = self.pos + 2;
        let mut end = self.pos + gt;
        while start < end && scan::is_space(self.buf[end - 1]) {
            end -= 1;
        }
        self.validate_name(start, end, offset)?;
        let name = (start, end);
        self.pos += gt + 1;
        Ok(Scanned::End { name, offset })
    }

    fn scan_comment(&mut self) -> SaxResult<Scanned> {
        let offset = self.offset();
        let end = self
            .find_seq_rel(b"-->", 4)?
            .ok_or_else(|| self.syntax_at(offset, "unterminated comment"))?;
        let range = (self.pos + 4, self.pos + end);
        self.pos += end + 3;
        Ok(Scanned::Comment { range })
    }

    fn scan_cdata(&mut self) -> SaxResult<Scanned> {
        let offset = self.offset();
        let end = self
            .find_seq_rel(b"]]>", 9)?
            .ok_or_else(|| self.syntax_at(offset, "unterminated CDATA section"))?;
        let range = (self.pos + 9, self.pos + end);
        self.pos += end + 3;
        Ok(Scanned::Text { range, cdata: true })
    }

    /// Skips `<!DOCTYPE ...>` (and any other `<!` declaration), honouring
    /// nested `[ ... ]` internal subsets.
    fn scan_decl(&mut self) -> SaxResult<Scanned> {
        let offset = self.offset();
        let mut depth = 0usize;
        let mut rel = 2;
        loop {
            while let Some(i) = scan::memchr3(b'[', b']', b'>', &self.buf[self.pos + rel..]) {
                let at = self.pos + rel + i;
                match self.buf[at] {
                    b'[' => depth += 1,
                    b']' => depth = depth.saturating_sub(1),
                    b'>' if depth == 0 => {
                        let range = (self.pos + 2, at);
                        self.pos = at + 1;
                        return Ok(Scanned::Doctype { range });
                    }
                    _ => {}
                }
                rel = at - self.pos + 1;
            }
            rel = self.buf.len() - self.pos;
            self.check_markup_len(offset)?;
            if self.eof {
                return Err(self.syntax_at(offset, "unterminated `<!` declaration"));
            }
            self.fill()?;
        }
    }

    fn scan_pi(&mut self) -> SaxResult<Scanned> {
        let offset = self.offset();
        let end = self
            .find_seq_rel(b"?>", 2)?
            .ok_or_else(|| self.syntax_at(offset, "unterminated processing instruction"))?;
        let content = (self.pos + 2, self.pos + end);
        // Split target from data at the first whitespace.
        let bytes = &self.buf[content.0..content.1];
        let split = scan::first_space(bytes).unwrap_or(bytes.len());
        let target = (content.0, content.0 + split);
        let data_start = content.0 + split + scan::space_run_len(&bytes[split..]);
        let data = (data_start, content.1);
        self.validate_name(target.0, target.1, offset)?;
        self.pos += end + 2;
        Ok(Scanned::Pi { target, data })
    }

    fn scan_start_tag(&mut self) -> SaxResult<Scanned> {
        let offset = self.offset();
        // Find the closing `>` outside quoted attribute values: jump from
        // delimiter to delimiter (`>`, `"`, `'`, `<` — then the matching
        // close quote while inside a value) instead of walking bytes.
        let mut rel = 1;
        let mut quote: Option<u8> = None;
        let gt = loop {
            let mut found = None;
            while self.pos + rel < self.buf.len() {
                let hay = &self.buf[self.pos + rel..];
                match quote {
                    Some(q) => match scan::memchr(q, hay) {
                        Some(i) => {
                            quote = None;
                            rel += i + 1;
                        }
                        None => rel += hay.len(),
                    },
                    None => match scan::tag_delim(hay) {
                        Some(i) => match hay[i] {
                            b'>' => {
                                found = Some(rel + i);
                                break;
                            }
                            b'<' => {
                                return Err(self.syntax_at(
                                    self.base + (self.pos + rel + i) as u64,
                                    "`<` inside a tag",
                                ))
                            }
                            q => {
                                quote = Some(q);
                                rel += i + 1;
                            }
                        },
                        None => rel += hay.len(),
                    },
                }
            }
            if let Some(g) = found {
                break g;
            }
            self.check_markup_len(offset)?;
            if self.eof {
                return Err(self.syntax_at(offset, "unterminated start tag"));
            }
            self.fill()?;
        };
        // Interior is buf[pos+1 .. pos+gt]; detect self-closing.
        let mut interior_end = self.pos + gt;
        let interior_start = self.pos + 1;
        let self_closing = interior_end > interior_start && self.buf[interior_end - 1] == b'/';
        if self_closing {
            interior_end -= 1;
        }
        // The name is the leading run of name characters (bulk-skipped via
        // the byte-class table); anything after it is attribute text.
        let name_end = interior_start + scan::name_run_len(&self.buf[interior_start..interior_end]);
        self.validate_name(interior_start, name_end, offset)?;
        let name = (interior_start, name_end);
        let attr = (name_end, interior_end);
        let refs = self.validate_attrs(attr, offset)?;
        self.pos += gt + 1;
        Ok(Scanned::Start {
            name,
            attr,
            refs,
            self_closing,
            offset,
        })
    }

    /// Validates the syntactic shape `(S name S? = S? quoted-value)*` of an
    /// attribute list and rejects duplicate attribute names. Returns
    /// whether some value contains `&`, i.e. has references to check.
    fn validate_attrs(&self, range: (usize, usize), offset: u64) -> SaxResult<bool> {
        let bytes = &self.buf[range.0..range.1];
        let mut names: Vec<&[u8]> = Vec::new();
        let mut refs = false;
        let mut i = 0;
        while i < bytes.len() {
            i += scan::space_run_len(&bytes[i..]);
            if i >= bytes.len() {
                break;
            }
            let name_start = i;
            if !scan::is_name_start(bytes[i]) {
                return Err(self.syntax_at(offset, "malformed attribute name"));
            }
            i += scan::name_run_len(&bytes[i..]);
            let name = &bytes[name_start..i];
            i += scan::space_run_len(&bytes[i..]);
            if i >= bytes.len() || bytes[i] != b'=' {
                return Err(self.syntax_at(offset, "attribute without `=`"));
            }
            i += 1;
            i += scan::space_run_len(&bytes[i..]);
            if i >= bytes.len() || (bytes[i] != b'"' && bytes[i] != b'\'') {
                return Err(self.syntax_at(offset, "attribute value must be quoted"));
            }
            let q = bytes[i];
            i += 1;
            let value_start = i;
            match scan::memchr(q, &bytes[i..]) {
                Some(p) => i += p,
                None => return Err(self.syntax_at(offset, "unterminated attribute value")),
            }
            let value = &bytes[value_start..i];
            if let Some(p) = scan::memchr2(b'<', b'&', value) {
                if scan::memchr(b'<', &value[p..]).is_some() {
                    return Err(self.syntax_at(offset, "`<` in attribute value"));
                }
                refs = true;
            }
            i += 1;
            if names.contains(&name) {
                return Err(SaxError::DuplicateAttribute {
                    offset,
                    name: String::from_utf8_lossy(name).into_owned(),
                });
            }
            names.push(name);
        }
        Ok(refs)
    }

    fn validate_name(&self, start: usize, end: usize, offset: u64) -> SaxResult<()> {
        let bytes = &self.buf[start..end];
        if bytes.is_empty()
            || !scan::is_name_start(bytes[0])
            || scan::name_run_len(bytes) != bytes.len()
        {
            return Err(self.syntax_at(offset, "invalid name"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Buffer management.
    // ------------------------------------------------------------------

    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads another chunk, compacting consumed bytes first when worthwhile.
    fn fill(&mut self) -> SaxResult<()> {
        if self.eof {
            return Ok(());
        }
        if self.pos >= CHUNK || self.pos == self.buf.len() {
            // Compact: slide the unconsumed tail to the front. A plain
            // `copy_within` + `truncate` — unlike `drain(..pos)` there is
            // no iterator/drop machinery, just one overlapping memmove.
            self.base += self.pos as u64;
            let len = self.buf.len();
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(len - self.pos);
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + CHUNK, 0);
        let n = match self.src.read(&mut self.buf[old..]) {
            Ok(n) => n,
            Err(e) => {
                // Drop the zero padding before surfacing the error:
                // a resumable source (FeedReader's `WouldBlock`) retries
                // the same parse, which must not see the padding as
                // document bytes.
                self.buf.truncate(old);
                return Err(e.into());
            }
        };
        self.buf.truncate(old + n);
        if n == 0 {
            self.eof = true;
        }
        Ok(())
    }

    /// Ensures at least `n` bytes are buffered past `pos`, or EOF.
    fn ensure(&mut self, n: usize) -> SaxResult<()> {
        while self.available() < n && !self.eof {
            self.fill()?;
        }
        Ok(())
    }

    /// Finds `byte` at relative offset >= `from` from `pos`, filling as
    /// needed. Returns the relative offset, or `None` at EOF.
    fn find_byte_rel(&mut self, byte: u8, mut from: usize) -> SaxResult<Option<usize>> {
        let offset = self.offset();
        loop {
            let hay = &self.buf[self.pos..];
            if from < hay.len() {
                if let Some(i) = scan::memchr(byte, &hay[from..]) {
                    return Ok(Some(from + i));
                }
                from = hay.len();
            }
            self.check_markup_len(offset)?;
            if self.eof {
                return Ok(None);
            }
            self.fill()?;
        }
    }

    /// Finds `needle` at relative offset >= `from` from `pos`, filling as
    /// needed. Returns the relative offset of the match, or `None` at EOF.
    fn find_seq_rel(&mut self, needle: &[u8], mut from: usize) -> SaxResult<Option<usize>> {
        let offset = self.offset();
        loop {
            let hay = &self.buf[self.pos..];
            if hay.len() >= from + needle.len() {
                if let Some(i) = scan::find_seq(needle, &hay[from..]) {
                    return Ok(Some(from + i));
                }
                from = hay.len() + 1 - needle.len();
            }
            self.check_markup_len(offset)?;
            if self.eof {
                return Ok(None);
            }
            self.fill()?;
        }
    }

    fn check_markup_len(&self, offset: u64) -> SaxResult<()> {
        if self.available() > self.max_markup {
            return Err(SaxError::MarkupTooLong {
                offset,
                limit: self.max_markup,
            });
        }
        Ok(())
    }

    fn str_at(&self, range: (usize, usize)) -> SaxResult<&str> {
        std::str::from_utf8(&self.buf[range.0..range.1]).map_err(|e| SaxError::InvalidUtf8 {
            offset: self.base + (range.0 + e.valid_up_to()) as u64,
        })
    }

    fn syntax_at(&self, offset: u64, message: &str) -> SaxError {
        SaxError::Syntax {
            offset,
            message: message.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Incremental (push) parsing: feed()/finish().
// ---------------------------------------------------------------------

/// Byte source backing [`FeedReader`]: a growable queue that reports
/// [`std::io::ErrorKind::WouldBlock`] when drained before
/// [`FeedReader::finish`] was called, and a clean end-of-stream after.
#[derive(Debug, Default)]
struct FeedSource {
    data: std::collections::VecDeque<u8>,
    finished: bool,
}

impl Read for FeedSource {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() {
            return if self.finished {
                Ok(0)
            } else {
                Err(std::io::ErrorKind::WouldBlock.into())
            };
        }
        let (front, _) = self.data.as_slices();
        let n = front.len().min(out.len());
        out[..n].copy_from_slice(&front[..n]);
        self.data.drain(..n);
        Ok(n)
    }
}

/// The outcome of one [`FeedReader::next_event`] call.
#[derive(Debug)]
pub enum FeedEvent<'a> {
    /// A complete event was parsed.
    Event(Event<'a>),
    /// The buffered input ends in the middle of a construct (tag, entity
    /// reference, CDATA section, ...). Call [`FeedReader::feed`] — or
    /// [`FeedReader::finish`] if the stream is over — and retry.
    NeedData,
    /// The document is complete and well formed (only reachable after
    /// [`FeedReader::finish`]).
    Done,
}

/// A push-style incremental wrapper around [`SaxReader`].
///
/// Callers [`feed`](FeedReader::feed) arbitrary byte chunks — split
/// anywhere, including mid-tag, mid-entity or mid-CDATA — then drain
/// events with [`next_event`](FeedReader::next_event) until it reports
/// [`FeedEvent::NeedData`]. After the final chunk,
/// [`finish`](FeedReader::finish) lets the parser distinguish a truncated
/// document (an error) from one that is merely still arriving.
///
/// Events, levels, ids, errors and resource limits are byte-for-byte
/// identical to pulling the concatenated input through [`SaxReader`]; the
/// testkit's chunk-resplit driver asserts exactly that.
///
/// ```
/// use twigm_sax::{FeedEvent, FeedReader};
///
/// let mut parser = FeedReader::new();
/// let mut tags = Vec::new();
/// for chunk in [&b"<a><b/>x &a"[..], &b"mp; y</a>"[..]] {
///     parser.feed(chunk);
///     while let FeedEvent::Event(e) = parser.next_event().unwrap() {
///         if let twigm_sax::Event::Start(t) = e {
///             tags.push(t.name().to_string());
///         }
///     }
/// }
/// parser.finish();
/// while let FeedEvent::Event(_) = parser.next_event().unwrap() {}
/// assert_eq!(tags, ["a", "b"]);
/// ```
pub struct FeedReader {
    inner: SaxReader<FeedSource>,
}

impl FeedReader {
    /// Creates an empty incremental parser.
    pub fn new() -> FeedReader {
        FeedReader {
            inner: SaxReader::new(FeedSource::default()),
        }
    }

    /// Overrides the maximum size of a single piece of markup.
    pub fn with_max_markup(mut self, limit: usize) -> Self {
        self.inner.max_markup = limit;
        self
    }

    /// Appends a chunk of the document. Chunks may be split at any byte
    /// boundary.
    ///
    /// # Panics
    /// Panics if called after [`FeedReader::finish`].
    pub fn feed(&mut self, bytes: &[u8]) {
        assert!(
            !self.inner.src.finished,
            "FeedReader::feed called after finish()"
        );
        self.inner.src.data.extend(bytes);
    }

    /// Declares the end of input: pending [`FeedEvent::NeedData`] states
    /// become either events, [`FeedEvent::Done`], or truncation errors.
    pub fn finish(&mut self) {
        self.inner.src.finished = true;
    }

    /// Has [`FeedReader::finish`] been called?
    pub fn is_finished(&self) -> bool {
        self.inner.src.finished
    }

    /// Absolute byte offset of the next unconsumed input byte.
    pub fn offset(&self) -> u64 {
        self.inner.offset()
    }

    /// Current element nesting depth (number of open elements).
    pub fn depth(&self) -> u32 {
        self.inner.depth()
    }

    /// Parses the next event out of the buffered input.
    ///
    /// Errors are terminal and identical to the ones [`SaxReader`] would
    /// report on the concatenated input.
    pub fn next_event(&mut self) -> SaxResult<FeedEvent<'_>> {
        match self.inner.next_event() {
            Ok(Some(event)) => Ok(FeedEvent::Event(event)),
            Ok(None) => Ok(FeedEvent::Done),
            Err(SaxError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                Ok(FeedEvent::NeedData)
            }
            Err(e) => Err(e),
        }
    }
}

impl Default for FeedReader {
    fn default() -> Self {
        FeedReader::new()
    }
}

/// Re-slices a range already validated as UTF-8.
fn str_unchecked(buf: &[u8], range: (usize, usize)) -> &str {
    std::str::from_utf8(&buf[range.0..range.1]).expect("range was validated as UTF-8")
}

/// Largest prefix length of `s` that neither splits a UTF-8 character nor
/// an entity reference. May return 0 when no safe cut exists yet.
fn safe_text_cut(s: &[u8]) -> usize {
    let mut end = s.len();
    // Complete any trailing multi-byte UTF-8 character.
    let mut back = 0;
    while back < 3 && back < end && (s[end - 1 - back] & 0xC0) == 0x80 {
        back += 1;
    }
    if back < end {
        let lead = s[end - 1 - back];
        let char_len = if lead < 0x80 {
            1
        } else if lead >= 0xF0 {
            4
        } else if lead >= 0xE0 {
            3
        } else {
            2
        };
        if back + 1 < char_len {
            end -= back + 1;
        }
    }
    // Do not split an entity reference.
    if let Some(amp) = s[..end].iter().rposition(|&b| b == b'&') {
        if !s[amp..end].contains(&b';') {
            end = amp;
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OwnedEvent;

    fn events(xml: &str) -> Vec<OwnedEvent> {
        let mut reader = SaxReader::from_bytes(xml.as_bytes());
        let mut out = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            out.push(e.to_owned_event());
        }
        out
    }

    fn expect_err(xml: &str) -> SaxError {
        let mut reader = SaxReader::from_bytes(xml.as_bytes());
        loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("parse unexpectedly succeeded: {xml}"),
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn levels_and_ids_follow_the_paper() {
        // Figure 1(a) style nesting: ids in document (pre-order) order,
        // level 1 for the root element.
        let evts = events("<a><a><b><b><c/></b></b></a></a>");
        let starts: Vec<(String, u32, u64)> = evts
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Start {
                    name, level, id, ..
                } => Some((name.clone(), *level, id.get())),
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            vec![
                ("a".into(), 1, 0),
                ("a".into(), 2, 1),
                ("b".into(), 3, 2),
                ("b".into(), 4, 3),
                ("c".into(), 5, 4),
            ]
        );
    }

    #[test]
    fn reader_counts_emitted_events() {
        let mut r = SaxReader::from_bytes(b"<a>x<b/><!-- c --></a>");
        let mut n = 0u64;
        while r.next_event().unwrap().is_some() {
            n += 1;
            assert_eq!(r.events_emitted(), n);
        }
        // <a>, "x", <b>, </b>, comment, </a>.
        assert_eq!(n, 6);
        assert_eq!(r.events_emitted(), 6);
    }

    #[test]
    fn end_events_carry_matching_levels() {
        let evts = events("<a><b/></a>");
        assert_eq!(
            evts,
            vec![
                OwnedEvent::Start {
                    name: "a".into(),
                    attributes: vec![],
                    level: 1,
                    id: NodeId::new(0)
                },
                OwnedEvent::Start {
                    name: "b".into(),
                    attributes: vec![],
                    level: 2,
                    id: NodeId::new(1)
                },
                OwnedEvent::End {
                    name: "b".into(),
                    level: 2
                },
                OwnedEvent::End {
                    name: "a".into(),
                    level: 1
                },
            ]
        );
    }

    #[test]
    fn attributes_are_parsed_and_decoded() {
        let evts = events(r#"<a x="1" y='a&amp;b'/>"#);
        match &evts[0] {
            OwnedEvent::Start { attributes, .. } => {
                assert_eq!(
                    attributes,
                    &[("x".into(), "1".into()), ("y".into(), "a&b".into())]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_is_entity_decoded() {
        let evts = events("<a>x &lt; y &#38; z</a>");
        assert_eq!(evts[1], OwnedEvent::Text("x < y & z".into()));
    }

    #[test]
    fn cdata_is_reported_verbatim() {
        let evts = events("<a><![CDATA[<not>&markup;]]></a>");
        assert_eq!(evts[1], OwnedEvent::Text("<not>&markup;".into()));
    }

    #[test]
    fn comments_and_pis_are_reported() {
        let evts = events("<a><!-- note --><?php echo ?></a>");
        assert_eq!(evts[1], OwnedEvent::Comment(" note ".into()));
        assert_eq!(
            evts[2],
            OwnedEvent::ProcessingInstruction {
                target: "php".into(),
                data: "echo ".into()
            }
        );
    }

    #[test]
    fn xml_declaration_and_doctype_are_skipped() {
        let evts = events(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE book [ <!ELEMENT book (#PCDATA)> ]>\n<book/>",
        );
        assert!(matches!(evts[0], OwnedEvent::Start { .. }));
        assert_eq!(evts.len(), 2);
    }

    #[test]
    fn whitespace_outside_root_is_ignored() {
        let evts = events("  \n<a/>\n\t ");
        assert_eq!(evts.len(), 2);
    }

    #[test]
    fn empty_tags_synthesize_end_events() {
        let evts = events("<a/>");
        assert_eq!(evts.len(), 2);
        assert_eq!(
            evts[1],
            OwnedEvent::End {
                name: "a".into(),
                level: 1
            }
        );
    }

    #[test]
    fn gt_inside_attribute_value_is_not_tag_end() {
        let evts = events(r#"<a cmp="x>y">t</a>"#);
        match &evts[0] {
            OwnedEvent::Start { attributes, .. } => {
                assert_eq!(attributes[0].1, "x>y");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(evts[1], OwnedEvent::Text("t".into()));
    }

    #[test]
    fn mismatched_tag_is_an_error() {
        assert!(matches!(
            expect_err("<a><b></a></b>"),
            SaxError::MismatchedTag { expected, found, .. } if expected == "b" && found == "a"
        ));
    }

    #[test]
    fn unexpected_end_tag_is_an_error() {
        assert!(matches!(
            expect_err("<a></a></b>"),
            SaxError::UnexpectedEndTag { found, .. } if found == "b"
        ));
    }

    #[test]
    fn unclosed_element_is_an_error() {
        assert!(matches!(
            expect_err("<a><b></b>"),
            SaxError::UnexpectedEof { open_element: Some(name) } if name == "a"
        ));
    }

    #[test]
    fn empty_document_is_an_error() {
        assert!(matches!(
            expect_err("   "),
            SaxError::UnexpectedEof { open_element: None }
        ));
    }

    #[test]
    fn multiple_roots_are_an_error() {
        assert!(matches!(
            expect_err("<a/><b/>"),
            SaxError::MultipleRoots { name, .. } if name == "b"
        ));
    }

    #[test]
    fn text_outside_root_is_an_error() {
        assert!(matches!(
            expect_err("<a/>junk"),
            SaxError::TextOutsideRoot { .. }
        ));
        assert!(matches!(
            expect_err("pre<a/>"),
            SaxError::TextOutsideRoot { .. }
        ));
    }

    #[test]
    fn duplicate_attributes_are_an_error() {
        assert!(matches!(
            expect_err(r#"<a x="1" x="2"/>"#),
            SaxError::DuplicateAttribute { name, .. } if name == "x"
        ));
    }

    #[test]
    fn malformed_markup_is_a_syntax_error() {
        for bad in [
            "<a",
            "<a><1bad/></a>",
            "<a bad></a>",
            "<a x=1></a>",
            "<a x=\"1></a>",
            "<a><!-- unterminated </a>",
            "<>x</>",
        ] {
            assert!(
                matches!(
                    expect_err(bad),
                    SaxError::Syntax { .. } | SaxError::UnexpectedEof { .. }
                ),
                "expected error for {bad:?}"
            );
        }
    }

    #[test]
    fn lt_in_attribute_value_is_rejected() {
        assert!(matches!(
            expect_err(r#"<a x="<"/>"#),
            SaxError::Syntax { .. }
        ));
    }

    #[test]
    fn offsets_point_at_the_problem() {
        let xml = "<a></b>";
        match expect_err(xml) {
            SaxError::MismatchedTag { offset, .. } => assert_eq!(offset, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn small_chunked_reads_behave_identically() {
        // A Read implementation that returns one byte at a time exercises
        // every refill path.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let xml = r#"<r a="v&amp;w"><x>text &lt;here&gt;</x><!--c--><y/><![CDATA[raw]]></r>"#;
        let mut reference = Vec::new();
        let mut reader = SaxReader::from_bytes(xml.as_bytes());
        while let Some(e) = reader.next_event().unwrap() {
            reference.push(e.to_owned_event());
        }
        let mut chunked = Vec::new();
        let mut reader = SaxReader::new(OneByte(xml.as_bytes()));
        while let Some(e) = reader.next_event().unwrap() {
            chunked.push(e.to_owned_event());
        }
        assert_eq!(reference, chunked);
    }

    #[test]
    fn unicode_names_and_text_are_supported() {
        let evts = events("<日本語 属性=\"値\">テキスト</日本語>");
        match &evts[0] {
            OwnedEvent::Start {
                name, attributes, ..
            } => {
                assert_eq!(name, "日本語");
                assert_eq!(attributes[0], ("属性".into(), "値".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(evts[1], OwnedEvent::Text("テキスト".into()));
    }

    #[test]
    fn invalid_utf8_is_reported_with_offset() {
        let mut bytes = b"<a>".to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(b"</a>");
        let mut reader = SaxReader::from_bytes(&bytes);
        reader.next_event().unwrap(); // <a>
        match reader.next_event() {
            Err(SaxError::InvalidUtf8 { offset }) => assert_eq!(offset, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn safe_text_cut_preserves_entities_and_utf8() {
        assert_eq!(safe_text_cut(b"hello"), 5);
        assert_eq!(safe_text_cut(b"a&amp"), 1); // trailing incomplete entity
        assert_eq!(safe_text_cut(b"a&amp;"), 6);
        // Trailing incomplete 3-byte char (E3 81 needs one more byte).
        assert_eq!(safe_text_cut(&[b'x', 0xE3, 0x81]), 1);
        // Complete 3-byte char is kept.
        assert_eq!(safe_text_cut("xあ".as_bytes()), 4);
        assert_eq!(safe_text_cut(b"&amp"), 0);
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut reader = SaxReader::from_bytes(b"<a><b></b></a>" as &[u8]);
        assert_eq!(reader.depth(), 0);
        reader.next_event().unwrap();
        assert_eq!(reader.depth(), 1);
        reader.next_event().unwrap();
        assert_eq!(reader.depth(), 2);
        reader.next_event().unwrap();
        assert_eq!(reader.depth(), 1);
        reader.next_event().unwrap();
        assert_eq!(reader.depth(), 0);
    }

    #[test]
    fn markup_limit_is_enforced() {
        // A comment whose terminator never arrives within the limit: the
        // reader must give up rather than buffer without bound.
        let mut xml = String::from("<a><!--");
        xml.push_str(&"x".repeat(200));
        let mut reader = SaxReader::from_bytes(xml.as_bytes()).with_max_markup(64);
        reader.next_event().unwrap();
        assert!(matches!(
            reader.next_event(),
            Err(SaxError::MarkupTooLong { limit: 64, .. })
        ));
    }
}

/// Extracts `<!ENTITY name "value">` declarations from a DOCTYPE
/// interior. External (`SYSTEM`/`PUBLIC`) and parameter (`%`) entities
/// are ignored, as are malformed declarations — a DOCTYPE is metadata,
/// and skipping unusable declarations (rather than failing the stream)
/// matches common SAX parser behaviour.
fn parse_entity_decls(doctype: &str, entities: &mut EntityMap) {
    // Strip comments first, so commented-out declarations are ignored.
    let stripped;
    let rest0 = if doctype.contains("<!--") {
        let mut out = String::with_capacity(doctype.len());
        let mut s = doctype;
        while let Some(open) = s.find("<!--") {
            out.push_str(&s[..open]);
            match s[open..].find("-->") {
                Some(close) => s = &s[open + close + 3..],
                None => {
                    s = "";
                    break;
                }
            }
        }
        out.push_str(s);
        stripped = out;
        stripped.as_str()
    } else {
        doctype
    };
    let mut rest = rest0;
    while let Some(at) = rest.find("<!ENTITY") {
        rest = &rest[at + "<!ENTITY".len()..];
        let mut chars = rest.char_indices().peekable();
        // Skip whitespace.
        while chars.peek().is_some_and(|(_, c)| c.is_ascii_whitespace()) {
            chars.next();
        }
        // Parameter entities start with `%`: skip the declaration.
        if chars.peek().is_some_and(|(_, c)| *c == '%') {
            continue;
        }
        // Name.
        let name_start = match chars.peek() {
            Some(&(i, _)) => i,
            None => return,
        };
        let mut name_end = name_start;
        while chars.peek().is_some_and(|(_, c)| !c.is_ascii_whitespace()) {
            let (i, c) = chars.next().expect("peeked");
            name_end = i + c.len_utf8();
        }
        let name = &rest[name_start..name_end];
        // Skip whitespace, expect a quoted value (external ids start
        // with SYSTEM/PUBLIC instead: skipped).
        while chars.peek().is_some_and(|(_, c)| c.is_ascii_whitespace()) {
            chars.next();
        }
        let Some(&(vstart, quote)) = chars.peek() else {
            return;
        };
        if quote != '"' && quote != '\'' {
            continue;
        }
        let value_start = vstart + 1;
        let Some(close) = rest[value_start..].find(quote) else {
            return;
        };
        let value = &rest[value_start..value_start + close];
        if !name.is_empty() {
            entities.insert(name.to_string(), value.to_string());
        }
        rest = &rest[value_start + close + 1..];
    }
}

#[cfg(test)]
mod entity_decl_tests {
    use super::*;
    use crate::event::OwnedEvent;

    fn events(xml: &str) -> Vec<OwnedEvent> {
        let mut reader = SaxReader::from_bytes(xml.as_bytes());
        let mut out = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            out.push(e.to_owned_event());
        }
        out
    }

    #[test]
    fn internal_subset_entities_expand_in_text_and_attributes() {
        let xml = r#"<!DOCTYPE r [
            <!ENTITY co "TwigM Inc.">
            <!ENTITY tag 'value &amp; more'>
        ]>
        <r note="&co;"><p>&co; says &tag;</p></r>"#;
        let evts = events(xml);
        match &evts[0] {
            OwnedEvent::Start { attributes, .. } => {
                assert_eq!(attributes[0].1, "TwigM Inc.");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            evts[2],
            OwnedEvent::Text("TwigM Inc. says value & more".into())
        );
    }

    #[test]
    fn nested_entity_references_expand() {
        let xml = r#"<!DOCTYPE r [
            <!ENTITY a "A">
            <!ENTITY b "&a;&a;">
        ]>
        <r>&b;</r>"#;
        assert_eq!(events(xml)[1], OwnedEvent::Text("AA".into()));
    }

    #[test]
    fn billion_laughs_is_rejected() {
        let mut subset = String::from("<!ENTITY l0 \"ha\">");
        for i in 1..12 {
            subset.push_str(&format!(
                "<!ENTITY l{i} \"&l{};&l{};&l{};&l{};&l{};&l{};&l{};&l{};\">",
                i - 1,
                i - 1,
                i - 1,
                i - 1,
                i - 1,
                i - 1,
                i - 1,
                i - 1
            ));
        }
        let xml = format!("<!DOCTYPE r [{subset}]><r>&l11;</r>");
        let mut reader = SaxReader::from_bytes(xml.as_bytes());
        reader.next_event().unwrap(); // <r>
        assert!(matches!(reader.next_event(), Err(SaxError::Syntax { .. })));
    }

    #[test]
    fn undeclared_entities_still_error() {
        let xml = "<!DOCTYPE r [<!ENTITY a \"x\">]><r>&b;</r>";
        let mut reader = SaxReader::from_bytes(xml.as_bytes());
        reader.next_event().unwrap();
        assert!(matches!(
            reader.next_event(),
            Err(SaxError::UnknownEntity { name, .. }) if name == "b"
        ));
    }

    #[test]
    fn external_and_parameter_entities_are_skipped() {
        let xml = r#"<!DOCTYPE r [
            <!ENTITY % param "skip">
            <!ENTITY ext SYSTEM "http://example.com/e.xml">
            <!ENTITY ok "fine">
        ]>
        <r>&ok;</r>"#;
        assert_eq!(events(xml)[1], OwnedEvent::Text("fine".into()));
    }

    #[test]
    fn doctype_without_subset_still_skips() {
        let evts = events("<!DOCTYPE r SYSTEM \"dtd\"><r/>");
        assert_eq!(evts.len(), 2);
    }
}

#[cfg(test)]
mod entity_comment_tests {
    use super::*;

    #[test]
    fn commented_out_entity_declarations_are_ignored() {
        let mut entities = EntityMap::new();
        parse_entity_decls(
            r#" <!-- <!ENTITY dead "x"> --> <!ENTITY live "y"> "#,
            &mut entities,
        );
        assert_eq!(entities.get("live").map(String::as_str), Some("y"));
        assert!(!entities.contains_key("dead"));
    }
}

#[cfg(test)]
mod feed_tests {
    use super::*;
    use crate::event::OwnedEvent;

    /// Drains every currently parseable event into `out`; returns true
    /// once `Done` is reached.
    fn drain(parser: &mut FeedReader, out: &mut Vec<OwnedEvent>) -> bool {
        loop {
            match parser.next_event().unwrap() {
                FeedEvent::Event(e) => out.push(e.to_owned_event()),
                FeedEvent::NeedData => return false,
                FeedEvent::Done => return true,
            }
        }
    }

    /// Feeds `xml` in chunks of `chunk` bytes and returns the events.
    fn chunked_events(xml: &[u8], chunk: usize) -> Vec<OwnedEvent> {
        let mut parser = FeedReader::new();
        let mut out = Vec::new();
        for piece in xml.chunks(chunk.max(1)) {
            parser.feed(piece);
            assert!(!drain(&mut parser, &mut out));
        }
        parser.finish();
        assert!(drain(&mut parser, &mut out));
        out
    }

    /// Pulls the same bytes through the plain reader, for comparison.
    fn whole_events(xml: &[u8]) -> Vec<OwnedEvent> {
        let mut reader = SaxReader::from_bytes(xml);
        let mut out = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            out.push(e.to_owned_event());
        }
        out
    }

    #[test]
    fn one_byte_feeding_matches_whole_buffer_parse() {
        let xml = br#"<?xml version="1.0"?><!-- pre --><r a="1&amp;2">
            t1<b/><![CDATA[raw ]] text]]><?pi data?>&lt;tail&#33;
            <c x='&quot;q'>deep<d>er</d></c></r>"#;
        let whole = whole_events(xml);
        for chunk in [1usize, 2, 3, 7, 64] {
            assert_eq!(chunked_events(xml, chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn mid_entity_split_is_seamless() {
        let mut parser = FeedReader::new();
        let mut out = Vec::new();
        parser.feed(b"<a>x&am");
        assert!(!drain(&mut parser, &mut out));
        parser.feed(b"p;y</a>");
        parser.finish();
        assert!(drain(&mut parser, &mut out));
        let text: String = out
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(text, "x&y");
    }

    #[test]
    fn mid_cdata_split_is_seamless() {
        let mut parser = FeedReader::new();
        let mut out = Vec::new();
        parser.feed(b"<a><![CDATA[one]]");
        assert!(!drain(&mut parser, &mut out));
        parser.feed(b"two]]></a>");
        parser.finish();
        assert!(drain(&mut parser, &mut out));
        let text: String = out
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(text, "one]]two");
    }

    #[test]
    fn need_data_then_truncation_error_after_finish() {
        let mut parser = FeedReader::new();
        parser.feed(b"<a><b att=");
        let mut out = Vec::new();
        // The open start tag is incomplete: parser must wait, not error.
        assert!(!drain(&mut parser, &mut out));
        assert!(matches!(parser.next_event().unwrap(), FeedEvent::NeedData));
        // Declaring EOF turns the pending state into a truncation error.
        parser.finish();
        let err = loop {
            match parser.next_event() {
                Ok(FeedEvent::Event(_)) => continue,
                Ok(other) => panic!("expected an error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(
                err,
                SaxError::UnexpectedEof { .. } | SaxError::Syntax { .. }
            ),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn well_formedness_errors_propagate() {
        let mut parser = FeedReader::new();
        parser.feed(b"<a><b></a>");
        parser.finish();
        let err = loop {
            match parser.next_event() {
                Ok(FeedEvent::Event(_)) => continue,
                Ok(other) => panic!("expected an error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SaxError::MismatchedTag { .. }), "{err:?}");
    }

    #[test]
    fn feed_after_finish_panics() {
        let mut parser = FeedReader::new();
        parser.finish();
        assert!(parser.is_finished());
        let panicked = std::panic::catch_unwind(move || parser.feed(b"<a/>")).is_err();
        assert!(panicked);
    }
}
