//! The reader's input buffer and its UTF-8 watermark.
//!
//! The watermark is what lets [`InputBuf::str_at`] hand out `&str`
//! without checking a range again, so every field it depends on is
//! private to this module and changed only by the methods below.

use std::io::Read;

use super::CHUNK;
use crate::error::{SaxError, SaxResult};

/// The reader's input buffer, checked for UTF-8 in bulk as bytes arrive.
///
/// It dereferences to the buffered input, `data[..end]`. The bytes after
/// `end` are read space: zeroed once when the buffer grows, then reused by
/// every later read, so a read that returns a few bytes costs a few bytes.
pub(super) struct InputBuf {
    data: Vec<u8>,
    end: usize,
    /// Absolute stream offset of `data[0]`.
    base: u64,
    /// The UTF-8 watermark. `data[..checked]` is valid UTF-8, except that
    /// it may start with the tail (at most three continuation bytes) of a
    /// character that compaction cut off; `checked` itself is a character
    /// boundary. Every read advances it over the new complete characters
    /// and stops at the first invalid or incomplete one.
    checked: usize,
}

impl InputBuf {
    pub(super) fn new() -> Self {
        InputBuf {
            data: Vec::new(),
            end: 0,
            base: 0,
            checked: 0,
        }
    }

    /// Absolute stream offset of the first buffered byte.
    #[inline]
    pub(super) fn base(&self) -> u64 {
        self.base
    }

    /// Drops the first `pos` bytes, sliding the rest to the front with one
    /// overlapping memmove.
    pub(super) fn compact(&mut self, pos: usize) {
        self.data.copy_within(pos..self.end, 0);
        self.end -= pos;
        self.base += pos as u64;
        // A suffix of the checked bytes keeps the watermark's invariant:
        // at most a cut character's tail precedes whole characters.
        self.checked = self.checked.saturating_sub(pos);
    }

    /// Reads up to one chunk from `src` and advances the UTF-8 watermark
    /// over it. Returns the number of bytes read.
    pub(super) fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let want = self.end + CHUNK;
        if self.data.len() < want {
            self.data.resize(want, 0);
        }
        // On error (FeedReader's resumable `WouldBlock` among them)
        // nothing was added: `end` is unchanged.
        let n = src.read(&mut self.data[self.end..want])?;
        self.end += n;
        let fresh = &self.data[self.checked..self.end];
        self.checked += match std::str::from_utf8(fresh) {
            Ok(_) => fresh.len(),
            Err(e) => e.valid_up_to(),
        };
        Ok(n)
    }

    /// `self[range]` as a `&str`. A range under the watermark whose ends
    /// are character boundaries needs no second pass; any other range is
    /// checked on its own, which also reports the error.
    #[inline]
    pub(super) fn str_at(&self, range: (usize, usize)) -> SaxResult<&str> {
        match self.checked_str(range) {
            Some(s) => Ok(s),
            None => self.check_range(range),
        }
    }

    /// The per-range check, for ranges the watermark does not cover.
    #[cold]
    fn check_range(&self, range: (usize, usize)) -> SaxResult<&str> {
        std::str::from_utf8(&self[range.0..range.1]).map_err(|e| SaxError::InvalidUtf8 {
            offset: self.base + (range.0 + e.valid_up_to()) as u64,
        })
    }

    /// `self[range]` as a `&str` when the watermark already covers it.
    ///
    /// The crate's one `unsafe` site outside the SSE2 kernel: `allow`
    /// against its `deny(unsafe_code)`, kept to this one conversion.
    #[inline]
    #[allow(unsafe_code)]
    fn checked_str(&self, (start, end): (usize, usize)) -> Option<&str> {
        let boundary = |i: usize| i == self.checked || !is_continuation(self.data[i]);
        if end > self.checked || !boundary(start) || !boundary(end) {
            return None;
        }
        let bytes = &self.data[start..end];
        debug_assert!(std::str::from_utf8(bytes).is_ok(), "watermark invariant");
        // SAFETY: `start <= end <= checked` (the slice above panics
        // otherwise), and `data[..checked]` is valid UTF-8 after at most
        // three leading continuation bytes (see `checked`). `start` is
        // `checked`, making the range empty, or not a continuation byte,
        // so a character of the valid part starts there; likewise `end`
        // is `checked` or the start of the next character. A run of whole
        // characters of valid UTF-8 is valid UTF-8.
        Some(unsafe { std::str::from_utf8_unchecked(bytes) })
    }
}

impl std::ops::Deref for InputBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[..self.end]
    }
}

/// Is `b` a UTF-8 continuation byte (`0b10xx_xxxx`)?
#[inline]
fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only ranges of whole characters under the watermark skip the
    /// per-range check; every other range takes it and reports its error.
    #[test]
    fn the_watermark_covers_only_whole_checked_characters() {
        let mut buf = InputBuf::new();
        // `a` is byte 0, `é` bytes 1..3, and `日` bytes 3..6, cut after
        // its second byte by the end of the first read.
        let mut first: &[u8] = &"aé日".as_bytes()[..5];
        buf.read_from(&mut first).unwrap();
        assert_eq!(buf.checked, 3, "stops before the incomplete character");
        assert_eq!(buf.checked_str((0, 3)), Some("aé"));
        assert_eq!(buf.checked_str((1, 3)), Some("é"));
        assert_eq!(buf.checked_str((2, 3)), None, "starts inside `é`");
        assert_eq!(buf.checked_str((0, 2)), None, "ends inside `é`");
        assert_eq!(buf.checked_str((3, 5)), None, "above the watermark");
        assert!(matches!(
            buf.str_at((0, 2)),
            Err(SaxError::InvalidUtf8 { offset: 1 })
        ));

        let mut rest: &[u8] = &"日".as_bytes()[2..];
        buf.read_from(&mut rest).unwrap();
        assert_eq!(buf.checked, 6);
        assert_eq!(buf.checked_str((3, 6)), Some("日"));

        // Compaction may cut a character: its tail stays below the
        // watermark but never starts a range that skips the check.
        buf.compact(4);
        assert_eq!((buf.checked, buf.base), (2, 4));
        assert_eq!(buf.checked_str((0, 2)), None);
        assert_eq!(buf.checked_str((2, 2)), Some(""));
        assert!(matches!(
            buf.str_at((0, 2)),
            Err(SaxError::InvalidUtf8 { offset: 4 })
        ));

        // An invalid byte holds the watermark where it is.
        let mut bad: &[u8] = b"x\xffy";
        buf.read_from(&mut bad).unwrap();
        assert_eq!(buf.checked, 3);
        assert_eq!(buf.checked_str((2, 3)), Some("x"));
        assert_eq!(buf.checked_str((4, 5)), None);
        assert_eq!(buf.str_at((4, 5)).unwrap(), "y");
    }
}
