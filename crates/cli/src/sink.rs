//! The result sink: every line `twigm` prints goes through one buffered
//! writer.
//!
//! Each line is formatted whole and written into a std [`BufWriter`]
//! (its default 8 KiB), so the buffer only ever holds complete lines.
//! The buffer is flushed before every read of the input
//! ([`FlushBeforeRead`]) and once at the end ([`Sink::finish`]), never
//! per line: a read that blocks on a slow stream never holds a decided
//! result back, and output costs one `write(2)` per 8 KiB at most, or
//! one per read of the input when less gathers in between. [`Emit`] is
//! the hook that prints results from the serial loop as the engine
//! decides them.

use std::cell::RefCell;
use std::fmt::{Display, Write as _};
use std::io::{self, BufWriter, Read, Write};
use std::ops::ControlFlow;

use twigm::engine::DriveHook;
use twigm::StreamEngine;

/// The buffered writer behind every output line. After the first failed
/// write it writes nothing more and keeps the error for
/// [`Sink::finish`].
pub struct Sink<'w> {
    out: BufWriter<&'w mut dyn Write>,
    /// The line being formatted, reused from line to line.
    line: String,
    error: Option<io::Error>,
}

impl<'w> Sink<'w> {
    /// A sink writing to `out`.
    pub fn new(out: &'w mut dyn Write) -> Self {
        Sink {
            out: BufWriter::new(out),
            line: String::new(),
            error: None,
        }
    }

    /// Writes `item` and a newline.
    pub fn line(&mut self, item: impl Display) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        writeln!(self.line, "{item}").expect("formatting into a String cannot fail");
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Writes one line per item; returns the number of items.
    pub fn lines<T: Display>(&mut self, items: impl IntoIterator<Item = T>) -> u64 {
        let mut n = 0;
        for item in items {
            self.line(item);
            n += 1;
        }
        n
    }

    /// Whether a write has failed.
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// Writes out the buffered lines. Fails, with the kind of the first
    /// error, once any write has failed.
    fn flush(&mut self) -> io::Result<()> {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        match &self.error {
            Some(e) => Err(e.kind().into()),
            None => Ok(()),
        }
    }

    /// Flushes the last lines; returns the first write error, if any.
    pub fn finish(mut self) -> io::Result<()> {
        let _ = self.flush();
        self.error.map_or(Ok(()), Err)
    }
}

/// Wraps the input and flushes the sink before each read. A failed
/// flush fails the read, which ends the run.
pub struct FlushBeforeRead<'s, 'w, R> {
    inner: R,
    sink: &'s RefCell<Sink<'w>>,
}

impl<'s, 'w, R> FlushBeforeRead<'s, 'w, R> {
    /// Reads `inner`, flushing `sink` first.
    pub fn new(inner: R, sink: &'s RefCell<Sink<'w>>) -> Self {
        FlushBeforeRead { inner, sink }
    }
}

impl<R: Read> Read for FlushBeforeRead<'_, '_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.sink.borrow_mut().flush()?;
        self.inner.read(buf)
    }
}

/// The emission hook: after every event that decides a result, `print`
/// drains the engine into the sink. Every result prints exactly one
/// line, so comparing the engine's result counter with the number
/// printed tells, in O(1) and without allocating, whether anything is
/// waiting. A fragment decided before its end tag keeps the two apart
/// until the fragment is complete. Breaks the run at the first failed
/// write.
pub struct Emit<'s, 'w, E: ?Sized> {
    sink: &'s RefCell<Sink<'w>>,
    print: fn(&mut E, &mut Sink<'_>) -> u64,
    printed: u64,
}

impl<'s, 'w, E: ?Sized> Emit<'s, 'w, E> {
    /// A hook printing what `print` drains from the engine into `sink`;
    /// `print` returns the number of results it drained.
    pub fn new(sink: &'s RefCell<Sink<'w>>, print: fn(&mut E, &mut Sink<'_>) -> u64) -> Self {
        Emit {
            sink,
            print,
            printed: 0,
        }
    }

    /// The sink this hook prints into.
    pub fn sink(&self) -> &'s RefCell<Sink<'w>> {
        self.sink
    }

    /// The number of results printed so far.
    pub fn printed(&self) -> u64 {
        self.printed
    }
}

impl<E: StreamEngine + ?Sized> DriveHook<E> for Emit<'_, '_, E> {
    #[inline]
    fn after_event(&mut self, engine: &mut E, _: u32, _: u64) -> ControlFlow<()> {
        if engine.stats().results == self.printed {
            return ControlFlow::Continue(());
        }
        let mut sink = self.sink.borrow_mut();
        self.printed += (self.print)(engine, &mut sink);
        if sink.failed() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}
