//! Bounded-memory line scanning for streaming netlist parsers.
//!
//! The million-cell ISPD-like designs the serve path loads through the
//! session registry are too large to `read_to_string` comfortably, and a
//! hostile input must not be able to balloon memory by omitting newlines.
//! [`LineScanner`] reads from any [`Read`] through a single reusable
//! buffer: the buffer grows only as far as the longest line seen (capped
//! at a configurable maximum), so peak memory is bounded by
//! `max_line_bytes` regardless of file size.
//!
//! The [`bookshelf`](crate::bookshelf) parser and the `.hgr` header read
//! whole lines through [`LineScanner::next_line`]. The `.hgr` body does
//! not: [`hgr`](crate::hgr) reads it in one byte-level pass over the
//! scanner's buffer, which the scanner refills and caps exactly as it
//! does for `next_line`, so the line cap, the refill points and the line
//! numbers in errors are the same for both. Either way "streaming parse"
//! and "whole-buffer parse" are the same code path — property-tested to
//! be byte-equivalent.
//!
//! # Example
//!
//! ```
//! use gtl_netlist::stream::LineScanner;
//!
//! let mut scanner = LineScanner::new("a\r\nbb\nccc".as_bytes(), "demo");
//! let mut lines = Vec::new();
//! while let Some((no, line)) = scanner.next_line()? {
//!     lines.push((no, line.to_string()));
//! }
//! assert_eq!(lines, [(1, "a".into()), (2, "bb".into()), (3, "ccc".into())]);
//! # Ok::<(), gtl_netlist::NetlistError>(())
//! ```

use std::io::Read;

use crate::{NetlistError, ParseContext};

/// Default cap on a single line, in bytes (8 MiB).
///
/// Generous enough for the widest net records in multi-million-cell
/// designs while still bounding what a newline-free input can consume.
pub const DEFAULT_MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Initial scan-buffer size; the buffer doubles lazily as lines demand.
const INITIAL_BUF_BYTES: usize = 64 * 1024;

/// Streaming line reader with a bounded, reusable buffer.
///
/// Yields `(line_number, line)` pairs via [`next_line`](Self::next_line).
/// Line numbers are 1-based; a trailing `\r` is stripped (CRLF input);
/// a final line without a trailing newline is still yielded, matching
/// [`std::io::BufRead::lines`] semantics. Each line is validated as UTF-8.
pub struct LineScanner<R> {
    reader: R,
    label: String,
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
    /// End of valid bytes in `buf`.
    end: usize,
    line_no: usize,
    max_line_bytes: usize,
    eof: bool,
}

impl<R: Read> LineScanner<R> {
    /// Creates a scanner with the [`DEFAULT_MAX_LINE_BYTES`] line cap.
    ///
    /// `label` names the stream in error messages (a file path, or
    /// `"<string>"` for in-memory input).
    pub fn new(reader: R, label: impl Into<String>) -> Self {
        Self::with_max_line(reader, label, DEFAULT_MAX_LINE_BYTES)
    }

    /// Creates a scanner with an explicit per-line byte cap.
    ///
    /// A line longer than `max_line_bytes` (excluding the newline) fails
    /// with [`NetlistError::Syntax`] instead of growing the buffer.
    pub fn with_max_line(reader: R, label: impl Into<String>, max_line_bytes: usize) -> Self {
        Self {
            reader,
            label: label.into(),
            buf: vec![0; INITIAL_BUF_BYTES.min(max_line_bytes.saturating_add(2)).max(16)],
            start: 0,
            end: 0,
            line_no: 0,
            max_line_bytes,
            eof: false,
        }
    }

    /// The stream label used in error messages.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// 1-based number of the most recently returned line (0 before any).
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Returns the next line as `(line_number, line)`, or `None` at EOF.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Io`] on read failure and
    /// [`NetlistError::Syntax`] for an over-long line or invalid UTF-8.
    pub fn next_line(&mut self) -> Result<Option<(usize, &str)>, NetlistError> {
        let (line_start, line_end) = loop {
            if let Some(pos) = find_byte(self.buffered(), b'\n') {
                let line = (self.start, self.start + pos);
                self.start += pos + 1;
                break line;
            }
            if !self.fill()? {
                if self.start == self.end {
                    return Ok(None);
                }
                let line = (self.start, self.end);
                self.start = self.end;
                break line;
            }
        };
        self.line_no += 1;
        let bytes = trim_cr(&self.buf[line_start..line_end]);
        let line = std::str::from_utf8(bytes).map_err(|_| not_utf8(&self.label, self.line_no))?;
        Ok(Some((self.line_no, line)))
    }

    /// The bytes read but not yet consumed: whole lines first, then at
    /// most one partial line (the final unterminated line, once
    /// [`fill`](Self::fill) has reported the end of the input).
    pub(crate) fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Consumes the first `bytes` bytes of [`buffered`](Self::buffered),
    /// which hold `lines` whole lines.
    pub(crate) fn consume(&mut self, bytes: usize, lines: usize) {
        self.start += bytes;
        self.line_no += lines;
    }

    /// Reads more input, to be called only when
    /// [`buffered`](Self::buffered) holds no newline: the partial line
    /// moves to the buffer front, a line already longer than the cap
    /// fails, and the read appends to it. Returns `false` once the input
    /// is exhausted; `buffered()` is then the final line, without a
    /// newline (empty when the input ended with a newline).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Io`] on read failure and [`NetlistError::Syntax`]
    /// for an over-long line.
    pub(crate) fn fill(&mut self) -> Result<bool, NetlistError> {
        if !self.eof {
            self.refill()?;
        }
        Ok(!self.eof)
    }

    /// Compacts the partial line to the buffer front and reads more bytes.
    fn refill(&mut self) -> Result<(), NetlistError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        // `refill` only runs when `buf[..end]` holds a single partial line,
        // so its length is the current line length.
        if self.end > self.max_line_bytes {
            return Err(NetlistError::syntax(
                ParseContext::new(&self.label, self.line_no + 1),
                format!("line exceeds maximum length of {} bytes", self.max_line_bytes),
            ));
        }
        if self.end == self.buf.len() {
            // Doubling keeps the buffer within 2x of the longest line, and
            // the cap check above bounds that at 2 * max_line_bytes.
            let new_len = (self.buf.len() * 2).max(16);
            self.buf.resize(new_len, 0);
        }
        let n = self.reader.read(&mut self.buf[self.end..])?;
        if n == 0 {
            self.eof = true;
        } else {
            self.end += n;
        }
        Ok(())
    }
}

/// The error for line `line_no` of stream `label`, which is not UTF-8.
pub(crate) fn not_utf8(label: &str, line_no: usize) -> NetlistError {
    NetlistError::syntax(ParseContext::new(label, line_no), "line is not valid UTF-8")
}

fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    haystack.iter().position(|&b| b == needle)
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line {
        [rest @ .., b'\r'] => rest,
        _ => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(text: &str) -> Vec<(usize, String)> {
        let mut scanner = LineScanner::new(text.as_bytes(), "<test>");
        let mut out = Vec::new();
        while let Some((no, line)) = scanner.next_line().unwrap() {
            out.push((no, line.to_string()));
        }
        out
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(collect("").is_empty());
    }

    #[test]
    fn final_line_without_newline_is_yielded() {
        assert_eq!(collect("a\nb"), [(1, "a".into()), (2, "b".into())]);
    }

    #[test]
    fn crlf_is_stripped() {
        assert_eq!(collect("a\r\nb\r\n"), [(1, "a".into()), (2, "b".into())]);
    }

    #[test]
    fn blank_lines_keep_numbering() {
        assert_eq!(collect("a\n\nc\n"), [(1, "a".into()), (2, "".into()), (3, "c".into())]);
    }

    #[test]
    fn line_longer_than_initial_buffer_grows() {
        let long = "x".repeat(INITIAL_BUF_BYTES * 3);
        let text = format!("{long}\nshort\n");
        let lines = collect(&text);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].1.len(), INITIAL_BUF_BYTES * 3);
        assert_eq!(lines[1].1, "short");
    }

    #[test]
    fn oversized_line_is_rejected() {
        let text = format!("{}\n", "y".repeat(100));
        let mut scanner = LineScanner::with_max_line(text.as_bytes(), "<cap>", 64);
        let err = scanner.next_line().unwrap_err();
        assert!(err.to_string().contains("maximum length of 64 bytes"), "{err}");
        assert!(err.to_string().starts_with("<cap>:1"), "{err}");
    }

    #[test]
    fn line_exactly_at_cap_is_accepted() {
        let text = format!("{}\n", "z".repeat(64));
        let mut scanner = LineScanner::with_max_line(text.as_bytes(), "<cap>", 64);
        let (no, line) = scanner.next_line().unwrap().unwrap();
        assert_eq!((no, line.len()), (1, 64));
        assert!(scanner.next_line().unwrap().is_none());
    }

    #[test]
    fn invalid_utf8_is_rejected_with_line_number() {
        let bytes: &[u8] = b"ok\n\xff\xfe\n";
        let mut scanner = LineScanner::new(bytes, "<bin>");
        assert_eq!(scanner.next_line().unwrap().unwrap(), (1, "ok"));
        let err = scanner.next_line().unwrap_err();
        assert!(err.to_string().starts_with("<bin>:2"), "{err}");
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn dribbling_reader_matches_whole_buffer() {
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let text = "alpha\nbeta\r\n\ngamma";
        let mut scanner = LineScanner::new(OneByte(text.as_bytes()), "<dribble>");
        let mut out = Vec::new();
        while let Some((no, line)) = scanner.next_line().unwrap() {
            out.push((no, line.to_string()));
        }
        assert_eq!(out, collect(text));
    }

    #[test]
    fn line_no_tracks_last_returned_line() {
        let mut scanner = LineScanner::new("a\nb\n".as_bytes(), "<n>");
        assert_eq!(scanner.line_no(), 0);
        scanner.next_line().unwrap();
        assert_eq!(scanner.line_no(), 1);
        scanner.next_line().unwrap();
        scanner.next_line().unwrap();
        assert_eq!(scanner.line_no(), 2);
    }
}
