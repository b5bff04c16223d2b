//! hMETIS-style plain hypergraph format (`.hgr`).
//!
//! The format is a de-facto interchange standard in partitioning research
//! and is handy for fixtures: the first non-comment line holds
//! `<num_nets> <num_cells>`, and each following line lists the 1-based cell
//! indices of one net. Lines starting with `%` are comments.
//!
//! # Reading
//!
//! [`parse`] streams the file through the bounded buffer of a
//! [`LineScanner`]. The header comes from the scanner's line API; the body
//! is read in one byte-level pass over the scanner's buffer, which counts
//! lines itself and appends each pin, once range-checked, straight to the
//! netlist builder: no per-line string, token or pin list in between. The
//! pass accepts exactly what reading each line as UTF-8 text, trimming it
//! and splitting it on whitespace into `usize` pins would: Unicode
//! whitespace separates, a pin may carry a leading `+`, blank and `%`
//! lines are skipped, CRLF line ends are fine. Its errors, line numbers
//! included, are the ones that reading reports.
//!
//! # Example
//!
//! ```
//! use gtl_netlist::hgr;
//!
//! let text = "% tiny\n2 3\n1 2\n2 3\n";
//! let nl = hgr::parse_str(text)?;
//! assert_eq!(nl.num_cells(), 3);
//! assert_eq!(nl.num_nets(), 2);
//! let out = hgr::to_string(&nl);
//! let again = hgr::parse_str(&out)?;
//! assert_eq!(again.num_pins(), nl.num_pins());
//! # Ok::<(), gtl_netlist::NetlistError>(())
//! ```

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::path::Path;

use crate::stream::{not_utf8, LineScanner, DEFAULT_MAX_LINE_BYTES};
use crate::{CellId, Netlist, NetlistBuilder, NetlistError, ParseContext};

/// The most nets a header may reserve room for before its body backs
/// them. Every design this workspace generates fits (the million-cell
/// `gtl synth` design has 2.2M nets), and reserving up front parses a
/// 100k-cell design 6–12% faster than growing (2-vCPU VM); a hostile
/// header costs at most 16 MiB of address space that nothing touches.
const MAX_RESERVED_NETS: usize = 1 << 22;

/// Where the body pass stops accumulating a pin's digits: past the `u32`
/// id space every value is out of range, and clamping there keeps
/// `value * 10 + 9` far from overflowing `u64`.
const PIN_CEILING: u64 = 1 << 32;

/// Parses a `.hgr` hypergraph from a reader.
///
/// Streams through a bounded buffer (see [`crate::stream`]); the whole
/// file is never materialized, so multi-million-cell designs parse in
/// memory proportional to the netlist itself, not the file. The net lines
/// are read in one pass over the raw bytes (see the [module
/// docs](self)). A mut reference to a reader can be passed
/// (`&mut reader`) thanks to the blanket `Read for &mut R` impl.
///
/// # Errors
///
/// Returns [`NetlistError::Syntax`] on malformed numbers, a header count
/// beyond the `u32` id space, a cell count the allocator refuses, a line
/// that is not UTF-8, or out-of-range pins, and
/// [`NetlistError::CountMismatch`] if the header count disagrees with the
/// body.
pub fn parse<R: Read>(reader: R, label: &str) -> Result<Netlist, NetlistError> {
    parse_with(reader, label, DEFAULT_MAX_LINE_BYTES)
}

/// [`parse`] with an explicit per-line byte cap.
///
/// A line longer than `max_line_bytes` fails with
/// [`NetlistError::Syntax`] instead of growing the scan buffer — useful
/// when ingesting untrusted files.
///
/// # Errors
///
/// Same as [`parse`], plus the over-long-line rejection.
pub fn parse_with<R: Read>(
    reader: R,
    label: &str,
    max_line_bytes: usize,
) -> Result<Netlist, NetlistError> {
    let mut scanner = LineScanner::with_max_line(reader, label, max_line_bytes);
    let (num_nets, num_cells) = parse_header(&mut scanner, label)?;

    // The counts are only claims until the body backs them. The net count
    // sizes the net buffers only up to `MAX_RESERVED_NETS`; past that they
    // grow as records arrive. The cell table and, at the end, the
    // reverse CSR are allocated fallibly, so a cell count no memory backs
    // is an error, not an abort.
    let no_memory = |line| {
        NetlistError::syntax(
            ParseContext::new(label, line),
            format!("cell count {num_cells} does not fit in memory"),
        )
    };
    let mut builder =
        NetlistBuilder::try_with_anonymous_cells(num_cells, num_nets.min(MAX_RESERVED_NETS))
            .ok_or_else(|| no_memory(scanner.line_no()))?;

    let mut body = Body { label, num_nets, num_cells: num_cells as u64, nets_read: 0 };
    let mut at_eof = false;
    loop {
        let first_line = scanner.line_no() + 1;
        let (bytes, lines) = body.scan(scanner.buffered(), at_eof, first_line, &mut builder)?;
        if at_eof {
            break;
        }
        scanner.consume(bytes, lines);
        at_eof = !scanner.fill()?;
    }
    if body.nets_read != num_nets {
        return Err(NetlistError::CountMismatch {
            what: "nets".into(),
            declared: num_nets,
            found: body.nets_read,
        });
    }
    // The reverse direction's arrays are sized by the cell count too.
    builder.try_finish().ok_or_else(|| no_memory(scanner.line_no()))
}

/// Reads the header, the first line that is neither blank nor a `%`
/// comment, as `(num_nets, num_cells)`.
fn parse_header<R: Read>(
    scanner: &mut LineScanner<R>,
    label: &str,
) -> Result<(usize, usize), NetlistError> {
    while let Some((no, line)) = scanner.next_line()? {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let num_nets = parse_count(parts.next(), label, no, "net count")?;
        let num_cells = parse_count(parts.next(), label, no, "cell count")?;
        if let Some(fmt) = parts.next() {
            if fmt != "0" {
                return Err(NetlistError::syntax(
                    ParseContext::new(label, no),
                    format!("weighted hgr format `{fmt}` is not supported"),
                ));
            }
        }
        return Ok((num_nets, num_cells));
    }
    Err(NetlistError::syntax(ParseContext::new(label, 1), "empty hgr file"))
}

/// The net lines' reading state.
struct Body<'a> {
    label: &'a str,
    num_nets: usize,
    num_cells: u64,
    nets_read: usize,
}

/// Why a net line leaves the fast path.
enum Slow {
    /// The line is a `%` comment.
    Comment,
    /// The line is one net more than the header declared.
    ExtraNet,
    /// The token starting at this buffer offset is not a pin in range (or
    /// the line is not UTF-8, which its check reports first).
    Pin(usize),
}

impl Body<'_> {
    /// Reads the lines at the front of `bytes`, the first numbered
    /// `first_line`, and returns the bytes and lines it consumed. A line
    /// that `bytes` ends inside is left unread, its pins taken back out of
    /// the builder, unless `at_eof` says it is the file's last line.
    fn scan(
        &mut self,
        bytes: &[u8],
        at_eof: bool,
        first_line: usize,
        builder: &mut NetlistBuilder,
    ) -> Result<(usize, usize), NetlistError> {
        let mut pos = 0;
        let mut lines = 0;
        while pos < bytes.len() {
            match self.line(bytes, pos, at_eof, builder) {
                Ok(Some(next)) => {
                    pos = next;
                    lines += 1;
                }
                Ok(None) => {
                    builder.discard_open_net();
                    break;
                }
                Err(e) => return Err(self.error(e, first_line + lines)),
            }
        }
        Ok((pos, lines))
    }

    /// Reads the line starting at `bytes[start]`: pushes its pins and
    /// closes its net, or skips it when blank. Returns the offset past its
    /// newline, or `None` when `bytes` ends inside it.
    fn line(
        &mut self,
        bytes: &[u8],
        start: usize,
        at_eof: bool,
        builder: &mut NetlistBuilder,
    ) -> Result<Option<usize>, LineError> {
        let mut i = start;
        let mut pins = 0usize;
        loop {
            // Separators, up to the next token or the end of the line.
            let lead = loop {
                let Some(&b) = bytes.get(i) else {
                    if !at_eof {
                        return Ok(None);
                    }
                    self.close(pins, builder);
                    return Ok(Some(i));
                };
                if b == b'\n' {
                    self.close(pins, builder);
                    return Ok(Some(i + 1));
                }
                match space_width(bytes, i) {
                    Some(width) => i += width,
                    None => break b,
                }
            };
            if pins == 0 {
                if lead == b'%' {
                    return self.slow(Slow::Comment, bytes, start, i, at_eof);
                }
                if self.nets_read == self.num_nets {
                    return self.slow(Slow::ExtraNet, bytes, start, i, at_eof);
                }
            }
            // A token: a pin is an optional `+` and decimal digits.
            let token = i;
            if lead == b'+' {
                i += 1;
            }
            let mut value = 0u64;
            while let Some(&b) = bytes.get(i) {
                let digit = b.wrapping_sub(b'0');
                if digit > 9 {
                    break;
                }
                value = (value * 10 + u64::from(digit)).min(PIN_CEILING);
                i += 1;
            }
            // ... ending at a separator, the line's end or the input's end.
            match bytes.get(i) {
                None if !at_eof => return Ok(None),
                None => {}
                Some(_) if space_width(bytes, i).is_some() => {}
                Some(_) => return self.slow(Slow::Pin(token), bytes, start, i, at_eof),
            }
            // No digits read leaves `value` at 0, which is out of range.
            if value == 0 || value > self.num_cells {
                return self.slow(Slow::Pin(token), bytes, start, i, at_eof);
            }
            // In range, so `value - 1` fits the `u32` id.
            builder.push_pin(CellId::from((value - 1) as u32));
            pins += 1;
        }
    }

    /// Ends a line read in full: a line with pins is the next net.
    fn close(&mut self, pins: usize, builder: &mut NetlistBuilder) {
        if pins > 0 {
            builder.close_net();
            self.nets_read += 1;
        }
    }

    /// Finishes a line the fast path left at `bytes[from]`. Whatever the
    /// reason, the line must first be whole and then UTF-8, as it must be
    /// before a line-by-line reading looks at its tokens; a comment is
    /// then skipped and anything else is the line's error.
    fn slow(
        &self,
        why: Slow,
        bytes: &[u8],
        start: usize,
        from: usize,
        at_eof: bool,
    ) -> Result<Option<usize>, LineError> {
        let (end, next) = match bytes[from..].iter().position(|&b| b == b'\n') {
            Some(k) => (from + k, from + k + 1),
            None if at_eof => (bytes.len(), bytes.len()),
            None => return Ok(None),
        };
        let Ok(line) = std::str::from_utf8(&bytes[start..end]) else {
            return Err(LineError::NotUtf8);
        };
        match why {
            Slow::Comment => Ok(Some(next)),
            Slow::ExtraNet => Err(LineError::ExtraNet),
            Slow::Pin(token) => {
                let rest = line.get(token - start..).unwrap_or_default();
                let token = rest.split_whitespace().next().unwrap_or_default();
                Err(LineError::Pin(token.to_string()))
            }
        }
    }

    /// The error of line `line`.
    fn error(&self, e: LineError, line: usize) -> NetlistError {
        match e {
            LineError::NotUtf8 => not_utf8(self.label, line),
            LineError::ExtraNet => NetlistError::CountMismatch {
                what: "nets".into(),
                declared: self.num_nets,
                found: self.nets_read + 1,
            },
            LineError::Pin(token) => match parse_num(Some(&token), self.label, line, "pin") {
                Ok(idx) => NetlistError::syntax(
                    ParseContext::new(self.label, line),
                    format!("pin index {idx} out of range 1..={}", self.num_cells),
                ),
                Err(e) => e,
            },
        }
    }
}

/// ASCII whitespace as [`char::is_whitespace`] has it, newline included.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// The width of the whitespace character starting at `bytes[i]`, if one
/// does: ASCII or not, a separator. Anything else there (another
/// character, a character the buffer cuts, bytes that are not UTF-8)
/// belongs to a token.
fn space_width(bytes: &[u8], i: usize) -> Option<usize> {
    let width = match bytes.get(i)? {
        b if is_space(*b) => return Some(1),
        0xc2..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => return None,
    };
    let c = std::str::from_utf8(bytes.get(i..i + width)?).ok()?;
    c.chars().all(char::is_whitespace).then_some(width)
}

/// A net line's error, before its line number is known.
enum LineError {
    /// The line is not UTF-8.
    NotUtf8,
    /// The line is one net more than the header declared.
    ExtraNet,
    /// This token is not a pin in range.
    Pin(String),
}

/// Parses a `.hgr` hypergraph from a string.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_str(text: &str) -> Result<Netlist, NetlistError> {
    parse(text.as_bytes(), "<string>")
}

/// Reads a `.hgr` file from disk.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on I/O failure plus everything [`parse`]
/// can return.
pub fn read(path: impl AsRef<Path>) -> Result<Netlist, NetlistError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    parse(file, &path.display().to_string())
}

/// Serializes a netlist to `.hgr` text.
///
/// Cell names and areas are not representable in this format and are
/// dropped; a round-trip preserves only connectivity.
pub fn to_string(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", netlist.num_nets(), netlist.num_cells());
    for net in netlist.nets() {
        let mut first = true;
        for &cell in netlist.net_cells(net) {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{}", cell.index() + 1);
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Writes a netlist as `.hgr` to disk.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on I/O failure.
pub fn write(netlist: &Netlist, path: impl AsRef<Path>) -> Result<(), NetlistError> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_string(netlist).as_bytes())?;
    Ok(())
}

/// A header count, rejected before anything is sized from it when its ids
/// would not fit the `u32` inside `CellId` and `NetId`.
fn parse_count(
    tok: Option<&str>,
    label: &str,
    line: usize,
    what: &str,
) -> Result<usize, NetlistError> {
    let count = parse_num(tok, label, line, what)?;
    if count > u32::MAX as usize {
        return Err(NetlistError::syntax(
            ParseContext::new(label, line),
            format!("{what} {count} exceeds the u32 id space"),
        ));
    }
    Ok(count)
}

fn parse_num(
    tok: Option<&str>,
    label: &str,
    line: usize,
    what: &str,
) -> Result<usize, NetlistError> {
    let tok = tok.ok_or_else(|| {
        NetlistError::syntax(ParseContext::new(label, line), format!("missing {what}"))
    })?;
    tok.parse().map_err(|_| {
        NetlistError::syntax(ParseContext::new(label, line), format!("invalid {what} `{tok}`"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let nl = parse_str("3 4\n1 2\n2 3 4\n1 4\n").unwrap();
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.num_pins(), 7);
        nl.validate().unwrap();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let nl = parse_str("% header\n\n2 2\n% net one\n1 2\n\n1 2\n").unwrap();
        assert_eq!(nl.num_nets(), 2);
    }

    #[test]
    fn count_mismatch_too_few() {
        let err = parse_str("2 2\n1 2\n").unwrap_err();
        assert!(matches!(err, NetlistError::CountMismatch { declared: 2, found: 1, .. }));
    }

    #[test]
    fn count_mismatch_too_many() {
        let err = parse_str("1 2\n1 2\n1 2\n").unwrap_err();
        assert!(matches!(err, NetlistError::CountMismatch { .. }));
    }

    #[test]
    fn out_of_range_pin() {
        let err = parse_str("1 2\n1 3\n").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn zero_pin_rejected() {
        let err = parse_str("1 2\n0 1\n").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn empty_file_rejected() {
        assert!(parse_str("").is_err());
        assert!(parse_str("% only comments\n").is_err());
    }

    #[test]
    fn weighted_format_rejected() {
        let err = parse_str("1 2 11\n1 2\n").unwrap_err();
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn truncated_body_reports_count_mismatch() {
        // Simulates a file cut off mid-transfer: header promises 3 nets
        // but the stream ends after one.
        let err = parse_str("3 4\n1 2\n").unwrap_err();
        assert!(matches!(err, NetlistError::CountMismatch { declared: 3, found: 1, .. }));
    }

    #[test]
    fn unterminated_final_net_line_still_parses() {
        let nl = parse_str("2 3\n1 2\n2 3").unwrap();
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_pins(), 4);
    }

    #[test]
    fn oversized_line_rejected_with_cap() {
        let mut text = String::from("1 64\n");
        for i in 1..=64 {
            text.push_str(&format!("{i} "));
        }
        text.push('\n');
        let err = parse_with(text.as_bytes(), "<capped>", 32).unwrap_err();
        assert!(err.to_string().contains("maximum length"), "{err}");
        // The same input parses fine without the tight cap.
        assert!(parse_str(&text).is_ok());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let bytes: &[u8] = b"1 2\n1 \xff2\n";
        let err = parse(bytes, "<bin>").unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn roundtrip() {
        let nl = parse_str("2 3\n1 2 3\n2 3\n").unwrap();
        let text = to_string(&nl);
        let again = parse_str(&text).unwrap();
        assert_eq!(again.num_cells(), nl.num_cells());
        assert_eq!(again.num_nets(), nl.num_nets());
        assert_eq!(again.num_pins(), nl.num_pins());
    }

    #[test]
    fn file_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("gtl_hgr_file_roundtrip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.hgr");
        let nl = parse_str("1 2\n1 2\n").unwrap();
        write(&nl, &path).unwrap();
        let again = read(&path).unwrap();
        assert_eq!(again.num_nets(), 1);
    }

    /// The reader the byte-level body pass replaced, verbatim: every net
    /// line through `LineScanner::next_line`, `trim`, `split_whitespace`
    /// and `usize::from_str`, its pins through `add_anonymous_net`. The
    /// oracle of `hgr_reader_matches_reference` and `hgr_reader_is_total`.
    mod reference {
        use super::super::{parse_count, parse_num, MAX_RESERVED_NETS};
        use crate::stream::LineScanner;
        use crate::{CellId, Netlist, NetlistBuilder, NetlistError, ParseContext};
        use std::io::Read;

        pub fn parse_with<R: Read>(
            reader: R,
            label: &str,
            max_line_bytes: usize,
        ) -> Result<Netlist, NetlistError> {
            let mut scanner = LineScanner::with_max_line(reader, label, max_line_bytes);

            let (num_nets, num_cells) = loop {
                match scanner.next_line()? {
                    Some((no, line)) => {
                        let trimmed = line.trim();
                        if trimmed.is_empty() || trimmed.starts_with('%') {
                            continue;
                        }
                        let mut parts = trimmed.split_whitespace();
                        let num_nets = parse_count(parts.next(), label, no, "net count")?;
                        let num_cells = parse_count(parts.next(), label, no, "cell count")?;
                        if let Some(fmt) = parts.next() {
                            if fmt != "0" {
                                return Err(NetlistError::syntax(
                                    ParseContext::new(label, no),
                                    format!("weighted hgr format `{fmt}` is not supported"),
                                ));
                            }
                        }
                        break (num_nets, num_cells);
                    }
                    None => {
                        return Err(NetlistError::syntax(
                            ParseContext::new(label, 1),
                            "empty hgr file",
                        ))
                    }
                }
            };

            // The net count is only a claim until the body backs it, so it sizes
            // the net buffers only up to `MAX_RESERVED_NETS`; past that they grow
            // as records arrive.
            let mut builder =
                NetlistBuilder::with_capacity(num_cells, num_nets.min(MAX_RESERVED_NETS));
            builder.add_anonymous_cells(num_cells);

            let mut nets_read = 0usize;
            let mut pins: Vec<CellId> = Vec::new();
            while let Some((no, line)) = scanner.next_line()? {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                if nets_read == num_nets {
                    return Err(NetlistError::CountMismatch {
                        what: "nets".into(),
                        declared: num_nets,
                        found: nets_read + 1,
                    });
                }
                pins.clear();
                for tok in trimmed.split_whitespace() {
                    let idx: usize = parse_num(Some(tok), label, no, "pin")?;
                    if idx == 0 || idx > num_cells {
                        return Err(NetlistError::syntax(
                            ParseContext::new(label, no),
                            format!("pin index {idx} out of range 1..={num_cells}"),
                        ));
                    }
                    pins.push(CellId::new(idx - 1));
                }
                builder.add_anonymous_net(pins.iter().copied());
                nets_read += 1;
            }
            if nets_read != num_nets {
                return Err(NetlistError::CountMismatch {
                    what: "nets".into(),
                    declared: num_nets,
                    found: nets_read,
                });
            }
            Ok(builder.finish())
        }
    }

    /// A reader handing out at most `chunk` bytes per `read`.
    struct Dribble<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.data.len().min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Asserts that `bytes` reads as the reference reads it, whole and
    /// dribbled a byte at a time, under a `cap`-byte line cap: the same
    /// netlist, or an error with the same text.
    fn assert_reads_like_reference(bytes: &[u8], cap: usize) {
        for chunk in [usize::MAX, 1] {
            let got = parse_with(Dribble { data: bytes, chunk }, "<t>", cap);
            let want = reference::parse_with(Dribble { data: bytes, chunk }, "<t>", cap);
            let case = format!("{:?} (cap {cap}, chunk {chunk})", String::from_utf8_lossy(bytes));
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}")
                }
                (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{case}"),
                (got, want) => panic!("{case}: got {got:?}, want {want:?}"),
            }
        }
    }

    /// SplitMix64: the draws that mutate a generated design.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Separators: ASCII and Unicode whitespace, CR inside a line.
    const SEPARATORS: &[&str] = &[
        " ",
        " ",
        " ",
        "  ",
        "\t",
        "\u{3000}",
        "\u{a0}",
        " \u{3000} ",
        "\u{b}",
        "\u{c}",
        "\r",
        "\u{85}",
    ];

    /// Lines the reader must skip.
    const SKIPPED: &[&str] = &["", "  ", "\t\r", "\u{3000}", "% note", "  %x 1 2", "%\u{a0}é", "%"];

    /// A token that is not a plain pin: most are errors, some are pins.
    fn odd_pin(draws: &mut Draws, cells: usize, pin: usize) -> String {
        match draws.below(12) {
            0 => format!("+{pin}"),
            1 => format!("00{pin}"),
            2 => "0".into(),
            3 => "+0".into(),
            4 => (cells + 1 + draws.below(3)).to_string(),
            5 => "1234567890123456789012345".into(),
            6 => "18446744073709551616".into(),
            7 => format!("-{pin}"),
            8 => ["+", "++1", "%", "1%"][draws.below(4)].into(),
            9 => format!("{pin}x"),
            10 => "\u{ff11}".into(),
            _ => format!("{pin}\u{200b}"),
        }
    }

    /// A `.hgr` text of a random small design, mutated: separators, line
    /// ends, skipped lines, pin spellings, header counts, invalid UTF-8,
    /// the final newline and truncation, each drawn from `seed`.
    fn mutated_design(seed: u64) -> Vec<u8> {
        let mut draws = Draws(seed);
        let cells = 1 + draws.below(12);
        let nets = draws.below(8);
        // How often a pin is spelled oddly: never, one in 40, one in 6.
        let odd = [0, 40, 6][draws.below(3)];
        let mut text = String::new();
        let declared = match draws.below(8) {
            0 => nets + 1,
            1 => nets.saturating_sub(1),
            _ => nets,
        };
        let sep = draws.pick(SEPARATORS);
        text.push_str(&format!("{declared}{sep}{cells}"));
        match draws.below(20) {
            0 => text.push_str(" 0"),
            1 => text.push_str(" 1"),
            _ => {}
        }
        end_line(&mut text, &mut draws);
        for _ in 0..nets {
            if draws.below(6) == 0 {
                text.push_str(draws.pick(SEPARATORS));
            }
            for k in 0..1 + draws.below(5) {
                if k > 0 {
                    text.push_str(draws.pick(SEPARATORS));
                }
                let pin = 1 + draws.below(cells);
                if odd > 0 && draws.below(odd) == 0 {
                    text.push_str(&odd_pin(&mut draws, cells, pin));
                } else {
                    text.push_str(&pin.to_string());
                }
            }
            if draws.below(6) == 0 {
                text.push_str(draws.pick(SEPARATORS));
            }
            end_line(&mut text, &mut draws);
        }
        if draws.below(4) == 0 {
            text.pop();
        }
        let mut bytes = text.into_bytes();
        if draws.below(5) == 0 {
            let bad: &[&[u8]] = &[b"\xff", b"\xc3", b"\xe3\x80", b"\xed\xa0\x80", b"\xc0\xaf"];
            let at = draws.below(bytes.len() + 1);
            bytes.splice(at..at, bad[draws.below(bad.len())].iter().copied());
        }
        if draws.below(4) == 0 {
            bytes.truncate(draws.below(bytes.len() + 1));
        }
        bytes
    }

    /// Ends a generated line, CRLF or LF, sometimes followed by a line the
    /// reader skips.
    fn end_line(text: &mut String, draws: &mut Draws) {
        text.push_str(if draws.below(4) == 0 { "\r\n" } else { "\n" });
        if draws.below(5) == 0 {
            text.push_str(draws.pick(SKIPPED));
            text.push('\n');
        }
    }

    /// Line caps around the generated lines' lengths, and the default.
    const CAPS: &[usize] = &[8, 9, 10, 12, 16, 24, 40, DEFAULT_MAX_LINE_BYTES];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The byte-level pass reads every mutated design as the
        /// line-by-line reference does, whole or dribbled, under any cap.
        #[test]
        fn hgr_reader_matches_reference(seed in 0u64..u64::MAX, cap in 0usize..CAPS.len()) {
            assert_reads_like_reference(&mutated_design(seed), CAPS[cap]);
        }

        /// Arbitrary bytes never panic the reader, and it answers them as
        /// the reference does: raw bytes, and hgr-like bytes after a small
        /// header (raw bytes almost never form a header, and the header's
        /// digit runs stay short, so no case asks for a large cell table).
        #[test]
        fn hgr_reader_is_total(
            raw in proptest::collection::vec(0u8..=255, 0..48),
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..64),
            cap in 0usize..CAPS.len(),
        ) {
            assert_reads_like_reference(&raw, CAPS[cap]);
            let mut text = b"3 5\n".to_vec();
            text.extend(picks.iter().map(|&k| ALPHABET[k]));
            assert_reads_like_reference(&text, CAPS[cap]);
        }
    }

    /// The bytes of `hgr_reader_is_total`'s hgr-like bodies.
    const ALPHABET: &[u8] = b"0123456789 \n\n\n\r\t%+-x\x0b\x80\xa0\xc2\xe3\xff";
}
