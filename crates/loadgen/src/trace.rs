//! The frozen JSON-lines trace-file format.
//!
//! One [`TraceRecord`] per line, rendered with the workspace's
//! deterministic serde (declaration-order fields), e.g.:
//!
//! ```text
//! {"v":1,"conn":0,"seq":0,"offset_us":0,"line":"{\"Stats\":{\"v\":1}}"}
//! ```
//!
//! The format is version-tagged (`v`, currently [`TRACE_VERSION`]) and
//! frozen by the golden at `tests/golden/loadgen_trace.jsonl`
//! (re-bless with `GTL_BLESS=1` after an intentional change). Raw
//! request-line files — like the serve goldens CI replays — are also
//! accepted via [`from_request_lines`], which wraps them as one
//! connection sending back-to-back.

use std::io::{BufRead, BufReader};
use std::path::Path;

use gtl_api::ApiError;
use serde::{Deserialize, Serialize};

/// Newest trace-file format version this build writes.
pub const TRACE_VERSION: u32 = 1;

/// One captured request line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Trace format version ([`TRACE_VERSION`]).
    pub v: u32,
    /// Connection the request arrived on (0-based, accept order).
    pub conn: u32,
    /// Sequence number within the connection (0-based).
    pub seq: u32,
    /// Arrival offset in microseconds since recording started.
    pub offset_us: u64,
    /// The raw request line, without the trailing newline.
    pub line: String,
}

impl TraceRecord {
    /// A version-stamped record.
    pub fn new(conn: u32, seq: u32, offset_us: u64, line: impl Into<String>) -> Self {
        Self { v: TRACE_VERSION, conn, seq, offset_us, line: line.into() }
    }
}

/// Renders one record as its trace-file line (no trailing newline).
pub fn render_line(record: &TraceRecord) -> String {
    serde::json::to_string(record)
}

/// Parses one trace-file line.
///
/// # Errors
///
/// Returns [`ApiError::BadRequest`] on malformed JSON or an unsupported
/// `v`.
pub fn parse_line(line: &str) -> Result<TraceRecord, ApiError> {
    let record: TraceRecord = serde::json::from_str(line)
        .map_err(|e| ApiError::bad_request(format!("malformed trace line: {e}")))?;
    if record.v != TRACE_VERSION {
        return Err(ApiError::bad_request(format!(
            "unsupported trace version {} (this build speaks {TRACE_VERSION})",
            record.v
        )));
    }
    Ok(record)
}

/// Reads a trace file; blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns [`ApiError::Io`] on read failure and [`ApiError::BadRequest`]
/// on malformed records.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceRecord>, ApiError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)
        .map_err(|e| ApiError::io(format!("open trace {}: {e}", path.display())))?;
    let mut records = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        records.push(parse_line(trimmed)?);
    }
    Ok(records)
}

/// Wraps a raw JSON-lines request file (e.g. the CI serve goldens) as a
/// single-connection trace: line `i` becomes `conn 0, seq i, offset 0`
/// (back-to-back replay).
pub fn from_request_lines(text: &str) -> Vec<TraceRecord> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| TraceRecord::new(0, i as u32, 0, line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(0, 0, 0, r#"{"Stats":{"v":1}}"#),
            TraceRecord::new(0, 1, 1250, r#"{"Find":{"v":5,"config":{"num_seeds":4}}}"#),
            TraceRecord::new(1, 0, 2000, r#"{"ListSessions":{"v":4}}"#),
        ]
    }

    #[test]
    fn roundtrip_through_render_and_parse() {
        for record in sample_records() {
            assert_eq!(parse_line(&render_line(&record)).unwrap(), record);
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("gtl_trace_file_roundtrip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let records = sample_records();
        // One rendered record per line, as the record proxy writes them.
        let body: String = records.iter().map(|r| render_line(r) + "\n").collect();
        std::fs::write(&path, body).unwrap();
        assert_eq!(read_trace(&path).unwrap(), records);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let dir = std::env::temp_dir().join(format!("gtl_trace_comments_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("comments.jsonl");
        let body = format!("# recorded by test\n\n{}\n", render_line(&sample_records()[0]));
        std::fs::write(&path, body).unwrap();
        assert_eq!(read_trace(&path).unwrap().len(), 1);
    }

    #[test]
    fn future_version_rejected() {
        let mut record = sample_records()[0].clone();
        record.v = TRACE_VERSION + 1;
        let err = parse_line(&render_line(&record)).unwrap_err();
        assert!(err.to_string().contains("unsupported trace version"), "{err}");
    }

    #[test]
    fn malformed_line_rejected() {
        assert!(parse_line("{not json").is_err());
        assert!(parse_line(r#"{"v":1}"#).is_err());
    }

    #[test]
    fn request_lines_become_one_connection() {
        let records = from_request_lines("{\"Stats\":{\"v\":1}}\n\n{\"Metrics\":{\"v\":2}}\n");
        assert_eq!(records.len(), 2);
        assert_eq!((records[0].conn, records[0].seq), (0, 0));
        assert_eq!((records[1].conn, records[1].seq), (0, 1));
        assert!(records.iter().all(|r| r.offset_us == 0 && r.v == TRACE_VERSION));
    }

    /// Re-bless with `GTL_BLESS=1` after an intentional format change.
    #[test]
    fn golden_trace_format_is_frozen() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/loadgen_trace.jsonl");
        let rendered: String = sample_records().iter().map(|r| render_line(r) + "\n").collect();
        if std::env::var_os("GTL_BLESS").is_some() {
            std::fs::write(path, &rendered).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(path)
            .expect("tests/golden/loadgen_trace.jsonl missing — run with GTL_BLESS=1 to create it");
        assert_eq!(
            rendered, golden,
            "trace format drifted from tests/golden/loadgen_trace.jsonl — if intentional, bump \
             TRACE_VERSION and re-bless with GTL_BLESS=1"
        );
        // And the frozen bytes must still parse.
        for line in golden.lines() {
            parse_line(line).unwrap();
        }
    }
}
