//! The serve path's parse is total: `serde::json::parse`, and the
//! classification plus session-generation lookup that the connection's
//! reader runs for every in-order line the cache does not answer
//! (`SessionDispatcher::cache_key` runs exactly that pair), return a
//! value for every input and never panic — on arbitrary bytes, every
//! truncation of the golden request lines, deep nesting and numbers
//! hundreds of digits long. A line that is not JSON keys as its own
//! bytes.

use std::path::{Path, PathBuf};

use gtl_api::{LoadNetlistRequest, Session, SessionDispatcher};
use proptest::prelude::*;

/// Nesting depth the tests reach: four times `serde::json`'s cap of 128.
const DEEP: usize = 4 * 128;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Every line of every golden request file.
fn golden_lines() -> Vec<String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            name.contains("request") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(files.len() >= 3, "golden request files missing: {files:?}");
    files
        .iter()
        .flat_map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            text.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect::<Vec<_>>()
        })
        .collect()
}

/// Runs `line` through the parser and the reader's key: each returns,
/// and a line the parser rejects keys as its own bytes.
fn check(dispatcher: &SessionDispatcher<'_>, line: &str) {
    let parsed = serde::json::parse(line);
    let key = dispatcher.cache_key(line);
    if parsed.is_err() {
        assert_eq!(&*key, line.as_bytes(), "an unparseable line must key as itself");
    }
    let _ = dispatcher.tenant(line);
}

/// The default session on the golden fixture, with session `alt` loaded
/// as the golden session scripts load it, so a line addressing `alt`
/// resolves through the registry.
fn with_dispatcher(test: impl FnOnce(&SessionDispatcher<'_>)) {
    let fixture = golden_dir().join("two_cliques.hgr");
    let session = Session::builder().load(fixture.to_str().unwrap()).unwrap().build().unwrap();
    let dispatcher = SessionDispatcher::new(&session, 0, 0, Some(golden_dir()));
    dispatcher.load(&LoadNetlistRequest::new("alt", "two_cliques.hgr")).unwrap();
    test(&dispatcher);
}

/// The largest char boundary of `line` at or below `at`.
fn boundary(line: &str, at: usize) -> usize {
    (0..=at.min(line.len())).rev().find(|&i| line.is_char_boundary(i)).unwrap_or(0)
}

#[test]
fn every_truncation_of_every_golden_request_line() {
    let lines = golden_lines();
    with_dispatcher(|dispatcher| {
        for line in &lines {
            check(dispatcher, line);
            for cut in 0..line.len() {
                let at = boundary(line, cut);
                check(dispatcher, &line[..at]);
                check(dispatcher, &line[at..]);
            }
        }
    });
}

#[test]
fn nesting_past_the_depth_cap() {
    let lines = golden_lines();
    with_dispatcher(|dispatcher| {
        for depth in (1..=DEEP).step_by(7).chain([127, 128, 129, DEEP]) {
            let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
            for nested in [&arrays, &objects, &arrays[..depth]] {
                check(dispatcher, nested);
                // Nested where a request carries its config.
                check(dispatcher, &format!("{{\"Find\":{{\"v\":5,\"config\":{nested}}}}}"));
                for line in &lines {
                    if let Some(at) = line.find("\"v\":") {
                        check(
                            dispatcher,
                            &format!("{}\"x\":{nested},{}", &line[..at], &line[at..]),
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn numbers_hundreds_of_digits_long() {
    let digits = "9".repeat(400);
    let huge = [
        digits.clone(),
        format!("-{digits}"),
        format!("1e{digits}"),
        format!("1e-{digits}"),
        format!("-1E+{digits}"),
        format!("0.{digits}"),
        format!("{digits}.{digits}e{digits}"),
    ];
    let lines = golden_lines();
    with_dispatcher(|dispatcher| {
        for number in &huge {
            check(dispatcher, number);
            for line in &lines {
                // Each run of digits in the line (every numeric field,
                // the version included) replaced by the huge number.
                let bytes = line.as_bytes();
                let mut start = 0;
                while start < bytes.len() {
                    if !bytes[start].is_ascii_digit() {
                        start += 1;
                        continue;
                    }
                    let end = (start..bytes.len())
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(bytes.len());
                    check(dispatcher, &format!("{}{number}{}", &line[..start], &line[end..]));
                    start = end;
                }
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_parse_and_key_without_panicking(
        bytes in proptest::collection::vec(0u8..=255, 0..160),
        (pick, at) in (0usize..64, 0usize..1024),
    ) {
        let noise = String::from_utf8_lossy(&bytes).into_owned();
        let lines = golden_lines();
        let line = &lines[pick % lines.len()];
        let at = boundary(line, at);
        with_dispatcher(|dispatcher| {
            check(dispatcher, &noise);
            // The noise spliced into a golden line, and in place of its
            // tail.
            check(dispatcher, &format!("{}{noise}{}", &line[..at], &line[at..]));
            check(dispatcher, &format!("{}{noise}", &line[..at]));
        });
    }
}
