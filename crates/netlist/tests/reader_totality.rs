//! The Bookshelf and Verilog readers are total: every input returns `Ok`
//! or `Err`, never a panic, and whatever they accept is a well-formed
//! netlist. The inputs are every truncation of a valid sample, the
//! sample with each of its numbers swapped for a hostile one (`1e309`,
//! `-0`, `NaN`, `inf`, a 20-digit integer), and arbitrary text: raw
//! bytes, and soups of each format's own tokens, which reach far deeper
//! into a reader than raw bytes do. The Verilog sample also gets bus
//! bounds that fit `i64` but would expand to millions or billions of
//! nets, which the reader's bus caps turn into prompt errors. All four
//! Bookshelf files go through `bookshelf::parse_parts`; the `.hgr`
//! reader's suite is `hgr_reader_is_total` in `src/hgr.rs`.

use std::ops::Range;

use gtl_netlist::{bookshelf, verilog};
use proptest::prelude::*;

const NODES: &str = "UCLA nodes 1.0\n# comment\nNumNodes : 4\nNumTerminals : 1\n  a 2 1\n  b 3 1.5\n  c 1 1\n  p0 1 1 terminal\n";
const NETS: &str = "UCLA nets 1.0\nNumNets : 3\nNumPins : 7\nNetDegree : 3 sig\n  a I : 0.5 0\n  b O : -0.5 0\n  p0 I\nNetDegree : 2\n  a O : 0 0\n  c I : 0 0\nNetDegree : 2 last # trailing\n  b B\n  c I\n";
const PL: &str = "UCLA pl 1.0\na 10 20 : N\nb 30 40 : N\nc 5 7.5 : N\np0 0 0 : N /FIXED\n";
const SCL: &str = "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 100\nEnd\nCoreRow Horizontal\n  Coordinate : 12\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 100\nEnd\n";

const VERILOG: &str = "// two gates and a bus\nmodule top (a, b, y, d);\n  input a, b;\n  output y;\n  wire w;\n  wire [3:0] d;\n  /* block\n     comment */\n  NAND2 u1 (.A(a), .B(b), .Y(w));\n  INV u2 (.A(w), .Y(y));\n  AND2 u3 (d[0], d[3], d[1]);\n  assign y = w;\nendmodule\n";

/// The numbers a swap writes over a sample's numbers: overflowing to
/// infinity, negative zero, not a number, infinity, and wider than `u64`.
const HOSTILE_NUMBERS: [&str; 5] = ["1e309", "-0", "NaN", "inf", "12345678901234567890"];

/// The words of the Bookshelf soups.
const BOOKSHELF_WORDS: &str = "UCLA nodes nets 1.0 NumNodes NumTerminals NumNets NumPins \
    NetDegree NumRows terminal a b p0 I O B /FIXED CoreRow Horizontal End Coordinate Height \
    Sitewidth SubrowOrigin NumSites : #";

/// Valid bus bounds past the Verilog reader's caps (65,536 nets per
/// declaration, 262,144 per module), and the largest bound within them.
const HUGE_BOUNDS: [&str; 5] = ["65535", "65536", "1999999", "2147483647", "9223372036854775807"];

/// The words of the Verilog soups, huge bus bounds among them.
const VERILOG_WORDS: &str = "module endmodule input output inout wire assign top a b w d u1 \
    INV NAND2 ( ) [ ] : ; , . .A = // /* */ - 1999999 2147483647 9223372036854775807";

/// The numbers a soup picks besides the hostile ones.
const PLAIN_NUMBERS: [&str; 6] = ["0", "1", "2", "3", "0.5", "-1"];

/// Parses the four Bookshelf files; whatever parses must validate.
fn check_bookshelf(files: [&str; 4]) {
    let parsed = bookshelf::parse_parts(files[0], files[1], Some(files[2]), Some(files[3]));
    if let Ok(design) = parsed {
        design.netlist.validate().unwrap();
    }
}

/// Parses one Verilog module; whatever parses must validate.
fn check_verilog(source: &str) {
    if let Ok(module) = verilog::parse_str(source) {
        module.netlist.validate().unwrap();
    }
}

/// The Bookshelf sample with file `k` replaced by `text`.
fn with_file(k: usize, text: &str) -> [&str; 4] {
    let mut files = [NODES, NETS, PL, SCL];
    files[k] = text;
    files
}

/// The byte ranges of the numbers in `text`: maximal runs of digits and
/// `.`, with a `-` in front, that do not continue an identifier.
fn number_spans(text: &str) -> Vec<Range<usize>> {
    let bytes = text.as_bytes();
    let in_number = |b: u8| b.is_ascii_digit() || b == b'.';
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit()
            || (bytes[i] == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
        let after_ident = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if starts && !after_ident {
            let end = (i + 1..bytes.len()).find(|&j| !in_number(bytes[j])).unwrap_or(bytes.len());
            spans.push(i..end);
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// `text` cut at every char boundary.
fn truncations(text: &str) -> impl Iterator<Item = &str> {
    (0..text.len()).filter(|&cut| text.is_char_boundary(cut)).map(move |cut| &text[..cut])
}

/// `text` with each of its numbers, in turn, replaced by each of
/// `numbers`.
fn swaps(text: &str, numbers: &[&str]) -> Vec<String> {
    let spans = number_spans(text);
    assert!(spans.len() >= 3, "a sample without numbers: {text}");
    spans
        .iter()
        .flat_map(|span| {
            numbers
                .iter()
                .map(move |number| format!("{}{number}{}", &text[..span.start], &text[span.end..]))
        })
        .collect()
}

/// The picked tokens, space-separated: `words`, the plain and hostile
/// numbers, and line breaks. The spaces keep neighbouring picks from
/// merging into a longer number.
fn soup(words: &str, picks: &[usize]) -> String {
    let tokens: Vec<&str> = words
        .split_whitespace()
        .chain(PLAIN_NUMBERS)
        .chain(HOSTILE_NUMBERS)
        .chain(["\n"; 4])
        .collect();
    picks.iter().map(|&k| tokens[k % tokens.len()]).collect::<Vec<_>>().join(" ")
}

#[test]
fn the_samples_parse() {
    let design = bookshelf::parse_parts(NODES, NETS, Some(PL), Some(SCL)).unwrap();
    assert_eq!((design.netlist.num_cells(), design.netlist.num_nets()), (4, 3));
    let module = verilog::parse_str(VERILOG).unwrap();
    assert_eq!(module.netlist.num_cells(), 3);
}

#[test]
fn bookshelf_reader_is_total_on_truncations_and_hostile_numbers() {
    for (k, sample) in [NODES, NETS, PL, SCL].into_iter().enumerate() {
        for cut in truncations(sample) {
            check_bookshelf(with_file(k, cut));
        }
        for swapped in swaps(sample, &HOSTILE_NUMBERS) {
            check_bookshelf(with_file(k, &swapped));
        }
    }
}

#[test]
fn verilog_reader_is_total_on_truncations_and_hostile_numbers() {
    for cut in truncations(VERILOG) {
        check_verilog(cut);
    }
    for swapped in swaps(VERILOG, &HOSTILE_NUMBERS) {
        check_verilog(&swapped);
    }
}

#[test]
fn verilog_reader_is_total_on_huge_bus_ranges() {
    for swapped in swaps(VERILOG, &HUGE_BOUNDS) {
        check_verilog(&swapped);
    }
    let at = |hi: &str| VERILOG.replace("[3:0]", &format!("[{hi}:0]"));
    assert!(verilog::parse_str(&at("65535")).is_ok());
    for hi in &HUGE_BOUNDS[1..] {
        assert!(verilog::parse_str(&at(hi)).is_err(), "[{hi}:0] parsed");
    }
    // Declarations within the per-declaration cap that add up past the
    // module's.
    let many = VERILOG.replace("wire [3:0] d;", &"wire [65535:0] d;\n".repeat(5));
    assert!(verilog::parse_str(&many).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary text in place of any one of the four Bookshelf files:
    /// raw bytes (lossily decoded, as the readers take `&str`) and soups
    /// of the format's tokens.
    #[test]
    fn bookshelf_reader_is_total(
        file in 0usize..4,
        raw in proptest::collection::vec(0u8..=255, 0..64),
        picks in proptest::collection::vec(0usize..64, 0..96),
    ) {
        check_bookshelf(with_file(file, &String::from_utf8_lossy(&raw)));
        let text = soup(BOOKSHELF_WORDS, &picks);
        check_bookshelf(with_file(file, &text));
        // After a valid prefix of the file, so the soup reaches its body.
        let sample = [NODES, NETS, PL, SCL][file];
        let prefix = &sample[..sample.len() / 2];
        let prefix = &prefix[..prefix.rfind('\n').map_or(0, |at| at + 1)];
        check_bookshelf(with_file(file, &format!("{prefix}{text}")));
    }

    /// Arbitrary text as a Verilog module: raw bytes, soups of the
    /// format's tokens, and soups after the sample's header.
    #[test]
    fn verilog_reader_is_total(
        raw in proptest::collection::vec(0u8..=255, 0..64),
        picks in proptest::collection::vec(0usize..64, 0..96),
    ) {
        check_verilog(&String::from_utf8_lossy(&raw));
        let text = soup(VERILOG_WORDS, &picks);
        check_verilog(&text);
        let header = &VERILOG[..VERILOG.find("  NAND2").unwrap()];
        check_verilog(&format!("{header}{text}"));
        check_verilog(&format!("{header}{text}\nendmodule\n"));
    }
}
