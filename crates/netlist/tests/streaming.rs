//! Streaming-parser equivalence and hostile-input coverage.
//!
//! The bounded [`gtl_netlist::stream::LineScanner`] must make no
//! observable difference: parsing through a reader that dribbles bytes in
//! tiny chunks must produce byte-identical netlists to parsing the whole
//! buffer, and truncated/oversized/malformed inputs must fail with the
//! same structured errors instead of panicking or ballooning memory.

use std::io::Read;

use gtl_netlist::{bookshelf, hgr, NetlistError};
use proptest::prelude::*;
use proptest::strategy::Just;

/// A reader that returns at most `chunk` bytes per `read` call, forcing
/// the scanner through its refill/compact path on every line.
struct ChunkReader<'a> {
    data: &'a [u8],
    chunk: usize,
}

impl Read for ChunkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.len().min(self.chunk).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn hgr_text(num_cells: usize, nets: &[Vec<usize>]) -> String {
    let mut text = format!("{} {}\n", nets.len(), num_cells);
    for pins in nets {
        let toks: Vec<String> = pins.iter().map(|p| (p + 1).to_string()).collect();
        text.push_str(&toks.join(" "));
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_hgr_parse_matches_whole_buffer(
        (num_cells, nets) in (2usize..40).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec(
                proptest::collection::vec(0..n, 1..6usize), 0..30))
        }),
        chunk in 1usize..8,
    ) {
        let text = hgr_text(num_cells, &nets);
        let whole = hgr::parse_str(&text).unwrap();
        let streamed =
            hgr::parse(ChunkReader { data: text.as_bytes(), chunk }, "<chunked>").unwrap();
        // Byte-level equivalence: re-serializing both gives identical text.
        prop_assert_eq!(hgr::to_string(&streamed), hgr::to_string(&whole));
        prop_assert_eq!(streamed.num_pins(), whole.num_pins());
    }
}

#[test]
fn chunked_bookshelf_matches_in_memory_parse() {
    // A design big enough to cross several scanner refills at chunk=3.
    let n = 120usize;
    let mut nodes = format!("UCLA nodes 1.0\nNumNodes : {n}\nNumTerminals : 1\n");
    for i in 0..n {
        let term = if i == 0 { " terminal" } else { "" };
        nodes.push_str(&format!("  c{i} {} {}{}\n", 1 + i % 3, 1 + i % 2, term));
    }
    let mut nets = String::from("UCLA nets 1.0\n");
    let mut records = String::new();
    let mut num_pins = 0usize;
    let num_nets = n / 2;
    for i in 0..num_nets {
        let a = i;
        let b = (i * 7 + 1) % n;
        let c = (i * 13 + 5) % n;
        records.push_str(&format!("NetDegree : 3 net{i}\n  c{a} I : 0 0\n  c{b} O\n  c{c} B\n"));
        num_pins += 3;
    }
    nets.push_str(&format!("NumNets : {num_nets}\nNumPins : {num_pins}\n"));
    nets.push_str(&records);

    let whole = bookshelf::parse_parts(&nodes, &nets, None, None).unwrap();

    // Round-trip through real files so the `read_aux` streaming path runs.
    let dir = std::env::temp_dir().join(format!("gtl_stream_bookshelf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("d.nodes"), &nodes).unwrap();
    std::fs::write(dir.join("d.nets"), &nets).unwrap();
    std::fs::write(dir.join("d.aux"), "RowBasedPlacement : d.nodes d.nets\n").unwrap();
    let streamed = bookshelf::read_aux(dir.join("d.aux")).unwrap();

    assert_eq!(streamed.netlist.num_cells(), whole.netlist.num_cells());
    assert_eq!(streamed.netlist.num_nets(), whole.netlist.num_nets());
    assert_eq!(streamed.netlist.num_pins(), whole.netlist.num_pins());
    assert_eq!(hgr::to_string(&streamed.netlist), hgr::to_string(&whole.netlist));
    assert_eq!(streamed.fixed, whole.fixed);
}

#[test]
fn truncated_hgr_fails_cleanly() {
    // Header promises more nets than the (cut-off) body delivers.
    let text = "5 10\n1 2\n3 4\n";
    let err = hgr::parse(ChunkReader { data: text.as_bytes(), chunk: 2 }, "<trunc>").unwrap_err();
    assert!(matches!(err, NetlistError::CountMismatch { declared: 5, found: 2, .. }));
}

#[test]
fn mid_record_eof_in_bookshelf_nets_fails_cleanly() {
    // The stream ends inside a NetDegree record: 3 pins declared, 1 seen.
    let nodes = "NumNodes : 2\n a 1 1\n b 1 1\n";
    let nets = "NumNets : 1\nNetDegree : 3 cut\n a I";
    let err = bookshelf::parse_parts(nodes, nets, None, None).unwrap_err();
    assert!(err.to_string().contains("declared degree 3 but has 1"), "{err}");
}

#[test]
fn oversized_hgr_line_is_capped() {
    let mut text = String::from("1 200\n");
    for i in 1..=200 {
        text.push_str(&format!("{i} "));
    }
    text.push('\n');
    let err = hgr::parse_with(ChunkReader { data: text.as_bytes(), chunk: 5 }, "<capped>", 64)
        .unwrap_err();
    assert!(err.to_string().contains("maximum length of 64 bytes"), "{err}");
}

/// Header counts that no body backs must come back as errors: sizing an
/// allocation from them would abort the process before `Err` could be
/// returned.
#[test]
fn hgr_header_counts_are_not_trusted_for_allocation() {
    for text in ["99999999999 1\n1\n", "1 99999999999\n1\n", "1 4294967297\n1\n"] {
        let err = hgr::parse_str(text).unwrap_err();
        assert!(matches!(err, NetlistError::Syntax { .. }), "{text:?}: {err}");
        assert!(err.to_string().contains("exceeds the u32 id space"), "{text:?}: {err}");
    }
    // Within the id space the net count is still only a claim: one net read
    // against four billion declared is a mismatch, not a 16 GB reservation.
    let err = hgr::parse_str("4000000000 1\n1\n").unwrap_err();
    assert!(
        matches!(err, NetlistError::CountMismatch { declared: 4_000_000_000, found: 1, .. }),
        "{err}"
    );
    // Four billion cells need a 32 GB cell table. The reader reserves it
    // fallibly, so where the allocator refuses (a smaller machine, or an
    // address-space cap such as `ulimit -v`) the answer is an error.
    let err = hgr::parse_str("1 4000000000\n1\n").unwrap_err();
    assert!(matches!(err, NetlistError::Syntax { .. }), "{err}");
    assert_eq!(err.to_string(), "<string>:1: cell count 4000000000 does not fit in memory");
}

#[test]
fn bookshelf_net_degree_is_not_trusted_for_allocation() {
    let nodes = "NumNodes : 1\n n0 1 1\n";
    let nets = "NumNets : 1\nNetDegree : 99999999999 n0\n";
    let err = bookshelf::parse_parts(nodes, nets, None, None).unwrap_err();
    assert!(err.to_string().contains("declared degree 99999999999 but has 0"), "{err}");
}
