//! Pins the exact output of the in-memory generators on the designs the
//! reproduction bins, benches, examples and tests build: a digest over
//! every cell's name and area, every net's name and pins, the planted
//! ground truth and the instance name. A refactor of a generator must
//! keep each design bit for bit; a deliberate change re-pins here.

use gtl_synth::industrial::{self, IndustrialConfig};
use gtl_synth::ispd_like::{self, IspdBenchmark, IspdLikeConfig};
use gtl_synth::GeneratedCircuit;

/// 64-bit FNV-1a, fed length-prefixed fields so no two layouts collide
/// by concatenation.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.byte(b);
        }
    }

    fn word(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.byte(b);
        }
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(circuit: &GeneratedCircuit) -> u64 {
    let netlist = &circuit.netlist;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(circuit.name.as_bytes());
    h.word(netlist.num_cells() as u64);
    for cell in netlist.cells() {
        h.bytes(netlist.cell_name(cell).as_bytes());
        h.word(netlist.cell_area(cell).to_bits());
    }
    h.word(netlist.num_nets() as u64);
    for net in netlist.nets() {
        h.bytes(netlist.net_name(net).as_bytes());
        h.word(netlist.net_degree(net) as u64);
        for cell in netlist.net_cells(net) {
            h.word(cell.index() as u64);
        }
    }
    h.word(circuit.truth.len() as u64);
    for members in &circuit.truth {
        h.word(members.len() as u64);
        for cell in members {
            h.word(cell.index() as u64);
        }
    }
    h.0
}

#[test]
fn generated_designs_keep_their_digests() {
    let ispd = |benchmark, scale, seed_xor: u64, structures: Option<usize>| {
        let mut config = IspdLikeConfig::new(benchmark, scale);
        config.seed ^= seed_xor;
        config.num_structures = structures;
        ispd_like::generate(&config)
    };
    let industrial = |scale, seed_xor: u64| {
        let defaults = IndustrialConfig::default();
        industrial::generate(&IndustrialConfig {
            scale,
            seed: defaults.seed ^ seed_xor,
            ..defaults
        })
    };
    let designs = [
        (
            "adaptec1 x0.05 (solver and placement benches)",
            ispd(IspdBenchmark::Adaptec1, 0.05, 0, None),
        ),
        ("adaptec1 x0.01 (placer determinism tests)", ispd(IspdBenchmark::Adaptec1, 0.01, 0, None)),
        (
            "adaptec1 x0.005 (physical pipeline tests)",
            ispd(IspdBenchmark::Adaptec1, 0.005, 0, None),
        ),
        ("adaptec2 x0.005 (bookshelf_flow example)", ispd(IspdBenchmark::Adaptec2, 0.005, 0, None)),
        (
            "bigblue1 x0.01, 4 structures, rng 1 (fig4 shape)",
            ispd(IspdBenchmark::Bigblue1, 0.01, 1, Some(4)),
        ),
        ("bigblue3 x0.002, rng 7 (table2 shape)", ispd(IspdBenchmark::Bigblue3, 0.002, 7, None)),
        ("industrial x0.005 (tests and resynthesis example)", industrial(0.005, 0)),
        ("industrial x0.015 (routing_hotspots example)", industrial(0.015, 0)),
        ("industrial x0.01, rng 3 (table3 shape)", industrial(0.01, 3)),
    ];
    let expected: [u64; 9] = [
        0x319c_c3b6_c5a7_79e2,
        0x3007_0aae_bc01_9580,
        0xe260_00b9_17b0_288b,
        0x0439_964e_210a_ee4d,
        0x4f5c_fac4_ea0e_fe3f,
        0x95f6_6a5f_3634_a62a,
        0x87f2_0f0e_a450_320f,
        0x8c3e_2856_6f96_25d8,
        0xa8cd_ac11_b25c_f94a,
    ];
    let got: Vec<u64> = designs.iter().map(|(_, circuit)| digest(circuit)).collect();
    let table: String = designs
        .iter()
        .zip(&got)
        .map(|((name, _), digest)| format!("    0x{digest:016x}, // {name}\n"))
        .collect();
    assert_eq!(got, expected, "a generated design changed; digests now:\n{table}");
}
