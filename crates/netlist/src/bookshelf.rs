//! Bookshelf placement format, as used by the ISPD 2005/2006 benchmarks.
//!
//! The paper's Table 2 evaluates the tangled-logic finder on the ISPD
//! placement benchmarks (Bigblue1–3, Adaptec1–3), which are distributed in
//! this format. A design is a set of files referenced by a `.aux` index:
//!
//! * `.nodes` — cell names and dimensions (`NumNodes`, `NumTerminals`),
//! * `.nets`  — hyperedges (`NumNets`, `NumPins`, `NetDegree` records),
//! * `.pl`    — placement (x, y, orientation, optional `/FIXED`),
//! * `.scl`   — standard-cell rows (parsed for row geometry, optional).
//!
//! This module provides a hand-written reader and writer. The reader is
//! tolerant of the formatting variations found in the wild (variable
//! whitespace, comment lines, optional pin offsets on net records).
//!
//! # Example
//!
//! ```
//! use gtl_netlist::bookshelf::{self, BookshelfDesign};
//!
//! let nodes = "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\n a 2 1\n p 1 1 terminal\n";
//! let nets = "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a I : 0 0\n p O : 0 0\n";
//! let design = bookshelf::parse_parts(nodes, nets, None, None)?;
//! assert_eq!(design.netlist.num_cells(), 2);
//! assert!(design.fixed[design.netlist.find_cell("p").unwrap().index()]);
//! # Ok::<(), gtl_netlist::NetlistError>(())
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::stream::LineScanner;
use crate::{CellId, Netlist, NetlistBuilder, NetlistError, ParseContext};

/// One standard-cell row from a `.scl` file.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Row {
    /// Bottom y coordinate of the row.
    pub y: f64,
    /// Row height.
    pub height: f64,
    /// Leftmost site x coordinate.
    pub x: f64,
    /// Number of placement sites in the row.
    pub num_sites: usize,
    /// Width of one site.
    pub site_width: f64,
}

impl Row {
    /// Rightmost coordinate of the row.
    pub fn x_end(&self) -> f64 {
        self.x + self.num_sites as f64 * self.site_width
    }
}

/// A parsed Bookshelf design: netlist plus physical annotations.
#[derive(Debug, Clone)]
pub struct BookshelfDesign {
    /// The connectivity hypergraph. Cell area = width × height.
    pub netlist: Netlist,
    /// Cell widths from the `.nodes` file, indexed by cell id.
    pub widths: Vec<f64>,
    /// Cell heights from the `.nodes` file, indexed by cell id.
    pub heights: Vec<f64>,
    /// `true` for terminals / `/FIXED` cells, indexed by cell id.
    pub fixed: Vec<bool>,
    /// `(x, y)` positions from the `.pl` file, if one was given.
    pub positions: Option<Vec<(f64, f64)>>,
    /// Rows from the `.scl` file, if one was given.
    pub rows: Vec<Row>,
}

impl BookshelfDesign {
    /// Bounding box `(x_min, y_min, x_max, y_max)` of the rows, or of the
    /// placement if no rows were parsed.
    ///
    /// Returns `None` when neither rows nor positions are available.
    pub fn core_bounds(&self) -> Option<(f64, f64, f64, f64)> {
        if !self.rows.is_empty() {
            let x0 = self.rows.iter().map(|r| r.x).fold(f64::INFINITY, f64::min);
            let x1 = self.rows.iter().map(|r| r.x_end()).fold(f64::NEG_INFINITY, f64::max);
            let y0 = self.rows.iter().map(|r| r.y).fold(f64::INFINITY, f64::min);
            let y1 = self.rows.iter().map(|r| r.y + r.height).fold(f64::NEG_INFINITY, f64::max);
            return Some((x0, y0, x1, y1));
        }
        let pos = self.positions.as_ref()?;
        if pos.is_empty() {
            return None;
        }
        let x0 = pos.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let x1 = pos.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let y0 = pos.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let y1 = pos.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        Some((x0, y0, x1, y1))
    }
}

/// Reads a design given its `.aux` file.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] if a referenced file is missing and
/// [`NetlistError::Syntax`] on malformed content.
pub fn read_aux(path: impl AsRef<Path>) -> Result<BookshelfDesign, NetlistError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    let dir = path.parent().unwrap_or(Path::new("."));
    let mut nodes: Option<PathBuf> = None;
    let mut nets: Option<PathBuf> = None;
    let mut pl: Option<PathBuf> = None;
    let mut scl: Option<PathBuf> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let names = line.split(':').next_back().unwrap_or("");
        for tok in names.split_whitespace() {
            let p = dir.join(tok);
            match Path::new(tok).extension().and_then(|e| e.to_str()) {
                Some("nodes") => nodes = Some(p),
                Some("nets") => nets = Some(p),
                Some("pl") => pl = Some(p),
                Some("scl") => scl = Some(p),
                _ => {}
            }
        }
    }
    let label = path.display().to_string();
    let nodes = nodes.ok_or_else(|| {
        NetlistError::syntax(ParseContext::new(&label, 1), "aux lists no .nodes file")
    })?;
    let nets = nets.ok_or_else(|| {
        NetlistError::syntax(ParseContext::new(&label, 1), "aux lists no .nets file")
    })?;
    // The .nodes and .nets files dominate a design's size (a million-cell
    // design is hundreds of MB of net records); stream them through the
    // bounded scanner. The .pl/.scl files are O(cells) lines of short
    // fixed-width records and stay on the eager path.
    let nodes_file = std::fs::File::open(&nodes)?;
    let mut nodes_scanner = LineScanner::new(nodes_file, nodes.display().to_string());
    let nets_file = std::fs::File::open(&nets)?;
    let mut nets_scanner = LineScanner::new(nets_file, nets.display().to_string());
    let pl_text = match &pl {
        Some(p) if p.exists() => Some(std::fs::read_to_string(p)?),
        _ => None,
    };
    let scl_text = match &scl {
        Some(p) if p.exists() => Some(std::fs::read_to_string(p)?),
        _ => None,
    };
    build_design(&mut nodes_scanner, &mut nets_scanner, pl_text.as_deref(), scl_text.as_deref())
}

/// Parses a design from in-memory file contents.
///
/// `pl` and `scl` are optional. This is the entry point used by tests and
/// by [`read_aux`].
///
/// # Errors
///
/// Returns [`NetlistError::Syntax`] on malformed content,
/// [`NetlistError::UnknownCell`] when a net references an undeclared node,
/// and [`NetlistError::CountMismatch`] when header counts disagree with the
/// body.
pub fn parse_parts(
    nodes: &str,
    nets: &str,
    pl: Option<&str>,
    scl: Option<&str>,
) -> Result<BookshelfDesign, NetlistError> {
    let mut nodes_scanner = LineScanner::new(nodes.as_bytes(), "<nodes>");
    let mut nets_scanner = LineScanner::new(nets.as_bytes(), "<nets>");
    build_design(&mut nodes_scanner, &mut nets_scanner, pl, scl)
}

/// Shared body of [`parse_parts`] and [`read_aux`]: the `.nodes` and
/// `.nets` sides stream through [`LineScanner`]s, so the two entry points
/// are the same code path (the streaming-equivalence proptest relies on
/// this).
fn build_design<Rn: Read, Re: Read>(
    nodes_scanner: &mut LineScanner<Rn>,
    nets_scanner: &mut LineScanner<Re>,
    pl: Option<&str>,
    scl: Option<&str>,
) -> Result<BookshelfDesign, NetlistError> {
    let parsed_nodes = parse_nodes(nodes_scanner)?;
    let mut name_to_id: HashMap<String, CellId> = HashMap::with_capacity(parsed_nodes.len());
    let mut builder = NetlistBuilder::with_capacity(parsed_nodes.len(), 0);
    let mut widths = Vec::with_capacity(parsed_nodes.len());
    let mut heights = Vec::with_capacity(parsed_nodes.len());
    let mut fixed = Vec::with_capacity(parsed_nodes.len());
    for node in &parsed_nodes {
        let area = (node.width * node.height).max(f64::MIN_POSITIVE);
        let id = builder.add_cell(node.name.clone(), area);
        if name_to_id.insert(node.name.clone(), id).is_some() {
            return Err(NetlistError::DuplicateName { name: node.name.clone() });
        }
        widths.push(node.width);
        heights.push(node.height);
        fixed.push(node.terminal);
    }

    parse_nets(nets_scanner, &name_to_id, &mut builder)?;
    let netlist = builder.finish();

    let positions = match pl {
        Some(text) => Some(parse_pl(text, &name_to_id, &mut fixed, netlist.num_cells())?),
        None => None,
    };
    let rows = match scl {
        Some(text) => parse_scl(text)?,
        None => Vec::new(),
    };

    Ok(BookshelfDesign { netlist, widths, heights, fixed, positions, rows })
}

struct NodeRec {
    name: String,
    width: f64,
    height: f64,
    terminal: bool,
}

fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or("").trim()
}

fn header_value(line: &str, key: &str) -> Option<usize> {
    let rest = line.strip_prefix(key)?;
    let rest = rest.trim_start().strip_prefix(':')?;
    rest.split_whitespace().next()?.parse().ok()
}

fn parse_nodes<R: Read>(scanner: &mut LineScanner<R>) -> Result<Vec<NodeRec>, NetlistError> {
    let label = scanner.label().to_string();
    let mut declared: Option<usize> = None;
    let mut out = Vec::new();
    while let Some((i, raw)) = scanner.next_line()? {
        let line = strip_comment(raw);
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        if let Some(n) = header_value(line, "NumNodes") {
            declared = Some(n);
            continue;
        }
        if header_value(line, "NumTerminals").is_some() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let name = toks.next().unwrap_or_default().to_string();
        let width: f64 = parse_f64(toks.next(), &label, i, "node width")?;
        let height: f64 = parse_f64(toks.next(), &label, i, "node height")?;
        // `1e309`, `inf` and `NaN` all parse, and so can a product that
        // overflows; the builder takes only a finite cell area.
        if !(width * height).is_finite() {
            return Err(NetlistError::syntax(
                ParseContext::new(&label, i),
                format!("node `{name}` size {width} x {height} is not finite"),
            ));
        }
        let terminal = toks.next().map(|t| t.eq_ignore_ascii_case("terminal")).unwrap_or(false);
        out.push(NodeRec { name, width, height, terminal });
    }
    if let Some(n) = declared {
        if n != out.len() {
            return Err(NetlistError::CountMismatch {
                what: "nodes".into(),
                declared: n,
                found: out.len(),
            });
        }
    }
    Ok(out)
}

fn parse_nets<R: Read>(
    scanner: &mut LineScanner<R>,
    names: &HashMap<String, CellId>,
    builder: &mut NetlistBuilder,
) -> Result<(), NetlistError> {
    let label = scanner.label().to_string();
    let mut declared: Option<usize> = None;
    let mut current: Option<(String, usize, Vec<CellId>)> = None;
    let mut nets_read = 0usize;

    let flush = |current: &mut Option<(String, usize, Vec<CellId>)>,
                 builder: &mut NetlistBuilder,
                 line: usize|
     -> Result<(), NetlistError> {
        if let Some((name, degree, pins)) = current.take() {
            if pins.len() != degree {
                return Err(NetlistError::syntax(
                    ParseContext::new(&label, line),
                    format!("net `{name}` declared degree {degree} but has {} pins", pins.len()),
                ));
            }
            builder.add_net(name, pins);
        }
        Ok(())
    };

    while let Some((i, raw)) = scanner.next_line()? {
        let line = strip_comment(raw);
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        if let Some(n) = header_value(line, "NumNets") {
            declared = Some(n);
            continue;
        }
        if header_value(line, "NumPins").is_some() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("NetDegree") {
            flush(&mut current, builder, i)?;
            let rest = rest.trim_start().strip_prefix(':').ok_or_else(|| {
                NetlistError::syntax(ParseContext::new(&label, i), "expected `:` after NetDegree")
            })?;
            let mut toks = rest.split_whitespace();
            let degree: usize = parse_num(toks.next(), &label, i, "net degree")?;
            let name = toks.next().map(str::to_string).unwrap_or_else(|| format!("net{nets_read}"));
            // The degree is only a claim until the pin lines back it.
            current = Some((name, degree, Vec::new()));
            nets_read += 1;
            continue;
        }
        // A pin line: `<node> <I|O|B> [: xoff yoff]`.
        let (name_tok, _) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let cell = *names.get(name_tok).ok_or_else(|| NetlistError::UnknownCell {
            name: name_tok.to_string(),
            context: Some(ParseContext::new(&label, i)),
        })?;
        match &mut current {
            Some((_, _, pins)) => pins.push(cell),
            None => {
                return Err(NetlistError::syntax(
                    ParseContext::new(&label, i),
                    "pin line before any NetDegree record",
                ))
            }
        }
    }
    // A record still open at EOF (mid-record truncation) is caught here:
    // its pin count cannot match the declared degree unless the file ended
    // exactly at a record boundary.
    flush(&mut current, builder, scanner.line_no())?;
    if let Some(n) = declared {
        if n != nets_read {
            return Err(NetlistError::CountMismatch {
                what: "nets".into(),
                declared: n,
                found: nets_read,
            });
        }
    }
    Ok(())
}

fn parse_pl(
    text: &str,
    names: &HashMap<String, CellId>,
    fixed: &mut [bool],
    num_cells: usize,
) -> Result<Vec<(f64, f64)>, NetlistError> {
    let label = "<pl>";
    let mut pos = vec![(0.0, 0.0); num_cells];
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        let mut toks = line.split_whitespace();
        let name = toks.next().unwrap();
        let x = parse_f64(toks.next(), label, i + 1, "x coordinate")?;
        let y = parse_f64(toks.next(), label, i + 1, "y coordinate")?;
        let cell = *names.get(name).ok_or_else(|| NetlistError::UnknownCell {
            name: name.to_string(),
            context: Some(ParseContext::new(label, i + 1)),
        })?;
        pos[cell.index()] = (x, y);
        if line.contains("/FIXED") {
            fixed[cell.index()] = true;
        }
    }
    Ok(pos)
}

fn parse_scl(text: &str) -> Result<Vec<Row>, NetlistError> {
    let label = "<scl>";
    let mut rows = Vec::new();
    let mut in_row = false;
    let mut y = 0.0;
    let mut height = 0.0;
    let mut site_width = 1.0;
    let mut x = 0.0;
    let mut num_sites = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("corerow") {
            in_row = true;
            continue;
        }
        if lower.starts_with("end") {
            if in_row {
                rows.push(Row { y, height, x, num_sites, site_width });
            }
            in_row = false;
            continue;
        }
        if !in_row {
            continue;
        }
        let grab = |key: &str| -> Option<&str> {
            let pos = lower.find(key)?;
            line[pos + key.len()..].trim_start().strip_prefix(':').map(str::trim_start)
        };
        if let Some(v) = grab("coordinate") {
            y = parse_f64(v.split_whitespace().next(), label, i + 1, "row coordinate")?;
        }
        if let Some(v) = grab("height") {
            height = parse_f64(v.split_whitespace().next(), label, i + 1, "row height")?;
        }
        if let Some(v) = grab("sitewidth") {
            site_width = parse_f64(v.split_whitespace().next(), label, i + 1, "site width")?;
        }
        if let Some(v) = grab("subroworigin") {
            x = parse_f64(v.split_whitespace().next(), label, i + 1, "subrow origin")?;
            if let Some(n) = lower.find("numsites") {
                let rest = line[n + "numsites".len()..].trim_start();
                let rest = rest.strip_prefix(':').map(str::trim_start).unwrap_or(rest);
                num_sites = parse_num(rest.split_whitespace().next(), label, i + 1, "numsites")?;
            }
        }
    }
    Ok(rows)
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

fn parse_f64(tok: Option<&str>, label: &str, line: usize, what: &str) -> Result<f64, NetlistError> {
    let tok = tok.ok_or_else(|| {
        NetlistError::syntax(ParseContext::new(label, line), format!("missing {what}"))
    })?;
    tok.parse().map_err(|_| {
        NetlistError::syntax(ParseContext::new(label, line), format!("invalid {what} `{tok}`"))
    })
}

/// Writes a design to `dir` as `<name>.aux/.nodes/.nets/.pl/.scl`.
///
/// Useful for exporting synthetic circuits so that external placers can
/// consume them.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on I/O failure.
pub fn write_design(
    design: &BookshelfDesign,
    dir: impl AsRef<Path>,
    name: &str,
) -> Result<(), NetlistError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let nl = &design.netlist;

    let mut nodes = String::new();
    let _ = writeln!(nodes, "UCLA nodes 1.0");
    let _ = writeln!(nodes, "NumNodes : {}", nl.num_cells());
    let num_term = design.fixed.iter().filter(|&&f| f).count();
    let _ = writeln!(nodes, "NumTerminals : {num_term}");
    for cell in nl.cells() {
        let i = cell.index();
        let term = if design.fixed[i] { " terminal" } else { "" };
        let _ = writeln!(
            nodes,
            "  {} {} {}{}",
            node_name(nl, cell),
            design.widths[i],
            design.heights[i],
            term
        );
    }
    std::fs::write(dir.join(format!("{name}.nodes")), nodes)?;

    let mut nets = String::new();
    let _ = writeln!(nets, "UCLA nets 1.0");
    let _ = writeln!(nets, "NumNets : {}", nl.num_nets());
    let _ = writeln!(nets, "NumPins : {}", nl.num_pins());
    for net in nl.nets() {
        let nname = if nl.net_name(net).is_empty() {
            format!("n{}", net.index())
        } else {
            nl.net_name(net).to_string()
        };
        let _ = writeln!(nets, "NetDegree : {} {}", nl.net_degree(net), nname);
        for &cell in nl.net_cells(net) {
            let _ = writeln!(nets, "  {} B : 0 0", node_name(nl, cell));
        }
    }
    std::fs::write(dir.join(format!("{name}.nets")), nets)?;

    if let Some(pos) = &design.positions {
        let mut pl = String::new();
        let _ = writeln!(pl, "UCLA pl 1.0");
        for cell in nl.cells() {
            let (x, y) = pos[cell.index()];
            let fix = if design.fixed[cell.index()] { " /FIXED" } else { "" };
            let _ = writeln!(pl, "{} {} {} : N{}", node_name(nl, cell), x, y, fix);
        }
        std::fs::write(dir.join(format!("{name}.pl")), pl)?;
    }

    if !design.rows.is_empty() {
        let mut scl = String::new();
        let _ = writeln!(scl, "UCLA scl 1.0");
        let _ = writeln!(scl, "NumRows : {}", design.rows.len());
        for row in &design.rows {
            let _ = writeln!(scl, "CoreRow Horizontal");
            let _ = writeln!(scl, "  Coordinate : {}", row.y);
            let _ = writeln!(scl, "  Height : {}", row.height);
            let _ = writeln!(scl, "  Sitewidth : {}", row.site_width);
            let _ = writeln!(scl, "  SubrowOrigin : {} NumSites : {}", row.x, row.num_sites);
            let _ = writeln!(scl, "End");
        }
        std::fs::write(dir.join(format!("{name}.scl")), scl)?;
    }

    let mut aux = format!("RowBasedPlacement : {name}.nodes {name}.nets");
    if design.positions.is_some() {
        let _ = write!(aux, " {name}.pl");
    }
    if !design.rows.is_empty() {
        let _ = write!(aux, " {name}.scl");
    }
    aux.push('\n');
    std::fs::write(dir.join(format!("{name}.aux")), aux)?;
    Ok(())
}

fn node_name(nl: &Netlist, cell: CellId) -> String {
    let n = nl.cell_name(cell);
    if n.is_empty() {
        format!("o{}", cell.index())
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: &str = "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n  a 2 1\n  b 3 1\n  p0 1 1 terminal\n";
    const NETS: &str = "UCLA nets 1.0\nNumNets : 2\nNumPins : 5\nNetDegree : 3 sig\n  a I : 0.5 0\n  b O : -0.5 0\n  p0 I\nNetDegree : 2\n  a O : 0 0\n  b I : 0 0\n";
    const PL: &str = "UCLA pl 1.0\na 10 20 : N\nb 30 40 : N\np0 0 0 : N /FIXED\n";
    const SCL: &str = "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 100\nEnd\nCoreRow Horizontal\n  Coordinate : 12\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 100\nEnd\n";

    #[test]
    fn full_design_parses() {
        let d = parse_parts(NODES, NETS, Some(PL), Some(SCL)).unwrap();
        assert_eq!(d.netlist.num_cells(), 3);
        assert_eq!(d.netlist.num_nets(), 2);
        assert_eq!(d.netlist.num_pins(), 5);
        let a = d.netlist.find_cell("a").unwrap();
        assert_eq!(d.netlist.cell_area(a), 2.0);
        assert_eq!(d.positions.as_ref().unwrap()[a.index()], (10.0, 20.0));
        let p0 = d.netlist.find_cell("p0").unwrap();
        assert!(d.fixed[p0.index()]);
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[1].y, 12.0);
        assert_eq!(d.rows[0].num_sites, 100);
        d.netlist.validate().unwrap();
    }

    #[test]
    fn unnamed_net_gets_default_name() {
        let d = parse_parts(NODES, NETS, None, None).unwrap();
        assert_eq!(d.netlist.net_name(crate::NetId::new(0)), "sig");
        assert_eq!(d.netlist.net_name(crate::NetId::new(1)), "net1");
    }

    #[test]
    fn core_bounds_from_rows() {
        let d = parse_parts(NODES, NETS, Some(PL), Some(SCL)).unwrap();
        let (x0, y0, x1, y1) = d.core_bounds().unwrap();
        assert_eq!((x0, y0, x1, y1), (0.0, 0.0, 100.0, 24.0));
    }

    #[test]
    fn core_bounds_from_positions_when_no_rows() {
        let d = parse_parts(NODES, NETS, Some(PL), None).unwrap();
        let (x0, y0, x1, y1) = d.core_bounds().unwrap();
        assert_eq!((x0, y0), (0.0, 0.0));
        assert_eq!((x1, y1), (30.0, 40.0));
    }

    #[test]
    fn node_count_mismatch() {
        let bad = "UCLA nodes 1.0\nNumNodes : 5\n a 1 1\n";
        let err = parse_parts(bad, "UCLA nets 1.0\nNumNets : 0\n", None, None).unwrap_err();
        assert!(matches!(err, NetlistError::CountMismatch { .. }));
    }

    #[test]
    fn unknown_cell_in_net() {
        let bad_nets = "NumNets : 1\nNetDegree : 1 x\n zz I\n";
        let err = parse_parts(NODES, bad_nets, None, None).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownCell { .. }));
    }

    #[test]
    fn degree_mismatch_in_net() {
        let bad_nets = "NumNets : 1\nNetDegree : 3 x\n a I\n b I\n";
        let err = parse_parts(NODES, bad_nets, None, None).unwrap_err();
        assert!(err.to_string().contains("declared degree 3"));
    }

    #[test]
    fn pin_before_netdegree() {
        let bad_nets = "NumNets : 1\n a I\n";
        let err = parse_parts(NODES, bad_nets, None, None).unwrap_err();
        assert!(err.to_string().contains("before any NetDegree"));
    }

    #[test]
    fn a_non_finite_node_size_is_a_syntax_error_naming_its_line() {
        for size in ["1e309 1", "1 inf", "NaN 1", "-inf 2", "1 nan", "1e200 1e200"] {
            let nodes = format!("NumNodes : 2\n a 1 1\n b {size}\n");
            let err = parse_parts(&nodes, "NumNets : 0\n", None, None).unwrap_err();
            assert!(matches!(err, NetlistError::Syntax { .. }), "{size}: {err}");
            let text = err.to_string();
            assert!(text.contains("<nodes>:3") && text.contains("not finite"), "{size}: {text}");
        }
        // Zero and negative sizes stay legal (the area is clamped positive).
        assert!(parse_parts("NumNodes : 1\n a -0 0\n", "NumNets : 0\n", None, None).is_ok());
    }

    #[test]
    fn duplicate_node_name() {
        let bad = "NumNodes : 2\n a 1 1\n a 1 1\n";
        let err = parse_parts(bad, "NumNets : 0\n", None, None).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName { .. }));
    }

    #[test]
    fn write_and_read_roundtrip() {
        let d = parse_parts(NODES, NETS, Some(PL), Some(SCL)).unwrap();
        let dir =
            std::env::temp_dir().join(format!("gtl_bookshelf_roundtrip_{}", std::process::id()));
        write_design(&d, &dir, "t").unwrap();
        let again = read_aux(dir.join("t.aux")).unwrap();
        assert_eq!(again.netlist.num_cells(), 3);
        assert_eq!(again.netlist.num_nets(), 2);
        assert_eq!(again.netlist.num_pins(), 5);
        assert_eq!(again.rows.len(), 2);
        let p0 = again.netlist.find_cell("p0").unwrap();
        assert!(again.fixed[p0.index()]);
        assert_eq!(again.positions.as_ref().unwrap()[p0.index()], (0.0, 0.0));
    }
}
