//! Structural gate-level Verilog subset parser.
//!
//! Synthesized netlists are handed from synthesis to place-and-route as
//! structural Verilog; this module ingests the common subset emitted by
//! synthesis tools:
//!
//! * one `module ... endmodule` per file,
//! * `input` / `output` / `inout` / `wire` declarations, including simple
//!   bus ranges (`wire [7:0] d;` expands to `d[7]` … `d[0]`; one
//!   declaration expands to at most 65,536 nets and a module's bus
//!   declarations to at most 262,144, past which the parser reports a
//!   syntax error naming the line),
//! * gate instantiations with named (`.A(n1)`) or positional (`(n1, n2)`)
//!   connections,
//! * `//` line comments and `/* */` block comments.
//!
//! Each instance becomes a cell; each declared signal becomes a net. Cell
//! areas come from a [`CellLibrary`] keyed by the instantiated cell type, so
//! the pin-density effects the paper's `GTL-SD` metric captures (NAND4/OAI/
//! AOI complex gates having 4–5 pins versus 3 for AND2/OR2) survive the
//! translation.
//!
//! # Example
//!
//! ```
//! use gtl_netlist::verilog;
//!
//! let src = r#"
//! module top (a, b, y);
//!   input a, b;
//!   output y;
//!   wire w;
//!   NAND2 u1 (.A(a), .B(b), .Y(w));
//!   INV   u2 (.A(w), .Y(y));
//! endmodule
//! "#;
//! let module = verilog::parse_str(src)?;
//! assert_eq!(module.name, "top");
//! assert_eq!(module.netlist.num_cells(), 2);
//! assert_eq!(module.netlist.num_nets(), 4); // a, b, y, w
//! # Ok::<(), gtl_netlist::NetlistError>(())
//! ```

use std::collections::HashMap;
use std::path::Path;

use crate::{CellId, Netlist, NetlistBuilder, NetlistError, ParseContext};

/// The most nets one bus declaration may expand to, over all its names
/// (`wire [N:0] a, b;` makes 2(N + 1)). A range sizes its expansion from
/// its bounds, not from the input's length, so a few bytes could
/// otherwise ask for billions of nets; a declaration past the cap is a
/// syntax error naming its line, raised before the name that passes it
/// expands.
const MAX_DECLARATION_BITS: u64 = 1 << 16;

/// The most nets the bus declarations of one module may expand to in
/// total, redeclarations included, so that many in-cap declarations
/// cannot add up to what one may not make. The name that passes it is a
/// syntax error naming its line.
const MAX_MODULE_BUS_BITS: u64 = 1 << 18;

/// Cell-type → (area, expected pin count) table used when translating
/// instances to cells.
///
/// # Example
///
/// ```
/// use gtl_netlist::verilog::CellLibrary;
///
/// let lib = CellLibrary::generic();
/// assert!(lib.area("NAND4") > lib.area("INV"));
/// assert_eq!(lib.area("UNKNOWN_CELL"), 1.0); // default
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    areas: HashMap<String, f64>,
    default_area: f64,
}

impl CellLibrary {
    /// An empty library where every cell type gets `default_area`.
    pub fn with_default_area(default_area: f64) -> Self {
        Self { areas: HashMap::new(), default_area }
    }

    /// A generic standard-cell library with plausible relative areas for
    /// the gate types the paper mentions (simple AND2/OR2 versus complex
    /// NAND4/OAI/AOI cells).
    pub fn generic() -> Self {
        let mut lib = Self::with_default_area(1.0);
        for (name, area) in [
            ("INV", 0.5),
            ("BUF", 0.75),
            ("NAND2", 1.0),
            ("NOR2", 1.0),
            ("AND2", 1.25),
            ("OR2", 1.25),
            ("XOR2", 1.75),
            ("XNOR2", 1.75),
            ("NAND3", 1.5),
            ("NOR3", 1.5),
            ("NAND4", 2.0),
            ("NOR4", 2.0),
            ("AOI21", 1.5),
            ("OAI21", 1.5),
            ("AOI22", 2.0),
            ("OAI22", 2.0),
            ("MUX2", 2.25),
            ("MUX4", 4.0),
            ("DFF", 4.5),
            ("FA", 4.0),
            ("HA", 2.5),
        ] {
            lib.set_area(name, area);
        }
        lib
    }

    /// Sets the area for a cell type (case-insensitive lookup).
    pub fn set_area(&mut self, cell_type: &str, area: f64) {
        self.areas.insert(cell_type.to_ascii_uppercase(), area);
    }

    /// Area for `cell_type`, falling back to the default.
    pub fn area(&self, cell_type: &str) -> f64 {
        self.areas.get(&cell_type.to_ascii_uppercase()).copied().unwrap_or(self.default_area)
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::generic()
    }
}

/// A parsed structural Verilog module.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// The connectivity hypergraph (instances × signals).
    pub netlist: Netlist,
    /// Cell type of each instance, indexed by cell id.
    pub cell_types: Vec<String>,
    /// Ids (into the netlist's nets) of the module's ports.
    pub port_nets: Vec<crate::NetId>,
}

/// Parses a module from source text with the [generic](CellLibrary::generic)
/// library.
///
/// # Errors
///
/// Returns [`NetlistError::Syntax`] on malformed source and
/// [`NetlistError::UnknownCell`] when an instance references an undeclared
/// signal (implicit wires are *not* created — synthesized netlists declare
/// everything, and silent implicit nets hide typos).
pub fn parse_str(source: &str) -> Result<Module, NetlistError> {
    parse_with_library(source, &CellLibrary::generic(), "<string>")
}

/// Reads a module from a `.v` file with the generic library.
///
/// # Errors
///
/// Same as [`parse_str`], plus [`NetlistError::Io`].
pub fn read(path: impl AsRef<Path>) -> Result<Module, NetlistError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    parse_with_library(&text, &CellLibrary::generic(), &path.display().to_string())
}

/// Parses a module using a caller-provided [`CellLibrary`].
///
/// # Errors
///
/// Same as [`parse_str`].
pub fn parse_with_library(
    source: &str,
    library: &CellLibrary,
    label: &str,
) -> Result<Module, NetlistError> {
    let tokens = tokenize(source, label)?;
    Parser { tokens, pos: 0, label, library, bus_bits: 0 }.parse_module()
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    text: String,
    line: usize,
}

fn tokenize(source: &str, label: &str) -> Result<Vec<Token>, NetlistError> {
    let mut tokens = Vec::new();
    let mut chars = source.char_indices().peekable();
    let mut line = 1usize;
    let bytes = source.as_bytes();
    while let Some((i, c)) = chars.next() {
        match c {
            '\n' => line += 1,
            c if c.is_whitespace() => {}
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                for (_, c2) in chars.by_ref() {
                    if c2 == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                chars.next();
                let mut prev = ' ';
                let mut closed = false;
                for (_, c2) in chars.by_ref() {
                    if c2 == '\n' {
                        line += 1;
                    }
                    if prev == '*' && c2 == '/' {
                        closed = true;
                        break;
                    }
                    prev = c2;
                }
                if !closed {
                    return Err(NetlistError::syntax(
                        ParseContext::new(label, line),
                        "unterminated block comment",
                    ));
                }
            }
            '(' | ')' | ',' | ';' | '.' | '[' | ']' | ':' | '=' | '+' | '-' | '*' | '&' | '|'
            | '^' | '~' | '!' | '?' | '<' | '>' | '{' | '}' | '\'' | '#' => {
                tokens.push(Token { text: c.to_string(), line });
            }
            c if c.is_alphanumeric() || c == '_' || c == '\\' || c == '$' => {
                let start = i;
                let mut end = i + c.len_utf8();
                // Escaped identifiers (`\foo.bar `) run to the next whitespace.
                if c == '\\' {
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_whitespace() {
                            break;
                        }
                        end = j + c2.len_utf8();
                        chars.next();
                    }
                } else {
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_alphanumeric() || c2 == '_' || c2 == '$' {
                            end = j + c2.len_utf8();
                            chars.next();
                        } else {
                            break;
                        }
                    }
                }
                tokens.push(Token { text: source[start..end].to_string(), line });
            }
            other => {
                return Err(NetlistError::syntax(
                    ParseContext::new(label, line),
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    label: &'a str,
    library: &'a CellLibrary,
    /// Nets the module's bus declarations have expanded to so far.
    bus_bits: u64,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, line: usize, msg: impl Into<String>) -> NetlistError {
        NetlistError::syntax(ParseContext::new(self.label, line), msg)
    }

    fn expect(&mut self, text: &str) -> Result<Token, NetlistError> {
        let line = self.peek().map(|t| t.line).unwrap_or(0);
        match self.next() {
            Some(t) if t.text == text => Ok(t),
            Some(t) => Err(self.err(t.line, format!("expected `{text}`, found `{}`", t.text))),
            None => Err(self.err(line, format!("expected `{text}`, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<Token, NetlistError> {
        let line = self.peek().map(|t| t.line).unwrap_or(0);
        match self.next() {
            Some(t)
                if t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_' || c == '\\') =>
            {
                Ok(t)
            }
            Some(t) => Err(self.err(t.line, format!("expected identifier, found `{}`", t.text))),
            None => Err(self.err(line, "expected identifier, found end of input")),
        }
    }

    fn parse_module(mut self) -> Result<Module, NetlistError> {
        // Skip anything before `module` (attributes, timescale remnants).
        while let Some(t) = self.peek() {
            if t.text == "module" {
                break;
            }
            self.pos += 1;
        }
        self.expect("module")?;
        let name = self.expect_ident()?.text;

        // Skip the port list `( ... )` — signal directions come from the
        // declarations inside the body.
        if self.peek().map(|t| t.text.as_str()) == Some("(") {
            let mut depth = 0usize;
            loop {
                let t = self.next().ok_or_else(|| self.err(0, "unterminated module port list"))?;
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.expect(";")?;

        let mut nets: HashMap<String, crate::NetId> = HashMap::new();
        let mut port_names: Vec<String> = Vec::new();
        let mut builder = NetlistBuilder::new();
        let mut net_pins: Vec<Vec<CellId>> = Vec::new();
        let mut net_order: Vec<String> = Vec::new();
        let mut cell_types: Vec<String> = Vec::new();

        let declare = |name: String,
                       nets: &mut HashMap<String, crate::NetId>,
                       net_pins: &mut Vec<Vec<CellId>>,
                       net_order: &mut Vec<String>| {
            let next = crate::NetId::new(net_pins.len());
            nets.entry(name.clone()).or_insert_with(|| {
                net_pins.push(Vec::new());
                net_order.push(name);
                next
            });
        };

        loop {
            let t = self.next().ok_or_else(|| self.err(0, "missing `endmodule`"))?;
            match t.text.as_str() {
                "endmodule" => break,
                kw @ ("input" | "output" | "inout" | "wire" | "reg") => {
                    let names = self.parse_signal_decl(t.line)?;
                    for n in names {
                        if kw != "wire" && kw != "reg" {
                            port_names.push(n.clone());
                        }
                        declare(n, &mut nets, &mut net_pins, &mut net_order);
                    }
                }
                "assign" => {
                    // Skip continuous assigns up to `;` — they carry no cell.
                    while let Some(t2) = self.next() {
                        if t2.text == ";" {
                            break;
                        }
                    }
                }
                _ => {
                    // Instance: `TYPE name ( connections ) ;`
                    let cell_type = t.text;
                    let inst_line = t.line;
                    let inst_name = self.expect_ident()?.text;
                    let pins = self.parse_connections(inst_line, &nets)?;
                    let cell = builder.add_cell(inst_name, self.library.area(&cell_type));
                    cell_types.push(cell_type);
                    for net in pins {
                        if !net_pins[net.index()].contains(&cell) {
                            net_pins[net.index()].push(cell);
                        }
                    }
                }
            }
        }

        for (i, pins) in net_pins.into_iter().enumerate() {
            builder.add_net(net_order[i].clone(), pins);
        }
        let netlist = builder.finish();
        let port_nets = port_names.iter().filter_map(|n| nets.get(n).copied()).collect();
        Ok(Module { name, netlist, cell_types, port_nets })
    }

    /// Parses the rest of `input [7:0] a, b;` after the keyword.
    fn parse_signal_decl(&mut self, line: usize) -> Result<Vec<String>, NetlistError> {
        let mut range: Option<(i64, i64)> = None;
        if self.peek().map(|t| t.text.as_str()) == Some("[") {
            self.next();
            let hi: i64 = self.parse_int()?;
            self.expect(":")?;
            let lo: i64 = self.parse_int()?;
            self.expect("]")?;
            range = Some((hi, lo));
        }
        let mut names = Vec::new();
        let mut declared_bits = 0u64;
        loop {
            let t = self.expect_ident()?;
            match range {
                Some((hi, lo)) => {
                    // Both caps are checked before a name expands.
                    let bits = hi.abs_diff(lo).saturating_add(1);
                    declared_bits = declared_bits.saturating_add(bits);
                    if declared_bits > MAX_DECLARATION_BITS {
                        return Err(self.err(
                            t.line,
                            format!(
                                "bus declaration expands past {MAX_DECLARATION_BITS} nets at `{}`",
                                t.text
                            ),
                        ));
                    }
                    self.bus_bits += bits;
                    if self.bus_bits > MAX_MODULE_BUS_BITS {
                        return Err(self.err(
                            t.line,
                            format!(
                                "bus declarations expand past {MAX_MODULE_BUS_BITS} nets in one \
                                 module"
                            ),
                        ));
                    }
                    let (lo, hi) = (lo.min(hi), lo.max(hi));
                    for bit in lo..=hi {
                        names.push(format!("{}[{}]", t.text, bit));
                    }
                }
                None => names.push(t.text),
            }
            match self.next() {
                Some(t2) if t2.text == "," => continue,
                Some(t2) if t2.text == ";" => break,
                Some(t2) => {
                    return Err(
                        self.err(t2.line, format!("expected `,` or `;`, found `{}`", t2.text))
                    )
                }
                None => return Err(self.err(line, "unterminated signal declaration")),
            }
        }
        Ok(names)
    }

    fn parse_int(&mut self) -> Result<i64, NetlistError> {
        let t = self.next().ok_or_else(|| self.err(0, "expected number"))?;
        t.text.parse().map_err(|_| self.err(t.line, format!("expected number, found `{}`", t.text)))
    }

    /// Parses `( .A(n1), .B(n2) )` or `( n1, n2 )` followed by `;`,
    /// returning the connected nets.
    fn parse_connections(
        &mut self,
        line: usize,
        nets: &HashMap<String, crate::NetId>,
    ) -> Result<Vec<crate::NetId>, NetlistError> {
        self.expect("(")?;
        let mut out = Vec::new();
        if self.peek().map(|t| t.text.as_str()) == Some(")") {
            self.next();
            self.expect(";")?;
            return Ok(out);
        }
        loop {
            let t = self.next().ok_or_else(|| self.err(line, "unterminated connection list"))?;
            let signal = if t.text == "." {
                let _pin = self.expect_ident()?;
                self.expect("(")?;
                // Unconnected pin: `.A()`.
                if self.peek().map(|x| x.text.as_str()) == Some(")") {
                    self.next();
                    None
                } else {
                    let sig = self.parse_signal_ref()?;
                    self.expect(")")?;
                    Some(sig)
                }
            } else {
                self.pos -= 1;
                Some(self.parse_signal_ref()?)
            };
            if let Some((name, sig_line)) = signal {
                let id = nets.get(&name).copied().ok_or(NetlistError::UnknownCell {
                    name,
                    context: Some(ParseContext::new(self.label, sig_line)),
                })?;
                out.push(id);
            }
            match self.next() {
                Some(t2) if t2.text == "," => continue,
                Some(t2) if t2.text == ")" => break,
                Some(t2) => {
                    return Err(
                        self.err(t2.line, format!("expected `,` or `)`, found `{}`", t2.text))
                    )
                }
                None => return Err(self.err(line, "unterminated connection list")),
            }
        }
        self.expect(";")?;
        Ok(out)
    }

    /// Parses `name` or `name[3]`, returning the flattened signal name.
    fn parse_signal_ref(&mut self) -> Result<(String, usize), NetlistError> {
        let t = self.expect_ident()?;
        let line = t.line;
        let mut name = t.text;
        if self.peek().map(|x| x.text.as_str()) == Some("[") {
            self.next();
            let bit = self.parse_int()?;
            self.expect("]")?;
            name = format!("{name}[{bit}]");
        }
        Ok((name, line))
    }
}

/// Serializes a netlist as a structural Verilog module.
///
/// Every net becomes a `wire`; every cell becomes an instance whose type
/// is taken from `cell_types` (when given, e.g. from a parsed [`Module`])
/// or synthesized as `GEN<degree>`. Pins are named `P0, P1, …` in the
/// cell's net order, so `parse_str(&to_module_string(...))` round-trips
/// connectivity exactly.
///
/// # Panics
///
/// Panics if `cell_types` is given but shorter than the cell count.
pub fn to_module_string(
    netlist: &Netlist,
    module_name: &str,
    cell_types: Option<&[String]>,
) -> String {
    use std::fmt::Write as _;
    if let Some(t) = cell_types {
        assert!(t.len() >= netlist.num_cells(), "cell_types shorter than netlist");
    }
    let mut out = String::new();
    let _ = writeln!(out, "module {module_name} ();");
    let net_name = |i: usize| -> String {
        let n = netlist.net_name(crate::NetId::new(i));
        if n.is_empty() || !n.chars().next().unwrap().is_alphabetic() || n.contains(['[', ']', '.'])
        {
            format!("n{i}")
        } else {
            n.to_string()
        }
    };
    for i in 0..netlist.num_nets() {
        let _ = writeln!(out, "  wire {};", net_name(i));
    }
    for cell in netlist.cells() {
        let ty = match cell_types {
            Some(t) if !t[cell.index()].is_empty() => t[cell.index()].clone(),
            _ => format!("GEN{}", netlist.cell_degree(cell)),
        };
        let raw = netlist.cell_name(cell);
        let inst = if raw.is_empty() || raw.contains(['[', ']', '.']) {
            format!("u{}", cell.index())
        } else {
            raw.to_string()
        };
        let pins: Vec<String> = netlist
            .cell_nets(cell)
            .iter()
            .enumerate()
            .map(|(k, net)| format!(".P{k}({})", net_name(net.index())))
            .collect();
        let _ = writeln!(out, "  {ty} {inst} ({});", pins.join(", "));
    }
    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = r#"
// a trivial pair of gates
module top (a, b, y);
  input a, b;
  output y;
  wire w;
  NAND2 u1 (.A(a), .B(b), .Y(w));
  INV   u2 (.A(w), .Y(y));
endmodule
"#;

    #[test]
    fn parses_simple_module() {
        let m = parse_str(SIMPLE).unwrap();
        assert_eq!(m.name, "top");
        assert_eq!(m.netlist.num_cells(), 2);
        assert_eq!(m.netlist.num_nets(), 4);
        assert_eq!(m.cell_types, ["NAND2", "INV"]);
        assert_eq!(m.port_nets.len(), 3);
        m.netlist.validate().unwrap();
        let w = m.netlist.find_cell("u1").unwrap();
        assert_eq!(m.netlist.cell_degree(w), 3);
    }

    #[test]
    fn positional_connections() {
        let src = "module m (x); input x; wire q; BUF b1 (x, q); endmodule";
        let m = parse_str(src).unwrap();
        assert_eq!(m.netlist.num_cells(), 1);
        let b1 = m.netlist.find_cell("b1").unwrap();
        assert_eq!(m.netlist.cell_degree(b1), 2);
    }

    #[test]
    fn bus_declarations_expand() {
        let src = "module m (); wire [3:0] d; AND2 g (.A(d[0]), .B(d[3]), .Y(d[1])); endmodule";
        let m = parse_str(src).unwrap();
        assert_eq!(m.netlist.num_nets(), 4);
        let g = m.netlist.find_cell("g").unwrap();
        assert_eq!(m.netlist.cell_degree(g), 3);
    }

    /// The error `source` fails to parse with, as displayed.
    fn parse_error(source: &str) -> String {
        match parse_str(source) {
            Ok(m) => panic!("parsed {} nets", m.netlist.num_nets()),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn bus_ranges_past_the_declaration_cap_are_syntax_errors() {
        // A few bytes naming millions or billions of nets fail before any
        // expands, on the declaration's line.
        for range in ["1999999:0", "2147483647:0", "0:9223372036854775807", "65536:0"] {
            let source = format!("module m ();\n wire [{range}] d;\nendmodule");
            let started = std::time::Instant::now();
            let err = parse_error(&source);
            assert!(started.elapsed().as_secs_f64() < 1.0, "{range} took {:?}", started.elapsed());
            assert_eq!(
                err, "<string>:2: bus declaration expands past 65536 nets at `d`",
                "{range}"
            );
        }
        // The cap counts every name of the declaration.
        let err = parse_error("module m (); wire [16383:0] a, b, c, d, e; endmodule");
        assert!(err.ends_with("expands past 65536 nets at `e`"), "{err}");
        // At the cap the bus parses.
        let m = parse_str("module m (); wire [65535:0] d; endmodule").unwrap();
        assert_eq!(m.netlist.num_nets(), 65_536);
    }

    #[test]
    fn bus_declarations_past_the_module_cap_are_syntax_errors() {
        // In-cap declarations, redeclarations of one bus among them, add
        // up past the module's total on the fifth.
        let mut source = String::from("module m ();\n");
        for k in 0..4 {
            source.push_str(&format!("wire [65535:0] d{};\n", k % 2));
        }
        let fits = format!("{source}endmodule");
        assert_eq!(parse_str(&fits).unwrap().netlist.num_nets(), 2 * 65_536);
        source.push_str("input [0:0] e;\nendmodule");
        let started = std::time::Instant::now();
        let err = parse_error(&source);
        assert!(started.elapsed().as_secs_f64() < 10.0, "took {:?}", started.elapsed());
        assert_eq!(err, "<string>:6: bus declarations expand past 262144 nets in one module");
    }

    #[test]
    fn block_comments_and_assign_skipped() {
        let src = "module m (); /* multi\nline */ wire a, b; assign a = b; INV i0 (.A(a), .Y(b)); endmodule";
        let m = parse_str(src).unwrap();
        assert_eq!(m.netlist.num_cells(), 1);
    }

    #[test]
    fn unknown_signal_is_error() {
        let src = "module m (); wire a; INV i0 (.A(a), .Y(zz)); endmodule";
        let err = parse_str(src).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownCell { .. }));
    }

    #[test]
    fn unconnected_pin_allowed() {
        let src = "module m (); wire a; DFF f (.D(a), .Q()); endmodule";
        let m = parse_str(src).unwrap();
        let f = m.netlist.find_cell("f").unwrap();
        assert_eq!(m.netlist.cell_degree(f), 1);
    }

    #[test]
    fn missing_endmodule_is_error() {
        let err = parse_str("module m (); wire a;").unwrap_err();
        assert!(err.to_string().contains("endmodule"));
    }

    #[test]
    fn unterminated_comment_is_error() {
        let err = parse_str("module m (); /* oops").unwrap_err();
        assert!(err.to_string().contains("unterminated block comment"));
    }

    #[test]
    fn library_areas_apply() {
        let m = parse_str(SIMPLE).unwrap();
        let u1 = m.netlist.find_cell("u1").unwrap();
        let u2 = m.netlist.find_cell("u2").unwrap();
        assert_eq!(m.netlist.cell_area(u1), 1.0); // NAND2
        assert_eq!(m.netlist.cell_area(u2), 0.5); // INV
    }

    #[test]
    fn duplicate_pin_same_net_deduped() {
        let src = "module m (); wire a, y; AND2 g (.A(a), .B(a), .Y(y)); endmodule";
        let m = parse_str(src).unwrap();
        let g = m.netlist.find_cell("g").unwrap();
        assert_eq!(m.netlist.cell_degree(g), 2);
    }

    #[test]
    fn writer_roundtrips_connectivity() {
        let m = parse_str(SIMPLE).unwrap();
        let text = to_module_string(&m.netlist, "top", Some(&m.cell_types));
        let again = parse_str(&text).unwrap();
        assert_eq!(again.netlist.num_cells(), m.netlist.num_cells());
        assert_eq!(again.netlist.num_pins(), m.netlist.num_pins());
        // Nets with ≥1 pin survive; per-cell degrees match.
        for cell in m.netlist.cells() {
            assert_eq!(again.netlist.cell_degree(cell), m.netlist.cell_degree(cell));
        }
        assert_eq!(again.cell_types, m.cell_types);
    }

    #[test]
    fn writer_generates_types_when_unknown() {
        let mut b = crate::NetlistBuilder::new();
        let x = b.add_cell("x", 1.0);
        let y = b.add_cell("y", 1.0);
        b.add_anonymous_net([x, y]);
        let nl = b.finish();
        let text = to_module_string(&nl, "m", None);
        assert!(text.contains("GEN1 x"), "{text}");
        let again = parse_str(&text).unwrap();
        assert_eq!(again.netlist.num_pins(), 2);
    }

    #[test]
    fn custom_library() {
        let mut lib = CellLibrary::with_default_area(3.0);
        lib.set_area("WEIRD", 9.0);
        let src = "module m (); wire a; WEIRD w0 (.X(a)); OTHER o0 (.X(a)); endmodule";
        let m = parse_with_library(src, &lib, "<t>").unwrap();
        assert_eq!(m.netlist.cell_area(m.netlist.find_cell("w0").unwrap()), 9.0);
        assert_eq!(m.netlist.cell_area(m.netlist.find_cell("o0").unwrap()), 3.0);
    }
}
