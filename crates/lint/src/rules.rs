//! The launch rules: each standing ROADMAP invariant as a named,
//! token-level check. See ARCHITECTURE.md "Invariants as code" for the
//! rule ↔ invariant mapping and the waiver policy.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::lexer::{Lexed, Token, TokenKind};
use crate::zones::{self, Zone};
use crate::Violation;

/// Every rule the engine knows (and a waiver may name). The synthetic
/// `waiver-syntax` rule is deliberately absent: a broken waiver cannot
/// waive itself.
pub const RULES: &[&str] = &[
    "no-raw-thread",
    "no-wallclock-in-compute",
    "obs-clock-only-via-injection",
    "no-unordered-iteration-in-compute",
    "no-rng-outside-derive-stream",
    "no-panic-on-serve-path",
    "forbid-unsafe-attr",
    "wire-surface-freeze",
    "no-shared-temp-path-in-tests",
    "pub-mod-reached",
];

/// RNG constructors that must route through `derive_stream` in compute
/// zones (`SmallRng::seed_from_u64(derive_stream(master, index))`).
const RNG_CONSTRUCTORS: &[&str] =
    &["seed_from_u64", "from_seed", "from_entropy", "from_os_rng", "from_rng", "thread_rng"];

/// Methods whose call on a hash container iterates it in nondeterministic
/// order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Panicking calls forbidden on the serve path.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs every applicable rule over one lexed file.
///
/// `rel_path` is workspace-relative; `in_test` flags tokens inside
/// `#[cfg(test)]` / `#[test]` items (from
/// [`test_token_map`](crate::lexer::test_token_map)).
pub fn check_file(rel_path: &Path, zone: Zone, lexed: &Lexed, in_test: &[bool]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let tokens = &lexed.tokens;

    let live = |i: usize| !in_test.get(i).copied().unwrap_or(false);
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let is_ident = |i: usize| tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident);

    // ---- no-raw-thread -------------------------------------------------
    if matches!(zone, Zone::Compute | Zone::Io) && !zones::raw_thread_exempt(rel_path) {
        for (i, tok) in tokens.iter().enumerate() {
            if live(i)
                && tok.text == "thread"
                && text(i + 1) == ":"
                && text(i + 2) == ":"
                && matches!(text(i + 3), "spawn" | "scope" | "Builder")
            {
                violations.push(Violation {
                    line: tok.line,
                    rule: "no-raw-thread",
                    message: format!(
                        "raw `thread::{}` outside gtl_core::exec — all compute fan-out must go \
                         through exec::parallel_map* (ordered, worker-count-invariant)",
                        text(i + 3)
                    ),
                });
            }
        }
    }

    // ---- no-wallclock-in-compute --------------------------------------
    if zone == Zone::Compute && !zones::wallclock_exempt(rel_path) {
        for (i, tok) in tokens.iter().enumerate() {
            if !live(i) || !is_ident(i) {
                continue;
            }
            let hit = match tok.text.as_str() {
                "Instant" if text(i + 1) == ":" && text(i + 2) == ":" && text(i + 3) == "now" => {
                    Some("Instant::now()")
                }
                "SystemTime" => Some("SystemTime"),
                _ => None,
            };
            if let Some(what) = hit {
                violations.push(Violation {
                    line: tok.line,
                    rule: "no-wallclock-in-compute",
                    message: format!(
                        "{what} in a compute crate — wall-clock readings make results \
                         timing-dependent; deadlines reach compute only via CancelToken \
                         checkpoints (gtl_core::cancel)"
                    ),
                });
            }
        }
    }

    // ---- obs-clock-only-via-injection ---------------------------------
    // `no-wallclock-in-compute` catches the explicit clock reads
    // (`Instant::now`, `SystemTime`); this closes the implicit one:
    // `.elapsed()` reads "now" inside the callee. Compute code may
    // carry and *subtract* instants handed to it
    // (`gtl_core::obs::Span::starting_at(a).end_at(b)`) but must never
    // acquire one — that is the byte-invisibility contract of the
    // observability layer.
    if zone == Zone::Compute && !zones::wallclock_exempt(rel_path) {
        for i in 0..tokens.len() {
            if live(i) && text(i) == "." && text(i + 1) == "elapsed" && text(i + 2) == "(" {
                violations.push(Violation {
                    line: tokens[i + 1].line,
                    rule: "obs-clock-only-via-injection",
                    message: "`.elapsed()` in a compute crate reads the clock implicitly — \
                              subtract injected instants instead (gtl_core::obs::Span), so \
                              recording a span can never branch on time"
                        .into(),
                });
            }
        }
    }

    // ---- no-unordered-iteration-in-compute ----------------------------
    if zone == Zone::Compute {
        let hash_vars = collect_hash_vars(tokens);
        for (i, tok) in tokens.iter().enumerate() {
            if !live(i) || !is_ident(i) || !hash_vars.contains(tok.text.as_str()) {
                continue;
            }
            // `var.iter()` / `.keys()` / … method-call iteration.
            let method_iter = text(i + 1) == "."
                && HASH_ITER_METHODS.contains(&text(i + 2))
                && text(i + 3) == "(";
            // `for x in var` / `for x in &var` / `for x in &mut var`
            // direct iteration (IntoIterator), where `var` is not the
            // head of a further method chain.
            let mut direct_iter = false;
            if text(i + 1) != "." {
                let mut j = i;
                while j > 0 && matches!(text(j - 1), "&" | "mut") {
                    j -= 1;
                }
                direct_iter = j > 0 && text(j - 1) == "in";
            }
            if method_iter || direct_iter {
                violations.push(Violation {
                    line: tok.line,
                    rule: "no-unordered-iteration-in-compute",
                    message: format!(
                        "iterating hash container `{}` in a compute crate — HashMap/HashSet \
                         iteration order is nondeterministic; use BTreeMap/BTreeSet or sort \
                         after collecting",
                        tok.text
                    ),
                });
            }
        }
    }

    // ---- no-rng-outside-derive-stream ---------------------------------
    if zone == Zone::Compute {
        for i in 0..tokens.len() {
            if !live(i) || !is_ident(i) || !RNG_CONSTRUCTORS.contains(&text(i)) {
                continue;
            }
            if text(i + 1) != "(" {
                continue;
            }
            // Scan the argument list for a `derive_stream` call.
            let mut depth = 0isize;
            let mut j = i + 1;
            let mut routed = false;
            while j < tokens.len() {
                match text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    "derive_stream" => routed = true,
                    _ => {}
                }
                j += 1;
            }
            if !routed {
                violations.push(Violation {
                    line: tokens[i].line,
                    rule: "no-rng-outside-derive-stream",
                    message: format!(
                        "RNG constructed via `{}` without `derive_stream(master_seed, index)` — \
                         per-item streams must be derived, never shared or entropy-seeded, or \
                         results depend on scheduling",
                        text(i)
                    ),
                });
            }
        }
    }

    // ---- no-panic-on-serve-path ---------------------------------------
    if zones::on_serve_path(rel_path) {
        for i in 0..tokens.len() {
            if !live(i) {
                continue;
            }
            if text(i) == "." && matches!(text(i + 1), "unwrap" | "expect") && text(i + 2) == "(" {
                violations.push(Violation {
                    line: tokens[i + 1].line,
                    rule: "no-panic-on-serve-path",
                    message: format!(
                        "`.{}()` on the serve path — a panic here costs a connection or the \
                         server; return a structured ApiError (or waive with the proof of \
                         infallibility)",
                        text(i + 1)
                    ),
                });
            }
            if is_ident(i) && PANIC_MACROS.contains(&text(i)) && text(i + 1) == "!" {
                violations.push(Violation {
                    line: tokens[i].line,
                    rule: "no-panic-on-serve-path",
                    message: format!(
                        "`{}!` on the serve path — a panic here costs a connection or the \
                         server; return a structured ApiError (or waive with the proof of \
                         infallibility)",
                        text(i)
                    ),
                });
            }
        }
    }

    // ---- forbid-unsafe-attr -------------------------------------------
    if zones::is_crate_root(rel_path) {
        let uses_unsafe = tokens
            .iter()
            .enumerate()
            .any(|(i, t)| t.kind == TokenKind::Ident && t.text == "unsafe" && live(i));
        let has_attr = (0..tokens.len()).any(|i| {
            text(i) == "#"
                && text(i + 1) == "!"
                && text(i + 2) == "["
                && text(i + 3) == "forbid"
                && text(i + 4) == "("
                && text(i + 5) == "unsafe_code"
                && text(i + 6) == ")"
                && text(i + 7) == "]"
        });
        if !uses_unsafe && !has_attr {
            violations.push(Violation {
                line: 1,
                rule: "forbid-unsafe-attr",
                message: "crate root of an unsafe-free crate is missing #![forbid(unsafe_code)]"
                    .into(),
            });
        }
    }

    // ---- no-shared-temp-path-in-tests ---------------------------------
    // Tests run concurrently — as threads of one test binary and as
    // separate binaries — so a temp path spelled as one string literal
    // is shared by every test that runs the code, and one test
    // truncates another's input. Test code names its temp paths per
    // test and process instead (`format!("…_{}", std::process::id())`).
    if zone != Zone::Vendor {
        for i in 0..tokens.len() {
            if (zone == Zone::Test || !live(i))
                && text(i) == "temp_dir"
                && text(i + 1) == "("
                && text(i + 2) == ")"
                && text(i + 3) == "."
                && text(i + 4) == "join"
                && text(i + 5) == "("
                && tokens.get(i + 6).is_some_and(|t| t.kind == TokenKind::Str)
                && text(i + 7) == ")"
            {
                violations.push(Violation {
                    line: tokens[i].line,
                    rule: "no-shared-temp-path-in-tests",
                    message: format!(
                        "`temp_dir().join({})` in test code — every concurrently running test \
                         shares that path; name it per test and process \
                         (format!(\"…_{{}}\", std::process::id()))",
                        text(i + 6)
                    ),
                });
            }
        }
    }

    violations.sort_by_key(|v| (v.line, v.rule));
    violations
}

/// One lexed file of the tree, as the cross-file rule reads it.
pub struct LexedFile {
    /// Workspace-relative path.
    pub rel: PathBuf,
    /// The file's rule zone.
    pub zone: Zone,
    /// The file's tokens and comments.
    pub lexed: Lexed,
    /// Per-token test flags (see [`test_token_map`](crate::lexer::test_token_map)).
    pub in_test: Vec<bool>,
}

/// `pub-mod-reached`, the one rule that reads across files: every `pub
/// mod m;` in a `crates/*/src/lib.rs` must be named by live code in some
/// file other than `m`'s own (`m.rs`, or anything under `m/`, beside that
/// `lib.rs`). A name is an `m ::` or `:: m` path segment, or an identifier
/// inside a `use` statement. Test code (`#[cfg(test)]` items and the test
/// zone) does not count, so a module that only its own tests reach is
/// reported. Each violation comes back with the `lib.rs` that declares
/// the module.
pub fn check_pub_mods_reached(files: &[LexedFile]) -> Vec<(PathBuf, Violation)> {
    let named: Vec<BTreeSet<&str>> = files
        .iter()
        .map(|f| match f.zone {
            Zone::Compute | Zone::Io => live_path_names(&f.lexed.tokens, &f.in_test),
            Zone::Test | Zone::Vendor => BTreeSet::new(),
        })
        .collect();
    let mut violations = Vec::new();
    for file in files {
        let Some(src_dir) = lib_rs_src_dir(&file.rel) else {
            continue;
        };
        let tokens = &file.lexed.tokens;
        let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
        for i in 0..tokens.len() {
            let declares = !file.in_test[i]
                && text(i) == "pub"
                && text(i + 1) == "mod"
                && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                && text(i + 3) == ";";
            if !declares {
                continue;
            }
            let name = text(i + 2);
            let own_file = src_dir.join(format!("{name}.rs"));
            let own_dir = src_dir.join(name);
            let reached = files.iter().zip(&named).any(|(other, names)| {
                other.rel != own_file && !other.rel.starts_with(&own_dir) && names.contains(name)
            });
            if !reached {
                violations.push((
                    file.rel.clone(),
                    Violation {
                        line: tokens[i].line,
                        rule: "pub-mod-reached",
                        message: format!(
                            "`pub mod {name}` is named by no live code outside its own file \
                             (tests do not count) — nothing reaches it; delete it rather than \
                             keep it compiling"
                        ),
                    },
                ));
            }
        }
    }
    violations
}

/// `crates/<c>/src` when `rel` is `crates/<c>/src/lib.rs`.
fn lib_rs_src_dir(rel: &Path) -> Option<&Path> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let is_lib = matches!(parts.as_slice(), ["crates", _, "src", "lib.rs"]);
    is_lib.then(|| rel.parent()).flatten()
}

/// The identifiers live tokens use as a path segment (`m ::`, `:: m`) or
/// import (anywhere inside `use … ;`).
fn live_path_names<'a>(tokens: &'a [Token], in_test: &[bool]) -> BTreeSet<&'a str> {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut names = BTreeSet::new();
    let mut in_use = false;
    for (i, tok) in tokens.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if tok.kind != TokenKind::Ident {
            in_use &= tok.text != ";";
            continue;
        }
        in_use |= tok.text == "use";
        let segment = (text(i + 1) == ":" && text(i + 2) == ":")
            || (i >= 2 && text(i - 1) == ":" && text(i - 2) == ":");
        if in_use || segment {
            names.insert(tok.text.as_str());
        }
    }
    names
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: via
/// type ascription (`let x: HashMap<…>`, fn params, struct fields) or
/// via constructor assignment (`let x = HashMap::new()`).
fn collect_hash_vars(tokens: &[Token]) -> BTreeSet<String> {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut vars = BTreeSet::new();
    for i in 0..tokens.len() {
        if !(tokens[i].kind == TokenKind::Ident
            && (tokens[i].text == "HashMap" || tokens[i].text == "HashSet"))
        {
            continue;
        }
        // Type-ascription form: walk back over `: & mut std collections`
        // path/reference noise to the ascribed identifier.
        let mut j = i;
        while j > 0 {
            let prev = text(j - 1);
            let skip = matches!(prev, ":" | "&" | "mut" | "std" | "collections")
                || tokens[j - 1].kind == TokenKind::Lifetime;
            if !skip {
                break;
            }
            j -= 1;
        }
        if j < i && j > 0 && tokens[j - 1].kind == TokenKind::Ident && text(j) == ":" {
            vars.insert(tokens[j - 1].text.clone());
            continue;
        }
        // Constructor form: `let [mut] x = … HashMap::…` within the
        // current statement.
        if text(i + 1) == ":" && text(i + 2) == ":" {
            let mut k = i;
            while k > 0 && !matches!(text(k - 1), ";" | "{" | "}") {
                k -= 1;
                if text(k) == "let" {
                    let mut v = k + 1;
                    if text(v) == "mut" {
                        v += 1;
                    }
                    if tokens.get(v).is_some_and(|t| t.kind == TokenKind::Ident) {
                        vars.insert(tokens[v].text.clone());
                    }
                    break;
                }
            }
        }
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_token_map};

    fn check(rel: &str, zone: Zone, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let map = test_token_map(&lexed.tokens);
        check_file(Path::new(rel), zone, &lexed, &map)
    }

    #[test]
    fn hash_vars_are_collected_from_all_binding_forms() {
        let src = "
            fn f(names: &HashMap<String, u32>) {
                let mut edges: HashMap<(u32, u32), ()> = HashMap::new();
                let built = std::collections::HashSet::with_capacity(8);
                let plain = Vec::new();
            }
        ";
        let vars = collect_hash_vars(&lex(src).tokens);
        assert!(vars.contains("names"), "{vars:?}");
        assert!(vars.contains("edges"), "{vars:?}");
        assert!(vars.contains("built"), "{vars:?}");
        assert!(!vars.contains("plain"), "{vars:?}");
    }

    #[test]
    fn lookup_only_hash_use_is_clean() {
        let src = "
            fn f(names: &HashMap<String, u32>) -> Option<u32> {
                names.get(\"x\").copied()
            }
        ";
        assert!(check("crates/netlist/src/x.rs", Zone::Compute, src).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_compute_rules() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn t() {
                    let now = Instant::now();
                    std::thread::spawn(|| {});
                }
            }
        ";
        assert!(check("crates/place/src/x.rs", Zone::Compute, src).is_empty());
    }

    #[test]
    fn io_zone_may_use_clocks_but_not_threads() {
        let src = "fn f() { let t = Instant::now(); thread::spawn(|| {}); }";
        let v = check("crates/runtime/src/other.rs", Zone::Io, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-raw-thread");
    }

    #[test]
    fn elapsed_in_compute_is_flagged_but_subtraction_is_not() {
        let bad = "pub fn f(start: Instant) -> u128 { start.elapsed().as_micros() }";
        let v = check("crates/place/src/x.rs", Zone::Compute, bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "obs-clock-only-via-injection");
        let good = "pub fn f(s: Span, end: Instant) -> u64 { s.end_at(end) }";
        assert!(check("crates/place/src/x.rs", Zone::Compute, good).is_empty());
        // I/O zones own the clock: recording spans there is the design.
        assert!(check("crates/runtime/src/other.rs", Zone::Io, bad).is_empty());
    }

    #[test]
    fn derive_stream_routing_passes() {
        let src = "fn f() { let rng = SmallRng::seed_from_u64(derive_stream(seed, i)); }";
        assert!(check("crates/tangled/src/x.rs", Zone::Compute, src).is_empty());
    }
}
