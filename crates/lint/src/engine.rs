//! The driver: walks a workspace tree, runs every rule over every `.rs`
//! file (and the cross-file `pub-mod-reached` over all of them), applies
//! waivers, checks the wire-surface freeze, and builds a deterministic
//! [`Report`].

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, test_token_map};
use crate::rules::{check_file, check_pub_mods_reached, LexedFile};
use crate::surface;
use crate::waiver::{extract_waivers, Waiver};
use crate::zones;
use crate::Violation;

/// Directories never descended into. `fixtures` keeps the lint's own
/// deliberately-violating test inputs out of a workspace run.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "fixtures", ".claude"];

/// How to run the engine.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root to walk.
    pub root: PathBuf,
    /// When set (`GTL_BLESS=1`), regenerate the wire-surface golden —
    /// refused if the surface changed without an `API_VERSION` bump.
    pub bless: bool,
}

/// One violation tied to its file.
#[derive(Debug)]
pub struct FileViolation {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// The violation itself.
    pub violation: Violation,
}

/// One applied (or unused) waiver tied to its file.
#[derive(Debug)]
pub struct FileWaiver {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// The waiver.
    pub waiver: Waiver,
    /// How many violations it suppressed.
    pub suppressed: usize,
}

/// The outcome of a full run. Everything is sorted by path, then line,
/// so output is byte-identical across runs and machines.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by any waiver — these fail the build.
    pub violations: Vec<FileViolation>,
    /// All waivers found, with their suppression counts (0 = unused,
    /// reported as a warning).
    pub waivers: Vec<FileWaiver>,
    /// Number of `.rs` files checked.
    pub files_checked: usize,
    /// Set when `--bless` wrote a new wire-surface golden.
    pub blessed: Option<String>,
}

impl Report {
    /// Whether the tree passes: no unwaived violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Waivers that suppressed nothing.
    pub fn unused_waivers(&self) -> impl Iterator<Item = &FileWaiver> {
        self.waivers.iter().filter(|w| w.suppressed == 0)
    }
}

/// Runs the lint over `options.root`. `Err` means the run itself could
/// not proceed (unreadable tree, refused bless) — distinct from a clean
/// run that found violations.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut files = Vec::new();
    collect_rs_files(&options.root, &mut files)
        .map_err(|e| format!("walking {}: {e}", options.root.display()))?;
    files.sort();

    let mut lexed_files = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path.strip_prefix(&options.root).unwrap_or(path).to_path_buf();
        let source = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let lexed = lex(&source);
        let in_test = test_token_map(&lexed.tokens);
        let zone = zones::classify(&rel);
        lexed_files.push(LexedFile { rel, zone, lexed, in_test });
    }
    let mut cross_file: BTreeMap<PathBuf, Vec<Violation>> = BTreeMap::new();
    for (path, violation) in check_pub_mods_reached(&lexed_files) {
        cross_file.entry(path).or_default().push(violation);
    }
    for file in &lexed_files {
        check_one(file, cross_file.remove(&file.rel).unwrap_or_default(), &mut report);
        report.files_checked += 1;
    }

    check_surface(options, &mut report)?;

    report.violations.sort_by(|a, b| {
        (&a.path, a.violation.line, a.violation.rule).cmp(&(
            &b.path,
            b.violation.line,
            b.violation.rule,
        ))
    });
    report
        .waivers
        .sort_by(|a, b| (&a.path, a.waiver.comment_line).cmp(&(&b.path, b.waiver.comment_line)));
    Ok(report)
}

/// Lints one file, plus the cross-file violations reported against it,
/// folding results into the report.
fn check_one(file: &LexedFile, cross_file: Vec<Violation>, report: &mut Report) {
    let rel = file.rel.as_path();
    let (waivers, waiver_errors) = extract_waivers(&file.lexed);
    let mut raw = check_file(rel, file.zone, &file.lexed, &file.in_test);
    raw.extend(cross_file);
    raw.extend(waiver_errors);

    // A waiver suppresses violations of its rule on its target line.
    let mut suppressed: BTreeMap<usize, usize> = BTreeMap::new();
    for v in raw {
        let hit = waivers.iter().position(|w| w.rule == v.rule && w.target_line == v.line);
        match hit {
            Some(wi) => *suppressed.entry(wi).or_insert(0) += 1,
            None => report.violations.push(FileViolation { path: rel.to_path_buf(), violation: v }),
        }
    }
    for (wi, waiver) in waivers.into_iter().enumerate() {
        report.waivers.push(FileWaiver {
            path: rel.to_path_buf(),
            waiver,
            suppressed: suppressed.get(&wi).copied().unwrap_or(0),
        });
    }
}

/// Runs the wire-surface freeze against the committed golden, handling
/// `--bless`. Skipped when the tree has no `crates/api/src/types.rs`
/// (fixture trees).
fn check_surface(options: &Options, report: &mut Report) -> Result<(), String> {
    let types_path = options.root.join(surface::SURFACE_SOURCE);
    if !types_path.is_file() {
        return Ok(());
    }
    let types_src =
        fs::read_to_string(&types_path).map_err(|e| format!("{}: {e}", types_path.display()))?;
    let live = surface::extract_surface(&types_src);
    let golden_path = options.root.join(surface::GOLDEN_PATH);
    let golden = fs::read_to_string(&golden_path).ok();

    if options.bless {
        surface::bless_allowed(&live, golden.as_deref())?;
        if golden.as_deref() != Some(live.as_str()) {
            if let Some(dir) = golden_path.parent() {
                fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            fs::write(&golden_path, &live)
                .map_err(|e| format!("{}: {e}", golden_path.display()))?;
            report.blessed = Some(format!(
                "blessed {} (API_VERSION {})",
                surface::GOLDEN_PATH,
                surface::api_version_of(&live).as_deref().unwrap_or("?")
            ));
        }
        return Ok(());
    }

    for violation in surface::check_freeze(&live, golden.as_deref()) {
        report
            .violations
            .push(FileViolation { path: PathBuf::from(surface::SURFACE_SOURCE), violation });
    }
    Ok(())
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`] and hidden
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders the report for terminal / CI consumption: violations first
/// (`path:line: [rule] message`), then unused-waiver warnings, then a
/// summary line.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    for fv in &report.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            fv.path.display(),
            fv.violation.line,
            fv.violation.rule,
            fv.violation.message
        ));
    }
    for fw in report.unused_waivers() {
        out.push_str(&format!(
            "{}:{}: warning: unused waiver for `{}` (reason: \"{}\") — remove it\n",
            fw.path.display(),
            fw.waiver.comment_line,
            fw.waiver.rule,
            fw.waiver.reason
        ));
    }
    if let Some(blessed) = &report.blessed {
        out.push_str(blessed);
        out.push('\n');
    }
    let active: usize = report.waivers.iter().filter(|w| w.suppressed > 0).count();
    let suppressed: usize = report.waivers.iter().map(|w| w.suppressed).sum();
    out.push_str(&format!(
        "gtl-lint: {} files checked, {} violations, {} waivers in force (suppressing {}), {} unused\n",
        report.files_checked,
        report.violations.len(),
        active,
        suppressed,
        report.unused_waivers().count()
    ));
    out
}
