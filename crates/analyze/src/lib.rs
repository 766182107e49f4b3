//! geo-analyze: the workspace's determinism/SPMD invariant analyzer.
//!
//! Every headline claim of this reproduction — SoA≡AoS bitwise agreement,
//! thread-vs-process bitwise agreement, warm-restart fixed points — rests
//! on *source-level* invariants: fixed reduction trees, no
//! order-nondeterministic containers on output paths, no panics inside
//! rank closures. Dynamic tests check them at p ≤ 8; this crate checks
//! them at the source level, over every `.rs` file in the workspace, as a
//! tier-1 test (see DESIGN.md §11 for the catalog and rationale).
//!
//! The analyzer is deliberately dependency-free and deliberately not a
//! parser: [`scan`] is a hand-rolled lexer that splits each line into
//! code/comment with literal contents blanked, and [`rules`] checks
//! token-level properties over that view. Rules are **deny by default**;
//! the only escape hatch is an explicit, justified, per-line waiver:
//!
//! ```text
//! // geo-analyze: allow(hash-container): membership-only set, never iterated.
//! ```
//!
//! A waiver on a comment-only line covers the next code line; a waiver on
//! a code line covers that line. Waivers with an unknown rule id or an
//! empty justification are violations themselves (`invalid-waiver`), and
//! waivers that no longer suppress anything are flagged (`stale-waiver`)
//! so the escape hatches cannot rot in place.

pub mod json;
pub mod rules;
pub mod scan;
pub mod schema;

use std::path::{Path, PathBuf};

/// One diagnostic: a rule violated at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (see [`rules::RULES`]), or the meta rules
    /// `invalid-waiver` / `stale-waiver`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(path: &str, line: usize, rule: &'static str, message: String) -> Self {
        Violation { path: path.to_string(), line, rule, message }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// A parsed `// geo-analyze: allow(rule): justification` waiver.
#[derive(Debug)]
struct Waiver {
    rule: String,
    /// The code line the waiver suppresses (1-based).
    target_line: usize,
    /// The line the waiver comment sits on (1-based).
    at_line: usize,
    used: bool,
}

const WAIVER_MARK: &str = "geo-analyze:";

/// Parse waivers out of the scanned comments. Malformed waivers become
/// `invalid-waiver` violations immediately.
fn parse_waivers(path: &str, lines: &[scan::Line]) -> (Vec<Waiver>, Vec<Violation>) {
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // Waivers live in plain `//` comments only: a doc comment (`///`,
        // `//!` — its text starts with `/` or `!` after the scanner eats
        // `//`) mentioning the syntax is documentation, not a waiver.
        let doc = matches!(line.comment.trim_start().chars().next(), Some('/') | Some('!'));
        if doc {
            continue;
        }
        let Some(at) = line.comment.find(WAIVER_MARK) else { continue };
        let rest = line.comment[at + WAIVER_MARK.len()..].trim_start();
        // `hot-loop` after the mark is the D10 opt-in marker, not a waiver.
        if rest.starts_with("hot-loop") {
            continue;
        }
        let mut fail = |why: &str| {
            bad.push(Violation::new(path, i + 1, "invalid-waiver", why.to_string()));
        };
        let Some(rest) = rest.strip_prefix("allow(") else {
            fail("waiver must be written `geo-analyze: allow(rule): justification`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("waiver rule list is missing its closing `)`");
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !rules::known_rule(&rule) {
            bad.push(Violation::new(
                path,
                i + 1,
                "invalid-waiver",
                format!("unknown rule `{rule}` in waiver"),
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if justification.is_empty() {
            fail("waiver needs a non-empty justification after `):`");
            continue;
        }
        // A waiver on a code line covers that line; on a comment-only
        // line it covers the next line that has code.
        let target_line = if line.has_code() {
            i + 1
        } else {
            lines
                .iter()
                .enumerate()
                .skip(i + 1)
                .find(|(_, l)| l.has_code())
                .map(|(j, _)| j + 1)
                .unwrap_or(i + 1)
        };
        waivers.push(Waiver { rule, target_line, at_line: i + 1, used: false });
    }
    (waivers, bad)
}

/// Analyze one source file. `path` is the workspace-relative path with `/`
/// separators; rule scoping keys off it, so fixtures can impersonate any
/// location by passing a virtual path.
pub fn analyze_source(path: &str, text: &str) -> Vec<Violation> {
    analyze_source_opts(path, text, false)
}

/// [`analyze_source`] with an override: `force_test` treats the whole
/// file as test code (used for out-of-line `#[cfg(test)] mod name;`
/// module files, whose test-ness lives in the *declaring* file).
pub fn analyze_source_opts(path: &str, text: &str, force_test: bool) -> Vec<Violation> {
    let lines = scan::scan(text);
    let is_tests_file =
        force_test || path.contains("/tests/") || path.contains("/benches/");
    let raw = rules::apply_rules(path, &lines, is_tests_file);
    let (mut waivers, mut out) = parse_waivers(path, &lines);
    for v in raw {
        match waivers.iter_mut().find(|w| w.rule == v.rule && w.target_line == v.line) {
            Some(w) => w.used = true,
            None => out.push(v),
        }
    }
    for w in &waivers {
        if !w.used {
            out.push(Violation::new(
                path,
                w.at_line,
                "stale-waiver",
                format!("waiver for `{}` no longer suppresses anything; remove it", w.rule),
            ));
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Recursively collect `.rs` files, skipping build output.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Every `.rs` file under `root`'s `crates/` and `vendor/` trees as
/// `(workspace-relative path, text)`, sorted by path. The analyzer's own
/// fixture corpus (deliberately-bad snippets under
/// `crates/analyze/tests/fixtures/`) is excluded.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    collect_rs(&root.join("vendor"), &mut files)?;
    files.sort();
    let mut texts: Vec<(String, String)> = Vec::new();
    for f in &files {
        let rel: String = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/analyze/tests/fixtures/") {
            continue;
        }
        texts.push((rel, std::fs::read_to_string(f)?));
    }
    Ok(texts)
}

/// Analyze every source [`workspace_sources`] lists.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let texts = workspace_sources(root)?;
    // Phase 1: find files that are out-of-line `#[cfg(test)] mod name;`
    // modules — their test-ness is declared in the *parent* file, so a
    // single-file pass would misread them as production code.
    let mut test_files: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (rel, text) in &texts {
        let lines = scan::scan(text);
        for name in scan::out_of_line_test_mods(&lines) {
            let dir = module_dir(rel);
            test_files.insert(format!("{dir}/{name}.rs"));
            test_files.insert(format!("{dir}/{name}/mod.rs"));
        }
    }
    // Phase 2: analyze, forcing test scope where phase 1 says so.
    let mut out = Vec::new();
    for (rel, text) in &texts {
        out.extend(analyze_source_opts(rel, text, test_files.contains(rel)));
    }
    Ok(out)
}

/// The directory a file's child modules live in: `…/lib.rs`, `…/main.rs`,
/// and `…/mod.rs` own their containing directory; `…/foo.rs` owns `…/foo`.
fn module_dir(rel: &str) -> String {
    let (dir, file) = rel.rsplit_once('/').unwrap_or(("", rel));
    if matches!(file, "lib.rs" | "main.rs" | "mod.rs") {
        dir.to_string()
    } else {
        format!("{dir}/{}", file.trim_end_matches(".rs"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_suppresses_same_line_violation() {
        let src = "fn f() {\n    let m = HashMap::new(); // geo-analyze: allow(hash-container): never iterated, key lookups only.\n}\n";
        let v = analyze_source("crates/graph/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waiver_on_comment_line_covers_next_code_line() {
        let src = "fn f() {\n    // geo-analyze: allow(hash-container): lookup table, order never observed.\n    let m = HashMap::new();\n}\n";
        let v = analyze_source("crates/graph/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stale_waiver_is_flagged() {
        let src = "// geo-analyze: allow(hash-container): nothing here anymore.\nfn f() {}\n";
        let v = analyze_source("crates/graph/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "stale-waiver");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn invalid_waivers_are_flagged() {
        let no_reason = "let m = HashMap::new(); // geo-analyze: allow(hash-container):\n";
        let v = analyze_source("crates/graph/src/x.rs", no_reason);
        assert!(v.iter().any(|v| v.rule == "invalid-waiver"), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "hash-container"), "unwaived violation kept: {v:?}");

        let bad_rule = "// geo-analyze: allow(no-such-rule): whatever.\nfn f() {}\n";
        let v = analyze_source("crates/graph/src/x.rs", bad_rule);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "invalid-waiver");
    }

    #[test]
    fn violations_carry_exact_positions() {
        let src = "fn f() {\n\n    let s = HashSet::new();\n}\n";
        let v = analyze_source("crates/mesh/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].rule), (3, "hash-container"));
    }
}
