//! geo-analyze: the source rules of the workspace's determinism/SPMD
//! catalog that no lint can express, and the bench-record checker.
//!
//! Every headline claim of this reproduction — thread-vs-process bitwise
//! agreement, rank-count independence, warm-restart fixed points — rests
//! on *source-level* invariants: no order-nondeterministic containers, no
//! clocks in the kernels, no panics on a rank path, no allocation in the
//! hot loops. Clippy holds the ones it ships a lint for (D1, D3, D4 and
//! the `Comm` half of D5; DESIGN.md §11 maps each to its lint and config
//! file). This crate checks the other two over every `.rs` file in the
//! workspace: D5 inside `run_spmd*` call spans and D10 inside loops marked
//! `// geo-analyze: hot-loop`. CI runs it with `cargo test --workspace`
//! and as its own `analyze` job.
//!
//! The analyzer is deliberately dependency-free and deliberately not a
//! parser: [`scan`] is a hand-rolled lexer that splits each line into
//! code/comment with literal contents blanked, and [`rules`] checks
//! token-level properties over that view. There is no waiver: a D5
//! finding is fixed, and D10 only covers the loops that opt in.

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
    /// Rule id (see [`rules::RULES`]).
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
    let mut out = rules::apply_rules(path, &lines, is_tests_file);
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

/// Every `.rs` file of the workspace's packages — the `crates/` and
/// `vendor/` trees and the umbrella package's `src/`, `tests/` and
/// `examples/` — as `(workspace-relative path, text)`, sorted by path.
/// The analyzer's own fixture corpus (deliberately-bad snippets under
/// `crates/analyze/tests/fixtures/`) is excluded.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "src", "tests", "examples"] {
        collect_rs(&root.join(dir), &mut files)?;
    }
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
    fn violations_carry_exact_positions_in_line_order() {
        let src = "fn f(xs: &[u8]) {\n    // geo-analyze: hot-loop\n    for x in xs {\n\n        let v = vec![*x];\n    }\n    run_spmd(2, |c| c.get().unwrap());\n}\n";
        let got: Vec<(usize, &str)> =
            analyze_source("crates/mesh/src/x.rs", src).iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(got, [(5, "hot-loop-alloc"), (7, "panic-in-spmd")]);
    }
}
