//! The source rules no lint can express: D5's `run_spmd*` rank spans and
//! D10's marked hot loops. The rest of DESIGN.md §11's catalog is held
//! elsewhere. D1, D3, D4 and D5's `Comm` half are clippy configuration
//! (`clippy.toml` and `[workspace.lints.clippy]`), pinned by
//! `tests/workspace_clean.rs`. D2 and D6–D9 are retired, their numbers
//! kept so the others keep theirs: no parallel iterator is left to reduce
//! over (D2), the frame-kind table of `proc.rs` is an enum the compiler
//! checks (D6), and `CheckedComm` under `tests/checked_sweep.rs` catches
//! rank-dependent collectives at run time, on every collective call site
//! of the workspace (D7–D9).
//!
//! Both rules are token-level properties over the scanned code/comment
//! view of one file ([`crate::scan`]), scoped to a brace- or paren-matched
//! line span. D10 is opt-in: it covers loops marked
//! `// geo-analyze: hot-loop`, in every file. D5 is a production-only
//! hazard, so `#[cfg(test)]` modules and files under `tests/` are exempt.

use crate::scan::{self, Line};
use crate::Violation;

/// Rule ids and one-line summaries (the `--list` output).
pub const RULES: &[(&str, &str)] = &[
    ("panic-in-spmd", "D5: no unwrap/expect/panic! inside SPMD rank closures"),
    (
        "hot-loop-alloc",
        "D10: no allocation inside loops marked `// geo-analyze: hot-loop`",
    ),
];

/// Entry points whose closure argument runs as an SPMD rank: D5 applies
/// inside the call span.
const SPMD_ENTRY_POINTS: &[&str] =
    &["run_spmd", "run_spmd_proc", "run_spmd_checked", "run_spmd_proc_checked"];

/// Run every rule over one scanned file.
pub fn apply_rules(path: &str, lines: &[Line], is_tests_file: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    d5_panic_in_spmd(path, lines, is_tests_file, &mut out);
    d10_hot_loop_alloc(path, lines, &mut out);
    out
}

/// Byte offsets just past every whole-token occurrence of `ident` in `code`.
fn token_ends<'a>(code: &'a str, ident: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        from += scan::find_token(&code[from..], ident)? + ident.len();
        Some(from)
    })
}

/// Where the brace-matched block whose header starts at byte `col` of
/// 0-based line `start` ends: one past the line of the `}` matching the
/// first `{` at or after that position.
fn block_end(lines: &[Line], start: usize, col: usize) -> Option<usize> {
    let (open_line, open_col) = lines.iter().enumerate().skip(start).find_map(|(l, line)| {
        let from = if l == start { col } else { 0 };
        line.code[from..].find('{').map(|c| (l, from + c))
    })?;
    scan::match_brace(lines, open_line, open_col).map(|end| end + 1)
}

fn d5_panic_in_spmd(path: &str, lines: &[Line], is_tests_file: bool, out: &mut Vec<Violation>) {
    if is_tests_file || !path.starts_with("crates/") {
        return;
    }
    let mut flagged = vec![false; lines.len()];
    for (s, e) in spmd_call_spans(lines) {
        for i in s..e.min(lines.len()) {
            if flagged[i] || lines[i].in_cfg_test {
                continue;
            }
            if let Some(what) = panic_pattern(&lines[i].code) {
                flagged[i] = true;
                out.push(Violation::new(
                    path,
                    i + 1,
                    "panic-in-spmd",
                    format!(
                        "{what} on an SPMD rank path: a panic here strands peers inside \
                         collectives (DESIGN.md §10); return an error instead"
                    ),
                ));
            }
        }
    }
}

/// Line spans (inclusive start, exclusive end) of `run_spmd*`-family call
/// arguments: the closure inside runs as a rank.
fn spmd_call_spans(lines: &[Line]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for ep in SPMD_ENTRY_POINTS {
            let Some(at) = scan::find_token(&line.code, ep) else { continue };
            let after = line.code[at + ep.len()..].trim_start();
            if !after.starts_with('(') {
                continue; // a definition or an import, not a call
            }
            let open = at + line.code[at..].find('(').unwrap_or(0);
            if let Some(end) = scan::match_paren(lines, i, open) {
                spans.push((i, end + 1));
            }
        }
    }
    spans
}

/// The panicking constructs D5 bans. Exact-token matches, so
/// `unwrap_or_else`/`unwrap_or_default`/`expect_err` do not fire;
/// `assert!`-family macros are allowed (they express checked invariants).
fn panic_pattern(code: &str) -> Option<&'static str> {
    if let Some(at) = scan::find_token(code, "unwrap") {
        if code[at + "unwrap".len()..].trim_start().starts_with("()") {
            return Some("`.unwrap()`");
        }
    }
    if let Some(at) = scan::find_token(code, "expect") {
        if code[at + "expect".len()..].trim_start().starts_with('(') {
            return Some("`.expect(..)`");
        }
    }
    for (mac, label) in
        [("panic", "`panic!`"), ("unreachable", "`unreachable!`"), ("todo", "`todo!`")]
    {
        if let Some(at) = scan::find_token(code, mac) {
            if code[at + mac.len()..].trim_start().starts_with('!') {
                return Some(label);
            }
        }
    }
    None
}

/// Whether `line` carries a `// geo-analyze: hot-loop` marker (a plain
/// comment; a doc comment mentioning the syntax is documentation).
pub fn hot_loop_marker(line: &Line) -> bool {
    let doc = matches!(line.comment.trim_start().chars().next(), Some('/') | Some('!'));
    !doc && line.comment.contains("geo-analyze: hot-loop")
}

/// The allocating constructs D10 bans inside marked hot loops: `vec!` /
/// `format!`, the `.collect` / `.to_vec` / `.clone` methods, and
/// `Vec::new` / `Vec::with_capacity`.
fn banned_alloc(code: &str) -> Option<String> {
    for mac in ["vec", "format"] {
        if token_ends(code, mac).any(|end| code[end..].starts_with('!')) {
            return Some(format!("`{mac}!`"));
        }
    }
    for method in ["collect", "to_vec", "clone"] {
        let called = |end: usize| {
            let rest = code[end..].trim_start();
            code[..end - method.len()].trim_end().ends_with('.')
                && (rest.starts_with('(') || rest.starts_with("::<"))
        };
        if token_ends(code, method).any(called) {
            return Some(format!("`.{method}()`"));
        }
    }
    for ctor in ["new", "with_capacity"] {
        let path = format!("::{ctor}(");
        if token_ends(code, "Vec").any(|end| code[end..].starts_with(&path)) {
            return Some(format!("`Vec::{ctor}()`"));
        }
    }
    None
}

/// D10 (`hot-loop-alloc`): loops marked `// geo-analyze: hot-loop` (on the
/// loop line or the plain comment line directly above) must not allocate —
/// the assignment kernel's buffers are sized up front, and a stray
/// `collect`/`clone`/`vec!` in the per-point loop is a silent O(n)
/// regression the benches only catch at scale.
fn d10_hot_loop_alloc(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    let mut flagged = vec![false; lines.len()];
    for (m, marked) in lines.iter().enumerate() {
        if !hot_loop_marker(marked) {
            continue;
        }
        let at = if marked.has_code() { m } else { m + 1 };
        let Some(kw) = lines.get(at).and_then(|l| {
            ["for", "while", "loop"].iter().find_map(|kw| scan::find_token(&l.code, kw))
        }) else {
            continue;
        };
        let Some(end) = block_end(lines, at, kw) else { continue };
        for i in at..end {
            let Some(what) = banned_alloc(&lines[i].code) else { continue };
            if std::mem::replace(&mut flagged[i], true) {
                continue; // nested marked loops: report once
            }
            out.push(Violation::new(
                path,
                i + 1,
                "hot-loop-alloc",
                format!(
                    "{what} inside a `geo-analyze: hot-loop` kernel loop: allocate outside \
                     the loop and reuse the buffer (DESIGN.md §9)"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_source;

    #[test]
    fn d5_fires_inside_rank_spans_only() {
        let spmd = "fn go() {\n    let r = run_spmd(4, |c| {\n        c.stats().total.checked_add(1).unwrap()\n    });\n    r.first().unwrap();\n}\n";
        let v = analyze_source("crates/bench/src/x.rs", spmd);
        assert_eq!(v.len(), 1, "{v:?}");
        // Only the line inside the call span fires.
        assert_eq!((v[0].line, v[0].rule), (3, "panic-in-spmd"));
        // A test file, and code outside `crates/`, are out of scope.
        assert!(analyze_source("crates/bench/tests/x.rs", spmd).is_empty());
        assert!(analyze_source("vendor/x/src/lib.rs", spmd).is_empty());
    }

    #[test]
    fn d5_does_not_fire_on_non_panicking_cousins() {
        let src = "fn go() {\n    run_spmd(2, |c| {\n        let a = c.first().unwrap_or_default();\n        c.get().unwrap_or_else(|e| e).expect_err(a)\n    });\n}\n";
        assert!(analyze_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d10_nested_marked_loops_report_once_and_unmarked_loops_are_free() {
        let src = "fn f(xs: &[Vec<u8>]) {\n    // geo-analyze: hot-loop\n    for x in xs {\n        for y in x { // geo-analyze: hot-loop\n            let v = x.clone();\n        }\n        let n = x.len();\n    }\n    for x in xs {\n        let w = x.to_vec();\n    }\n}\n";
        let v = analyze_source("crates/core/src/x.rs", src);
        let got: Vec<(usize, &str)> = v.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(got, [(5, "hot-loop-alloc")], "{v:?}");
    }
}
