//! The determinism/SPMD invariant catalog: rules D1, D3–D5 and D10. Five
//! ids are retired, their numbers kept so the others keep theirs: D2 (the
//! parallel-iterator float-reduction ban — no parallel iterator is left in
//! the workspace to reduce over), D6 (the frame-kind table of `proc.rs` —
//! an enum now, so a collision, an unused and an unknown kind are the
//! compiler's findings) and D7–D9 (rank-tainted guards, branch protocol
//! divergence, rank-tainted lengths — `CheckedComm` under
//! `tests/checked_sweep.rs` catches each of them at run time, on every
//! collective call site of the workspace; DESIGN.md §11 has the audit).
//!
//! Every rule is a token-level property over the scanned code/comment view
//! of one file ([`crate::scan`]), scoped where it needs a block by
//! brace-matched line spans. D10 is an opt-in allocation ban over loops
//! marked `// geo-analyze: hot-loop`. Scoping is by workspace-relative
//! path, so a rule only fires where the invariant it protects actually
//! lives (DESIGN.md §11 ties each rule to the PR that established its
//! invariant). `#[cfg(test)]` modules and files under `tests/` are exempt
//! from the rules whose hazards are production-only (D1/D4/D5); D3 and D10
//! apply everywhere.

use crate::scan::{self, Line};
use crate::Violation;

/// Rule ids and one-line summaries (the `--list` output).
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-container",
        "D1: no HashMap/HashSet in solver crates — iteration order is nondeterministic",
    ),
    ("unsafe-without-safety", "D3: every `unsafe` block carries a `// SAFETY:` comment"),
    (
        "kernel-entropy",
        "D4: no Instant/SystemTime/RNG construction inside kernel modules",
    ),
    (
        "panic-in-spmd",
        "D5: no unwrap/expect/panic! inside SPMD rank closures and Comm implementations",
    ),
    (
        "hot-loop-alloc",
        "D10: no allocation inside loops marked `// geo-analyze: hot-loop`",
    ),
];

/// Whether `id` names a rule a waiver may reference.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Crates whose `src/` is solver code: their outputs (partitions, cuts,
/// orderings) must be bit-reproducible, so iteration-order-nondeterministic
/// containers are banned there (D1). `parcomm`, `bench`, and `viz` are
/// infrastructure, not solvers.
const SOLVER_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/mesh/src/",
    "crates/graph/src/",
    "crates/spmv/src/",
    "crates/refine/src/",
    "crates/planner/src/",
    "crates/dsort/src/",
    "crates/baselines/src/",
    "crates/sfc/src/",
    "crates/geometry/src/",
];

/// Hot-path kernel modules: no wall clocks or entropy sources may be
/// *constructed* here (D4) — timing belongs to the callers/bench layer and
/// randomness must arrive as an explicit seeded generator.
const KERNEL_MODULES: &[&str] = &[
    "crates/core/src/kmeans.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/bounds.rs",
    "crates/core/src/influence.rs",
    "crates/graph/src/coarsen.rs",
    "crates/refine/src/multilevel.rs",
    "crates/spmv/src/lib.rs",
    "crates/planner/src/solve.rs",
    "crates/planner/src/hier_refine.rs",
];

/// Where Comm implementations live. D5 applies inside this crate's
/// `impl … Comm for …` blocks — `collectives.rs`'s blanket impl over every
/// transport is where the collective bodies live — and the `Comm` trait
/// declaration (a panic there strands peers inside collectives —
/// DESIGN.md §10). Free functions beside them (`wire.rs`/`stats.rs`
/// serialization helpers, the transports) fail loud by design.
const COMM_IMPL_SRC: &str = "crates/parcomm/src/";

/// Entry points whose closure argument runs as an SPMD rank: D5 applies
/// inside the call span.
const SPMD_ENTRY_POINTS: &[&str] =
    &["run_spmd", "run_spmd_proc", "run_spmd_checked", "run_spmd_proc_checked"];

/// Run every rule over one scanned file.
pub fn apply_rules(path: &str, lines: &[Line], is_tests_file: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    d1_hash_container(path, lines, is_tests_file, &mut out);
    d3_unsafe_without_safety(path, lines, &mut out);
    d4_kernel_entropy(path, lines, is_tests_file, &mut out);
    d5_panic_in_spmd(path, lines, is_tests_file, &mut out);
    d10_hot_loop_alloc(path, lines, &mut out);
    out
}

fn exempt(line: &Line, is_tests_file: bool) -> bool {
    is_tests_file || line.in_cfg_test || !line.has_code()
}

/// First identifier of `s` (empty if `s` does not start with one).
fn leading_ident(s: &str) -> &str {
    let end = s.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(s.len());
    &s[..end]
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

fn d1_hash_container(path: &str, lines: &[Line], is_tests_file: bool, out: &mut Vec<Violation>) {
    if !SOLVER_SRC.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if exempt(line, is_tests_file) {
            continue;
        }
        let trimmed = line.code.trim_start();
        // A bare import is harmless; the construction/use sites are what
        // can leak iteration order.
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        for tok in ["HashMap", "HashSet"] {
            if scan::has_token(&line.code, tok) {
                out.push(Violation::new(
                    path,
                    i + 1,
                    "hash-container",
                    format!(
                        "{tok} in solver code: iteration order is nondeterministic and can \
                         leak into partitions; use BTreeMap/sorted vectors, or waive if the \
                         container is never iterated"
                    ),
                ));
            }
        }
    }
}

fn d3_unsafe_without_safety(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        let Some(at) = scan::find_token(&line.code, "unsafe") else { continue };
        let rest = line.code[at + "unsafe".len()..].trim_start();
        // `unsafe fn` / `unsafe impl` / `unsafe trait` / `unsafe extern`
        // are declarations; the rule is about unsafe *blocks*.
        if matches!(leading_ident(rest), "fn" | "impl" | "trait" | "extern") {
            continue;
        }
        if has_safety_comment(lines, i) {
            continue;
        }
        out.push(Violation::new(
            path,
            i + 1,
            "unsafe-without-safety",
            "`unsafe` block without a `// SAFETY:` comment stating the invariant that \
             makes it sound"
                .to_string(),
        ));
    }
}

/// SAFETY may sit on the `unsafe` line itself or in the contiguous run of
/// comment-only lines directly above it (blank lines break the run).
fn has_safety_comment(lines: &[Line], i: usize) -> bool {
    if lines[i].comment.contains("SAFETY") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.has_code() || l.comment.is_empty() {
            return false;
        }
        if l.comment.contains("SAFETY") {
            return true;
        }
    }
    false
}

fn d4_kernel_entropy(path: &str, lines: &[Line], is_tests_file: bool, out: &mut Vec<Violation>) {
    if !KERNEL_MODULES.contains(&path) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if exempt(line, is_tests_file) {
            continue;
        }
        let trimmed = line.code.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        for tok in ["Instant", "SystemTime", "thread_rng", "from_entropy", "OsRng"] {
            if scan::has_token(&line.code, tok) {
                out.push(Violation::new(
                    path,
                    i + 1,
                    "kernel-entropy",
                    format!(
                        "`{tok}` inside a kernel module: wall clocks and entropy make \
                         kernel behavior run-dependent; time in the caller, seed \
                         explicitly, or waive for the measurement itself"
                    ),
                ));
            }
        }
    }
}

fn d5_panic_in_spmd(path: &str, lines: &[Line], is_tests_file: bool, out: &mut Vec<Violation>) {
    if !path.starts_with("crates/") {
        return;
    }
    let mut spans = spmd_call_spans(lines);
    if path.starts_with(COMM_IMPL_SRC) {
        spans.extend(comm_impl_spans(lines));
    }
    let mut flagged = vec![false; lines.len()];
    for (s, e) in spans {
        for i in s..e.min(lines.len()) {
            if flagged[i] || exempt(&lines[i], is_tests_file) {
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
                         collectives (DESIGN.md §10); return an error, or waive for \
                         deliberate fail-loud abort paths"
                    ),
                ));
            }
        }
    }
}

/// 0-based line spans (start inclusive, end exclusive) of `impl … Comm
/// for …` blocks and the `Comm` trait declaration itself (default
/// collective bodies live there).
fn comm_impl_spans(lines: &[Line]) -> Vec<(usize, usize)> {
    let followed_by = |code: &str, tok: &str, next: &str| {
        token_ends(code, tok).any(|end| leading_ident(code[end..].trim_start()) == next)
    };
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            (scan::has_token(&l.code, "impl") && followed_by(&l.code, "Comm", "for"))
                || followed_by(&l.code, "trait", "Comm")
        })
        .filter_map(|(i, _)| Some((i, block_end(lines, i, 0)?)))
        .collect()
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
    fn d1_scopes_to_solver_crates_only() {
        let src = "fn f() { let m = HashMap::new(); }\n";
        assert!(!analyze_source("crates/core/src/x.rs", src).is_empty());
        assert!(analyze_source("crates/bench/src/x.rs", src).is_empty());
        assert!(analyze_source("crates/viz/src/x.rs", src).is_empty());
    }

    #[test]
    fn d1_ignores_imports_tests_and_comments() {
        let src = "use std::collections::HashMap;\n// HashMap in prose\n#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); }\n}\n";
        assert!(analyze_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_accepts_safety_on_line_or_above() {
        let above = "fn f(v: &mut Vec<u8>) {\n    // SAFETY: capacity reserved above.\n    unsafe { v.set_len(4) }\n}\n";
        assert!(analyze_source("crates/core/src/x.rs", above).is_empty());
        let inline = "fn f(v: &mut Vec<u8>) {\n    unsafe { v.set_len(4) } // SAFETY: capacity reserved above.\n}\n";
        assert!(analyze_source("crates/core/src/x.rs", inline).is_empty());
        let missing = "fn f(v: &mut Vec<u8>) {\n    unsafe { v.set_len(4) }\n}\n";
        let v = analyze_source("crates/core/src/x.rs", missing);
        assert_eq!((v[0].line, v[0].rule), (2, "unsafe-without-safety"));
    }

    #[test]
    fn d3_skips_unsafe_declarations() {
        let src = "unsafe fn raw() {}\nunsafe impl Send for X {}\n";
        assert!(analyze_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d5_comm_impls_in_parcomm_and_spans_elsewhere() {
        // Inside an `impl Comm for …` block: in scope.
        let in_impl = "struct X;\nimpl Comm for X {\n    fn f(&self, x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let v = analyze_source("crates/parcomm/src/lib.rs", in_impl);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (3, "panic-in-spmd"));
        // The blanket impl over every transport, where the collective
        // bodies live: in scope; a transport impl beside it is not.
        let blanket = "impl<X: Transport> Comm for X {\n    fn f(&self, x: Option<u8>) -> u8 { x.unwrap() }\n}\nimpl Transport for Y {\n    fn g(&self, x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let v = analyze_source("crates/parcomm/src/collectives.rs", blanket);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (2, "panic-in-spmd"));
        // Default methods of the `Comm` trait declaration: in scope.
        let in_trait = "trait Comm {\n    fn f(&self, x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(!analyze_source("crates/parcomm/src/lib.rs", in_trait).is_empty());
        // A free helper fn in the same file: no longer in D5 scope.
        let bare = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(analyze_source("crates/parcomm/src/lib.rs", bare).is_empty());
        // Outside parcomm, only rank-closure spans are checked.
        assert!(analyze_source("crates/bench/src/x.rs", bare).is_empty());
        let spmd = "fn go() {\n    let r = run_spmd(4, |c| {\n        c.stats().total.checked_add(1).unwrap()\n    });\n    r.first().unwrap();\n}\n";
        let v = analyze_source("crates/bench/src/x.rs", spmd);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3, "only the line inside the call span fires: {v:?}");
    }

    #[test]
    fn d5_does_not_fire_on_non_panicking_cousins() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }\nfn g(r: Result<u8, u8>) -> u8 { r.unwrap_or_else(|e| e) }\n";
        assert!(analyze_source("crates/parcomm/src/lib.rs", src).is_empty());
    }

    #[test]
    fn d10_nested_marked_loops_report_once_and_unmarked_loops_are_free() {
        let src = "fn f(xs: &[Vec<u8>]) {\n    // geo-analyze: hot-loop\n    for x in xs {\n        for y in x { // geo-analyze: hot-loop\n            let v = x.clone();\n        }\n        let n = x.len();\n    }\n    for x in xs {\n        let w = x.to_vec();\n    }\n}\n";
        let v = analyze_source("crates/core/src/x.rs", src);
        let got: Vec<(usize, &str)> = v.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(got, [(5, "hot-loop-alloc")], "{v:?}");
    }
}
