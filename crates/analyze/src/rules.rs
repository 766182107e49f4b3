//! The determinism/SPMD invariant catalog: rules D1–D10 (D2, the
//! parallel-iterator float-reduction ban, is retired: no parallel iterator
//! is left in the workspace to reduce over).
//!
//! D1, D3–D6 are token-level properties over the scanned code/comment view of
//! one file ([`crate::scan`]). D7–D9 are dataflow properties over the
//! parsed expression tree ([`crate::parse`]): rank-taint propagation
//! ([`crate::taint`]) and collective-protocol summaries
//! ([`crate::protocol`]). D10 is an opt-in allocation ban over loops
//! marked `// geo-analyze: hot-loop`. Scoping is by workspace-relative
//! path, so a rule only fires where the invariant it protects actually
//! lives (DESIGN.md §11–§12 tie each rule to the PR that established its
//! invariant). `#[cfg(test)]` modules and files under `tests/` are exempt
//! from the rules whose hazards are production-only (D1/D4/D5 and
//! D7–D9); D3, D6, and D10 apply everywhere.

use std::collections::BTreeSet;

use crate::parse::{CallSite, Node, ParsedFile};
use crate::scan::{self, Line};
use crate::Violation;
use crate::{callgraph, protocol, taint};

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
    ("wire-kind-table", "D6: frame-kind constants are collision-free and all used"),
    (
        "rank-tainted-guard",
        "D7: no collective call dominated by a rank-dependent branch or loop condition",
    ),
    (
        "protocol-divergence",
        "D8: every path through a rank-dependent branch issues the same collective sequence",
    ),
    (
        "rank-tainted-length",
        "D9: collective buffer lengths and broadcast roots must not be rank-dependent",
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

/// Files that contain Comm implementations. With a parse in hand, D5
/// applies inside `impl … Comm for …` blocks — `collectives.rs`'s blanket
/// impl over every transport is where the collective bodies live — and
/// the `Comm` trait declaration (a panic there strands peers inside
/// collectives — DESIGN.md §10); without one, the whole file stays in
/// scope as before. `wire.rs`/`stats.rs` are serialization helpers, not
/// collectives, and fail-loud on malformed frames by design.
const PANIC_SCOPE_FILES: &[&str] = &[
    "crates/parcomm/src/lib.rs",
    "crates/parcomm/src/collectives.rs",
    "crates/parcomm/src/thread.rs",
    "crates/parcomm/src/proc.rs",
    "crates/parcomm/src/checked.rs",
];

/// Entry points whose closure argument runs as an SPMD rank: D5 applies
/// inside the call span.
const SPMD_ENTRY_POINTS: &[&str] =
    &["run_spmd", "run_spmd_proc", "run_spmd_checked", "run_spmd_proc_checked"];

/// Run every rule over one scanned file. `parsed` is the expression-tree
/// view when the file parses (D5 scoping, D7–D10); when it is `None` the
/// dataflow rules stand down and D5 falls back to its lexical scope.
pub fn apply_rules(
    path: &str,
    lines: &[Line],
    is_tests_file: bool,
    parsed: Option<&ParsedFile>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    d1_hash_container(path, lines, is_tests_file, &mut out);
    d3_unsafe_without_safety(path, lines, &mut out);
    d4_kernel_entropy(path, lines, is_tests_file, &mut out);
    d5_panic_in_spmd(path, lines, is_tests_file, parsed, &mut out);
    d6_wire_kind_table(path, lines, &mut out);
    d7_d8_d9_protocol(path, is_tests_file, parsed, &mut out);
    d10_hot_loop_alloc(path, lines, parsed, &mut out);
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

fn d5_panic_in_spmd(
    path: &str,
    lines: &[Line],
    is_tests_file: bool,
    parsed: Option<&ParsedFile>,
    out: &mut Vec<Violation>,
) {
    let spans: Vec<(usize, usize)> = if PANIC_SCOPE_FILES.contains(&path) {
        match parsed {
            Some(p) => {
                let mut spans = comm_impl_spans(p);
                spans.extend(spmd_call_spans(lines));
                spans
            }
            // No parse: lexical fallback, whole file in scope.
            None => vec![(0, lines.len())],
        }
    } else if path.starts_with("crates/") {
        spmd_call_spans(lines)
    } else {
        return;
    };
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
fn comm_impl_spans(parsed: &ParsedFile) -> Vec<(usize, usize)> {
    parsed
        .impls
        .iter()
        .filter(|b| {
            b.trait_name.as_deref() == Some("Comm") || (b.is_trait_decl && b.self_ty == "Comm")
        })
        .map(|b| (b.start_line.saturating_sub(1), b.end_line))
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

fn d6_wire_kind_table(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    // Applies to any file that declares a `mod kind { … }` frame table.
    let Some((mod_line, open_col)) = lines.iter().enumerate().find_map(|(i, l)| {
        (scan::has_token(&l.code, "mod") && scan::has_token(&l.code, "kind"))
            .then(|| l.code.find('{').map(|c| (i, c)))
            .flatten()
    }) else {
        return;
    };
    let Some(end_line) = scan::match_brace(lines, mod_line, open_col) else { return };

    // Collect `pub const NAME: u8 = N;` declarations inside the module.
    let mut consts: Vec<(String, u64, usize)> = Vec::new();
    for (j, line) in lines.iter().enumerate().take(end_line + 1).skip(mod_line) {
        if let Some((name, value)) = parse_kind_const(&line.code) {
            if let Some((other, _, _)) = consts.iter().find(|(_, v, _)| *v == value) {
                out.push(Violation::new(
                    path,
                    j + 1,
                    "wire-kind-table",
                    format!("frame kind `{name}` = {value} collides with `{other}`"),
                ));
            }
            consts.push((name, value, j + 1));
        }
    }

    // Every declared kind must be sent/matched somewhere in the file, and
    // every `kind::X` reference must resolve — together: the table is
    // exhaustive with respect to the protocol the file implements.
    let mut referenced: Vec<(String, usize)> = Vec::new();
    for (j, line) in lines.iter().enumerate() {
        if (mod_line..=end_line).contains(&j) {
            continue;
        }
        let mut s = line.code.as_str();
        while let Some(p) = s.find("kind::") {
            let name = leading_ident(&s[p + "kind::".len()..]);
            if !name.is_empty() {
                referenced.push((name.to_string(), j + 1));
            }
            s = &s[p + "kind::".len()..];
        }
    }
    for (name, _, decl_line) in &consts {
        if !referenced.iter().any(|(n, _)| n == name) {
            out.push(Violation::new(
                path,
                *decl_line,
                "wire-kind-table",
                format!("frame kind `{name}` is declared but never used on the wire"),
            ));
        }
    }
    for (name, at) in &referenced {
        if !consts.iter().any(|(n, _, _)| n == name) {
            out.push(Violation::new(
                path,
                *at,
                "wire-kind-table",
                format!("`kind::{name}` is not declared in the frame-kind table"),
            ));
        }
    }
}

/// Parse `pub const NAME: u8 = N` out of one code line.
fn parse_kind_const(code: &str) -> Option<(String, u64)> {
    let at = scan::find_token(code, "const")?;
    let rest = code[at + "const".len()..].trim_start();
    let name = leading_ident(rest);
    if name.is_empty() {
        return None;
    }
    let rest = rest[name.len()..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix("u8")?.trim_start().strip_prefix('=')?.trim_start();
    let digits = &rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())];
    digits.parse().ok().map(|v| (name.to_string(), v))
}

/// D7 (`rank-tainted-guard`), D8 (`protocol-divergence`), and D9
/// (`rank-tainted-length`): rank-taint dataflow plus per-fn protocol
/// comparison over the parsed tree. Production `crates/` code only;
/// `parcomm` is exempt because collective *internals* are rank-dependent
/// by construction (that is what a collective implementation is).
fn d7_d8_d9_protocol(
    path: &str,
    is_tests_file: bool,
    parsed: Option<&ParsedFile>,
    out: &mut Vec<Violation>,
) {
    if is_tests_file || !path.starts_with("crates/") || path.starts_with("crates/parcomm/") {
        return;
    }
    let Some(parsed) = parsed else { return };
    let ws = callgraph::Workspace::from_single(path, parsed.clone());
    let mut sm = protocol::Summarizer::new(&ws);
    let file = &ws.files[0];
    for f in &file.parsed.fns {
        if f.is_test {
            continue;
        }
        let t = taint::analyze_fn(path, f, &file.parsed.toks);
        out.extend(t.violations);
        out.extend(protocol::check_d8_fn(path, &mut sm, 0, f, &t.tainted_conds));
    }
}

/// Whether the loop opening at 1-based `loop_line` carries a
/// `// geo-analyze: hot-loop` marker (same line or the plain comment line
/// directly above).
fn hot_loop_marked(lines: &[Line], loop_line: usize) -> bool {
    [loop_line, loop_line.saturating_sub(1)].iter().any(|&l| {
        l >= 1
            && lines.get(l - 1).is_some_and(|ln| {
                let doc = matches!(ln.comment.trim_start().chars().next(), Some('/') | Some('!'));
                !doc && ln.comment.contains("geo-analyze: hot-loop")
            })
    })
}

/// The allocating constructs D10 bans inside marked hot loops.
fn banned_alloc(c: &CallSite) -> Option<String> {
    if c.is_macro && matches!(c.name.as_str(), "vec" | "format") {
        return Some(format!("`{}!`", c.name));
    }
    if c.is_method && matches!(c.name.as_str(), "collect" | "to_vec" | "clone") {
        return Some(format!("`.{}()`", c.name));
    }
    if !c.is_method
        && !c.is_macro
        && matches!(c.name.as_str(), "new" | "with_capacity")
        && c.qual.last().is_some_and(|q| q == "Vec")
    {
        return Some(format!("`Vec::{}()`", c.name));
    }
    None
}

/// D10 (`hot-loop-alloc`): loops marked `// geo-analyze: hot-loop` must
/// not allocate — the SoA/AoS assignment kernels are sized up front, and
/// a stray `collect`/`clone`/`vec!` in the per-point loop is a silent
/// O(n) regression the benches only catch at scale.
fn d10_hot_loop_alloc(
    path: &str,
    lines: &[Line],
    parsed: Option<&ParsedFile>,
    out: &mut Vec<Violation>,
) {
    let Some(parsed) = parsed else { return };
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for f in &parsed.fns {
        d10_walk(path, lines, &f.body, &mut seen, out);
    }
}

fn d10_walk(
    path: &str,
    lines: &[Line],
    nodes: &[Node],
    seen: &mut BTreeSet<(usize, usize)>,
    out: &mut Vec<Violation>,
) {
    for n in nodes {
        match n {
            Node::Seg(_) => {}
            Node::Block(b) => d10_walk(path, lines, b, seen, out),
            Node::Exit { value, .. } => d10_walk(path, lines, value, seen, out),
            Node::Let { init, else_b, .. } => {
                d10_walk(path, lines, init, seen, out);
                d10_walk(path, lines, else_b, seen, out);
            }
            Node::If { cond, then_b, else_b, .. } => {
                d10_walk(path, lines, cond, seen, out);
                d10_walk(path, lines, then_b, seen, out);
                d10_walk(path, lines, else_b, seen, out);
            }
            Node::Match { scrutinee, arms, .. } => {
                d10_walk(path, lines, scrutinee, seen, out);
                for a in arms {
                    d10_walk(path, lines, &a.guard, seen, out);
                    d10_walk(path, lines, &a.body, seen, out);
                }
            }
            Node::Loop { cond, body, line, .. } => {
                if hot_loop_marked(lines, *line) {
                    let mut calls = Vec::new();
                    callgraph::collect_calls(body, &mut calls);
                    for c in calls {
                        let Some(what) = banned_alloc(c) else { continue };
                        if !seen.insert((c.line, c.col)) {
                            continue; // nested marked loops: report once
                        }
                        out.push(Violation::new(
                            path,
                            c.line,
                            "hot-loop-alloc",
                            format!(
                                "{what} inside a `geo-analyze: hot-loop` kernel loop: \
                                 allocate outside the loop and reuse the buffer \
                                 (DESIGN.md §12)"
                            ),
                        ));
                    }
                }
                d10_walk(path, lines, cond, seen, out);
                d10_walk(path, lines, body, seen, out);
            }
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
    fn d6_catches_collisions_unused_and_undeclared() {
        let src = "mod kind {\n    pub const A: u8 = 1;\n    pub const B: u8 = 1;\n    pub const C: u8 = 3;\n}\nfn f() -> (u8, u8) { (kind::A, kind::D) }\n";
        let v = analyze_source("crates/parcomm/src/x.rs", src);
        let got: Vec<(usize, &str)> =
            v.iter().map(|v| (v.line, v.message.split(['`']).nth(1).unwrap_or(""))).collect();
        assert!(v.iter().all(|v| v.rule == "wire-kind-table"), "{v:?}");
        assert!(got.contains(&(3, "B")), "collision at decl line: {got:?}");
        assert!(got.contains(&(4, "C")), "unused kind: {got:?}");
        assert!(got.contains(&(6, "kind::D")) || got.contains(&(6, "D")), "undeclared: {got:?}");
    }
}
