//! Collective-protocol summaries (rule D8) and the static/runtime
//! refinement contract.
//!
//! Every fn body is summarized as a regular expression over collective
//! *kinds* — the alphabet is [`crate::taint::COLLECTIVES`] — built
//! bottom-up through the call graph:
//!
//! - a resolved workspace call contributes its callee's summary (an
//!   `Alt` over all candidates when method resolution is ambiguous),
//! - an unresolved call contributes `Empty` and is recorded by name in
//!   the summary's honest `unresolved` list (std/vendor calls cannot
//!   issue our collectives, so `Empty` is the faithful reading),
//! - recursion is cut with [`Proto::Unknown`], which matches any suffix.
//!
//! Control flow composes as: sequencing → `Seq`, branching → `Alt` over
//! the branch protocols *including early-exit prefixes*, loops → `Star`.
//! This makes the summary an over-approximation of the set of collective
//! call sequences any execution can issue, which is exactly the shape the
//! runtime cross-check needs: a CheckedComm call-kind trace must be a
//! word in the summary's language ([`trace_matches`]).
//!
//! D8 itself (`protocol-divergence`) is the SPMD lockstep property: at a
//! *rank-tainted* branch (uid reported by [`crate::taint::analyze_fn`]),
//! different ranks take different paths — so every path must issue the
//! same collective sequence, i.e. all branch protocols must normalize
//! identically, and a rank-tainted loop must have a collective-free body.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::callgraph::{FnId, Resolution, Workspace};
use crate::parse::{Arm, FnItem, LoopKind, Node, Segment};
use crate::Violation;

/// A protocol: a regular expression over collective kind names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proto {
    /// One collective call of this kind.
    Kind(String),
    /// Sequence; `Seq([])` is the empty protocol.
    Seq(Vec<Proto>),
    /// Alternation over branch protocols.
    Alt(Vec<Proto>),
    /// Zero or more repetitions (loops).
    Star(Box<Proto>),
    /// Recursion cut: matches any suffix of a trace.
    Unknown,
}

/// The empty protocol (issues no collectives).
pub fn empty() -> Proto {
    Proto::Seq(Vec::new())
}

fn seq2(a: Proto, b: Proto) -> Proto {
    Proto::Seq(vec![a, b])
}

fn alt(mut v: Vec<Proto>) -> Proto {
    if v.len() == 1 {
        v.pop().unwrap()
    } else {
        Proto::Alt(v)
    }
}

/// Canonical text form — `normalize` first for a comparable key.
/// `-` empty, `kind`, `[a b]` seq, `(a|b)` alt, `{a}*` star, `?` unknown.
pub fn key(p: &Proto) -> String {
    match p {
        Proto::Kind(k) => k.clone(),
        Proto::Seq(v) if v.is_empty() => "-".to_string(),
        Proto::Seq(v) => {
            let inner: Vec<String> = v.iter().map(key).collect();
            format!("[{}]", inner.join(" "))
        }
        Proto::Alt(v) => {
            let inner: Vec<String> = v.iter().map(key).collect();
            format!("({})", inner.join("|"))
        }
        Proto::Star(i) => format!("{{{}}}*", key(i)),
        Proto::Unknown => "?".to_string(),
    }
}

/// Canonicalize: flatten nested `Seq`/`Alt`, drop empties from `Seq`,
/// dedup + sort `Alt` children by key, collapse `Star` of empty.
pub fn normalize(p: &Proto) -> Proto {
    match p {
        Proto::Kind(k) => Proto::Kind(k.clone()),
        Proto::Unknown => Proto::Unknown,
        Proto::Star(i) => match normalize(i) {
            Proto::Seq(v) if v.is_empty() => empty(),
            Proto::Star(x) => Proto::Star(x),
            other => Proto::Star(Box::new(other)),
        },
        Proto::Seq(v) => {
            let mut out = Vec::new();
            for c in v {
                match normalize(c) {
                    Proto::Seq(w) => out.extend(w),
                    other => out.push(other),
                }
            }
            if out.len() == 1 {
                out.pop().unwrap()
            } else {
                Proto::Seq(out)
            }
        }
        Proto::Alt(v) => {
            let mut by_key: BTreeMap<String, Proto> = BTreeMap::new();
            let flatten = |n: Proto, by_key: &mut BTreeMap<String, Proto>| {
                if let Proto::Alt(w) = n {
                    for x in w {
                        by_key.insert(key(&x), x);
                    }
                } else {
                    by_key.insert(key(&n), n);
                }
            };
            for c in v {
                flatten(normalize(c), &mut by_key);
            }
            let mut out: Vec<Proto> = by_key.into_values().collect();
            // Alt of nothing means "no path"; callers never build it on
            // purpose, and treating it as empty keeps downstream total.
            if out.is_empty() {
                empty()
            } else if out.len() == 1 {
                out.pop().unwrap()
            } else {
                Proto::Alt(out)
            }
        }
    }
}

/// Where control can go after a node/block: the continuation protocol
/// (if any path falls through) plus early-exit path prefixes.
struct Flow {
    /// Protocol of the fall-through paths; `None` when every path exits.
    normal: Option<Proto>,
    returns: Vec<Proto>,
    breaks: Vec<Proto>,
    continues: Vec<Proto>,
}

impl Flow {
    fn just(p: Proto) -> Flow {
        Flow { normal: Some(p), returns: Vec::new(), breaks: Vec::new(), continues: Vec::new() }
    }
}

/// Bottom-up protocol summarizer with per-fn memoization.
pub struct Summarizer<'w> {
    ws: &'w Workspace,
    /// Fns that can transitively issue a collective; calls to anything
    /// else contribute `Empty` exactly (see
    /// [`Workspace::collective_reachers`]) — without this cut, the
    /// method-name over-approximation floods summaries with spurious
    /// recursion `Unknown`s through `.len()`-style false edges.
    reach: BTreeSet<FnId>,
    cache: BTreeMap<FnId, (Proto, BTreeSet<String>)>,
    in_progress: BTreeSet<FnId>,
    /// Unresolved call names accumulated for the fn currently summarized.
    pending: BTreeSet<String>,
}

impl<'w> Summarizer<'w> {
    pub fn new(ws: &'w Workspace) -> Self {
        Summarizer {
            ws,
            reach: ws.collective_reachers(),
            cache: BTreeMap::new(),
            in_progress: BTreeSet::new(),
            pending: BTreeSet::new(),
        }
    }

    /// Summarize a fn: its normalized protocol plus the names of calls
    /// that could not be resolved anywhere beneath it.
    pub fn summarize(&mut self, id: FnId) -> (Proto, BTreeSet<String>) {
        if let Some(c) = self.cache.get(&id) {
            return c.clone();
        }
        if !self.in_progress.insert(id) {
            // Recursion: the cycle's contribution is unknowable without
            // fixpoint iteration; `Unknown` keeps trace matching sound.
            return (Proto::Unknown, BTreeSet::new());
        }
        let ws = self.ws;
        let f = ws.fn_item(id);
        let saved = std::mem::take(&mut self.pending);
        let flow = self.block_flow(id.0, f, &f.body);
        let mut paths: Vec<Proto> = flow.returns;
        if let Some(n) = flow.normal {
            paths.push(n);
        }
        // Stray break/continue at fn level would be a parse artifact;
        // fold them in as paths rather than dropping them.
        paths.extend(flow.breaks);
        paths.extend(flow.continues);
        let proto = normalize(&alt(if paths.is_empty() { vec![empty()] } else { paths }));
        let unresolved = std::mem::replace(&mut self.pending, saved);
        self.in_progress.remove(&id);
        self.cache.insert(id, (proto.clone(), unresolved.clone()));
        (proto, unresolved)
    }

    /// Protocol of one flat segment: its calls, in token order. (Within a
    /// segment, nested-call argument evaluation precedes the outer call
    /// at runtime but follows it in token order; none of the workspace's
    /// collective call sites nest, and the sweep test keeps it that way.)
    fn seg_proto(&mut self, file: usize, caller: &FnItem, seg: &Segment) -> Proto {
        let mut parts = Vec::new();
        for call in &seg.calls {
            match self.ws.resolve(file, caller, call) {
                Resolution::Collective(k) => parts.push(Proto::Kind(k)),
                Resolution::Fns(cands) => {
                    // Candidates that cannot reach a collective contribute
                    // nothing; only protocol-relevant ones are summarized.
                    let relevant: Vec<_> =
                        cands.into_iter().filter(|c| self.reach.contains(c)).collect();
                    let mut alts = Vec::new();
                    for c in relevant {
                        let (p, u) = self.summarize(c);
                        self.pending.extend(u);
                        alts.push(p);
                    }
                    if !alts.is_empty() {
                        parts.push(alt(alts));
                    }
                }
                Resolution::Unresolved(name) => {
                    self.pending.insert(name);
                }
            }
        }
        Proto::Seq(parts)
    }

    fn block_flow(&mut self, file: usize, caller: &FnItem, nodes: &[Node]) -> Flow {
        let mut acc: Option<Proto> = Some(empty());
        let mut out = Flow { normal: None, returns: vec![], breaks: vec![], continues: vec![] };
        for node in nodes {
            let Some(pre) = acc.clone() else { break };
            let nf = self.node_flow(file, caller, node);
            out.returns.extend(nf.returns.into_iter().map(|p| seq2(pre.clone(), p)));
            out.breaks.extend(nf.breaks.into_iter().map(|p| seq2(pre.clone(), p)));
            out.continues.extend(nf.continues.into_iter().map(|p| seq2(pre.clone(), p)));
            acc = nf.normal.map(|p| seq2(pre, p));
        }
        out.normal = acc;
        out
    }

    fn node_flow(&mut self, file: usize, caller: &FnItem, node: &Node) -> Flow {
        match node {
            Node::Seg(s) => Flow::just(self.seg_proto(file, caller, s)),
            Node::Block(b) => self.block_flow(file, caller, b),
            Node::Exit { kind, value, .. } => {
                let vf = self.block_flow(file, caller, value);
                let prefix = vf.normal.unwrap_or_else(empty);
                let mut f = Flow { normal: None, returns: vf.returns, breaks: vf.breaks, continues: vf.continues };
                match kind {
                    crate::parse::ExitKind::Return => f.returns.push(prefix),
                    crate::parse::ExitKind::Break => f.breaks.push(prefix),
                    crate::parse::ExitKind::Continue => f.continues.push(prefix),
                }
                f
            }
            Node::Let { init, else_b, .. } => {
                let inf = self.block_flow(file, caller, init);
                let ip = inf.normal.clone().unwrap_or_else(empty);
                let ef = self.block_flow(file, caller, else_b);
                let mut f = Flow {
                    normal: inf.normal,
                    returns: inf.returns,
                    breaks: inf.breaks,
                    continues: inf.continues,
                };
                // The let-else block runs only on refutation and must
                // diverge; its exits are extra paths after the init.
                f.returns.extend(ef.returns.into_iter().map(|p| seq2(ip.clone(), p)));
                f.breaks.extend(ef.breaks.into_iter().map(|p| seq2(ip.clone(), p)));
                f.continues.extend(ef.continues.into_iter().map(|p| seq2(ip.clone(), p)));
                f
            }
            Node::If { cond, then_b, else_b, .. } => {
                let cf = self.block_flow(file, caller, cond);
                let cp = cf.normal.unwrap_or_else(empty);
                let tf = self.block_flow(file, caller, then_b);
                let ef = self.block_flow(file, caller, else_b);
                let mut f =
                    Flow { normal: None, returns: cf.returns, breaks: cf.breaks, continues: cf.continues };
                for (r, b, c) in [(tf.returns, tf.breaks, tf.continues), (ef.returns, ef.breaks, ef.continues)]
                {
                    f.returns.extend(r.into_iter().map(|p| seq2(cp.clone(), p)));
                    f.breaks.extend(b.into_iter().map(|p| seq2(cp.clone(), p)));
                    f.continues.extend(c.into_iter().map(|p| seq2(cp.clone(), p)));
                }
                let mut normals = Vec::new();
                normals.extend(tf.normal);
                normals.extend(ef.normal);
                if !normals.is_empty() {
                    f.normal = Some(seq2(cp, alt(normals)));
                }
                f
            }
            Node::Match { scrutinee, arms, .. } => {
                let sf = self.block_flow(file, caller, scrutinee);
                let sp = sf.normal.unwrap_or_else(empty);
                let mut f =
                    Flow { normal: None, returns: sf.returns, breaks: sf.breaks, continues: sf.continues };
                let mut normals = Vec::new();
                for arm in arms {
                    let (gp, af) = self.arm_flow(file, caller, arm);
                    f.returns.extend(af.returns.into_iter().map(|p| seq2(sp.clone(), p)));
                    f.breaks.extend(af.breaks.into_iter().map(|p| seq2(sp.clone(), p)));
                    f.continues.extend(af.continues.into_iter().map(|p| seq2(sp.clone(), p)));
                    if let Some(n) = af.normal {
                        normals.push(n);
                    }
                    let _ = gp;
                }
                if !normals.is_empty() {
                    f.normal = Some(seq2(sp, alt(normals)));
                }
                f
            }
            Node::Loop { kind, cond, body, .. } => self.loop_flow(file, caller, *kind, cond, body),
        }
    }

    /// One arm: guard protocol prefixes the body (guards are evaluated
    /// per matching rank; over-approximated as part of the arm path).
    fn arm_flow(&mut self, file: usize, caller: &FnItem, arm: &Arm) -> (Proto, Flow) {
        let gf = self.block_flow(file, caller, &arm.guard);
        let gp = gf.normal.unwrap_or_else(empty);
        let bf = self.block_flow(file, caller, &arm.body);
        let f = Flow {
            normal: bf.normal.map(|n| seq2(gp.clone(), n)),
            returns: bf.returns.into_iter().map(|p| seq2(gp.clone(), p)).collect(),
            breaks: bf.breaks.into_iter().map(|p| seq2(gp.clone(), p)).collect(),
            continues: bf.continues.into_iter().map(|p| seq2(gp.clone(), p)).collect(),
        };
        (gp, f)
    }

    fn loop_flow(
        &mut self,
        file: usize,
        caller: &FnItem,
        kind: LoopKind,
        cond: &[Node],
        body: &[Node],
    ) -> Flow {
        let cf = self.block_flow(file, caller, cond);
        let cp = cf.normal.unwrap_or_else(empty);
        let bf = self.block_flow(file, caller, body);
        // One body execution that reaches the back edge: fall-through or
        // `continue`.
        let mut iter_alts: Vec<Proto> = Vec::new();
        iter_alts.extend(bf.normal);
        iter_alts.extend(bf.continues);
        let bp = if iter_alts.is_empty() { None } else { Some(alt(iter_alts)) };
        let mut f = Flow { normal: None, returns: cf.returns, breaks: cf.breaks, continues: cf.continues };
        match kind {
            LoopKind::While => {
                // cp (bp cp)* then: cond-false exit (empty) or a break
                // prefix. Returns escape after any number of iterations.
                let star = match &bp {
                    Some(b) => Proto::Star(Box::new(seq2(b.clone(), cp.clone()))),
                    None => empty(),
                };
                let head = seq2(cp, star);
                let mut exits = vec![empty()];
                exits.extend(bf.breaks);
                f.normal = Some(seq2(head.clone(), alt(exits)));
                f.returns.extend(bf.returns.into_iter().map(|p| seq2(head.clone(), p)));
            }
            LoopKind::For => {
                // `cond` holds the iterated expression: evaluated once.
                let star = match &bp {
                    Some(b) => Proto::Star(Box::new(b.clone())),
                    None => empty(),
                };
                let head = seq2(cp, star);
                let mut exits = vec![empty()];
                exits.extend(bf.breaks);
                f.normal = Some(seq2(head.clone(), alt(exits)));
                f.returns.extend(bf.returns.into_iter().map(|p| seq2(head.clone(), p)));
            }
            LoopKind::Loop => {
                // Exits only via break/return; no break and no return
                // means the loop diverges (normal stays None).
                let star = match &bp {
                    Some(b) => Proto::Star(Box::new(b.clone())),
                    None => empty(),
                };
                if !bf.breaks.is_empty() {
                    f.normal = Some(seq2(star.clone(), alt(bf.breaks)));
                }
                f.returns.extend(bf.returns.into_iter().map(|p| seq2(star.clone(), p)));
            }
        }
        f
    }
}

/// All observable protocols through a sub-block: fall-through and every
/// early-exit prefix, altified and normalized. This is what two branches
/// of a rank-tainted conditional must agree on (D8).
fn branch_proto(sm: &mut Summarizer<'_>, file: usize, caller: &FnItem, nodes: &[Node]) -> Proto {
    let f = sm.block_flow(file, caller, nodes);
    let mut paths: Vec<Proto> = Vec::new();
    paths.extend(f.normal);
    paths.extend(f.returns);
    paths.extend(f.breaks);
    paths.extend(f.continues);
    if paths.is_empty() {
        empty()
    } else {
        normalize(&alt(paths))
    }
}

/// D8 (`protocol-divergence`) over one fn, given the rank-tainted
/// condition uids from [`crate::taint::analyze_fn`].
pub fn check_d8_fn(
    path: &str,
    sm: &mut Summarizer<'_>,
    file: usize,
    caller: &FnItem,
    tainted: &BTreeSet<u32>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    check_nodes(path, sm, file, caller, &caller.body, tainted, &mut out);
    out
}

fn check_nodes(
    path: &str,
    sm: &mut Summarizer<'_>,
    file: usize,
    caller: &FnItem,
    nodes: &[Node],
    tainted: &BTreeSet<u32>,
    out: &mut Vec<Violation>,
) {
    for node in nodes {
        match node {
            Node::Seg(_) => {}
            Node::Block(b) => check_nodes(path, sm, file, caller, b, tainted, out),
            Node::Exit { value, .. } => check_nodes(path, sm, file, caller, value, tainted, out),
            Node::Let { init, else_b, .. } => {
                check_nodes(path, sm, file, caller, init, tainted, out);
                check_nodes(path, sm, file, caller, else_b, tainted, out);
            }
            Node::If { uid, cond, then_b, else_b, line, .. } => {
                if tainted.contains(uid) {
                    let t = branch_proto(sm, file, caller, then_b);
                    let e = branch_proto(sm, file, caller, else_b);
                    if key(&t) != key(&e) {
                        out.push(Violation::new(
                            path,
                            *line,
                            "protocol-divergence",
                            format!(
                                "branches of this rank-dependent `if` issue different collective \
                                 sequences (`{}` vs `{}`); all ranks must issue the same ordered \
                                 collectives (DESIGN.md §12)",
                                key(&t),
                                key(&e)
                            ),
                        ));
                    }
                }
                check_nodes(path, sm, file, caller, cond, tainted, out);
                check_nodes(path, sm, file, caller, then_b, tainted, out);
                check_nodes(path, sm, file, caller, else_b, tainted, out);
            }
            Node::Match { uid, scrutinee, arms, line } => {
                if tainted.contains(uid) {
                    let protos: Vec<Proto> = arms
                        .iter()
                        .map(|a| {
                            let g = branch_proto(sm, file, caller, &a.guard);
                            let b = branch_proto(sm, file, caller, &a.body);
                            normalize(&seq2(g, b))
                        })
                        .collect();
                    let keys: BTreeSet<String> = protos.iter().map(key).collect();
                    if keys.len() > 1 {
                        out.push(Violation::new(
                            path,
                            *line,
                            "protocol-divergence",
                            format!(
                                "arms of this rank-dependent `match` issue different collective \
                                 sequences ({}); all ranks must issue the same ordered \
                                 collectives (DESIGN.md §12)",
                                keys.iter().map(|k| format!("`{k}`")).collect::<Vec<_>>().join(" vs ")
                            ),
                        ));
                    }
                }
                check_nodes(path, sm, file, caller, scrutinee, tainted, out);
                for a in arms {
                    check_nodes(path, sm, file, caller, &a.guard, tainted, out);
                    check_nodes(path, sm, file, caller, &a.body, tainted, out);
                }
            }
            Node::Loop { uid, cond, body, line, .. } => {
                if tainted.contains(uid) {
                    let bp = branch_proto(sm, file, caller, body);
                    if key(&bp) != key(&empty()) {
                        out.push(Violation::new(
                            path,
                            *line,
                            "protocol-divergence",
                            format!(
                                "this loop's trip count is rank-dependent but its body issues \
                                 collectives (`{}`); ranks would issue different numbers of \
                                 collective calls (DESIGN.md §12)",
                                key(&bp)
                            ),
                        ));
                    }
                }
                check_nodes(path, sm, file, caller, cond, tainted, out);
                check_nodes(path, sm, file, caller, body, tainted, out);
            }
        }
    }
}

/// Does `trace` (a full run's collective-kind sequence) belong to the
/// language of `proto`? Position-set NFA: no backtracking, terminates on
/// `Star` via fixpoint.
pub fn trace_matches(proto: &Proto, trace: &[&str]) -> bool {
    let starts: BTreeSet<usize> = std::iter::once(0usize).collect();
    advance(proto, &starts, trace).contains(&trace.len())
}

fn advance(p: &Proto, s: &BTreeSet<usize>, trace: &[&str]) -> BTreeSet<usize> {
    if s.is_empty() {
        return BTreeSet::new();
    }
    match p {
        Proto::Kind(k) => s
            .iter()
            .filter(|&&i| i < trace.len() && trace[i] == k.as_str())
            .map(|&i| i + 1)
            .collect(),
        Proto::Seq(v) => v.iter().fold(s.clone(), |acc, c| advance(c, &acc, trace)),
        Proto::Alt(v) => v.iter().flat_map(|c| advance(c, s, trace)).collect(),
        Proto::Star(inner) => {
            let mut cur = s.clone();
            loop {
                let next = advance(inner, &cur, trace);
                let before = cur.len();
                cur.extend(next);
                if cur.len() == before {
                    return cur;
                }
            }
        }
        Proto::Unknown => {
            let &min = s.iter().next().expect("nonempty");
            (min..=trace.len()).collect()
        }
    }
}

/// SPMD entry points summarized by `geo-analyze protocol` and pinned by
/// the runtime refinement test: (crate package, impl qual, fn name).
pub const ENTRIES: &[(&str, Option<&str>, &str)] = &[
    ("geographer_planner", Some("Planner"), "solve"),
    ("geographer_planner", Some("Planner"), "try_solve"),
    ("geographer", None, "partition_spmd"),
    ("geographer", None, "partition_hierarchical_spmd"),
    ("geographer", None, "balanced_kmeans"),
    ("geographer", None, "balanced_kmeans_warm"),
];

/// One entry point's summary.
pub struct EntrySummary {
    /// `crate::Qual::name` label.
    pub name: String,
    pub id: FnId,
    pub proto: Proto,
    pub unresolved: Vec<String>,
}

/// Summarize every [`ENTRIES`] fn found in the workspace.
pub fn entry_summaries(ws: &Workspace) -> Vec<EntrySummary> {
    let mut sm = Summarizer::new(ws);
    let mut out = Vec::new();
    for (crate_name, qual, name) in ENTRIES {
        let Some(id) = ws.find_fn(crate_name, *qual, name) else { continue };
        let (proto, unresolved) = sm.summarize(id);
        out.push(EntrySummary {
            name: ws.fn_label(id),
            id,
            proto,
            unresolved: unresolved.into_iter().collect(),
        });
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Protocol as JSON: `"kind"` | `{"seq":[…]}` | `{"alt":[…]}` |
/// `{"star":…}` | `"?"` (unknown) | `"-"` (empty).
pub fn proto_json(p: &Proto) -> String {
    match p {
        Proto::Kind(k) => format!("\"{}\"", json_escape(k)),
        Proto::Seq(v) if v.is_empty() => "\"-\"".to_string(),
        Proto::Seq(v) => {
            let inner: Vec<String> = v.iter().map(proto_json).collect();
            format!("{{\"seq\":[{}]}}", inner.join(","))
        }
        Proto::Alt(v) => {
            let inner: Vec<String> = v.iter().map(proto_json).collect();
            format!("{{\"alt\":[{}]}}", inner.join(","))
        }
        Proto::Star(i) => format!("{{\"star\":{}}}", proto_json(i)),
        Proto::Unknown => "\"?\"".to_string(),
    }
}

/// The `geo-analyze protocol --format json` payload.
pub fn summaries_json(entries: &[EntrySummary]) -> String {
    let mut out = String::from("{\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"protocol\": {}, \"key\": \"{}\", \"unresolved\": [{}]}}{}\n",
            json_escape(&e.name),
            proto_json(&e.proto),
            json_escape(&key(&e.proto)),
            e.unresolved
                .iter()
                .map(|u| format!("\"{}\"", json_escape(u)))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::scan::scan;
    use crate::taint;

    fn ws(src: &str) -> Workspace {
        let parsed = parse::parse_file(&scan(src)).expect("parse");
        Workspace::from_single("crates/core/src/x.rs", parsed)
    }

    fn summary(src: &str, name: &str) -> (Workspace, Proto) {
        let w = ws(src);
        let id = w.find_fn("core", None, name).expect("fn");
        let mut sm = Summarizer::new(&w);
        let (p, _) = sm.summarize(id);
        (w, p)
    }

    #[test]
    fn straight_line_protocol_is_a_kind_sequence() {
        let (_, p) = summary(
            "pub fn f<C: Comm>(c: &C) { c.barrier(); let g = c.allgather(vec![1u64]); drop(g); }\n",
            "f",
        );
        assert_eq!(key(&p), "[barrier allgather]");
    }

    #[test]
    fn calls_compose_bottom_up_and_loops_star() {
        let src = "fn step<C: Comm>(c: &C) { c.allreduce_sum_f64(&mut [0.0]); }\n\
                   pub fn f<C: Comm>(c: &C, iters: usize) { c.barrier(); for _ in 0..iters { step(c); } }\n";
        let (_, p) = summary(src, "f");
        assert_eq!(key(&p), "[barrier {allreduce_sum_f64}*]");
    }

    #[test]
    fn early_return_paths_become_alternatives() {
        let src = "pub fn f<C: Comm>(c: &C, done: bool) {\n\
                   \x20   c.barrier();\n\
                   \x20   if done { return; }\n\
                   \x20   c.allgather(vec![0u64]);\n\
                   }\n";
        let (_, p) = summary(src, "f");
        // Either barrier alone (early return) or barrier allgather.
        assert!(trace_matches(&p, &["barrier"]), "{}", key(&p));
        assert!(trace_matches(&p, &["barrier", "allgather"]), "{}", key(&p));
        assert!(!trace_matches(&p, &["allgather"]), "{}", key(&p));
    }

    #[test]
    fn trace_matching_handles_star_alt_unknown() {
        let p = Proto::Seq(vec![
            Proto::Kind("barrier".into()),
            Proto::Star(Box::new(Proto::Kind("allgather".into()))),
            Proto::Alt(vec![empty(), Proto::Kind("broadcast".into())]),
        ]);
        assert!(trace_matches(&p, &["barrier"]));
        assert!(trace_matches(&p, &["barrier", "allgather", "allgather", "broadcast"]));
        assert!(!trace_matches(&p, &["barrier", "broadcast", "allgather"]));
        let u = Proto::Seq(vec![Proto::Kind("barrier".into()), Proto::Unknown]);
        assert!(trace_matches(&u, &["barrier", "alltoallv", "alltoallv"]));
        assert!(!trace_matches(&u, &["alltoallv"]));
    }

    #[test]
    fn d8_flags_divergent_tainted_branch_and_accepts_symmetric_one() {
        let src = "pub fn bad<C: Comm>(c: &C) {\n\
                   \x20   if c.rank() == 0 { c.barrier(); } else { c.allgather(vec![0u64]); }\n\
                   }\n\
                   pub fn good<C: Comm>(c: &C) {\n\
                   \x20   if c.rank() == 0 { c.barrier(); } else { c.barrier(); }\n\
                   }\n";
        let w = ws(src);
        let mut sm = Summarizer::new(&w);
        let file = &w.files[0];
        let mut hits = Vec::new();
        for f in &file.parsed.fns {
            let t = taint::analyze_fn("crates/core/src/x.rs", f, &file.parsed.toks);
            hits.extend(check_d8_fn("crates/core/src/x.rs", &mut sm, 0, f, &t.tainted_conds));
        }
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].line, hits[0].rule), (2, "protocol-divergence"));
    }

    #[test]
    fn d8_flags_rank_bounded_collective_loop() {
        let src = "pub fn bad<C: Comm>(c: &C) {\n\
                   \x20   for _ in 0..c.rank() { c.barrier(); }\n\
                   }\n";
        let w = ws(src);
        let mut sm = Summarizer::new(&w);
        let file = &w.files[0];
        let f = &file.parsed.fns[0];
        let t = taint::analyze_fn("crates/core/src/x.rs", f, &file.parsed.toks);
        let hits = check_d8_fn("crates/core/src/x.rs", &mut sm, 0, f, &t.tainted_conds);
        assert!(
            hits.iter().any(|v| v.rule == "protocol-divergence" && v.line == 2),
            "{hits:?}"
        );
    }

    #[test]
    fn json_shapes_are_stable() {
        let p = Proto::Seq(vec![
            Proto::Kind("barrier".into()),
            Proto::Star(Box::new(Proto::Kind("allgather".into()))),
        ]);
        assert_eq!(proto_json(&p), "{\"seq\":[\"barrier\",{\"star\":\"allgather\"}]}");
        assert_eq!(proto_json(&empty()), "\"-\"");
        assert_eq!(proto_json(&Proto::Unknown), "\"?\"");
    }
}
