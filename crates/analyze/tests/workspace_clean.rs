//! The tier-1 gate: the analyzer's rules hold over the entire workspace.
//!
//! Every violation must be either fixed or carry an explicit justified
//! waiver — this test failing means a determinism/SPMD invariant was
//! broken (or a waiver went stale) since the last clean run.

use std::collections::BTreeMap;
use std::path::Path;

use geographer_analyze::{analyze_workspace, rules, scan, workspace_sources};

#[test]
fn workspace_has_zero_unwaived_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = analyze_workspace(&root).expect("workspace sources readable");
    let listing: String =
        violations.iter().map(|v| format!("  {v}\n")).collect();
    assert!(
        violations.is_empty(),
        "geo-analyze found {} unwaived violation(s):\n{listing}\
         fix each, or add `// geo-analyze: allow(rule): justification`",
        violations.len(),
    );
}

#[test]
fn hot_loop_markers_are_pinned() {
    // D10 is opt-in, so a deleted marker silently unguards its loop and no
    // other guard notices (DESIGN.md §11, audit row "marker removal"):
    // this census is the guard. Marking a new loop updates it here.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let census: Vec<(String, usize)> = workspace_sources(&root)
        .expect("workspace sources readable")
        .into_iter()
        .map(|(rel, text)| {
            (rel, scan::scan(&text).iter().filter(|l| rules::hot_loop_marker(l)).count())
        })
        .filter(|(_, markers)| *markers > 0)
        .collect();
    // kmeans: `Round::grow`'s back-to-front walk, `Round::add_rows`'
    // run-structured loop, `scan_batch`, `shortlist`'s bound, rank, pick
    // and compaction loops, `process_block`'s survivor loop and
    // `scan_survivors`' pair loop under the per-block loop; pipeline:
    // `curve_pairs`, the key loop of the cold and the warm arm alike;
    // dsort: the fold, counting and scatter passes of `stable_order`, the
    // one pair radix sort, which ping-pongs between the two halves of one
    // buffer; graph: the matching scan
    // and the contraction gather; planner: the cross-parent vertex loop
    // and the sub-CSR extraction; refine: the sweep loop; sfc: the two
    // loops of the key walk.
    let pinned = [
        ("crates/core/src/kmeans.rs", 10),
        ("crates/core/src/pipeline.rs", 1),
        ("crates/dsort/src/lib.rs", 3),
        ("crates/graph/src/coarsen.rs", 2),
        ("crates/planner/src/hier_refine.rs", 2),
        ("crates/refine/src/lib.rs", 1),
        ("crates/sfc/src/curve.rs", 2),
    ];
    assert_eq!(census, pinned.map(|(rel, markers)| (rel.to_string(), markers)));
}

#[test]
fn waivers_only_move_down() {
    // Every waiver in the workspace, counted by file and rule. A waiver
    // silences a rule for good, so none lands unseen: a change that adds
    // one edits this census, and one that frees a site lowers it. What is
    // left are the seven phase clocks of ROADMAP.md item 1.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut census: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (rel, text) in workspace_sources(&root).expect("workspace sources readable") {
        for line in scan::scan(&text) {
            // Doc comments (`///`, `//!`) that show the syntax are not waivers.
            let comment = line.comment.trim_start();
            if comment.starts_with(['/', '!']) {
                continue;
            }
            let Some((_, rest)) = comment.split_once("geo-analyze: allow(") else { continue };
            let rule = rest.split(')').next().unwrap_or_default().to_string();
            *census.entry((rel.clone(), rule)).or_default() += 1;
        }
    }
    let pinned = [
        ("crates/core/src/kmeans.rs", "kernel-entropy", 1),
        ("crates/core/src/pipeline.rs", "kernel-entropy", 2),
        ("crates/planner/src/solve.rs", "kernel-entropy", 2),
        ("crates/spmv/src/lib.rs", "kernel-entropy", 2),
    ];
    let pinned: BTreeMap<(String, String), usize> =
        pinned.iter().map(|&(rel, rule, n)| ((rel.to_string(), rule.to_string()), n)).collect();
    assert_eq!(census, pinned);
}

#[test]
fn line_budgets_only_move_down() {
    // Non-test lines — those above a file's top-level `#[cfg(test)]` — of
    // the files whose growth ROADMAP.md tracks. A budget only ever moves
    // down: a change that needs lines there pays for them in the same
    // files, and one that frees lines lowers the budget to what it left.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let non_test = |rel: &str| {
        let text = std::fs::read_to_string(root.join(rel)).expect("workspace source readable");
        text.lines().take_while(|line| *line != "#[cfg(test)]").count()
    };
    // Every file of a source directory, present or future.
    let every_file_of = |dir: &str| -> Vec<String> {
        std::fs::read_dir(root.join(dir))
            .expect("sources readable")
            .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
            .map(|name| format!("{dir}/{name}"))
            .collect()
    };
    let baselines = every_file_of("crates/baselines/src");
    // The refinement stack: the sweep, the V-cycle, coarsening and the
    // hierarchical pass.
    let refinement: Vec<String> = [
        "crates/refine/src/lib.rs",
        "crates/refine/src/multilevel.rs",
        "crates/graph/src/coarsen.rs",
        "crates/planner/src/hier_refine.rs",
    ]
    .map(String::from)
    .to_vec();
    // The planner's solve path: one Geographer walk, the hierarchy.
    let planner: Vec<String> = [
        "crates/planner/src/lib.rs",
        "crates/planner/src/solve.rs",
        "crates/planner/src/spec.rs",
        "crates/planner/src/tool.rs",
        "crates/core/src/hierarchy.rs",
    ]
    .map(String::from)
    .to_vec();
    let budgets: [(Vec<String>, usize); 7] = [
        (vec!["crates/core/src/kmeans.rs".into()], 997),
        (vec!["crates/core/src/pipeline.rs".into(), "crates/dsort/src/lib.rs".into()], 969),
        (baselines, 417),
        (refinement, 1332),
        (every_file_of("crates/parcomm/src"), 2026),
        (vec!["crates/spmv/src/lib.rs".into()], 190),
        (planner, 1036),
    ];
    for (files, budget) in budgets {
        let lines: usize = files.iter().map(|rel| non_test(rel)).sum();
        assert!(lines <= budget, "{files:?}: {lines} non-test lines, budget {budget}");
    }
}
