//! The source rules hold over the entire workspace, and the lint
//! configuration that holds the rest of DESIGN.md §11's catalog is in
//! place. Not part of tier-1 (`cargo test -q` at the root runs only the
//! umbrella package's tests): CI runs this file in its `cargo test
//! --workspace` step and in the `analyze` job.
//!
//! A violation here means a D5 or D10 invariant broke since the last clean
//! run, a lint waiver was added or dropped without updating its census, or
//! a piece of the clippy configuration went missing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use geographer_analyze::{analyze_workspace, rules, scan, workspace_sources};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_zero_violations() {
    let violations = analyze_workspace(&root()).expect("workspace sources readable");
    let listing: String = violations.iter().map(|v| format!("  {v}\n")).collect();
    assert!(
        violations.is_empty(),
        "geo-analyze found {} violation(s):\n{listing}",
        violations.len(),
    );
}

#[test]
fn hot_loop_markers_are_pinned() {
    // D10 is opt-in, so a deleted marker silently unguards its loop and no
    // other guard notices (DESIGN.md §11, audit row "marker removal"):
    // this census is the guard. Marking a new loop updates it here.
    let census: Vec<(String, usize)> = workspace_sources(&root())
        .expect("workspace sources readable")
        .into_iter()
        .map(|(rel, text)| {
            (rel, scan::scan(&text).iter().filter(|l| rules::hot_loop_marker(l)).count())
        })
        .filter(|(_, markers)| *markers > 0)
        .collect();
    // kmeans: `Round::grow`'s back-to-front merge of a bucket (its block
    // loop) and `Round::grow_full`'s member walk, the run-structured loop
    // of `add_runs` (under `Round::add_rows`), `scan_batch`, `shortlist`'s bound, rank, pick
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
        ("crates/core/src/kmeans.rs", 11),
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
    // Every lint waiver in the workspace — each `#[allow(…)]`,
    // `#![allow(…)]`, `#[expect(…)]` and `#![expect(…)]` — counted by file,
    // attribute and lint. A waiver silences a lint for good, so none lands
    // unseen: a change that adds one edits this census, and one that frees
    // a site lowers it. Every waiver carries a `reason`
    // (`clippy::allow_attributes_without_reason`), and an `expect` that no
    // longer fires is an error, so none goes stale.
    //
    // D4 has no waiver: a kernel crate names no clock type, and the seconds
    // it reports come from `geographer_geometry::Stopwatch`. Each
    // `Stopwatch::start` in those crates is counted by file like a waiver,
    // so a new clock there edits this census in the open too.
    let mut census: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    let mut clocks: BTreeMap<String, usize> = BTreeMap::new();
    let kernel_crates =
        ["core", "graph", "planner", "refine", "spmv"].map(|c| format!("crates/{c}/"));
    for (rel, text) in workspace_sources(&root()).expect("workspace sources readable") {
        // Comments dropped and literals blanked, so a doc example or a
        // fixture string is not a waiver; lines joined, so one attribute
        // may span several.
        let code: String = scan::scan(&text).iter().map(|l| l.code.clone() + "\n").collect();
        let starts = code.matches("Stopwatch::start").count();
        if starts > 0 && kernel_crates.iter().any(|krate| rel.starts_with(krate)) {
            clocks.insert(rel.clone(), starts);
        }
        for level in ["allow", "expect"] {
            for open in [format!("#[{level}("), format!("#![{level}(")] {
                for (at, _) in code.match_indices(&open) {
                    let args = &code[at + open.len()..];
                    let args = &args[..args.find(')').expect("attribute closes")];
                    for lint in args.split(',').map(str::trim) {
                        if !lint.is_empty() && !lint.starts_with("reason") {
                            let key = (rel.clone(), level.to_string(), lint.to_string());
                            *census.entry(key).or_default() += 1;
                        }
                    }
                }
            }
        }
    }
    let needless_range_loop = [
        "crates/baselines/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/dsort/src/lib.rs",
        "crates/geometry/src/lib.rs",
        "crates/graph/src/lib.rs",
        "crates/mesh/src/lib.rs",
        "crates/parcomm/src/proc.rs",
        "crates/sfc/src/lib.rs",
        "crates/spmv/src/lib.rs",
    ]
    .map(|rel| (rel, "allow", "clippy::needless_range_loop", 1));
    let pinned = needless_range_loop.into_iter().chain([
        ("crates/core/src/kmeans.rs", "allow", "clippy::too_many_arguments", 1),
        ("crates/planner/src/hier_refine.rs", "allow", "clippy::too_many_arguments", 1),
        ("vendor/proptest/src/lib.rs", "allow", "non_snake_case", 1),
    ]);
    let pinned: BTreeMap<(String, String, String), usize> = pinned
        .map(|(rel, level, lint, n)| ((rel.to_string(), level.to_string(), lint.to_string()), n))
        .collect();
    assert_eq!(census, pinned);
    // kmeans: the assignment passes; pipeline: the clock of a node solve
    // and its restart at each phase boundary; planner: solve and refine;
    // spmv: the halo exchange.
    let pinned_clocks = [
        ("crates/core/src/kmeans.rs", 1),
        ("crates/core/src/pipeline.rs", 2),
        ("crates/planner/src/solve.rs", 2),
        ("crates/spmv/src/lib.rs", 1),
    ];
    assert_eq!(clocks, pinned_clocks.map(|(rel, n)| (rel.to_string(), n)).into());
}

/// The quoted string entries of the TOML array `key = [ … ]` in `text`
/// (empty if the key is absent). The workspace's config files write one
/// such array per key, closed by a `]` at the start of a line.
fn toml_array(text: &str, key: &str) -> Vec<String> {
    let Some(at) = text.find(&format!("\n{key} = [")) else { return Vec::new() };
    let body = &text[at..];
    let body = &body[..body.find("\n]").unwrap_or(body.len())];
    body.split('"').skip(1).step_by(2).map(String::from).collect()
}

#[test]
fn lint_configuration_is_pinned() {
    // D1, D3, D4 and D5's `Comm` half are clippy's findings, and each
    // depends on configuration whose removal clippy does not report
    // (DESIGN.md §11, audit row "config removal"): a crate that drops
    // `[lints] workspace = true` is no longer denied anything, a D4 crate
    // that loses its `clippy.toml` silently falls back to the root file's
    // D1 list, and a crate that gains one of its own silently drops that
    // list. This census is the guard.
    let root = root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("config readable");
    let d1 = ["std::collections::HashMap", "std::collections::HashSet"];
    let d4_types = [&d1[..], &["std::time::Instant", "std::time::SystemTime"]].concat();
    let d4 = ["std::time::Instant::now", "std::time::SystemTime::now"];
    let paths = |text: &str, key: &str| -> Vec<String> {
        toml_array(text, key).into_iter().filter(|s| s.starts_with("std::")).collect()
    };

    // The lint levels, and every manifest opting into them.
    let manifest = read("Cargo.toml");
    let levels = &manifest[manifest.find("[workspace.lints.clippy]").expect("workspace lints")..];
    let levels = &levels[..levels.find("\n[").unwrap_or(levels.len())];
    for lint in [
        "disallowed_types",
        "disallowed_methods",
        "undocumented_unsafe_blocks",
        "allow_attributes_without_reason",
    ] {
        assert!(levels.contains(&format!("\n{lint} = \"deny\"")), "{lint} is not denied");
    }
    let mut members = vec![PathBuf::new()];
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("members readable") {
            let member = Path::new(dir).join(entry.expect("directory entry").file_name());
            if root.join(&member).join("Cargo.toml").is_file() {
                members.push(member);
            }
        }
    }
    members.sort();
    for member in &members {
        let toml = read(&member.join("Cargo.toml").to_string_lossy());
        let opted_in = toml.contains("\n[lints]\nworkspace = true\n");
        assert!(opted_in, "{member:?} opts out of the workspace lints");
    }
    // Clippy reads `clippy.toml` or `.clippy.toml`, the nearest one only.
    let configured: Vec<String> = members[1..]
        .iter()
        .filter(|m| ["clippy.toml", ".clippy.toml"].iter().any(|f| root.join(m).join(f).exists()))
        .map(|m| m.to_string_lossy().into_owned())
        .collect();

    // D1 at the root, D1 and D4 (clock types and clocks) in each kernel
    // crate, and no other file.
    assert_eq!(paths(&read("clippy.toml"), "disallowed-types"), d1);
    let kernel_crates = ["core", "graph", "planner", "refine", "spmv"].map(|c| format!("crates/{c}"));
    assert_eq!(configured, kernel_crates);
    for krate in &kernel_crates {
        let text = read(&format!("{krate}/clippy.toml"));
        assert_eq!(paths(&text, "disallowed-types"), d4_types, "{krate}: D1 and D4 types");
        assert_eq!(paths(&text, "disallowed-methods"), d4, "{krate}: D4 list");
    }

    // D5's `Comm` half: the trait and both of its impls.
    let deny = "#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                clippy::unreachable, clippy::todo)]";
    for (rel, item) in [
        ("crates/parcomm/src/lib.rs", "pub trait Comm {"),
        ("crates/parcomm/src/collectives.rs", "impl<X: Transport> Comm for X {"),
        ("crates/parcomm/src/checked.rs", "impl<C: Comm> Comm for CheckedComm<C> {"),
    ] {
        let denied = read(rel).contains(&format!("\n{deny}\n{item}\n"));
        assert!(denied, "{rel}: `{item}` lost its D5 deny");
    }
}

#[test]
fn vendor_holds_exactly_two_shims() {
    // The offline stand-ins for crates.io (vendor/README.md). Every seeded
    // draw of the workspace comes from `geographer_geometry::SplitMix64`,
    // so a generator shim that comes back, or any other, edits this pin.
    let mut shims: Vec<String> = std::fs::read_dir(root().join("vendor"))
        .expect("vendor/ readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.is_dir())
        .map(|path| path.file_name().expect("named").to_string_lossy().into_owned())
        .collect();
    shims.sort();
    assert_eq!(shims, ["criterion", "proptest"]);
}

#[test]
fn line_budgets_only_move_down() {
    // Non-test lines — those above a file's top-level `#[cfg(test)]` — of
    // the files whose growth ROADMAP.md tracks. A budget only ever moves
    // down: a change that needs lines there pays for them in the same
    // files, and one that frees lines lowers the budget to what it left.
    let root = root();
    let non_test = |rel: &str| {
        let text = std::fs::read_to_string(root.join(rel)).expect("workspace source readable");
        text.lines().take_while(|line| *line != "#[cfg(test)]").count()
    };
    // Every file of a source directory and of its subdirectories, present
    // or future.
    fn every_file_of(root: &Path, dir: &str) -> Vec<String> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(root.join(dir)).expect("sources readable") {
            let name = entry.expect("directory entry").file_name();
            let path = format!("{dir}/{}", name.to_string_lossy());
            if root.join(&path).is_dir() {
                files.extend(every_file_of(root, &path));
            } else {
                files.push(path);
            }
        }
        files
    }
    let baselines = every_file_of(&root, "crates/baselines/src");
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
    // The planner's solve path: one Geographer walk, the hierarchy, and the
    // checks of a spec's preconditions.
    let planner: Vec<String> = [
        "crates/planner/src/lib.rs",
        "crates/planner/src/solve.rs",
        "crates/planner/src/spec.rs",
        "crates/planner/src/tool.rs",
        "crates/core/src/hierarchy.rs",
        "crates/core/src/config.rs",
    ]
    .map(String::from)
    .to_vec();
    let budgets: [(Vec<String>, usize); 8] = [
        (vec!["crates/core/src/kmeans.rs".into()], 995),
        (vec!["crates/core/src/pipeline.rs".into(), "crates/dsort/src/lib.rs".into()], 962),
        (baselines, 417),
        (refinement, 1318),
        (every_file_of(&root, "crates/parcomm/src"), 2026),
        (vec!["crates/spmv/src/lib.rs".into()], 181),
        (planner, 1181),
        (every_file_of(&root, "crates/analyze/src"), 1269),
    ];
    for (files, budget) in budgets {
        let lines: usize = files.iter().map(|rel| non_test(rel)).sum();
        assert!(lines <= budget, "{files:?}: {lines} non-test lines, budget {budget}");
    }
}
