//! The committed `BENCH_*.json` baselines must pass the file-independent
//! checks: well-formed, stamped with the writer's `provenance` block,
//! every timing object carrying its normalized `ns_per_point` companion,
//! and the doc ↔ disk cross-reference closed (no orphaned baselines, no
//! dangling citations). Their key skeletons are checked by the bench
//! binaries' own `--smoke` runs.

use std::path::Path;

use geographer_analyze::schema::{check_bench_dir, check_bench_docs};

#[test]
fn committed_bench_baselines_conform_to_their_schemas() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let errors = check_bench_dir(&root).expect("repo root readable");
    let listing: String = errors.iter().map(|e| format!("  {e}\n")).collect();
    assert!(errors.is_empty(), "{} bench-schema problem(s):\n{listing}", errors.len());
}

#[test]
fn committed_bench_baselines_are_cross_referenced_in_the_docs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let errors = check_bench_docs(&root).expect("repo root readable");
    let listing: String = errors.iter().map(|e| format!("  {e}\n")).collect();
    assert!(errors.is_empty(), "{} doc-reference problem(s):\n{listing}", errors.len());
}
