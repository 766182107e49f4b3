//! The known-bad corpus: one deliberately-violating snippet per rule,
//! asserting detection at the exact line. Fixtures are analyzed under
//! *virtual* workspace paths so each lands in its rule's scope (the files
//! themselves live under `tests/fixtures/`, which `analyze_workspace`
//! excludes).

use geographer_analyze::analyze_source;

/// Assert the fixture produces exactly `expected` as its (line, rule)
/// pairs, in order.
fn check(virtual_path: &str, src: &str, expected: &[(usize, &str)]) {
    let got: Vec<(usize, &str)> =
        analyze_source(virtual_path, src).iter().map(|v| (v.line, v.rule)).collect();
    let want: Vec<(usize, &str)> = expected.to_vec();
    assert_eq!(got, want, "fixture at {virtual_path}");
}

#[test]
fn d1_hash_container_detected_at_exact_line() {
    check(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d1_hash_container.rs"),
        &[(5, "hash-container")],
    );
}

#[test]
fn d3_unsafe_without_safety_detected_at_exact_line() {
    check(
        "crates/mesh/src/fixture.rs",
        include_str!("fixtures/d3_unsafe_without_safety.rs"),
        &[(4, "unsafe-without-safety")],
    );
}

#[test]
fn d4_kernel_entropy_detected_at_exact_line() {
    // Impersonates a kernel module: D4 is scoped to the hot-path file list.
    check(
        "crates/core/src/kmeans.rs",
        include_str!("fixtures/d4_kernel_entropy.rs"),
        &[(4, "kernel-entropy")],
    );
}

#[test]
fn d5_panic_in_spmd_detected_at_exact_line() {
    // Only the line inside the run_spmd call span fires; the assert on
    // line 8 is outside the span (and assert!-family is allowed anyway).
    check(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/d5_panic_in_spmd.rs"),
        &[(5, "panic-in-spmd")],
    );
}

#[test]
fn d5_comm_impl_scope_in_comm_implementation_files() {
    // In a parcomm Comm file, D5 covers `impl … Comm for …` blocks; a
    // free helper fn in the same file is out of scope.
    let src = "pub struct X;\nimpl Comm for X {\n    fn f(&self, x: Option<u8>) -> u8 {\n        x.expect(\"set\")\n    }\n}\npub fn helper(x: Option<u8>) -> u8 {\n    x.expect(\"set\")\n}\n";
    check("crates/parcomm/src/checked.rs", src, &[(4, "panic-in-spmd")]);
}

#[test]
fn d10_hot_loop_alloc_detected_at_exact_line() {
    check(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d10_hot_loop_alloc.rs"),
        &[(7, "hot-loop-alloc")],
    );
}

#[test]
fn fixtures_are_waivable_and_waivers_must_not_go_stale() {
    let src = "pub fn f() {\n    // geo-analyze: allow(hash-container): membership-only, never iterated.\n    let s = HashSet::new();\n    let _ = s;\n}\n";
    check("crates/core/src/fixture.rs", src, &[]);
    let stale = "pub fn f() {\n    // geo-analyze: allow(hash-container): nothing here.\n    let s = 1;\n    let _ = s;\n}\n";
    check("crates/core/src/fixture.rs", stale, &[(2, "stale-waiver")]);
}

#[test]
fn waivers_naming_a_retired_rule_are_invalid() {
    // D7–D9 left the catalog with the static protocol checker and D6 with
    // the `mod kind` table it read; a waiver that still names one of them
    // no longer argues with anything.
    for id in ["wire-kind-table", "rank-tainted-guard", "protocol-divergence", "rank-tainted-length"]
    {
        let src = format!("// geo-analyze: allow({id}): per-peer lengths differ.\npub fn f() {{}}\n");
        check("crates/spmv/src/fixture.rs", &src, &[(1, "invalid-waiver")]);
    }
}
