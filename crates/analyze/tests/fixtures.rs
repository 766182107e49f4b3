//! The known-bad corpus: one deliberately-violating snippet per rule (D5,
//! D10), asserting detection at the exact line. Fixtures are analyzed
//! under *virtual* workspace paths so each lands in its rule's scope (the
//! files themselves live under `tests/fixtures/`, which
//! `analyze_workspace` excludes).

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
fn d10_hot_loop_alloc_detected_at_exact_line() {
    check(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d10_hot_loop_alloc.rs"),
        &[(7, "hot-loop-alloc")],
    );
}
