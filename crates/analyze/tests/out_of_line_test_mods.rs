//! Out-of-line `#[cfg(test)] mod name;` modules live in sibling *files*,
//! where the inline span marker cannot reach: the workspace walk must
//! resolve the declaration and analyze the module file as test code.

use std::fs;
use std::path::Path;

use geographer_analyze::analyze_workspace;

const TESTY_SRC: &str = "fn t() {\n    run_spmd(2, |c| c.allgather(vec![1]).pop().unwrap());\n}\n";

#[test]
fn out_of_line_test_module_files_are_exempt_like_inline_ones() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("out_of_line_ws");
    let src = root.join("crates/core/src");
    fs::create_dir_all(src.join("solver")).unwrap();
    // The parent declares an out-of-line test module…
    fs::write(
        src.join("solver.rs"),
        "pub fn f() -> u8 {\n    1\n}\n\n#[cfg(test)]\nmod tests;\n",
    )
    .unwrap();
    // …whose file would violate D5 if misread as production code.
    fs::write(src.join("solver/tests.rs"), TESTY_SRC).unwrap();
    // Control: the same content in a production file stays flagged.
    fs::write(src.join("prod.rs"), TESTY_SRC).unwrap();

    let v = analyze_workspace(&root).unwrap();
    assert!(
        v.iter().any(|x| x.path == "crates/core/src/prod.rs" && x.rule == "panic-in-spmd"),
        "control file must stay in scope: {v:?}"
    );
    assert!(
        !v.iter().any(|x| x.path.ends_with("solver/tests.rs")),
        "out-of-line test module misread as production code: {v:?}"
    );
}
