//! Checks on the committed `BENCH_*.json` baselines that need no per-file
//! knowledge.
//!
//! The *shape* of a baseline is not described here. The one record writer
//! (`geographer_bench::harness::write_bench_json`) compares, on every
//! `--smoke` run, the key skeleton it just wrote with the committed
//! file's, so the schema is whatever the writer emits and a renamed key
//! fails the bin that renamed it. `geo-analyze bench-schema` keeps what
//! holds for every file alike: well-formed JSON, the `provenance` block
//! the writer stamps, a numeric `ns_per_point` beside every `seconds`, and
//! the doc ↔ disk cross-reference.

use std::collections::BTreeSet;
use std::path::Path;

use crate::json::{parse, Value};

/// Keys of the `provenance` object every baseline carries, in the order
/// the writer stamps them: which box, substrate, rank counts, toolchain
/// and commit produced the numbers, and when.
pub const PROVENANCE_KEYS: [&str; 6] =
    ["logical_cores", "backend", "p", "rustc", "commit", "timestamp"];

/// Validate one bench file's text. Returns human-readable problems
/// (empty = clean).
pub fn check_bench_file(file: &str, text: &str) -> Vec<String> {
    let doc = match parse(text) {
        Ok(d) => d,
        Err(e) => return vec![format!("{file}: malformed JSON: {e}")],
    };
    let mut errs = Vec::new();
    match doc.get("provenance") {
        None => errs.push(format!(
            "{file}: no `provenance` block — regenerate it through `write_bench_json`"
        )),
        Some(prov) => errs.extend(
            PROVENANCE_KEYS
                .iter()
                .filter(|key| prov.get(key).is_none())
                .map(|key| format!("{file}: `provenance` lacks `{key}`")),
        ),
    }
    errs.extend(check_timing_pairs(file, &doc));
    errs
}

/// Cross-cutting invariant: every phase-timing object that reports
/// `seconds` must also report `ns_per_point` and both must be numbers —
/// the pair the scaling analysis divides. Walks the whole document.
fn check_timing_pairs(file: &str, v: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    walk(v, "$", &mut |path, val| {
        if let Some(fields) = val.fields() {
            let has_seconds = fields.iter().any(|(k, _)| k == "seconds");
            if has_seconds {
                match val.get("ns_per_point") {
                    None => errs.push(format!(
                        "{file}: {path} has `seconds` but no `ns_per_point`"
                    )),
                    Some(n) if !n.is_num() => {
                        errs.push(format!("{file}: {path}.ns_per_point is not a number"));
                    }
                    _ => {}
                }
                if !val.get("seconds").is_some_and(Value::is_num) {
                    errs.push(format!("{file}: {path}.seconds is not a number"));
                }
            }
        }
    });
    errs
}

fn walk(v: &Value, path: &str, f: &mut impl FnMut(&str, &Value)) {
    f(path, v);
    match v {
        Value::Obj(fields) => {
            for (k, child) in fields {
                walk(child, &format!("{path}.{k}"), f);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                walk(child, &format!("{path}[{i}]"), f);
            }
        }
        _ => {}
    }
}

/// Names of the `BENCH_*.json` files directly under `root`, sorted.
fn bench_files(root: &Path) -> std::io::Result<BTreeSet<String>> {
    let mut names = BTreeSet::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && entry.path().is_file() {
            names.insert(name);
        }
    }
    Ok(names)
}

/// Validate every `BENCH_*.json` directly under `root`.
pub fn check_bench_dir(root: &Path) -> std::io::Result<Vec<String>> {
    let mut errs = Vec::new();
    let names = bench_files(root)?;
    if names.is_empty() {
        errs.push(format!("no BENCH_*.json files found under {}", root.display()));
    }
    for name in names {
        let text = std::fs::read_to_string(root.join(&name))?;
        errs.extend(check_bench_file(&name, &text));
    }
    Ok(errs)
}

/// Names like `BENCH_foo.json` mentioned anywhere in `text`.
pub fn bench_refs(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(off) = text[i..].find("BENCH_") {
        let start = i + off;
        let mut end = start + "BENCH_".len();
        while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
            end += 1;
        }
        if end > start + "BENCH_".len() && text[end..].starts_with(".json") {
            out.insert(text[start..end + ".json".len()].to_string());
        }
        i = end;
    }
    out
}

/// Docs ↔ disk cross-check: every committed `BENCH_*.json` must be
/// discussed in README.md or DESIGN.md (an orphaned baseline is dead
/// weight nobody interprets), and every baseline the docs cite must be
/// committed (a dangling reference misleads readers). Both directions
/// are errors.
pub fn check_bench_docs(root: &Path) -> std::io::Result<Vec<String>> {
    let mut errs = Vec::new();
    let on_disk = bench_files(root)?;
    let mut referenced = BTreeSet::new();
    for doc in ["README.md", "DESIGN.md"] {
        let p = root.join(doc);
        if p.is_file() {
            referenced.extend(bench_refs(&std::fs::read_to_string(p)?));
        }
    }
    for name in &on_disk {
        if !referenced.contains(name) {
            errs.push(format!(
                "{name}: orphaned baseline — committed but never referenced in README.md or DESIGN.md"
            ));
        }
    }
    for name in &referenced {
        if !on_disk.contains(name) {
            errs.push(format!(
                "{name}: dangling reference — cited in the docs but not committed at the repo root"
            ));
        }
    }
    Ok(errs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_refs_extracts_exact_names() {
        let text = "See `BENCH_scale.json` and BENCH_proc.json; ignore BENCH_ and\n\
                    BENCH_partial (no extension) and bench_lower.json.";
        let refs = bench_refs(text);
        let want: Vec<&str> = vec!["BENCH_proc.json", "BENCH_scale.json"];
        assert_eq!(refs.iter().map(String::as_str).collect::<Vec<_>>(), want);
    }

    #[test]
    fn orphaned_and_dangling_baselines_are_both_errors() {
        let root = std::env::temp_dir().join("geo_analyze_bench_docs_check");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("BENCH_orphan.json"), "{}").unwrap();
        std::fs::write(root.join("README.md"), "cites BENCH_ghost.json only").unwrap();
        let errs = check_bench_docs(&root).unwrap();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("BENCH_orphan.json") && errs[0].contains("orphaned"));
        assert!(errs[1].contains("BENCH_ghost.json") && errs[1].contains("dangling"));
    }

    const PROVENANCE: &str = r#""provenance": {"logical_cores": 2, "backend": "thread",
        "p": [1], "rustc": "rustc 1.0.0", "commit": "0123456789ab", "timestamp": 1}"#;

    #[test]
    fn a_baseline_without_full_provenance_is_an_error() {
        assert!(check_bench_file("BENCH_x.json", &format!("{{{PROVENANCE}}}")).is_empty());
        let errs = check_bench_file("BENCH_x.json", r#"{"bench": "x"}"#);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("no `provenance` block"), "{errs:?}");
        for key in PROVENANCE_KEYS {
            // Renaming a key removes it from the block.
            let text = format!("{{{}}}", PROVENANCE.replace(&format!("\"{key}\""), "\"other\""));
            let errs = check_bench_file("BENCH_x.json", &text);
            assert_eq!(errs, vec![format!("BENCH_x.json: `provenance` lacks `{key}`")]);
        }
    }

    #[test]
    fn seconds_without_ns_per_point_is_drift() {
        let text = format!(
            r#"{{{PROVENANCE}, "bench": "b", "tool": "t", "mesh": {{}}, "k": 1, "epsilon": 0.1,
                "gate": {{}},
                "runs": [{{"n": 1, "p": 1, "k": 1, "wall_serialized_s": 1,
                          "wall_max_rank_s": 1, "total_ns_per_point": 1,
                          "phases": {{"kmeans": {{"seconds": 0.5}}}},
                          "assignment": {{"seconds": 0.2, "ns_per_point": 3.0}}}}]}}"#
        );
        let errs = check_bench_file("BENCH_scale.json", &text);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("phases.kmeans has `seconds` but no `ns_per_point`"));
    }

    #[test]
    fn malformed_json_is_one_clear_error() {
        let errs = check_bench_file("BENCH_scale.json", "{ not json");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("malformed JSON"), "{errs:?}");
    }
}
