//! Schema validation for the committed `BENCH_*.json` baselines.
//!
//! Every bench binary hand-writes its JSON (the workspace has no serde),
//! which historically let key drift ship silently: a writer renames
//! `wall_s` → `wall_max_rank_s`, the committed baseline keeps the old
//! shape, and the first consumer to notice is a human reading a figure.
//! `geo-analyze bench-schema` pins the shape: each committed baseline must
//! be well-formed JSON, carry its expected top-level keys, and carry the
//! per-row timing keys (`wall_max_rank_s`, `ns_per_point`, …) the perf
//! gate and the figure scripts read. Unknown `BENCH_*.json` files fail
//! too: a new bench must register its schema here in the same PR.

use std::path::Path;

use crate::json::{parse, Value};

/// Expected shape of one committed bench file.
struct BenchSchema {
    file: &'static str,
    /// Required top-level keys.
    top: &'static [&'static str],
    /// `(array key path, required keys of each row)` — `path` addresses a
    /// top-level array (or `a.b` for an array one object deep).
    rows: &'static [(&'static str, &'static [&'static str])],
}

/// The registry. Key lists mirror what the perf gate
/// (`crates/bench/tests/perf_gate.rs`) and the figure scripts consume.
const SCHEMAS: &[BenchSchema] = &[
    BenchSchema {
        file: "BENCH_hierarchy.json",
        top: &["bench", "mesh", "epsilon", "cost_model", "static", "dynamic"],
        rows: &[(
            "static",
            &["config", "machine", "wall_s", "wall_max_rank_s", "ns_per_point", "imbalance"],
        )],
    },
    BenchSchema {
        file: "BENCH_multilevel.json",
        top: &["bench", "meshes", "n", "seed", "k", "epsilon", "coarsest_vertices", "rows"],
        rows: &[("rows", &["mesh", "tool", "cut_initial", "single", "multilevel"])],
    },
    BenchSchema {
        file: "BENCH_pipeline.json",
        top: &["bench", "tool", "mesh", "cost_model", "runs"],
        rows: &[(
            "runs",
            &[
                "p",
                "k",
                "wall_serialized_s",
                "wall_max_rank_s",
                "ns_per_point",
                "modeled_parallel_s",
                "rounds",
                "bytes_per_rank",
                "per_op",
            ],
        )],
    },
    BenchSchema {
        file: "BENCH_planner.json",
        top: &[
            "bench",
            "mesh",
            "scenario",
            "k",
            "p",
            "machine",
            "epsilon",
            "stacked_vs_best_single",
            "stacked_final_levels",
            "configs",
        ],
        rows: &[(
            "configs",
            &["config", "subsystems", "wall_s", "wall_max_rank_s", "ns_per_point", "steps"],
        )],
    },
    BenchSchema {
        file: "BENCH_proc.json",
        top: &["experiment", "description", "calibration", "collective_workloads", "tool_runs"],
        rows: &[
            (
                "collective_workloads",
                &["p", "rounds", "bytes_per_rank", "measured_seconds"],
            ),
            (
                "tool_runs",
                &[
                    "tool",
                    "n",
                    "p",
                    "assignments_agree_with_thread_backend",
                    "rounds",
                    "bytes_per_rank",
                    "proc_wall_seconds",
                ],
            ),
        ],
    },
    BenchSchema {
        file: "BENCH_repartition.json",
        top: &["bench", "scenario", "k", "p", "epsilon", "cold_vs_warm", "tools"],
        rows: &[(
            "tools",
            &["tool", "total_wall_s", "resteps_wall_s", "resteps_max_rank_wall_s", "steps"],
        )],
    },
    BenchSchema {
        file: "BENCH_scale.json",
        top: &[
            "bench",
            "tool",
            "mesh",
            "k",
            "epsilon",
            "gate",
            "runs",
        ],
        rows: &[(
            "runs",
            &[
                "n",
                "p",
                "k",
                "wall_serialized_s",
                "wall_max_rank_s",
                "total_ns_per_point",
                "phases",
                "assignment",
            ],
        )],
    },
];

/// Validate one bench file's text against its registered schema. Returns
/// human-readable problems (empty = clean).
pub fn check_bench_file(file: &str, text: &str) -> Vec<String> {
    let Some(schema) = SCHEMAS.iter().find(|s| s.file == file) else {
        return vec![format!(
            "{file}: no schema registered — add its expected keys to \
             crates/analyze/src/schema.rs in the PR that introduces it"
        )];
    };
    let doc = match parse(text) {
        Ok(d) => d,
        Err(e) => return vec![format!("{file}: malformed JSON: {e}")],
    };
    let mut errs = Vec::new();
    for key in schema.top {
        if doc.get(key).is_none() {
            errs.push(format!("{file}: missing top-level key `{key}`"));
        }
    }
    for (path, required) in schema.rows {
        let Some(rows) = doc.get(path).and_then(Value::items) else {
            // Missing top-level key already reported; a non-array is new.
            if doc.get(path).is_some() {
                errs.push(format!("{file}: `{path}` must be an array"));
            }
            continue;
        };
        for (i, row) in rows.iter().enumerate() {
            for key in *required {
                if row.get(key).is_none() {
                    errs.push(format!("{file}: `{path}[{i}]` missing key `{key}`"));
                }
            }
        }
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

/// Validate every `BENCH_*.json` directly under `root`.
pub fn check_bench_dir(root: &Path) -> std::io::Result<Vec<String>> {
    let mut errs = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && entry.path().is_file() {
            names.push(name);
        }
    }
    names.sort();
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
pub fn bench_refs(text: &str) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
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
    let mut on_disk = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && entry.path().is_file() {
            on_disk.insert(name);
        }
    }
    let mut referenced = std::collections::BTreeSet::new();
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

    #[test]
    fn unknown_bench_files_must_register() {
        let errs = check_bench_file("BENCH_new_thing.json", "{}");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("no schema registered"), "{errs:?}");
    }

    #[test]
    fn missing_keys_are_reported_per_row() {
        let text = r#"{"bench": "pipeline", "tool": "t", "mesh": {}, "cost_model": {},
                       "runs": [{"p": 2, "k": 4, "wall_serialized_s": 0.1}]}"#;
        let errs = check_bench_file("BENCH_pipeline.json", text);
        assert!(errs.iter().any(|e| e.contains("`runs[0]` missing key `wall_max_rank_s`")),
            "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("missing key `ns_per_point`")), "{errs:?}");
    }

    #[test]
    fn seconds_without_ns_per_point_is_drift() {
        let text = r#"{"bench": "b", "tool": "t", "mesh": {}, "k": 1, "epsilon": 0.1,
                       "gate": {},
                       "runs": [{"n": 1, "p": 1, "k": 1, "wall_serialized_s": 1,
                                 "wall_max_rank_s": 1, "total_ns_per_point": 1,
                                 "phases": {"kmeans": {"seconds": 0.5}},
                                 "assignment": {"seconds": 0.2, "ns_per_point": 3.0}}]}"#;
        let errs = check_bench_file("BENCH_scale.json", text);
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
