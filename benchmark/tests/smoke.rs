//! Smoke test of the benchmark binary: all five workloads at the
//! `--smoke` sizing, untraced and traced, checked against
//! `BENCHMARK.json`.

use std::process::Command;

use geographer_analyze::json::{self, Value};

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn number(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(n)) => *n,
        other => panic!("{key}: expected a number, found {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::items)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// The result line must carry exactly the declared metrics, each once,
/// with its unit; the table above it must print each once too.
fn check_result(section: &str, result: &Value, declared: &[(String, String)]) {
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{section}"
    );
    assert_eq!(number(result, "failed"), 0.0, "{section}");
    assert!(number(result, "attempted") >= 1.0);
    let printed = result
        .get("metrics")
        .and_then(Value::fields)
        .expect("metrics object");
    let names: Vec<&str> = printed.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, expected, "metrics of the result line");
    for ((name, value), (_, unit)) in printed.iter().zip(declared) {
        assert!(well_formed(name), "{name}");
        assert_eq!(&text(value, "unit"), unit, "{name}");
        assert!(number(value, "value").is_finite(), "{name}");
        let rows = section
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
            .count();
        assert_eq!(rows, 1, "{name} printed {rows} times in the table");
        let row = section
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name.as_str()))
            .unwrap();
        assert_eq!(row.split_whitespace().nth(2), Some(unit.as_str()), "{row}");
    }
}

/// Every span with a parent lies inside it.
fn check_trace(path: &str) {
    let doc = json::parse(&std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}")))
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(Value::items)
        .expect("traceEvents");
    assert!(events.len() > 10, "{path}: only {} spans", events.len());
    let bounds: Vec<(f64, f64)> = events
        .iter()
        .map(|e| (number(e, "ts"), number(e, "ts") + number(e, "dur")))
        .collect();
    let mut children = 0;
    for (e, &(start, end)) in events.iter().zip(&bounds) {
        assert!(end >= start);
        let args = e.get("args").expect("args");
        if let Some(Value::Num(parent)) = args.get("parent") {
            let (p_start, p_end) = bounds[*parent as usize];
            // Times are printed to the nanosecond.
            assert!(
                start >= p_start - 0.002 && end <= p_end + 0.002,
                "{path}: span {} [{start}, {end}] outside its parent [{p_start}, {p_end}]",
                text(e, "name")
            );
            children += 1;
        }
    }
    assert!(children > 0, "{path}: no child spans");
}

#[test]
fn all_workloads_run_verify_and_print_every_declared_metric() {
    let home = env!("CARGO_MANIFEST_DIR");
    let bench = json::parse(&std::fs::read_to_string(format!("{home}/../BENCHMARK.json")).unwrap())
        .expect("BENCHMARK.json parses");
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    let workloads: Vec<(String, String)> = bench
        .get("workloads")
        .and_then(Value::items)
        .expect("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    assert!(workloads.iter().all(|(name, _)| well_formed(name)));

    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--trace", "--seed", "7"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One section per workload and mode, each ending in its result line.
    let mut sections: Vec<(String, Value)> = Vec::new();
    let mut section = String::new();
    for line in stdout.lines() {
        if line.starts_with("{\"correct\"") && line.contains("\"metrics\"") {
            sections.push((
                std::mem::take(&mut section),
                json::parse(line).expect("result line"),
            ));
        } else {
            section.push_str(line);
            section.push('\n');
        }
    }
    assert_eq!(sections.len(), 2 * workloads.len(), "{stdout}");
    for (i, (name, why)) in workloads.iter().enumerate() {
        for (mode, declared) in [&end_to_end, &per_layer].into_iter().enumerate() {
            let (section, result) = &sections[2 * i + mode];
            assert!(
                section.starts_with(name.as_str()),
                "expected {name}, found:\n{section}"
            );
            assert!(
                section.contains(why.as_str()),
                "{name}: why differs from BENCHMARK.json"
            );
            check_result(section, result, declared);
        }
        check_trace(&format!("{home}/out/trace.{name}.json"));
    }
    assert!(std::path::Path::new(&format!("{home}/out/result.json")).exists());
}
