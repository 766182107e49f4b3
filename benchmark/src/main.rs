//! The repo benchmark: end-to-end and per-layer metrics of
//! `Planner::solve` on five workloads. See `README.md`.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!       [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--check-repeat]
//! ```
//!
//! With `--workload` the process runs that workload and prints, as the
//! last line of its standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without it, the process runs
//! every workload in a child process of its own (fresh heap, own
//! `VmHWM`) and prints them all.

mod metrics;
mod op;
mod probes;
mod run;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use geographer_analyze::json::{self, Value};

use metrics::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use run::Options;
use workload::{Workload, WORKLOADS};

/// The seed of a run that names none (the paper's year).
const DEFAULT_SEED: u64 = 2018;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// A hung worker process becomes a counted failure well inside the
/// run's own time limit.
const PROC_TIMEOUT_SECS: &str = "60";

struct Cli {
    workload: Option<String>,
    opt: Options,
    trace: bool,
    check_repeat: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opt: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        trace: false,
        check_repeat: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.opt.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opt.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if cli.opt.seconds.is_nan() || cli.opt.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace 1`, `--trace 0`, or the bare flag.
            "--trace" => {
                cli.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.opt.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Worker threads per rank: the ranks of a workload share the box.
pub fn rayon_threads(p: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    (cores / p).max(1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where, on what, and from which source a number was measured.
fn provenance(w: &Workload, opt: &Options, trace: bool, walls: &[f64]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"trace\": {trace}, \
         \"points_per_instance\": {}, \"k\": {}, \"p\": {}, \"backend\": \"{}\", \
         \"rayon_num_threads\": {}, \"logical_cores\": {cores}, \"rustc\": \"{}\", \
         \"git_commit\": \"{}\", \"unix_time\": {timestamp}, \"samples\": {}, \
         \"op_wall_s\": {walls:?}}}",
        w.name,
        opt.seed,
        opt.seconds,
        opt.smoke,
        w.points(opt.smoke),
        w.k,
        w.p,
        w.backend.name(),
        rayon_threads(w.p),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
        walls.len(),
    )
}

/// Run one workload in this process and print its result line last.
fn run_one(name: &str, opt: &Options, trace: bool) -> ExitCode {
    let Some((wi, w)) = workload::find(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    std::env::set_var("RAYON_NUM_THREADS", rayon_threads(w.p).to_string());
    let (registry, result): (&[MetricDef], RunResult) = if trace {
        let (result, tracer) = probes::run_traced(wi, w, opt);
        let path = format!("out/trace.{name}.json");
        if let Err(e) = std::fs::write(&path, tracer.chrome_json(name)) {
            eprintln!("write {path}: {e}");
            return ExitCode::FAILURE;
        }
        (PER_LAYER, result)
    } else {
        (END_TO_END, run::run_untraced(wi, w, opt))
    };
    let prov = provenance(w, opt, trace, &result.walls);
    let line = result.result_line(registry);
    println!(
        "{name} ({})",
        if trace {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    );
    println!("  why: {}", w.why);
    print!("{}", result.table(registry));
    println!(
        "  ops attempted {} failed {}",
        result.attempted, result.failed
    );
    for f in &result.failures {
        println!("  FAILED OP: {f}");
    }
    println!("  provenance {prov}");
    let path = format!(
        "out/result.{name}.{}.json",
        if trace { "traced" } else { "untraced" }
    );
    let doc = format!("{{\"provenance\": {prov},\n \"result\": {line}}}\n");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Run one workload in a child process; echo what it prints and return
/// its parsed result line.
fn run_child(name: &str, opt: &Options, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &opt.seed.to_string()])
        .args([
            "--seconds",
            &opt.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if opt.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{name}: child exited with {}", output.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name}: child printed nothing"))?;
    json::parse(last).map_err(|e| format!("{name}: result line: {e}"))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Value::Num(v) => Some(*v),
        _ => None,
    }
}

fn is_correct(result: &Value) -> bool {
    matches!(result.get("correct"), Some(Value::Bool(true)))
}

/// Every workload, each in its own child; `out/result.json` collects the
/// result lines.
fn run_all(opt: &Options, trace: bool) -> ExitCode {
    let mut doc = String::from("{\"runs\": [\n");
    let mut ok = true;
    let modes: &[bool] = if trace { &[false, true] } else { &[false] };
    let mut first = true;
    for w in &WORKLOADS {
        for &traced in modes {
            match run_child(w.name, opt, traced) {
                Ok(result) => {
                    ok &= is_correct(&result);
                    let path = format!(
                        "out/result.{}.{}.json",
                        w.name,
                        if traced { "traced" } else { "untraced" }
                    );
                    let body = std::fs::read_to_string(&path).unwrap_or_default();
                    let _ = write!(doc, "{}{}", if first { "" } else { ",\n" }, body.trim_end());
                    first = false;
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    doc.push_str("\n]}\n");
    if let Err(e) = std::fs::write("out/result.json", doc) {
        eprintln!("write out/result.json: {e}");
        ok = false;
    }
    println!(
        "{{\"correct\": {ok}, \"workloads\": {}, \"results\": \"out/result.json\"}}",
        WORKLOADS.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Bounds and directions of the end-to-end metrics, from the
/// `BENCHMARK.json` beside the package.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let path = Path::new("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::items)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| match (m.get("name"), m.get("bound"), m.get("better")) {
            (Some(Value::Str(n)), Some(Value::Num(b)), Some(Value::Str(d))) => {
                Ok((n.clone(), *b, d == "lower"))
            }
            _ => Err("malformed end_to_end entry".to_string()),
        })
        .collect()
}

/// The end-to-end metrics that are measured; the others are computed
/// from the outputs, which the bitwise contract fixes for a seed.
const MEASURED: [&str; 3] = ["setup_s", "solve_s", "peak_rss_mb"];

/// Two untraced sets, the second in reverse workload order; fails unless
/// every end-to-end metric of the second set is within its bound of the
/// first — and every computed one identical — on every workload.
fn check_repeat(opt: &Options) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sets: Vec<Vec<Option<Value>>> = Vec::new();
    for reverse in [false, true] {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if reverse {
            order.reverse();
        }
        let mut set: Vec<Option<Value>> = vec![None; WORKLOADS.len()];
        for wi in order {
            set[wi] = run_child(WORKLOADS[wi].name, opt, false)
                .map_err(|e| eprintln!("{e}"))
                .ok();
        }
        sets.push(set);
    }
    let mut ok = true;
    println!(
        "{:<24} {:<30} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let (Some(a), Some(b)) = (&sets[0][wi], &sets[1][wi]) else {
            ok = false;
            continue;
        };
        ok &= is_correct(a) && is_correct(b);
        for (name, bound, lower_is_better) in &bounds {
            let (Some(x), Some(y)) = (metric_value(a, name), metric_value(b, name)) else {
                println!("{:<24} {name:<30} missing", w.name);
                ok = false;
                continue;
            };
            let worse = if *lower_is_better {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let pass = worse <= *bound && (x == y || MEASURED.contains(&name.as_str()));
            ok &= pass;
            println!(
                "{:<24} {name:<30} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%{}",
                w.name,
                worse * 100.0,
                bound * 100.0,
                if pass { "" } else { "  NOT REPEATED" }
            );
        }
    }
    println!("{{\"repeatable\": {ok}, \"seed\": {}}}", opt.seed);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Everything the benchmark writes goes under its own directory:
    // results and traces in `out/`, the process backend's rendezvous
    // sockets in `out/tmp` (a short relative path, so `sun_path` fits).
    let home = env!("CARGO_MANIFEST_DIR");
    if let Err(e) =
        std::env::set_current_dir(home).and_then(|()| std::fs::create_dir_all("out/tmp"))
    {
        eprintln!("{home}/out/tmp: {e}");
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", "out/tmp");
    std::env::set_var("GEO_PROC_TIMEOUT_SECS", PROC_TIMEOUT_SECS);
    match (&cli.workload, cli.check_repeat) {
        (Some(name), _) => run_one(name, &cli.opt, cli.trace),
        (None, true) => check_repeat(&cli.opt),
        (None, false) => run_all(&cli.opt, cli.trace),
    }
}
