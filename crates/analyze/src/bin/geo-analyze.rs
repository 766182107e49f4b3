//! `geo-analyze` — run the workspace invariant analyzer from the CLI.
//!
//! ```text
//! geo-analyze [--root DIR]          check every workspace .rs file (rules D5, D10)
//! geo-analyze bench-schema [--root DIR]
//!                                   validate committed BENCH_*.json baselines
//! geo-analyze --list                print the rule catalog
//! ```
//!
//! Exit status 0 = clean, 1 = violations, 2 = usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use geographer_analyze::{analyze_workspace, rules, schema};

const USAGE: &str = "usage: geo-analyze [--root DIR]            analyze workspace sources\n\
                     \x20      geo-analyze bench-schema [--root DIR]  validate BENCH_*.json\n\
                     \x20      geo-analyze --list                 print the rule catalog";

/// The live rule numbers, as the catalog spells them: "D5, D10".
fn rule_numbers() -> String {
    let ids: Vec<&str> =
        rules::RULES.iter().map(|(_, what)| what.split(':').next().unwrap_or(what)).collect();
    ids.join(", ")
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut bench_schema = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "bench-schema" => bench_schema = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for (id, what) in rules::RULES {
                    println!("{id:24} {what}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}\nrules: {}", rule_numbers());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if bench_schema {
        let docs = schema::check_bench_docs(&root);
        return match schema::check_bench_dir(&root).and_then(|mut errs| {
            errs.extend(docs?);
            Ok(errs)
        }) {
            Ok(errs) if errs.is_empty() => {
                println!("bench-schema: all committed BENCH_*.json baselines conform");
                ExitCode::SUCCESS
            }
            Ok(errs) => {
                for e in &errs {
                    eprintln!("{e}");
                }
                eprintln!("bench-schema: {} problem(s)", errs.len());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("bench-schema: cannot read {}: {e}", root.display());
                ExitCode::from(2)
            }
        };
    }

    match analyze_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "geo-analyze: workspace clean (rules {}, zero violations)",
                rule_numbers()
            );
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("geo-analyze: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("geo-analyze: cannot read workspace at {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
