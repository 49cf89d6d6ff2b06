//! `sesr-lint`: workspace source lint enforcing where atomics, threads,
//! `unsafe`, and panicking accessors may live. See the `sesr_lint` crate for
//! the rules and `sesr-lint --explain <rule>` for the rationale behind each.

#![forbid(unsafe_code)]

use sesr_lint::{explain, lint_workspace, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sesr-lint [--explain <rule>] [workspace-root]\n\
                     \n\
                     Lints every .rs file under the workspace root (default: current\n\
                     directory) and exits nonzero if any rule is violated.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut root: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("\nrules: {}", RULES.join(", "));
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(rule) = iter.next() else {
                    eprintln!(
                        "sesr-lint: --explain needs a rule name ({})",
                        RULES.join(", ")
                    );
                    return ExitCode::from(2);
                };
                let Some(text) = explain(rule) else {
                    eprintln!(
                        "sesr-lint: unknown rule `{rule}` (rules: {})",
                        RULES.join(", ")
                    );
                    return ExitCode::from(2);
                };
                println!("{text}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("sesr-lint: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other => {
                if root.replace(PathBuf::from(other)).is_some() {
                    eprintln!("sesr-lint: more than one workspace root given\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let (findings, files) = match lint_workspace(&root) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("sesr-lint: {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("sesr-lint: {files} files clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "sesr-lint: {} violation(s) in {files} files; run `sesr-lint --explain <rule>` for rationale",
            findings.len()
        );
        ExitCode::FAILURE
    }
}
