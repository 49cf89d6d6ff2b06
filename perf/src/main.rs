//! `perf` — the repository's benchmark. One workload per invocation:
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! perf selfcheck [--sets 3] [--runs 5] [--out-dir DIR]
//! perf --worker --store DIR          (a cluster member; internal)
//! ```
//!
//! `--trace 0` is the untraced run and reports the end-to-end metrics;
//! `--trace 1` is the traced run and reports the per-layer metrics. Both
//! print a table, then one JSON line. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod check;
mod counters;
mod drive;
mod inputs;
mod layers;
mod link;
mod procstat;
mod report;
mod run;
mod selfcheck;
mod stats;
mod sut;
mod trace;
mod traced;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perf --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
       perf selfcheck [--sets N] [--runs N] [--out-dir DIR]
workloads: edge-frame, wire-unique, wire-hot, cluster-hot";

/// Where traces, sidecar results and the scratch model store go unless
/// `--out-dir` says otherwise; relative to the directory the benchmark is
/// run from, the repository root.
const OUT_DIR: &str = "perf/out";

/// `--flag value` pairs after an optional leading subcommand; `--worker`
/// alone takes no value.
fn parse_args(args: &[String]) -> Result<(Option<&str>, HashMap<&str, &str>), String> {
    let (command, mut rest) = match args.first() {
        Some(first) if !first.starts_with("--") => (Some(first.as_str()), &args[1..]),
        _ => (None, args),
    };
    let mut flags = HashMap::new();
    while let [flag, tail @ ..] = rest {
        let (value, tail) = match (flag.as_str(), tail) {
            ("--worker", _) => ("", tail),
            (_, [value, tail @ ..]) if flag.starts_with("--") => (value.as_str(), tail),
            _ => return Err(format!("{flag}: expected --flag value")),
        };
        if flags.insert(flag.as_str(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
        rest = tail;
    }
    Ok((command, flags))
}

/// The numeric value of `flag`, if it was given.
fn number<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    flag: &str,
) -> Result<Option<T>, String> {
    flags
        .get(flag)
        .map(|text| {
            text.parse()
                .map_err(|_| format!("{flag} {text}: not a number"))
        })
        .transpose()
}

fn required<T: std::str::FromStr>(flags: &HashMap<&str, &str>, flag: &str) -> Result<T, String> {
    number(flags, flag)?.ok_or(format!("{flag} is required"))
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let (command, flags) = parse_args(args)?;
    let known: &[&str] = match command {
        Some("selfcheck") => &["--sets", "--runs", "--out-dir"],
        Some(other) => return Err(format!("unknown command {other}")),
        None if flags.contains_key("--worker") => &["--worker", "--store"],
        None => &["--workload", "--seed", "--seconds", "--trace", "--out-dir"],
    };
    if let Some(unknown) = flags.keys().find(|flag| !known.contains(flag)) {
        return Err(format!("unknown flag {unknown}"));
    }
    let out_dir = PathBuf::from(flags.get("--out-dir").copied().unwrap_or(OUT_DIR));

    if flags.contains_key("--worker") {
        let store = flags.get("--store").ok_or("--worker needs --store DIR")?;
        sut::run_worker(std::path::Path::new(store))?;
        return Ok(ExitCode::SUCCESS);
    }
    if command == Some("selfcheck") {
        let agree = selfcheck::run(
            number(&flags, "--sets")?.unwrap_or(3),
            number(&flags, "--runs")?.unwrap_or(5),
            &out_dir,
        )?;
        return Ok(if agree {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    let seconds: u64 = required(&flags, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let plan = run::Plan::new(workload, required(&flags, "--seed")?, seconds, &out_dir)?;
    let report = match required::<u8>(&flags, "--trace")? {
        0 => run::untraced(&plan)?,
        1 => traced::traced(&plan)?,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    print!("{}", report.render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("perf: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_invocation_parses() {
        let argv = args("--workload wire-hot --seed 7 --seconds 3 --trace 1");
        let (command, flags) = parse_args(&argv).unwrap();
        assert_eq!(command, None);
        assert_eq!(flags["--workload"], "wire-hot");
        assert_eq!(required::<u64>(&flags, "--seed"), Ok(7));
        assert_eq!(required::<u8>(&flags, "--trace"), Ok(1));
    }

    #[test]
    fn subcommand_worker_and_errors() {
        let argv = args("selfcheck --sets 2");
        let (command, flags) = parse_args(&argv).unwrap();
        assert_eq!(command, Some("selfcheck"));
        assert_eq!(number::<usize>(&flags, "--sets"), Ok(Some(2)));
        assert_eq!(number::<usize>(&flags, "--runs"), Ok(None));
        assert!(required::<usize>(&flags, "--runs").is_err());

        let argv = args("--worker --store dir");
        let (_, flags) = parse_args(&argv).unwrap();
        assert_eq!(flags["--store"], "dir");

        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--seed 1 --seed 2")).is_err());
        assert!(number::<u64>(&HashMap::from([("--seed", "x")]), "--seed").is_err());
        assert!(real_main(&args("--workload nope")).is_err());
        assert!(real_main(&args("--workload edge-frame --seed 1 --trace 0")).is_err());
        assert!(real_main(&args("--workload edge-frame --bogus 1")).is_err());
        assert!(real_main(&args("selfcheck --seconds 5")).is_err());
    }
}
