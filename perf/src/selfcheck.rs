//! `perf selfcheck`: does the benchmark agree with itself?
//!
//! Runs every workload untraced in alternating sets — each run a fresh
//! process with its own seed, as the acceptance check runs them — and
//! compares the sets: per metric and workload the set medians, the
//! quartiles, each set's quartile spread, the per-run range and the bound
//! from `BENCHMARK.json`. Exits non-zero when any two set medians of the
//! same code disagree by more than the metric's bound, or when a set
//! spreads wider than the bound (`setup_s` excepted, as in the acceptance
//! check).

use crate::stats::{iqr_share, median, quartiles, range_share};
use crate::workloads::{END_TO_END, WORKLOADS};
use sesr_telemetry::json::{parse, Value};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One untraced run in a child process: the metric values in `END_TO_END`
/// order, and whether the run flagged itself as disturbed.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
) -> Result<(Vec<f64>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // lint: allow(process-spawn): one run = one fresh process (peak RSS is per process); `output()` waits for it
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let result = parse(line).map_err(|e| format!("{workload}: result line: {e:?}"))?;
    let healthy = result.get("correct") == Some(&Value::Bool(true))
        && result.get("failed").and_then(Value::as_u64) == Some(0);
    if !healthy {
        return Err(format!(
            "{workload} seed {seed}: incorrect or failed: {line}"
        ));
    }
    let values = END_TO_END
        .iter()
        .map(|def| {
            result
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{workload}: no {} in {line}", def.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sidecar = std::fs::read_to_string(out_dir.join(format!("{workload}.json")))
        .map_err(|e| e.to_string())?;
    let disturbed = parse(&sidecar)
        .ok()
        .and_then(|v| v.get("disturbed").cloned())
        == Some(Value::Bool(true));
    Ok((values, disturbed))
}

/// `BENCHMARK.json` in the current directory: the run length, and the bound
/// of every end-to-end metric.
fn manifest() -> Result<(u64, Vec<f64>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let run_seconds = manifest
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let bounds = END_TO_END
        .iter()
        .map(|def| {
            manifest
                .get("end_to_end")
                .and_then(Value::as_array)
                .and_then(|list| {
                    list.iter()
                        .find(|e| e.get("name").and_then(Value::as_str) == Some(def.name))
                })
                .and_then(|e| e.get("bound"))
                .and_then(Value::as_f64)
                .ok_or(format!("BENCHMARK.json has no bound for {}", def.name))
        })
        .collect::<Result<_, _>>()?;
    Ok((run_seconds, bounds))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    // lint: allow(process-spawn): `rustc -V` / `git rev-parse` for the report header; `output()` waits for it
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Largest relative disagreement between any two of `medians`.
fn worst_pair(medians: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for (i, a) in medians.iter().enumerate() {
        for b in &medians[i + 1..] {
            let base = a.abs().min(b.abs());
            if base > 0.0 {
                worst = worst.max((a - b).abs() / base);
            }
        }
    }
    worst
}

/// Run the check at the benchmark's own run length — the bounds are fixed
/// for that length and no other; `Ok(true)` when every pair of set medians
/// agrees within its bound.
pub fn run(sets: usize, runs: usize, out_dir: &Path) -> Result<bool, String> {
    let (seconds, bounds) = manifest()?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut text = format!(
        "selfcheck: {sets} sets x {runs} runs x {} workloads, {seconds} s each\n\
         nproc {nproc}  |  {}  |  git {}\n",
        WORKLOADS.len(),
        tool_line("rustc", &["-V"]),
        tool_line("git", &["rev-parse", "HEAD"]),
    );
    // values[workload][metric][set] = that set's per-run values
    let mut values = vec![vec![vec![Vec::new(); sets]; END_TO_END.len()]; WORKLOADS.len()];
    let mut disturbed_runs = Vec::new();
    let mut seed = 0;
    for set in 0..sets {
        for _ in 0..runs {
            for (workload, values) in WORKLOADS.iter().zip(&mut values) {
                seed += 1;
                let (run, disturbed) = child_run(workload.name, seed, seconds, out_dir)?;
                eprintln!("set {set} {} seed {seed}: {run:?}", workload.name);
                if disturbed {
                    disturbed_runs.push(format!("{} seed {seed} (set {set})", workload.name));
                }
                for (value, by_set) in run.into_iter().zip(values) {
                    by_set[set].push(value);
                }
            }
        }
    }

    let mut agree = true;
    let _ = writeln!(
        text,
        "\n| workload | metric | set medians | q1 / q3 (all runs) | IQR/median per set | (max-min)/median | worst set pair | bound | |\n|---|---|---|---|---|---|---|---|---|"
    );
    let list = |values: &[f64], digits: usize, scale: f64, suffix: &str| {
        values
            .iter()
            .map(|v| format!("{:.digits$}{suffix}", v * scale))
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (workload, values) in WORKLOADS.iter().zip(&values) {
        for ((def, by_set), bound) in END_TO_END.iter().zip(values).zip(&bounds) {
            let medians: Vec<f64> = by_set.iter().map(|runs| median(runs)).collect();
            let spreads: Vec<f64> = by_set.iter().map(|runs| iqr_share(runs)).collect();
            let all: Vec<f64> = by_set.iter().flatten().copied().collect();
            let (q1, _, q3) = quartiles(&all).unwrap_or((all[0], all[0], all[0]));
            let pair = worst_pair(&medians);
            let noisy = def.name != "setup_s" && spreads.iter().any(|s| s > bound);
            let verdict = if pair > *bound {
                agree = false;
                "DISAGREE"
            } else if noisy {
                agree = false;
                "TOO NOISY"
            } else if pair > bound / 2.0 {
                "over half the bound"
            } else {
                "ok"
            };
            let _ = writeln!(
                text,
                "| {} | {} ({}) | {} | {q1:.4} / {q3:.4} | {} | {:.1}% | {:.1}% | {:.0}% | {verdict} |",
                workload.name,
                def.name,
                def.unit,
                list(&medians, 4, 1.0, ""),
                list(&spreads, 1, 100.0, "%"),
                range_share(&all) * 100.0,
                pair * 100.0,
                bound * 100.0,
            );
        }
    }
    let _ = writeln!(
        text,
        "\ndisturbed runs (ref kernel before vs after > {:.0}%): {}",
        crate::run::DISTURBED * 100.0,
        if disturbed_runs.is_empty() {
            "none".to_string()
        } else {
            disturbed_runs.join("; ")
        }
    );
    let _ = writeln!(
        text,
        "verdict: {}",
        if agree {
            "every pair of set medians agrees within its bound, and every set spreads within it"
        } else {
            "set medians DISAGREE beyond a bound, or a set is TOO NOISY for it"
        }
    );
    print!("{text}");
    let path = out_dir.join("selfcheck.md");
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_pair_is_relative_to_the_smaller_median() {
        assert_eq!(worst_pair(&[10.0, 10.0, 10.0]), 0.0);
        assert!((worst_pair(&[10.0, 11.0, 10.5]) - 0.1).abs() < 1e-12);
        assert_eq!(worst_pair(&[5.0]), 0.0);
    }
}
