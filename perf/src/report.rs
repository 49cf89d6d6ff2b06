//! What a run prints: a human-readable table, then — as the last line of
//! standard output — one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use crate::workloads::{MetricDef, Workload};
use std::fmt::Write as _;

/// The result of one run.
pub struct Report {
    pub workload: &'static Workload,
    pub traced: bool,
    pub seed: u64,
    pub seconds: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// One value per metric of the run's kind, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Context lines for the table: sample counts, digest, first problem.
    pub notes: Vec<(String, String)>,
}

/// A JSON number with all the digits measured. A value that is not finite
/// cannot be written as JSON and is a bug upstream; it prints as 0 so the
/// line stays well-formed and the zero shows.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// The machine-readable result line.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let _ = write!(
                line,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                def.name,
                number(*value),
                def.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// The table for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  seconds {}  {}\nwhy: {}\n",
            self.workload.name,
            self.seed,
            self.seconds,
            if self.traced {
                "traced run (per-layer metrics)"
            } else {
                "untraced run (end-to-end metrics)"
            },
            self.workload.why
        );
        let _ = writeln!(
            out,
            "correct {}  attempted {}  failed {}",
            self.correct, self.attempted, self.failed
        );
        for (key, value) in &self.notes {
            let _ = writeln!(out, "{key:<34} {value}");
        }
        let _ = writeln!(out, "{:<34} {:>16} {:<9} better", "metric", "value", "unit");
        for (def, value) in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>16.4} {:<9} {}",
                def.name, value, def.unit, def.better
            );
        }
        out
    }

    /// The whole standard output of a run: table first, JSON line last.
    pub fn render(&self) -> String {
        format!("{}{}\n", self.table(), self.json_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{END_TO_END, WORKLOADS};
    use sesr_telemetry::json::{parse, Value};

    fn sample() -> Report {
        Report {
            workload: &WORKLOADS[0],
            traced: false,
            seed: 1,
            seconds: 2,
            correct: true,
            attempted: 40,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .zip([0.8127, 1.2034, 19.5, f64::NAN, 74.59765625])
                .collect(),
            notes: vec![("output_digest".to_string(), "00ff".to_string())],
        }
    }

    #[test]
    fn json_line_is_well_formed_with_exactly_the_contract_keys() {
        let report = sample();
        let value = parse(&report.json_line()).expect("valid JSON");
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(value.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(value.get("attempted").unwrap().as_u64(), Some(40));
        assert_eq!(value.get("failed").unwrap().as_u64(), Some(0));
        let metrics = value.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, metric), def) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(metric.get("unit").unwrap().as_str(), Some(def.unit));
            assert!(metric.get("value").unwrap().as_f64().is_some());
        }
        // All measured digits survive; a non-finite value degrades to 0.
        assert_eq!(
            metrics[4].1.get("value").unwrap().as_f64(),
            Some(74.59765625)
        );
        assert_eq!(metrics[3].1.get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn json_line_is_the_last_line_of_the_output() {
        let report = sample();
        let rendered = report.render();
        assert!(rendered.ends_with('\n'));
        let last = rendered.lines().last().unwrap();
        assert_eq!(last, report.json_line());
        assert!(!report.json_line().contains('\n'));
        assert!(rendered.lines().count() > 5, "the table comes first");
    }
}
