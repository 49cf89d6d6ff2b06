//! Driver-side spans of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer, kept in memory and written out when the run ends. Every span
//! of one request shares its sequence number; every span but the root
//! (`client.request`) was caused by the root. A disabled tracer takes no
//! timestamps, so the untraced run executes the same code without the cost.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the span that covers a request from send to last byte.
pub const ROOT: &str = "client.request";

/// One timed interval of one request.
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder; `Tracer::off()` records nothing.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: None,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Some(Vec::new()),
        }
    }

    /// Start of a span: a timestamp when tracing, nothing otherwise.
    pub fn begin(&self) -> Option<Instant> {
        self.spans.as_ref().map(|_| Instant::now())
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, started: Option<Instant>, request: u64, name: &'static str) {
        if let Some(started) = started {
            self.record(request, name, started, Instant::now());
        }
    }

    /// Record a span whose ends the caller already timed.
    pub fn record(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        let epoch = self.epoch;
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                request,
                name,
                start_ns: (start - epoch).as_nanos() as u64,
                end_ns: (end - epoch).as_nanos() as u64,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Median duration per span name in microseconds, plus the root's self
    /// time (its duration minus what its child spans cover) as
    /// `client.request.self`.
    pub fn medians_us(&self) -> BTreeMap<String, f64> {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for span in self.spans() {
            let ns = span.end_ns - span.start_ns;
            by_name.entry(span.name).or_default().push(ns as f64 / 1e3);
            if span.name != ROOT {
                *covered.entry(span.request).or_default() += ns;
            }
        }
        let self_us: Vec<f64> = self
            .spans()
            .iter()
            .filter(|span| span.name == ROOT)
            .map(|span| {
                let children = covered.get(&span.request).copied().unwrap_or(0);
                (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e3
            })
            .collect();
        let mut out: BTreeMap<String, f64> = by_name
            .into_iter()
            .map(|(name, values)| (name.to_string(), median(&values)))
            .collect();
        if !self_us.is_empty() {
            out.insert(format!("{ROOT}.self"), median(&self_us));
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let parent = if span.name == ROOT { "" } else { ROOT };
            writeln!(
                out,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.request, span.name, parent, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let span = tracer.begin();
        assert!(span.is_none());
        tracer.end(span, 1, "net.encode_request");
        assert!(tracer.spans().is_empty());
        assert!(tracer.medians_us().is_empty());
    }

    #[test]
    fn root_self_time_excludes_children() {
        let mut tracer = Tracer::on();
        let t0 = tracer.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        tracer.record(7, ROOT, at(0), at(100));
        tracer.record(7, "client.write", at(0), at(10));
        tracer.record(7, "client.wait", at(10), at(90));
        let medians = tracer.medians_us();
        assert_eq!(medians[ROOT], 100.0);
        assert_eq!(medians["client.wait"], 80.0);
        assert_eq!(medians["client.request.self"], 10.0);
    }
}
