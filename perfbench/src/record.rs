//! The benchmark's own tracing: spans around calls into the program's
//! layers, recorded on an `hpf_obs` pipeline collector and kept in memory
//! until the run ends, plus per-operation values. Nothing inside the
//! program is instrumented: the compile phases are the spans the public
//! `hpf_compile::compile_source_traced` records on the collector it is
//! handed.

use hpf_obs::{BufTracer, Trace, Tracer};
use std::collections::BTreeMap;

/// The compiler's phase spans and the layer each one times.
const COMPILE_PHASES: [(&str, &str); 6] = [
    ("parse", "ir.parse"),
    ("ssa", "analysis.run"),
    ("mapping", "dist.mapping"),
    ("privatization", "core.map_program"),
    ("lower", "spmd.lower"),
    ("combine", "spmd.combine"),
];

/// In-memory span and value recorder of a traced run.
pub struct Recorder {
    tracer: BufTracer,
    /// Index of each operation's (or probe's) first event.
    op_starts: Vec<usize>,
    /// Each operation's values, summed within the operation.
    op_values: Vec<BTreeMap<&'static str, f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            tracer: BufTracer::pipeline(),
            op_starts: vec![0],
            op_values: vec![BTreeMap::new()],
        }
    }
}

impl Recorder {
    /// Start a new operation or probe: later spans and values belong to it.
    /// Spans left open by a failed operation are ignored.
    pub fn next_op(&mut self) {
        self.op_starts.push(self.tracer.len());
        self.op_values.push(BTreeMap::new());
    }

    /// The collector, for a layer call that records its own spans.
    pub fn tracer(&mut self) -> &mut BufTracer {
        &mut self.tracer
    }

    /// Open a span named after the layer call it times.
    pub fn begin(&mut self, name: &str) {
        self.tracer.begin(name);
    }

    /// Close the innermost open span `name`.
    pub fn end(&mut self, name: &str) {
        self.tracer.end(name);
    }

    /// Time `f` as span `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        hpf_obs::span(&mut self.tracer, name, |_| f())
    }

    /// Add `v` to the current operation's value of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        let values = self.op_values.last_mut().expect("an operation is open");
        *values.entry(name).or_insert(0.0) += v;
    }

    /// Every span's per-operation total (seconds, keyed `<layer>_s`) and
    /// every value, as the median over the operations that recorded it.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        let events = self.tracer.events();
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, values) in self.op_values.iter().enumerate() {
            let end = self.op_starts.get(i + 1).copied().unwrap_or(events.len());
            let spans = Trace::from_pipeline(events[self.op_starts[i]..end].to_vec());
            let mut per_op: BTreeMap<String, f64> = values
                .iter()
                .map(|(&name, &v)| (name.to_string(), v))
                .collect();
            for (span, us) in spans.span_durations() {
                let layer = COMPILE_PHASES
                    .iter()
                    .find(|(phase, _)| *phase == span)
                    .map_or(span.as_str(), |(_, layer)| layer);
                *per_op.entry(format!("{layer}_s")).or_insert(0.0) += us as f64 * 1e-6;
            }
            for (name, v) in per_op {
                by_name.entry(name).or_default().push(v);
            }
        }
        by_name
            .into_iter()
            .map(|(k, mut v)| (k, median(&mut v)))
            .collect()
    }

    /// Every span of the run as chrome://tracing JSON.
    pub fn to_chrome_json(&self) -> String {
        Trace::from_pipeline(self.tracer.events().to_vec()).to_chrome_json()
    }
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail_percentile(v: &mut [f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_sum_within_an_operation() {
        let mut r = Recorder::default();
        r.add("count", 2.0);
        r.add("count", 3.0);
        r.next_op();
        r.add("count", 7.0);
        r.next_op();
        r.add("count", 1.0);
        r.begin("outer");
        r.time("parse", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.end("outer");
        r.next_op();
        // A failed operation's open span is not counted.
        r.begin("outer");
        let m = r.medians();
        assert_eq!(m["count"], 5.0);
        assert!(m["ir.parse_s"] >= 0.002, "{m:?}");
        assert!(m["outer_s"] >= m["ir.parse_s"]);
        assert!(!m.contains_key("parse_s"));
        assert!(r.to_chrome_json().contains("\"name\":\"outer\""));
    }

    #[test]
    fn tail_percentile_leaves_ten_beyond() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        let (p, x) = tail_percentile(&mut v).unwrap();
        assert_eq!(x, 10.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        assert!((p - 50.0).abs() < 1e-9);
        assert!(tail_percentile(&mut v[..10]).is_none());
    }
}
