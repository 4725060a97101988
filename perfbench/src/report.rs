//! The metric catalog and the result a run prints.
//!
//! Every workload prints every metric of the mode it ran in, so the
//! result of each run has the same keys. An end-to-end metric is
//! measured on every workload. A per-layer metric of a layer a workload
//! does not load reads 0 (the README in this directory lists which
//! workload loads which layer).

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("txn_p99_us", "us"),
    ("send_p50_us", "us"),
    ("send_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("db.send_self_us", "us"),
    ("db.allocs_per_send", "count"),
    ("db.commit_us", "us"),
    ("db.allocs_per_txn", "count"),
    ("db.abort_us", "us"),
    ("db.aborts_per_txn", "count"),
    ("rules.notifications_per_send", "count"),
    ("rules.firings_per_notification", "count"),
    ("rules.condition_us", "us"),
    ("rules.condition_evals_per_send", "count"),
    ("rules.action_us", "us"),
    ("rules.deferred_per_commit", "count"),
    ("rules.detached_per_commit", "count"),
    ("events.occurrences_per_send", "count"),
    ("events.advance_us", "us"),
    ("events.timer_fires", "count"),
    ("session.lock_wait_p50_us", "us"),
    ("session.lock_wait_p99_us", "us"),
    ("object.get_attr_us", "us"),
    ("query.run_us", "us"),
    ("query.lateness_us", "us"),
    ("storage.log_bytes_per_commit", "bytes"),
    ("storage.commits_per_fsync", "count"),
    ("storage.fsync_us", "us"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.recover_records_per_s", "1/s"),
    ("analyze.ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed", "ratio"),
    ("mix.share", "ratio"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("recover_s", "s"),
    ("log_bytes_per_txn", "bytes"),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: transactions, reads and reference checks.
    pub attempted: u64,
    /// Unexpected errors plus mismatches with a reference check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one checked outcome; a mismatch is reported and failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count and report a failure of an operation already attempted.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 20 {
            self.lines.push(format!("FAILED: {}", what.into()));
        }
    }

    /// Add a table line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics of `catalog`, each with its unit. A metric the run did not
    /// set reads 0.
    pub fn result_json(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list of BENCHMARK.json.
    fn listed(spec: &str, list: &str) -> Vec<(String, String)> {
        let start = spec.find(&format!("\"{list}\"")).expect("list present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("field present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(catalog: &[(&str, &str)]) -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        assert_eq!(listed(&spec, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_and_the_counts() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.5);
        o.check(true, || unreachable!());
        o.check(false, || "mismatch".into());
        let line = o.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
