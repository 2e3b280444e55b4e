//! Metric registry, run report and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; every
//! timed run prints all of [`END_TO_END`] and every traced run all of
//! [`PER_LAYER`]. A per-layer metric a workload does not exercise is
//! reported as 0 and marked `n/a` in the human-readable lines.

use crate::trace::SpanRec;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload defines each one.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("entities_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the workspace crate whose
/// public functions the traced run times.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("transformer.candidate_ms", "ms"),
    ("transformer.train_s", "s"),
    ("serd.decode_calls", "count"),
    ("serd.accept_ratio", "ratio"),
    ("serd.forced_frac", "ratio"),
    ("serd.prepare_ms", "ms"),
    ("serd.render_ms", "ms"),
    ("serd.unattributed_frac", "ratio"),
    ("serd.fit_other_s", "s"),
    ("serd.fidelity_jsd", "nats"),
    ("gmm.would_reject_ms", "ms"),
    ("gmm.commit_ms", "ms"),
    ("gmm.jsd_calls", "count"),
    ("gmm.s3_label_ms", "ms"),
    ("gmm.learn_s", "s"),
    ("gan.plausibility_us", "us"),
    ("er-core.ingest_records_per_s", "1/s"),
    ("er-core.profile_build_s", "s"),
    ("er-core.simvec_pairs_per_s", "1/s"),
    ("er-core.block_s", "s"),
    ("er-core.block_candidates", "count"),
    ("er-core.block_pc", "ratio"),
    ("er-core.block_rr", "ratio"),
    ("er-core.delta_us", "us"),
    ("er-core.s3_block_ms", "ms"),
    ("persist.save_s", "s"),
    ("persist.artifact_bytes", "bytes"),
    ("persist.load_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.materialize_ms", "ms"),
    ("serve.swaps_observed", "count"),
    ("serve.shed", "count"),
    ("serve.reqs_per_conn", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("serve.max_backlog", "count"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p99_ms", "ms"),
    ("parallel.utilization", "ratio"),
    ("parallel.jobs", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.e2e_p50_ms", "ms"),
    ("trace.e2e_entities_per_s", "1/s"),
    ("trace.replay_s", "s"),
];

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, fit iterations) plus output checks.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed output checks.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed by name (aliases such as
    /// `req_p99_ms`, sample counts, the tail percentile used).
    pub notes: Vec<(String, f64, &'static str)>,
    /// `(output, digest)` pairs, so two commits can tell whether bytes moved.
    pub digests: Vec<(String, String)>,
    /// Raw per-operation samples behind the medians, for the result file.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub spans: Vec<Vec<SpanRec>>,
}

impl Report {
    /// Records an output check; a failed check counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records `n` operations of which `failed` failed or were refused, and
    /// a check `name` that none did, so any failed operation fails the run.
    /// The operations are what count here; the check is not counted again.
    pub fn ops(&mut self, name: &str, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        self.checks.push(Check {
            name: name.to_string(),
            ok: failed == 0,
            detail: format!("{failed} of {n} failed or refused"),
        });
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    pub fn digest(&mut self, what: impl Into<String>, digest: u64) {
        self.digests.push((what.into(), format!("{digest:016x}")));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The per-layer figures every traced run reports: `parallel.*` (pool
    /// jobs and busy share between the two `parallel::pool_stats`
    /// snapshots, over `wall_s` × threads), `trace.*` (span count, the
    /// calibrated cost of the `loop_spans` the timed section opened as a
    /// share of its wall time, the replay's wall time) and the traced run's
    /// own end-to-end figures: its operations' median milliseconds `p50_ms`
    /// and its `entities_per_s`.
    pub fn insert_run_layers(
        &mut self,
        pool: [(u64, f64); 2],
        wall_s: f64,
        spans: usize,
        loop_spans: usize,
        replay_s: f64,
        p50_ms: f64,
    ) {
        let threads = parallel::num_threads().max(1) as f64;
        let wall_s = wall_s.max(1e-9);
        let l = &mut self.layers;
        l.insert("parallel.jobs", (pool[1].0 - pool[0].0) as f64);
        l.insert(
            "parallel.utilization",
            (pool[1].1 - pool[0].1) / (wall_s * threads),
        );
        l.insert("trace.spans", spans as f64);
        l.insert(
            "trace.overhead_frac",
            loop_spans as f64 * crate::trace::span_cost_s() / wall_s,
        );
        l.insert("trace.replay_s", replay_s);
        l.insert("trace.e2e_p50_ms", p50_ms);
        let entities_per_s = self.e2e.get("entities_per_s").copied().unwrap_or(0.0);
        l.insert("trace.e2e_entities_per_s", entities_per_s);
    }
}

/// Renders `{"name": {"value": v, "unit": u}, ...}` for the listed metrics,
/// taking values from `values` and 0 for metrics the run did not measure.
pub fn metrics_json(list: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s.trim_end_matches(".0").to_string()
    } else {
        "0".to_string()
    }
}

/// JSON string literal with the escapes the stamp and check details need.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
    }

    /// `BENCHMARK.json` at the checkout root must list exactly these
    /// metrics, in this order, with these units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = crate::sys::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the checkout root");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            let found = text[at..].find(&entry);
            assert!(
                found.is_some(),
                "{name} ({unit}) missing or out of order in BENCHMARK.json"
            );
            at += found.unwrap_or(0) + entry.len();
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn failed_checks_count_as_failures() {
        let mut r = Report::default();
        r.ops("ops", 10, 0);
        r.check("ok", true, "");
        assert!(r.correct());
        r.check("bad", false, "bytes differ");
        assert_eq!((r.attempted, r.failed), (12, 1));
        assert!(!r.correct());
        // One failed operation fails the run too.
        let mut r = Report::default();
        r.ops("ops", 10, 1);
        r.check("ok", true, "");
        assert_eq!((r.attempted, r.failed), (11, 1));
        assert!(!r.correct());
    }
}
