//! The result of one benchmark run and its JSON line.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::stats::{geomean, median, quantile};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (requests) the run attempted.
    pub attempted: u64,
    /// Operations that failed (error answers, `Busy` refusals).
    pub failed: u64,
    /// End-to-end metrics, from the untraced phases.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Deterministic work counters that depend on the seed alone; two runs
    /// with the same seed must agree on every one of them.
    pub counters: BTreeMap<String, u64>,
    /// Counters that depend on the run length as well (hits, rounds):
    /// reported, not compared across runs.
    pub run_counters: BTreeMap<String, u64>,
    /// Every correctness violation found; the run is correct when empty.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Records `actual == expected` as a correctness requirement.
    pub fn require_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        actual: T,
        expected: T,
    ) {
        if actual != expected {
            self.problem(format!("{what}: got {actual:?}, expected {expected:?}"));
        }
    }

    /// Human-readable details for standard error.
    pub fn details(&self) -> String {
        let mut out = String::new();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            out.push_str(&format!("  {:<28} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        for (name, value) in self.counters.iter().chain(&self.run_counters) {
            out.push_str(&format!("  counter {name:<36} {value}\n"));
        }
        out.push_str(&format!(
            "  attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        for problem in &self.problems {
            out.push_str(&format!("  PROBLEM: {problem}\n"));
        }
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut correct = self.problems.is_empty() && self.attempted > 0;
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    correct = false;
                    "0".to_string()
                };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// The samples behind the end-to-end metrics of one run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up times, one per probed child process.
    pub setup_s: Vec<f64>,
    /// Wall clock of each cold round.
    pub cold_s: Vec<f64>,
    /// Latency of every miss.
    pub miss_ms: Vec<f64>,
    /// Latency of every hit.
    pub hit_ms: Vec<f64>,
    /// Wall clock of the warm rounds.
    pub warm: Duration,
    /// `baseline_us / optimized_us` of every checked distinct answer.
    pub speedups: Vec<f64>,
    /// `Ref_us / optimized_us` of every checked distinct answer.
    pub vs_ref: Vec<f64>,
    /// Peak resident memory of the searching process.
    pub peak_rss_mb: f64,
}

impl Samples {
    /// Reports the end-to-end metrics, and records the bits of the quality
    /// geomeans among the counters two runs of one seed must agree on.
    pub fn report(&self, out: &mut Outcome) {
        let geomean_speedup = geomean(&self.speedups);
        let vs_ref_geomean = geomean(&self.vs_ref);
        out.counters
            .insert("geomean_speedup.bits".into(), geomean_speedup.to_bits());
        out.counters
            .insert("vs_ref_geomean.bits".into(), vs_ref_geomean.to_bits());
        out.run_counters
            .insert("hits".into(), self.hit_ms.len() as u64);
        let hit_rps = self.hit_ms.len() as f64 / self.warm.as_secs_f64();
        out.metric("setup_s", median(&self.setup_s), "s");
        out.metric("cold_s", median(&self.cold_s), "s");
        out.metric("miss_p50_ms", median(&self.miss_ms), "ms");
        out.metric("hit_p50_ms", median(&self.hit_ms), "ms");
        out.metric("hit_p90_ms", quantile(&self.hit_ms, 0.9), "ms");
        out.metric("hit_rps", hit_rps, "1/s");
        out.metric("geomean_speedup", geomean_speedup, "x");
        out.metric("vs_ref_geomean", vs_ref_geomean, "x");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
    }
}
