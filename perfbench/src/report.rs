//! The result of one workload run and its JSON rendering.
//!
//! A run reports three metric families:
//!
//! * the **end-to-end** metrics every workload reports under the same
//!   names ([`E2E`]), each with its unit and sample count;
//! * the workload's **named** metrics, the user-facing figures under their
//!   own names (`steps_per_s`, `time_to_99_s`, `ctl_p99_ms`, …);
//! * the **per-layer** metrics ([`LAYERS`]), filled by traced runs. A
//!   layer the workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics, identical in name and unit on every workload.
pub const E2E: &[(&str, &str)] =
    &[("setup_s", "s"), ("actions_per_s", "1/s"), ("job_s", "s"), ("peak_rss_mb", "MiB")];

/// Every per-layer metric, with its unit. Traced runs report all of them;
/// a layer the workload never calls reads 0. Layer timings are given as
/// rates or as shares of wall time, never as seconds, so that a layer's
/// absence reads as a zero rate rather than a zero duration.
pub const LAYERS: &[(&str, &str)] = &[
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("share.topology", "ratio"),
    ("share.flat", "ratio"),
    ("share.par", "ratio"),
    ("share.broadcast", "ratio"),
    ("share.markov", "ratio"),
    ("share.scenario", "ratio"),
    ("share.daemon", "ratio"),
    ("share.daemon.http", "ratio"),
    ("machine.nproc", "count"),
    ("machine.l2_mib", "MiB"),
    ("machine.l3_mib", "MiB"),
    ("machine.stream_gib_s", "GiB/s"),
    ("machine.fnv_gib_s", "GiB/s"),
    ("machine.xoshiro_mops", "1/us"),
    ("machine.steal_share", "ratio"),
    ("workload.working_set_mib", "MiB"),
    ("workload.working_set_over_l3", "ratio"),
    ("topology.nodes_per_s", "1/s"),
    ("topology.arena_mib", "MiB"),
    ("flat.rounds_per_s", "1/s"),
    ("flat.round_max_over_p50", "ratio"),
    ("flat.rounds", "count"),
    ("flat.actions_per_us", "1/us"),
    ("flat.actions", "count"),
    ("flat.self_loops", "count"),
    ("flat.sent", "count"),
    ("flat.lost", "count"),
    ("flat.stored", "count"),
    ("flat.deleted", "count"),
    ("flat.duplications", "count"),
    ("flat.useful_ratio", "ratio"),
    ("flat.self_loop_share", "ratio"),
    ("par.rounds_per_s", "1/s"),
    ("par.rounds", "count"),
    ("par.cpu_util", "ratio"),
    ("par.action_share", "ratio"),
    ("par.merge_share", "ratio"),
    ("par.deliver_share", "ratio"),
    ("par.shard_imbalance", "ratio"),
    ("broadcast.steps_per_s", "1/s"),
    ("broadcast.step_max_over_p50", "ratio"),
    ("broadcast.steps", "count"),
    ("broadcast.sent", "count"),
    ("broadcast.lost", "count"),
    ("broadcast.delivered", "count"),
    ("broadcast.duplicates", "count"),
    ("broadcast.useful_ratio", "ratio"),
    ("broadcast.rounds_to_99", "rounds"),
    ("broadcast.msgs_per_node", "count"),
    ("markov.solves_per_s", "1/s"),
    ("markov.solves", "count"),
    ("markov.states", "count"),
    ("markov.iterations", "count"),
    ("scenario.sim_rounds", "rounds"),
    ("scenario.report_rounds", "rounds"),
    ("scenario.replay_ratio", "ratio"),
    ("scenario.churn_leaves", "count"),
    ("scenario.churn_joins", "count"),
    ("scenario.retargets", "count"),
    ("sweep.cells_per_s", "1/s"),
    ("daemon.spawns_per_s", "1/s"),
    ("wheel.rounds_per_s", "1/s"),
    ("wheel.nominal_rounds_per_s", "1/s"),
    ("daemon.loop_busy", "ratio"),
    ("net.sent_per_action", "ratio"),
    ("net.dropped_per_action", "ratio"),
    ("net.dead_letters_per_action", "ratio"),
    ("net.recv_errors_per_action", "ratio"),
    ("http.scrape_p50_per_s", "1/s"),
    ("http.scrape_p90_per_s", "1/s"),
    ("http.join_p50_per_s", "1/s"),
    ("http.join_p90_per_s", "1/s"),
    ("http.leave_p50_per_s", "1/s"),
    ("http.leave_p90_per_s", "1/s"),
    ("http.busy", "ratio"),
    ("daemon.checks", "count"),
    ("daemon.degree_violations", "count"),
    ("daemon.stale_violations", "count"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, Metric>,
    pub named: Vec<(&'static str, Metric)>,
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Operations whose output was checked one by one (HTTP requests), on
    /// top of the whole-run checks.
    pub ops_checked: u64,
    pub ops_failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = E2E.iter().find(|(n, _)| *n == name).expect("declared end-to-end metric").1;
        self.e2e.insert(name, Metric { value, unit, samples });
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.named.push((name, Metric { value, unit, samples }));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(LAYERS.iter().any(|(n, _)| *n == name), "undeclared layer metric {name}");
        self.layers.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), ok, detail: detail.into() });
    }

    pub fn attempted(&self) -> u64 {
        self.checks.len() as u64 + self.ops_checked
    }

    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64 + self.ops_failed
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Human-readable lines: checks, named and end-to-end metrics.
    pub fn render_text(&self, workload: &str) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "# check {verdict} {workload}: {} — {}", c.name, c.detail);
        }
        let named = self.named.iter().map(|(n, m)| (*n, m));
        for (name, m) in named.chain(self.e2e.iter().map(|(n, m)| (*n, m))) {
            let _ = writeln!(
                out,
                "# metric {workload} {name} = {} {} (n={})",
                fmt_num(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }

    /// The machine-readable result, one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let metric_obj = |m: &Metric| {
            format!(
                "{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                fmt_num(m.value),
                m.unit,
                m.samples
            )
        };
        let e2e: Vec<String> =
            self.e2e.iter().map(|(n, m)| format!("\"{n}\":{}", metric_obj(m))).collect();
        let named: Vec<String> =
            self.named.iter().map(|(n, m)| format!("\"{n}\":{}", metric_obj(m))).collect();
        let layers: Vec<String> = LAYERS
            .iter()
            .map(|(n, unit)| {
                let value = self.layers.get(n).copied().unwrap_or(0.0);
                format!("\"{n}\":{{\"value\":{},\"unit\":\"{unit}\"}}", fmt_num(value))
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                    escape(&c.name),
                    c.ok,
                    escape(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"e2e\":{{{}}},\"named\":{{{}}},\"layers\":{{{}}},\
             \"checks\":[{}]}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            e2e.join(","),
            named.join(","),
            if trace { layers.join(",") } else { String::new() },
            checks.join(",")
        )
    }
}

/// A number as JSON, with all its digits; non-finite values become 0.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The `q`-quantile (nearest rank) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `1 / x`, or 0 when nothing was measured.
pub fn rate(x: f64) -> f64 {
    if x > 0.0 {
        1.0 / x
    } else {
        0.0
    }
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failures_count_checks_and_ops() {
        let mut r = Report::default();
        r.check("a", true, "");
        r.check("b", false, "x");
        r.ops_checked = 10;
        r.ops_failed = 1;
        assert_eq!((r.attempted(), r.failed(), r.correct()), (12, 2, false));
    }
}
