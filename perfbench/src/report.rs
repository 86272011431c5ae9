//! Metric names, units and the printed report.
//!
//! Every metric is a list of samples. Its value is the median, except
//! for names ending in `.tail`, whose value is the highest percentile
//! with at least ten samples beyond it (see [`stats::tail_percentile`]).

use crate::checks::Tally;
use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), as named in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 6] = [
    ("pass_s.p50", "s"),
    ("pass_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_frac", "ratio"),
    ("pp_err", "PP"),
];

/// Apps in paper order (the first six are the structured ones), and
/// MG-CFD's schemes by label.
pub const APPS: [&str; 7] = bench_harness::APP_NAMES;
pub const SCHEMES: [&str; 3] = ["atomics", "global", "hierarchical"];

/// Per-layer metrics (`--trace 1`), as named in BENCHMARK.json.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_owned(), unit));
    for g in [
        "table1",
        "figures",
        "heatmaps",
        "aggregates",
        "ablations",
        "csv",
    ] {
        add(&format!("bench.{g}_s"), "s");
    }
    add("portability.sweep_s", "s");
    add("portability.sweeps_per_pass", "ratio");
    add("session.create_us.p50", "us");
    add("session.observe_us.p50", "us");
    for app in APPS {
        add(&format!("miniapps.dry_run_us.{app}"), "us");
    }
    add("launch.dry_ns_per_launch", "ns");
    add("launch.count", "count");
    add("price.cache_hits", "count");
    add("price.cache_misses", "count");
    add("price.hit_ratio", "ratio");
    for app in APPS {
        add(&format!("miniapps.func_run_ms.{app}"), "ms");
    }
    add("launch.func_us_per_launch", "us");
    for app in &APPS[..6] {
        add(&format!("execute.share.{app}"), "ratio");
    }
    add("op2.mesh_build_us", "us");
    for s in SCHEMES {
        add(&format!("op2.plan_build_us.{s}"), "us");
    }
    for c in ["regions", "steals", "parks", "wakes"] {
        add(&format!("parkit.{c}"), "count");
    }
    add("parkit.regions_per_launch", "ratio");
    for (name, unit) in [
        ("study.elapsed_s", "s"),
        ("study.busy_s", "s"),
        ("study.utilisation", "ratio"),
        ("study.fleet_overhead_s", "s"),
        ("study.unit_wall_us.p50", "us"),
        ("study.unit_wall_us.tail", "us"),
        ("study.report_s", "s"),
        ("study.bytes_written", "bytes"),
        ("study.fixed_cost_s", "s"),
        ("study.retries", "count"),
        ("study.restarts", "count"),
        ("study.timeouts", "count"),
        ("sim.kernel_s", "sim_s"),
        ("sim.launch_overhead_s", "sim_s"),
        ("sim.transfer_s", "sim_s"),
        ("sim.exchange_s", "sim_s"),
        ("sim.boundary_s", "sim_s"),
        ("sim.transfers_real", "count"),
        ("sim.transfers_elided", "count"),
        ("sim.holes", "count"),
        ("sim.ledger_digest", "digest"),
    ] {
        add(name, unit);
    }
    for (variant, _) in crate::fidelity::PAPER_PP {
        add(&format!("fidelity.pp.{variant}_err"), "PP");
    }
    add("regen.stale_artifacts", "count");
    add("trace.overhead_frac", "ratio");
    m
}

/// Samples per metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_owned()).or_default().push(v);
    }

    pub fn extend(&mut self, name: &str, vs: impl IntoIterator<Item = f64>) {
        self.0.entry(name.to_owned()).or_default().extend(vs);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The metric's reported value (`None` when it has no samples).
    pub fn value(&self, name: &str) -> Option<f64> {
        let s = self.get(name);
        if s.is_empty() {
            None
        } else if name.ends_with(".tail") {
            Some(stats::quantile(
                s,
                f64::from(stats::tail_percentile(s.len())) / 100.0,
            ))
        } else {
            Some(stats::median(s))
        }
    }
}

/// Print the table of `metrics` (name, unit, sample count, median,
/// quartiles, `.tail` percentile, value), then the result line.
/// Fails when a metric has no samples.
pub fn emit(samples: &Samples, metrics: &[(String, &str)], tally: &Tally) -> Result<(), String> {
    println!(
        "{:34} {:>7} {:>5} {:>14} {:>14} {:>14} {:>5} {:>14}",
        "metric", "unit", "n", "median", "q1", "q3", "tail", "value"
    );
    let mut json = String::new();
    for (name, unit) in metrics {
        let s = samples.get(name);
        let value = samples
            .value(name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let tail = if name.ends_with(".tail") {
            format!("p{}", stats::tail_percentile(s.len()))
        } else {
            "-".into()
        };
        println!(
            "{:34} {:>7} {:>5} {:>14.6e} {:>14.6e} {:>14.6e} {:>5} {:>14.6e}",
            name,
            unit,
            s.len(),
            stats::median(s),
            stats::quantile(s, 0.25),
            stats::quantile(s, 0.75),
            tail,
            value
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for why in &tally.reasons {
        println!("# failed op: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree, names
    /// and units, so every run prints exactly what the file promises.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).unwrap();
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |k: &str| {
                        let at = entry.find(&format!("\"{k}\"")).unwrap() + k.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').unwrap() + 1;
                        let close = open + rest[open..].find('"').unwrap();
                        rest[open..close].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn tail_metrics_use_the_tail_percentile() {
        let mut s = Samples::default();
        s.extend("x.tail", (1..=100).map(f64::from));
        s.extend("x.p50", (1..=100).map(f64::from));
        assert_eq!(s.value("x.p50"), Some(50.5));
        assert!(s.value("x.tail").unwrap() > 89.0);
        assert_eq!(s.value("missing"), None);
    }
}
