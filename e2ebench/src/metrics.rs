//! The metric sheet: every end-to-end and per-layer metric the benchmark
//! reports, by name and unit. `BENCHMARK.json` at the repository root
//! lists the same names (a test keeps the two in step).

use crate::stats::{valid_name, valid_unit, Metric};
use std::collections::BTreeMap;

/// End-to-end metrics, measured on untraced runs: `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hpwl_delta_pct", "%"),
    ("disp_mean_rows", "rows"),
    ("disp_max_rows", "rows"),
];

/// Per-layer metrics, measured on traced runs: `(name, unit)`. A layer
/// a workload does not exercise reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("core.diffuse_ms", "ms"),
    ("core.splat_ms", "ms"),
    ("core.velocity_ms", "ms"),
    ("core.advect_ms", "ms"),
    ("core.ftcs_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.steps", "count"),
    ("core.rounds", "count"),
    ("core.advect_ns_per_cell_step", "ns"),
    ("core.ftcs_ns_per_bin_step", "ns"),
    ("core.overflow_diffused", "bin-area"),
    ("core.max_density_diffused", "ratio"),
    ("core.violations_diffused", "count"),
    ("legalize.detailed_ms", "ms"),
    ("legalize.disp_mean_rows", "rows"),
    ("legalize.greed_ms", "ms"),
    ("legalize.greed_ratio", "ratio"),
    ("place.legality_ms", "ms"),
    ("par.speedup_advect", "ratio"),
    ("par.speedup_ftcs", "ratio"),
    ("serve.encode_request_ms", "ms"),
    ("serve.decode_request_ms", "ms"),
    ("serve.encode_response_ms", "ms"),
    ("serve.decode_response_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.delta_bytes", "bytes"),
    ("serve.delta_diff_ms", "ms"),
    ("serve.delta_apply_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.reply_violations", "count"),
    ("serve.client_legalize_ms", "ms"),
    ("ctl.cache_hit_ratio", "ratio"),
    ("ctl.need_design", "count"),
    ("ctl.put_designs", "count"),
    ("ctl.overloaded", "count"),
    ("ctl.tenant0_p50_ms", "ms"),
    ("ctl.tenant1_p50_ms", "ms"),
    ("ctl.unattributed_ms", "ms"),
    ("trace.jobs", "count"),
    ("trace.job_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Values collected by name during a run, each with its sample count.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Sheet {
    /// Sets `name` (which must be declared in [`E2E`] or [`LAYERS`]).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            E2E.iter().chain(LAYERS).any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, (value, samples));
    }

    /// The declared metrics of one list, in declaration order. Every
    /// one must have been set.
    pub fn collect(&self, list: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, String> {
        list.iter()
            .map(|&(name, unit)| {
                let (value, samples) = *self
                    .values
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if !valid_name(name) || !valid_unit(unit) {
                    return Err(format!("metric {name} [{unit}] breaks the naming rules"));
                }
                if !value.is_finite() {
                    return Err(format!("metric {name} is {value}"));
                }
                Ok(Metric {
                    name,
                    value,
                    unit,
                    samples,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly these metrics, with these
    /// units, in this order.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared: Vec<String> = json
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| l.trim().to_string())
            .collect();
        let expected: Vec<String> = E2E
            .iter()
            .chain(LAYERS)
            .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\","))
            .collect();
        assert_eq!(declared.len(), expected.len());
        for (d, e) in declared.iter().zip(&expected) {
            assert!(d.starts_with(e.as_str()), "{d} should start with {e}");
        }
        for (n, _) in E2E {
            assert_eq!(LAYERS.iter().filter(|m| m.0 == *n).count(), 0);
        }
    }

    #[test]
    fn collect_requires_every_metric() {
        let mut s = Sheet::default();
        s.set("job_p50_ms", 1.0, 4);
        assert!(s.collect(&E2E[..1]).is_ok());
        assert!(s.collect(E2E).is_err());
        s.set("job_p90_ms", f64::NAN, 4);
        assert!(s.collect(&E2E[..2]).is_err());
    }
}
