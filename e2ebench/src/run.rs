//! What one benchmark run collects: accounting, the metric sheet, notes
//! for the report, and the traced spans.

use crate::metrics::Sheet;
use crate::quality::Quality;
use crate::stats::{
    beyond, block_rate, input_quantile, json_num, quantile, tail_quantile, Accounting,
};
use crate::trace::Layers;
use dpm_obs::SpanRecord;

#[derive(Default)]
pub struct Run {
    pub acc: Accounting,
    pub sheet: Sheet,
    /// `(key, JSON value)` pairs for the report line.
    pub notes: Vec<(String, String)>,
    /// Traced spans with the thread row they are drawn on.
    pub spans: Vec<(u32, SpanRecord)>,
}

impl Run {
    pub fn note(&mut self, key: &str, json: impl Into<String>) {
        self.notes.push((key.to_string(), json.into()));
    }

    /// `setup_s` is the median of several timed set-ups.
    pub fn setup(&mut self, seconds: &[f64]) {
        let median = quantile(seconds, 0.5).unwrap_or(0.0);
        self.sheet.set("setup_s", median, seconds.len());
    }

    /// `job_p50_ms`, `job_p90_ms` and `jobs_per_s` from the jobs of a
    /// run in completion order: each job's time `ms`, the `inputs` it ran
    /// on and its occupancy `gaps_ms` (see [`block_rate`]).
    ///
    /// The median is over all jobs. The p90 is over the run's distinct
    /// inputs of each input's median time, and the rate is the median
    /// over blocks of `block` consecutive jobs: a burst of load from
    /// outside the program slows single jobs, which these medians pass
    /// over. The report keeps the p90 over all jobs and the highest tail
    /// quantile that has ten jobs beyond it.
    pub fn timing(&mut self, ms: &[f64], inputs: &[u64], gaps_ms: &[f64], block: usize) {
        let n = ms.len();
        self.sheet
            .set("job_p50_ms", quantile(ms, 0.5).unwrap_or(0.0), n);
        let (p90, distinct) = input_quantile(inputs, ms, 0.9).unwrap_or((0.0, 0));
        self.sheet.set("job_p90_ms", p90, n);
        let (rate, blocks) = block_rate(gaps_ms, block).unwrap_or((0.0, 0));
        self.sheet.set("jobs_per_s", rate, gaps_ms.len());
        let tail = tail_quantile(n).map_or("null".to_string(), |q| {
            format!(
                "{{\"q\": {}, \"ms\": {}}}",
                json_num(q),
                json_num(quantile(ms, q).unwrap_or(0.0))
            )
        });
        self.note(
            "timing",
            format!(
                "{{\"samples\": {n}, \"inputs\": {distinct}, \"rate_block\": {block}, \
                 \"rate_blocks\": {blocks}, \"p90_all_ms\": {}, \"beyond_p90_all\": {}, \
                 \"tail_with_10_beyond\": {tail}}}",
                json_num(quantile(ms, 0.9).unwrap_or(0.0)),
                beyond(n, 0.9)
            ),
        );
    }

    pub fn quality(&mut self, q: &Quality, samples: usize) {
        self.sheet.set("hpwl_delta_pct", q.hpwl_delta_pct, samples);
        self.sheet.set("disp_mean_rows", q.disp_mean_rows, samples);
        self.sheet.set("disp_max_rows", q.disp_max_rows, samples);
    }

    /// Records the traced jobs' totals and checks that the layers plus
    /// the unattributed remainders add up to the jobs' wall time.
    pub fn layer_sum(&mut self, layers: &Layers) {
        let jobs = layers.jobs as usize;
        self.sheet.set("trace.jobs", layers.jobs as f64, jobs);
        let mean_ms = layers.total_ns as f64 / layers.jobs.max(1) as f64 / 1e6;
        self.sheet.set("trace.job_ms", mean_ms, jobs);
        self.acc.check(
            layers.self_sum_ns() == layers.total_ns,
            &format!(
                "layers sum to {} ns, jobs took {} ns",
                layers.self_sum_ns(),
                layers.total_ns
            ),
        );
        let per_layer: Vec<String> = layers
            .self_ns
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        self.note("layer_self_ns", format!("{{{}}}", per_layer.join(", ")));
        self.note("layer_total_ns", layers.total_ns.to_string());
    }

    /// `trace.overhead_pct`: traced against untraced median job time in
    /// the same run.
    pub fn overhead(&mut self, traced_ms: &[f64], plain_ms: &[f64]) {
        let (t, p) = (quantile(traced_ms, 0.5), quantile(plain_ms, 0.5));
        let pct = match (t, p) {
            (Some(t), Some(p)) if p > 0.0 => 100.0 * (t - p) / p,
            _ => 0.0,
        };
        self.sheet.set(
            "trace.overhead_pct",
            pct,
            traced_ms.len().min(plain_ms.len()),
        );
    }

    /// Layers this workload does not exercise report 0.
    pub fn not_exercised(&mut self, names: &[&'static str]) {
        for &name in names {
            self.sheet.set(name, 0.0, 0);
        }
    }
}

/// SplitMix64 of `seed` and a stream index: per-design seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
