//! Sample statistics, metric records, failure accounting and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Linear-interpolation quantile of `samples` (need not be sorted);
/// `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The `q` quantile over distinct inputs of each input's median sample,
/// with the number of inputs; `inputs[i]` names the input `samples[i]`
/// was taken on.
pub fn input_quantile(inputs: &[u64], samples: &[f64], q: f64) -> Option<(f64, usize)> {
    let mut by_input: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&k, &v) in inputs.iter().zip(samples) {
        by_input.entry(k).or_default().push(v);
    }
    let medians: Vec<f64> = by_input.values().filter_map(|v| quantile(v, 0.5)).collect();
    Some((quantile(&medians, q)?, medians.len()))
}

/// Jobs per second: the median over blocks of `block` consecutive jobs
/// of each block's rate, with the number of blocks. `gaps_ms` holds each
/// job's occupancy in ms, in completion order: the job's duration when
/// jobs run one at a time, the gap since the previous completion when
/// they overlap. A trailing partial block is dropped, unless there is no
/// full block, when all the jobs make one. Load from outside the program
/// that lasts part of a run slows the blocks it falls in, not the median.
pub fn block_rate(gaps_ms: &[f64], block: usize) -> Option<(f64, usize)> {
    let rate = |b: &[f64]| {
        let total: f64 = b.iter().sum();
        if total > 0.0 {
            b.len() as f64 * 1e3 / total
        } else {
            0.0
        }
    };
    let mut rates: Vec<f64> = gaps_ms.chunks_exact(block.max(1)).map(rate).collect();
    if rates.is_empty() && !gaps_ms.is_empty() {
        rates.push(rate(gaps_ms));
    }
    Some((quantile(&rates, 0.5)?, rates.len()))
}

/// Number of samples strictly beyond the `q` quantile of `n` samples,
/// counted by rank: `n - ceil(q * n)`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of the usual tail quantiles that still has at least ten
/// samples beyond it, so a tail figure is never a single outlier.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| beyond(n, q) >= 10)
}

/// Metric names: a letter or digit first, then at most 64 letters,
/// digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// What was attempted and how it failed. A failure is a rejected reply,
/// a transport error, or an output that failed its check; none is
/// skipped, and every one counts against `attempted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    pub attempted: u64,
    pub rejected: u64,
    pub transport: u64,
    pub check_failures: u64,
}

impl Accounting {
    pub fn failed(&self) -> u64 {
        self.rejected + self.transport + self.check_failures
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: &Accounting) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.transport += other.transport;
        self.check_failures += other.check_failures;
    }

    /// Records one output check; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.check_failures += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Renders an `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(acc: &Accounting, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acc.check_failures == 0,
        acc.attempted.max(1),
        acc.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), Some(91.0));
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in 0..3000 {
            if let Some(q) = tail_quantile(n) {
                assert!(beyond(n, q) >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn block_rate_resists_a_burst() {
        // Ten blocks of four 10 ms jobs; two blocks slowed tenfold.
        let mut ms = vec![10.0; 40];
        for x in &mut ms[8..16] {
            *x = 100.0;
        }
        assert_eq!(block_rate(&ms, 4), Some((100.0, 10)));
        // The partial tail block is dropped; no full block makes one.
        assert_eq!(block_rate(&[250.0, 750.0, 1.0], 2), Some((2.0, 1)));
        assert_eq!(block_rate(&[250.0, 750.0], 4), Some((2.0, 1)));
        assert_eq!(block_rate(&[], 4), None);
    }

    #[test]
    fn input_quantile_takes_each_input_at_its_median() {
        // Inputs 0..10 take 1..=10 ms; a burst slows one run of input 0.
        let mut inputs = Vec::new();
        let mut ms = Vec::new();
        for pass in 0..3 {
            for k in 0..10u64 {
                inputs.push(k);
                ms.push(if pass == 1 && k == 0 {
                    500.0
                } else {
                    (k + 1) as f64
                });
            }
        }
        assert_eq!(input_quantile(&inputs, &ms, 0.9), Some((9.1, 10)));
        assert_eq!(input_quantile(&inputs, &ms, 0.0), Some((1.0, 10)));
        assert_eq!(input_quantile(&[], &[], 0.9), None);
    }

    #[test]
    fn metric_names_and_units_follow_the_naming_rules() {
        assert!(valid_name("job_p50_ms"));
        assert!(valid_name("core.advect_ns_per_cell_step"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("ms") && valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"x".repeat(17)));
        for m in crate::metrics::E2E.iter().chain(crate::metrics::LAYERS) {
            assert!(valid_name(m.0), "{}", m.0);
            assert!(valid_unit(m.1), "{}", m.1);
        }
    }

    #[test]
    fn failed_frac_counts_every_kind_of_failure() {
        let mut a = Accounting {
            attempted: 200,
            ..Accounting::default()
        };
        assert_eq!(a.failed_frac(), 0.0);
        a.rejected = 3;
        a.transport = 1;
        a.check(true, "fine");
        a.check(false, "legality");
        assert_eq!(a.failed(), 5);
        assert_eq!(a.failed_frac(), 5.0 / 200.0);
        let mut b = Accounting {
            attempted: 100,
            check_failures: 5,
            ..Accounting::default()
        };
        b.merge(&a);
        assert_eq!(b.attempted, 300);
        assert_eq!(b.failed(), 10);
        assert_eq!(Accounting::default().failed_frac(), 0.0);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let acc = Accounting {
            attempted: 3,
            rejected: 1,
            ..Accounting::default()
        };
        let m = [Metric {
            name: "job_p50_ms",
            value: 1.25,
            unit: "ms",
            samples: 3,
        }];
        assert_eq!(
            result_line(&acc, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"job_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let bad = Accounting {
            attempted: 1,
            check_failures: 1,
            ..Accounting::default()
        };
        assert!(result_line(&bad, &[]).starts_with("{\"correct\": false"));
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
