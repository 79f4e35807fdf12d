//! Benchmark-side tracing: spans recorded around each call into a layer,
//! kept in memory, folded into per-layer self times and written out as
//! Chrome/Perfetto JSONL through `dpm_obs::TraceExporter`.
//!
//! A span's self time is its duration minus the part of it its children
//! cover. Children of one span never overlap (they are recorded one after
//! another on one thread), so the self times of a job's spans add up to
//! the job's wall time exactly: the job's own self time is the
//! unattributed remainder.

use dpm_diffusion::{DiffusionObserver, KernelEvent, KernelKind};
use dpm_obs::{SpanRecord, TraceExporter};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Name of every job's root span.
pub const JOB: &str = "job";

/// An in-memory span recorder with a clock that can be paused, so that
/// probes the benchmark takes between layers (cloning a placement to
/// measure it) are cut out of the timeline.
pub struct Tracer {
    epoch: Instant,
    paused_ns: u64,
    next_id: u64,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`; span ids start above
    /// `id_base`, so tracers on several threads never share an id.
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Self {
            epoch,
            paused_ns: 0,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 - self.paused_ns
    }

    /// Runs `f` with the clock stopped.
    pub fn paused<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.paused_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records span `id` of job `job`; `parent` 0 makes it the job's root.
    pub fn record(&mut self, name: &str, job: u64, id: u64, parent: u64, start: u64, end: u64) {
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_ns: start,
            end_ns: end.max(start),
            trace_id: job,
            span_id: id,
            parent_id: parent,
        });
    }

    /// Records children of `parent` laid end to end from `start`, each
    /// cut short at `end`: for durations known only as numbers (server
    /// reports, codec costs measured aside), not as intervals.
    pub fn record_sequence(
        &mut self,
        job: u64,
        parent: u64,
        start: u64,
        end: u64,
        parts: &[(&str, u64)],
    ) {
        let mut at = start;
        for &(name, ns) in parts {
            let stop = at.saturating_add(ns).min(end);
            let id = self.id();
            self.record(name, job, id, parent, at, stop);
            at = stop;
        }
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<SpanRecord> {
        self.spans
    }
}

/// Span name of a diffusion kernel.
pub fn kernel_span(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Ftcs => "core.ftcs",
        KernelKind::Velocity => "core.velocity",
        KernelKind::Advect => "core.advect",
        KernelKind::Splat => "core.splat",
    }
}

/// Turns every kernel event of a diffusion run into a child span of
/// `parent`. Events carry only their elapsed time, so each interval is
/// `[now - elapsed, now]`.
pub struct KernelSpans<'a> {
    pub tracer: &'a mut Tracer,
    pub job: u64,
    pub parent: u64,
}

impl DiffusionObserver for KernelSpans<'_> {
    fn on_kernel(&mut self, event: &KernelEvent) {
        let end = self.tracer.now_ns();
        let start = end.saturating_sub(event.elapsed.as_nanos() as u64);
        let id = self.tracer.id();
        self.tracer.record(
            kernel_span(event.kernel),
            self.job,
            id,
            self.parent,
            start,
            end,
        );
    }
}

/// Wall time and calls per kernel, summed over runs without spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelSums {
    ns: [u64; 4],
    calls: [u64; 4],
}

impl KernelSums {
    fn slot(kind: KernelKind) -> usize {
        match kind {
            KernelKind::Ftcs => 0,
            KernelKind::Velocity => 1,
            KernelKind::Advect => 2,
            KernelKind::Splat => 3,
        }
    }

    pub fn ns(&self, kind: KernelKind) -> u64 {
        self.ns[Self::slot(kind)]
    }

    pub fn calls(&self, kind: KernelKind) -> u64 {
        self.calls[Self::slot(kind)]
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn merge(&mut self, other: &KernelSums) {
        for i in 0..4 {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

impl DiffusionObserver for KernelSums {
    fn on_kernel(&mut self, event: &KernelEvent) {
        let i = Self::slot(event.kernel);
        self.ns[i] += event.elapsed.as_nanos() as u64;
        self.calls[i] += 1;
    }
}

/// Per-layer totals over a set of traced jobs.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Layers {
    /// Number of jobs (root spans).
    pub jobs: u64,
    /// Summed wall time of the jobs.
    pub total_ns: u64,
    /// Summed self time per span name.
    pub self_ns: BTreeMap<String, u64>,
    /// Summed duration per span name.
    pub dur_ns: BTreeMap<String, u64>,
    /// Number of spans per name.
    pub count: BTreeMap<String, u64>,
}

impl Layers {
    /// Folds the spans of complete jobs into per-layer totals.
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent_id != 0) {
            children
                .entry((s.trace_id, s.parent_id))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = Layers::default();
        for s in spans {
            let kids = children
                .get(&(s.trace_id, s.span_id))
                .map_or(&[][..], Vec::as_slice);
            let self_ns = s.duration_ns() - covered(s.start_ns, s.end_ns, kids);
            *out.self_ns.entry(s.name.clone()).or_default() += self_ns;
            *out.dur_ns.entry(s.name.clone()).or_default() += s.duration_ns();
            *out.count.entry(s.name.clone()).or_default() += 1;
            if s.parent_id == 0 {
                out.jobs += 1;
                out.total_ns += s.duration_ns();
            }
        }
        out
    }

    /// Sum of every layer's self time; equals `total_ns` when the
    /// spans form proper trees.
    pub fn self_sum_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// Mean self time per job of `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.per_job(self.self_ns.get(name))
    }

    /// Mean duration per job of `name`, in milliseconds.
    pub fn dur_ms(&self, name: &str) -> f64 {
        self.per_job(self.dur_ns.get(name))
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    fn per_job(&self, ns: Option<&u64>) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            ns.copied().unwrap_or(0) as f64 / self.jobs as f64 / 1e6
        }
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes `spans` as Chrome trace-event JSONL, one thread row per `tid`.
pub fn export(spans: &[(u32, SpanRecord)], workload: &str, path: &Path) -> std::io::Result<()> {
    let mut ex = TraceExporter::new();
    for (tid, s) in spans {
        ex.add_with_args(s, 1, *tid, &[("workload", workload)]);
    }
    ex.write_to(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, job: u64, id: u64, parent: u64, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_ns: s,
            end_ns: e,
            trace_id: job,
            span_id: id,
            parent_id: parent,
        }
    }

    #[test]
    fn layers_plus_unattributed_sum_to_the_job() {
        let spans = vec![
            span(JOB, 1, 1, 0, 0, 100),
            span("core.diffuse", 1, 2, 1, 5, 80),
            span("core.advect", 1, 3, 2, 10, 40),
            span("core.ftcs", 1, 4, 2, 40, 45),
            span("core.advect", 1, 5, 2, 50, 75),
            span("legalize.detailed", 1, 6, 1, 82, 97),
            // A second job whose child spills past its parent's end.
            span(JOB, 7, 7, 0, 200, 260),
            span("core.diffuse", 7, 8, 7, 190, 300),
        ];
        let l = Layers::from_spans(&spans);
        assert_eq!(l.jobs, 2);
        assert_eq!(l.total_ns, 160);
        assert_eq!(l.self_ns[JOB], 100 - 75 - 15);
        assert_eq!(l.self_ns["core.advect"], 55);
        assert_eq!(l.self_ns["core.diffuse"], 75 - 60 + 110);
        assert_eq!(l.count("core.advect"), 2);
        assert_eq!(l.dur_ms("core.advect"), 55.0 / 2.0 / 1e6);
        // Without the spilling job the layers add up exactly.
        let l = Layers::from_spans(&spans[..6]);
        assert_eq!(l.self_sum_ns(), l.total_ns);
        assert_eq!(l.self_ms("missing"), 0.0);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 10, &[]), 0);
        assert_eq!(covered(0, 10, &[(2, 4), (3, 6), (8, 20)]), 6);
        assert_eq!(covered(5, 10, &[(0, 7), (9, 9)]), 2);
    }

    #[test]
    fn sequences_stay_inside_their_parent() {
        let mut t = Tracer::new(Instant::now(), 0);
        let (job, req) = (t.id(), t.id());
        t.record(JOB, job, job, 0, 0, 100);
        t.record("client.request", job, req, job, 10, 60);
        t.record_sequence(job, req, 10, 60, &[("a", 20), ("b", 25), ("c", 30)]);
        let l = Layers::from_spans(t.spans());
        assert_eq!(l.dur_ns["a"], 20);
        assert_eq!(l.dur_ns["b"], 25);
        assert_eq!(l.dur_ns["c"], 5);
        assert_eq!(l.self_ns["client.request"], 0);
        assert_eq!(l.self_sum_ns(), l.total_ns);
    }

    #[test]
    fn paused_time_is_cut_from_the_clock() {
        let mut t = Tracer::new(Instant::now(), 0);
        let before = t.now_ns();
        t.paused(|| std::thread::sleep(std::time::Duration::from_millis(30)));
        assert!(t.now_ns() - before < 20_000_000);
    }
}
