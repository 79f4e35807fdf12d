//! `global-centered-20k` and `local-centered-20k`: in-process migration
//! jobs, DIFF(G) or DIFF(L) followed by detailed legalization, on
//! 20,000-cell circuits with a centered inflation hotspot.

use crate::quality::{bins, checksum, Diffused, Quality};
use crate::run::{mix, Run};
use crate::stats::quantile;
use crate::trace::{KernelSpans, KernelSums, Layers, Tracer, JOB};
use dpm_diffusion::{
    DiffusionConfig, DiffusionObserver, DiffusionResult, GlobalDiffusion, KernelKind,
    LocalDiffusion, NoopObserver,
};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec};
use dpm_legalize::{DetailedLegalizer, DiffusionLegalizer, GreedyLegalizer, Legalizer};
use dpm_place::{check_legality, Placement};
use std::time::{Duration, Instant};

/// Cells per circuit.
pub const CELLS: usize = 20_000;
/// Circuits generated per run; jobs cycle through them, so one run's
/// figures do not hang on a single circuit.
pub const DESIGNS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// DIFF(G), paper Algorithm 1.
    Global,
    /// DIFF(L), paper Algorithm 3.
    Local,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Global => "DIFF(G)",
            Algo::Local => "DIFF(L)",
        }
    }

    pub fn threads(self) -> usize {
        match self {
            Algo::Global => 2,
            Algo::Local => 1,
        }
    }
}

/// One generated input: the inflated circuit and its per-die config.
pub struct Design {
    pub bench: Benchmark,
    pub cfg: DiffusionConfig,
}

/// Generates design `i` of a run seeded with `seed`.
pub fn design(seed: u64, i: usize) -> Design {
    let s = mix(seed, i as u64);
    let mut bench = CircuitSpec::with_size(format!("centered{i}"), CELLS, s).generate();
    bench.inflate(&InflationSpec::centered(0.10, 0.3, s ^ 0x1F1A7E));
    let cfg = DiffusionLegalizer::global_default().effective_config(&bench.die);
    Design { bench, cfg }
}

pub fn diffuse(
    algo: Algo,
    cfg: &DiffusionConfig,
    d: &Design,
    p: &mut Placement,
    obs: &mut dyn DiffusionObserver,
) -> DiffusionResult {
    let b = &d.bench;
    match algo {
        Algo::Global => {
            GlobalDiffusion::new(cfg.clone()).run_observed(&b.netlist, &b.die, p, &|| false, obs)
        }
        Algo::Local => {
            LocalDiffusion::new(cfg.clone()).run_observed(&b.netlist, &b.die, p, &|| false, obs)
        }
    }
}

/// What a traced job saw beyond its placement.
struct TracedJob {
    result: DiffusionResult,
    diffused: Diffused,
    legalize_disp_rows: f64,
}

/// Runs one job: diffusion, then detailed legalization. With a tracer,
/// every call becomes a span and the diffused placement is measured
/// with the clock paused.
fn job(
    algo: Algo,
    threads: usize,
    d: &Design,
    tracer: Option<&mut Tracer>,
) -> (Placement, Duration, Option<TracedJob>) {
    let b = &d.bench;
    let cfg = d.cfg.clone().with_threads(threads);
    let mut p = b.placement.clone();
    let Some(t) = tracer else {
        let t0 = Instant::now();
        diffuse(algo, &cfg, d, &mut p, &mut NoopObserver);
        DetailedLegalizer::new().legalize_in_place(&b.netlist, &b.die, &mut p);
        return (p, t0.elapsed(), None);
    };
    let (job, diff) = (t.id(), t.id());
    let start = t.now_ns();
    let result = {
        let mut spans = KernelSpans {
            tracer: t,
            job,
            parent: diff,
        };
        diffuse(algo, &cfg, d, &mut p, &mut spans)
    };
    let diffused_at = t.now_ns();
    t.record("core.diffuse", job, diff, job, start, diffused_at);
    let (diffused, before) =
        t.paused(|| (Diffused::measure(&b.netlist, &b.die, &cfg, &p), p.clone()));
    let leg = t.id();
    let l0 = t.now_ns();
    DetailedLegalizer::new().legalize_in_place(&b.netlist, &b.die, &mut p);
    let end = t.now_ns();
    t.record("legalize.detailed", job, leg, job, l0, end);
    t.record(JOB, job, job, 0, start, end);
    let legalize_disp_rows =
        t.paused(|| crate::quality::displacement_rows(&b.netlist, &b.die, &before, &p).0);
    let traced = TracedJob {
        result,
        diffused,
        legalize_disp_rows,
    };
    (p, Duration::from_nanos(end - start), Some(traced))
}

/// Diffusion plus legalization with kernel totals, for the 1- vs
/// 2-thread comparison.
fn timed_by_kernel(algo: Algo, threads: usize, d: &Design) -> (Placement, KernelSums) {
    let b = &d.bench;
    let mut p = b.placement.clone();
    let mut k = KernelSums::default();
    diffuse(
        algo,
        &d.cfg.clone().with_threads(threads),
        d,
        &mut p,
        &mut k,
    );
    DetailedLegalizer::new().legalize_in_place(&b.netlist, &b.die, &mut p);
    (p, k)
}

pub fn run(algo: Algo, seed: u64, seconds: f64, traced: bool, out: &mut Run) {
    // Set-up: generate every circuit, each one timed.
    let mut designs = Vec::with_capacity(DESIGNS);
    let mut setup = Vec::with_capacity(DESIGNS);
    for i in 0..DESIGNS {
        let t0 = Instant::now();
        designs.push(design(seed, i));
        setup.push(t0.elapsed().as_secs_f64());
    }

    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut job_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut legality_ms = Vec::new();
    let mut first: Vec<Option<(u64, Quality)>> = vec![None; DESIGNS];
    let mut traced_jobs = Vec::new();
    // One untimed job first, so the allocator and page tables are warm.
    job(algo, algo.threads(), &designs[0], None);
    let window = Instant::now();
    let mut i = 0usize;
    while i < DESIGNS || window.elapsed().as_secs_f64() < seconds {
        let (k, pass) = (i % DESIGNS, i / DESIGNS);
        let d = &designs[k];
        // Traced runs alternate traced and untraced jobs, shifting the
        // pattern every pass so each design gets both.
        let trace_this = traced && (k + pass) % 2 == 0;
        let (p, elapsed, info) = job(algo, algo.threads(), d, trace_this.then_some(&mut tracer));
        out.acc.attempted += 1;
        let ms = elapsed.as_secs_f64() * 1e3;
        job_ms.push(ms);
        if let Some(info) = info {
            traced_ms.push(ms);
            traced_jobs.push((k, info));
        } else {
            plain_ms.push(ms);
        }

        let b = &d.bench;
        let t0 = Instant::now();
        let violations = check_legality(&b.netlist, &b.die, &p, 0).violation_count;
        legality_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.acc.check(
            violations == 0,
            &format!("design {k}: {violations} violations"),
        );
        let sum = checksum(&p);
        match first[k] {
            None => first[k] = Some((sum, Quality::measure(&b.netlist, &b.die, &b.placement, &p))),
            Some((s, _)) => out.acc.check(
                s == sum,
                &format!("design {k}: repeated job changed the placement"),
            ),
        }

        // Set-up trials go on through the run, so that `setup_s` samples
        // the machine over the whole run and not only its first second:
        // the circuit is generated again, timed, and must come out the
        // same.
        let t0 = Instant::now();
        let again = design(seed, k);
        setup.push(t0.elapsed().as_secs_f64());
        out.acc.check(
            checksum(&again.bench.placement) == checksum(&b.placement),
            &format!("design {k}: generated again differently"),
        );
        i += 1;
    }
    out.setup(&setup);

    let n = job_ms.len();
    let qualities: Vec<Quality> = first.iter().flatten().map(|f| f.1).collect();
    let q = Quality::mean(&qualities);
    // Jobs run one at a time, so a job's time is also its occupancy; a
    // block is one pass over the circuits, so every block has the same
    // inputs.
    let inputs: Vec<u64> = (0..n as u64).map(|i| i % DESIGNS as u64).collect();
    out.timing(&job_ms, &inputs, &job_ms, DESIGNS);
    out.quality(&q, qualities.len());
    out.note("jobs", n.to_string());
    out.note("designs", DESIGNS.to_string());
    out.note("cells", CELLS.to_string());
    out.note("threads", algo.threads().to_string());
    out.note("algorithm", format!("\"{}\"", algo.name()));
    if !traced {
        return;
    }

    // Per-layer figures from the traced jobs.
    let layers = Layers::from_spans(tracer.spans());
    let tj = traced_jobs.len().max(1) as f64;
    let sheet = &mut out.sheet;
    let jobs = layers.jobs as usize;
    sheet.set("core.diffuse_ms", layers.dur_ms("core.diffuse"), jobs);
    for (metric, span) in [
        ("core.splat_ms", "core.splat"),
        ("core.velocity_ms", "core.velocity"),
        ("core.advect_ms", "core.advect"),
        ("core.ftcs_ms", "core.ftcs"),
    ] {
        sheet.set(metric, layers.self_ms(span), jobs);
    }
    sheet.set("core.unattributed_ms", layers.self_ms("core.diffuse"), jobs);
    sheet.set(
        "legalize.detailed_ms",
        layers.self_ms("legalize.detailed"),
        jobs,
    );
    sheet.set("trace.unattributed_ms", layers.self_ms(JOB), jobs);
    let mean =
        |f: &dyn Fn(&TracedJob) -> f64| traced_jobs.iter().map(|(_, j)| f(j)).sum::<f64>() / tj;
    sheet.set("core.steps", mean(&|j| j.result.steps as f64), jobs);
    sheet.set("core.rounds", mean(&|j| j.result.rounds as f64), jobs);
    sheet.set(
        "core.overflow_diffused",
        mean(&|j| j.diffused.overflow),
        jobs,
    );
    sheet.set(
        "core.max_density_diffused",
        mean(&|j| j.diffused.max_density),
        jobs,
    );
    sheet.set(
        "core.violations_diffused",
        mean(&|j| j.diffused.violations as f64),
        jobs,
    );
    sheet.set(
        "legalize.disp_mean_rows",
        mean(&|j| j.legalize_disp_rows),
        jobs,
    );
    let (mut cell_steps, mut bin_steps) = (0.0, 0.0);
    for (k, j) in &traced_jobs {
        let kt = j.result.telemetry.kernels();
        let b = &designs[*k].bench;
        cell_steps += (b.netlist.movable_cell_ids().count() as u64 * kt.advect.calls) as f64;
        bin_steps += (bins(&b.die, &designs[*k].cfg) as u64 * kt.ftcs.calls) as f64;
    }
    let ns = |span: &str| layers.self_ns.get(span).copied().unwrap_or(0) as f64;
    sheet.set(
        "core.advect_ns_per_cell_step",
        ns("core.advect") / cell_steps.max(1.0),
        layers.count("core.advect") as usize,
    );
    sheet.set(
        "core.ftcs_ns_per_bin_step",
        ns("core.ftcs") / bin_steps.max(1.0),
        layers.count("core.ftcs") as usize,
    );
    out.layer_sum(&layers);
    out.overhead(&traced_ms, &plain_ms);
    let legality = legality_ms.iter().sum::<f64>() / legality_ms.len().max(1) as f64;
    out.sheet
        .set("place.legality_ms", legality, legality_ms.len());

    // GREED on every circuit, the base of the Table V ratio.
    let mut greed_ms = Vec::new();
    for d in &designs {
        let b = &d.bench;
        let mut p = b.placement.clone();
        let t0 = Instant::now();
        GreedyLegalizer::new().legalize_in_place(&b.netlist, &b.die, &mut p);
        greed_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let greed = quantile(&greed_ms, 0.5).unwrap_or(0.0);
    let diff = quantile(&plain_ms, 0.5).unwrap_or(0.0);
    out.sheet.set("legalize.greed_ms", greed, greed_ms.len());
    out.sheet
        .set("legalize.greed_ratio", diff / greed, greed_ms.len());

    out.not_exercised(NO_SERVICE);

    // One circuit at 1 and at 2 threads: parallel speed-up of the two
    // parallel kernels, and the placements must be bit-identical.
    if algo == Algo::Local {
        out.not_exercised(&["par.speedup_advect", "par.speedup_ftcs"]);
    } else {
        let (p2, k2) = timed_by_kernel(algo, 2, &designs[0]);
        let (p1, k1) = timed_by_kernel(algo, 1, &designs[0]);
        out.acc.attempted += 1;
        out.acc.check(
            checksum(&p1) == checksum(&p2),
            "1-thread and 2-thread placements differ",
        );
        let ratio = |kind| k1.ns(kind) as f64 / k2.ns(kind).max(1) as f64;
        out.sheet
            .set("par.speedup_advect", ratio(KernelKind::Advect), 1);
        out.sheet
            .set("par.speedup_ftcs", ratio(KernelKind::Ftcs), 1);
        out.note("checksum_1t", format!("\"{:016x}\"", checksum(&p1)));
        out.note("checksum_2t", format!("\"{:016x}\"", checksum(&p2)));
    }
    out.spans = tracer.into_spans().into_iter().map(|s| (0, s)).collect();
}

/// Layers of the service path, which in-process jobs bypass.
const NO_SERVICE: &[&str] = &[
    "serve.encode_request_ms",
    "serve.decode_request_ms",
    "serve.encode_response_ms",
    "serve.decode_response_ms",
    "serve.request_bytes",
    "serve.response_bytes",
    "serve.delta_bytes",
    "serve.delta_diff_ms",
    "serve.delta_apply_ms",
    "serve.queue_ms",
    "serve.service_ms",
    "serve.reply_violations",
    "serve.client_legalize_ms",
    "ctl.cache_hit_ratio",
    "ctl.need_design",
    "ctl.put_designs",
    "ctl.overloaded",
    "ctl.tenant0_p50_ms",
    "ctl.tenant1_p50_ms",
    "ctl.unattributed_ms",
];
