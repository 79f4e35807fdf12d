//! `ctl-eco-mix`: two tenants stream ECO jobs through the `dpm-ctl`
//! control plane over loopback, one closed-loop connection each, and
//! every request is timed until the client holds a legal placement.

use crate::quality::{bins, checksum, Diffused, Quality};
use crate::run::{mix, Run};
use crate::stats::quantile;
use crate::trace::{KernelSums, Layers, Tracer, JOB};
use dpm_ctl::{CtlConfig, CtlServer, ExecMode, TenantSpec};
use dpm_diffusion::{DiffusionConfig, KernelKind, SolverKind};
use dpm_gen::{Benchmark, CircuitSpec, EcoSpec, InflationSpec};
use dpm_legalize::{DetailedLegalizer, DiffusionLegalizer, Legalizer};
use dpm_place::{check_legality, Placement};
use dpm_serve::delta::{decode_delta_request, encode_delta_request};
use dpm_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use dpm_serve::{
    design_hash, execute_job, DeltaJobRequest, EcoDelta, JobKind, JobRequest, JobResponse,
    PayloadEncoding, Reply, ServeClient,
};
use std::net::SocketAddr;
use std::time::Instant;

/// Cells in each tenant design.
const CELLS: usize = 2_000;
/// Baseline designs per tenant. Several, so that a run's quality figures
/// do not hang on one circuit.
const DESIGNS: usize = 16;
/// ECO variants per baseline design.
const ECO_VARIANTS: usize = 4;
/// Rounds in one cycle through every (design, variant) pair; the quality
/// figures cover the first cycle.
const CYCLE: usize = DESIGNS * ECO_VARIANTS;
/// Every `FULL_EVERY`-th round is a cold full request.
const FULL_EVERY: usize = 4;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 5;
/// Requests per block of the request rate: two cycles of both tenants.
const BLOCK: usize = 2 * 2 * CYCLE;
/// Traced requests per tenant replayed in process for the core layers.
const REPLAY_CAP: usize = 24;

/// One tenant: its weight, job kind and baseline designs.
struct Tenant {
    name: String,
    weight: u32,
    kind: JobKind,
    cfg: DiffusionConfig,
    designs: Vec<TenantDesign>,
}

/// A cached baseline and the ECO'd designs derived from it.
struct TenantDesign {
    base: Benchmark,
    hash: u64,
    variants: Vec<Benchmark>,
}

/// Design, variant and full-or-delta of round `r`. Each cycle visits
/// every (design, variant) pair once, and one pair in four is sent full.
fn schedule(r: usize) -> (usize, usize, bool) {
    let design = r % DESIGNS;
    let variant = (r / DESIGNS) % ECO_VARIANTS;
    (
        design,
        variant,
        (design + variant) % FULL_EVERY == FULL_EVERY - 1,
    )
}

fn tenant(seed: u64, index: usize) -> Tenant {
    let name = format!("tenant{index}");
    let designs: Vec<TenantDesign> = (0..DESIGNS)
        .map(|d| {
            let s = mix(seed, (1_000 * (index + 1) + d) as u64);
            let mut base = CircuitSpec::with_size(format!("{name}_{d}"), CELLS, s).generate();
            base.inflate(&InflationSpec::centered(0.10, 0.3, s ^ 0x1F1A7E));
            let variants = (0..ECO_VARIANTS)
                .map(|v| {
                    let mut eco = base.clone();
                    eco.apply_eco(&EcoSpec::default(), mix(s, v as u64));
                    eco
                })
                .collect();
            TenantDesign {
                hash: design_hash(&base.netlist, &base.die, &base.placement),
                base,
                variants,
            }
        })
        .collect();
    // All designs share one die size, so one per-die config serves.
    let cfg = DiffusionLegalizer::global_default()
        .effective_config(&designs[0].base.die)
        .with_threads(1);
    // tenant0 runs DIFF(L) with FTCS, tenant1 DIFF(G) with the spectral
    // jump, so both solvers carry load.
    let (kind, cfg) = if index == 0 {
        (JobKind::Local, cfg)
    } else {
        (JobKind::Global, cfg.with_solver(SolverKind::Spectral))
    };
    Tenant {
        name,
        weight: index as u32 + 1,
        kind,
        cfg,
        designs,
    }
}

fn start_server(tenants: &[Tenant]) -> std::io::Result<CtlServer> {
    CtlServer::start(CtlConfig {
        workers: 1,
        tenants: tenants
            .iter()
            .map(|t| TenantSpec::new(t.name.clone(), t.weight, 64))
            .collect(),
        exec: ExecMode::InProcess,
        ..CtlConfig::default()
    })
}

/// One set-up: generate both tenants, start the server, connect and
/// upload each baseline.
fn setup_once(seed: u64) -> Result<Vec<Tenant>, String> {
    let tenants: Vec<Tenant> = (0..2).map(|i| tenant(seed, i)).collect();
    let server = start_server(&tenants).map_err(|e| format!("server start: {e}"))?;
    for t in &tenants {
        let mut c = ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        for d in &t.designs {
            let b = &d.base;
            c.put_design(0, &t.name, &b.netlist, &b.die, &b.placement)
                .map_err(|e| format!("upload: {e}"))?;
        }
    }
    server.shutdown();
    Ok(tenants)
}

/// The request a round shipped, kept for checks and codec timing.
enum Sent {
    Full(JobRequest),
    Delta(DeltaJobRequest),
}

/// A request kept after the measured window.
struct Kept {
    design: usize,
    variant: usize,
    sent: Sent,
    resp: JobResponse,
    final_p: Placement,
    traced: bool,
}

/// A traced request's spans and what its reply reported, so that the
/// server's and the codec's shares can be laid into its request span.
struct TracedRequest {
    job: u64,
    span: u64,
    start: u64,
    end: u64,
    full: bool,
    queue_ns: u64,
    service_ns: u64,
}

#[derive(Default)]
struct TenantOutcome {
    acc: crate::stats::Accounting,
    ms: Vec<f64>,
    /// Completion time of each of `ms`, ns since the window opened.
    end_ns: Vec<u64>,
    /// The input each of `ms` ran on: tenant, design and ECO variant.
    input: Vec<u64>,
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    quality: Vec<Quality>,
    reply_violations: Vec<f64>,
    kept: Vec<Kept>,
    requests: Vec<TracedRequest>,
    spans: Vec<dpm_obs::SpanRecord>,
}

fn tenant_loop(
    index: usize,
    t: &Tenant,
    addr: SocketAddr,
    epoch: Instant,
    seconds: f64,
    traced: bool,
) -> TenantOutcome {
    let mut out = TenantOutcome::default();
    let mut tracer = Tracer::new(epoch, (index as u64 + 1) << 48);
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.acc.attempted += 1;
            out.acc.transport += 1;
            eprintln!("{}: connect: {e}", t.name);
            return out;
        }
    };
    let mut first_full = true;
    for r in 0.. {
        if r >= CYCLE && epoch.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (design, variant, full) = schedule(r);
        let td = &t.designs[design];
        let eco = &td.variants[variant];
        let trace_this = traced && (r / FULL_EVERY).is_multiple_of(2);
        let id = ((index as u64) << 32) | (r as u64 + 1);
        let full_req = full.then(|| JobRequest {
            id,
            deadline_ms: 0,
            progress_stride: 0,
            kind: t.kind,
            design: format!("{}_full_{r}", t.name),
            config: t.cfg.clone(),
            netlist: eco.netlist.clone(),
            die: eco.die.clone(),
            placement: eco.placement.clone(),
            vol: None,
            trace: None,
        });
        out.acc.attempted += 1;

        // The timed request: from the ECO'd design to a legal placement.
        let (job, req_span) = (tracer.id(), tracer.id());
        let start = tracer.now_ns();
        let (reply, sent, req_start) = match full_req {
            Some(req) => {
                let r0 = tracer.now_ns();
                let reply = client.request(&req, PayloadEncoding::Binary);
                (reply, Sent::Full(req), r0)
            }
            None => {
                let d0 = tracer.now_ns();
                let delta = EcoDelta::diff(
                    &td.base.netlist,
                    &td.base.placement,
                    &eco.netlist,
                    &eco.placement,
                )
                .expect("an ECO keeps the baseline's cells as a prefix");
                let r0 = tracer.now_ns();
                if trace_this {
                    let sid = tracer.id();
                    tracer.record("serve.delta_diff", job, sid, job, d0, r0);
                }
                let dreq = DeltaJobRequest {
                    id,
                    deadline_ms: 0,
                    progress_stride: 0,
                    kind: t.kind,
                    design: format!("{}_eco_{r}", t.name),
                    tenant: t.name.clone(),
                    config: t.cfg.clone(),
                    baseline: td.hash,
                    delta,
                    trace: None,
                };
                let b = &td.base;
                let reply = client.request_delta(&dreq, (&b.netlist, &b.die, &b.placement), |_| {});
                (reply, Sent::Delta(dreq), r0)
            }
        };
        let req_end = tracer.now_ns();
        let resp = match reply {
            Err(e) => {
                out.acc.transport += 1;
                eprintln!("{} round {r}: transport error: {e}", t.name);
                break;
            }
            Ok(Reply::Rejected(e)) => {
                out.acc.rejected += 1;
                eprintln!(
                    "{} round {r}: rejected: {} {}",
                    t.name,
                    e.code.as_str(),
                    e.message
                );
                continue;
            }
            Ok(Reply::Ok(resp)) => resp,
        };
        if resp.positions.len() != eco.netlist.num_cells() || resp.id != id {
            out.acc.check(
                false,
                &format!("{} round {r}: reply does not match", t.name),
            );
            continue;
        }
        let mut p = Placement::new(resp.positions.len());
        p.as_mut_slice().copy_from_slice(&resp.positions);
        let violations = check_legality(&eco.netlist, &eco.die, &p, 0).violation_count;
        let legal_at = tracer.now_ns();
        if violations > 0 {
            DetailedLegalizer::new().legalize_in_place(&eco.netlist, &eco.die, &mut p);
        }
        let end = tracer.now_ns();

        let ms = (end - start) as f64 / 1e6;
        out.ms.push(ms);
        out.end_ns.push(end);
        out.input
            .push(((index as u64) << 32) | (design * ECO_VARIANTS + variant) as u64);
        if trace_this {
            out.traced_ms.push(ms);
            tracer.record(JOB, job, job, 0, start, end);
            tracer.record("client.request", job, req_span, job, req_start, req_end);
            let id = tracer.id();
            tracer.record("place.legality", job, id, job, req_end, legal_at);
            if violations > 0 {
                let id = tracer.id();
                tracer.record("legalize.detailed", job, id, job, legal_at, end);
            }
            out.requests.push(TracedRequest {
                job,
                span: req_span,
                start: req_start,
                end: req_end,
                full,
                queue_ns: resp.queue_ns,
                service_ns: resp.service_ns,
            });
        } else {
            out.plain_ms.push(ms);
        }
        out.reply_violations.push(violations as f64);
        if violations > 0 {
            let left = check_legality(&eco.netlist, &eco.die, &p, 0).violation_count;
            out.acc.check(
                left == 0,
                &format!("{} round {r}: {left} violations", t.name),
            );
        }
        if r < CYCLE {
            let q = Quality::measure(&eco.netlist, &eco.die, &eco.placement, &p);
            out.quality.push(q);
        }
        // Keep the first request of each kind for the in-process
        // comparison, and traced requests for the per-layer replay.
        let keep = r == 0 || (full && first_full) || (trace_this && out.kept.len() < REPLAY_CAP);
        first_full &= !full;
        if keep {
            out.kept.push(Kept {
                design,
                variant,
                sent,
                resp,
                final_p: p,
                traced: trace_this,
            });
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// Median wall time of three calls of `f`, in ns, and its last result.
fn time3<T>(mut f: impl FnMut() -> T) -> (u64, T) {
    let mut ns = [0u64; 3];
    let mut last = None;
    for slot in &mut ns {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        *slot = t0.elapsed().as_nanos() as u64;
    }
    ns.sort_unstable();
    (ns[1], last.expect("three calls ran"))
}

/// Totals of the in-process replays of traced requests.
#[derive(Default)]
struct Replay {
    jobs: usize,
    diffuse_ns: u64,
    kernels: KernelSums,
    steps: f64,
    rounds: f64,
    cell_steps: f64,
    bin_steps: f64,
    diffused: Vec<Diffused>,
    legalize_disp: Vec<f64>,
}

/// `SETUP_TRIALS` timed set-ups, their times appended to `setup`; the
/// tenants of the last one.
fn timed_setups(seed: u64, setup: &mut Vec<f64>) -> Result<Vec<Tenant>, String> {
    let mut tenants = Vec::new();
    for _ in 0..SETUP_TRIALS {
        let t0 = Instant::now();
        tenants = setup_once(seed)?;
        setup.push(t0.elapsed().as_secs_f64());
    }
    Ok(tenants)
}

pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Run) {
    let mut setup = Vec::with_capacity(2 * SETUP_TRIALS);
    let tenants = match timed_setups(seed, &mut setup) {
        Ok(t) => t,
        Err(e) => {
            out.acc.attempted += 1;
            out.acc.transport += 1;
            eprintln!("set-up failed: {e}");
            return;
        }
    };

    // The measured phase runs on a fresh server, so each tenant's first
    // delta pays the NeedDesign upload.
    let server = match start_server(&tenants) {
        Ok(s) => s,
        Err(e) => {
            out.acc.attempted += 1;
            out.acc.transport += 1;
            eprintln!("server start: {e}");
            return;
        }
    };
    let addr = server.local_addr();
    let epoch = Instant::now();
    let outcomes: Vec<TenantOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| s.spawn(move || tenant_loop(i, t, addr, epoch, seconds, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let window = epoch.elapsed().as_secs_f64();
    let m = server.metrics();
    let (hits, deltas) = (m.cache_hits.get(), m.delta_requests.get());
    let (need, puts, overloaded) = (m.need_design.get(), m.put_designs.get(), m.overloaded.get());
    server.shutdown();

    // As many set-ups again after the window, so that `setup_s` samples
    // the machine at both ends of the run; they must build the same
    // designs.
    match timed_setups(seed, &mut setup) {
        Ok(again) => {
            let hashes = |ts: &[Tenant]| -> Vec<u64> {
                ts.iter()
                    .flat_map(|t| t.designs.iter().map(|d| d.hash))
                    .collect()
            };
            out.acc.check(
                hashes(&again) == hashes(&tenants),
                "set-up built different designs",
            );
        }
        Err(e) => {
            out.acc.attempted += 1;
            out.acc.transport += 1;
            eprintln!("set-up failed: {e}");
        }
    }
    out.setup(&setup);

    // Both tenants' requests in completion order, each with the gap
    // since the previous completion (the first since the window opened).
    let mut done: Vec<(u64, f64, u64)> = outcomes
        .iter()
        .flat_map(|o| {
            let ends = o.end_ns.iter().copied();
            ends.zip(o.ms.iter().copied()).zip(o.input.iter().copied())
        })
        .map(|((end, ms), input)| (end, ms, input))
        .collect();
    done.sort_by_key(|d| d.0);
    let all_ms: Vec<f64> = done.iter().map(|d| d.1).collect();
    let inputs: Vec<u64> = done.iter().map(|d| d.2).collect();
    let gaps_ms: Vec<f64> = done
        .iter()
        .scan(0u64, |prev, &(end, _, _)| {
            let gap = end - *prev;
            *prev = end;
            Some(gap as f64 / 1e6)
        })
        .collect();
    let n = all_ms.len();
    for o in &outcomes {
        out.acc.merge(&o.acc);
    }
    out.timing(&all_ms, &inputs, &gaps_ms, BLOCK);
    out.note("window_s", crate::stats::json_num(window));
    let qualities: Vec<Quality> = outcomes
        .iter()
        .flat_map(|o| o.quality.iter().copied())
        .collect();
    out.quality(&Quality::mean(&qualities), qualities.len());
    out.note("requests", n.to_string());
    out.note("cells", CELLS.to_string());
    out.note(
        "tenants",
        format!(
            "[{}]",
            tenants
                .iter()
                .zip(&outcomes)
                .map(|(t, o)| format!(
                    "{{\"name\": \"{}\", \"weight\": {}, \"kind\": \"{:?}\", \"solver\": \"{}\", \"threads\": {}, \"designs\": {DESIGNS}, \"requests\": {}}}",
                    t.name,
                    t.weight,
                    t.kind,
                    t.cfg.solver.as_str(),
                    t.cfg.threads,
                    o.ms.len()
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    out.note("workers", "1".to_string());
    out.note("client_connections", tenants.len().to_string());

    // Every kept reply must match an in-process run on the same input,
    // bit for bit; in traced runs the same replays time the core layers.
    let mut replay = Replay::default();
    for (t, o) in tenants.iter().zip(&outcomes) {
        for k in &o.kept {
            let eco = &t.designs[k.design].variants[k.variant];
            let cfg = match &k.sent {
                Sent::Full(req) => {
                    decode_request(&encode_request(req, PayloadEncoding::Binary)).map(|r| r.config)
                }
                Sent::Delta(req) => {
                    decode_delta_request(&encode_delta_request(req)).map(|r| r.config)
                }
            };
            let Ok(cfg) = cfg else {
                out.acc.check(false, "request does not decode");
                continue;
            };
            let mut p = eco.placement.clone();
            let mut sums = KernelSums::default();
            let t0 = Instant::now();
            let result = execute_job(
                t.kind,
                &cfg,
                &eco.netlist,
                &eco.die,
                &mut p,
                &|| false,
                &mut sums,
            );
            let ns = t0.elapsed().as_nanos() as u64;
            let mut reply = Placement::new(k.resp.positions.len());
            reply.as_mut_slice().copy_from_slice(&k.resp.positions);
            out.acc.attempted += 1;
            out.acc.check(
                checksum(&p) == checksum(&reply),
                &format!("{}: reply {} differs from execute_job", t.name, k.resp.id),
            );
            if k.traced {
                replay.jobs += 1;
                replay.diffuse_ns += ns;
                replay.kernels.merge(&sums);
                replay.steps += result.steps as f64;
                replay.rounds += result.rounds as f64;
                let movable = eco.netlist.movable_cell_ids().count() as f64;
                replay.cell_steps += movable * sums.calls(KernelKind::Advect) as f64;
                replay.bin_steps +=
                    (bins(&eco.die, &cfg) as u64 * sums.calls(KernelKind::Ftcs)) as f64;
                replay
                    .diffused
                    .push(Diffused::measure(&eco.netlist, &eco.die, &cfg, &reply));
                replay.legalize_disp.push(
                    crate::quality::displacement_rows(&eco.netlist, &eco.die, &reply, &k.final_p).0,
                );
            }
        }
    }
    if !traced {
        return;
    }

    let sheet = &mut out.sheet;
    for (i, o) in outcomes.iter().enumerate() {
        let name = ["ctl.tenant0_p50_ms", "ctl.tenant1_p50_ms"][i];
        sheet.set(name, quantile(&o.ms, 0.5).unwrap_or(0.0), o.ms.len());
    }
    sheet.set(
        "ctl.cache_hit_ratio",
        hits as f64 / deltas.max(1) as f64,
        deltas as usize,
    );
    sheet.set("ctl.need_design", need as f64, 1);
    sheet.set("ctl.put_designs", puts as f64, 1);
    sheet.set("ctl.overloaded", overloaded as f64, 1);
    let reply_violations: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.reply_violations.iter().copied())
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    sheet.set(
        "serve.reply_violations",
        mean(&reply_violations),
        reply_violations.len(),
    );
    let rj = replay.jobs;
    let per_job = |ns: u64| ns as f64 / rj.max(1) as f64 / 1e6;
    sheet.set("core.diffuse_ms", per_job(replay.diffuse_ns), rj);
    for (metric, kind) in [
        ("core.splat_ms", KernelKind::Splat),
        ("core.velocity_ms", KernelKind::Velocity),
        ("core.advect_ms", KernelKind::Advect),
        ("core.ftcs_ms", KernelKind::Ftcs),
    ] {
        sheet.set(metric, per_job(replay.kernels.ns(kind)), rj);
    }
    let unattributed = replay.diffuse_ns.saturating_sub(replay.kernels.total_ns());
    sheet.set("core.unattributed_ms", per_job(unattributed), rj);
    sheet.set("core.steps", replay.steps / rj.max(1) as f64, rj);
    sheet.set("core.rounds", replay.rounds / rj.max(1) as f64, rj);
    sheet.set(
        "core.advect_ns_per_cell_step",
        replay.kernels.ns(KernelKind::Advect) as f64 / replay.cell_steps.max(1.0),
        rj,
    );
    sheet.set(
        "core.ftcs_ns_per_bin_step",
        replay.kernels.ns(KernelKind::Ftcs) as f64 / replay.bin_steps.max(1.0),
        rj,
    );
    let d = &replay.diffused;
    let dmean = |f: &dyn Fn(&Diffused) -> f64| d.iter().map(f).sum::<f64>() / d.len().max(1) as f64;
    sheet.set("core.overflow_diffused", dmean(&|x| x.overflow), d.len());
    sheet.set(
        "core.max_density_diffused",
        dmean(&|x| x.max_density),
        d.len(),
    );
    sheet.set(
        "core.violations_diffused",
        dmean(&|x| x.violations as f64),
        d.len(),
    );
    sheet.set(
        "legalize.disp_mean_rows",
        mean(&replay.legalize_disp),
        replay.legalize_disp.len(),
    );
    out.not_exercised(&[
        "legalize.greed_ms",
        "legalize.greed_ratio",
        "par.speedup_advect",
        "par.speedup_ftcs",
    ]);
    let traced_ms: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.traced_ms.iter().copied())
        .collect();
    let plain_ms: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.plain_ms.iter().copied())
        .collect();
    out.overhead(&traced_ms, &plain_ms);

    // Codec costs, timed aside on the kept requests and replies. Their
    // means per request kind are laid into every traced request span,
    // next to the queue and service times the server reported.
    let (mut enc_full, mut enc_delta, mut dec_resp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dec_req, mut enc_resp, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut delta_bytes, mut resp_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (t, o) in tenants.iter().zip(&outcomes) {
        for k in o.kept.iter().filter(|k| k.traced) {
            match &k.sent {
                Sent::Full(req) => {
                    let (enc, bytes) = time3(|| encode_request(req, PayloadEncoding::Binary));
                    let (dec, _) = time3(|| decode_request(&bytes));
                    enc_full.push(enc as f64);
                    dec_req.push(dec as f64 / 1e6);
                    req_bytes.push(bytes.len() as f64);
                }
                Sent::Delta(req) => {
                    let (enc, bytes) = time3(|| encode_delta_request(req));
                    let (dec, _) = time3(|| decode_delta_request(&bytes));
                    let base = &t.designs[k.design].base;
                    let (ap, _) = time3(|| req.delta.apply(&base.netlist, &base.placement));
                    enc_delta.push(enc as f64);
                    dec_req.push(dec as f64 / 1e6);
                    apply.push(ap as f64 / 1e6);
                    delta_bytes.push(bytes.len() as f64);
                }
            }
            let (enc, bytes) = time3(|| encode_response(&k.resp));
            let (dec, _) = time3(|| decode_response(&bytes));
            enc_resp.push(enc as f64 / 1e6);
            dec_resp.push(dec as f64);
            resp_bytes.push(bytes.len() as f64);
        }
    }
    let (enc_full, enc_delta, dec_resp) = (mean(&enc_full), mean(&enc_delta), mean(&dec_resp));
    let mut spans = Vec::new();
    for (i, o) in outcomes.into_iter().enumerate() {
        let mut tracer = Tracer::new(epoch, (i as u64 + 1) << 52);
        for q in &o.requests {
            let enc = if q.full { enc_full } else { enc_delta };
            tracer.record_sequence(
                q.job,
                q.span,
                q.start,
                q.end,
                &[
                    ("serve.encode_request", enc as u64),
                    ("serve.queue", q.queue_ns),
                    ("serve.service", q.service_ns),
                    ("serve.decode_response", dec_resp as u64),
                ],
            );
        }
        spans.extend(
            o.spans
                .into_iter()
                .chain(tracer.into_spans())
                .map(|s| (i as u32, s)),
        );
    }
    let records: Vec<_> = spans.iter().map(|(_, s)| s.clone()).collect();
    let layers = Layers::from_spans(&records);
    out.layer_sum(&layers);
    let jobs = layers.jobs as usize;
    let sheet = &mut out.sheet;
    for (metric, span) in [
        ("serve.encode_request_ms", "serve.encode_request"),
        ("serve.decode_response_ms", "serve.decode_response"),
        ("serve.queue_ms", "serve.queue"),
        ("serve.service_ms", "serve.service"),
        ("serve.delta_diff_ms", "serve.delta_diff"),
        ("serve.client_legalize_ms", "legalize.detailed"),
        ("legalize.detailed_ms", "legalize.detailed"),
        ("place.legality_ms", "place.legality"),
        ("ctl.unattributed_ms", "client.request"),
        ("trace.unattributed_ms", JOB),
    ] {
        sheet.set(metric, layers.self_ms(span), jobs);
    }
    sheet.set("serve.decode_request_ms", mean(&dec_req), dec_req.len());
    sheet.set("serve.encode_response_ms", mean(&enc_resp), enc_resp.len());
    sheet.set("serve.delta_apply_ms", mean(&apply), apply.len());
    sheet.set("serve.request_bytes", mean(&req_bytes), req_bytes.len());
    sheet.set("serve.delta_bytes", mean(&delta_bytes), delta_bytes.len());
    sheet.set("serve.response_bytes", mean(&resp_bytes), resp_bytes.len());
    out.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_visits_every_pair_once_with_one_full_in_four() {
        let mut seen = std::collections::BTreeSet::new();
        let mut fulls = 0;
        for r in 0..CYCLE {
            let (d, v, full) = schedule(r);
            assert!(seen.insert((d, v)));
            fulls += usize::from(full);
        }
        assert_eq!(seen.len(), CYCLE);
        assert_eq!(fulls, CYCLE / FULL_EVERY);
        for r in 0..4 * CYCLE {
            assert_eq!(schedule(r), schedule(r + CYCLE));
        }
        // The first round of a run is a delta, so it pays the upload.
        assert!(!schedule(0).2);
    }
}
