//! The job runner: one migration job, start to finish, on the calling
//! thread.
//!
//! Every server role runs jobs through [`run`]: a client-facing control
//! plane, and a single-tenant one acting as a shard or slab backend.
//! The runner
//!
//! - dispatches planar jobs to global or local diffusion
//!   ([`execute_job`]) and volumetric jobs (a [`VolRequestExt`]) to
//!   [`VolumetricDiffusion`];
//! - composes the progress and span observers on one path: progress
//!   updates go to the caller's sink every `progress_stride` steps, and a
//!   traced request bridges kernel timings into spans under its context;
//! - answers an engine panic as [`ErrorCode::Internal`] and a cancelled
//!   run as [`ErrorCode::DeadlineExpired`] with its partial step/round
//!   counts;
//! - reports movement statistics, and echoes the evolved volumetric
//!   field only when the request shipped one in.
//!
//! Requests are checked once, before they are queued, by [`validate`];
//! the runner assumes a request that passed it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use dpm_diffusion::{
    DiffusionConfig, DiffusionObserver, DiffusionResult, GlobalDiffusion, KernelTimers,
    LocalDiffusion, SolverKind, SpanObserver, StepEvent, VolJobSpec, VolPlacement,
    VolumetricDiffusion,
};
use dpm_obs::SpanRecorder;
use dpm_place::{BinGrid, MovementStats};

use crate::wire::{
    ErrorCode, ErrorReply, JobKind, JobRequest, JobResponse, ProgressUpdate, VolRequestExt,
    VolResponseExt,
};

/// An error reply with no partial progress.
pub fn rejection(id: u64, code: ErrorCode, message: impl Into<String>) -> ErrorReply {
    ErrorReply {
        id,
        code,
        steps: 0,
        rounds: 0,
        message: message.into(),
    }
}

/// Checks a request before it is queued: the diffusion parameters, and
/// the volumetric extension's shape against the job. The engines assert
/// on these instead of erroring, so a malformed-but-well-framed request
/// must be turned away here.
///
/// # Errors
///
/// [`ErrorCode::InvalidConfig`] naming the first problem found.
pub fn validate(req: &JobRequest) -> Result<(), ErrorReply> {
    let invalid = |message: String| rejection(req.id, ErrorCode::InvalidConfig, message);
    req.config.validate().map_err(|e| invalid(e.to_string()))?;
    match &req.vol {
        Some(v) => vol_rejection(v, req).map_or(Ok(()), |msg| Err(invalid(msg.into()))),
        None => Ok(()),
    }
}

/// Why a volumetric extension cannot run, or `None` if it can.
fn vol_rejection(v: &VolRequestExt, req: &JobRequest) -> Option<&'static str> {
    if !matches!(req.kind, JobKind::Global) {
        return Some("volumetric jobs run global diffusion only");
    }
    if v.z.len() != req.netlist.num_cells() {
        return Some("vol.z does not cover the netlist");
    }
    if matches!(req.config.solver, SolverKind::Spectral)
        && (v.exact_steps.is_some() || v.field.is_some())
    {
        return Some("halo-exchange volumetric sub-jobs are FTCS-only");
    }
    if let Some(field) = &v.field {
        let bins = BinGrid::new(req.die.outline(), req.config.bin_size).len();
        if field.len() != bins * v.nz as usize {
            return Some("vol.field does not match the job region");
        }
    }
    None
}

/// Turns diffusion steps into [`ProgressUpdate`]s every `stride` steps
/// (never, for stride 0). It accumulates cumulative movement from the
/// per-step records and never touches the run's state.
struct ProgressEmitter<'a> {
    id: u64,
    stride: u64,
    movement: f64,
    sink: &'a mut dyn FnMut(ProgressUpdate),
}

impl DiffusionObserver for ProgressEmitter<'_> {
    fn on_step(&mut self, event: &StepEvent<'_>) {
        if self.stride == 0 {
            return;
        }
        self.movement += event.record.movement;
        let completed = event.record.step as u64 + 1;
        if completed.is_multiple_of(self.stride) {
            (self.sink)(ProgressUpdate {
                id: self.id,
                step: completed,
                round: event.round as u64,
                overflow: event.record.computed_overflow,
                movement: self.movement,
                max_density: event.record.max_density,
            });
        }
    }
}

/// Runs one validated job to completion or `deadline`.
///
/// The run is recorded as a `job.global`, `job.local` or
/// `job.volumetric` span in `spans`. A traced request's span takes the
/// request's own trace context, and its kernel spans hang below it;
/// draining them into a reply is the caller's business. The job's
/// `config.threads` is clamped to the machine's available parallelism —
/// results are bit-identical at any thread count, so the clamp only
/// bounds what a request can ask of the host.
///
/// On success returns the response (with `queue_ns` left at 0 for the
/// caller to fill) and the run's kernel timings.
///
/// # Errors
///
/// [`ErrorCode::DeadlineExpired`] if the deadline passed before or
/// during the run (with partial step/round counts), or
/// [`ErrorCode::Internal`] if the engine panicked.
pub fn run(
    req: &JobRequest,
    deadline: Option<Instant>,
    spans: &SpanRecorder,
    progress: &mut dyn FnMut(ProgressUpdate),
) -> Result<(JobResponse, KernelTimers), ErrorReply> {
    let id = req.id;
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(rejection(
            id,
            ErrorCode::DeadlineExpired,
            "deadline expired while queued",
        ));
    }
    let config = DiffusionConfig {
        threads: req.config.threads.clamp(1, max_threads()),
        ..req.config.clone()
    };
    let should_stop = move || deadline.is_some_and(|d| Instant::now() >= d);
    let span_name = match (req.kind, &req.vol) {
        (_, Some(_)) => "job.volumetric",
        (JobKind::Global, None) => "job.global",
        (JobKind::Local, None) => "job.local",
    };
    let span = match req.trace {
        Some(ctx) => spans.start_traced(span_name, ctx),
        None => spans.start(span_name),
    };

    let mut emitter = ProgressEmitter {
        id,
        stride: u64::from(req.progress_stride),
        movement: 0.0,
        sink: progress,
    };
    let mut bridge;
    let observer: &mut dyn DiffusionObserver = match req.trace {
        Some(ctx) => {
            bridge = SpanObserver::new(spans, ctx, ctx.span_id).with_inner(&mut emitter);
            &mut bridge
        }
        None => &mut emitter,
    };

    let mut placement = req.placement.clone();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match &req.vol {
        Some(v) => {
            let spec = VolJobSpec {
                nz: v.nz as usize,
                z0: v.z0 as usize,
                global_nz: v.global_nz as usize,
                field: v.field.clone(),
                exact_steps: v.exact_steps.map(|s| s as usize),
            };
            let mut vp = VolPlacement {
                xy: placement.clone(),
                z: v.z.clone(),
            };
            let r = VolumetricDiffusion::new(config.clone(), v.global_nz as usize)
                .run_job_observed(
                    &spec,
                    &req.netlist,
                    &req.die,
                    &mut vp,
                    &should_stop,
                    observer,
                );
            placement = vp.xy;
            // The evolved field travels back only on field-shipping
            // (router sub-job) requests — direct volumetric clients
            // don't pay for a region they never look at.
            let field = v.field.is_some().then_some(r.field);
            let result = DiffusionResult {
                steps: r.steps,
                rounds: 1,
                converged: r.converged,
                cancelled: r.cancelled,
                telemetry: r.telemetry,
            };
            (result, Some(VolResponseExt { z: vp.z, field }))
        }
        None => {
            let result = execute_job(
                req.kind,
                &config,
                &req.netlist,
                &req.die,
                &mut placement,
                &should_stop,
                observer,
            );
            (result, None)
        }
    }));
    let service_ns = t0.elapsed().as_nanos() as u64;
    span.finish();

    let (result, vol) =
        outcome.map_err(|_| rejection(id, ErrorCode::Internal, "diffusion engine panicked"))?;
    if result.cancelled {
        return Err(ErrorReply {
            id,
            code: ErrorCode::DeadlineExpired,
            steps: result.steps as u64,
            rounds: result.rounds as u64,
            message: "deadline expired mid-diffusion; placement progress discarded".into(),
        });
    }
    let movement = MovementStats::between(&req.netlist, &req.placement, &placement);
    let response = JobResponse {
        id,
        converged: result.converged,
        steps: result.steps as u64,
        rounds: result.rounds as u64,
        total_movement: movement.total,
        max_movement: movement.max,
        queue_ns: 0,
        service_ns,
        positions: placement.as_slice().to_vec(),
        vol,
        spans: Vec::new(),
    };
    Ok((response, *result.telemetry.kernels()))
}

/// The host's available parallelism, read once: on Linux the query
/// parses cgroup files, too slow to repeat per job.
fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs one planar migration job on the calling thread: dispatches on
/// [`JobKind`], threads the cancellation hook and observer through the
/// engine, and leaves the migrated positions in `placement`. This is the
/// engine call [`run`] makes for planar jobs, exported so other callers
/// (in-process shard backends, benchmarks) run exactly the same path.
#[allow(clippy::too_many_arguments)]
pub fn execute_job(
    kind: JobKind,
    config: &DiffusionConfig,
    netlist: &dpm_netlist::Netlist,
    die: &dpm_place::Die,
    placement: &mut dpm_place::Placement,
    should_stop: &dyn Fn() -> bool,
    observer: &mut dyn DiffusionObserver,
) -> DiffusionResult {
    match kind {
        JobKind::Global => GlobalDiffusion::new(config.clone()).run_observed(
            netlist,
            die,
            placement,
            should_stop,
            observer,
        ),
        JobKind::Local => LocalDiffusion::new(config.clone()).run_observed(
            netlist,
            die,
            placement,
            should_stop,
            observer,
        ),
    }
}
