//! Migration-as-a-service: the protocol, client, routers and job runner
//! for running diffusion-based placement migration over a socket.
//!
//! `dpm-serve` is everything about a migration job that is not a server
//! loop. The server itself — admission, fair queueing, the design cache
//! and the connection front-end — is the `dpm-ctl` control plane, which
//! serves every role from one event loop: the client front door, and a
//! single-tenant shard or slab backend. This crate provides
//!
//! - the **wire protocol** ([`wire`]): one length-prefixed binary
//!   frame format for requests, responses, typed errors, streamed
//!   [`ProgressUpdate`]s and [`StatsSnapshot`]s, plus ECO deltas against
//!   a cached baseline ([`delta`]);
//! - a blocking **client** ([`ServeClient`]) with pipelining, progress
//!   streaming and wire-propagated tracing;
//! - the **job runner** ([`job`]): one job on the calling thread —
//!   planar or volumetric dispatch, per-request deadlines enforced
//!   *inside* the diffusion loops through the engines' cancellation
//!   hooks (an expired job answers [`ErrorCode::DeadlineExpired`] with
//!   its partial step/round counts), progress and span observers, and
//!   engine panics answered as [`ErrorCode::Internal`];
//! - **horizontal sharding** ([`shard`]): a [`ShardRouter`] partitions
//!   one job's die into K bin-aligned regions with density halos, fans
//!   the sub-problems out to in-process or TCP backends, and stitches
//!   the owned-cell results back with bounded halo-exchange rounds —
//!   K = 1 is bit-identical to a direct engine run, and a dead shard
//!   degrades to an unmigrated region instead of a failed job;
//! - **z-slab volumetric routing** ([`zslab`]): a [`VolRouter`] splats
//!   a 3D (tiered) job's density once, then ships each of K backends a
//!   tier slab with ghost layers and runs one exact FTCS step per
//!   halo-exchange round — the routed stack is bit-identical to a
//!   direct [`VolumetricDiffusion`](dpm_diffusion::VolumetricDiffusion)
//!   run at any K, in-process or over TCP. The [`wire`] format carries
//!   the tier axis in optional tagged sections, so a planar job sends
//!   none of them.
//!
//! Determinism survives the wire: `f64` values travel as IEEE-754 bit
//! patterns, so a round trip through a server produces placements
//! bit-identical to calling the engines in-process. Progress streaming
//! is observation-only — a request with `progress_stride: 0` and the
//! same request streamed every step produce bit-identical placements.
//!
//! ```
//! use dpm_serve::job;
//! use dpm_serve::wire::{JobKind, JobRequest};
//!
//! let bench = dpm_gen::CircuitSpec::with_size("doc", 60, 1).generate();
//! let req = JobRequest {
//!     id: 1,
//!     deadline_ms: 0,
//!     progress_stride: 8, // a ProgressUpdate every 8 diffusion steps
//!     kind: JobKind::Local,
//!     design: "doc".into(),
//!     config: dpm_diffusion::DiffusionConfig::default(),
//!     netlist: bench.netlist,
//!     die: bench.die,
//!     placement: bench.placement,
//!     vol: None,   // planar job; Some(VolRequestExt) runs a 3D stack
//!     trace: None, // Some(TraceContext) joins a distributed trace
//! };
//! job::validate(&req).expect("valid request");
//! let spans = dpm_obs::SpanRecorder::new(16);
//! let mut updates = 0;
//! let (resp, _kernels) = job::run(&req, None, &spans, &mut |_| updates += 1)
//!     .expect("no deadline, no panic");
//! assert_eq!(resp.positions.len(), req.netlist.num_cells());
//! assert!(updates <= resp.steps);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod delta;
pub mod job;
pub mod shard;
pub mod wire;
pub mod zslab;

pub use client::{DeltaReply, ServeClient};
pub use delta::{CellMove, CellResize, DeltaError, DeltaJobRequest, EcoDelta, NewCell};
pub use job::execute_job;
pub use shard::{
    ShardBackend, ShardFailover, ShardOutcome, ShardReply, ShardRouter, ShardRouterConfig,
};
pub use wire::{
    design_hash, DesignAck, ErrorCode, ErrorReply, JobKind, JobRequest, JobResponse, NeedDesign,
    PayloadEncoding, ProgressUpdate, PutDesign, Reply, StatsSnapshot, VolRequestExt,
    VolResponseExt,
};
pub use zslab::{VolReply, VolRouteError, VolRouter, VolRouterConfig};
