//! The volumetric path over live TCP backends: control planes in their
//! single-tenant in-process role serve z-slab sub-jobs bit-identically
//! to K = 1, run a full-stack job sent straight to them, and reject a
//! volumetric extension on a job that cannot run it.

use dpm_ctl::{CtlConfig, CtlServer};
use dpm_diffusion::{DiffusionConfig, SolverKind, VolPlacement, VolumetricDiffusion};
use dpm_gen::{VolBenchmark, VolCircuitSpec};
use dpm_serve::shard::ShardBackend;
use dpm_serve::wire::{JobKind, JobRequest, PayloadEncoding, Reply, VolRequestExt};
use dpm_serve::zslab::{VolRouter, VolRouterConfig};
use dpm_serve::ServeClient;

/// A 3-tier stack with an overfull middle tier — the canonical 3D-IC
/// migration workload.
fn hot_stack(seed: u64) -> VolBenchmark {
    VolCircuitSpec::with_size("vol_e2e", 3, 150, seed)
        .with_hotspot(1)
        .generate()
}

/// The z-slab contract is FTCS-only, so pin the solver regardless of
/// any ambient `DPM_SOLVER` override.
fn ftcs() -> DiffusionConfig {
    DiffusionConfig::default().with_solver(SolverKind::Ftcs)
}

fn request(bench: &VolBenchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: format!("vol_e2e_{id}"),
        config: ftcs(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.xy.clone(),
        vol: Some(VolRequestExt {
            nz: bench.layers() as u32,
            z0: 0,
            global_nz: bench.layers() as u32,
            exact_steps: None,
            z: bench.placement.z.clone(),
            field: None,
        }),
        trace: None,
    }
}

/// Runs the same workload directly through [`VolumetricDiffusion`],
/// returning the final volumetric placement and step count.
fn direct_run(bench: &VolBenchmark) -> (VolPlacement, u64) {
    let mut vp = bench.placement.clone();
    let r =
        VolumetricDiffusion::new(ftcs(), bench.layers()).run(&bench.netlist, &bench.die, &mut vp);
    assert!(
        r.converged,
        "direct run did not converge in {} steps",
        r.steps
    );
    assert!(r.steps > 0, "workload must do real work");
    (vp, r.steps as u64)
}

fn assert_monotone(trace: &[f64]) {
    assert!(trace.len() >= 2, "at least one round: {trace:?}");
    for w in trace.windows(2) {
        assert!(
            w[1] <= w[0],
            "max density rose across a stitched round: {trace:?}"
        );
    }
}

#[test]
fn k2_over_tcp_is_bit_identical_to_k1_and_preserves_the_maximum_principle() {
    let bench = hot_stack(79);
    let req = request(&bench, 3);

    let k1 = VolRouter::in_process(VolRouterConfig {
        slabs: 1,
        ..VolRouterConfig::default()
    })
    .route(&req)
    .expect("K=1 routes");

    let server_a = CtlServer::start(CtlConfig::default()).expect("server a");
    let server_b = CtlServer::start(CtlConfig::default()).expect("server b");
    let router = VolRouter::new(
        VolRouterConfig {
            slabs: 2,
            ..VolRouterConfig::default()
        },
        vec![
            ShardBackend::Tcp(server_a.local_addr()),
            ShardBackend::Tcp(server_b.local_addr()),
        ],
    );
    let reply = router.route(&req).expect("K=2 routes over TCP");
    server_a.shutdown();
    server_b.shutdown();

    assert_eq!(reply.slabs, 2);
    assert!(reply.response.converged);
    assert_eq!(
        reply.response.positions, k1.response.positions,
        "f64s travel as bit patterns, so TCP slabs must match K=1 exactly"
    );
    assert_eq!(
        reply.response.vol.as_ref().expect("vol").z,
        k1.response.vol.as_ref().expect("vol").z
    );
    assert_eq!(
        reply.response.vol.as_ref().expect("vol").field,
        k1.response.vol.as_ref().expect("vol").field
    );
    assert_monotone(&reply.max_density_trace);
}

#[test]
fn volumetric_job_over_tcp_runs_directly_and_omits_the_field() {
    // A client can skip the router and send a full-stack job straight to
    // a server. The reply carries the migrated depths; the evolved field
    // ships back only when the request shipped one in (the router's
    // sub-job shape), so plain clients don't pay for it. A streamed
    // request gets one progress frame per step and the same result.
    let bench = hot_stack(103);
    let (direct, steps) = direct_run(&bench);

    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");
    let mut replies = Vec::new();
    for stride in [0, 1] {
        let mut req = request(&bench, 12 + u64::from(stride));
        req.progress_stride = stride;
        let mut frames = Vec::new();
        let reply = client
            .request_streaming(&req, PayloadEncoding::Binary, |p| frames.push(*p))
            .expect("transport");
        replies.push((stride, reply, frames));
    }
    server.shutdown();

    for (stride, reply, frames) in replies {
        let resp = match reply {
            Reply::Ok(resp) => resp,
            Reply::Rejected(e) => panic!("rejected: {} {}", e.code.as_str(), e.message),
        };
        assert!(resp.converged);
        assert_eq!(resp.steps, steps);
        assert_eq!(
            resp.positions,
            direct.xy.as_slice().to_vec(),
            "a wire round trip must not perturb the volumetric run (stride {stride})"
        );
        let ext = resp.vol.expect("volumetric reply carries the extension");
        assert_eq!(ext.z, direct.z);
        assert!(ext.field.is_none(), "field not requested, must not ship");

        if stride == 0 {
            assert!(frames.is_empty(), "stride 0 streams nothing");
            continue;
        }
        let at: Vec<u64> = frames.iter().map(|p| p.step).collect();
        assert_eq!(
            at,
            (1..=resp.steps).collect::<Vec<_>>(),
            "one frame per step"
        );
        for w in frames.windows(2) {
            assert!(
                w[1].max_density <= w[0].max_density,
                "max density rose: {} -> {}",
                w[0].max_density,
                w[1].max_density
            );
        }
    }
}

#[test]
fn local_job_with_vol_extension_is_rejected_by_the_server() {
    let bench = hot_stack(107);
    let mut req = request(&bench, 13);
    req.kind = JobKind::Local;

    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");
    let reply = client
        .request(&req, PayloadEncoding::Binary)
        .expect("transport");
    server.shutdown();

    match reply {
        Reply::Rejected(e) => {
            assert_eq!(e.code, dpm_serve::ErrorCode::InvalidConfig);
            assert!(
                e.message.contains("global"),
                "unexpected message: {}",
                e.message
            );
        }
        Reply::Ok(_) => panic!("a Local job with a vol extension must be rejected"),
    }
}
