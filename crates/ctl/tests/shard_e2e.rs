//! Sharded routing over live TCP backends: control planes in their
//! single-tenant in-process role serve the shard sub-jobs. K = 1 through
//! the wire is bit-identical to the direct engine, a killed backend
//! fails over to a warm spare, and streamed shards surface progress
//! frames and kernel timers.

use std::net::{SocketAddr, TcpListener};

use dpm_ctl::{CtlConfig, CtlServer};
use dpm_diffusion::{DiffusionConfig, LocalDiffusion};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec};
use dpm_serve::shard::{ShardBackend, ShardRouter, ShardRouterConfig};
use dpm_serve::wire::{JobKind, JobRequest};

fn hot_bench(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("shard_e2e", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xD1E));
    b
}

fn request(bench: &Benchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: format!("shard_e2e_{id}"),
        config: DiffusionConfig::default(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    }
}

/// An address that refuses connections: bind an ephemeral port, then
/// drop the listener.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    drop(listener);
    addr
}

#[test]
fn k1_over_tcp_is_bit_identical_to_direct_engine() {
    let bench = hot_bench(150, 43);
    let req = request(&bench, 2);

    let mut direct = bench.placement.clone();
    LocalDiffusion::new(req.config.clone()).run(&bench.netlist, &bench.die, &mut direct);

    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 1,
            ..ShardRouterConfig::default()
        },
        vec![ShardBackend::Tcp(server.local_addr())],
    );
    let reply = router.route(&req);
    server.shutdown();

    assert!(
        reply.outcomes[0].error.is_none(),
        "{:?}",
        reply.outcomes[0].error
    );
    assert_eq!(
        reply.response.positions,
        direct.as_slice().to_vec(),
        "K=1 routed through TCP must stay bit-identical (f64 bit patterns on the wire)"
    );
}

#[test]
fn killed_backend_fails_over_to_warm_spare_with_no_unmigrated_region() {
    // The same two-pile workload as the degradation test, but the router
    // has a warm spare: instead of leaving the dead backend's region
    // unmigrated, the shard retries on the spare within the round and
    // the final placement is bit-identical to an all-healthy run.
    let die = dpm_place::Die::new(288.0, 144.0, 12.0);
    let mut b = dpm_netlist::NetlistBuilder::new();
    for i in 0..240 {
        b.add_cell(format!("c{i}"), 6.0, 12.0, dpm_netlist::CellKind::Movable);
    }
    let nl = b.build().expect("valid");
    let mut placement = dpm_place::Placement::new(nl.num_cells());
    for (i, c) in nl.cell_ids().enumerate() {
        let (base_x, j) = if i < 120 { (30.0, i) } else { (210.0, i - 120) };
        placement.set(
            c,
            dpm_geom::Point::new(base_x + (j % 8) as f64 * 3.0, 40.0 + (j / 8) as f64 * 3.0),
        );
    }
    let req = JobRequest {
        id: 6,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "failover".into(),
        config: DiffusionConfig::default()
            .with_bin_size(24.0)
            .with_windows(1, 2),
        netlist: nl.clone(),
        die: die.clone(),
        placement: placement.clone(),
        vol: None,
        trace: None,
    };
    let cfg = ShardRouterConfig {
        shards: 2,
        max_halo_rounds: 2,
        ..ShardRouterConfig::default()
    };

    // Reference: both shards healthy, in-process.
    let healthy = ShardRouter::in_process(cfg.clone()).route(&req);
    for o in &healthy.outcomes {
        assert!(o.error.is_none());
    }

    // Shard 1's assigned backend is dead; one healthy TCP spare.
    let spare = CtlServer::start(CtlConfig::default()).expect("spare starts");
    let spare_addr = spare.local_addr();
    let dead = dead_addr();
    let router = ShardRouter::with_spares(
        cfg,
        vec![ShardBackend::InProcess, ShardBackend::Tcp(dead)],
        vec![ShardBackend::Tcp(spare_addr)],
    );
    let reply = router.route(&req);
    spare.shutdown();

    // Every shard finished error-free: the spare absorbed the failure.
    assert_eq!(reply.shards, 2);
    for o in &reply.outcomes {
        assert!(
            o.error.is_none(),
            "shard {} still failed despite the spare: {:?}",
            o.shard,
            o.error
        );
    }
    // The replacement is reported, and sticks for later rounds (the
    // spare is consumed exactly once, not once per round).
    assert_eq!(reply.failovers.len(), 1, "{:?}", reply.failovers);
    assert_eq!(reply.failovers[0].shard, 1);
    assert_eq!(reply.failovers[0].from, ShardBackend::Tcp(dead));
    assert_eq!(reply.failovers[0].to, ShardBackend::Tcp(spare_addr));
    // No unmigrated region: the result is bit-identical to the healthy
    // run (the wire is bit-exact, so which backend ran shard 1 cannot
    // matter), and in particular shard 1's pile actually moved.
    assert_eq!(
        reply.response.positions, healthy.response.positions,
        "failover run must be bit-identical to the all-healthy run"
    );
    assert!(reply.outcomes[1].steps > 0, "spare-run shard did no work");
    assert!(healthy.failovers.is_empty());
}

#[test]
fn router_reports_progress_frames_from_streamed_tcp_shards() {
    let bench = hot_bench(200, 53);
    let mut req = request(&bench, 5);
    req.progress_stride = 4;

    let server_a = CtlServer::start(CtlConfig::default()).expect("server a");
    let server_b = CtlServer::start(CtlConfig::default()).expect("server b");
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 2,
            max_halo_rounds: 3,
            ..ShardRouterConfig::default()
        },
        vec![
            ShardBackend::Tcp(server_a.local_addr()),
            ShardBackend::Tcp(server_b.local_addr()),
        ],
    );
    let reply = router.route(&req);
    server_a.shutdown();
    server_b.shutdown();

    for o in &reply.outcomes {
        assert!(o.error.is_none(), "shard {} failed: {:?}", o.shard, o.error);
    }
    assert!(
        reply.progress_frames > 0,
        "streamed shard requests must surface progress frames"
    );
    // TCP backends contribute kernel timers through their stats
    // endpoint.
    assert!(reply.kernels.ftcs.calls > 0);
}
