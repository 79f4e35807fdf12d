//! End-to-end tests for the control plane: the ECO-delta path is
//! bit-identical to a full resend (both solvers, in-process engine and
//! over TCP), the NeedDesign handshake and LRU eviction behave
//! deterministically over the wire, a frame stamped with a retired
//! codec version gets one typed error before the connection closes, and
//! a sharded control plane survives a dead backend via the registry's
//! warm spare.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use dpm_diffusion::{DiffusionConfig, SolverKind};
use dpm_gen::{Benchmark, CircuitSpec, EcoSpec, InflationSpec};
use dpm_serve::wire::{
    design_hash, encode_request, read_frame, write_frame, FrameKind, JobKind, JobRequest,
    PayloadEncoding, DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::{
    execute_job, DeltaJobRequest, DeltaReply, EcoDelta, ErrorCode, Reply, ServeClient,
    ShardBackend, ShardRouter, ShardRouterConfig, VolRequestExt,
};

use dpm_ctl::{BackendRegistry, CtlConfig, CtlServer, ExecMode, TenantSpec};

fn bench(cells: usize, seed: u64) -> Benchmark {
    CircuitSpec::with_size("ctl_e2e", cells, seed).generate()
}

/// A baseline and its ECO'd successor, generated from the same spec so
/// the successor strictly extends the baseline. The baseline is
/// inflated into a hot spot so the migration does real work.
fn eco_pair(cells: usize, seed: u64) -> (Benchmark, Benchmark) {
    let make = || {
        let mut b = bench(cells, seed);
        b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xD1E));
        b
    };
    let base = make();
    let mut eco = make();
    let summary = eco.apply_eco(&EcoSpec::default(), seed ^ 0xEC0);
    assert!(summary.buffers > 0 && summary.moved > 0 && summary.resized > 0);
    (base, eco)
}

fn full_request(b: &Benchmark, id: u64, kind: JobKind, config: &DiffusionConfig) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind,
        design: format!("ctl_e2e_{id}"),
        config: config.clone(),
        netlist: b.netlist.clone(),
        die: b.die.clone(),
        placement: b.placement.clone(),
        vol: None,
        trace: None,
    }
}

fn delta_request(
    base: &Benchmark,
    eco: &Benchmark,
    id: u64,
    tenant: &str,
    kind: JobKind,
    config: &DiffusionConfig,
) -> DeltaJobRequest {
    let delta = EcoDelta::diff(&base.netlist, &base.placement, &eco.netlist, &eco.placement)
        .expect("eco extends base");
    DeltaJobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind,
        design: format!("ctl_e2e_delta_{id}"),
        tenant: tenant.to_string(),
        config: config.clone(),
        baseline: design_hash(&base.netlist, &base.die, &base.placement),
        delta,
        trace: None,
    }
}

fn one_tenant_cfg() -> CtlConfig {
    CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        ..CtlConfig::default()
    }
}

fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    drop(listener);
    addr
}

#[test]
fn delta_path_is_bit_identical_to_full_resend_both_solvers() {
    for (solver, kind) in [
        (SolverKind::Ftcs, JobKind::Local),
        (SolverKind::Spectral, JobKind::Global),
    ] {
        let config = DiffusionConfig::default().with_solver(solver);
        let (base, eco) = eco_pair(220, 71);

        // Ground truth: the engine run in this process on the modified
        // design.
        let mut local = eco.placement.clone();
        let result = execute_job(
            kind,
            &config,
            &eco.netlist,
            &eco.die,
            &mut local,
            &|| false,
            &mut dpm_diffusion::NoopObserver,
        );
        assert!(result.steps > 0, "workload must do real work");

        let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
        let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");

        // Full resend over TCP.
        let full = client
            .request(
                &full_request(&eco, 1, kind, &config),
                PayloadEncoding::Binary,
            )
            .expect("full request");
        let Reply::Ok(full) = full else {
            panic!("full request rejected: {full:?}");
        };
        assert_eq!(
            full.positions,
            local.as_slice().to_vec(),
            "{solver:?}: TCP full resend must match the in-process engine bit for bit"
        );

        // Delta path over TCP (NeedDesign handshake resolved inside
        // request_delta).
        let dreq = delta_request(&base, &eco, 2, "acme", kind, &config);
        let reply = client
            .request_delta(&dreq, (&base.netlist, &base.die, &base.placement), |_| {})
            .expect("delta request");
        let Reply::Ok(delta_resp) = reply else {
            panic!("delta request rejected: {reply:?}");
        };
        assert_eq!(
            delta_resp.positions, full.positions,
            "{solver:?}: cached-baseline + ECO delta must be bit-identical to the full resend"
        );
        ctl.shutdown();
    }
}

#[test]
fn need_design_handshake_then_cache_hits() {
    let config = DiffusionConfig::default();
    let (base, eco) = eco_pair(180, 83);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");

    // Cold cache: the delta is answered with a typed NeedDesign frame
    // naming the missing hash.
    let dreq = delta_request(&base, &eco, 10, "acme", JobKind::Local, &config);
    client.send_delta_request(&dreq).expect("send");
    let reply = client.recv_delta_reply(|_| {}).expect("recv");
    let DeltaReply::NeedDesign(need) = reply else {
        panic!("expected NeedDesign on a cold cache, got {reply:?}");
    };
    assert_eq!(need.id, 10);
    assert_eq!(need.hash, dreq.baseline);

    // Upload, then resend: the ack echoes the content hash and the
    // resent delta runs.
    let ack = client
        .put_design(10, "acme", &base.netlist, &base.die, &base.placement)
        .expect("upload");
    assert!(ack.cached);
    assert_eq!(ack.hash, dreq.baseline);
    client.send_delta_request(&dreq).expect("resend");
    let DeltaReply::Done(Reply::Ok(first)) = client.recv_delta_reply(|_| {}).expect("recv") else {
        panic!("resent delta should run");
    };

    // Warm cache: a second delta skips the handshake entirely.
    let dreq2 = delta_request(&base, &eco, 11, "acme", JobKind::Local, &config);
    client.send_delta_request(&dreq2).expect("send warm");
    let DeltaReply::Done(Reply::Ok(second)) = client.recv_delta_reply(|_| {}).expect("recv") else {
        panic!("warm delta should run");
    };
    assert_eq!(first.positions, second.positions, "same delta, same answer");

    let cache = ctl.cache_stats();
    assert_eq!(cache.misses, 1, "exactly the cold lookup missed");
    assert_eq!(cache.hits, 2, "resend and warm request both hit");
    assert_eq!(ctl.metrics().need_design.get(), 1);
    assert_eq!(ctl.metrics().delta_requests.get(), 3);
    ctl.shutdown();
}

#[test]
fn wire_lru_eviction_is_deterministic() {
    let a = bench(140, 91);
    let b = bench(140, 92);
    let a_bytes = dpm_serve::wire::encode_design_bytes(&a.netlist, &a.die, &a.placement).len();
    // Budget fits either design alone but never both, so the second
    // upload must evict the first — deterministically.
    let cfg = CtlConfig {
        workers: 1,
        cache_bytes: a_bytes + a_bytes / 2,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        ..CtlConfig::default()
    };
    let ctl = CtlServer::start(cfg).expect("ctl starts");
    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");

    let ack_a = client
        .put_design(1, "acme", &a.netlist, &a.die, &a.placement)
        .expect("upload a");
    assert!(ack_a.cached);
    assert_eq!(ack_a.evicted, 0);

    let ack_b = client
        .put_design(2, "acme", &b.netlist, &b.die, &b.placement)
        .expect("upload b");
    assert!(ack_b.cached);
    assert_eq!(
        ack_b.evicted, 1,
        "b must evict a: the budget holds one design"
    );

    // a is gone: a delta naming it gets NeedDesign, not a stale run.
    let mut eco_a = bench(140, 91);
    eco_a.apply_eco(&EcoSpec::default(), 5);
    let dreq = delta_request(
        &a,
        &eco_a,
        3,
        "acme",
        JobKind::Local,
        &DiffusionConfig::default(),
    );
    client.send_delta_request(&dreq).expect("send");
    let reply = client.recv_delta_reply(|_| {}).expect("recv");
    assert!(
        matches!(reply, DeltaReply::NeedDesign(ref n) if n.hash == dreq.baseline),
        "evicted baseline must miss: {reply:?}"
    );

    let cache = ctl.cache_stats();
    assert_eq!(cache.evictions, 1);
    assert_eq!(cache.entries, 1);
    ctl.shutdown();
}

#[test]
fn retired_version_gets_one_error_then_close() {
    let config = DiffusionConfig::default();
    let eco = bench(150, 97);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");

    // A well-formed request stamped with the retired v3 header.
    let mut stream = TcpStream::connect(ctl.local_addr()).expect("connect");
    let payload = encode_request(
        &full_request(&eco, 77, JobKind::Local, &config),
        PayloadEncoding::Binary,
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameKind::Request, &payload).expect("encode");
    frame[4..6].copy_from_slice(&3u16.to_le_bytes());
    stream.write_all(&frame).expect("send v3");

    // One typed error reply, stamped with the current version...
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
        .expect("reads")
        .expect("error reply");
    let Reply::Rejected(err) = Reply::from_frame(&reply).expect("decodes") else {
        panic!("a v3 frame must be refused");
    };
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(err.message.contains("version 3"), "{}", err.message);
    // ...then the server closes the stream it cannot resynchronize.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "no frame may follow the error");
    assert_eq!(ctl.metrics().malformed.get(), 1);
    assert_eq!(ctl.metrics().received.get(), 0);
    ctl.shutdown();
}

#[test]
fn sharded_ctl_survives_dead_backend_via_registry_spare() {
    let config = DiffusionConfig::default();
    let eco = {
        let mut b = bench(200, 101);
        b.apply_eco(&EcoSpec::default(), 3);
        b
    };
    let req = full_request(&eco, 5, JobKind::Local, &config);

    // Reference: the same sharded job on healthy in-process backends.
    let shard_cfg = ShardRouterConfig {
        shards: 2,
        ..ShardRouterConfig::default()
    };
    let reference = ShardRouter::in_process(shard_cfg.clone()).route(&req);
    assert!(reference.outcomes.iter().all(|o| o.error.is_none()));

    // Control plane: one primary is dead; the warm spare is a real
    // server (a second control plane). The registry's pre-job health probe must swap them.
    let spare = CtlServer::start(CtlConfig::default()).expect("spare starts");
    let spare_addr = spare.local_addr();
    let registry = BackendRegistry::new(
        vec![ShardBackend::InProcess, ShardBackend::Tcp(dead_addr())],
        vec![ShardBackend::Tcp(spare_addr)],
    );
    let ctl = CtlServer::start(CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        exec: ExecMode::Sharded {
            shards: shard_cfg.shards,
            halo_bins: shard_cfg.halo_bins,
            max_halo_rounds: shard_cfg.max_halo_rounds,
            registry,
        },
        ..CtlConfig::default()
    })
    .expect("ctl starts");

    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let reply = client
        .request(&req, PayloadEncoding::Binary)
        .expect("request");
    let Reply::Ok(resp) = reply else {
        panic!("sharded job with a dead backend must still succeed: {reply:?}");
    };
    assert_eq!(
        resp.positions, reference.response.positions,
        "failover must not change the placement: backends are bit-exact"
    );

    let snap = ctl
        .registry_snapshot()
        .expect("sharded mode has a registry");
    assert_eq!(snap.replacements, 1, "the dead primary was replaced once");
    assert_eq!(snap.primaries[1], ShardBackend::Tcp(spare_addr));
    assert!(snap.spares.is_empty(), "the spare was promoted");
    assert_eq!(ctl.metrics().replacements.get(), 1);

    // The planar shard router cannot carry a tier axis: a volumetric
    // request is refused at admission instead of running planar.
    let mut vol_req = full_request(&eco, 6, JobKind::Global, &config);
    vol_req.vol = Some(VolRequestExt {
        nz: 2,
        z0: 0,
        global_nz: 2,
        exact_steps: None,
        z: vec![0.5; eco.netlist.num_cells()],
        field: None,
    });
    let reply = client
        .request(&vol_req, PayloadEncoding::Binary)
        .expect("volumetric request");
    let Reply::Rejected(err) = reply else {
        panic!("sharded mode must reject a volumetric job: {reply:?}");
    };
    assert_eq!(err.code, ErrorCode::InvalidConfig);
    assert_eq!(err.id, 6);
    assert_eq!(ctl.metrics().invalid_config.get(), 1);
    assert_eq!(
        ctl.metrics().admitted.get(),
        1,
        "the rejected job never queued"
    );
    ctl.shutdown();
    spare.shutdown();
}

#[test]
fn hundreds_of_idle_connections_do_not_starve_a_request() {
    let config = DiffusionConfig::default();
    let eco = bench(120, 111);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");

    // Park idle connections; they cost the front-end a buffer each,
    // not a thread each.
    let idle: Vec<TcpStream> = (0..300)
        .map(|_| TcpStream::connect(ctl.local_addr()).expect("idle connect"))
        .collect();

    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let reply = client
        .request(
            &full_request(&eco, 9, JobKind::Local, &config),
            PayloadEncoding::Binary,
        )
        .expect("request among idles");
    assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");

    // The idle connections are still alive and serviceable afterwards.
    let mut last = idle.into_iter().next_back().expect("have one");
    last.set_nonblocking(false).expect("blocking");
    write_frame(&mut last, FrameKind::StatsRequest, &[]).expect("stats on idle");
    let frame = read_frame(&mut last, 1 << 20)
        .expect("read stats")
        .expect("stats frame");
    assert_eq!(frame.kind, FrameKind::Stats);
    ctl.shutdown();
}
