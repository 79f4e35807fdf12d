//! Acceptance test for fleet-wide distributed tracing: one volumetric
//! job enters the control plane's front door, fans out over a 2-backend
//! TCP `VolRouter`, and comes back with a single-trace span tree that
//! covers admission, queue wait, both slab dispatches, the halo rounds,
//! and the per-kernel work inside the remote engines — while the traced
//! placement stays bit-identical to the untraced one. Smaller cases pin
//! a single in-process control plane's exported tree and a traced K = 2
//! shard route over TCP backends.

use std::collections::{HashMap, HashSet};

use dpm_diffusion::{DiffusionConfig, SolverKind, VolumetricDiffusion};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec, VolBenchmark, VolCircuitSpec};
use dpm_obs::{SpanRecord, TraceContext, TraceExporter};
use dpm_serve::wire::{JobKind, JobRequest, PayloadEncoding, VolRequestExt};
use dpm_serve::{Reply, ServeClient, ShardBackend, ShardRouter, ShardRouterConfig};

use dpm_ctl::{BackendRegistry, CtlConfig, CtlServer, ExecMode, TenantSpec};

fn hot_stack(seed: u64) -> VolBenchmark {
    VolCircuitSpec::with_size("trace_e2e", 3, 150, seed)
        .with_hotspot(1)
        .generate()
}

/// The z-slab contract is FTCS-only.
fn ftcs() -> DiffusionConfig {
    DiffusionConfig::default().with_solver(SolverKind::Ftcs)
}

fn vol_request(bench: &VolBenchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: "trace_e2e".into(),
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

fn hot_bench(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("trace_e2e", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xD1E));
    b
}

fn planar_request(bench: &Benchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: format!("trace_e2e_{id}"),
        config: DiffusionConfig::default(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    }
}

/// Asserts the records form one tree: unique nonzero span ids, every
/// parent link landing on another record or on `graft`, all sharing
/// `trace_id`.
fn assert_tree(spans: &[SpanRecord], trace_id: u64, graft: u64) {
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids must be unique");
    for s in spans {
        assert_eq!(s.trace_id, trace_id, "foreign trace id: {s:?}");
        assert_ne!(s.span_id, 0);
        assert!(s.end_ns >= s.start_ns, "inverted interval: {s:?}");
        assert!(
            s.parent_id == graft || ids.contains(&s.parent_id),
            "dangling parent link: {s:?}"
        );
    }
}

/// Count of spans whose name matches `pred`.
fn count(spans: &[SpanRecord], pred: impl Fn(&str) -> bool) -> usize {
    spans.iter().filter(|s| pred(&s.name)).count()
}

#[test]
fn traced_volumetric_job_builds_one_cross_process_span_tree() {
    let bench = hot_stack(7);

    // Ground truth: the direct 3D engine run in this process.
    let mut direct = bench.placement.clone();
    let result = VolumetricDiffusion::new(ftcs(), bench.layers()).run(
        &bench.netlist,
        &bench.die,
        &mut direct,
    );
    assert!(result.steps > 0, "workload must do real work");

    // Fleet: a control plane fronting two real TCP backends, one z-slab
    // each.
    let backend_a = CtlServer::start(CtlConfig::default()).expect("backend a");
    let backend_b = CtlServer::start(CtlConfig::default()).expect("backend b");
    let registry = BackendRegistry::new(
        vec![
            ShardBackend::Tcp(backend_a.local_addr()),
            ShardBackend::Tcp(backend_b.local_addr()),
        ],
        vec![],
    );
    let ctl = CtlServer::start(CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        exec: ExecMode::Volumetric {
            slabs: 2,
            halo_layers: 2,
            registry,
        },
        ..CtlConfig::default()
    })
    .expect("ctl starts");

    // Untraced reference through the same fleet.
    let mut plain_client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let plain = plain_client
        .request(&vol_request(&bench, 1), PayloadEncoding::Binary)
        .expect("untraced request");
    let Reply::Ok(plain) = plain else {
        panic!("untraced volumetric job rejected: {plain:?}");
    };
    assert!(plain.spans.is_empty(), "untraced reply must carry no spans");
    assert_eq!(plain.positions, direct.xy.as_slice().to_vec());
    assert_eq!(plain.vol.as_ref().expect("vol reply").z, direct.z);

    // Traced run: same job, tracing armed with a tenant label.
    let mut client = ServeClient::connect(ctl.local_addr())
        .expect("connect")
        .with_tracing(0xACE5_7ACE)
        .with_tenant("acme");
    let mut req = vol_request(&bench, 2);
    let root_ctx = client.begin_trace(&mut req).expect("tracing armed");
    let traced = client
        .request(&req, PayloadEncoding::Binary)
        .expect("traced request");
    let Reply::Ok(traced) = traced else {
        panic!("traced volumetric job rejected: {traced:?}");
    };

    // Tracing is observation-only: bit-identical to the untraced run.
    assert_eq!(
        traced.positions, plain.positions,
        "tracing must not perturb the placement"
    );
    assert_eq!(
        traced.vol.as_ref().expect("vol reply").z,
        plain.vol.as_ref().expect("vol reply").z,
        "tracing must not perturb the depths"
    );

    let spans = client.take_trace_spans();
    assert!(!spans.is_empty(), "traced reply must yield spans");
    ctl.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();

    // One trace id across every hop: client, ctl, router, backends.
    let trace_ids: HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(
        trace_ids,
        HashSet::from([root_ctx.trace_id]),
        "all spans must share the root's trace id"
    );

    // Span ids are unique and nonzero; every parent link lands on a
    // real span, so the records form one tree.
    let mut ids = HashSet::new();
    for s in &spans {
        assert_ne!(s.span_id, 0, "span id must be nonzero: {s:?}");
        assert!(ids.insert(s.span_id), "duplicate span id: {s:?}");
        assert!(s.end_ns >= s.start_ns, "inverted interval: {s:?}");
    }
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {roots:?}");
    let root = roots[0];
    assert_eq!(root.name, "client.request");
    assert_eq!(root.span_id, root_ctx.span_id);
    for s in &spans {
        if s.parent_id != 0 {
            assert!(ids.contains(&s.parent_id), "dangling parent link: {s:?}");
        }
        assert!(
            s.start_ns >= root.start_ns,
            "span starts before the root: {s:?}"
        );
    }

    // The tree covers every stage of the fleet.
    assert_eq!(
        count(&spans, |n| n == "ctl.admit{tenant=\"acme\"}"),
        1,
        "front-end admission span with the tenant label"
    );
    assert!(
        count(&spans, |n| n == "queue.wait") >= 1,
        "queue-wait span missing"
    );
    assert_eq!(count(&spans, |n| n == "ctl.execute"), 1);
    assert!(
        count(&spans, |n| n == "shard.dispatch") >= 2,
        "both slab dispatches must appear"
    );
    assert!(
        count(&spans, |n| n == "halo.round") >= 1,
        "at least one halo-exchange round"
    );
    assert!(
        count(&spans, |n| n == "job.volumetric") >= 2,
        "both remote backends must contribute job spans"
    );
    assert!(
        count(&spans, |n| n.starts_with("kernel.")) >= 1,
        "per-kernel child spans from the engines"
    );

    // Chrome-trace export: every span becomes one JSONL event, all
    // correlated by the same trace id, with the tenant on the root.
    let mut exporter = TraceExporter::new();
    for s in &spans {
        if s.parent_id == 0 {
            exporter.add_with_args(s, 1, 1, &[("tenant", client.tenant().unwrap())]);
        } else {
            exporter.add(s, 1, 1);
        }
    }
    let jsonl = exporter.to_jsonl();
    assert_eq!(jsonl.lines().count(), spans.len());
    let exported_ids: HashSet<&str> = jsonl
        .match_indices("\"trace_id\":\"")
        .map(|(i, pat)| &jsonl[i + pat.len()..i + pat.len() + 16])
        .collect();
    assert_eq!(
        exported_ids,
        HashSet::from([format!("{:016x}", root_ctx.trace_id).as_str()]),
        "the export must carry exactly one trace id"
    );
    assert!(jsonl.contains("\"tenant\":\"acme\""));
    assert!(jsonl.contains("\"ph\":\"X\""));
}

#[test]
fn traced_planar_job_falls_back_in_process_with_kernel_spans() {
    // A planar job in volumetric exec mode runs on the front-end's own
    // engine; the trace still gets admission, queue, execution, and
    // kernel spans, and the placement matches the untraced run.
    let bench = dpm_gen::CircuitSpec::with_size("trace_e2e_planar", 180, 11).generate();
    let request = |id: u64| JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "trace_e2e_planar".into(),
        config: DiffusionConfig::default(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    };
    let registry = BackendRegistry::new(vec![ShardBackend::InProcess], vec![]);
    let ctl = CtlServer::start(CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        exec: ExecMode::Volumetric {
            slabs: 2,
            halo_layers: 2,
            registry,
        },
        ..CtlConfig::default()
    })
    .expect("ctl starts");

    let mut plain_client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let Reply::Ok(plain) = plain_client
        .request(&request(1), PayloadEncoding::Binary)
        .expect("untraced")
    else {
        panic!("untraced planar job rejected");
    };

    let mut client = ServeClient::connect(ctl.local_addr())
        .expect("connect")
        .with_tracing(42)
        .with_tenant("acme");
    let mut req = request(2);
    client.begin_trace(&mut req).expect("armed");
    let Reply::Ok(traced) = client
        .request(&req, PayloadEncoding::Binary)
        .expect("traced")
    else {
        panic!("traced planar job rejected");
    };
    assert_eq!(traced.positions, plain.positions);

    let spans = client.take_trace_spans();
    ctl.shutdown();
    let by_name: HashMap<&str, usize> = spans.iter().fold(HashMap::new(), |mut m, s| {
        *m.entry(s.name.as_str()).or_default() += 1;
        m
    });
    assert_eq!(by_name.get("client.request"), Some(&1));
    assert_eq!(by_name.get("ctl.admit{tenant=\"acme\"}"), Some(&1));
    assert_eq!(by_name.get("queue.wait"), Some(&1));
    assert_eq!(by_name.get("ctl.execute"), Some(&1));
    assert!(
        spans.iter().any(|s| s.name.starts_with("kernel.")),
        "in-process fallback must still bridge kernel spans: {by_name:?}"
    );
    // No router ran, so no dispatch or halo spans.
    assert_eq!(by_name.get("shard.dispatch"), None);
    assert_eq!(by_name.get("halo.round"), None);
}

#[test]
fn traced_server_job_exports_spans_and_changes_nothing() {
    let bench = hot_bench(160, 51);
    let server = CtlServer::start(CtlConfig::default()).expect("server starts");

    let mut plain_client = ServeClient::connect(server.local_addr()).expect("connect");
    let Reply::Ok(plain) = plain_client
        .request(&planar_request(&bench, 1), PayloadEncoding::Binary)
        .expect("untraced request")
    else {
        panic!("untraced job rejected");
    };
    assert!(plain.spans.is_empty(), "untraced reply must carry no spans");

    let mut client = ServeClient::connect(server.local_addr())
        .expect("connect")
        .with_tracing(0xBEEF);
    let mut req = planar_request(&bench, 2);
    let root_ctx = client.begin_trace(&mut req).expect("tracing armed");
    let Reply::Ok(traced) = client
        .request(&req, PayloadEncoding::Binary)
        .expect("traced request")
    else {
        panic!("traced job rejected");
    };
    assert_eq!(
        traced.positions, plain.positions,
        "tracing must not perturb the placement"
    );

    let spans = client.take_trace_spans();
    assert!(!spans.is_empty());
    assert_tree(&spans, root_ctx.trace_id, 0);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"client.request"), "{names:?}");
    assert!(names.contains(&"queue.wait"), "{names:?}");
    assert!(names.contains(&"job.local"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("kernel.")), "{names:?}");

    // The export *drained* the trace: the server's ring no longer holds
    // any span of it, so a later stats scrape cannot double-report.
    assert!(
        server
            .spans()
            .iter()
            .all(|s| s.trace_id != root_ctx.trace_id),
        "drained spans must leave the server ring"
    );
    server.shutdown();
}

#[test]
fn traced_k2_tcp_shard_route_stitches_remote_spans() {
    let bench = hot_bench(170, 57);
    let server_a = CtlServer::start(CtlConfig::default()).expect("server a");
    let server_b = CtlServer::start(CtlConfig::default()).expect("server b");
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 2,
            ..ShardRouterConfig::default()
        },
        vec![
            ShardBackend::Tcp(server_a.local_addr()),
            ShardBackend::Tcp(server_b.local_addr()),
        ],
    );

    let untraced = router.route(&planar_request(&bench, 4));
    assert!(untraced.outcomes.iter().all(|o| o.error.is_none()));

    let mut traced_req = planar_request(&bench, 4);
    let ctx = TraceContext {
        trace_id: 0xD15_7A7C,
        span_id: 0x40_07,
        parent_id: 0,
    };
    traced_req.trace = Some(ctx);
    let traced = router.route(&traced_req);
    server_a.shutdown();
    server_b.shutdown();

    assert_eq!(
        traced.response.positions, untraced.response.positions,
        "tracing must not perturb a sharded TCP run"
    );

    let spans = &traced.response.spans;
    assert_tree(spans, ctx.trace_id, ctx.span_id);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert!(count("shard.dispatch") >= 2, "one dispatch per shard");
    assert!(count("halo.round") >= 1);
    // The remote engines' own spans came back over the wire and were
    // stitched into the same tree.
    assert!(count("job.local") >= 2, "both backends contribute");
    assert!(count("queue.wait") >= 2);
    assert!(spans.iter().any(|s| s.name.starts_with("kernel.")));
}
