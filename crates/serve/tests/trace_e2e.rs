//! Tracing at the routing layer: traced shard routing stays
//! bit-identical to untraced routing at K = 1 and grafts its span tree
//! under the inherited context. Traced routes over live TCP backends are
//! tested in `dpm-ctl`, which provides the server.

use std::collections::HashSet;

use dpm_diffusion::{DiffusionConfig, LocalDiffusion};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec};
use dpm_obs::{SpanRecord, TraceContext};
use dpm_serve::shard::{ShardRouter, ShardRouterConfig};
use dpm_serve::wire::{JobKind, JobRequest};

fn hot_bench(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("trace_e2e", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xD1E));
    b
}

fn request(bench: &Benchmark, id: u64) -> JobRequest {
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

#[test]
fn traced_k1_shard_route_is_bit_identical_to_untraced() {
    let bench = hot_bench(180, 53);
    let untraced_req = request(&bench, 3);

    let mut direct = bench.placement.clone();
    LocalDiffusion::new(untraced_req.config.clone()).run(&bench.netlist, &bench.die, &mut direct);

    let router = ShardRouter::in_process(ShardRouterConfig {
        shards: 1,
        ..ShardRouterConfig::default()
    });
    let untraced = router.route(&untraced_req);
    assert!(untraced.response.spans.is_empty());

    let mut traced_req = request(&bench, 3);
    let ctx = TraceContext {
        trace_id: 0xCAFE,
        span_id: 0xF00D,
        parent_id: 0,
    };
    traced_req.trace = Some(ctx);
    let traced = router.route(&traced_req);

    assert_eq!(
        traced.response.positions,
        direct.as_slice().to_vec(),
        "traced K=1 route must stay bit-identical to the direct engine"
    );
    assert_eq!(traced.response.positions, untraced.response.positions);
    assert_eq!(traced.response.steps, untraced.response.steps);

    let spans = &traced.response.spans;
    assert!(!spans.is_empty(), "traced route must export spans");
    // The router grafts its subtree under the inherited span id.
    assert_tree(spans, ctx.trace_id, ctx.span_id);
    assert!(spans.iter().any(|s| s.name == "shard.dispatch"));
    assert!(spans.iter().any(|s| s.name == "halo.round"));
    // Normalized for the next hop: earliest start is zero.
    assert_eq!(spans.iter().map(|s| s.start_ns).min(), Some(0));
}
