//! The control-plane server: a readiness-driven front-end feeding a
//! fair queue feeding execution workers.
//!
//! This is the workspace's only server. A multi-tenant [`CtlServer`] is
//! the client front door; a single-tenant one in [`ExecMode::InProcess`]
//! is a shard or slab backend behind another control plane's routers.
//!
//! One front-end thread owns every connection. It multiplexes them
//! through a [`Readiness`] implementation (epoll on Linux, a portable
//! scanner elsewhere and in tests), assembling frames incrementally
//! with [`FrameAssembler`] so a thousand idle connections cost a
//! thousand small buffers, not a thousand blocked threads. Decoded
//! work is checked once ([`job::validate`]) and admitted to the
//! [`FairQueue`] per tenant; cache-protocol frames (`PutDesign`,
//! cache-miss `NeedDesign` answers) and stats are answered inline on the
//! front-end thread, since they never run a diffusion.
//!
//! Worker threads pop jobs in deficit-round-robin order and execute
//! them either in process ([`job::run`]) or across a shard or slab
//! fleet ([`ShardRouter`], [`VolRouter`]) selected per job from the
//! [`BackendRegistry`]. Replies travel back to the front-end through an
//! outbox, and the worker wakes the front-end by writing a byte to a
//! socket pair it polls next to the connections, so a reply leaves as
//! soon as it exists. The front-end writes it on the owning connection.
//!
//! ## Ordering and shutdown
//!
//! A connection has at most one job queued or running. Until its reply
//! is out the front-end stops polling the connection, and later frames
//! wait in the socket and the assembler, so pipelined requests are
//! answered in submission order. [`CtlServer::shutdown`] closes
//! admission (late requests are answered [`ErrorCode::ShuttingDown`]),
//! lets the workers drain every admitted job, and has the front-end
//! flush every reply before it closes the connections.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dpm_diffusion::KernelTimers;
use dpm_obs::{
    labeled, normalize_spans, rebase_spans, SpanRecord, SpanRecorder, TraceContext, TraceIdGen,
};
use dpm_serve::delta::decode_delta_request;
use dpm_serve::job::{self, rejection};
use dpm_serve::wire::{
    decode_design_bytes, decode_put_design, decode_request, encode_design_ack, encode_error,
    encode_need_design, encode_progress, encode_response, encode_stats, fnv1a64, write_frame,
    DesignAck, ErrorCode, ErrorReply, Frame, FrameAssembler, FrameKind, JobRequest, JobResponse,
    NeedDesign, ProgressUpdate, StatsSnapshot, DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::{
    ShardBackend, ShardRouter, ShardRouterConfig, VolRouteError, VolRouter, VolRouterConfig,
};

use crate::cache::{CacheStats, CachedDesign, DesignCache};
use crate::fair::{AdmitError, FairQueue, TenantSpec};
use crate::metrics::CtlMetrics;
use crate::poll::{default_readiness, Readiness};
use crate::registry::{BackendRegistry, RegistrySnapshot};

/// How admitted jobs are executed.
pub enum ExecMode {
    /// Run the diffusion on the worker thread itself.
    InProcess,
    /// Fan each job out across a shard fleet, selecting backends from
    /// a health-checked registry per job. The planar shard router cannot
    /// carry a tier axis, so volumetric requests are rejected at
    /// admission.
    Sharded {
        /// Requested shard count K.
        shards: usize,
        /// Halo width in bins.
        halo_bins: usize,
        /// Upper bound on halo-exchange rounds.
        max_halo_rounds: usize,
        /// Primaries and warm spares.
        registry: BackendRegistry,
    },
    /// Fan each volumetric job out across z-slab backends through a
    /// [`VolRouter`], selecting backends from a health-checked registry
    /// per job. Planar jobs (no volumetric extension) fall back to
    /// running on the worker thread.
    Volumetric {
        /// Requested slab count K.
        slabs: usize,
        /// Ghost tiers shipped on each side of a slab's owned range.
        halo_layers: usize,
        /// Primaries (the z-slab router has no degraded mode, so warm
        /// spares are ignored).
        registry: BackendRegistry,
    },
}

/// Control-plane configuration.
pub struct CtlConfig {
    /// Execution worker threads.
    pub workers: usize,
    /// Largest request frame accepted, bytes.
    pub max_frame_len: usize,
    /// Design-cache byte budget.
    pub cache_bytes: usize,
    /// Deadline applied to requests that carry `deadline_ms: 0`.
    /// `0` means no deadline.
    pub default_deadline_ms: u32,
    /// Admission contracts, one per tenant. Full `Request` frames carry
    /// no tenant and are billed to the first tenant.
    pub tenants: Vec<TenantSpec>,
    /// How jobs execute.
    pub exec: ExecMode,
}

impl Default for CtlConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            cache_bytes: 64 << 20,
            default_deadline_ms: 0,
            tenants: vec![TenantSpec::new("default", 1, 256)],
            exec: ExecMode::InProcess,
        }
    }
}

/// One admitted job: where it came from, how to answer, what to run.
struct Job {
    conn: u64,
    arrived: Instant,
    deadline: Option<Instant>,
    req: JobRequest,
}

/// An [`ExecMode`] as the workers use it: the router configuration and
/// the shared registry it selects backends from.
enum Exec {
    InProcess,
    Sharded(ShardRouterConfig, Mutex<BackendRegistry>),
    Volumetric(VolRouterConfig, Mutex<BackendRegistry>),
}

/// How many recent spans the control plane's shared recorder retains.
const CTL_SPAN_CAPACITY: usize = 512;

/// Per-site salts for deterministic span-id minting. Each traced hop
/// seeds its own generator from the inherited span id; distinct salts
/// keep the front-end's admission/cache spans, the worker's job spans,
/// the planar fallback's runner span and downstream hops on disjoint id
/// streams.
const CTL_ADMIT_SALT: u64 = 0xC7_1A_D0_17_AD_31_75_01;
const CTL_CACHE_SALT: u64 = 0xC7_1C_AC_8E_5E_ED_02_02;
const CTL_JOB_SALT: u64 = 0xC7_1E_4E_C5_EE_D0_03_03;
const CTL_EXEC_SALT: u64 = 0xC7_1E_8E_C0_0F_A1_04_04;

/// A frame for one connection, produced off the front-end thread.
struct Outgoing {
    conn: u64,
    bytes: Vec<u8>,
    /// The terminal reply of the connection's admitted job.
    last: bool,
}

struct Shared {
    queue: FairQueue<Job>,
    cache: Mutex<DesignCache>,
    /// Frames produced by workers, taken by the front-end after it
    /// drains the waker.
    outbox: Mutex<Vec<Outgoing>>,
    /// Write end of the front-end's wake-up socket pair.
    waker: UnixStream,
    metrics: CtlMetrics,
    /// Shared span ring: the front-end records admission and cache
    /// spans into it, workers record queue-wait and execution spans, and
    /// the worker drains a trace's spans into the response when its job
    /// completes.
    spans: SpanRecorder,
    exec: Exec,
    stop: AtomicBool,
    default_deadline_ms: u32,
}

impl Shared {
    fn send(&self, conn: u64, kind: FrameKind, payload: &[u8], last: bool) {
        let mut bytes = Vec::with_capacity(11 + payload.len());
        write_frame(&mut bytes, kind, payload).expect("writing to a Vec cannot fail");
        let mut outbox = self.outbox.lock().unwrap();
        let was_empty = outbox.is_empty();
        outbox.push(Outgoing { conn, bytes, last });
        drop(outbox);
        // The front-end drains the waker before it takes the outbox, so
        // one byte per push into an empty outbox cannot lose a wake-up.
        if was_empty {
            self.wake();
        }
    }

    /// Wakes the front-end. A full socket buffer means a wake-up is
    /// already pending, so a failed write is fine.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }

    fn stats(&self) -> StatsSnapshot {
        self.metrics.stats_snapshot(self.queue.len() as u64)
    }

    /// Drops a trace's recorded spans when no reply will export them.
    fn discard_trace(&self, trace: Option<TraceContext>) {
        if let Some(ctx) = trace {
            drop(self.spans.drain_trace(ctx.trace_id));
        }
    }
}

/// A running control plane. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops admission, drains the queue,
/// flushes every reply and joins every thread.
pub struct CtlServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    front: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl CtlServer {
    /// Starts a control plane on an ephemeral localhost port with the
    /// platform's best [`Readiness`].
    ///
    /// # Errors
    ///
    /// Returns bind or readiness-setup errors.
    pub fn start(cfg: CtlConfig) -> io::Result<Self> {
        Self::start_with(cfg, default_readiness()?)
    }

    /// Starts a control plane with an explicit readiness source — how
    /// tests drive the event loop with the deterministic scanner.
    ///
    /// # Errors
    ///
    /// Returns bind or socket-pair errors.
    pub fn start_with(cfg: CtlConfig, readiness: Box<dyn Readiness>) -> io::Result<Self> {
        assert!(!cfg.tenants.is_empty(), "at least one tenant required");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.name.clone()).collect();
        let exec = match cfg.exec {
            ExecMode::InProcess => Exec::InProcess,
            ExecMode::Sharded {
                shards,
                halo_bins,
                max_halo_rounds,
                registry,
            } => Exec::Sharded(
                ShardRouterConfig {
                    shards,
                    halo_bins,
                    max_halo_rounds,
                },
                Mutex::new(registry),
            ),
            ExecMode::Volumetric {
                slabs,
                halo_layers,
                registry,
            } => Exec::Volumetric(VolRouterConfig { slabs, halo_layers }, Mutex::new(registry)),
        };
        let metrics = CtlMetrics::new(&tenant_names);
        let spans = SpanRecorder::with_registry(CTL_SPAN_CAPACITY, metrics.registry());
        let shared = Arc::new(Shared {
            queue: FairQueue::new(&cfg.tenants),
            cache: Mutex::new(DesignCache::new(cfg.cache_bytes)),
            outbox: Mutex::new(Vec::new()),
            waker,
            metrics,
            spans,
            exec,
            stop: AtomicBool::new(false),
            default_deadline_ms: cfg.default_deadline_ms,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ctl-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn ctl worker")
            })
            .collect();
        let front = {
            let s = Arc::clone(&shared);
            let max_frame_len = cfg.max_frame_len;
            thread::Builder::new()
                .name("ctl-front".into())
                .spawn(move || front_loop(&s, &listener, &wake_rx, readiness, max_frame_len))
                .expect("spawn ctl front-end")
        };
        Ok(Self {
            addr,
            shared,
            front: Some(front),
            workers,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The control plane's instruments.
    pub fn metrics(&self) -> &CtlMetrics {
        &self.shared.metrics
    }

    /// The snapshot a `StatsRequest` frame is answered with.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// The most recent spans still in the recorder (bounded ring;
    /// newest last). A traced job's spans leave it with the reply that
    /// exports them.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.shared.spans.records()
    }

    /// Design-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.lock().unwrap().stats()
    }

    /// Backend-registry state, when running sharded or volumetric.
    pub fn registry_snapshot(&self) -> Option<RegistrySnapshot> {
        match &self.shared.exec {
            Exec::Sharded(_, registry) | Exec::Volumetric(_, registry) => {
                Some(registry.lock().unwrap().snapshot())
            }
            Exec::InProcess => None,
        }
    }

    /// Stops admission, runs every admitted job to its reply, flushes
    /// the replies and joins all threads. Returns the final stats.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Every reply is in the outbox now; the front-end delivers them
        // before it exits.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(h) = self.front.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CtlServer {
    fn drop(&mut self) {
        if self.front.is_some() {
            self.shutdown_impl();
        }
    }
}

// ---------------------------------------------------------------------------
// Front-end event loop.
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    out: Vec<u8>,
    out_pos: usize,
    /// A job from this connection is queued or running; later frames
    /// wait until its reply is out.
    busy: bool,
    /// Registered with the readiness source (exactly when not busy).
    polled: bool,
    /// Close once the outbound buffer drains (post-error courtesy).
    closing: bool,
    /// Close now (EOF or I/O error).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            asm: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            polled: false,
            closing: false,
            dead: false,
        }
    }

    fn push_frame(&mut self, kind: FrameKind, payload: &[u8]) {
        write_frame(&mut self.out, kind, payload).expect("writing to a Vec cannot fail");
    }

    fn push_error(&mut self, err: &ErrorReply) {
        self.push_frame(FrameKind::Error, &encode_error(err));
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn flush(&mut self) {
        while self.has_output() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if !self.has_output() && self.out_pos > 0 {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Shutdown's last chance to deliver buffered replies: a blocking
    /// write, bounded so one stalled reader cannot hold up the rest.
    fn finish(&mut self) {
        if !self.has_output() || self.dead {
            return;
        }
        if self.stream.set_nonblocking(false).is_ok()
            && self
                .stream
                .set_write_timeout(Some(FINAL_FLUSH_TIMEOUT))
                .is_ok()
        {
            let _ = self.stream.write_all(&self.out[self.out_pos..]);
        }
    }

    fn done(&self) -> bool {
        self.dead || (self.closing && !self.has_output())
    }
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;

/// How long shutdown waits on one connection to take its last replies.
const FINAL_FLUSH_TIMEOUT: Duration = Duration::from_secs(1);

fn front_loop(
    shared: &Shared,
    listener: &TcpListener,
    wake_rx: &UnixStream,
    mut readiness: Box<dyn Readiness>,
    max_frame_len: usize,
) {
    let _ = readiness.register(LISTENER_TOKEN, listener.as_raw_fd());
    let _ = readiness.register(WAKER_TOKEN, wake_rx.as_raw_fd());
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = WAKER_TOKEN + 1;
    let mut ready: Vec<u64> = Vec::new();
    loop {
        // Sleep until a socket or a worker has something. Readiness
        // reports readability only, so while a reply is stuck behind a
        // full socket buffer the loop retries it on a short tick.
        let timeout = if conns.values().any(Conn::has_output) {
            1
        } else {
            -1
        };
        if readiness.wait(timeout, &mut ready).is_err() {
            ready.clear();
        }
        if ready.contains(&WAKER_TOKEN) {
            let mut buf = [0u8; 64];
            while matches!((&*wake_rx).read(&mut buf), Ok(n) if n > 0) {}
        }
        // Read before taking the outbox: shutdown joins the workers
        // before it sets the flag, so the outbox then holds every reply.
        let stopping = shared.stop.load(Ordering::SeqCst);
        // Accept every pending connection. Checked unconditionally —
        // cheap when nothing is pending, and readiness back-ends that
        // coalesce events then cannot strand a connection.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_ok() {
                        conns.insert(next_token, Conn::new(stream));
                        next_token += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        for &token in &ready {
            if let Some(conn) = conns.get_mut(&token).filter(|c| c.polled) {
                service_conn(shared, token, conn, max_frame_len);
            }
        }
        // Hand worker output to the owning connections; a terminal
        // reply frees the connection's next frame.
        let produced = std::mem::take(&mut *shared.outbox.lock().unwrap());
        for Outgoing { conn, bytes, last } in produced {
            if let Some(c) = conns.get_mut(&conn) {
                c.out.extend_from_slice(&bytes);
                if last {
                    c.busy = false;
                    dispatch_frames(shared, conn, c, max_frame_len);
                }
            }
        }
        conns.retain(|&token, conn| {
            conn.flush();
            let keep = !conn.done();
            let poll = keep && !conn.busy;
            if poll != conn.polled {
                let fd = conn.stream.as_raw_fd();
                let _ = if poll {
                    readiness.register(token, fd)
                } else {
                    readiness.deregister(token, fd)
                };
                conn.polled = poll;
            }
            keep
        });
        if stopping {
            for conn in conns.values_mut() {
                conn.finish();
            }
            return;
        }
    }
}

/// Reads everything currently available on one connection and
/// dispatches its complete frames.
fn service_conn(shared: &Shared, token: u64, conn: &mut Conn, max_frame_len: usize) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.asm.push(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    dispatch_frames(shared, token, conn, max_frame_len);
}

/// Dispatches buffered frames in order until one admits a job (the rest
/// wait for its reply) or none are complete.
fn dispatch_frames(shared: &Shared, token: u64, conn: &mut Conn, max_frame_len: usize) {
    while !conn.busy && !conn.closing {
        match conn.asm.next_frame(max_frame_len) {
            Ok(Some(frame)) => dispatch_frame(shared, token, conn, &frame),
            Ok(None) => break,
            Err(e) => {
                // The stream cannot be re-synchronized after a framing
                // error: answer once, then close.
                malformed(shared, conn, 0, e.to_string());
                conn.closing = true;
            }
        }
    }
}

fn dispatch_frame(shared: &Shared, token: u64, conn: &mut Conn, frame: &Frame) {
    match frame.kind {
        FrameKind::StatsRequest => {
            conn.push_frame(FrameKind::Stats, &encode_stats(&shared.stats()))
        }
        FrameKind::Request => match decode_request(&frame.payload) {
            Ok(req) => {
                shared.metrics.received.inc();
                // Full requests carry no tenant; they are billed to the
                // first configured tenant.
                admit(shared, token, conn, 0, req);
            }
            Err(e) => malformed(shared, conn, 0, e.to_string()),
        },
        FrameKind::PutDesign => match decode_put_design(&frame.payload) {
            Ok(put) => handle_put_design(shared, conn, &put.tenant, put.id, &put.bytes),
            Err(e) => malformed(shared, conn, 0, e.to_string()),
        },
        FrameKind::DeltaRequest => match decode_delta_request(&frame.payload) {
            Ok(dreq) => {
                shared.metrics.received.inc();
                handle_delta(shared, token, conn, dreq);
            }
            Err(e) => malformed(shared, conn, 0, e.to_string()),
        },
        _ => malformed(
            shared,
            conn,
            0,
            format!("{:?} is not a request frame", frame.kind),
        ),
    }
}

fn malformed(shared: &Shared, conn: &mut Conn, id: u64, message: String) {
    shared.metrics.malformed.inc();
    conn.push_error(&rejection(id, ErrorCode::Malformed, message));
}

fn handle_put_design(shared: &Shared, conn: &mut Conn, tenant: &str, id: u64, bytes: &[u8]) {
    if shared.queue.tenant_index(tenant).is_none() {
        malformed(shared, conn, id, format!("unknown tenant {tenant:?}"));
        return;
    }
    let hash = fnv1a64(bytes);
    let (netlist, die, placement) = match decode_design_bytes(bytes) {
        Ok(parts) => parts,
        Err(e) => {
            malformed(shared, conn, id, e.to_string());
            return;
        }
    };
    let design = Arc::new(CachedDesign {
        netlist,
        die,
        placement,
    });
    let mut cache = shared.cache.lock().unwrap();
    let outcome = cache.insert(hash, bytes.len(), design);
    let resident_bytes = cache.stats().resident_bytes;
    drop(cache);
    shared.metrics.put_designs.inc();
    shared
        .metrics
        .cache_evictions
        .add(u64::from(outcome.evicted));
    conn.push_frame(
        FrameKind::DesignAck,
        &encode_design_ack(&DesignAck {
            id,
            hash,
            cached: outcome.cached,
            resident_bytes,
            evicted: outcome.evicted,
        }),
    );
}

fn handle_delta(shared: &Shared, token: u64, conn: &mut Conn, dreq: dpm_serve::DeltaJobRequest) {
    shared.metrics.delta_requests.inc();
    let Some(tenant_idx) = shared.queue.tenant_index(&dreq.tenant) else {
        malformed(
            shared,
            conn,
            dreq.id,
            format!("unknown tenant {:?}", dreq.tenant),
        );
        return;
    };
    let lookup_start = dreq.trace.map(|_| shared.spans.now_ns());
    let baseline = shared.cache.lock().unwrap().get(dreq.baseline);
    // One span per design-cache decision, named for its outcome: a
    // `cache.miss` subtree ends at the NeedDesign round trip it causes.
    if let (Some(ctx), Some(start)) = (dreq.trace, lookup_start) {
        // The outcome folds into the seed: a miss and the hit after the
        // client's re-send inherit the same context, and must not mint
        // the same span id.
        let seed = ctx.span_id ^ CTL_CACHE_SALT ^ u64::from(baseline.is_some());
        let cache_ctx = TraceIdGen::seeded(seed).child_of(&ctx);
        let name = if baseline.is_some() {
            "cache.hit"
        } else {
            "cache.miss"
        };
        shared
            .spans
            .record_traced(name, start, shared.spans.now_ns(), cache_ctx);
    }
    let Some(design) = baseline else {
        shared.metrics.need_design.inc();
        conn.push_frame(
            FrameKind::NeedDesign,
            &encode_need_design(&NeedDesign {
                id: dreq.id,
                hash: dreq.baseline,
            }),
        );
        return;
    };
    shared.metrics.cache_hits.inc();
    match dreq.to_job_request(&design.netlist, &design.die, &design.placement) {
        Ok(req) => admit(shared, token, conn, tenant_idx, req),
        Err(e) => {
            shared.discard_trace(dreq.trace);
            malformed(shared, conn, dreq.id, e.to_string());
        }
    }
}

/// Checks a job once, before it can take a queue slot.
fn admission_check(shared: &Shared, req: &JobRequest) -> Result<(), ErrorReply> {
    job::validate(req)?;
    if req.vol.is_some() && matches!(shared.exec, Exec::Sharded(..)) {
        return Err(rejection(
            req.id,
            ErrorCode::InvalidConfig,
            "sharded execution runs planar jobs only",
        ));
    }
    Ok(())
}

fn admit(shared: &Shared, token: u64, conn: &mut Conn, tenant_idx: usize, req: JobRequest) {
    let id = req.id;
    let trace = req.trace;
    if let Err(err) = admission_check(shared, &req) {
        shared.metrics.invalid_config.inc();
        shared.discard_trace(trace);
        conn.push_error(&err);
        return;
    }
    let admit_start = trace.map(|_| shared.spans.now_ns());
    let deadline_ms = if req.deadline_ms == 0 {
        shared.default_deadline_ms
    } else {
        req.deadline_ms
    };
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    let job = Job {
        conn: token,
        arrived: Instant::now(),
        deadline,
        req,
    };
    // The admission span carries the tenant label — the root of the
    // tree this control plane grafts onto the client's trace context.
    // Recorded *before* the push: the moment the job is queued a worker
    // may pop, finish, and drain the trace, and a span recorded after
    // that drain would be orphaned.
    if let (Some(ctx), Some(start)) = (trace, admit_start) {
        let admit_ctx = TraceIdGen::seeded(ctx.span_id ^ CTL_ADMIT_SALT).child_of(&ctx);
        let tenant = shared.queue.tenant_name(tenant_idx);
        shared.spans.record_traced(
            &labeled("ctl.admit", &[("tenant", tenant)]),
            start,
            shared.spans.now_ns(),
            admit_ctx,
        );
    }
    let outcome = shared
        .queue
        .try_push(shared.queue.tenant_name(tenant_idx), job);
    if outcome.is_err() {
        // The job never ran, so nothing will drain this trace.
        shared.discard_trace(trace);
    }
    match outcome {
        Ok(()) => {
            shared.metrics.admitted.inc();
            conn.busy = true;
        }
        Err(AdmitError::QueueFull) => {
            shared.metrics.overloaded.inc();
            conn.push_error(&rejection(id, ErrorCode::Overloaded, "tenant queue full"));
        }
        Err(AdmitError::UnknownTenant) => malformed(shared, conn, id, "unknown tenant".into()),
        Err(AdmitError::Closed) => {
            shared.metrics.rejected_shutdown.inc();
            conn.push_error(&rejection(
                id,
                ErrorCode::ShuttingDown,
                "control plane is shutting down",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some((tenant_idx, job)) = shared.queue.pop_wait() {
        let queue_wait = job.arrived.elapsed();
        shared.metrics.queue_hist.record_duration(queue_wait);
        let Job {
            conn,
            arrived,
            deadline,
            mut req,
        } = job;
        // Traced requests get a retroactive queue-wait span and an
        // execution context; downstream hops (routers, the runner's
        // kernel bridge) inherit the execution context so their spans
        // nest under it, not directly under the root.
        let root = req.trace;
        req.trace = root.map(|ctx| {
            let mut ids = TraceIdGen::seeded(ctx.span_id ^ CTL_JOB_SALT);
            let now = shared.spans.now_ns();
            shared.spans.record_traced(
                "queue.wait",
                now.saturating_sub(queue_wait.as_nanos() as u64),
                now,
                ids.child_of(&ctx),
            );
            ids.child_of(&ctx)
        });
        let outcome = execute(shared, conn, deadline, &mut req);
        let e2e = arrived.elapsed();
        shared.metrics.e2e_hist.record_duration(e2e);
        shared.metrics.tenant(tenant_idx).e2e.record_duration(e2e);
        match outcome {
            Ok((mut resp, kernels)) => {
                resp.queue_ns = queue_wait.as_nanos() as u64;
                // Stitch the trace: the control plane's own spans
                // (admission, cache, queue wait, execution, the runner's
                // job and kernel spans) plus the tree a router already
                // put in `resp.spans`, normalized for the client to
                // re-base.
                if let Some(ctx) = root {
                    let mut spans = shared.spans.drain_trace(ctx.trace_id);
                    spans.append(&mut resp.spans);
                    normalize_spans(&mut spans);
                    resp.spans = spans;
                }
                shared.metrics.served.inc();
                shared.metrics.service_hist.record(resp.service_ns);
                shared.metrics.kernels.lock().unwrap().merge(&kernels);
                shared.metrics.tenant(tenant_idx).jobs_ok.inc();
                let payload = encode_response(&resp);
                shared.send(conn, FrameKind::Response, &payload, true);
            }
            Err(err) => {
                // Error replies carry no span export.
                shared.discard_trace(root);
                match err.code {
                    ErrorCode::DeadlineExpired => shared.metrics.deadline_expired.inc(),
                    ErrorCode::Internal => shared.metrics.internal_errors.inc(),
                    _ => {}
                }
                shared.metrics.tenant(tenant_idx).jobs_err.inc();
                shared.send(conn, FrameKind::Error, &encode_error(&err), true);
            }
        }
    }
}

/// Runs one admitted job in the configured mode, returning the response
/// and the kernel timings of any run the job runner made in this
/// process (routed jobs are accounted by their backends). In process,
/// the runner's `job.*` span is the execution span; routed modes wrap
/// the execution in a `ctl.execute` span instead.
fn execute(
    shared: &Shared,
    conn: u64,
    deadline: Option<Instant>,
    req: &mut JobRequest,
) -> Result<(JobResponse, KernelTimers), ErrorReply> {
    let mut progress = |p: ProgressUpdate| {
        shared.metrics.progress_frames.inc();
        shared.send(conn, FrameKind::Progress, &encode_progress(&p), false);
    };
    let exec_ctx = req.trace;
    let exec_start = shared.spans.now_ns();
    let outcome = match &shared.exec {
        Exec::InProcess => return job::run(req, deadline, &shared.spans, &mut progress),
        Exec::Sharded(cfg, registry) => run_sharded(shared, registry, cfg, req),
        Exec::Volumetric(cfg, registry) if req.vol.is_some() => {
            run_volumetric(shared, registry, cfg, req)
        }
        Exec::Volumetric(..) => {
            // The planar fallback's runner span nests under `ctl.execute`.
            req.trace =
                exec_ctx.map(|ctx| TraceIdGen::seeded(ctx.span_id ^ CTL_EXEC_SALT).child_of(&ctx));
            job::run(req, deadline, &shared.spans, &mut progress)
        }
    };
    let Some(ctx) = exec_ctx else {
        return outcome;
    };
    shared
        .spans
        .record_traced("ctl.execute", exec_start, shared.spans.now_ns(), ctx);
    outcome.map(|(mut resp, kernels)| {
        // A router normalizes its span tree to start at zero; re-base it
        // onto this front-end's clock so it interleaves correctly with
        // the admission and queue spans drained in the worker.
        rebase_spans(&mut resp.spans, exec_start);
        (resp, kernels)
    })
}

/// The registry's backend selection for one job, counting any primary
/// replacement it made.
fn select_backends(
    shared: &Shared,
    registry: &Mutex<BackendRegistry>,
) -> (Vec<ShardBackend>, Vec<ShardBackend>) {
    let mut reg = registry.lock().unwrap();
    let before = reg.snapshot().replacements;
    let selected = reg.select();
    shared
        .metrics
        .replacements
        .add(reg.snapshot().replacements - before);
    selected
}

fn run_sharded(
    shared: &Shared,
    registry: &Mutex<BackendRegistry>,
    cfg: &ShardRouterConfig,
    req: &JobRequest,
) -> Result<(JobResponse, KernelTimers), ErrorReply> {
    let (primaries, spares) = select_backends(shared, registry);
    let router = ShardRouter::with_spares(cfg.clone(), primaries, spares);
    let t0 = Instant::now();
    let reply = router.route(req);
    let service_ns = t0.elapsed().as_nanos() as u64;
    if !reply.failovers.is_empty() {
        shared.metrics.failovers.add(reply.failovers.len() as u64);
        let mut reg = registry.lock().unwrap();
        for f in &reply.failovers {
            reg.report_failure(f.from);
        }
    }
    if let Some(out) = reply.outcomes.iter().find(|o| o.error.is_some()) {
        return Err(ErrorReply {
            id: req.id,
            code: ErrorCode::Internal,
            steps: reply.response.steps,
            rounds: reply.response.rounds,
            message: format!(
                "shard {} failed with no spare left: {}",
                out.shard,
                out.error.as_deref().unwrap_or("unknown")
            ),
        });
    }
    let mut resp = reply.response;
    resp.id = req.id;
    resp.service_ns = service_ns;
    Ok((resp, KernelTimers::default()))
}

fn run_volumetric(
    shared: &Shared,
    registry: &Mutex<BackendRegistry>,
    cfg: &VolRouterConfig,
    req: &JobRequest,
) -> Result<(JobResponse, KernelTimers), ErrorReply> {
    let (primaries, _spares) = select_backends(shared, registry);
    let router = VolRouter::new(cfg.clone(), primaries.clone());
    let t0 = Instant::now();
    let reply = router.route(req);
    let service_ns = t0.elapsed().as_nanos() as u64;
    let reply = match reply {
        Ok(reply) => reply,
        Err(err) => {
            // Exact volumetric stitching cannot degrade: a failed slab
            // fails the job. Shape errors are the client's fault; a
            // dead backend is ours.
            let code = match &err {
                VolRouteError::Backend { .. } => ErrorCode::Internal,
                VolRouteError::NotVolumetric
                | VolRouteError::NotGlobal
                | VolRouteError::SpectralUnsupported => ErrorCode::InvalidConfig,
                VolRouteError::BadExtension(_) => ErrorCode::Malformed,
            };
            if let VolRouteError::Backend { slab, .. } = &err {
                // Slab `i` ran on backend `i % primaries.len()`.
                shared.metrics.failovers.inc();
                let backend = primaries[slab % primaries.len()];
                registry.lock().unwrap().report_failure(backend);
            }
            return Err(rejection(req.id, code, err.to_string()));
        }
    };
    let mut resp = reply.response;
    resp.id = req.id;
    resp.service_ns = service_ns;
    Ok((resp, KernelTimers::default()))
}
