//! `dpm-ctl` — the migration server: a multi-tenant control plane over
//! `dpm-serve`'s protocol, routers and job runner.
//!
//! A physical-synthesis fleet asks more of a migration service than
//! "run this diffusion": many tenants sharing one service, each
//! replaying an ECO loop against an almost-unchanged design, over
//! thousands of mostly-idle connections, against backends that
//! sometimes die. [`CtlServer`] is the one server for all of it — the
//! client front door, and, single-tenant in
//! [`ExecMode::InProcess`], the shard or slab backend another control
//! plane routes to. It is built from four parts:
//!
//! - [`DesignCache`][]: baselines keyed by FNV-1a
//!   content hash with deterministic byte-budget LRU eviction. A
//!   request naming an uncached baseline gets a typed
//!   [`NeedDesign`](dpm_serve::NeedDesign) frame; after one upload,
//!   every later request ships only an
//!   [`EcoDelta`](dpm_serve::EcoDelta) — bit-identical results to a
//!   full resend at a fraction of the bytes.
//! - [`FairQueue`][]: per-tenant bounded admission with
//!   deficit-round-robin service, so throughput is weight-proportional
//!   and a replay storm from one tenant cannot starve the rest.
//! - [`Readiness`]/[`CtlServer`]:
//!   a poll-based front-end multiplexing thousands of idle
//!   connections on one thread (epoll on Linux, a deterministic
//!   scanner in tests), with incremental frame assembly, in-order
//!   replies per connection, workers that wake it the moment a reply
//!   exists, and a graceful drain on shutdown. Admitted jobs run through
//!   [`dpm_serve::job::run`].
//! - [`BackendRegistry`][]: health-checked
//!   primaries with warm spares; dead backends are replaced between
//!   jobs, and the shard router's intra-job failovers feed back in.
//!
//! Everything is std-only, deterministic where it matters (cache
//! eviction, fair-queue schedule), and speaks `dpm-serve`'s framed TCP
//! protocol, so [`ServeClient`](dpm_serve::ServeClient) is its client.

pub mod cache;
pub mod fair;
pub mod front;
pub mod metrics;
pub mod poll;
pub mod registry;

pub use cache::{CacheStats, CachedDesign, DesignCache, InsertOutcome};
pub use fair::{AdmitError, FairQueue, TenantSpec};
pub use front::{CtlConfig, CtlServer, ExecMode};
pub use metrics::{CtlMetrics, TenantMetrics};
pub use poll::{default_readiness, Readiness, ScanReadiness};
pub use registry::{BackendRegistry, RegistrySnapshot};

#[cfg(target_os = "linux")]
pub use poll::EpollReadiness;
