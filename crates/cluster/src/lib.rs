//! # pdftsp-cluster
//!
//! The slotted-time GPU-cluster simulator the schedulers run against.
//!
//! * [`ledger`] — per-`(k, t)` capacity accounting for the computation
//!   constraint (4f) `Σ_i s_ik x_ikt ≤ C_kp` and the multi-LoRA memory
//!   constraint (4g) `Σ_i r_i x_ikt + r_b ≤ C_km`. Every scheduler owns a
//!   ledger and commits winning schedules to it irrevocably.
//! * [`energy`] — time-varying operational-cost signals (flat, diurnal,
//!   spiky) producing the `e_ikt` surface of the objective.
//! * [`engine`] — an execution engine that replays all committed schedules
//!   slot by slot, tracking task lifecycles (start / suspend / resume /
//!   complete), verifying deadlines and capacities, and accounting energy.
//! * [`metrics`] — utilization and co-location statistics.
//! * [`parallel`] — a persistent, deterministic worker pool behind an
//!   order-preserving parallel map, shared by the scheduler hot path
//!   (vendor evaluation), the experiment sweeps, and the auction
//!   service's phase-1 proposals.
//! * [`shard`] — largest-remainder node apportionment and the contiguous
//!   shard ranges the sharded auction service partitions the cluster
//!   into (each shard owns its own ledger slice and dual grid).

pub mod energy;
pub mod engine;
pub mod lease;
pub mod ledger;
pub mod metrics;
pub mod parallel;
pub mod shard;

pub use energy::{EnergySignal, PriceModel, SLOTS_PER_DAY};
pub use engine::ReplayError;
pub use engine::{ExecutionEngine, ExecutionReport, TaskEvent, TaskEventKind, TaskLifetime};
pub use lease::{LeasePlan, NodeLease};
pub use ledger::{CapacityLedger, LedgerError, Released};
pub use metrics::ClusterMetrics;
pub use parallel::{
    configured_threads, effective_workers, hardware_threads, parallel_map, pool_stats,
    set_thread_override, thread_override, try_parallel_map, PoolPanic, PoolStats,
};
pub use shard::{apportion, ShardError, ShardMap, ShardSpec};
