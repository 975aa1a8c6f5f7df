//! The sharded auction service: concurrent admission over a partitioned
//! data center, deterministic for any worker count.
//!
//! [`crate::zones`] splits the cluster between *base models* (fully
//! independent markets). This module splits it for *throughput*: the
//! nodes are partitioned into [`ShardMap`] ranges, each shard owning its
//! own `λ/φ` dual grid and capacity-ledger slice via a private
//! [`Pdftsp`] instance. An admission front-end batches arrivals per
//! *epoch* (a fixed span of scenario slots), routes each task to one
//! shard by a deterministic hash weighted by shard size, and resolves
//! cross-shard contention with an **epoch-ordered two-phase commit**
//! against the data-center's fixed-point ledger:
//!
//! * **Phase 1 (propose, parallel).** Every shard — on the persistent
//!   worker pool, so any worker count — sequentially processes its
//!   fault events and routed arrivals for the epoch's slots through its
//!   own scheduler, provisionally committing to its shard-local ledger
//!   and recording every mutation as a `LedgerOp`.
//! * **Phase 2 (commit, sequential).** The coordinator replays the op
//!   logs in shard-id order against the global [`CapacityLedger`], node
//!   ids remapped from shard-local to global. Shards own disjoint node
//!   ranges, so validation can never fail — the service checks anyway
//!   and verifies at settlement that the global ledger mirrors every
//!   shard ledger cell-for-cell.
//!
//! **Determinism argument.** Routing is a pure function of `(task id,
//! route seed, shard sizes)`; each shard's phase-1 work is a sequential
//! loop over state only that shard owns; [`try_parallel_map`] merges
//! results by item index; and phase 2 applies ops in fixed shard order. No step
//! observes wall-clock time, scheduling order, or worker count, so a
//! 16-worker run replays the single-thread schedule — welfare bits,
//! ledger digest, payments — bit-for-bit. The only nondeterministic
//! outputs are latency *measurements* (`decide_seconds`, admission
//! histograms), which never feed back into decisions.
//!
//! Fault tolerance rides through unchanged: each shard drives the same
//! per-slot loop as the single-process
//! [`run_pdftsp_with_faults`](crate::faults::run_pdftsp_with_faults),
//! over its own [`FaultPlan`] events (mapped to shard-local node ids) —
//! recoveries, degradations, then crashes, before same-slot arrivals —
//! with the same release / quarantine / resubmit / refund machinery.

use crate::faults::{
    settle, AbortedTask, FaultEvent, FaultLoop, FaultPlan, FaultPlanError, FaultWelfare, LedgerOp,
    RunDigest, TaskState,
};
use pdftsp_cluster::{
    effective_workers, pool_stats, try_parallel_map, CapacityLedger, LedgerError, PoolStats,
    ShardError, ShardMap,
};
use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_telemetry::{FlightRecorder, LatencyHistogram, Sink, Span, SpanLog, TeeSink, Telemetry};
use pdftsp_types::{CostGrid, Decision, NodeId, Scenario, Schedule, Slot, TaskId};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shards to partition the cluster into (each needs at
    /// least one node).
    pub shards: usize,
    /// Scenario slots batched into one admission epoch (≥ 1).
    pub epoch_slots: usize,
    /// Scheduler configuration used by every shard.
    pub scheduler: PdftspConfig,
    /// Seed of the deterministic task-routing hash.
    pub route_seed: u64,
    /// Open-loop arrival rate in tasks per wall-clock second. When set,
    /// task `i` "arrives" at wall time `i / rate` after service start;
    /// an epoch is not proposed until its whole batch has arrived, and
    /// admission latency is measured from each task's arrival instant
    /// to its phase-2 commit. When `None` the service runs flat out and
    /// admission latency is measured from epoch entry (pure batch
    /// processing time).
    pub open_loop_rate: Option<f64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            epoch_slots: 4,
            scheduler: PdftspConfig::default(),
            route_seed: 0x0005_EED0_F5EA_C0DE,
            open_loop_rate: None,
        }
    }
}

/// Observability knobs for a service run. The default is everything
/// off — identical cost and behavior to the pre-observability service
/// ([`Telemetry::disabled`] on every shard).
#[derive(Debug, Clone, Default)]
pub struct Observability {
    /// Collect task-lifecycle spans (route/propose/commit/settle and
    /// fault_recover) into [`ServiceOutcome::spans`].
    pub spans: bool,
    /// Flight-recorder ring capacity per shard; 0 disables the recorder.
    pub flight_capacity: usize,
    /// Directory crash dumps are written to (`flightrec-shard<k>.jsonl`).
    /// `None` keeps the ring in memory only.
    pub flight_dir: Option<PathBuf>,
}

impl Observability {
    /// Spans only — what `--trace-out` and trace tests need.
    #[must_use]
    pub fn with_spans() -> Observability {
        Observability {
            spans: true,
            ..Observability::default()
        }
    }

    /// Whether any sink must be attached to shard telemetry.
    #[must_use]
    fn any_enabled(&self) -> bool {
        self.spans || self.flight_capacity > 0
    }
}

/// Errors from service construction or the commit protocol.
#[derive(Debug)]
pub enum ServiceError {
    /// The cluster could not be partitioned into the requested shards.
    Shard(ShardError),
    /// `epoch_slots` was zero.
    ZeroEpoch,
    /// The fault plan does not fit the scenario.
    FaultPlan(FaultPlanError),
    /// A phase-2 commit failed validation against the global ledger —
    /// impossible while shards own disjoint node ranges; a report means
    /// the two-phase protocol itself is broken.
    Commit {
        /// Task whose op failed.
        task: TaskId,
        /// The ledger's refusal.
        error: LedgerError,
    },
    /// At settlement a global-ledger cell disagreed with the owning
    /// shard's ledger.
    Mirror {
        /// Owning shard.
        shard: usize,
        /// Global node id.
        node: NodeId,
        /// Slot.
        slot: Slot,
    },
    /// The settled decision set failed execution-engine replay.
    Replay(String),
    /// [`AuctionService::run_epoch`] was called after every epoch was
    /// already committed ([`AuctionService::is_done`]).
    AlreadyDone,
    /// A shard's phase-1 worker panicked. The panic is contained on the
    /// pool (the process and the other shards survive), but the
    /// panicking shard's state is poisoned: every later epoch returns
    /// this error again, so the run cannot silently continue on a
    /// half-proposed schedule.
    WorkerPanicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Shard(e) => write!(f, "shard partition: {e}"),
            ServiceError::ZeroEpoch => write!(f, "epoch_slots must be ≥ 1"),
            ServiceError::FaultPlan(e) => write!(f, "{e}"),
            ServiceError::Commit { task, error } => {
                write!(f, "phase-2 commit conflict on task {task}: {error}")
            }
            ServiceError::Mirror { shard, node, slot } => write!(
                f,
                "global ledger diverged from shard {shard} at node {node}, slot {slot}"
            ),
            ServiceError::Replay(e) => write!(f, "settled decisions failed replay: {e}"),
            ServiceError::AlreadyDone => write!(f, "all epochs already committed"),
            ServiceError::WorkerPanicked(e) => write!(f, "shard worker panicked: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ShardError> for ServiceError {
    fn from(e: ShardError) -> Self {
        ServiceError::Shard(e)
    }
}

impl From<FaultPlanError> for ServiceError {
    fn from(e: FaultPlanError) -> Self {
        ServiceError::FaultPlan(e)
    }
}

/// Telemetry snapshot of one shard after the run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// First global node id owned.
    pub node_base: NodeId,
    /// Nodes owned.
    pub num_nodes: usize,
    /// Tasks routed to this shard.
    pub routed: usize,
    /// `decide()` calls (arrivals; excludes recovery resubmissions).
    pub decisions: u64,
    /// Admissions (including re-admitted remnants).
    pub admitted: u64,
    /// Rejections across all three reject reasons.
    pub rejected: u64,
    /// Crash disruptions handled.
    pub disrupted: usize,
    /// Disruptions whose remnant was re-admitted.
    pub recovered: usize,
    /// Crash events that hit this shard's nodes.
    pub node_failures: u64,
    /// Remnants re-run through the auction.
    pub tasks_resubmitted: u64,
    /// Refunds issued to unrecoverable tasks.
    pub refunds_issued: u64,
    /// p50 of the shard's `decide()` latency, nanoseconds.
    pub decide_p50_nanos: f64,
    /// p99 of the shard's `decide()` latency, nanoseconds.
    pub decide_p99_nanos: f64,
    /// Digest of the shard-local ledger at settlement.
    pub ledger_digest: u64,
}

/// Report for one committed epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// First slot of the epoch batch.
    pub first_slot: Slot,
    /// One past the last slot of the batch.
    pub end_slot: Slot,
    /// Tasks decided (admitted or rejected) in this epoch.
    pub decided: usize,
    /// Ledger ops committed in phase 2.
    pub ops: usize,
    /// Arrivals still queued per shard after this epoch (routed tasks
    /// whose slot has not been reached yet) — the queue-depth figure the
    /// `--progress` line reports.
    pub queue_depth: Vec<usize>,
}

/// Outcome of a full service run.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// One decision per task in id order — identical in content to a
    /// single-process faulted run over the same routing.
    pub decisions: Vec<Decision>,
    /// Refund-adjusted welfare across all shards.
    pub welfare: FaultWelfare,
    /// Unrecoverable tasks with settlements (global node ids).
    pub aborted: Vec<AbortedTask>,
    /// Per-shard telemetry.
    pub per_shard: Vec<ShardStats>,
    /// Crash disruptions across all shards.
    pub disrupted: usize,
    /// Recoveries across all shards.
    pub recovered: usize,
    /// Digest of the global (coordinator) ledger after the last commit.
    pub ledger_digest: u64,
    /// Epochs committed.
    pub epochs: usize,
    /// Workers the phase-1 parallel map could actually use:
    /// `min(shards, configured threads)`.
    pub effective_workers: usize,
    /// Admission-latency histogram (arrival → phase-2 commit).
    pub admission: LatencyHistogram,
    /// Exact admission-latency samples in commit order, seconds.
    pub admission_seconds: Vec<f64>,
    /// Wall-clock seconds from service start to the last commit.
    pub wall_seconds: f64,
    /// Task-lifecycle spans, sorted by `(ts, span id)` — empty unless
    /// [`Observability::spans`] was set. Sim-clock timestamped, so the
    /// list (and any trace rendered from it) is byte-identical across
    /// worker counts.
    pub spans: Vec<Span>,
    /// Worker-pool tasks executed during this run. The pool is
    /// process-global, so the delta is best-effort when other pool users
    /// run concurrently.
    pub pool_tasks: u64,
    /// Nanoseconds pool threads spent parked during this run (same
    /// best-effort caveat as [`ServiceOutcome::pool_tasks`]).
    pub pool_park_ns: u64,
}

impl ServiceOutcome {
    /// Sustained decision throughput: decisions per wall-clock second
    /// over the whole run (arrival pacing included, when configured).
    #[must_use]
    pub fn decisions_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.decisions.len() as f64 / self.wall_seconds
    }

    /// The run's replayable content, bit-exact — equal across worker
    /// counts and kill-and-resume (see [`RunDigest`]).
    #[must_use]
    pub fn digest(&self) -> RunDigest {
        RunDigest::of(
            &self.decisions,
            &self.welfare,
            &self.aborted,
            self.ledger_digest,
            &self.spans,
        )
    }
}

/// One shard's private world: scenario slice, fault loop, and the
/// buffers its phase-1 output is written into.
struct ShardState {
    /// Shard-local scenario: re-indexed node slice, per-task rates cut
    /// to the owned range, row-sliced cost grid. Task ids stay global.
    scenario: Scenario,
    /// The shard's scheduler, task states, local fault events and
    /// routed arrivals.
    run: FaultLoop,
    /// The shard's flight recorder when armed — held here so `propose`
    /// can arm a panic-dump guard around its work loop.
    flight: Option<Arc<FlightRecorder>>,
    /// This epoch's phase-1 output, refilled every epoch.
    proposal: Proposal,
}

/// One epoch's phase-1 output for one shard: the op log and the ids
/// decided. The vectors keep their capacity across epochs.
#[derive(Debug, Default)]
struct Proposal {
    ops: Vec<LedgerOp>,
    decided: Vec<TaskId>,
}

impl ShardState {
    /// Phase 1: runs the shard's loop over `slots`, refilling the
    /// proposal with the op log and the ids decided. `epoch` feeds span
    /// attribution.
    fn propose(&mut self, slots: std::ops::Range<Slot>, epoch: usize) {
        // If this shard's worker panics mid-epoch, dump the flight ring
        // on the way out so the post-mortem survives the unwind.
        let _panic_dump = self.flight.as_ref().map(FlightRecorder::panic_dump_guard);
        self.run.pdftsp.telemetry().spans.set_epoch(epoch);
        let prop = &mut self.proposal;
        prop.ops.clear();
        prop.decided.clear();
        self.run
            .advance(&self.scenario, slots, &mut prop.ops, &mut prop.decided);
    }
}

/// The sharded admission service. Construct with [`AuctionService::new`],
/// drive epoch by epoch with [`AuctionService::run_epoch`] (or all the
/// way with [`AuctionService::run`]), then [`AuctionService::finish`].
pub struct AuctionService {
    scenario: Scenario,
    cfg: ServiceConfig,
    map: ShardMap,
    shards: Vec<Mutex<ShardState>>,
    /// `routes[task id]` = owning shard.
    routes: Vec<usize>,
    global: CapacityLedger,
    admission: LatencyHistogram,
    admission_seconds: Vec<f64>,
    next_slot: Slot,
    epochs_done: usize,
    /// Index into the global (arrival-sorted) task list of the first
    /// task not yet covered by a committed epoch; drives arrival pacing.
    next_global_task: usize,
    started: Instant,
    last_commit_seconds: f64,
    /// Shard indices `0..K`, built once for the phase-1 parallel map.
    shard_idx: Vec<usize>,
    /// Set when a shard worker panicked; every later epoch fails fast.
    poisoned: Option<String>,
    pool_at_start: PoolStats,
    obs: Observability,
    /// Per-shard span logs (propose/fault_recover spans emitted inside
    /// the shard schedulers), drained at settlement.
    span_logs: Vec<Option<Arc<SpanLog>>>,
    /// Coordinator-side spans: route (at construction), commit (phase
    /// 2) and settle (at finish).
    coord_spans: Vec<Span>,
    /// Tasks whose commit span was emitted — recovery re-commits of the
    /// same task must not emit a second, colliding commit span.
    commit_span_done: Vec<bool>,
}

/// A shard's state through exclusive access. Phase-1 panics are caught
/// by the pool and poison the service before any later access, so a
/// poisoned lock here still holds consistent state.
fn shard_mut(shard: &mut Mutex<ShardState>) -> &mut ShardState {
    shard.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// splitmix64: the routing hash (also used for deterministic trace
/// splitting in the zone partitioner's thinning argument).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hybrid sleep/spin wait until `target` seconds after `start`. A bare
/// `thread::sleep` oversleeps by OS timer granularity (~1 ms), which at
/// a 1 M/s offered rate dwarfs the sub-millisecond inter-epoch gap and
/// shows up as spurious admission latency; sleeping until shortly
/// before the target and spinning the remainder hits it precisely.
fn pace_until(start: &Instant, target: f64) {
    const SPIN_WINDOW: f64 = 500e-6;
    loop {
        let remaining = target - start.elapsed().as_secs_f64();
        if remaining <= 0.0 {
            return;
        }
        if remaining > SPIN_WINDOW {
            std::thread::sleep(std::time::Duration::from_secs_f64(remaining - SPIN_WINDOW));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl AuctionService {
    /// Builds the service: partitions the cluster, carves per-shard
    /// scenarios (node slice re-indexed from zero, task rate vectors cut
    /// to the range, cost-grid rows sliced), routes every task, and maps
    /// `plan`'s fault events to their owning shards.
    ///
    /// The shards themselves are the unit of parallelism: each shard's
    /// scheduler runs its vendor loop sequentially, so phase 1 is
    /// identical to a single-thread run.
    ///
    /// # Errors
    /// [`ServiceError::Shard`] when the cluster cannot be partitioned
    /// (more shards than nodes), [`ServiceError::ZeroEpoch`] for an
    /// empty epoch, and [`ServiceError::FaultPlan`] when `plan` fails
    /// [`FaultPlan::validate`].
    pub fn new(
        scenario: &Scenario,
        cfg: ServiceConfig,
        plan: &FaultPlan,
    ) -> Result<AuctionService, ServiceError> {
        AuctionService::with_observability(scenario, cfg, plan, Observability::default())
    }

    /// [`AuctionService::new`] with spans and/or a flight recorder
    /// attached to every shard's telemetry. The default observability is
    /// fully off, so `new` keeps the zero-overhead disabled fast path.
    ///
    /// # Errors
    /// Same as [`AuctionService::new`].
    pub fn with_observability(
        scenario: &Scenario,
        cfg: ServiceConfig,
        plan: &FaultPlan,
        obs: Observability,
    ) -> Result<AuctionService, ServiceError> {
        if cfg.epoch_slots == 0 {
            return Err(ServiceError::ZeroEpoch);
        }
        plan.validate(scenario)?;
        let map = ShardMap::even(scenario.nodes.len(), cfg.shards)?;
        let total_nodes = scenario.nodes.len();
        // Route by hashing the task id onto a node and taking its owner:
        // shard load is proportional to shard size, and the route is a
        // pure function of (id, seed, sizes) — batching and worker count
        // can never move a task.
        let routes: Vec<usize> = scenario
            .tasks
            .iter()
            .map(|t| {
                map.shard_of(
                    (splitmix64(t.id as u64 ^ cfg.route_seed) % total_nodes as u64) as usize,
                )
            })
            .collect();

        let mut shards = Vec::with_capacity(map.num_shards());
        let mut span_logs = Vec::with_capacity(map.num_shards());
        for spec in map.shards() {
            let lo = spec.node_base;
            let hi = spec.node_base + spec.num_nodes;
            let nodes = scenario.nodes[lo..hi]
                .iter()
                .enumerate()
                .map(|(local, n)| {
                    let mut n = n.clone();
                    n.id = local;
                    n
                })
                .collect();
            let tasks = scenario
                .tasks
                .iter()
                .map(|t| {
                    let mut t = t.clone();
                    t.rates = t.rates[lo..hi].to_vec();
                    t
                })
                .collect();
            let mut prices = Vec::with_capacity(spec.num_nodes * scenario.horizon);
            for k in lo..hi {
                prices.extend_from_slice(scenario.cost.prices_row(k));
            }
            let cost = CostGrid::from_vec(spec.num_nodes, scenario.horizon, prices)
                .expect("sliced cost grid is well-formed");
            let shard_scenario = Scenario {
                horizon: scenario.horizon,
                base_model_gb: scenario.base_model_gb,
                nodes,
                tasks,
                quotes: scenario.quotes.clone(),
                cost,
            };
            // Events keep the plan's (slot, kind, node) order; only the
            // owning shard sees each one, with the node id localized.
            let events: Vec<FaultEvent> = plan
                .events
                .iter()
                .filter_map(|ev| {
                    let (owner, local) = map.to_local(ev.order().2);
                    (owner == spec.id).then_some(ev.on_node(local))
                })
                .collect();
            let arrivals: Vec<TaskId> = scenario
                .tasks
                .iter()
                .filter(|t| routes[t.id] == spec.id)
                .map(|t| t.id)
                .collect();
            // Shard telemetry: disabled unless observability asks for a
            // span log and/or flight recorder, in which case the sinks
            // are teed together and the span context pinned to the shard.
            let flight = (obs.flight_capacity > 0).then(|| {
                Arc::new(match &obs.flight_dir {
                    Some(dir) => {
                        FlightRecorder::with_dump_dir(spec.id, obs.flight_capacity, dir.clone())
                    }
                    None => FlightRecorder::new(spec.id, obs.flight_capacity),
                })
            });
            let span_log = obs.spans.then(|| Arc::new(SpanLog::new()));
            let telemetry = if obs.any_enabled() {
                let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
                if let Some(fr) = &flight {
                    sinks.push(fr.clone() as Arc<dyn Sink>);
                }
                if let Some(log) = &span_log {
                    sinks.push(log.clone() as Arc<dyn Sink>);
                }
                let tel = if sinks.len() == 1 {
                    Telemetry::new(sinks.pop().expect("one sink"))
                } else {
                    Telemetry::new(Arc::new(TeeSink::new(sinks)))
                };
                tel.spans.set_shard(spec.id);
                tel
            } else {
                Telemetry::disabled()
            };
            span_logs.push(span_log);
            let pdftsp = Pdftsp::with_telemetry(&shard_scenario, cfg.scheduler, telemetry);
            shards.push(Mutex::new(ShardState {
                scenario: shard_scenario,
                run: FaultLoop::new(pdftsp, scenario.tasks.len(), events, arrivals),
                flight,
                proposal: Proposal::default(),
            }));
        }
        // Route spans are coordinator facts known up front: one root per
        // task, timestamped at its arrival slot on the sim clock.
        let coord_spans = if obs.spans {
            scenario
                .tasks
                .iter()
                .map(|t| Span::route(t.id, routes[t.id], t.arrival, t.arrival / cfg.epoch_slots))
                .collect()
        } else {
            Vec::new()
        };
        let commit_span_done = vec![false; scenario.tasks.len()];
        let num_shards = map.num_shards();
        Ok(AuctionService {
            scenario: scenario.clone(),
            cfg,
            map,
            shards,
            routes,
            global: CapacityLedger::new(scenario),
            admission: LatencyHistogram::default(),
            admission_seconds: Vec::new(),
            next_slot: 0,
            epochs_done: 0,
            next_global_task: 0,
            started: Instant::now(),
            last_commit_seconds: 0.0,
            shard_idx: (0..num_shards).collect(),
            poisoned: None,
            pool_at_start: pool_stats(),
            obs,
            span_logs,
            coord_spans,
            commit_span_done,
        })
    }

    /// Admission-latency histogram accumulated so far (arrival →
    /// phase-2 commit) — what the `--progress` line reads mid-run.
    #[must_use]
    pub fn admission(&self) -> &LatencyHistogram {
        &self.admission
    }

    /// Total epochs a full run commits.
    #[must_use]
    pub fn total_epochs(&self) -> usize {
        self.scenario.horizon.div_ceil(self.cfg.epoch_slots)
    }

    /// Epochs committed so far.
    #[must_use]
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Whether every slot has been processed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_slot >= self.scenario.horizon
    }

    /// Digest of the global ledger right now — equal at every epoch
    /// boundary across worker counts and across kill-and-resume.
    #[must_use]
    pub fn global_digest(&self) -> u64 {
        self.global.state_digest()
    }

    /// Wall-time offset (seconds since service start) at which task `id`
    /// arrives under the open-loop generator; 0 when unpaced.
    fn arrival_offset(&self, id: TaskId) -> f64 {
        match self.cfg.open_loop_rate {
            Some(rate) if rate > 0.0 => id as f64 / rate,
            _ => 0.0,
        }
    }

    /// Runs one epoch: waits for the batch's open-loop arrivals (when
    /// paced), proposes across shards in one order-preserving parallel
    /// map, commits the op logs in shard order against the global
    /// ledger, and records admission latency for every decided task.
    ///
    /// # Errors
    /// [`ServiceError::AlreadyDone`] when called after
    /// [`AuctionService::is_done`]; [`ServiceError::WorkerPanicked`]
    /// when a shard's phase-1 worker panicked — the panic is contained
    /// on the pool, but the service is poisoned and every later call
    /// reports it again; [`ServiceError::Commit`] if a phase-2 op fails
    /// global validation (protocol invariant; cannot happen with
    /// disjoint shards).
    pub fn run_epoch(&mut self) -> Result<EpochReport, ServiceError> {
        if let Some(msg) = &self.poisoned {
            return Err(ServiceError::WorkerPanicked(msg.clone()));
        }
        if self.is_done() {
            return Err(ServiceError::AlreadyDone);
        }
        let first_slot = self.next_slot;
        let end_slot = (first_slot + self.cfg.epoch_slots).min(self.scenario.horizon);

        // Advance the open-loop generator: every task arriving inside
        // this batch must exist before the batch is proposed.
        let mut last_arrival = None;
        while self.next_global_task < self.scenario.tasks.len()
            && self.scenario.tasks[self.next_global_task].arrival < end_slot
        {
            last_arrival = Some(self.next_global_task);
            self.next_global_task += 1;
        }
        if let Some(id) = last_arrival {
            pace_until(&self.started, self.arrival_offset(id));
        }
        let epoch_entry = self.started.elapsed().as_secs_f64();

        let epoch = self.epochs_done;
        let paced = self.cfg.open_loop_rate.is_some();
        let mut decided_total = 0usize;
        let mut ops_total = 0usize;
        let mut commit_seq = 0u64;

        // Phase 1: one order-preserving parallel map across shards, each
        // refilling its own proposal buffers.
        let shards = &self.shards;
        let proposed = try_parallel_map(&self.shard_idx, |&s| {
            let mut shard = shards[s]
                .lock()
                .expect("shard state poisoned by an earlier panic");
            shard.propose(first_slot..end_slot, epoch);
            std::mem::take(&mut shard.proposal)
        });
        let props = match proposed {
            Ok(p) => p,
            Err(p) => {
                let msg = format!("epoch {epoch}: {p}");
                self.poisoned = Some(msg.clone());
                return Err(ServiceError::WorkerPanicked(msg));
            }
        };
        // Phase 2: commit in shard order, handing each shard its buffers
        // back so their capacity carries over to the next epoch.
        for (s, prop) in props.into_iter().enumerate() {
            let committed = self.commit_shard(
                s,
                &prop,
                epoch,
                end_slot,
                paced,
                epoch_entry,
                &mut commit_seq,
            );
            shard_mut(&mut self.shards[s]).proposal = prop;
            let (d, o) = committed?;
            decided_total += d;
            ops_total += o;
        }

        self.next_slot = end_slot;
        self.epochs_done += 1;
        let queue_depth = self
            .shards
            .iter_mut()
            .map(|shard| shard_mut(shard).run.queued())
            .collect();
        Ok(EpochReport {
            epoch: self.epochs_done - 1,
            first_slot,
            end_slot,
            decided: decided_total,
            ops: ops_total,
            queue_depth,
        })
    }

    /// Phase 2 for one shard: replays the proposal's op log against the
    /// global ledger (emitting commit spans) and records admission
    /// latency for every task the shard decided this epoch.
    #[allow(clippy::too_many_arguments)]
    fn commit_shard(
        &mut self,
        s: usize,
        prop: &Proposal,
        epoch: usize,
        end_slot: Slot,
        paced: bool,
        epoch_entry: f64,
        commit_seq: &mut u64,
    ) -> Result<(usize, usize), ServiceError> {
        for op in &prop.ops {
            // A commit span per first-time committed task, sequenced
            // by (shard order, op order) — both deterministic. A
            // recovery re-commit of an already-committed task keeps
            // its original commit span.
            if self.obs.spans {
                if let LedgerOp::Commit { task, .. } = op {
                    if !self.commit_span_done[*task] {
                        self.commit_span_done[*task] = true;
                        self.coord_spans
                            .push(Span::commit(*task, s, epoch, end_slot, *commit_seq));
                        *commit_seq += 1;
                    }
                }
            }
            self.apply_global(s, op)?;
        }
        let now = self.started.elapsed().as_secs_f64();
        self.last_commit_seconds = now;
        for &id in &prop.decided {
            let since = if paced {
                self.arrival_offset(id)
            } else {
                epoch_entry
            };
            let latency = (now - since).max(0.0);
            self.admission.record_seconds(latency);
            self.admission_seconds.push(latency);
        }
        Ok((prop.decided.len(), prop.ops.len()))
    }

    /// Replays one shard-local op against the global ledger, remapping
    /// node ids. Commits validate atomically; quarantine/degrade mirror
    /// the scheduler's own arithmetic over identical residuals, so the
    /// global ledger tracks every shard ledger exactly.
    fn apply_global(&mut self, shard: usize, op: &LedgerOp) -> Result<(), ServiceError> {
        let base = self.map.spec(shard).node_base;
        match op {
            LedgerOp::Commit { task, schedule } => {
                let task = *task;
                let placements: Vec<(NodeId, Slot)> = schedule
                    .placements
                    .iter()
                    .map(|&(k, t)| (k + base, t))
                    .collect();
                let global_sched = Schedule::new(task, schedule.vendor, placements);
                self.global
                    .commit(&self.scenario.tasks[task], &global_sched)
                    .map_err(|error| ServiceError::Commit { task, error })
            }
            LedgerOp::Release { task, placements } => {
                let task = *task;
                let placements: Vec<(NodeId, Slot)> =
                    placements.iter().map(|&(k, t)| (k + base, t)).collect();
                self.global
                    .release_placements(&self.scenario.tasks[task], &placements)
                    .map(|_| ())
                    .map_err(|error| ServiceError::Commit { task, error })
            }
            LedgerOp::Quarantine { node, from } => {
                self.global.quarantine(*node + base, *from);
                Ok(())
            }
            LedgerOp::Lift { node } => {
                self.global.lift_quarantine(*node + base);
                Ok(())
            }
            LedgerOp::Degrade { node, from, frac } => {
                let k = *node + base;
                let from = *from;
                let frac = frac.clamp(0.0, 1.0);
                for t in from.min(self.global.horizon())..self.global.horizon() {
                    let compute = ((self.global.compute_capacity(k) as f64 * frac) as u64)
                        .min(self.global.residual_compute(k, t));
                    let mem = (self.global.adapter_capacity(k) * frac)
                        .min(self.global.residual_memory(k, t));
                    let _ = self.global.reserve(k, t, compute, mem);
                }
                Ok(())
            }
        }
    }

    /// Commits every remaining epoch.
    ///
    /// # Errors
    /// Propagates the first [`AuctionService::run_epoch`] error.
    pub fn run_to_completion(&mut self) -> Result<(), ServiceError> {
        while !self.is_done() {
            self.run_epoch()?;
        }
        Ok(())
    }

    /// Settles the run: merges per-shard task states (schedules remapped
    /// to global node ids), computes refund-adjusted welfare, verifies
    /// the settled decisions against the execution engine, and checks
    /// the global ledger mirrors every shard ledger cell-for-cell.
    ///
    /// # Errors
    /// [`ServiceError::Mirror`] / [`ServiceError::Replay`] on protocol
    /// violations; [`ServiceError::WorkerPanicked`] when a contained
    /// phase-1 panic poisoned the run; any remaining-epoch error when
    /// the run was partial.
    pub fn finish(mut self) -> Result<ServiceOutcome, ServiceError> {
        self.run_to_completion()?;
        self.verify_mirror()?;

        let remap = |shard: usize, sched: &Schedule| -> Schedule {
            let base = self.map.spec(shard).node_base;
            Schedule::new(
                sched.task,
                sched.vendor,
                sched
                    .placements
                    .iter()
                    .map(|&(k, t)| (k + base, t))
                    .collect(),
            )
        };

        let mut states: Vec<TaskState> = Vec::with_capacity(self.scenario.tasks.len());
        let mut aborted: Vec<AbortedTask> = Vec::new();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut disrupted = 0usize;
        let mut recovered = 0usize;
        let shard_guards: Vec<&ShardState> =
            self.shards.iter_mut().map(|m| &*shard_mut(m)).collect();
        for task in &self.scenario.tasks {
            let s = self.routes[task.id];
            let st = match &shard_guards[s].run.states[task.id] {
                TaskState::Active {
                    schedule,
                    payment,
                    decide_seconds,
                } => TaskState::Active {
                    schedule: remap(s, schedule),
                    payment: *payment,
                    decide_seconds: *decide_seconds,
                },
                other => other.clone(),
            };
            states.push(st);
        }
        for (s, guard) in shard_guards.iter().enumerate() {
            disrupted += guard.run.disrupted;
            recovered += guard.run.recovered;
            for a in &guard.run.aborted {
                let mut a = a.clone();
                a.prefix = remap(s, &a.prefix);
                aborted.push(a);
            }
            let spec = self.map.spec(s);
            let c = &guard.run.pdftsp.telemetry().counters;
            per_shard.push(ShardStats {
                shard: s,
                node_base: spec.node_base,
                num_nodes: spec.num_nodes,
                routed: guard.run.arrivals(),
                decisions: c.read(&c.decisions),
                admitted: c.read(&c.admitted),
                rejected: c.read(&c.rejected_infeasible)
                    + c.read(&c.rejected_surplus)
                    + c.read(&c.rejected_capacity),
                disrupted: guard.run.disrupted,
                recovered: guard.run.recovered,
                node_failures: c.read(&c.node_failures),
                tasks_resubmitted: c.read(&c.tasks_resubmitted),
                refunds_issued: c.read(&c.refunds_issued),
                decide_p50_nanos: c.decide_latency.quantile_nanos(0.50),
                decide_p99_nanos: c.decide_latency.quantile_nanos(0.99),
                ledger_digest: guard.run.pdftsp.ledger().state_digest(),
            });
        }

        let (decisions, welfare) = settle(&self.scenario, &states, &aborted);
        crate::timeline::replay(&self.scenario, &decisions)
            .map_err(|e| ServiceError::Replay(format!("{e:?}")))?;

        // Assemble the run's trace: shard-emitted spans (propose,
        // fault_recover) in shard order, the coordinator's route/commit
        // spans, and one settle span — then a total deterministic order
        // by (sim timestamp, span id). Span ids are distinct by
        // construction, so the sort is unambiguous and the resulting
        // list is byte-stable across worker counts.
        let mut spans = std::mem::take(&mut self.coord_spans);
        for log in self.span_logs.iter().flatten() {
            spans.extend(log.drain());
        }
        if self.obs.spans {
            spans.push(Span::settle(
                self.scenario.horizon,
                self.epochs_done.saturating_sub(1),
            ));
        }
        spans.sort_by_key(|sp| (sp.ts, sp.span));

        // Pool counters are process-global lifetime totals; the delta
        // since construction is this run's share (best-effort when other
        // pool users run concurrently).
        let pool_now = pool_stats();
        Ok(ServiceOutcome {
            decisions,
            welfare,
            aborted,
            per_shard,
            disrupted,
            recovered,
            ledger_digest: self.global.state_digest(),
            epochs: self.epochs_done,
            effective_workers: effective_workers(self.map.num_shards()),
            admission: self.admission,
            admission_seconds: self.admission_seconds,
            wall_seconds: self.last_commit_seconds,
            spans,
            pool_tasks: pool_now.tasks.saturating_sub(self.pool_at_start.tasks),
            pool_park_ns: pool_now.park_ns.saturating_sub(self.pool_at_start.park_ns),
        })
    }

    /// The two-phase-commit consistency invariant: every global-ledger
    /// cell equals the owning shard's cell (residual compute, residual
    /// memory, quarantine flag).
    fn verify_mirror(&mut self) -> Result<(), ServiceError> {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let ledger = shard_mut(shard).run.pdftsp.ledger();
            let spec = self.map.spec(s);
            for local in 0..spec.num_nodes {
                let g = spec.node_base + local;
                let quarantined_matches =
                    ledger.is_quarantined(local) == self.global.is_quarantined(g);
                for t in 0..self.scenario.horizon {
                    if !quarantined_matches
                        || ledger.residual_compute(local, t) != self.global.residual_compute(g, t)
                        || ledger.residual_memory(local, t) != self.global.residual_memory(g, t)
                    {
                        return Err(ServiceError::Mirror {
                            shard: s,
                            node: g,
                            slot: t,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience: build, run every epoch, settle.
    ///
    /// # Errors
    /// See [`AuctionService::new`] and [`AuctionService::finish`].
    pub fn run(
        scenario: &Scenario,
        cfg: ServiceConfig,
        plan: &FaultPlan,
    ) -> Result<ServiceOutcome, ServiceError> {
        AuctionService::new(scenario, cfg, plan)?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{run_pdftsp_with_faults, FaultSpec};
    use pdftsp_workload::ScenarioBuilder;

    fn scenario() -> Scenario {
        ScenarioBuilder {
            horizon: 36,
            num_nodes: 6,
            seed: 23,
            ..ScenarioBuilder::smoke(23)
        }
        .build()
    }

    fn plan(sc: &Scenario) -> FaultPlan {
        FaultPlan::generate(
            sc,
            &FaultSpec {
                crashes: 3,
                outage: 3,
                degrade: 0.2,
                seed: 7,
            },
        )
    }

    fn cfg(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            epoch_slots: 5,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn service_settles_and_balances() {
        let sc = scenario();
        let out = AuctionService::run(&sc, cfg(3), &plan(&sc)).unwrap();
        assert_eq!(out.decisions.len(), sc.tasks.len());
        assert_eq!(
            out.welfare.completed + out.welfare.aborted + out.welfare.rejected,
            sc.tasks.len()
        );
        assert!(
            (out.welfare.social_welfare
                - (out.welfare.user_utility + out.welfare.provider_utility))
                .abs()
                < 1e-9
        );
        assert_eq!(out.per_shard.len(), 3);
        let routed: usize = out.per_shard.iter().map(|s| s.routed).sum();
        assert_eq!(routed, sc.tasks.len());
        let nodes: usize = out.per_shard.iter().map(|s| s.num_nodes).sum();
        assert_eq!(nodes, sc.nodes.len());
        assert_eq!(out.admission_seconds.len(), sc.tasks.len());
        assert_eq!(out.admission.count(), sc.tasks.len() as u64);
        assert_eq!(out.epochs, sc.horizon.div_ceil(5));
    }

    #[test]
    fn single_shard_service_matches_the_faulted_run_exactly() {
        // With one shard the service drives the single-process fault
        // loop plus the commit protocol: welfare must agree to the bit.
        let sc = scenario();
        let plan = plan(&sc);
        let out = AuctionService::run(&sc, cfg(1), &plan).unwrap();
        let (reference, _) =
            run_pdftsp_with_faults(&sc, PdftspConfig::default(), &plan, Telemetry::disabled())
                .unwrap();
        assert_eq!(
            out.welfare.social_welfare.to_bits(),
            reference.welfare.social_welfare.to_bits()
        );
        assert_eq!(
            out.welfare.payments.to_bits(),
            reference.welfare.payments.to_bits()
        );
        assert_eq!(out.welfare.completed, reference.welfare.completed);
        assert_eq!(out.welfare.aborted, reference.welfare.aborted);
        assert_eq!(out.disrupted, reference.disrupted);
        assert_eq!(out.recovered, reference.recovered);
    }

    #[test]
    fn epoch_stepping_equals_one_shot_run() {
        let sc = scenario();
        let plan = plan(&sc);
        let mut svc = AuctionService::new(&sc, cfg(2), &plan).unwrap();
        let mut reports = Vec::new();
        while !svc.is_done() {
            reports.push(svc.run_epoch().unwrap());
        }
        let decided: usize = reports.iter().map(|r| r.decided).sum();
        assert_eq!(decided, sc.tasks.len());
        let stepped = svc.finish().unwrap();
        let oneshot = AuctionService::run(&sc, cfg(2), &plan).unwrap();
        assert_eq!(
            stepped.welfare.social_welfare.to_bits(),
            oneshot.welfare.social_welfare.to_bits()
        );
        assert_eq!(stepped.ledger_digest, oneshot.ledger_digest);
    }

    #[test]
    fn run_epoch_after_completion_is_already_done() {
        let sc = scenario();
        let plan = plan(&sc);
        let mut svc = AuctionService::new(&sc, cfg(2), &plan).unwrap();
        svc.run_to_completion().unwrap();
        assert!(matches!(svc.run_epoch(), Err(ServiceError::AlreadyDone)));
        // The error is non-destructive: settlement still works.
        svc.finish().unwrap();
    }

    #[test]
    fn too_many_shards_is_an_error() {
        let sc = scenario();
        assert!(matches!(
            AuctionService::run(&sc, cfg(sc.nodes.len() + 1), &plan(&sc)),
            Err(ServiceError::Shard(ShardError::TooFewItems { .. }))
        ));
        let bad_epoch = ServiceConfig {
            epoch_slots: 0,
            ..cfg(2)
        };
        assert!(matches!(
            AuctionService::run(&sc, bad_epoch, &plan(&sc)),
            Err(ServiceError::ZeroEpoch)
        ));
    }

    /// A plan naming a node past the cluster, a slot past the horizon,
    /// or events out of order is refused at construction, before any
    /// shard sees it.
    #[test]
    fn malformed_fault_plans_are_rejected_at_construction() {
        let sc = scenario();
        let nodes = sc.nodes.len();
        let plans = [
            vec![FaultEvent::NodeDown {
                node: nodes,
                slot: 3,
            }],
            vec![FaultEvent::NodeDown {
                node: 0,
                slot: sc.horizon,
            }],
            vec![
                FaultEvent::NodeDown { node: 0, slot: 9 },
                FaultEvent::NodeUp { node: 0, slot: 4 },
            ],
        ];
        for events in plans {
            let plan = FaultPlan { events };
            let expected = plan.validate(&sc).unwrap_err();
            match AuctionService::new(&sc, cfg(2), &plan) {
                Err(ServiceError::FaultPlan(e)) => assert_eq!(e, expected),
                other => panic!("expected a fault-plan error, got {:?}", other.err()),
            }
        }
    }
}
