//! Fault injection and recovery: node crashes, recoveries, and capacity
//! degradation driven through the pdFTSP auction loop.
//!
//! The clean-room driver ([`crate::driver`]) assumes every admitted
//! schedule runs to completion. This module drops that assumption: a
//! seeded [`FaultPlan`] injects node failures between arrivals, and the
//! run loop recovers from them with the same primal-dual machinery the
//! paper uses online —
//!
//! 1. **Release.** Every disrupted task's not-yet-executed placements
//!    (slot ≥ failure, on *any* node) are returned to the ledger; the
//!    executed prefix stays committed (those resources are consumed).
//! 2. **Quarantine.** The dead node's full residual capacity is then
//!    reserved, so the Algorithm-2 DP (under `CapacityPolicy::
//!    MaskSaturated`) simply stops proposing its cells. Ordering matters:
//!    release first, so freed capacity is captured inside the hold.
//! 3. **Resubmit.** Each disrupted task re-enters Algorithm 1 as a
//!    *remnant* — same id, bid, deadline, memory and rates, but only the
//!    remaining work and no preprocessing (already done) — and is
//!    re-admitted via the Eq. (10) surplus test under the *current* duals
//!    `λ/φ`, updating them per Eqs. (7)–(8) as usual.
//! 4. **Settle.** A re-admitted task keeps its original payment (the
//!    provider absorbs recovery). An unrecoverable task pays only for
//!    consumed resources: Eq. (14) re-evaluated over the executed prefix
//!    with the duals snapshotted at the original admission, the rest
//!    refunded.
//!
//! Everything is deterministic per seed: the plan, the recovery order
//! (task-id order), and the auction itself — the chaos suite asserts the
//! refund-adjusted welfare reproduces bit-for-bit.

use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_telemetry::{Event, Span, Telemetry};
use pdftsp_types::{AuctionOutcome, Decision, NodeId, Rejection, Scenario, Schedule, Slot, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parsed `--faults` specification: how much chaos to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Number of node-crash attempts (attempts overlapping an existing
    /// outage on the same node are dropped, so fewer may materialize).
    pub crashes: usize,
    /// Outage length in slots: a node crashing at `s` recovers at
    /// `s + outage` (never, if that is past the horizon).
    pub outage: usize,
    /// Per-cell capacity fraction reserved by degradation events in
    /// `[0, 1]`; 0 disables degradation.
    pub degrade: f64,
    /// Seed for the fault RNG (independent of the workload seed).
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            crashes: 1,
            outage: 2,
            degrade: 0.0,
            seed: 0,
        }
    }
}

impl FaultSpec {
    /// Parses `key=value` pairs: `crashes=2,outage=4,degrade=0.3,seed=7`.
    /// Omitted keys keep their defaults.
    ///
    /// # Errors
    /// Fails on unknown keys or unparsable values.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec: `{pair}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("fault spec: `{value}` is not a valid {what} for {key}");
            match key {
                "crashes" => out.crashes = value.parse().map_err(|_| bad("count"))?,
                "outage" => out.outage = value.parse().map_err(|_| bad("slot count"))?,
                "degrade" => {
                    let f: f64 = value.parse().map_err(|_| bad("fraction"))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(format!("fault spec: degrade={f} outside [0, 1]"));
                    }
                    out.degrade = f;
                }
                "seed" => out.seed = value.parse().map_err(|_| bad("seed"))?,
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
        }
        Ok(out)
    }
}

/// One injected fault, pinned to a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Node `node` crashes at the start of `slot`.
    NodeDown { node: NodeId, slot: Slot },
    /// Node `node` recovers at the start of `slot`.
    NodeUp { node: NodeId, slot: Slot },
    /// `frac` of node `node`'s capacity is reserved from `slot` on.
    Degrade { node: NodeId, slot: Slot, frac: f64 },
}

impl FaultEvent {
    /// The slot this event fires at.
    #[must_use]
    pub fn slot(&self) -> Slot {
        match *self {
            FaultEvent::NodeDown { slot, .. }
            | FaultEvent::NodeUp { slot, .. }
            | FaultEvent::Degrade { slot, .. } => slot,
        }
    }

    /// The same event on node `node` (shard-local ids in the service).
    #[must_use]
    pub(crate) fn on_node(self, node: NodeId) -> FaultEvent {
        match self {
            FaultEvent::NodeDown { slot, .. } => FaultEvent::NodeDown { node, slot },
            FaultEvent::NodeUp { slot, .. } => FaultEvent::NodeUp { node, slot },
            FaultEvent::Degrade { slot, frac, .. } => FaultEvent::Degrade { node, slot, frac },
        }
    }

    /// Within-slot application order: recoveries first (freed capacity is
    /// visible to same-slot arrivals), then degradations, then crashes.
    /// A [`FaultPlan`] lists its events sorted by this key.
    #[must_use]
    pub fn order(&self) -> (Slot, u8, NodeId) {
        match *self {
            FaultEvent::NodeUp { node, slot } => (slot, 0, node),
            FaultEvent::Degrade { node, slot, .. } => (slot, 1, node),
            FaultEvent::NodeDown { node, slot } => (slot, 2, node),
        }
    }
}

/// A seeded, slot-ordered list of fault events for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Events sorted by (slot, kind, node).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no failures, the run reduces to the fault-free path.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// Generates a deterministic plan for `scenario` from `spec`. Crash
    /// slots land in `1..horizon` (so slot 0 always executes cleanly);
    /// attempts whose outage would overlap an existing outage on the same
    /// node are dropped rather than re-rolled, keeping the sequence of
    /// RNG draws independent of prior accepts.
    #[must_use]
    pub fn generate(scenario: &Scenario, spec: &FaultSpec) -> FaultPlan {
        let nodes = scenario.nodes.len();
        let horizon = scenario.horizon;
        let mut events = Vec::new();
        if nodes == 0 || horizon < 2 {
            return FaultPlan { events };
        }
        let mut rng = StdRng::seed_from_u64(spec.seed);
        // Accepted outage windows [crash, recover] per node.
        let mut outages: Vec<Vec<(Slot, Slot)>> = vec![Vec::new(); nodes];
        for _ in 0..spec.crashes {
            let node = rng.gen_range(0..nodes);
            let slot = rng.gen_range(1..horizon);
            let recover = slot + spec.outage.max(1);
            if outages[node]
                .iter()
                .any(|&(a, b)| slot <= b && recover >= a)
            {
                continue;
            }
            outages[node].push((slot, recover));
            events.push(FaultEvent::NodeDown { node, slot });
            if recover < horizon {
                events.push(FaultEvent::NodeUp {
                    node,
                    slot: recover,
                });
            }
        }
        if spec.degrade > 0.0 {
            for _ in 0..spec.crashes.max(1) {
                let node = rng.gen_range(0..nodes);
                let slot = rng.gen_range(0..horizon);
                events.push(FaultEvent::Degrade {
                    node,
                    slot,
                    frac: spec.degrade,
                });
            }
        }
        events.sort_by_key(FaultEvent::order);
        FaultPlan { events }
    }

    /// Checks that the plan fits `scenario` and is in the order the run
    /// loop consumes it: events sorted by [`FaultEvent::order`], every
    /// node below the node count, every slot below the horizon.
    ///
    /// # Errors
    /// The first offending event, as a [`FaultPlanError`].
    pub fn validate(&self, scenario: &Scenario) -> Result<(), FaultPlanError> {
        let (nodes, horizon) = (scenario.nodes.len(), scenario.horizon);
        for (index, ev) in self.events.iter().enumerate() {
            let (slot, _, node) = ev.order();
            if node >= nodes {
                return Err(FaultPlanError::NodeOutOfRange { index, node, nodes });
            }
            if slot >= horizon {
                return Err(FaultPlanError::SlotOutOfRange {
                    index,
                    slot,
                    horizon,
                });
            }
            if index > 0 && self.events[index - 1].order() > ev.order() {
                return Err(FaultPlanError::Unsorted { index });
            }
        }
        Ok(())
    }
}

/// A [`FaultPlan`] that does not fit its scenario
/// ([`FaultPlan::validate`]); `index` is the offending event's position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The event sorts before its predecessor in [`FaultEvent::order`].
    Unsorted { index: usize },
    /// The event names a node the scenario does not have.
    NodeOutOfRange {
        index: usize,
        node: NodeId,
        nodes: usize,
    },
    /// The event fires at or past the horizon.
    SlotOutOfRange {
        index: usize,
        slot: Slot,
        horizon: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Unsorted { index } => {
                write!(
                    f,
                    "fault plan: event {index} is out of (slot, kind, node) order"
                )
            }
            FaultPlanError::NodeOutOfRange { index, node, nodes } => {
                write!(f, "fault plan: event {index} names node {node} of {nodes}")
            }
            FaultPlanError::SlotOutOfRange {
                index,
                slot,
                horizon,
            } => {
                write!(
                    f,
                    "fault plan: event {index} fires at slot {slot}, horizon {horizon}"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A task whose recovery failed: the executed prefix stays committed, the
/// buyer was refunded everything beyond its consumed-resource charge.
#[derive(Debug, Clone)]
pub struct AbortedTask {
    /// Task id.
    pub task: TaskId,
    /// Slot of the fatal failure.
    pub slot: Slot,
    /// The executed prefix (original vendor quote, slots before `slot`).
    pub prefix: Schedule,
    /// Amount returned to the buyer.
    pub refund: f64,
    /// Eq. (14) charge over the executed prefix — what the buyer keeps
    /// paying.
    pub consumed: f64,
    /// Operational cost of the executed prefix.
    pub prefix_energy: f64,
}

/// Refund-adjusted welfare accounting of a faulted run.
///
/// `social_welfare = user_utility + provider_utility` holds exactly: the
/// per-task settlement satisfies `payment − refund − consumed = 0`, so
/// payments cancel between the two sides just as in the clean Eq. (3).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWelfare {
    /// `Σ b_i` over tasks that actually completed.
    pub completed_bid_value: f64,
    /// Gross payments collected at admission time (completed + aborted).
    pub payments: f64,
    /// `Σ` refunds to aborted tasks.
    pub refunds: f64,
    /// Vendor preprocessing cost (completed + aborted — preprocessing ran
    /// either way).
    pub vendor_cost: f64,
    /// Energy of completed schedules plus aborted prefixes.
    pub energy_cost: f64,
    /// `completed_bid_value − vendor_cost − energy_cost`.
    pub social_welfare: f64,
    /// `payments − refunds − vendor_cost − energy_cost`.
    pub provider_utility: f64,
    /// `Σ_completed (b_i − p_i) − Σ_aborted consumed_i`.
    pub user_utility: f64,
    /// Tasks that finished their full work.
    pub completed: usize,
    /// Tasks admitted then lost to a failure.
    pub aborted: usize,
    /// Tasks never admitted.
    pub rejected: usize,
}

/// Outcome of one faulted run.
#[derive(Debug, Clone)]
pub struct FaultRunResult {
    /// One decision per task in id order. Completed tasks appear admitted
    /// with their final (possibly recovery-merged) schedule and original
    /// payment; aborted tasks appear rejected with
    /// [`Rejection::InsufficientCapacity`].
    pub decisions: Vec<Decision>,
    /// The plan that was injected.
    pub plan: FaultPlan,
    /// Task disruptions processed (a task disrupted twice counts twice).
    pub disrupted: usize,
    /// Disruptions whose remnant was re-admitted.
    pub recovered: usize,
    /// Tasks that could not be recovered, with their settlements.
    pub aborted: Vec<AbortedTask>,
    /// Refund-adjusted welfare.
    pub welfare: FaultWelfare,
}

/// The replayable content of one run, bit-exact: what determinism
/// checks and the golden-digest suite compare. Wall-clock fields
/// (`decide_seconds`, admission latencies) are excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Bits of the refund-adjusted social welfare.
    pub welfare_bits: u64,
    /// Bits of the gross payments collected.
    pub payment_bits: u64,
    /// Bits of the refunds issued.
    pub refund_bits: u64,
    /// Digest of the (global) capacity ledger at the end of the run.
    pub ledger_digest: u64,
    /// FNV-1a over every decision (task id, admission, payment bits),
    /// the welfare and refund bits, and every aborted task's refund and
    /// consumed charge.
    pub decision_fingerprint: u64,
    /// FNV-1a over the Chrome trace rendered from the run's spans.
    pub span_stream_fnv: u64,
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl RunDigest {
    /// Digests one run's settled decisions, welfare, aborted tasks,
    /// final ledger digest and span stream.
    #[must_use]
    pub fn of(
        decisions: &[Decision],
        welfare: &FaultWelfare,
        aborted: &[AbortedTask],
        ledger_digest: u64,
        spans: &[Span],
    ) -> RunDigest {
        const SEED: u64 = 0xCBF2_9CE4_8422_2325;
        let words = decisions
            .iter()
            .flat_map(|d| {
                [
                    d.task as u64,
                    u64::from(d.is_admitted()),
                    d.payment().to_bits(),
                ]
            })
            .chain([welfare.social_welfare.to_bits(), welfare.refunds.to_bits()])
            .chain(
                aborted
                    .iter()
                    .flat_map(|a| [a.task as u64, a.refund.to_bits(), a.consumed.to_bits()]),
            );
        let trace = pdftsp_telemetry::chrome::render_trace(spans);
        RunDigest {
            welfare_bits: welfare.social_welfare.to_bits(),
            payment_bits: welfare.payments.to_bits(),
            refund_bits: welfare.refunds.to_bits(),
            ledger_digest,
            decision_fingerprint: words.fold(SEED, |h, w| fnv1a(h, &w.to_le_bytes())),
            span_stream_fnv: fnv1a(SEED, trace.as_bytes()),
        }
    }
}

/// The digest's fields as JSON members (`"welfare_bits": "…", …`), hex
/// strings in field order — the form the BENCH artifacts and the golden
/// digest file record.
impl std::fmt::Display for RunDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            concat!(
                "\"welfare_bits\": \"{:016x}\", \"payment_bits\": \"{:016x}\", ",
                "\"refund_bits\": \"{:016x}\", \"ledger_digest\": \"{:016x}\", ",
                "\"decision_fingerprint\": \"{:016x}\", \"span_stream_fnv\": \"{:016x}\""
            ),
            self.welfare_bits,
            self.payment_bits,
            self.refund_bits,
            self.ledger_digest,
            self.decision_fingerprint,
            self.span_stream_fnv
        )
    }
}

/// One capacity-ledger mutation performed during a (possibly sharded)
/// faulted run, recorded in application order.
///
/// [`FaultLoop`] records every mutation it makes to its scheduler's
/// ledger. The single-process run discards the log; the sharded auction
/// service (`crate::service`) has its phase-2 coordinator replay each
/// shard's log — node ids remapped to global — against the data-center
/// ledger in deterministic epoch order. Because shards own
/// disjoint node ranges, the replay reproduces the shard ledgers exactly
/// (the service asserts the mirror cell-for-cell).
#[derive(Debug, Clone)]
pub(crate) enum LedgerOp {
    /// An admission (or recovery re-admission) committed `schedule`.
    Commit {
        /// Task whose rates/memory the commit charges.
        task: TaskId,
        /// The committed placements.
        schedule: Schedule,
    },
    /// A disruption released a task's not-yet-executed placements.
    Release {
        /// Task whose rates/memory the release returns.
        task: TaskId,
        /// The released `(node, slot)` cells.
        placements: Vec<(NodeId, Slot)>,
    },
    /// A crash quarantined all residual capacity on `node` from `from`.
    Quarantine {
        /// The crashed node.
        node: NodeId,
        /// First held slot.
        from: Slot,
    },
    /// A recovery lifted the quarantine on `node`.
    Lift {
        /// The recovered node.
        node: NodeId,
    },
    /// A degradation reserved `frac` of per-cell capacity from `from`.
    Degrade {
        /// The degraded node.
        node: NodeId,
        /// First degraded slot.
        from: Slot,
        /// Reserved capacity fraction in `[0, 1]`.
        frac: f64,
    },
}

/// Per-task progress through the faulted run.
#[derive(Debug, Clone)]
pub(crate) enum TaskState {
    /// Not yet arrived.
    Pending,
    /// Rejected at arrival (original decision kept).
    Rejected(Decision),
    /// Admitted and so far on track; `schedule` is the current committed
    /// plan (recovery-merged after a disruption), `payment` the original
    /// admission charge.
    Active {
        schedule: Schedule,
        payment: f64,
        decide_seconds: f64,
    },
    /// Disrupted and not recoverable; settled with a refund.
    Aborted { decide_seconds: f64 },
}

/// Runs pdFTSP over `scenario` with `plan`'s faults injected between
/// arrivals, recovering disrupted tasks through the auction. Returns the
/// run outcome and the scheduler (final duals, ledger, counters).
///
/// Fault events at slot `s` apply before slot-`s` arrivals, so arriving
/// tasks bid against the post-fault cluster. This drives the same
/// `FaultLoop` the sharded service's shards run, one slot at a time.
///
/// # Errors
/// [`FaultPlanError`] when `plan` fails [`FaultPlan::validate`].
pub fn run_pdftsp_with_faults(
    scenario: &Scenario,
    config: PdftspConfig,
    plan: &FaultPlan,
    telemetry: Telemetry,
) -> Result<(FaultRunResult, Pdftsp), FaultPlanError> {
    plan.validate(scenario)?;
    let pdftsp = Pdftsp::with_telemetry(scenario, config, telemetry);
    let mut run = FaultLoop::new(
        pdftsp,
        scenario.tasks.len(),
        plan.events.clone(),
        (0..scenario.tasks.len()).collect(),
    );
    // One slot per step keeps the op log (which only the sharded
    // service's two-phase commit reads) from growing with the run.
    let (mut ops, mut decided) = (Vec::new(), Vec::new());
    for slot in 0..scenario.horizon {
        ops.clear();
        decided.clear();
        run.advance(scenario, slot..slot + 1, &mut ops, &mut decided);
    }
    debug_assert_eq!(run.queued(), 0, "tasks outside horizon");

    let (decisions, welfare) = settle(scenario, &run.states, &run.aborted);
    Ok((
        FaultRunResult {
            decisions,
            plan: plan.clone(),
            disrupted: run.disrupted,
            recovered: run.recovered,
            aborted: run.aborted,
            welfare,
        },
        run.pdftsp,
    ))
}

/// The one pdFTSP execution loop under faults: per slot, the slot's
/// fault events in plan order (recoveries, then degradations, then
/// crashes), then the slot's arrivals in id order through
/// [`Pdftsp::decide`]. The single-process [`run_pdftsp_with_faults`]
/// drives it over the whole horizon; each shard of the sharded service
/// owns one (with shard-local node ids and its routed arrivals) and
/// drives it one epoch at a time.
pub(crate) struct FaultLoop {
    pub(crate) pdftsp: Pdftsp,
    /// Per-task progress, indexed by task id.
    pub(crate) states: Vec<TaskState>,
    pub(crate) aborted: Vec<AbortedTask>,
    /// Fault events in [`FaultEvent::order`] (checked by
    /// [`FaultPlan::validate`]), consumed through a cursor.
    events: Vec<FaultEvent>,
    next_event: usize,
    /// Task ids in (arrival, id) order, consumed through a cursor.
    arrivals: Vec<TaskId>,
    next_arrival: usize,
    pub(crate) disrupted: usize,
    pub(crate) recovered: usize,
}

impl FaultLoop {
    /// A loop over `tasks` task states, applying `events` and deciding
    /// `arrivals`.
    pub(crate) fn new(
        pdftsp: Pdftsp,
        tasks: usize,
        events: Vec<FaultEvent>,
        arrivals: Vec<TaskId>,
    ) -> FaultLoop {
        FaultLoop {
            pdftsp,
            states: vec![TaskState::Pending; tasks],
            aborted: Vec::new(),
            events,
            next_event: 0,
            arrivals,
            next_arrival: 0,
            disrupted: 0,
            recovered: 0,
        }
    }

    /// Arrivals this loop decides over the whole run.
    pub(crate) fn arrivals(&self) -> usize {
        self.arrivals.len()
    }

    /// Arrivals not decided yet.
    pub(crate) fn queued(&self) -> usize {
        self.arrivals.len() - self.next_arrival
    }

    /// Processes `slots` in order, appending every ledger mutation to
    /// `ops` and every decided task id to `decided`.
    pub(crate) fn advance(
        &mut self,
        scenario: &Scenario,
        slots: std::ops::Range<Slot>,
        ops: &mut Vec<LedgerOp>,
        decided: &mut Vec<TaskId>,
    ) {
        for slot in slots {
            while self.next_event < self.events.len() && self.events[self.next_event].slot() == slot
            {
                match self.events[self.next_event] {
                    FaultEvent::NodeUp { node, slot } => {
                        self.pdftsp.restore_node(node, slot);
                        ops.push(LedgerOp::Lift { node });
                    }
                    FaultEvent::Degrade { node, slot, frac } => {
                        self.pdftsp.degrade_node(node, slot, frac);
                        ops.push(LedgerOp::Degrade {
                            node,
                            from: slot,
                            frac,
                        });
                    }
                    FaultEvent::NodeDown { node, slot } => {
                        let (d, r) = handle_crash(
                            &mut self.pdftsp,
                            scenario,
                            &mut self.states,
                            &mut self.aborted,
                            node,
                            slot,
                            ops,
                        );
                        self.disrupted += d;
                        self.recovered += r;
                    }
                }
                self.next_event += 1;
            }
            while self.next_arrival < self.arrivals.len()
                && scenario.tasks[self.arrivals[self.next_arrival]].arrival == slot
            {
                let id = self.arrivals[self.next_arrival];
                let decision = self.pdftsp.decide(&scenario.tasks[id], scenario);
                self.states[id] = match decision.outcome {
                    AuctionOutcome::Admitted {
                        ref schedule,
                        payment,
                    } => {
                        ops.push(LedgerOp::Commit {
                            task: id,
                            schedule: schedule.clone(),
                        });
                        TaskState::Active {
                            schedule: schedule.clone(),
                            payment,
                            decide_seconds: decision.decide_seconds,
                        }
                    }
                    AuctionOutcome::Rejected(_) => TaskState::Rejected(decision),
                };
                decided.push(id);
                self.next_arrival += 1;
            }
        }
    }
}

/// Crash recovery: release disrupted suffixes, quarantine the node, then
/// resubmit every disrupted task's remnant through the auction. Returns
/// `(disruptions, recoveries)`. Every ledger mutation is also appended
/// to `ops` so the sharded service can replay it against the global
/// ledger.
fn handle_crash(
    pdftsp: &mut Pdftsp,
    scenario: &Scenario,
    states: &mut [TaskState],
    aborted: &mut Vec<AbortedTask>,
    node: NodeId,
    slot: Slot,
    ops: &mut Vec<LedgerOp>,
) -> (usize, usize) {
    // Disrupted = active with presence on the dead node at or after the
    // failure. Their whole tail (slot ≥ failure, on *every* node) is
    // re-auctioned: a suspended remainder on a healthy node alone may no
    // longer be the surplus-maximizing plan at the new prices.
    let mut splits: Vec<(TaskId, Vec<(NodeId, Slot)>)> = Vec::new();
    for (id, st) in states.iter().enumerate() {
        if let TaskState::Active { schedule, .. } = st {
            if schedule
                .placements
                .iter()
                .any(|&(k, t)| k == node && t >= slot)
            {
                let (prefix, tail): (Vec<_>, Vec<_>) =
                    schedule.placements.iter().partition(|&&(_, t)| t < slot);
                pdftsp
                    .release_placements(&scenario.tasks[id], &tail)
                    .expect("releasing placements this run committed");
                ops.push(LedgerOp::Release {
                    task: id,
                    placements: tail,
                });
                splits.push((id, prefix));
            }
        }
    }
    // Quarantine AFTER the releases so the freed capacity is inside the
    // hold — a down node must offer nothing, not its victims' leftovers.
    pdftsp.quarantine_node(node, slot);
    ops.push(LedgerOp::Quarantine { node, from: slot });

    let disrupted = splits.len();
    let mut recovered = 0usize;
    for (id, prefix) in splits {
        let task = &scenario.tasks[id];
        let TaskState::Active {
            schedule,
            payment,
            decide_seconds,
        } = states[id].clone()
        else {
            unreachable!("splits only collects active tasks");
        };
        let prefix_sched = Schedule::new(id, schedule.vendor, prefix);
        let done = prefix_sched.work_done(task);
        if done >= task.work {
            // The crash only took slots the task no longer needed.
            states[id] = TaskState::Active {
                schedule: prefix_sched,
                payment,
                decide_seconds,
            };
            recovered += 1;
            continue;
        }
        // Remnant: remaining work, preprocessing already done, can start
        // no earlier than the failure (and never before the original
        // preprocessing completed).
        let mut remnant = task.clone();
        remnant.arrival = slot.max(schedule.earliest_start(task));
        remnant.needs_preprocessing = false;
        remnant.work = task.work - done;
        remnant.dataset_samples = remnant.work;
        remnant.epochs = 1;
        // Recovery is provider-absorbed: the original payment stands and
        // the remnant auction's payment is never charged, so a budget
        // cap must not veto the readmission (the bidder's cumulative
        // spend does not change on recovery).
        remnant.budget = None;
        let readmitted = if remnant.arrival <= remnant.deadline {
            match pdftsp.resubmit(&remnant, scenario, slot).outcome {
                AuctionOutcome::Admitted { schedule, .. } => Some(schedule),
                AuctionOutcome::Rejected(_) => None,
            }
        } else {
            // The deadline passed during the outage: no auction to run,
            // but the disruption is still on the record.
            let c = &pdftsp.telemetry().counters;
            c.bump(&c.tasks_resubmitted, 1);
            pdftsp.telemetry().emit(|| Event::TaskResubmitted {
                task: id,
                slot,
                remaining_work: remnant.work,
                admitted: false,
            });
            None
        };
        match readmitted {
            Some(tail) => {
                ops.push(LedgerOp::Commit {
                    task: id,
                    schedule: tail.clone(),
                });
                // Merge: executed prefix + re-admitted tail under the
                // original vendor quote (prefix slots < failure ≤ tail
                // slots, so no duplicates; Schedule::new re-sorts).
                let merged: Vec<(NodeId, Slot)> = prefix_sched
                    .placements
                    .iter()
                    .chain(tail.placements.iter())
                    .copied()
                    .collect();
                states[id] = TaskState::Active {
                    schedule: Schedule::new(id, schedule.vendor, merged),
                    payment,
                    decide_seconds,
                };
                recovered += 1;
            }
            None => {
                let prefix_energy = prefix_sched.energy_cost(task, &scenario.cost);
                let (refund, consumed) = pdftsp
                    .issue_refund(task, slot, &prefix_sched, prefix_energy)
                    .expect("aborted task was admitted, so a record exists");
                aborted.push(AbortedTask {
                    task: id,
                    slot,
                    prefix: prefix_sched,
                    refund,
                    consumed,
                    prefix_energy,
                });
                states[id] = TaskState::Aborted { decide_seconds };
            }
        }
    }
    // One `fault_recover` span for the whole recovery pass (deterministic
    // id/timestamp from shard/node/slot), then — with a flight recorder
    // behind the sink — dump the ring so the crash post-mortem includes
    // the NodeDown, releases, resubmissions and refunds just recorded.
    let tel = pdftsp.telemetry();
    if tel.is_enabled() {
        tel.emit(|| {
            Event::Span(Span::fault_recover(
                tel.spans.shard(),
                tel.spans.epoch(),
                node,
                slot,
            ))
        });
        if let Some(fr) = tel.sink().flight() {
            let _ = fr.dump();
        }
    }
    (disrupted, recovered)
}

/// Final decision list and refund-adjusted welfare.
pub(crate) fn settle(
    scenario: &Scenario,
    states: &[TaskState],
    aborted: &[AbortedTask],
) -> (Vec<Decision>, FaultWelfare) {
    let mut decisions = Vec::with_capacity(states.len());
    let mut completed_bid_value = 0.0;
    let mut payments = 0.0;
    let mut vendor_cost = 0.0;
    let mut energy_cost = 0.0;
    let mut user_utility = 0.0;
    let mut completed = 0usize;
    let mut rejected = 0usize;
    for (id, st) in states.iter().enumerate() {
        let task = &scenario.tasks[id];
        match st {
            TaskState::Pending => unreachable!("every task arrives within the horizon"),
            TaskState::Rejected(d) => {
                rejected += 1;
                decisions.push(d.clone());
            }
            TaskState::Active {
                schedule,
                payment,
                decide_seconds,
            } => {
                completed += 1;
                completed_bid_value += task.bid;
                payments += payment;
                vendor_cost += schedule.vendor.price;
                energy_cost += schedule.energy_cost(task, &scenario.cost);
                user_utility += task.bid - payment;
                decisions.push(Decision::admitted(
                    id,
                    schedule.clone(),
                    *payment,
                    *decide_seconds,
                ));
            }
            TaskState::Aborted { decide_seconds } => {
                decisions.push(Decision::rejected(
                    id,
                    Rejection::InsufficientCapacity,
                    *decide_seconds,
                ));
            }
        }
    }
    let mut refunds = 0.0;
    for a in aborted {
        let rec_payment = a.refund + a.consumed; // = original payment
        payments += rec_payment;
        refunds += a.refund;
        vendor_cost += a.prefix.vendor.price;
        energy_cost += a.prefix_energy;
        user_utility -= a.consumed;
    }
    let social_welfare = completed_bid_value - vendor_cost - energy_cost;
    let provider_utility = payments - refunds - vendor_cost - energy_cost;
    let welfare = FaultWelfare {
        completed_bid_value,
        payments,
        refunds,
        vendor_cost,
        energy_cost,
        social_welfare,
        provider_utility,
        user_utility,
        completed,
        aborted: aborted.len(),
        rejected,
    };
    (decisions, welfare)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_workload::ScenarioBuilder;

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        let s = FaultSpec::parse("crashes=3, outage=4, degrade=0.25, seed=9").unwrap();
        assert_eq!(
            s,
            FaultSpec {
                crashes: 3,
                outage: 4,
                degrade: 0.25,
                seed: 9
            }
        );
        assert!(FaultSpec::parse("crashes").is_err());
        assert!(FaultSpec::parse("crashes=x").is_err());
        assert!(FaultSpec::parse("degrade=1.5").is_err());
        assert!(FaultSpec::parse("nodes=2").is_err());
    }

    #[test]
    fn plans_are_deterministic_and_non_overlapping() {
        let sc = ScenarioBuilder::smoke(11).build();
        let spec = FaultSpec {
            crashes: 6,
            outage: 3,
            degrade: 0.2,
            seed: 5,
        };
        let a = FaultPlan::generate(&sc, &spec);
        let b = FaultPlan::generate(&sc, &spec);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        // Sorted by slot; downs pair with at most one later up per node.
        let mut last = 0;
        for e in &a.events {
            assert!(e.slot() >= last);
            last = e.slot();
        }
        for (i, e) in a.events.iter().enumerate() {
            if let FaultEvent::NodeDown { node, slot } = *e {
                // No second down for the same node before its recovery.
                let recover = a.events.iter().find_map(|x| match *x {
                    FaultEvent::NodeUp { node: n, slot: s } if n == node && s > slot => Some(s),
                    _ => None,
                });
                let window_end = recover.unwrap_or(sc.horizon);
                for later in &a.events[i + 1..] {
                    if let FaultEvent::NodeDown { node: n, slot: s } = *later {
                        assert!(
                            n != node || s > window_end,
                            "overlapping crash on node {node}"
                        );
                    }
                }
            }
        }
        // Different seed → different plan (with overwhelming probability
        // on this many draws; pinned seeds keep it deterministic).
        let c = FaultPlan::generate(&sc, &FaultSpec { seed: 6, ..spec });
        assert_ne!(a, c);
    }

    #[test]
    fn faulted_run_settles_and_balances() {
        let sc = ScenarioBuilder::smoke(31).build();
        let spec = FaultSpec {
            crashes: 3,
            outage: 4,
            degrade: 0.0,
            seed: 17,
        };
        let plan = FaultPlan::generate(&sc, &spec);
        let (r, pdftsp) =
            run_pdftsp_with_faults(&sc, PdftspConfig::default(), &plan, Telemetry::disabled())
                .unwrap();
        assert_eq!(r.decisions.len(), sc.tasks.len());
        assert_eq!(
            r.welfare.completed + r.welfare.aborted + r.welfare.rejected,
            sc.tasks.len()
        );
        // Welfare identity under refunds.
        assert!(
            (r.welfare.social_welfare - (r.welfare.user_utility + r.welfare.provider_utility))
                .abs()
                < 1e-9
        );
        // Per-abort settlement: refund + consumed = original charge ≥ 0.
        for a in &r.aborted {
            assert!(a.refund >= 0.0 && a.consumed >= 0.0, "task {}", a.task);
        }
        let c = &pdftsp.telemetry().counters;
        assert_eq!(c.read(&c.node_failures) as usize, plan_downs(&plan));
        assert!(c.read(&c.tasks_resubmitted) >= r.aborted.len() as u64);
    }

    /// Each malformed plan is refused before the run starts, with the
    /// offending event's position.
    #[test]
    fn malformed_plans_are_rejected() {
        let sc = ScenarioBuilder::smoke(31).build();
        let (nodes, horizon) = (sc.nodes.len(), sc.horizon);
        let cases = [
            (
                vec![FaultEvent::NodeDown {
                    node: nodes,
                    slot: 3,
                }],
                FaultPlanError::NodeOutOfRange {
                    index: 0,
                    node: nodes,
                    nodes,
                },
            ),
            (
                vec![
                    FaultEvent::NodeDown { node: 0, slot: 2 },
                    FaultEvent::NodeUp {
                        node: 0,
                        slot: horizon,
                    },
                ],
                FaultPlanError::SlotOutOfRange {
                    index: 1,
                    slot: horizon,
                    horizon,
                },
            ),
            (
                vec![
                    FaultEvent::NodeDown { node: 1, slot: 5 },
                    FaultEvent::NodeDown { node: 0, slot: 2 },
                ],
                FaultPlanError::Unsorted { index: 1 },
            ),
            (
                // Same slot: a recovery must come before a crash.
                vec![
                    FaultEvent::NodeDown { node: 0, slot: 4 },
                    FaultEvent::NodeUp { node: 1, slot: 4 },
                ],
                FaultPlanError::Unsorted { index: 1 },
            ),
        ];
        for (events, expected) in cases {
            let plan = FaultPlan { events };
            assert_eq!(plan.validate(&sc), Err(expected.clone()));
            let run =
                run_pdftsp_with_faults(&sc, PdftspConfig::default(), &plan, Telemetry::disabled());
            assert_eq!(run.err(), Some(expected));
        }
        let generated = FaultPlan::generate(
            &sc,
            &FaultSpec {
                crashes: 6,
                outage: 3,
                degrade: 0.2,
                seed: 5,
            },
        );
        assert_eq!(generated.validate(&sc), Ok(()));
    }

    fn plan_downs(plan: &FaultPlan) -> usize {
        plan.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::NodeDown { .. }))
            .count()
    }
}
