//! The two workloads: their inputs, made from the seed, and the passes
//! that drive the library over them.
//!
//! * `service_day` — a ~100k-task Poisson day through the 2-shard
//!   [`AuctionService`], unpaced and open loop;
//! * `multi_vendor_market` — one [`Pdftsp`] scheduler driven task by
//!   task, ten vendors, every task pre-processed.
//!
//! The spot market ([`spot_spec`], [`lease_plan`]) is not a workload of
//! its own; the traced run probes the spot transform and the fault path
//! with it on both workloads' inputs.
//!
//! Every pass checks its outputs with [`crate::checks`] outside its
//! timed intervals.

use crate::checks::{self, DualWindow, Verdict, Violation};
use crate::trace::Tracer;
use pdftsp_cluster::CapacityLedger;
use pdftsp_core::{DeltaGrid, DpBuffers, DpContext, Pdftsp, PdftspConfig};
use pdftsp_sim::{
    lease_fault_plan, timeline, AuctionService, FaultPlan, ServiceConfig, ServiceOutcome,
    WelfareReport,
};
use pdftsp_telemetry::Telemetry;
use pdftsp_types::{Decision, Scenario, Slot};
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder, SpotSpec};
use std::time::{Duration, Instant};

/// Shards of the auction service (one per core of a 2-core host).
pub const SHARDS: usize = 2;
/// Scenario slots batched into one admission epoch.
pub const EPOCH_SLOTS: usize = 4;
/// Open-loop arrival rate of `service_day`, tasks per second: about half
/// the unpaced capacity of the 2-shard service on a 2-core host, so the
/// queue stays bounded and latency measures the service, not a backlog.
pub const OPEN_LOOP_RATE: f64 = 16_000.0;
/// Arrival slots the core-layer probe decides on the service workloads.
pub const CORE_PROBE_SLOTS: Slot = 24;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~100k tasks through the 2-shard service.
    ServiceDay,
    /// One scheduler, ten vendors, driven task by task.
    MultiVendorMarket,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServiceDay, Workload::MultiVendorMarket];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServiceDay => "service_day",
            Workload::MultiVendorMarket => "multi_vendor_market",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario generator, before any spot transform.
    #[must_use]
    pub fn builder(self, seed: u64) -> ScenarioBuilder {
        let (horizon, num_nodes, mean_per_slot, num_vendors, preprocessing_prob) = match self {
            Workload::ServiceDay => (1152, 96, 90.0, 5, 0.5),
            Workload::MultiVendorMarket => (576, 48, 40.0, 10, 1.0),
        };
        ScenarioBuilder {
            horizon,
            num_nodes,
            arrivals: ArrivalProcess::Poisson { mean_per_slot },
            num_vendors,
            preprocessing_prob,
            seed,
            ..ScenarioBuilder::default()
        }
    }
}

/// The spot market the traced run probes with (prices, budgets, leases
/// and prediction, as `serve-sim --spot` sets it up), seeded apart from
/// the scenario.
#[must_use]
pub fn spot_spec(seed: u64) -> SpotSpec {
    SpotSpec {
        jump_prob: 0.10,
        jump_mag: 1.5,
        revert: 0.35,
        diurnal: 0.4,
        leases: 64,
        lease_len: 8,
        budget_frac: 0.6,
        lookahead: 6,
        gain: 0.5,
        seed: seed ^ 0x5707_5EED,
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The scenario the program receives.
    pub scenario: Scenario,
    /// Faults the service runs under (none on the benchmarked workloads).
    pub plan: FaultPlan,
    /// Scheduler configuration.
    pub scheduler: PdftspConfig,
}

/// Generates `workload`'s inputs from `seed`, with a span around the
/// scenario build.
#[must_use]
pub fn inputs(workload: Workload, seed: u64, tracer: &mut Tracer) -> Inputs {
    let builder = workload.builder(seed);
    Inputs {
        scenario: tracer.span("workload.build", || builder.build()),
        plan: FaultPlan::none(),
        scheduler: PdftspConfig::default(),
    }
}

/// `spec`'s lease revocations over `scenario`'s cluster as a fault plan.
#[must_use]
pub fn lease_plan(scenario: &Scenario, spec: &SpotSpec, tracer: &mut Tracer) -> FaultPlan {
    let leases = tracer.span("workload.lease_plan", || {
        spec.lease_plan(scenario.nodes.len(), scenario.horizon)
    });
    tracer.span("sim.spot.lease_fault_plan", || {
        lease_fault_plan(&leases, scenario.horizon)
    })
}

/// One committed epoch as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct EpochTiming {
    /// Wall seconds of the `run_epoch` call.
    pub secs: f64,
    /// Ledger ops the epoch committed.
    pub ops: usize,
    /// Whether a fault-plan event fell in the epoch's slots.
    pub fault: bool,
}

/// One service run, from `AuctionService::new` to `finish`.
pub struct ServicePass {
    /// The settled outcome (`None` when the service returned an error).
    pub outcome: Option<ServiceOutcome>,
    /// Seconds spent in `AuctionService::new`.
    pub new_s: f64,
    /// Seconds from the first `run_epoch` call to the return of `finish`.
    pub run_s: f64,
    /// Seconds spent in `finish`.
    pub finish_s: f64,
    /// Every epoch, in order.
    pub epochs: Vec<EpochTiming>,
    /// Per-task admission latency, ms: from the task's due instant (open
    /// loop) or the start of its `run_epoch` call (unpaced) to the
    /// return of that call.
    pub admission_ms: Vec<f64>,
    /// Open loop: how late the last epoch returned after the last task
    /// was due, seconds (0 unpaced).
    pub lag_s: f64,
    /// Tasks the pass decided (the scenario's task count).
    pub attempted: usize,
    /// What the checks found.
    pub verdict: Verdict,
}

impl ServicePass {
    /// Decisions per second over `run_s`.
    #[must_use]
    pub fn decisions_per_s(&self) -> f64 {
        self.attempted as f64 / self.run_s.max(1e-12)
    }

    /// Per-decision `decide` latencies the shard schedulers measured, µs.
    #[must_use]
    pub fn decide_us(&self) -> Vec<f64> {
        self.outcome.as_ref().map_or_else(Vec::new, |o| {
            o.decisions.iter().map(|d| d.decide_seconds * 1e6).collect()
        })
    }

    /// Decision fingerprint (0 without an outcome).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.outcome
            .as_ref()
            .map_or(0, |o| checks::fingerprint(&o.decisions))
    }
}

/// A service built for a pass, with its construction time.
pub struct Built {
    service: AuctionService,
    new_s: f64,
    /// When `new` returned: the open loop's time zero.
    ready: Instant,
    rate: Option<f64>,
}

/// Builds the 2-shard service over `inputs`, open loop at `rate` when
/// given.
///
/// # Errors
/// The service's construction error, as a message.
pub fn build_service(
    inputs: &Inputs,
    plan: &FaultPlan,
    rate: Option<f64>,
    tracer: &mut Tracer,
) -> Result<Built, String> {
    let cfg = ServiceConfig {
        shards: SHARDS,
        epoch_slots: EPOCH_SLOTS,
        open_loop_rate: rate,
        scheduler: inputs.scheduler,
        ..ServiceConfig::default()
    };
    let start = Instant::now();
    let service = tracer
        .span("sim.service.new", || {
            AuctionService::new(&inputs.scenario, cfg, plan)
        })
        .map_err(|e| format!("AuctionService::new: {e}"))?;
    let ready = Instant::now();
    Ok(Built {
        service,
        new_s: (ready - start).as_secs_f64(),
        ready,
        rate,
    })
}

/// Drives `built` through every epoch and `finish`, then checks the
/// outcome against `inputs` and `plan`.
pub fn drive_service(
    built: Built,
    inputs: &Inputs,
    plan: &FaultPlan,
    tracer: &mut Tracer,
) -> ServicePass {
    let Built {
        mut service,
        new_s,
        ready,
        rate,
    } = built;
    let tasks = &inputs.scenario.tasks;
    let mut pass = ServicePass {
        outcome: None,
        new_s,
        run_s: 0.0,
        finish_s: 0.0,
        epochs: Vec::new(),
        admission_ms: Vec::with_capacity(tasks.len()),
        lag_s: 0.0,
        attempted: tasks.len(),
        verdict: Verdict::default(),
    };
    let due = |id: usize| rate.map(|r| ready + Duration::from_secs_f64(id as f64 / r));
    let mut next_task = 0usize;
    let mut last_return = ready;
    let run_start = Instant::now();
    while !service.is_done() {
        let call = Instant::now();
        let report = tracer.span("sim.service.run_epoch", || service.run_epoch());
        let ret = Instant::now();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                pass.verdict.extend([Violation::ProgramError {
                    message: format!("run_epoch: {e}"),
                }]);
                return pass;
            }
        };
        last_return = ret;
        // Tasks are numbered in arrival order, so the epoch decided the
        // contiguous run arriving before its end slot.
        let first = next_task;
        while next_task < tasks.len() && tasks[next_task].arrival < report.end_slot {
            next_task += 1;
        }
        if report.decided != next_task - first {
            pass.verdict.extend([Violation::EpochMismatch {
                epoch: report.epoch,
                decided: report.decided,
                arrived: next_task - first,
            }]);
        }
        for id in first..next_task {
            let from = due(id).unwrap_or(call);
            pass.admission_ms
                .push(ret.saturating_duration_since(from).as_secs_f64() * 1e3);
        }
        let fault = plan
            .events
            .iter()
            .any(|e| (report.first_slot..report.end_slot).contains(&e.slot()));
        pass.epochs.push(EpochTiming {
            secs: (ret - call).as_secs_f64(),
            ops: report.ops,
            fault,
        });
    }
    if let Some(last_due) = tasks.len().checked_sub(1).and_then(due) {
        pass.lag_s = last_return
            .saturating_duration_since(last_due)
            .as_secs_f64();
    }
    let finish_start = Instant::now();
    let outcome = tracer.span("sim.service.finish", || service.finish());
    let end = Instant::now();
    pass.finish_s = (end - finish_start).as_secs_f64();
    pass.run_s = (end - run_start).as_secs_f64();
    match outcome {
        Ok(outcome) => {
            let check = tracer.enter("bench.check");
            pass.verdict
                .extend(check_service(&inputs.scenario, &outcome));
            tracer.exit(check);
            pass.outcome = Some(outcome);
        }
        Err(e) => pass.verdict.extend([Violation::ProgramError {
            message: format!("finish: {e}"),
        }]),
    }
    pass
}

/// Checks a settled service outcome: every task decided once, schedules
/// and settlements valid, capacity respected, welfare re-derived.
#[must_use]
fn check_service(scenario: &Scenario, outcome: &ServiceOutcome) -> Vec<Violation> {
    let mut out = checks::decided_once(
        scenario.tasks.len(),
        outcome.decisions.iter().map(|d| d.task),
    );
    for d in &outcome.decisions {
        out.extend(checks::admitted_decision(scenario, d));
    }
    for a in &outcome.aborted {
        out.extend(checks::aborted_settlement(scenario, a));
    }
    out.extend(checks::capacity(
        scenario,
        &outcome.decisions,
        &outcome.aborted,
    ));
    out.extend(checks::welfare_matches(
        outcome.welfare.social_welfare,
        checks::welfare(scenario, &outcome.decisions, &outcome.aborted),
    ));
    out
}

/// The scheduler's hot-path counters after a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounts {
    pub decisions: u64,
    pub admitted: u64,
    pub vendors_seen: u64,
    pub vendors_pruned: u64,
    pub vendors_memoized: u64,
    pub dp_runs: u64,
    pub dp_cells: u64,
    pub grid_builds: u64,
    pub dual_updates: u64,
}

impl CoreCounts {
    fn read(p: &Pdftsp) -> CoreCounts {
        let c = &p.telemetry().counters;
        CoreCounts {
            decisions: c.read(&c.decisions),
            admitted: c.read(&c.admitted),
            vendors_seen: c.read(&c.vendors_seen),
            vendors_pruned: c.read(&c.vendors_pruned),
            vendors_memoized: c.read(&c.vendors_memoized),
            dp_runs: c.read(&c.dp_runs),
            dp_cells: c.read(&c.dp_cells),
            grid_builds: c.read(&c.grid_builds),
            dual_updates: c.read(&c.dual_updates),
        }
    }
}

/// One scheduler driven task by task.
pub struct MarketPass {
    /// One decision per task driven, in arrival order.
    pub decisions: Vec<Decision>,
    /// Each `decide` call's wall time, µs, timed by the benchmark.
    pub decide_us: Vec<f64>,
    /// Seconds inside `decide` calls (dual capture and checks excluded).
    pub busy_s: f64,
    /// Wall seconds of the whole pass, captures and checks included.
    pub wall_s: f64,
    /// Shadow `DeltaGrid::build` per arrival, µs (empty unless shadowed).
    pub grid_us: Vec<f64>,
    /// Shadow `find_schedule_on_grid` per candidate start, µs.
    pub dp_us: Vec<f64>,
    /// The scheduler's counters at the end of the pass.
    pub counts: CoreCounts,
    /// Social welfare the library reports for the decisions
    /// (`WelfareReport`).
    pub welfare: f64,
    /// What the checks found.
    pub verdict: Verdict,
}

impl MarketPass {
    /// Decisions per second of scheduler busy time.
    #[must_use]
    pub fn decisions_per_s(&self) -> f64 {
        self.decisions.len() as f64 / self.busy_s.max(1e-12)
    }
}

/// A scheduler over `inputs`, telemetry off (its counters still run).
#[must_use]
pub fn new_scheduler(inputs: &Inputs, tracer: &mut Tracer) -> Pdftsp {
    tracer.span("core.new", || {
        Pdftsp::with_telemetry(&inputs.scenario, inputs.scheduler, Telemetry::disabled())
    })
}

/// Drives `pdftsp` over the first `count` tasks of `inputs`, one
/// `decide` per task. Before each call the benchmark copies the duals
/// over the task's window (for the Eq. (14) check) and, with `shadow`,
/// times a shadow grid build and one shadow DP per candidate start
/// against the scheduler's current duals and ledger.
pub fn drive_market(
    mut pdftsp: Pdftsp,
    inputs: &Inputs,
    count: usize,
    shadow: bool,
    tracer: &mut Tracer,
) -> MarketPass {
    let scenario = &inputs.scenario;
    let compute_unit = inputs.scheduler.compute_unit;
    let mut pass = MarketPass {
        decisions: Vec::with_capacity(count),
        decide_us: Vec::with_capacity(count),
        busy_s: 0.0,
        wall_s: 0.0,
        grid_us: Vec::new(),
        dp_us: Vec::new(),
        counts: CoreCounts::default(),
        welfare: 0.0,
        verdict: Verdict::default(),
    };
    let mut window = DualWindow::default();
    let mut grid = DeltaGrid::default();
    let mut bufs = DpBuffers::default();
    let mut starts: Vec<Slot> = Vec::new();
    let wall = Instant::now();
    for task in &scenario.tasks[..count] {
        window.capture(pdftsp.duals(), task);
        if shadow {
            let ctx = DpContext {
                scenario,
                duals: pdftsp.duals(),
                ledger: Some(pdftsp.ledger()),
                compute_unit,
                telemetry: None,
            };
            let t = Instant::now();
            tracer.span("core.grid_build", || grid.build(&ctx, task, task.arrival));
            pass.grid_us.push(t.elapsed().as_secs_f64() * 1e6);
            starts.clear();
            if task.needs_preprocessing {
                starts.extend(
                    scenario.quotes[task.id]
                        .iter()
                        .map(|q| task.arrival + q.delay),
                );
            } else {
                starts.push(task.arrival);
            }
            starts.sort_unstable();
            starts.dedup();
            for &start in &starts {
                let t = Instant::now();
                let dp = tracer.span("core.dp", || {
                    pdftsp_core::find_schedule_on_grid(&ctx, task, start, &grid, &mut bufs)
                });
                pass.dp_us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(dp);
            }
        }
        let t = Instant::now();
        let decision = tracer.span("core.decide", || pdftsp.decide(task, scenario));
        let secs = t.elapsed().as_secs_f64();
        pass.busy_s += secs;
        pass.decide_us.push(secs * 1e6);
        pass.verdict
            .extend(checks::eq14(scenario, &decision, &window, compute_unit));
        pass.verdict
            .extend(checks::admitted_decision(scenario, &decision));
        pass.decisions.push(decision);
    }
    pass.wall_s = wall.elapsed().as_secs_f64();
    pass.counts = CoreCounts::read(&pdftsp);
    let check = tracer.enter("bench.check");
    pass.verdict.extend(checks::decided_once(
        count,
        pass.decisions.iter().map(|d| d.task),
    ));
    pass.verdict
        .extend(checks::capacity(scenario, &pass.decisions, &[]));
    pass.welfare = WelfareReport::compute(scenario, &pass.decisions).social_welfare;
    pass.verdict.extend(checks::welfare_matches(
        pass.welfare,
        checks::welfare(scenario, &pass.decisions, &[]),
    ));
    tracer.exit(check);
    pass
}

/// Commits every admitted schedule of `decisions` onto a fresh ledger,
/// timing each commit (µs). A refused commit is a capacity violation.
pub fn ledger_commits(
    scenario: &Scenario,
    decisions: &[Decision],
    tracer: &mut Tracer,
) -> (Vec<f64>, Vec<Violation>) {
    let mut ledger = CapacityLedger::new(scenario);
    let mut times = Vec::new();
    let mut bad = Vec::new();
    let open = tracer.enter("cluster.ledger_commit");
    for d in decisions {
        let Some(schedule) = d.schedule() else {
            continue;
        };
        let task = &scenario.tasks[d.task];
        let t = Instant::now();
        let result = ledger.commit(task, schedule);
        times.push(t.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = result {
            bad.push(Violation::ProgramError {
                message: format!("fresh-ledger commit of task {}: {e}", d.task),
            });
        }
    }
    tracer.exit(open);
    (times, bad)
}

/// Times `calls` dispatches of a 2-item `parallel_map` with two workers
/// forced, so the work is handed to the pool rather than run inline.
/// Returns ns per call.
pub fn pool_dispatch(calls: usize, tracer: &mut Tracer) -> Vec<f64> {
    let items = [1u64, 2];
    let work = |&x: &u64| std::hint::black_box(x.wrapping_mul(0x9E37_79B9));
    let before = pdftsp_cluster::thread_override();
    pdftsp_cluster::set_thread_override(Some(2));
    let open = tracer.enter("cluster.pool_dispatch");
    for _ in 0..calls / 10 {
        std::hint::black_box(pdftsp_cluster::parallel_map(&items, work));
    }
    let mut ns = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        std::hint::black_box(pdftsp_cluster::parallel_map(&items, work));
        ns.push(t.elapsed().as_secs_f64() * 1e9);
    }
    tracer.exit(open);
    pdftsp_cluster::set_thread_override(before);
    ns
}

/// Replays `decisions` on the execution engine (`timeline::replay`),
/// returning its seconds and any replay error as a violation.
pub fn replay(
    scenario: &Scenario,
    decisions: &[Decision],
    tracer: &mut Tracer,
) -> (f64, Vec<Violation>) {
    let t = Instant::now();
    let result = tracer.span("sim.timeline.replay", || {
        timeline::replay(scenario, decisions)
    });
    let secs = t.elapsed().as_secs_f64();
    let bad = match result {
        Ok(_) => Vec::new(),
        Err(e) => vec![Violation::ProgramError {
            message: format!("timeline::replay: {e:?}"),
        }],
    };
    (secs, bad)
}
