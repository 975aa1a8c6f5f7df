//! The simulation loop and the algorithm registry.

use crate::welfare::WelfareReport;
use pdftsp_baselines::{Eft, FixedPrice, FixedPriceConfig, Ntm, TitanConfig, TitanLike};
use pdftsp_cluster::{ClusterMetrics, ExecutionEngine, ReplayError};
use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_telemetry::{Reason, RunReport, Telemetry};
use pdftsp_types::{AuctionOutcome, Decision, OnlineScheduler, Rejection, Scenario, Task};
use std::fmt;

/// The algorithms compared in the paper's figures, plus the capacity-
/// masking ablation of pdFTSP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The paper's algorithm (default config).
    Pdftsp,
    /// pdFTSP with the saturated-cell masking ablation.
    PdftspMasked,
    /// pdFTSP running the straight-line reference evaluation pipeline
    /// (decision-identical to [`Algo::Pdftsp`]; latency baseline only,
    /// not part of [`Algo::PAPER_SET`]).
    PdftspReference,
    /// Titan-like per-slot MILP.
    Titan,
    /// Earliest Finish Time.
    Eft,
    /// No Task Merging.
    Ntm,
    /// Posted fixed pricing (the de facto mechanism, extra comparison).
    FixedPrice,
}

impl Algo {
    /// The four algorithms every comparison figure plots.
    pub const PAPER_SET: [Algo; 4] = [Algo::Pdftsp, Algo::Titan, Algo::Eft, Algo::Ntm];

    /// Display name (matches the paper's legends).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::Pdftsp => "pdFTSP",
            Algo::PdftspMasked => "pdFTSP-mask",
            Algo::PdftspReference => "pdFTSP-ref",
            Algo::Titan => "Titan",
            Algo::Eft => "EFT",
            Algo::Ntm => "NTM",
            Algo::FixedPrice => "FixedPrice",
        }
    }

    /// Instantiates the scheduler for a scenario. `seed` feeds the random
    /// vendor choices of Titan/NTM (pdFTSP and EFT are deterministic).
    #[must_use]
    pub fn build(self, scenario: &Scenario, seed: u64) -> Box<dyn OnlineScheduler> {
        match self {
            Algo::Pdftsp => Box::new(Pdftsp::new(scenario, PdftspConfig::default())),
            Algo::PdftspMasked => Box::new(Pdftsp::new(
                scenario,
                PdftspConfig::default().with_masking(),
            )),
            Algo::PdftspReference => {
                Box::new(Pdftsp::new(scenario, PdftspConfig::default().reference()))
            }
            Algo::Titan => Box::new(TitanLike::new(scenario, seed, TitanConfig::default())),
            Algo::Eft => Box::new(Eft::new(scenario)),
            Algo::Ntm => Box::new(Ntm::new(scenario, seed)),
            Algo::FixedPrice => Box::new(FixedPrice::new(scenario, FixedPriceConfig::default())),
        }
    }
}

/// Outcome of one full run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheduler name.
    pub algo: String,
    /// Per-task decisions in arrival order.
    pub decisions: Vec<Decision>,
    /// Ground-truth welfare accounting.
    pub welfare: WelfareReport,
    /// Cluster utilization/co-location metrics.
    pub metrics: ClusterMetrics,
    /// Aggregate telemetry report. For uninstrumented schedulers (the
    /// baselines) this holds the decision tallies, exact decide-latency
    /// percentiles, and utilization; [`run_pdftsp_instrumented`] replaces
    /// it with the full counter-backed report (prune/DP-work fields).
    pub report: RunReport,
}

/// A run that could not produce a valid [`RunResult`]: the scheduler under
/// test violated the driver contract or committed an invalid outcome.
/// Either way the *scheduler* is buggy, not the input — but a sweep over
/// many scenarios should report the bad cell and keep going rather than
/// abort, so this surfaces as an error instead of a panic.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The scheduler broke the `on_slot` contract (wrong decision count
    /// or order).
    Contract {
        /// Scheduler name.
        scheduler: String,
        /// What went wrong.
        detail: String,
    },
    /// The committed decisions failed ground-truth replay (capacity
    /// overflow, invalid schedule, or unfinished admitted work).
    Replay {
        /// Scheduler name.
        scheduler: String,
        /// The replay verdict.
        error: ReplayError,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Contract { scheduler, detail } => {
                write!(f, "{scheduler}: driver contract violated: {detail}")
            }
            RunError::Replay { scheduler, error } => {
                write!(f, "{scheduler}: invalid outcome: {error}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Maps the decision-level rejection reason onto the telemetry vocabulary.
fn telemetry_reason(why: Rejection) -> Reason {
    match why {
        Rejection::NoFeasibleSchedule => Reason::NoFeasibleSchedule,
        // Budget caps make the trade non-executable for the bidder —
        // telemetry counts them with the surplus losers so the wire
        // format (flight-recorder bytes, JSON names) stays fixed.
        Rejection::NonPositiveSurplus | Rejection::BudgetExceeded => Reason::NonPositiveSurplus,
        Rejection::InsufficientCapacity => Reason::InsufficientCapacity,
    }
}

/// Builds the decision-tally report shared by every scheduler: outcome
/// counts from the decision list, exact latency percentiles from
/// `Decision::decide_seconds`, utilization from the replayed ledger.
fn decision_report(name: &str, decisions: &[Decision], metrics: &ClusterMetrics) -> RunReport {
    let mut report = RunReport::named(name);
    let mut samples = Vec::with_capacity(decisions.len());
    for d in decisions {
        samples.push(d.decide_seconds);
        match &d.outcome {
            AuctionOutcome::Admitted { .. } => report.tally_admitted(),
            AuctionOutcome::Rejected(why) => report.tally_rejected(telemetry_reason(*why)),
        }
    }
    report
        .with_exact_latency(&samples)
        .with_utilization(metrics.utilization_summary())
}

/// Runs `scheduler` over `scenario`: feeds arrivals slot by slot, then
/// replays all committed schedules through the execution engine to verify
/// capacity and deadlines, and computes the welfare report.
///
/// # Errors
/// Fails if the scheduler breaks the `on_slot` contract or commits an
/// invalid outcome (capacity overflow, bad schedule, unfinished admitted
/// task) — that is a bug in the scheduler under test; sweeps report it
/// per scenario instead of aborting wholesale.
pub fn try_run_scheduler(
    scenario: &Scenario,
    scheduler: &mut dyn OnlineScheduler,
) -> Result<RunResult, RunError> {
    let name = scheduler.name().to_owned();
    let contract = |detail: String| RunError::Contract {
        scheduler: name.clone(),
        detail,
    };
    let mut decisions: Vec<Decision> = Vec::with_capacity(scenario.tasks.len());
    let mut next_task = 0usize;
    for slot in 0..scenario.horizon {
        let start = next_task;
        while next_task < scenario.tasks.len() && scenario.tasks[next_task].arrival == slot {
            next_task += 1;
        }
        if start == next_task {
            continue;
        }
        let arrivals: Vec<&Task> = scenario.tasks[start..next_task].iter().collect();
        let out = scheduler.on_slot(slot, &arrivals, scenario);
        if out.len() != arrivals.len() {
            return Err(contract(format!(
                "slot {slot}: {} decisions for {} arrivals",
                out.len(),
                arrivals.len()
            )));
        }
        for (d, t) in out.iter().zip(&arrivals) {
            if d.task != t.id {
                return Err(contract(format!(
                    "slot {slot}: decision for task {} where task {} arrived",
                    d.task, t.id
                )));
            }
        }
        decisions.extend(out);
    }
    debug_assert_eq!(next_task, scenario.tasks.len(), "tasks outside horizon");

    let report =
        ExecutionEngine::replay(scenario, &decisions).map_err(|error| RunError::Replay {
            scheduler: scheduler.name().to_owned(),
            error,
        })?;
    let welfare = WelfareReport::compute(scenario, &decisions);
    let metrics = ClusterMetrics::compute(scenario, &report.ledger, &decisions);
    let run_report = decision_report(scheduler.name(), &decisions, &metrics);
    Ok(RunResult {
        algo: scheduler.name().to_owned(),
        decisions,
        welfare,
        metrics,
        report: run_report,
    })
}

/// [`try_run_scheduler`], panicking on an invalid run.
///
/// # Panics
/// Panics on any [`RunError`] — the convenient form for tests and single
/// runs, where hiding a scheduler bug would corrupt every figure.
#[must_use]
pub fn run_scheduler(scenario: &Scenario, scheduler: &mut dyn OnlineScheduler) -> RunResult {
    try_run_scheduler(scenario, scheduler).unwrap_or_else(|e| panic!("{e}"))
}

/// Convenience: builds and runs `algo` on `scenario`.
///
/// ```
/// use pdftsp_sim::{run_algo, Algo};
/// use pdftsp_workload::ScenarioBuilder;
///
/// let scenario = ScenarioBuilder::smoke(7).build();
/// let result = run_algo(&scenario, Algo::Pdftsp, 0);
/// assert_eq!(result.decisions.len(), scenario.num_tasks());
/// assert!(result.welfare.social_welfare.is_finite());
/// ```
#[must_use]
pub fn run_algo(scenario: &Scenario, algo: Algo, seed: u64) -> RunResult {
    let mut scheduler = algo.build(scenario, seed);
    run_scheduler(scenario, scheduler.as_mut())
}

/// [`run_algo`] with the error surfaced instead of a panic.
///
/// # Errors
/// Same contract as [`try_run_scheduler`].
pub fn try_run_algo(scenario: &Scenario, algo: Algo, seed: u64) -> Result<RunResult, RunError> {
    let mut scheduler = algo.build(scenario, seed);
    try_run_scheduler(scenario, scheduler.as_mut())
}

/// Runs pdFTSP with an attached [`Telemetry`] pipeline and returns both the
/// run outcome and the scheduler itself (for its final dual prices and
/// counters). The result's `report` is the full counter-backed
/// [`RunReport`] — prune hit-rate, DP work, dual updates — with exact
/// latency percentiles and cluster utilization attached, in contrast to
/// the decision-tally report [`run_scheduler`] builds for uninstrumented
/// schedulers.
///
/// ```
/// use pdftsp_core::PdftspConfig;
/// use pdftsp_sim::run_pdftsp_instrumented;
/// use pdftsp_telemetry::Telemetry;
/// use pdftsp_workload::ScenarioBuilder;
///
/// let scenario = ScenarioBuilder::smoke(7).build();
/// let (result, scheduler) =
///     run_pdftsp_instrumented(&scenario, PdftspConfig::default(), Telemetry::disabled());
/// assert_eq!(result.report.decisions as usize, scenario.num_tasks());
/// assert!(result.report.dp_runs > 0);
/// assert!(scheduler.duals().nodes() > 0);
/// ```
#[must_use]
pub fn run_pdftsp_instrumented(
    scenario: &Scenario,
    config: PdftspConfig,
    telemetry: Telemetry,
) -> (RunResult, Pdftsp) {
    let pool_before = pdftsp_cluster::pool_stats();
    let mut scheduler = Pdftsp::with_telemetry(scenario, config, telemetry);
    let mut result = run_scheduler(scenario, &mut scheduler);
    let samples: Vec<f64> = result.decisions.iter().map(|d| d.decide_seconds).collect();
    let pool_after = pdftsp_cluster::pool_stats();
    result.report = RunReport::from_counters(scheduler.name(), &scheduler.telemetry().counters)
        .with_exact_latency(&samples)
        .with_utilization(result.metrics.utilization_summary())
        .with_pool(
            pool_after.tasks.saturating_sub(pool_before.tasks),
            pool_after.park_ns.saturating_sub(pool_before.park_ns),
        );
    (result, scheduler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_workload::ScenarioBuilder;

    #[test]
    fn all_paper_algorithms_run_a_smoke_scenario() {
        let sc = ScenarioBuilder::smoke(21).build();
        for algo in Algo::PAPER_SET {
            let r = run_algo(&sc, algo, 1);
            assert_eq!(r.decisions.len(), sc.num_tasks(), "{}", algo.name());
            assert!(
                r.welfare.social_welfare.is_finite(),
                "{}: welfare {:?}",
                algo.name(),
                r.welfare.social_welfare
            );
            assert_eq!(r.algo, algo.name());
        }
    }

    #[test]
    fn pdftsp_is_deterministic_across_runs() {
        let sc = ScenarioBuilder::smoke(22).build();
        let a = run_algo(&sc, Algo::Pdftsp, 1);
        let b = run_algo(&sc, Algo::Pdftsp, 999); // seed must not matter
        assert_eq!(a.welfare.social_welfare, b.welfare.social_welfare);
        assert_eq!(a.welfare.admitted, b.welfare.admitted);
    }

    #[test]
    fn pdftsp_beats_blind_baselines_on_smoke_welfare() {
        // Averaged over a few seeds to avoid cherry-picking.
        let mut pd = 0.0;
        let mut eft = 0.0;
        let mut ntm = 0.0;
        for seed in 0..5 {
            let sc = ScenarioBuilder::smoke(100 + seed).build();
            pd += run_algo(&sc, Algo::Pdftsp, seed).welfare.social_welfare;
            eft += run_algo(&sc, Algo::Eft, seed).welfare.social_welfare;
            ntm += run_algo(&sc, Algo::Ntm, seed).welfare.social_welfare;
        }
        assert!(pd > 0.0);
        assert!(pd >= ntm, "pdFTSP {pd} < NTM {ntm}");
        // EFT can tie on uncongested smoke loads but must not win big.
        assert!(pd >= 0.8 * eft, "pdFTSP {pd} ≪ EFT {eft}");
    }

    #[test]
    fn reference_pipeline_matches_default_end_to_end() {
        for seed in [23, 24, 25] {
            let sc = ScenarioBuilder::smoke(seed).build();
            let opt = run_algo(&sc, Algo::Pdftsp, 0);
            let reference = run_algo(&sc, Algo::PdftspReference, 0);
            assert_eq!(reference.algo, "pdFTSP-ref");
            assert_eq!(opt.welfare.admitted, reference.welfare.admitted);
            assert_eq!(
                opt.welfare.social_welfare.to_bits(),
                reference.welfare.social_welfare.to_bits()
            );
            for (a, b) in opt.decisions.iter().zip(&reference.decisions) {
                // Rejection *reasons* may differ for pruned vendors (the
                // documented bookkeeping divergence); wins must be identical.
                match (&a.outcome, &b.outcome) {
                    (
                        pdftsp_types::AuctionOutcome::Admitted { schedule, payment },
                        pdftsp_types::AuctionOutcome::Admitted {
                            schedule: s2,
                            payment: p2,
                        },
                    ) => {
                        assert_eq!(schedule, s2, "seed {seed}");
                        assert_eq!(payment.to_bits(), p2.to_bits(), "seed {seed}");
                    }
                    (
                        pdftsp_types::AuctionOutcome::Rejected(_),
                        pdftsp_types::AuctionOutcome::Rejected(_),
                    ) => {}
                    (x, y) => panic!("seed {seed}: outcome split {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn run_report_tallies_match_the_decision_list_for_every_algo() {
        let sc = ScenarioBuilder::smoke(44).build();
        for algo in Algo::PAPER_SET {
            let r = run_algo(&sc, algo, 3);
            let admitted = r.decisions.iter().filter(|d| d.is_admitted()).count() as u64;
            assert_eq!(r.report.scheduler, algo.name());
            assert_eq!(r.report.decisions as usize, r.decisions.len());
            assert_eq!(r.report.admitted, admitted, "{}", algo.name());
            assert_eq!(
                r.report.rejected(),
                r.decisions.len() as u64 - admitted,
                "{}",
                algo.name()
            );
            assert!(r.report.latency.exact);
            assert_eq!(r.report.latency.count as usize, r.decisions.len());
            let u = r.report.utilization.expect("replay ran");
            assert_eq!(u.peak_colocation, r.metrics.peak_colocation);
        }
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_adds_counters() {
        use pdftsp_telemetry::Telemetry;
        let sc = ScenarioBuilder::smoke(45).build();
        let plain = run_algo(&sc, Algo::Pdftsp, 0);
        let (inst, scheduler) =
            run_pdftsp_instrumented(&sc, PdftspConfig::default(), Telemetry::disabled());
        // Decisions identical: telemetry must not perturb the algorithm.
        assert_eq!(plain.decisions.len(), inst.decisions.len());
        for (a, b) in plain.decisions.iter().zip(&inst.decisions) {
            assert_eq!(a.outcome, b.outcome);
        }
        // The instrumented report carries the counter-backed fields the
        // decision tally can't know, while agreeing on the tallies.
        assert_eq!(inst.report.decisions, plain.report.decisions);
        assert_eq!(inst.report.admitted, plain.report.admitted);
        assert!(inst.report.dp_runs > 0);
        assert!(inst.report.vendors_seen > 0);
        assert!(inst.report.grid_builds > 0);
        assert_eq!(
            inst.report.dual_updates,
            scheduler
                .telemetry()
                .counters
                .read(&scheduler.telemetry().counters.dual_updates)
        );
        assert!(inst.report.latency.exact);
        assert!(inst.report.utilization.is_some());
    }

    #[test]
    fn contract_violations_surface_as_errors_not_panics() {
        use pdftsp_types::{OnlineScheduler, Slot, SlotOutcome};

        /// Returns no decisions at all — breaks the count contract.
        struct Mute;
        impl OnlineScheduler for Mute {
            fn name(&self) -> &'static str {
                "mute"
            }
            fn on_slot(&mut self, _: Slot, _: &[&Task], _: &Scenario) -> SlotOutcome {
                Vec::new()
            }
        }

        /// Admits every task onto a node/slot that does not exist —
        /// passes the contract but fails ground-truth replay.
        struct Rogue;
        impl OnlineScheduler for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn on_slot(&mut self, _: Slot, arrivals: &[&Task], _: &Scenario) -> SlotOutcome {
                arrivals
                    .iter()
                    .map(|t| {
                        let s = pdftsp_types::Schedule::new(
                            t.id,
                            pdftsp_types::VendorQuote::none(),
                            vec![(999, 0)],
                        );
                        Decision::admitted(t.id, s, 1.0, 0.0)
                    })
                    .collect()
            }
        }

        let sc = ScenarioBuilder::smoke(7).build();
        let err = try_run_scheduler(&sc, &mut Mute).unwrap_err();
        assert!(matches!(&err, RunError::Contract { scheduler, .. } if scheduler == "mute"));
        assert!(err.to_string().contains("contract"), "{err}");

        let err = try_run_scheduler(&sc, &mut Rogue).unwrap_err();
        assert!(matches!(&err, RunError::Replay { scheduler, .. } if scheduler == "rogue"));
        assert!(err.to_string().contains("invalid outcome"), "{err}");

        // The happy path is unchanged through the fallible entry point.
        assert!(try_run_algo(&sc, Algo::Pdftsp, 0).is_ok());
    }

    #[test]
    fn masked_variant_never_capacity_rejects() {
        let sc = ScenarioBuilder::smoke(33).build();
        let r = run_algo(&sc, Algo::PdftspMasked, 0);
        for d in &r.decisions {
            assert_ne!(
                d.outcome,
                pdftsp_types::AuctionOutcome::Rejected(
                    pdftsp_types::Rejection::InsufficientCapacity
                )
            );
        }
    }
}
