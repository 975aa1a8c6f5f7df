//! Spot-market runs: revocable leases through the crash/recovery path,
//! budget-capped bidders, and the pdFTSP-vs-baseline comparison behind
//! `bench_spot`.
//!
//! A lease revocation *is* a node crash from the scheduler's point of
//! view: [`lease_fault_plan`] maps each [`LeasePlan`] window onto the
//! `NodeDown`/`NodeUp` events of [`crate::faults`], so quarantine,
//! remnant resubmission, and the Eq. (14) consumed-prefix refunds apply
//! verbatim — single-process and sharded-service runs alike.
//!
//! The comparison is asymmetric by design, mirroring how the two
//! systems would really operate on spot capacity:
//!
//! * **pdFTSP** recovers online — disrupted tasks re-enter the auction
//!   as remnants; unrecoverable ones are refunded per Eq. (14);
//! * **the deadline-aware-with-predictions baseline** commits its plan
//!   up front and executes it minus the revoked cells — a task whose
//!   surviving cells no longer cover its work is a deadline miss. It
//!   posts no prices, so refund volume is identically zero (there is
//!   nothing to give back — and nothing was collected).
//!
//! Both run over the *same* spot-transformed scenario (same price path,
//! same budget caps, same revocation windows), so welfare, refund
//! volume, and deadline-miss rate are directly comparable.

use crate::driver::run_scheduler;
use crate::faults::{run_pdftsp_with_faults, FaultEvent, FaultPlan};
use pdftsp_baselines::DeadlineAware;
use pdftsp_cluster::{effective_workers, parallel_map};
use pdftsp_core::{PdftspConfig, PreheatSpec};
use pdftsp_telemetry::Telemetry;
use pdftsp_types::{AuctionOutcome, Rejection, Scenario, Schedule};
use pdftsp_workload::SpotSpec;

pub use pdftsp_cluster::{LeasePlan, NodeLease};

/// Maps lease revocations onto fault events: each window becomes a
/// `NodeDown` at its revoke slot and (when the node comes back inside
/// the horizon) a `NodeUp` at its restore slot, sorted in the fault
/// loop's canonical within-slot order.
#[must_use]
pub fn lease_fault_plan(leases: &LeasePlan, horizon: usize) -> FaultPlan {
    let mut events = Vec::with_capacity(leases.leases.len() * 2);
    for l in &leases.leases {
        if l.revoke_slot >= horizon {
            continue;
        }
        events.push(FaultEvent::NodeDown {
            node: l.node,
            slot: l.revoke_slot,
        });
        if l.restore_slot < horizon {
            events.push(FaultEvent::NodeUp {
                node: l.node,
                slot: l.restore_slot,
            });
        }
    }
    events.sort_by_key(FaultEvent::order);
    FaultPlan { events }
}

/// The three comparison metrics of the spot benchmark, for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotMetrics {
    /// Scheduler name.
    pub name: String,
    /// Refund-adjusted social welfare.
    pub social_welfare: f64,
    /// Total refunded to disrupted bidders (0 for unpriced baselines).
    pub refund_volume: f64,
    /// `aborted / (completed + aborted)`: of the tasks the system
    /// committed to, the fraction it failed to finish by deadline
    /// (0 when nothing was admitted).
    pub deadline_miss_rate: f64,
    /// Tasks that finished their full work.
    pub completed: usize,
    /// Tasks admitted then lost to a revocation.
    pub aborted: usize,
    /// Tasks never admitted.
    pub rejected: usize,
}

/// One pdFTSP-vs-baseline spot comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotComparison {
    /// pdFTSP through the fault/recovery path.
    pub pdftsp: SpotMetrics,
    /// Deadline-aware-with-predictions, revoked cells dropped post-hoc.
    pub baseline: SpotMetrics,
    /// Revocation windows that materialized.
    pub revocations: usize,
    /// Bidders carrying a budget cap in the transformed scenario.
    pub capped_bidders: usize,
    /// pdFTSP rejections where the Eq. (14) payment exceeded the cap.
    pub budget_rejections: usize,
}

/// Runs the spot comparison on `base`: transforms it per `spec`
/// (re-priced grid, budget caps), derives the revocation plan, and runs
/// both systems over the identical instance.
///
/// `config.preheat` is overridden from the spec's prediction knobs:
/// `lookahead = 0` disables pre-heating, anything else installs a
/// [`PreheatSpec`] with the spec's gain. The baseline receives the same
/// lookahead for its congestion reserve.
#[must_use]
pub fn run_spot(base: &Scenario, spec: &SpotSpec, config: PdftspConfig) -> SpotComparison {
    let scenario = spec.apply(base);
    let leases = spec.lease_plan(scenario.nodes.len(), scenario.horizon);
    let plan = lease_fault_plan(&leases, scenario.horizon);

    let mut cfg = config;
    cfg.preheat = (spec.lookahead > 0).then_some(PreheatSpec {
        lookahead: spec.lookahead,
        gain: spec.gain,
    });
    let (run, _) = run_pdftsp_with_faults(&scenario, cfg, &plan, Telemetry::disabled())
        .expect("a lease plan drawn over the scenario's own nodes and horizon is valid");
    let denom = run.welfare.completed + run.welfare.aborted;
    let budget_rejections = run
        .decisions
        .iter()
        .filter(|d| {
            matches!(
                d.outcome,
                AuctionOutcome::Rejected(Rejection::BudgetExceeded)
            )
        })
        .count();
    let pdftsp = SpotMetrics {
        name: "pdFTSP".to_owned(),
        social_welfare: run.welfare.social_welfare,
        refund_volume: run.welfare.refunds,
        deadline_miss_rate: miss_rate(run.welfare.aborted, denom),
        completed: run.welfare.completed,
        aborted: run.welfare.aborted,
        rejected: run.welfare.rejected,
    };

    let baseline = run_baseline_under_leases(&scenario, &leases, spec.lookahead.max(1));

    SpotComparison {
        pdftsp,
        baseline,
        revocations: leases.leases.len(),
        capped_bidders: scenario.tasks.iter().filter(|t| t.budget.is_some()).count(),
        budget_rejections,
    }
}

/// Runs the deadline-aware baseline clean over `scenario`, then drops
/// every committed cell inside a revocation window: the baseline has no
/// recovery loop, so it simply executes its plan minus the revoked
/// cells. A task completes iff the surviving cells still cover its
/// work; otherwise it is a deadline miss that consumed its surviving
/// cells' energy (and its vendor preprocessing) for nothing.
fn run_baseline_under_leases(
    scenario: &Scenario,
    leases: &LeasePlan,
    lookahead: usize,
) -> SpotMetrics {
    let mut scheduler = DeadlineAware::new(scenario, lookahead);
    let clean = run_scheduler(scenario, &mut scheduler);
    let mut completed = 0usize;
    let mut aborted = 0usize;
    let mut rejected = 0usize;
    let mut bid_value = 0.0;
    let mut vendor_cost = 0.0;
    let mut energy_cost = 0.0;
    for d in &clean.decisions {
        let task = &scenario.tasks[d.task];
        match &d.outcome {
            AuctionOutcome::Rejected(_) => rejected += 1,
            AuctionOutcome::Admitted { schedule, .. } => {
                let surviving: Vec<_> = schedule
                    .placements
                    .iter()
                    .copied()
                    .filter(|&(k, t)| !leases.revoked(k, t))
                    .collect();
                let survived = Schedule::new(task.id, schedule.vendor, surviving);
                // Preprocessing ran and the surviving cells executed
                // whether or not the task finished.
                vendor_cost += survived.vendor.price;
                energy_cost += survived.energy_cost(task, &scenario.cost);
                if survived.work_done(task) >= task.work {
                    completed += 1;
                    bid_value += task.bid;
                } else {
                    aborted += 1;
                }
            }
        }
    }
    SpotMetrics {
        name: clean.algo,
        social_welfare: bid_value - vendor_cost - energy_cost,
        refund_volume: 0.0,
        deadline_miss_rate: miss_rate(aborted, completed + aborted),
        completed,
        aborted,
        rejected,
    }
}

fn miss_rate(aborted: usize, denom: usize) -> f64 {
    if denom == 0 {
        0.0
    } else {
        aborted as f64 / denom as f64
    }
}

/// Result of a multi-instance spot sweep (the `bench_spot` companion to
/// [`crate::ratio_sweep`]).
#[derive(Debug, Clone)]
pub struct SpotSweep {
    /// Per-instance comparisons, in input order.
    pub comparisons: Vec<SpotComparison>,
    /// `Σ` pdFTSP refunds across instances.
    pub total_refunds: f64,
    /// Worst pdFTSP deadline-miss rate across instances.
    pub max_miss_rate: f64,
    /// Instances where pdFTSP's welfare beat the baseline's.
    pub pdftsp_wins: usize,
    /// Worker threads the sweep actually used.
    pub workers: usize,
}

/// Runs [`run_spot`] over every scenario concurrently — instances are
/// independent, results return in input order regardless of completion
/// order (same contract as [`crate::ratio_sweep`]).
#[must_use]
pub fn spot_sweep(scenarios: &[Scenario], spec: &SpotSpec, config: PdftspConfig) -> SpotSweep {
    let comparisons = parallel_map(scenarios, |sc| run_spot(sc, spec, config));
    let total_refunds = comparisons.iter().map(|c| c.pdftsp.refund_volume).sum();
    let max_miss_rate = comparisons
        .iter()
        .map(|c| c.pdftsp.deadline_miss_rate)
        .fold(0.0, f64::max);
    let pdftsp_wins = comparisons
        .iter()
        .filter(|c| c.pdftsp.social_welfare > c.baseline.social_welfare)
        .count();
    SpotSweep {
        comparisons,
        total_refunds,
        max_miss_rate,
        pdftsp_wins,
        workers: effective_workers(scenarios.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_workload::ScenarioBuilder;

    fn spec() -> SpotSpec {
        SpotSpec {
            leases: 4,
            lease_len: 3,
            seed: 13,
            ..SpotSpec::default()
        }
    }

    #[test]
    fn lease_plan_maps_to_paired_fault_events() {
        let leases = LeasePlan::generate(6, 36, 5, 4, 3);
        let plan = lease_fault_plan(&leases, 36);
        let downs = plan
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::NodeDown { .. }))
            .count();
        assert_eq!(downs, leases.leases.len());
        for l in &leases.leases {
            assert!(plan.events.contains(&FaultEvent::NodeDown {
                node: l.node,
                slot: l.revoke_slot
            }));
            if l.restore_slot < 36 {
                assert!(plan.events.contains(&FaultEvent::NodeUp {
                    node: l.node,
                    slot: l.restore_slot
                }));
            }
        }
        // Slot-sorted, ups before downs within a slot.
        let mut last = (0, 0u8, 0);
        for e in &plan.events {
            assert!(e.order() >= last);
            last = e.order();
        }
        // Windows past the horizon never emit a NodeUp.
        let short = lease_fault_plan(&leases, 4);
        assert!(short.events.iter().all(|e| e.slot() < 4));
    }

    #[test]
    fn spot_run_settles_both_systems_on_the_same_instance() {
        let base = ScenarioBuilder::smoke(19).build();
        let cmp = run_spot(&base, &spec(), PdftspConfig::default());
        let n = base.tasks.len();
        assert_eq!(
            cmp.pdftsp.completed + cmp.pdftsp.aborted + cmp.pdftsp.rejected,
            n
        );
        assert_eq!(
            cmp.baseline.completed + cmp.baseline.aborted + cmp.baseline.rejected,
            n
        );
        assert!(cmp.revocations > 0, "smoke scenario should draw leases");
        assert!(cmp.capped_bidders > 0, "default budget_frac caps someone");
        assert_eq!(cmp.baseline.refund_volume, 0.0);
        assert!(cmp.pdftsp.refund_volume >= 0.0);
        assert!((0.0..=1.0).contains(&cmp.pdftsp.deadline_miss_rate));
        assert!((0.0..=1.0).contains(&cmp.baseline.deadline_miss_rate));
    }

    #[test]
    fn spot_run_is_deterministic() {
        let base = ScenarioBuilder::smoke(7).build();
        let a = run_spot(&base, &spec(), PdftspConfig::default());
        let b = run_spot(&base, &spec(), PdftspConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn no_leases_means_no_refunds_or_misses() {
        let base = ScenarioBuilder::smoke(5).build();
        let quiet = SpotSpec {
            leases: 0,
            ..spec()
        };
        let cmp = run_spot(&base, &quiet, PdftspConfig::default());
        assert_eq!(cmp.revocations, 0);
        assert_eq!(cmp.pdftsp.refund_volume, 0.0);
        assert_eq!(cmp.pdftsp.deadline_miss_rate, 0.0);
        assert_eq!(cmp.baseline.deadline_miss_rate, 0.0);
        assert_eq!(cmp.pdftsp.aborted, 0);
    }

    #[test]
    fn sweep_matches_per_instance_runs_in_order() {
        let scenarios = vec![
            ScenarioBuilder::smoke(3).build(),
            ScenarioBuilder::smoke(4).build(),
        ];
        let sw = spot_sweep(&scenarios, &spec(), PdftspConfig::default());
        assert_eq!(sw.comparisons.len(), 2);
        for (sc, got) in scenarios.iter().zip(&sw.comparisons) {
            let solo = run_spot(sc, &spec(), PdftspConfig::default());
            assert_eq!(*got, solo);
        }
        assert!(sw.workers >= 1);
        assert!(sw.max_miss_rate >= 0.0);
    }
}
