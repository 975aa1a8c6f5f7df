//! Spot-market chaos suite: revocation storms driven through the lease →
//! crash mapping, with the Eq. (14) settlements held against the auction
//! log and the capacity ledger held to a bit-exact commit → release
//! round trip. Companion to `fault_injection.rs` — same ground-truth
//! style, but the fault plans come from [`SpotSpec`] lease draws and the
//! scenarios carry spot-priced grids and budget-capped bidders.

use pdftsp_cluster::CapacityLedger;
use pdftsp_core::{PdftspConfig, PreheatSpec};
use pdftsp_sim::{lease_fault_plan, run_pdftsp_with_faults, FaultPlan, FaultRunResult};
use pdftsp_telemetry::Telemetry;
use pdftsp_types::{Scenario, Schedule};
use pdftsp_workload::{ScenarioBuilder, SpotSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A lease storm: far more revocation attempts than nodes, so the run
/// spends most of its horizon recovering.
fn storm_spec(seed: u64) -> SpotSpec {
    SpotSpec {
        leases: 40,
        lease_len: 5,
        seed,
        ..SpotSpec::default()
    }
}

fn storm_case(workload_seed: u64, spot_seed: u64) -> (Scenario, FaultPlan, FaultRunResult) {
    let base = ScenarioBuilder::smoke(workload_seed).build();
    let spec = storm_spec(spot_seed);
    let scenario = spec.apply(&base);
    let leases = spec.lease_plan(scenario.nodes.len(), scenario.horizon);
    let plan = lease_fault_plan(&leases, scenario.horizon);
    let cfg = PdftspConfig::default().with_preheat(PreheatSpec {
        lookahead: spec.lookahead,
        gain: spec.gain,
    });
    let (result, pdftsp) = run_pdftsp_with_faults(&scenario, cfg, &plan, Telemetry::disabled())
        .expect("lease plans are valid");

    // Eq. (14) settlement property, checked against the *auction log*
    // rather than the settlement's own arithmetic: the refund plus the
    // consumed-prefix charge must reproduce the original admission
    // payment exactly, and the refund alone can never exceed it.
    for a in &result.aborted {
        let original = pdftsp
            .records()
            .iter()
            .find(|r| r.task == a.task && r.admitted)
            .unwrap_or_else(|| panic!("aborted task {} has no admission record", a.task));
        assert!(a.refund >= 0.0, "task {}: negative refund", a.task);
        assert!(a.consumed >= 0.0, "task {}: negative charge", a.task);
        assert!(
            a.refund <= original.payment + 1e-9,
            "task {}: refund {} exceeds original payment {}",
            a.task,
            a.refund,
            original.payment
        );
        assert!(
            (a.refund + a.consumed - original.payment).abs() < 1e-9,
            "task {}: refund {} + consumed {} != payment {}",
            a.task,
            a.refund,
            a.consumed,
            original.payment
        );
    }
    (scenario, plan, result)
}

/// Storms of lease revocations never produce a refund above the original
/// payment, settlements balance task-by-task, budget caps hold on every
/// surviving admission, and the welfare identity closes exactly.
#[test]
fn revocation_storm_refunds_never_exceed_payments() {
    let mut total_disrupted = 0usize;
    let mut total_aborted = 0usize;
    for (wseed, sseed) in [(11u64, 5u64), (23, 13), (57, 29)] {
        let (scenario, plan, r) = storm_case(wseed, sseed);
        assert!(
            plan.events.len() >= scenario.nodes.len(),
            "seed {wseed}: storm drew too few revocations"
        );
        total_disrupted += r.disrupted;
        total_aborted += r.aborted.len();

        let w = &r.welfare;
        assert_eq!(w.completed + w.aborted + w.rejected, scenario.tasks.len());
        assert!(
            (w.social_welfare - (w.user_utility + w.provider_utility)).abs() < 1e-9,
            "seed {wseed}: welfare unbalanced under storm: {w:?}"
        );
        assert!(
            w.refunds >= 0.0 && w.payments >= w.refunds - 1e-9,
            "seed {wseed}: refunded more than was collected: {w:?}"
        );

        // Budget caps survive recovery: a completed capped bidder never
        // pays above its cap (recovery is provider-absorbed, so the
        // original — capped — payment stands).
        for d in &r.decisions {
            if let Some(budget) = scenario.tasks[d.task].budget {
                if d.is_admitted() {
                    assert!(
                        d.payment() <= budget + 1e-9,
                        "seed {wseed}: task {} pays {} over budget {}",
                        d.task,
                        d.payment(),
                        budget
                    );
                }
            }
        }
    }
    // The storms must actually exercise both recovery and refunds.
    assert!(total_disrupted > 0, "no storm disrupted anything");
    assert!(
        total_aborted > 0,
        "no storm aborted anything — refund path untested"
    );
}

/// The committed consumption of a storm run — completed schedules plus
/// aborted prefixes — round-trips a fresh [`CapacityLedger`] exactly:
/// commit everything, release everything in a seeded shuffle, and every
/// residual cell is restored bit-for-bit.
#[test]
fn storm_consumption_round_trips_the_ledger_exactly() {
    let mut rng = StdRng::seed_from_u64(4242);
    for (wseed, sseed) in [(11u64, 5u64), (23, 13), (57, 29)] {
        let (scenario, _, r) = storm_case(wseed, sseed);
        let mut ledger = CapacityLedger::new(&scenario);
        let snapshot = residuals(&scenario, &ledger);

        // Everything the run actually consumed, as (task, schedule).
        let mut committed: Vec<(usize, Schedule)> = Vec::new();
        for d in &r.decisions {
            if let Some(s) = d.schedule() {
                committed.push((d.task, s.clone()));
            }
        }
        for a in &r.aborted {
            committed.push((a.task, a.prefix.clone()));
        }
        assert!(!committed.is_empty(), "seed {wseed}: nothing committed");
        for (id, s) in &committed {
            ledger
                .commit(&scenario.tasks[*id], s)
                .unwrap_or_else(|e| panic!("seed {wseed}: storm consumption overflows: {e}"));
        }

        // Release in a seeded shuffle of the commit order.
        let mut order: Vec<usize> = (0..committed.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &i in &order {
            let (id, s) = &committed[i];
            let freed = ledger
                .release(&scenario.tasks[*id], s)
                .expect("committed above");
            assert_eq!(freed.cells, s.placements.len());
        }

        assert_eq!(
            residuals(&scenario, &ledger),
            snapshot,
            "seed {wseed}: storm commit→release round trip drifted"
        );
        for k in 0..scenario.nodes.len() {
            assert!(ledger.is_node_empty(k), "seed {wseed}: node {k} not empty");
        }
    }
}

/// Bit-exact residual grid, as in `fault_injection.rs`.
fn residuals(scenario: &Scenario, ledger: &CapacityLedger) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for k in 0..scenario.nodes.len() {
        for t in 0..scenario.horizon {
            out.push((
                ledger.residual_compute(k, t),
                ledger.residual_memory(k, t).to_bits(),
            ));
        }
    }
    out
}
