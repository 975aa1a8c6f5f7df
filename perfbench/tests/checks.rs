//! Each correctness check fails on a hand-made bad outcome and passes
//! the matching good one.

use pdftsp_core::DualState;
use pdftsp_perfbench::checks::{self, DualWindow, Verdict, Violation};
use pdftsp_sim::AbortedTask;
use pdftsp_types::{
    CostGrid, Decision, GpuModel, NodeSpec, Scenario, Schedule, TaskBuilder, VendorQuote,
};

/// One A100 node (capacity 1000 samples/slot), six slots, energy price
/// 0.5, two tasks that each fit alone on a slot but not together.
fn scenario() -> Scenario {
    let task = |id, budget: Option<f64>| {
        let b = TaskBuilder::new(id, 0, 3)
            .dataset(1200)
            .memory_gb(4.0)
            .bid(20.0)
            .rates(vec![600]);
        match budget {
            Some(x) => b.budget(x),
            None => b,
        }
        .build()
        .unwrap()
    };
    Scenario {
        horizon: 6,
        base_model_gb: 1.3,
        nodes: vec![NodeSpec::new(0, GpuModel::A100_80, 1000)],
        tasks: vec![task(0, None), task(1, Some(8.0))],
        quotes: vec![vec![], vec![]],
        cost: CostGrid::flat(1, 6, 0.5),
    }
}

fn admit(task: usize, slots: &[usize], payment: f64) -> Decision {
    let placements = slots.iter().map(|&t| (0, t)).collect();
    Decision::admitted(
        task,
        Schedule::new(task, VendorQuote::none(), placements),
        payment,
        0.0,
    )
}

fn has(found: &[Violation], pred: impl Fn(&Violation) -> bool) -> bool {
    found.iter().any(pred)
}

#[test]
fn a_valid_outcome_passes_every_check() {
    let sc = scenario();
    let decisions = [admit(0, &[0, 1], 5.0), admit(1, &[2, 3], 6.0)];
    for d in &decisions {
        assert!(checks::admitted_decision(&sc, d).is_empty());
    }
    assert!(checks::capacity(&sc, &decisions, &[]).is_empty());
    assert!(checks::decided_once(2, decisions.iter().map(|d| d.task)).is_empty());
    // Two tasks: 2 × (20 − 0 − 2 slots × 0.5 × weight 1).
    let welfare = checks::welfare(&sc, &decisions, &[]);
    assert!((welfare - 38.0).abs() < 1e-12, "{welfare}");
    assert!(checks::welfare_matches(38.0, welfare).is_empty());
}

#[test]
fn an_over_committed_slot_fails_the_capacity_check() {
    let sc = scenario();
    // 600 + 600 samples on slot 1 of a 1000-sample node.
    let decisions = [admit(0, &[0, 1], 5.0), admit(1, &[1, 2], 6.0)];
    let found = checks::capacity(&sc, &decisions, &[]);
    assert!(has(&found, |v| matches!(
        v,
        Violation::ComputeOver {
            node: 0,
            slot: 1,
            used: 1200,
            capacity: 1000,
            tasks,
        } if tasks == &[0, 1]
    )));
    // Both tasks on the cell count as failed decisions.
    let verdict = Verdict { violations: found };
    assert_eq!(verdict.failed(), 2);
    // An aborted task's consumed prefix counts against the same cell.
    let aborted = AbortedTask {
        task: 1,
        slot: 2,
        prefix: Schedule::new(1, VendorQuote::none(), vec![(0, 1)]),
        refund: 1.0,
        consumed: 2.0,
        prefix_energy: 0.5,
    };
    let found = checks::capacity(&sc, &decisions[..1], &[aborted]);
    assert!(has(&found, |v| matches!(
        v,
        Violation::ComputeOver { slot: 1, .. }
    )));
}

#[test]
fn too_much_adapter_memory_fails_the_capacity_check() {
    let mut sc = scenario();
    sc.tasks[0].memory_gb = 40.0;
    sc.tasks[1].memory_gb = 40.0;
    sc.tasks[0].rates = vec![400];
    sc.tasks[1].rates = vec![400];
    // 80 GB of adapters against 80 − 1.3 GB.
    let decisions = [admit(0, &[0, 1, 2], 5.0), admit(1, &[2, 3, 4], 6.0)];
    let found = checks::capacity(&sc, &decisions, &[]);
    assert!(has(&found, |v| matches!(
        v,
        Violation::MemoryOver { slot: 2, .. }
    )));
    assert!(!has(&found, |v| matches!(v, Violation::ComputeOver { .. })));
}

#[test]
fn a_placement_after_the_deadline_fails() {
    let sc = scenario();
    let found = checks::admitted_decision(&sc, &admit(0, &[3, 4], 5.0));
    assert!(has(&found, |v| matches!(
        v,
        Violation::OutsideWindow {
            task: 0,
            slot: 4,
            deadline: 3,
            ..
        }
    )));
}

#[test]
fn a_schedule_short_of_the_work_fails() {
    let sc = scenario();
    let found = checks::admitted_decision(&sc, &admit(0, &[0], 5.0));
    assert!(has(&found, |v| matches!(
        v,
        Violation::ShortWork {
            done: 600,
            required: 1200,
            ..
        }
    )));
}

#[test]
fn a_payment_above_the_bid_or_budget_fails() {
    let sc = scenario();
    let found = checks::admitted_decision(&sc, &admit(0, &[0, 1], 20.5));
    assert!(has(&found, |v| matches!(
        v,
        Violation::PaymentAboveBid { task: 0, .. }
    )));
    // Task 1 is capped at 8 against a bid of 20.
    let found = checks::admitted_decision(&sc, &admit(1, &[0, 1], 9.0));
    assert!(has(&found, |v| matches!(
        v,
        Violation::PaymentAboveBudget { task: 1, .. }
    )));
    assert!(!has(&found, |v| matches!(
        v,
        Violation::PaymentAboveBid { .. }
    )));
}

#[test]
fn a_refund_above_the_payment_fails() {
    let sc = scenario();
    let aborted = |refund: f64, consumed: f64| AbortedTask {
        task: 0,
        slot: 1,
        prefix: Schedule::new(0, VendorQuote::none(), vec![(0, 0)]),
        refund,
        consumed,
        prefix_energy: 0.5,
    };
    assert!(checks::aborted_settlement(&sc, &aborted(3.0, 2.0)).is_empty());
    // Paid 4 at admission, refunded 5.
    let found = checks::aborted_settlement(&sc, &aborted(5.0, -1.0));
    assert!(has(&found, |v| matches!(
        v,
        Violation::RefundAbovePayment { task: 0, .. }
    )));
}

#[test]
fn an_eq14_payment_is_recomputed_from_the_dual_snapshot() {
    let sc = scenario();
    let duals = DualState::new(&sc, 1000.0);
    let mut window = DualWindow::default();
    window.capture(&duals, &sc.tasks[0]);
    // Zero duals, no vendor: Eq. (14) charges the energy alone.
    let good = admit(0, &[0, 1], 1.0);
    assert!(checks::eq14(&sc, &good, &window, 1000.0).is_empty());
    let found = checks::eq14(&sc, &admit(0, &[0, 1], 1.5), &window, 1000.0);
    assert!(has(&found, |v| matches!(
        v,
        Violation::Eq14Mismatch { task: 0, .. }
    )));
}

#[test]
fn a_missing_or_repeated_decision_fails() {
    let found = checks::decided_once(3, [0, 2, 2]);
    assert!(has(&found, |v| matches!(
        v,
        Violation::DecidedTwice { task: 2 }
    )));
    assert!(has(&found, |v| matches!(
        v,
        Violation::NotDecided { task: 1 }
    )));
    assert!(!has(&found, |v| matches!(v, Violation::UnknownTask { .. })));
}

#[test]
fn a_welfare_off_by_more_than_the_tolerance_fails() {
    assert!(checks::welfare_matches(1e6, 1e6 * (1.0 + 1e-12)).is_empty());
    assert!(!checks::welfare_matches(1e6, 1e6 + 1.0).is_empty());
}

#[test]
fn a_violation_of_the_whole_run_counts_as_a_failed_decision() {
    let verdict = Verdict {
        violations: checks::welfare_matches(1e6, 1e6 + 1.0),
    };
    assert_eq!(verdict.failed(), 1);
}
