//! Correctness checks on a run's outputs, computed apart from the
//! program: the benchmark sums capacity, re-derives welfare and Eq. (14)
//! payments itself, and checks the properties the mechanism must have.
//!
//! Every check returns the [`Violation`]s it found; a clean outcome
//! returns none. A violation names the tasks at fault, so the benchmark
//! can count failed decisions.

use pdftsp_core::DualState;
use pdftsp_sim::AbortedTask;
use pdftsp_types::{Decision, NodeId, Scenario, Schedule, Slot, Task, TaskId};
use std::collections::BTreeSet;

/// Relative tolerance of the welfare and Eq. (14) comparisons: the
/// benchmark sums in its own order, so the last bits may differ.
pub const REL_TOL: f64 = 1e-9;

/// Per-task slack of the memory check, GB. The ledger stores memory in
/// fixed point of 2⁻²⁰ GB rounded to nearest, so each task's footprint
/// may read up to half a unit below its `f64` value.
const MEM_SLACK_GB: f64 = 1e-6;

/// One failed check.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A task has no decision.
    NotDecided { task: TaskId },
    /// A task was decided more than once.
    DecidedTwice { task: TaskId },
    /// A decision names a task the scenario does not have.
    UnknownTask { task: TaskId },
    /// A placement names a node or slot outside the cluster.
    OutOfRange {
        task: TaskId,
        node: NodeId,
        slot: Slot,
    },
    /// Compute committed on a cell exceeds `C_kp`; `tasks` are the
    /// tasks placed on it.
    ComputeOver {
        node: NodeId,
        slot: Slot,
        used: u64,
        capacity: u64,
        tasks: Vec<TaskId>,
    },
    /// Adapter memory committed on a cell exceeds `C_km − r_b`; `tasks`
    /// are the tasks placed on it.
    MemoryOver {
        node: NodeId,
        slot: Slot,
        used_gb: f64,
        capacity_gb: f64,
        tasks: Vec<TaskId>,
    },
    /// A placement lies outside `[a_i + h_in, d_i]`.
    OutsideWindow {
        task: TaskId,
        slot: Slot,
        earliest: Slot,
        deadline: Slot,
    },
    /// Two placements of one task share a slot.
    DuplicateSlot { task: TaskId, slot: Slot },
    /// A placement uses a node the task cannot run on.
    IncompatibleNode { task: TaskId, node: NodeId },
    /// A task needing pre-processing was admitted without a vendor.
    MissingVendor { task: TaskId },
    /// An admitted schedule delivers less than `M_i`.
    ShortWork {
        task: TaskId,
        done: u64,
        required: u64,
    },
    /// A payment is negative or not finite.
    BadPayment { task: TaskId, payment: f64 },
    /// `payment > bid` (individual rationality).
    PaymentAboveBid {
        task: TaskId,
        payment: f64,
        bid: f64,
    },
    /// `payment > budget` for a budget-capped bidder.
    PaymentAboveBudget {
        task: TaskId,
        payment: f64,
        budget: f64,
    },
    /// A refund is negative or larger than the payment it returns.
    RefundAbovePayment {
        task: TaskId,
        refund: f64,
        payment: f64,
    },
    /// A payment differs from Eq. (14) recomputed from the duals.
    Eq14Mismatch {
        task: TaskId,
        payment: f64,
        expected: f64,
    },
    /// The program's welfare differs from the benchmark's recomputation.
    WelfareMismatch { reported: f64, recomputed: f64 },
    /// An epoch decided a different number of tasks than arrived in
    /// its slots.
    EpochMismatch {
        epoch: usize,
        decided: usize,
        arrived: usize,
    },
    /// The program returned an error instead of an outcome.
    ProgramError { message: String },
    /// Two runs of the same inputs decided differently.
    Nondeterministic { what: String },
}

impl Violation {
    /// The task at fault, when the violation is about one task.
    #[must_use]
    pub fn task(&self) -> Option<TaskId> {
        match *self {
            Violation::NotDecided { task }
            | Violation::DecidedTwice { task }
            | Violation::UnknownTask { task }
            | Violation::OutOfRange { task, .. }
            | Violation::OutsideWindow { task, .. }
            | Violation::DuplicateSlot { task, .. }
            | Violation::IncompatibleNode { task, .. }
            | Violation::MissingVendor { task }
            | Violation::ShortWork { task, .. }
            | Violation::BadPayment { task, .. }
            | Violation::PaymentAboveBid { task, .. }
            | Violation::PaymentAboveBudget { task, .. }
            | Violation::RefundAbovePayment { task, .. }
            | Violation::Eq14Mismatch { task, .. } => Some(task),
            Violation::ComputeOver { .. }
            | Violation::MemoryOver { .. }
            | Violation::WelfareMismatch { .. }
            | Violation::EpochMismatch { .. }
            | Violation::ProgramError { .. }
            | Violation::Nondeterministic { .. } => None,
        }
    }

    /// The tasks at fault: the task of a task's own violation, the tasks
    /// on the cell of a capacity violation, none for a violation of the
    /// whole run (welfare, epoch count, program error, nondeterminism).
    #[must_use]
    pub fn tasks(&self) -> Vec<TaskId> {
        match self {
            Violation::ComputeOver { tasks, .. } | Violation::MemoryOver { tasks, .. } => {
                tasks.clone()
            }
            v => v.task().into_iter().collect(),
        }
    }
}

/// The violations of one pass over a scenario.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Everything found, in check order.
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// Records `found`.
    pub fn extend(&mut self, found: impl IntoIterator<Item = Violation>) {
        self.violations.extend(found);
    }

    /// Failed decisions: the distinct tasks at fault, plus one for each
    /// violation of the whole run, which names no task.
    #[must_use]
    pub fn failed(&self) -> usize {
        let mut tasks = BTreeSet::new();
        let mut whole_run = 0;
        for v in &self.violations {
            let at_fault = v.tasks();
            if at_fault.is_empty() {
                whole_run += 1;
            }
            tasks.extend(at_fault);
        }
        tasks.len() + whole_run
    }

    /// Whether every check passed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Every task of `0..num_tasks` decided exactly once by `decided`.
#[must_use]
pub fn decided_once(num_tasks: usize, decided: impl IntoIterator<Item = TaskId>) -> Vec<Violation> {
    let mut seen = vec![0u32; num_tasks];
    let mut out = Vec::new();
    for task in decided {
        match seen.get_mut(task) {
            Some(n) => {
                *n += 1;
                if *n == 2 {
                    out.push(Violation::DecidedTwice { task });
                }
            }
            None => out.push(Violation::UnknownTask { task }),
        }
    }
    out.extend(
        seen.iter()
            .enumerate()
            .filter(|&(_, &n)| n == 0)
            .map(|(task, _)| Violation::NotDecided { task }),
    );
    out
}

/// `payment` is a finite non-negative charge within the bid and, for a
/// budget-capped bidder, within the budget.
fn payment_bounds(task: &Task, payment: f64) -> Vec<Violation> {
    let mut out = Vec::new();
    if !payment.is_finite() || payment < 0.0 {
        out.push(Violation::BadPayment {
            task: task.id,
            payment,
        });
    }
    if payment > task.bid {
        out.push(Violation::PaymentAboveBid {
            task: task.id,
            payment,
            bid: task.bid,
        });
    }
    if let Some(budget) = task.budget {
        if payment > budget {
            out.push(Violation::PaymentAboveBudget {
                task: task.id,
                payment,
                budget,
            });
        }
    }
    out
}

/// Placements of `schedule` lie in `[a_i + h_in, d_i]`, one per slot, on
/// nodes the task can use. Returns the work they deliver.
fn placements_in_window(
    scenario: &Scenario,
    task: &Task,
    schedule: &Schedule,
    out: &mut Vec<Violation>,
) -> u64 {
    let delay = if task.needs_preprocessing {
        if schedule.vendor.is_none() {
            out.push(Violation::MissingVendor { task: task.id });
        }
        schedule.vendor.delay
    } else {
        0
    };
    let earliest = task.arrival + delay;
    let mut slots = BTreeSet::new();
    let mut done = 0u64;
    for &(node, slot) in &schedule.placements {
        if node >= scenario.nodes.len() || slot >= scenario.horizon || node >= task.rates.len() {
            out.push(Violation::OutOfRange {
                task: task.id,
                node,
                slot,
            });
            continue;
        }
        if slot < earliest || slot > task.deadline {
            out.push(Violation::OutsideWindow {
                task: task.id,
                slot,
                earliest,
                deadline: task.deadline,
            });
        }
        if !slots.insert(slot) {
            out.push(Violation::DuplicateSlot {
                task: task.id,
                slot,
            });
        }
        if task.rates[node] == 0 {
            out.push(Violation::IncompatibleNode {
                task: task.id,
                node,
            });
        }
        done += task.rates[node];
    }
    done
}

/// An admitted decision: a schedule inside the task's window that
/// delivers `M_i`, and a payment within bid and budget.
#[must_use]
pub fn admitted_decision(scenario: &Scenario, decision: &Decision) -> Vec<Violation> {
    let Some(schedule) = decision.schedule() else {
        return Vec::new();
    };
    let Some(task) = scenario.tasks.get(decision.task) else {
        return vec![Violation::UnknownTask {
            task: decision.task,
        }];
    };
    let mut out = Vec::new();
    let done = placements_in_window(scenario, task, schedule, &mut out);
    if done < task.work {
        out.push(Violation::ShortWork {
            task: task.id,
            done,
            required: task.work,
        });
    }
    out.extend(payment_bounds(task, decision.payment()));
    out
}

/// An aborted task's settlement: the executed prefix lies inside the
/// window and before the failure, the original payment (refund plus
/// consumed charge) is within bid and budget, and the refund lies in
/// `[0, payment]`.
#[must_use]
pub fn aborted_settlement(scenario: &Scenario, aborted: &AbortedTask) -> Vec<Violation> {
    let Some(task) = scenario.tasks.get(aborted.task) else {
        return vec![Violation::UnknownTask { task: aborted.task }];
    };
    let mut out = Vec::new();
    placements_in_window(scenario, task, &aborted.prefix, &mut out);
    if let Some(&(_, slot)) = aborted
        .prefix
        .placements
        .iter()
        .find(|p| p.1 >= aborted.slot)
    {
        out.push(Violation::OutsideWindow {
            task: task.id,
            slot,
            earliest: task.arrival,
            deadline: aborted.slot.saturating_sub(1),
        });
    }
    let payment = aborted.refund + aborted.consumed;
    out.extend(payment_bounds(task, payment));
    if !(aborted.refund >= 0.0 && aborted.refund <= payment) {
        out.push(Violation::RefundAbovePayment {
            task: task.id,
            refund: aborted.refund,
            payment,
        });
    }
    out
}

/// Per-(node, slot) compute and memory summed from every admitted
/// schedule and every aborted task's consumed prefix stay within `C_kp`
/// and `C_km − r_b`.
#[must_use]
pub fn capacity(
    scenario: &Scenario,
    decisions: &[Decision],
    aborted: &[AbortedTask],
) -> Vec<Violation> {
    let horizon = scenario.horizon;
    let cells = scenario.nodes.len() * horizon;
    let mut compute = vec![0u64; cells];
    let mut memory = vec![0.0f64; cells];
    let mut tasks_on = vec![0u32; cells];
    let mut out = Vec::new();
    // `(cell, index in out)` of every capacity violation.
    let mut over = Vec::new();
    let schedules = || {
        decisions
            .iter()
            .filter_map(Decision::schedule)
            .chain(aborted.iter().map(|a| &a.prefix))
    };
    for schedule in schedules() {
        let Some(task) = scenario.tasks.get(schedule.task) else {
            out.push(Violation::UnknownTask {
                task: schedule.task,
            });
            continue;
        };
        for &(node, slot) in &schedule.placements {
            if node >= scenario.nodes.len() || slot >= horizon || node >= task.rates.len() {
                out.push(Violation::OutOfRange {
                    task: task.id,
                    node,
                    slot,
                });
                continue;
            }
            let cell = node * horizon + slot;
            compute[cell] += task.rates[node];
            memory[cell] += task.memory_gb;
            tasks_on[cell] += 1;
        }
    }
    for (node, spec) in scenario.nodes.iter().enumerate() {
        let adapter_gb = spec.memory_gb - scenario.base_model_gb;
        for slot in 0..horizon {
            let cell = node * horizon + slot;
            if compute[cell] > spec.compute_capacity {
                over.push((cell, out.len()));
                out.push(Violation::ComputeOver {
                    node,
                    slot,
                    used: compute[cell],
                    capacity: spec.compute_capacity,
                    tasks: Vec::new(),
                });
            }
            if memory[cell] > adapter_gb + MEM_SLACK_GB * f64::from(tasks_on[cell]) {
                over.push((cell, out.len()));
                out.push(Violation::MemoryOver {
                    node,
                    slot,
                    used_gb: memory[cell],
                    capacity_gb: adapter_gb,
                    tasks: Vec::new(),
                });
            }
        }
    }
    if over.is_empty() {
        return out;
    }
    // Name the tasks on each over-committed cell.
    for schedule in schedules() {
        for &(node, slot) in &schedule.placements {
            if node >= scenario.nodes.len() || slot >= horizon {
                continue;
            }
            let cell = node * horizon + slot;
            for &(_, i) in over.iter().filter(|&&(c, _)| c == cell) {
                if let Violation::ComputeOver { tasks, .. } | Violation::MemoryOver { tasks, .. } =
                    &mut out[i]
                {
                    tasks.push(schedule.task);
                }
            }
        }
    }
    out
}

/// Operational cost `Σ price(k, t) · w_i` of `schedule`'s placements
/// (placements outside the grid cost nothing; [`capacity`] flags them).
fn energy(scenario: &Scenario, task: &Task, schedule: &Schedule) -> f64 {
    schedule
        .placements
        .iter()
        .filter(|&&(k, t)| k < scenario.nodes.len() && t < scenario.horizon)
        .map(|&(k, t)| scenario.cost.prices_row(k)[t] * task.energy_weight)
        .sum()
}

/// Social welfare of a settled run: `Σ (b_i − q_in − Σ e_ikt)` over
/// completed tasks, minus the vendor and energy cost of every aborted
/// task's executed prefix.
#[must_use]
pub fn welfare(scenario: &Scenario, decisions: &[Decision], aborted: &[AbortedTask]) -> f64 {
    let mut total = 0.0;
    for d in decisions {
        if let (Some(schedule), Some(task)) = (d.schedule(), scenario.tasks.get(d.task)) {
            total += task.bid - schedule.vendor.price - energy(scenario, task, schedule);
        }
    }
    for a in aborted {
        if let Some(task) = scenario.tasks.get(a.task) {
            total -= a.prefix.vendor.price + energy(scenario, task, &a.prefix);
        }
    }
    total
}

/// Whether `a` and `b` agree to [`REL_TOL`] of the larger magnitude.
#[must_use]
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The program's reported welfare against the benchmark's own sum.
#[must_use]
pub fn welfare_matches(reported: f64, recomputed: f64) -> Vec<Violation> {
    if close(reported, recomputed) {
        Vec::new()
    } else {
        vec![Violation::WelfareMismatch {
            reported,
            recomputed,
        }]
    }
}

/// The dual prices `λ`, `φ` of every node over one task's window,
/// copied before the task is decided.
#[derive(Debug, Clone, Default)]
pub struct DualWindow {
    first: Slot,
    width: usize,
    lambda: Vec<f64>,
    phi: Vec<f64>,
}

impl DualWindow {
    /// Copies `duals` over slots `[task.arrival, task.deadline]`
    /// (clipped to the horizon) into `self`, reusing its buffers.
    pub fn capture(&mut self, duals: &DualState, task: &Task) {
        let last = task.deadline.min(duals.horizon().saturating_sub(1));
        self.first = task.arrival;
        self.width = (last + 1).saturating_sub(task.arrival);
        self.lambda.clear();
        self.phi.clear();
        if self.width == 0 {
            return;
        }
        for k in 0..duals.nodes() {
            self.lambda
                .extend_from_slice(&duals.lambda_row(k)[self.first..=last]);
            self.phi
                .extend_from_slice(&duals.phi_row(k)[self.first..=last]);
        }
    }

    fn at(&self, grid: &[f64], node: NodeId, slot: Slot) -> Option<f64> {
        let j = slot.checked_sub(self.first).filter(|&j| j < self.width)?;
        grid.get(node * self.width + j).copied()
    }

    /// Eq. (14) with the operational cost added (`WithEnergy`):
    /// `q_in + max λ · Σ s_ik / unit + max φ · r_i |l| + Σ e_ikt`, the
    /// maxima over the schedule's cells. `None` when a placement lies
    /// outside the captured window.
    #[must_use]
    pub fn eq14_payment(
        &self,
        scenario: &Scenario,
        task: &Task,
        schedule: &Schedule,
        compute_unit: f64,
    ) -> Option<f64> {
        let mut max_lambda = 0.0f64;
        let mut max_phi = 0.0f64;
        let mut samples = 0u64;
        for &(node, slot) in &schedule.placements {
            max_lambda = max_lambda.max(self.at(&self.lambda, node, slot)?);
            max_phi = max_phi.max(self.at(&self.phi, node, slot)?);
            samples += task.rates.get(node).copied()?;
        }
        let memory = task.memory_gb * schedule.placements.len() as f64;
        Some(
            schedule.vendor.price
                + max_lambda * (samples as f64 / compute_unit)
                + max_phi * memory
                + energy(scenario, task, schedule),
        )
    }
}

/// An admitted decision's payment against Eq. (14) recomputed from the
/// duals `window` captured before the decision.
#[must_use]
pub fn eq14(
    scenario: &Scenario,
    decision: &Decision,
    window: &DualWindow,
    compute_unit: f64,
) -> Vec<Violation> {
    let (Some(schedule), Some(task)) = (decision.schedule(), scenario.tasks.get(decision.task))
    else {
        return Vec::new();
    };
    let payment = decision.payment();
    let expected = window
        .eq14_payment(scenario, task, schedule, compute_unit)
        .unwrap_or(f64::NAN);
    if close(payment, expected) {
        Vec::new()
    } else {
        vec![Violation::Eq14Mismatch {
            task: task.id,
            payment,
            expected,
        }]
    }
}

/// FNV-1a over the decision list — task id, outcome, payment bits,
/// vendor and placements — for comparing two runs of the same inputs.
#[must_use]
pub fn fingerprint(decisions: &[Decision]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for d in decisions {
        mix(d.task as u64);
        mix(d.payment().to_bits());
        match d.schedule() {
            Some(s) => {
                mix(1);
                mix(s.vendor.vendor as u64);
                for &(k, t) in &s.placements {
                    mix(k as u64);
                    mix(t as u64);
                }
            }
            None => mix(0),
        }
    }
    h
}
