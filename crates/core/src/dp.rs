//! Algorithm 2's `findSchedule`: the dynamic program of Eqs. (12)–(13).
//!
//! For one task and one candidate start slot (`a_i + h_in` for a vendor
//! `n`), find the set of `(node, slot)` placements minimizing the
//! dual-priced cost
//!
//! ```text
//! Σ_(k,t)∈l ( s_ik·λ_kt + r_i·φ_kt + e_ikt )
//! ```
//!
//! subject to: total work ≥ `M_i`, at most one node per slot, all slots in
//! `[start, d_i]`. Following the paper's pseudocode (Algorithm 2 line 11)
//! the DP prices each slot with the *current per-slot* duals; the
//! admission value `F(il)` (Eq. 10) is then computed exactly with the
//! max-dual form by the caller.
//!
//! **Work quantization.** The DP's work axis is quantized to units of the
//! task's slowest compatible node rate (`u = min_k s_ik`), so the table
//! stays `O(window × slots-needed)`. Rates are rounded *down* to unit
//! multiples, which can only over-provision — a returned schedule always
//! delivers at least `M_i` true samples (checked in tests).
//!
//! **Two pipelines.** [`find_schedule_on_grid`] is the production path:
//! it slices a pre-built [`DeltaGrid`] by start offset, reuses the
//! [`DpBuffers`] arena across calls with no full-table clear, restricts
//! each DP row to the reachable work trapezoid, applies only the grid's
//! precomputed per-column front candidates, and terminates early
//! once the running optimum meets the column-minima lower bound. The
//! value/choice tables live in a flat, slot-major, *padded* slab: each
//! row is `stride = cols.next_multiple_of(LANES)` wide so every row
//! starts lane-aligned and the [`crate::kernel`] min-plus row kernel can
//! run full-width vector updates without straddling rows.
//! [`find_schedule_reference`] is the straight-line implementation kept
//! as the equivalence oracle: both produce bit-identical costs and
//! placements (see the unit tests here and
//! `tests/pipeline_equivalence.rs` for the proofs-by-execution;
//! `tests/dp_kernel_equivalence.rs` additionally pins the kernel against
//! a straight-line loop).

use crate::duals::DualState;
use crate::grid::{DeltaGrid, LB_SLACK};
use crate::kernel::{self, Isa};
use pdftsp_cluster::CapacityLedger;
use pdftsp_telemetry::{Event, Telemetry};
use pdftsp_types::{NodeId, Scenario, Slot, Task, VendorQuote};

/// Everything `find_schedule` consults.
#[derive(Clone, Copy)]
pub struct DpContext<'a> {
    /// The scenario (nodes, cost surface, base model size).
    pub scenario: &'a Scenario,
    /// Current dual prices `λ^{(i-1)}`, `φ^{(i-1)}`.
    pub duals: &'a DualState,
    /// When `Some`, `(k, t)` cells without residual capacity for the task
    /// are masked out of the DP ([`crate::config::CapacityPolicy::MaskSaturated`]).
    pub ledger: Option<&'a CapacityLedger>,
    /// Samples per compute pricing unit.
    pub compute_unit: f64,
    /// Observability hooks (`None` skips all emission and counting).
    pub telemetry: Option<&'a Telemetry>,
}

/// DP work accounting for one `findSchedule` invocation, summed over
/// refinement attempts so each invocation yields exactly one
/// [`Event::DpRun`] — the invariant the event-stream tests assert.
#[derive(Debug, Default, Clone, Copy)]
struct DpWork {
    rows: usize,
    cells: u64,
    early_exit: bool,
}

/// Counts and emits one completed `findSchedule` invocation.
fn record_dp_run(ctx: &DpContext<'_>, task: &Task, start: Slot, work: DpWork, feasible: bool) {
    let Some(tel) = ctx.telemetry else { return };
    let c = &tel.counters;
    c.bump(&c.dp_runs, 1);
    c.bump(&c.dp_rows, work.rows as u64);
    c.bump(&c.dp_cells, work.cells);
    if work.early_exit {
        c.bump(&c.dp_early_exits, 1);
    }
    tel.emit(|| Event::DpRun {
        task: task.id,
        start,
        rows: work.rows,
        cells: work.cells,
        early_exit: work.early_exit,
        feasible,
    });
}

/// A schedule candidate produced by the DP.
#[derive(Debug, Clone, PartialEq)]
pub struct DpResult {
    /// Chosen `(node, slot)` placements, sorted by slot.
    pub placements: Vec<(NodeId, Slot)>,
    /// The DP objective: `Σ (s·λ + r·φ + e)` with `s` in pricing units.
    pub dp_cost: f64,
    /// The operational-cost component `Σ e_ikt` alone.
    pub energy: f64,
}

/// Reusable DP work area: table, choice matrix, quantized rates, and the
/// column-minima scratch used for pruning bounds.
///
/// All vectors keep their capacity across calls, so a warm scheduler's
/// per-arrival evaluation allocates only the output placements.
#[derive(Debug, Default)]
pub struct DpBuffers {
    /// Flat slot-major slab: `dp[t·stride + w]` = min cost to accumulate
    /// ≥ `w` units by row `t`, with `stride = cols` rounded up to
    /// [`kernel::LANES`] so every row starts lane-aligned. Padding cells
    /// `[cols, stride)` are never read or written by the sweep.
    dp: Vec<f64>,
    /// `choice[t·stride + w]`: 0 = idle this slot, `c+1` = run on node `c`.
    choice: Vec<u16>,
    /// Quantized per-node gains `s_ik / unit`.
    s_units: Vec<u64>,
    /// Ascending finite column minima of the active window.
    sorted_mins: Vec<f64>,
    /// `prefix[m]` = sum of the `m` cheapest column minima.
    prefix: Vec<f64>,
    /// Scratch for [`DeltaGrid::cost_lower_bound`] calls.
    pub(crate) col_scratch: Vec<f64>,
    /// The reconstruction walk's placements, before the exact copy out.
    path: Vec<(NodeId, Slot)>,
}

/// Everything one scheduler instance reuses across arrivals: the shared
/// delta grid, the DP arena and the vendor loop's buffers.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// The per-arrival `(node, slot)` cost matrix.
    pub grid: DeltaGrid,
    /// The DP work area.
    pub bufs: DpBuffers,
    /// Vendors that survive the admission bound: quote, start slot and
    /// the bound on `F(il)`.
    pub(crate) plans: Vec<(VendorQuote, Slot, f64)>,
    /// The order the vendor loop visits `plans` in.
    pub(crate) order: Vec<usize>,
    /// This arrival's DP results, one per distinct start slot.
    pub(crate) memo: Vec<(Slot, Option<DpResult>)>,
}

/// Runs `findSchedule` for `task` with execution window `[start, d_i]`.
///
/// Returns `None` when no placement set can deliver `M_i` by the deadline
/// (for the given capacity mask). This standalone entry builds a fresh
/// [`DeltaGrid`] per call; the scheduler hot path builds the grid once
/// per arrival and calls [`find_schedule_on_grid`] per vendor instead.
#[must_use]
pub fn find_schedule(ctx: &DpContext<'_>, task: &Task, start: Slot) -> Option<DpResult> {
    let mut scratch = EvalScratch::default();
    scratch.grid.build(ctx, task, start.min(task.arrival));
    find_schedule_on_grid(ctx, task, start, &scratch.grid, &mut scratch.bufs)
}

/// `findSchedule` over a pre-built [`DeltaGrid`], reusing `bufs`.
///
/// `grid` must have been built with `base ≤ start` for this task against
/// the same duals/ledger state. Tries a coarse work quantization first
/// and escalates to a fine one only when the coarse rounding loss makes a
/// tight task look infeasible — rare, so the common path stays cheap.
#[must_use]
pub fn find_schedule_on_grid(
    ctx: &DpContext<'_>,
    task: &Task,
    start: Slot,
    grid: &DeltaGrid,
    bufs: &mut DpBuffers,
) -> Option<DpResult> {
    if grid.is_unusable() || start > grid.deadline() || start < grid.base() {
        return None;
    }
    // Prefix sums of the window's ascending usable column minima:
    // `prefix[m]` lower-bounds any m-placement completion. Refinement-free
    // (deltas do not depend on the work quantization), so computed once.
    let off = start - grid.base();
    bufs.sorted_mins.clear();
    bufs.sorted_mins.extend(
        grid.col_min()[off..]
            .iter()
            .copied()
            .filter(|d| d.is_finite()),
    );
    bufs.sorted_mins.sort_unstable_by(|a, b| a.total_cmp(b));
    bufs.prefix.clear();
    bufs.prefix.push(0.0);
    let mut acc = 0.0;
    for &v in &bufs.sorted_mins {
        acc += v;
        bufs.prefix.push(acc);
    }
    let mut work = DpWork::default();
    let mut result = None;
    for refinement in [8u64, 64] {
        if let Some(r) = dp_on_grid(ctx, task, start, grid, bufs, refinement, &mut work) {
            result = Some(r);
            break;
        }
    }
    let feasible = result.is_some();
    record_dp_run(ctx, task, start, work, feasible);
    result
}

fn dp_on_grid(
    ctx: &DpContext<'_>,
    task: &Task,
    start: Slot,
    grid: &DeltaGrid,
    bufs: &mut DpBuffers,
    refinement: u64,
    work: &mut DpWork,
) -> Option<DpResult> {
    let off = start - grid.base();
    let window = grid.deadline() - start + 1;
    let unit = (grid.min_rate() / refinement).max(1);
    bufs.s_units.clear();
    bufs.s_units.extend(grid.rates().iter().map(|&r| r / unit));
    let w_target = task.work.div_ceil(unit) as usize;
    let max_per_slot = *bufs.s_units.iter().max().expect("non-empty") as usize;
    if max_per_slot * window < w_target {
        return None; // even running flat-out cannot finish
    }
    // Any completion needs ≥ ⌈w_target/max_per_slot⌉ placements in
    // distinct usable slots, each costing at least its column minimum.
    let m_q = w_target.div_ceil(max_per_slot);
    if m_q >= bufs.prefix.len() {
        return None; // fewer usable columns than placements needed
    }
    let lb_q = bufs.prefix[m_q] * LB_SLACK;

    let cols = w_target + 1;
    // Flat padded slab: rows are `stride` apart so each starts at a
    // multiple of the kernel lane width. The pad cells `[cols, stride)`
    // are never read or written — the sweep, the guard band, and the
    // reconstruction are all bounded by `w_target`.
    let stride = cols.next_multiple_of(kernel::LANES);
    let cells = (window + 1) * stride;
    // Buffers grow by capacity only — no full-table clear. Every cell the
    // sweep or the reconstruction reads is written first during *this*
    // call (the maintained trapezoid below plus its +∞ guard band), so
    // stale contents from earlier calls are never observed.
    if bufs.dp.len() < cells {
        bufs.dp.resize(cells, f64::INFINITY);
    }
    if bufs.choice.len() < cells {
        bufs.choice.resize(cells, 0);
    }
    // Row 0: only w = 0 is reachable; [1, min(mps, w_target)] is the guard
    // band row 1 may read past its own copy span.
    bufs.dp[0] = 0.0;
    for v in &mut bufs.dp[1..=max_per_slot.min(w_target)] {
        *v = f64::INFINITY;
    }

    // Row sweep over the reachable work *trapezoid*: row `t` maintains
    // exactly the columns that can still influence the target cell,
    //
    //   w_lo(t) = max(0, w_target − (window − t)·mps)   (the remaining
    //             rows can add at most (window − t)·mps units), and
    //   w_hi(t) = min(w_target, t·mps)                  (t rows can have
    //             accumulated at most t·mps units).
    //
    // Cells outside are either provably +∞ (above w_hi — the reference
    // agrees) or provably irrelevant (below w_lo: any path through them
    // can no longer reach w_target, and the reconstruction walk never
    // descends below w_target − (rows remaining)·mps ≥ w_lo). Each row
    // additionally writes an +∞ guard band of `mps` cells above w_hi so
    // the next row's reads `prev[w]`/`prev[w − gain]` (which reach at most
    // w_hi(t+1) ≤ w_hi(t) + mps) always land on initialized memory, and
    // keeps dp[t][0] = 0 live for the floor transition (idling is free;
    // the strict-< tie-break never displaces it, exactly as in the
    // reference). Candidate loops visit each cell's candidates in the
    // same ascending-node order (same strict-< tie-break) as the
    // reference's cell-major sweep, so maintained cells are bit-identical.
    // The per-column candidate fronts come precomputed from the grid
    // build, pruned from both sides on raw rates; dropping such a node
    // never changes a cell or a choice tag at any refinement (see the
    // grid module docs for the proof).
    let isa = Isa::detected();
    let mut effective = window;
    for t_rel in 1..=window {
        let col = off + t_rel - 1;
        let w_hi = w_target.min(t_rel * max_per_slot);
        let w_lo = w_target.saturating_sub((window - t_rel) * max_per_slot);
        work.rows += 1;
        work.cells += (w_hi - w_lo + 1) as u64;
        let (prev_part, cur_part) = bufs.dp.split_at_mut(t_rel * stride);
        let prev = &prev_part[(t_rel - 1) * stride..];
        let cur = &mut cur_part[..stride];
        cur[w_lo..=w_hi].copy_from_slice(&prev[w_lo..=w_hi]);
        for v in &mut cur[w_hi + 1..=(w_hi + max_per_slot).min(w_target)] {
            *v = f64::INFINITY;
        }
        let crow = &mut bufs.choice[t_rel * stride..(t_rel + 1) * stride];
        for v in &mut crow[w_lo..=w_hi] {
            *v = 0;
        }
        if w_lo > 0 {
            cur[0] = 0.0;
            crow[0] = 0;
        }
        let front = grid.col_front(col);
        for (&c, &delta) in front.nodes.iter().zip(front.deltas) {
            let c = c as usize;
            let gain = bufs.s_units[c] as usize;
            isa.apply_candidate(prev, cur, crow, w_lo, w_hi, gain, delta, c as u16 + 1);
        }
        // Early termination: once the target cell meets the lower bound no
        // later row can strictly improve it, so every remaining choice
        // cell on the reconstruction path stays 0 — identical output. The
        // target cell is only live once the trapezoid reaches it.
        if w_hi == w_target && cur[w_target] <= lb_q {
            effective = t_rel;
            work.early_exit = true;
            break;
        }
    }

    let final_cost = bufs.dp[effective * stride + w_target];
    if !final_cost.is_finite() {
        return None;
    }

    // Reconstruct. The walk starts at (effective, w_target) and loses at
    // most `mps` work units per row, so it stays inside each row's
    // maintained span [w_lo(t), w_hi(t)] (plus the explicitly zeroed
    // column 0) — never touching unmaintained cells. It collects into
    // the reused `path`, so the output is one exactly sized allocation.
    bufs.path.clear();
    let mut w = w_target;
    for t_rel in (1..=effective).rev() {
        let c = bufs.choice[t_rel * stride + w];
        if c > 0 {
            let pos = (c - 1) as usize;
            bufs.path.push((grid.compatible()[pos], start + t_rel - 1));
            w = w.saturating_sub(bufs.s_units[pos] as usize);
        }
    }
    bufs.path.reverse();
    let placements = bufs.path.to_vec();

    let energy = ctx.scenario.cost.total_e(task, placements.iter());
    Some(DpResult {
        placements,
        dp_cost: final_cost,
        energy,
    })
}

/// The straight-line `findSchedule` kept as the equivalence oracle for
/// the grid pipeline (and selectable via
/// [`crate::config::EvalPipeline::Reference`]).
#[must_use]
pub fn find_schedule_reference(ctx: &DpContext<'_>, task: &Task, start: Slot) -> Option<DpResult> {
    let mut work = DpWork::default();
    let mut result = None;
    for refinement in [8u64, 64] {
        if let Some(r) = find_schedule_quantized(ctx, task, start, refinement, &mut work) {
            result = Some(r);
            break;
        }
    }
    let feasible = result.is_some();
    record_dp_run(ctx, task, start, work, feasible);
    result
}

fn find_schedule_quantized(
    ctx: &DpContext<'_>,
    task: &Task,
    start: Slot,
    refinement: u64,
    work: &mut DpWork,
) -> Option<DpResult> {
    let scenario = ctx.scenario;
    let deadline = task.deadline.min(scenario.horizon.saturating_sub(1));
    if start > deadline {
        return None;
    }
    let window = deadline - start + 1;

    // Compatible nodes: positive rate and the adapter fits at all.
    let compatible: Vec<NodeId> = (0..scenario.nodes.len())
        .filter(|&k| task.rate(k) > 0 && task.memory_gb <= scenario.adapter_memory(k))
        .collect();
    if compatible.is_empty() {
        return None;
    }

    // Work quantization: refine below the slowest rate so that rounding
    // rates down to unit multiples loses at most 1/refinement of any
    // node's throughput (unit = min rate would lose up to half of a
    // faster node's rate and declare tight tasks infeasible).
    let min_rate = compatible
        .iter()
        .map(|&k| task.rate(k))
        .min()
        .expect("non-empty");
    let unit = (min_rate / refinement).max(1);
    let s_units: Vec<u64> = compatible.iter().map(|&k| task.rate(k) / unit).collect();
    let w_target = task.work.div_ceil(unit) as usize;
    let max_per_slot = *s_units.iter().max().expect("non-empty") as usize;
    if max_per_slot * window < w_target {
        return None; // even running flat-out cannot finish
    }

    // dp[t][w]: min cost to accumulate ≥ w units using slots start..start+t.
    let cols = w_target + 1;
    // The straight-line sweep touches every cell of every row.
    work.rows += window;
    work.cells += (window * cols) as u64;
    let mut dp = vec![f64::INFINITY; (window + 1) * cols];
    // choice[t][w]: 0 = idle this slot, c+1 = run on compatible[c].
    let mut choice = vec![0u16; (window + 1) * cols];
    dp[0] = 0.0; // dp[0][0]
    for v in &mut dp[1..cols] {
        *v = f64::INFINITY;
    }

    // Per-slot usable set and per-node slot cost Δ_kt. Without a capacity
    // mask every compatible node is usable in every slot, so the usable
    // set is hoisted out of the slot loop; the deltas depend on the slot's
    // duals and must be rebuilt per slot either way.
    let mut deltas: Vec<f64> = Vec::with_capacity(compatible.len());
    let mut usable: Vec<usize> = Vec::with_capacity(compatible.len());
    if ctx.ledger.is_none() {
        usable.extend(0..compatible.len());
    }
    for t_rel in 1..=window {
        let tt = start + t_rel - 1;
        let row = t_rel * cols;
        let prev = (t_rel - 1) * cols;
        if let Some(ledger) = ctx.ledger {
            usable.clear();
            for (c, &k) in compatible.iter().enumerate() {
                if ledger.fits(task, k, tt) {
                    usable.push(c);
                }
            }
        }
        deltas.clear();
        for &c in &usable {
            let k = compatible[c];
            let s_price = task.rate(k) as f64 / ctx.compute_unit;
            deltas.push(
                s_price * ctx.duals.lambda(k, tt)
                    + task.memory_gb * ctx.duals.phi(k, tt)
                    + scenario.cost.e(task, k, tt),
            );
        }
        for w in 0..cols {
            let mut best = dp[prev + w];
            let mut best_choice = 0u16;
            for (ui, &c) in usable.iter().enumerate() {
                let gain = s_units[c] as usize;
                let from = w.saturating_sub(gain);
                let cand = dp[prev + from] + deltas[ui];
                if cand < best {
                    best = cand;
                    best_choice = c as u16 + 1;
                }
            }
            dp[row + w] = best;
            choice[row + w] = best_choice;
        }
    }

    let final_cost = dp[window * cols + w_target];
    if !final_cost.is_finite() {
        return None;
    }

    // Reconstruct.
    let mut placements = Vec::new();
    let mut w = w_target;
    for t_rel in (1..=window).rev() {
        let c = choice[t_rel * cols + w];
        if c > 0 {
            let node_pos = (c - 1) as usize;
            let k = compatible[node_pos];
            placements.push((k, start + t_rel - 1));
            w = w.saturating_sub(s_units[node_pos] as usize);
        }
    }
    placements.reverse();

    let energy = scenario.cost.total_e(task, placements.iter());
    Some(DpResult {
        placements,
        dp_cost: final_cost,
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_types::{CostGrid, GpuModel, NodeSpec, Schedule, TaskBuilder, VendorQuote};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scenario_with_cost(prices: Vec<f64>, nodes: usize, horizon: usize) -> Scenario {
        let node_list = (0..nodes)
            .map(|k| NodeSpec::new(k, GpuModel::A100_80, 4000))
            .collect();
        Scenario {
            horizon,
            base_model_gb: 2.0,
            nodes: node_list,
            tasks: vec![],
            quotes: vec![],
            cost: CostGrid::from_vec(nodes, horizon, prices).unwrap(),
        }
    }

    fn task(work: u64, rates: Vec<u64>, deadline: usize) -> Task {
        TaskBuilder::new(0, 0, deadline)
            .dataset(work)
            .memory_gb(10.0)
            .bid(100.0)
            .rates(rates)
            .build()
            .unwrap()
    }

    fn ctx_parts(sc: &Scenario) -> DualState {
        DualState::new(sc, 1000.0)
    }

    #[test]
    fn picks_cheapest_slots() {
        // 1 node, 6 slots, needs 2 slots of work; slots 2 and 4 are cheap.
        let sc = scenario_with_cost(vec![5.0, 5.0, 1.0, 5.0, 1.0, 5.0], 1, 6);
        let t = task(2000, vec![1000], 5);
        let duals = ctx_parts(&sc);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let r = find_schedule(&ctx, &t, 0).unwrap();
        assert_eq!(r.placements, vec![(0, 2), (0, 4)]);
        assert!((r.energy - 2.0).abs() < 1e-12);
        assert!((r.dp_cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn respects_start_offset() {
        let sc = scenario_with_cost(vec![0.0; 6], 1, 6);
        let t = task(3000, vec![1000], 5);
        let duals = ctx_parts(&sc);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let r = find_schedule(&ctx, &t, 3).unwrap();
        assert!(r.placements.iter().all(|&(_, tt)| tt >= 3));
        assert_eq!(r.placements.len(), 3);
        // Start too late to finish → None.
        assert!(find_schedule(&ctx, &t, 4).is_none());
    }

    #[test]
    fn infeasible_when_window_too_small() {
        let sc = scenario_with_cost(vec![0.0; 4], 1, 4);
        let t = task(10_000, vec![1000], 3);
        let duals = ctx_parts(&sc);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        assert!(find_schedule(&ctx, &t, 0).is_none());
    }

    #[test]
    fn prefers_fast_node_when_prices_are_equal() {
        // Node 1 twice as fast: finishing needs fewer slots → less energy.
        let sc = scenario_with_cost(vec![1.0; 12], 2, 6);
        let t = task(4000, vec![1000, 2000], 5);
        let duals = ctx_parts(&sc);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let r = find_schedule(&ctx, &t, 0).unwrap();
        assert_eq!(r.placements.len(), 2);
        assert!(r.placements.iter().all(|&(k, _)| k == 1));
    }

    #[test]
    fn avoids_highly_priced_cells() {
        let sc = scenario_with_cost(vec![0.0; 6], 1, 6);
        let t = task(2000, vec![1000], 5);
        let mut duals = ctx_parts(&sc);
        // Price slots 0 and 1 via a dummy update.
        let dummy = task(2000, vec![4000], 5);
        let s = Schedule::new(0, VendorQuote::none(), vec![(0, 0), (0, 1)]);
        duals.update(&dummy, &s, 1.0, 5.0, 5.0, 1000.0);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let r = find_schedule(&ctx, &t, 0).unwrap();
        assert!(
            r.placements.iter().all(|&(_, tt)| tt >= 2),
            "{:?}",
            r.placements
        );
    }

    #[test]
    fn masking_skips_saturated_cells() {
        let sc = scenario_with_cost(vec![0.0; 6], 1, 6);
        let t = task(2000, vec![1000], 5);
        let duals = ctx_parts(&sc);
        let mut ledger = CapacityLedger::new(&sc);
        // Saturate compute on slots 0..4 with a fat dummy task.
        let fat = task(4000, vec![4000], 5);
        let s = Schedule::new(0, VendorQuote::none(), vec![(0, 0), (0, 1), (0, 2), (0, 3)]);
        ledger.commit(&fat, &s).unwrap();
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: Some(&ledger),
            compute_unit: 1000.0,
            telemetry: None,
        };
        // Only slots 4, 5 remain → exactly fits the 2-slot task.
        let r = find_schedule(&ctx, &t, 0).unwrap();
        assert_eq!(r.placements, vec![(0, 4), (0, 5)]);
        // A 3-slot task no longer fits.
        let t3 = task(3000, vec![1000], 5);
        assert!(find_schedule(&ctx, &t3, 0).is_none());
    }

    #[test]
    fn delivered_work_always_meets_requirement() {
        // Heterogeneous rates not multiples of each other: quantization
        // must stay conservative.
        let sc = scenario_with_cost(vec![1.0; 24], 2, 12);
        for work in [1000u64, 1500, 2700, 5300, 9999] {
            let t = task(work, vec![700, 1900], 11);
            let duals = ctx_parts(&sc);
            let ctx = DpContext {
                scenario: &sc,
                duals: &duals,
                ledger: None,
                compute_unit: 1000.0,
                telemetry: None,
            };
            if let Some(r) = find_schedule(&ctx, &t, 0) {
                let delivered: u64 = r.placements.iter().map(|&(k, _)| t.rate(k)).sum();
                assert!(
                    delivered >= t.work,
                    "work {work}: delivered {delivered} < {}",
                    t.work
                );
            }
        }
    }

    /// Brute-force cross-check: enumerate every placement assignment on a
    /// tiny instance and compare optimal dp_cost.
    #[test]
    fn matches_brute_force_on_tiny_instances() {
        let prices = vec![3.0, 1.0, 2.0, 4.0, 2.0, 1.0, 1.5, 0.5]; // 2 nodes × 4 slots
        let sc = scenario_with_cost(prices, 2, 4);
        let t = task(2000, vec![1000, 1000], 3);
        let mut duals = ctx_parts(&sc);
        // Make duals non-trivial.
        let dummy = task(2000, vec![2000, 2000], 3);
        duals.update(
            &dummy,
            &Schedule::new(0, VendorQuote::none(), vec![(0, 1), (1, 2)]),
            1.3,
            2.0,
            2.0,
            1000.0,
        );
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let got = find_schedule(&ctx, &t, 0).unwrap();

        // Brute force: per slot choose node 0, node 1, or idle (3^4).
        let mut best = f64::INFINITY;
        for mask in 0..81u32 {
            let mut m = mask;
            let mut work = 0u64;
            let mut cost = 0.0;
            for tt in 0..4usize {
                let c = m % 3;
                m /= 3;
                if c > 0 {
                    let k = (c - 1) as usize;
                    work += t.rate(k);
                    cost += t.rate(k) as f64 / 1000.0 * duals.lambda(k, tt)
                        + t.memory_gb * duals.phi(k, tt)
                        + sc.cost.e(&t, k, tt);
                }
            }
            if work >= t.work {
                best = best.min(cost);
            }
        }
        assert!(
            (got.dp_cost - best).abs() < 1e-9,
            "dp {} vs brute {best}",
            got.dp_cost
        );
    }

    #[test]
    fn incompatible_memory_rules_out_node() {
        let mut sc = scenario_with_cost(vec![0.0; 8], 2, 4);
        // Node 1 too small for the task's 10 GB adapter demand.
        sc.nodes[1].memory_gb = 11.0; // adapter space 11 − 2 = 9 < 10
        let t = task(2000, vec![1000, 1000], 3);
        let duals = DualState::new(&sc, 1000.0);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let r = find_schedule(&ctx, &t, 0).unwrap();
        assert!(r.placements.iter().all(|&(k, _)| k == 0));
    }

    /// Bit-equivalence of the grid pipeline against the reference on
    /// randomized instances: same feasibility, same placements, same
    /// (bit-identical) dp_cost and energy — with live duals, a capacity
    /// mask, heterogeneous rates, and nonzero start offsets.
    #[test]
    fn grid_pipeline_is_bit_identical_to_reference() {
        let mut scratch = EvalScratch::default();
        for case in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(0x6B1D_0000 + case);
            let nodes = rng.gen_range(1usize..4);
            let horizon = rng.gen_range(4usize..16);
            let deadline = rng.gen_range(1usize..horizon + 3);
            let work = rng.gen_range(300u64..12_000);
            let rates: Vec<u64> = (0..nodes).map(|_| rng.gen_range(0u64..2_200)).collect();
            let prices: Vec<f64> = (0..nodes * horizon)
                .map(|_| rng.gen_range(0.0f64..3.0))
                .collect();
            let sc = scenario_with_cost(prices, nodes, horizon);
            let t = task(work, rates.clone(), deadline);
            let mut duals = DualState::new(&sc, 1000.0);
            // Warm the duals with a few synthetic commits.
            for u in 0..rng.gen_range(0usize..5) {
                let k = rng.gen_range(0usize..nodes);
                let tt = rng.gen_range(0usize..horizon);
                let dummy = task(1000, vec![1500; nodes], horizon - 1);
                let s = Schedule::new(u, VendorQuote::none(), vec![(k, tt)]);
                duals.update(&dummy, &s, rng.gen_range(0.5f64..2.0), 2.0, 2.0, 1000.0);
            }
            // Random partial ledger commits for the mask.
            let mut ledger = CapacityLedger::new(&sc);
            for u in 0..rng.gen_range(0usize..6) {
                let k = rng.gen_range(0usize..nodes);
                let tt = rng.gen_range(0usize..horizon);
                let r = rng.gen_range(500u64..4_000);
                let blocker = task(r, vec![r; nodes], horizon - 1);
                let s = Schedule::new(100 + u, VendorQuote::none(), vec![(k, tt)]);
                let _ = ledger.commit(&blocker, &s);
            }
            for (use_mask, start) in [
                (false, 0usize),
                (true, 0),
                (false, deadline.saturating_sub(2)),
                (true, rng.gen_range(0usize..deadline + 2)),
            ] {
                let ctx = DpContext {
                    scenario: &sc,
                    duals: &duals,
                    ledger: if use_mask { Some(&ledger) } else { None },
                    compute_unit: 1000.0,
                    telemetry: None,
                };
                let reference = find_schedule_reference(&ctx, &t, start);
                scratch.grid.build(&ctx, &t, start.min(t.arrival));
                let optimized =
                    find_schedule_on_grid(&ctx, &t, start, &scratch.grid, &mut scratch.bufs);
                match (&reference, &optimized) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.placements, b.placements, "case {case} start {start}");
                        assert_eq!(
                            a.dp_cost.to_bits(),
                            b.dp_cost.to_bits(),
                            "case {case} start {start}: {} vs {}",
                            a.dp_cost,
                            b.dp_cost
                        );
                        assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "case {case}");
                    }
                    _ => panic!(
                        "case {case} start {start} mask {use_mask}: feasibility diverged \
                         (reference {:?}, optimized {:?})",
                        reference.is_some(),
                        optimized.is_some()
                    ),
                }
            }
        }
    }

    /// The public `find_schedule` (fresh grid per call) agrees with the
    /// reference too — it is the same grid pipeline underneath.
    #[test]
    fn standalone_entry_matches_reference() {
        for case in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0x57A2_D000 + case);
            let horizon = rng.gen_range(4usize..12);
            let prices: Vec<f64> = (0..2 * horizon)
                .map(|_| rng.gen_range(0.0f64..2.0))
                .collect();
            let sc = scenario_with_cost(prices, 2, horizon);
            let t = task(
                rng.gen_range(500u64..8_000),
                vec![rng.gen_range(200u64..1500), rng.gen_range(200u64..1500)],
                rng.gen_range(1usize..horizon),
            );
            let duals = DualState::new(&sc, 1000.0);
            let ctx = DpContext {
                scenario: &sc,
                duals: &duals,
                ledger: None,
                compute_unit: 1000.0,
                telemetry: None,
            };
            let start = rng.gen_range(0usize..horizon);
            let a = find_schedule_reference(&ctx, &t, start);
            let b = find_schedule(&ctx, &t, start);
            assert_eq!(a, b, "case {case} start {start}");
        }
    }
}
