//! The shared per-arrival delta grid.
//!
//! Algorithm 2 prices every `(node, slot)` cell of a task's execution
//! window with `Δ_kt = s_ik·λ_kt + r_i·φ_kt + e_ikt`. The straight-line
//! implementation recomputes that value once per vendor, per refinement,
//! per DP row — even though `Δ_kt` depends only on the task and the
//! current duals, not on the vendor's start offset or the work
//! quantization. [`DeltaGrid`] computes the whole `compatible × window`
//! matrix exactly once per arrival over the *widest* window
//! `[a_i, d_i]`; each vendor's DP then slices it by start offset.
//!
//! The grid also keeps per-column minima, which power the admission
//! pruning of the scheduler: any feasible schedule needs at least
//! `m = ⌈M_i / max_k s_ik⌉` placements in distinct usable slots, each
//! costing at least its column minimum, so the sum of the `m` cheapest
//! column minima lower-bounds `dp_cost` — and therefore upper-bounds the
//! admission surplus `F(il) ≤ b_i − q_in − dp_cost` without running the
//! DP ([`DeltaGrid::cost_lower_bound`]). A second, *dual-footprint* bound
//! targets the warm-cluster regime where Eq. (10)'s max-dual terms (not
//! `dp_cost`) drive rejection: `F(il)` charges `max λ` on the whole
//! compute footprint and `max φ` on `r_i · |l|`, both of which dominate
//! `min λ · M_i/unit + min φ · r_i · m + m · min e` over the window's
//! usable cells. The suffix minima of λ, φ, and e are precomputed per
//! build, so each vendor's bound costs O(1) beyond the column-minima sum.
//!
//! Beyond the raw cells, the build also precomputes one **Pareto front
//! per column**: the compatible nodes not dominated in that slot by an
//! earlier-indexed node with `delta ≤` and `rate ≥`. The DP row sweep
//! iterates only these candidates ([`DeltaGrid::col_front`]), so the
//! dominance filter runs once per arrival instead of once per DP row per
//! vendor per refinement. Raw-rate dominance is quantization-free: floor
//! division is monotone, so `rate_b ≥ rate_a` implies `⌊rate_b/u⌋ ≥
//! ⌊rate_a/u⌋` for every work unit `u` — a front computed on raw rates is
//! valid for every refinement the DP tries.
//!
//! **Bit-equivalence.** Each cell is computed with the exact expression
//! (and operation order) of the reference DP, so the optimized pipeline's
//! dp costs, schedules, and admissions are bit-identical to the
//! reference's (proven by `tests/pipeline_equivalence.rs`). The column
//! fronts preserve that: they drop only candidates whose quantized
//! `(gain, delta)` is dominated, and under the DP's strict-`<` tie-break a
//! dominated candidate can never win a cell, so pruning it changes no
//! value and no choice tag (the same argument the per-row front used).

use crate::dp::DpContext;
use crate::kernel::Isa;
use pdftsp_types::{NodeId, Slot, Task};

/// Multiplier that makes floating-point lower bounds conservative.
///
/// The column-minima sums are accumulated in a different order than the
/// DP accumulates the same cells, so the two can differ by a few ulps
/// (~`n·ε ≈ 1e-13` relative for realistic window lengths). Scaling the
/// bound down by `1e-12` relative guarantees it never exceeds the true
/// infimum, so pruning and early DP termination can never flip a decision
/// that the exact arithmetic would have made differently. All deltas are
/// non-negative (duals and prices are), so scaling toward zero is always
/// the safe direction.
pub(crate) const LB_SLACK: f64 = 1.0 - 1e-12;

/// Per-arrival `(compatible node) × (window slot)` cost matrix.
///
/// Built once per arriving task via [`DeltaGrid::build`]; all internal
/// vectors are retained across calls so steady-state rebuilds allocate
/// nothing.
#[derive(Debug, Default)]
pub struct DeltaGrid {
    /// First slot covered (column 0).
    base: Slot,
    /// Last slot covered, inclusive (`min(d_i, horizon − 1)`).
    deadline: Slot,
    /// `deadline − base + 1`, or 0 when the window is empty.
    width: usize,
    /// Compatible nodes (positive rate, adapter fits), ascending.
    compatible: Vec<NodeId>,
    /// `s_ik` per compatible node (raw samples/slot).
    rates: Vec<u64>,
    /// Slowest / fastest compatible rate (0 when none compatible).
    min_rate: u64,
    max_rate: u64,
    /// Node-major deltas: `deltas[c * width + j]` prices compatible node
    /// `c` at slot `base + j`; `+∞` where the capacity mask refuses.
    deltas: Vec<f64>,
    /// Per-column minimum over all compatible nodes (`+∞` if none usable).
    col_min: Vec<f64>,
    /// `lam_suf[j]` = min `λ_kt` over usable cells with column ≥ `j`
    /// (`+∞` when no such cell). Powers the dual-footprint bound.
    lam_suf: Vec<f64>,
    /// Suffix minima of `φ_kt` over usable cells.
    phi_suf: Vec<f64>,
    /// Suffix minima of the per-cell energy cost `e_ikt`.
    e_suf: Vec<f64>,
    /// CSR offsets into the front arrays: column `j`'s candidates live at
    /// `front_idx[j]..front_idx[j+1]` (length `width + 1`).
    front_idx: Vec<u32>,
    /// Compatible-node index of each front candidate, ascending per column.
    front_node: Vec<u32>,
    /// Raw rate `s_ik` of each front candidate (dominance key).
    front_rate: Vec<u64>,
    /// Delta of each front candidate (same bits as its grid cell).
    front_delta: Vec<f64>,
    /// Samples per compute pricing unit, captured at build time (the
    /// admission bound prices the task's work term in these units).
    compute_unit: f64,
    /// Scratch for the ledger's batched fits check.
    fits_buf: Vec<bool>,
}

/// One column's Pareto-front candidates, parallel slices.
#[derive(Debug, Clone, Copy)]
pub struct ColumnFront<'a> {
    /// Compatible-node indices (`c`, not node ids), ascending.
    pub nodes: &'a [u32],
    /// The candidates' deltas (bit-identical to the grid cells).
    pub deltas: &'a [f64],
}

impl DeltaGrid {
    /// (Re)builds the grid for `task` with column 0 at `base`.
    ///
    /// `base` must not exceed any start offset later sliced from the grid
    /// (the scheduler passes `task.arrival`; every vendor start is
    /// `arrival + delay ≥ arrival`).
    pub fn build(&mut self, ctx: &DpContext<'_>, task: &Task, base: Slot) {
        if let Some(tel) = ctx.telemetry {
            tel.counters.bump(&tel.counters.grid_builds, 1);
        }
        let scenario = ctx.scenario;
        self.compatible.clear();
        self.rates.clear();
        self.deltas.clear();
        self.col_min.clear();
        self.lam_suf.clear();
        self.phi_suf.clear();
        self.e_suf.clear();
        self.front_idx.clear();
        self.front_node.clear();
        self.front_rate.clear();
        self.front_delta.clear();
        self.compute_unit = ctx.compute_unit;
        self.base = base;
        self.deadline = task.deadline.min(scenario.horizon.saturating_sub(1));
        self.min_rate = 0;
        self.max_rate = 0;
        if base > self.deadline {
            self.width = 0;
            return;
        }
        self.width = self.deadline - base + 1;
        for k in 0..scenario.nodes.len() {
            if task.rate(k) > 0 && task.memory_gb <= scenario.adapter_memory(k) {
                self.compatible.push(k);
                self.rates.push(task.rate(k));
            }
        }
        if self.compatible.is_empty() {
            return;
        }
        self.min_rate = *self.rates.iter().min().expect("non-empty");
        self.max_rate = *self.rates.iter().max().expect("non-empty");
        self.deltas
            .resize(self.compatible.len() * self.width, f64::INFINITY);
        self.col_min.resize(self.width, f64::INFINITY);
        self.lam_suf.resize(self.width, f64::INFINITY);
        self.phi_suf.resize(self.width, f64::INFINITY);
        self.e_suf.resize(self.width, f64::INFINITY);
        let isa = Isa::detected();
        for c in 0..self.compatible.len() {
            let k = self.compatible[c];
            let masked = if let Some(ledger) = ctx.ledger {
                ledger.fits_span(task, k, base, self.deadline, &mut self.fits_buf);
                true
            } else {
                false
            };
            let lambda = &ctx.duals.lambda_row(k)[base..=self.deadline];
            let phi = &ctx.duals.phi_row(k)[base..=self.deadline];
            let prices = &scenario.cost.prices_row(k)[base..=self.deadline];
            // Same expression — and the same operation order — as the
            // reference DP's per-cell delta, so values are bit-identical.
            let s_price = task.rate(k) as f64 / ctx.compute_unit;
            let row = &mut self.deltas[c * self.width..(c + 1) * self.width];
            isa.delta_row(
                lambda,
                phi,
                prices,
                s_price,
                task.memory_gb,
                task.energy_weight,
                row,
            );
            for j in 0..self.width {
                if masked && !self.fits_buf[j] {
                    row[j] = f64::INFINITY; // the cell cannot host the task
                    continue;
                }
                let delta = row[j];
                let e = prices[j] * task.energy_weight;
                if delta < self.col_min[j] {
                    self.col_min[j] = delta;
                }
                if lambda[j] < self.lam_suf[j] {
                    self.lam_suf[j] = lambda[j];
                }
                if phi[j] < self.phi_suf[j] {
                    self.phi_suf[j] = phi[j];
                }
                if e < self.e_suf[j] {
                    self.e_suf[j] = e;
                }
            }
        }
        // Per-column Pareto fronts over raw rates (see the module docs for
        // why raw-rate dominance is safe under every work quantization).
        // `dominated` is a branchless fold: fronts are a handful of
        // entries, so predicated compares beat a branchy early-out.
        self.front_idx.push(0);
        for j in 0..self.width {
            let col_start = *self.front_idx.last().expect("pushed above") as usize;
            for c in 0..self.compatible.len() {
                let delta = self.deltas[c * self.width + j];
                if !delta.is_finite() {
                    continue; // capacity-masked cell
                }
                let rate = self.rates[c];
                let mut dominated = false;
                for i in col_start..self.front_node.len() {
                    dominated |= self.front_delta[i] <= delta && self.front_rate[i] >= rate;
                }
                if !dominated {
                    self.front_node.push(c as u32);
                    self.front_rate.push(rate);
                    self.front_delta.push(delta);
                }
            }
            self.front_idx.push(self.front_node.len() as u32);
        }
        // Column minima → suffix minima (right-to-left), so every start
        // offset reads its window's cheapest λ/φ/e cell in O(1).
        for j in (0..self.width.saturating_sub(1)).rev() {
            self.lam_suf[j] = self.lam_suf[j].min(self.lam_suf[j + 1]);
            self.phi_suf[j] = self.phi_suf[j].min(self.phi_suf[j + 1]);
            self.e_suf[j] = self.e_suf[j].min(self.e_suf[j + 1]);
        }
        if let Some(tel) = ctx.telemetry {
            tel.counters
                .bump(&tel.counters.grid_cells, self.deltas.len() as u64);
        }
    }

    /// Slot of column 0.
    #[must_use]
    pub fn base(&self) -> Slot {
        self.base
    }

    /// Last covered slot, inclusive.
    #[must_use]
    pub fn deadline(&self) -> Slot {
        self.deadline
    }

    /// Number of columns (0 when the window is empty).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// True when no schedule can exist at all: empty window or no
    /// compatible node (every DP over this grid returns `None`).
    #[must_use]
    pub fn is_unusable(&self) -> bool {
        self.width == 0 || self.compatible.is_empty()
    }

    /// Compatible nodes, ascending.
    #[must_use]
    pub fn compatible(&self) -> &[NodeId] {
        &self.compatible
    }

    /// `s_ik` per compatible node.
    #[must_use]
    pub fn rates(&self) -> &[u64] {
        &self.rates
    }

    /// Slowest compatible rate.
    #[must_use]
    pub fn min_rate(&self) -> u64 {
        self.min_rate
    }

    /// Fastest compatible rate.
    #[must_use]
    pub fn max_rate(&self) -> u64 {
        self.max_rate
    }

    /// The delta row of compatible node `c` (length = width).
    #[must_use]
    pub fn node_row(&self, c: usize) -> &[f64] {
        &self.deltas[c * self.width..(c + 1) * self.width]
    }

    /// Per-column minima (length = width).
    #[must_use]
    pub fn col_min(&self) -> &[f64] {
        &self.col_min
    }

    /// Column `j`'s precomputed Pareto-front candidates (ascending node
    /// index). Valid for any work quantization the DP tries.
    #[must_use]
    pub fn col_front(&self, j: usize) -> ColumnFront<'_> {
        let lo = self.front_idx[j] as usize;
        let hi = self.front_idx[j + 1] as usize;
        ColumnFront {
            nodes: &self.front_node[lo..hi],
            deltas: &self.front_delta[lo..hi],
        }
    }

    /// Conservative lower bound on the admission cost any schedule in
    /// `[start, deadline]` charges against the bid in Eq. (10) — so
    /// `F(il) ≤ b_i − q_in − lb` holds for every candidate this window can
    /// produce — or `None` when feasibility can be ruled out without
    /// running the DP.
    ///
    /// `None` is sound: it is returned only under conditions that force
    /// the reference DP to return `None` too (window shorter than the
    /// fastest node needs, or fewer usable columns than the minimum
    /// placement count `m = ⌈M_i / max_k s_ik⌉`). The bound is the larger
    /// of two valid lower bounds, scaled by `LB_SLACK` (1 − 1e-12):
    ///
    /// 1. **dp-cost**: the sum of the `m` cheapest finite column minima
    ///    (`F(il) ≤ b_i − q_in − dp_cost` because the max-dual charges of
    ///    Eq. (10) dominate the per-slot dual prices inside `dp_cost`);
    /// 2. **dual-footprint**: `m·min e + min λ·(M_i/unit) + min φ·r_i·m`
    ///    over the window's usable cells — sound because any schedule has
    ///    `|l| ≥ m` placements, delivers `Σ s ≥ M_i`, and pays
    ///    `max λ ≥ min λ`, `max φ ≥ min φ`, `Σ e ≥ m·min e`. On a warm
    ///    cluster this term is what actually proves `F(il) ≤ 0`: the
    ///    rejection is driven by the dual footprint, which the dp-cost
    ///    bound under-counts when rates are heterogeneous.
    #[must_use]
    pub fn cost_lower_bound(
        &self,
        task: &Task,
        start: Slot,
        scratch: &mut Vec<f64>,
    ) -> Option<f64> {
        if self.is_unusable() || start > self.deadline || start < self.base {
            return None;
        }
        let window = self.deadline - start + 1;
        if self.max_rate.saturating_mul(window as u64) < task.work {
            return None; // even running flat-out cannot finish
        }
        let m = task.work.div_ceil(self.max_rate) as usize;
        scratch.clear();
        scratch.extend(
            self.col_min[start - self.base..]
                .iter()
                .copied()
                .filter(|d| d.is_finite()),
        );
        if scratch.len() < m {
            return None; // fewer usable slots than placements needed
        }
        if m == 0 {
            return Some(0.0);
        }
        if m < scratch.len() {
            scratch.select_nth_unstable_by(m - 1, |a, b| a.total_cmp(b));
        }
        let delta_lb: f64 = scratch[..m].iter().sum();
        // The suffix minima are finite here: `scratch` being non-empty
        // proves at least one usable cell exists at column ≥ start.
        let j = start - self.base;
        let m_f = m as f64;
        let dual_lb = m_f * self.e_suf[j]
            + self.lam_suf[j] * (task.work as f64 / self.compute_unit)
            + self.phi_suf[j] * (task.memory_gb * m_f);
        Some(delta_lb.max(dual_lb) * LB_SLACK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duals::DualState;
    use pdftsp_cluster::CapacityLedger;
    use pdftsp_types::{
        CostGrid, GpuModel, NodeSpec, Scenario, Schedule, TaskBuilder, VendorQuote,
    };

    fn scenario(prices: Vec<f64>, nodes: usize, horizon: usize) -> Scenario {
        Scenario {
            horizon,
            base_model_gb: 2.0,
            nodes: (0..nodes)
                .map(|k| NodeSpec::new(k, GpuModel::A100_80, 4000))
                .collect(),
            tasks: vec![],
            quotes: vec![],
            cost: CostGrid::from_vec(nodes, horizon, prices).unwrap(),
        }
    }

    fn task(work: u64, rates: Vec<u64>, deadline: usize) -> pdftsp_types::Task {
        TaskBuilder::new(0, 0, deadline)
            .dataset(work)
            .memory_gb(10.0)
            .bid(100.0)
            .rates(rates)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_cells_match_reference_delta_expression() {
        let sc = scenario(vec![1.0, 2.0, 3.0, 4.0, 0.5, 1.5, 2.5, 3.5], 2, 4);
        let t = task(2000, vec![1000, 700], 3);
        let mut duals = DualState::new(&sc, 1000.0);
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
        let mut grid = DeltaGrid::default();
        grid.build(&ctx, &t, 0);
        assert_eq!(grid.compatible(), &[0, 1]);
        assert_eq!(grid.width(), 4);
        for (c, &k) in grid.compatible().iter().enumerate() {
            for tt in 0..4 {
                let want = t.rate(k) as f64 / 1000.0 * duals.lambda(k, tt)
                    + t.memory_gb * duals.phi(k, tt)
                    + sc.cost.e(&t, k, tt);
                assert_eq!(grid.node_row(c)[tt], want, "node {k} slot {tt}");
            }
        }
        for tt in 0..4 {
            let want = grid.node_row(0)[tt].min(grid.node_row(1)[tt]);
            assert_eq!(grid.col_min()[tt], want);
        }
    }

    #[test]
    fn capacity_mask_leaves_infinite_cells() {
        let sc = scenario(vec![0.0; 6], 1, 6);
        let t = task(2000, vec![1000], 5);
        let duals = DualState::new(&sc, 1000.0);
        let mut ledger = CapacityLedger::new(&sc);
        let fat = task(4000, vec![4000], 5);
        ledger
            .commit(
                &fat,
                &Schedule::new(0, VendorQuote::none(), vec![(0, 0), (0, 3)]),
            )
            .unwrap();
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: Some(&ledger),
            compute_unit: 1000.0,
            telemetry: None,
        };
        let mut grid = DeltaGrid::default();
        grid.build(&ctx, &t, 0);
        let row = grid.node_row(0);
        assert!(row[0].is_infinite() && row[3].is_infinite());
        assert!(row[1].is_finite() && row[2].is_finite());
        assert!(grid.col_min()[0].is_infinite());
        assert!(grid.col_min()[1].is_finite());
    }

    #[test]
    fn unusable_grid_when_no_compatible_node_or_empty_window() {
        let sc = scenario(vec![0.0; 4], 1, 4);
        let duals = DualState::new(&sc, 1000.0);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let mut grid = DeltaGrid::default();
        // Zero rate → no compatible node.
        let t = task(2000, vec![0], 3);
        grid.build(&ctx, &t, 0);
        assert!(grid.is_unusable());
        // Base beyond the deadline → empty window.
        let t2 = task(2000, vec![1000], 1);
        grid.build(&ctx, &t2, 2);
        assert!(grid.is_unusable());
    }

    #[test]
    fn rebuild_reuses_buffers_and_resets_state() {
        let sc = scenario(vec![1.0; 12], 2, 6);
        let duals = DualState::new(&sc, 1000.0);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let mut grid = DeltaGrid::default();
        let wide = task(2000, vec![1000, 500], 5);
        grid.build(&ctx, &wide, 0);
        assert_eq!(grid.width(), 6);
        assert_eq!(grid.compatible().len(), 2);
        // A narrower task must not see stale columns or nodes.
        let narrow = task(1000, vec![0, 800], 2);
        grid.build(&ctx, &narrow, 0);
        assert_eq!(grid.width(), 3);
        assert_eq!(grid.compatible(), &[1]);
        assert_eq!(grid.node_row(0).len(), 3);
        assert_eq!(grid.min_rate(), 800);
        assert_eq!(grid.max_rate(), 800);
    }

    /// On a warm cluster with heterogeneous rates the dp-cost bound sees
    /// only the slow node's cheap deltas while `F(il)` charges `max λ` on
    /// the full work — the dual-footprint term must close that gap, and
    /// must still never exceed the true footprint of the DP's optimum.
    #[test]
    fn dual_footprint_bound_dominates_under_warm_duals() {
        use crate::dp::find_schedule;
        let sc = scenario(vec![0.0; 16], 2, 8); // zero prices → e = 0
        let t = task(4000, vec![1000, 4000], 7);
        let mut duals = DualState::new(&sc, 1000.0);
        // Warm every (node, slot) cell so the window's minimum λ and φ
        // are strictly positive.
        for k in 0..2 {
            for tt in 0..8 {
                let dummy = task(1000, vec![1000, 1000], 7);
                let s = Schedule::new(0, VendorQuote::none(), vec![(k, tt)]);
                duals.update(&dummy, &s, 1.0, 2.0, 2.0, 1000.0);
            }
        }
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let mut grid = DeltaGrid::default();
        grid.build(&ctx, &t, 0);
        let mut scratch = Vec::new();
        let lb = grid.cost_lower_bound(&t, 0, &mut scratch).unwrap();
        // m = ⌈4000/4000⌉ = 1, so the dp-cost bound is a single cheap
        // slow-node delta; the dual term charges min λ on all 4 work units.
        let delta_only = grid.col_min().iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            lb > delta_only,
            "dual footprint must strengthen the bound: {lb} vs {delta_only}"
        );
        // Soundness: never above the admission footprint of the optimum.
        let r = find_schedule(&ctx, &t, 0).unwrap();
        let cu: u64 = r.placements.iter().map(|&(k, _)| t.rate(k)).sum();
        let footprint = r.energy
            + duals.max_lambda(&r.placements) * (cu as f64 / 1000.0)
            + duals.max_phi(&r.placements) * t.memory_gb * r.placements.len() as f64;
        assert!(lb <= footprint, "lb {lb} > footprint {footprint}");
    }

    #[test]
    fn cost_lower_bound_is_sound_and_detects_infeasibility() {
        let sc = scenario(vec![3.0, 1.0, 2.0, 4.0, 2.0, 1.0], 1, 6);
        let t = task(3000, vec![1000], 5);
        let duals = DualState::new(&sc, 1000.0);
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: None,
            compute_unit: 1000.0,
            telemetry: None,
        };
        let mut grid = DeltaGrid::default();
        grid.build(&ctx, &t, 0);
        let mut scratch = Vec::new();
        // Needs 3 placements; the 3 cheapest columns cost 1 + 1 + 2 = 4.
        let lb = grid.cost_lower_bound(&t, 0, &mut scratch).unwrap();
        assert!(lb <= 4.0 && lb > 4.0 * 0.999, "lb {lb}");
        // Starting at slot 4 leaves a 2-slot window for 3 slots of work.
        assert!(grid.cost_lower_bound(&t, 4, &mut scratch).is_none());
        // Start past the deadline.
        assert!(grid.cost_lower_bound(&t, 6, &mut scratch).is_none());
    }
}
