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
//! Beyond the raw cells, the build also precomputes one **candidate
//! front per column**: the compatible nodes that can still win a cell of
//! a DP row sweeping that slot. The DP row sweep iterates only these
//! candidates ([`DeltaGrid::col_front`]), so the dominance filter runs
//! once per arrival instead of once per DP row per vendor per refinement.
//! A node `c` with a finite delta in column `j` is dropped when either
//!
//! * **earlier dominance** — some node `e < c` has `rate_e ≥ rate_c` and
//!   `Δ_e ≤ Δ_c`; or
//! * **later dominance** — some node `e > c` has `rate_e ≥ rate_c` and
//!   `Δ_c − Δ_e > margin` (the subtraction evaluated in `f64`), where
//!   `margin = 2·ulp(V)` and `V = Δmax·(2·width + 2)` with `Δmax` the
//!   largest finite `|Δ|` in the grid.
//!
//! Raw-rate dominance is quantization-free: floor division is monotone,
//! so `rate_e ≥ rate_c` implies `gain_e = ⌊rate_e/u⌋ ≥ ⌊rate_c/u⌋ = gain_c`
//! for every work unit `u` — a front computed on raw rates is valid for
//! every refinement the DP tries.
//!
//! **Why dropping is exact.** The DP fills a cell `cur[w]` by starting
//! from the idle value `prev[w]` (tag 0) and folding the candidates in
//! ascending node order under a strict `<`: candidate `c` reads
//! `cand_c = fl(prev[src_c] + Δ_c)` with `src_c = max(w − gain_c, 0)`.
//! The cell ends with the minimum over idle and all candidates, tagged
//! with the *first* one reaching it. Two facts about the DP rows:
//!
//! 1. every row is monotone non-decreasing in `w` (row 0 is `[0, ∞, …]`,
//!    and each later cell is a min of terms `fl(prev[src(w)] + Δ)` whose
//!    source index and rounding are both monotone in `w`), so
//!    `gain_e ≥ gain_c` gives `prev[src_e] ≤ prev[src_c]`;
//! 2. every finite DP value is a rounded sum of at most `width` deltas,
//!    so `|prev[·] + Δ| ≤ (width + 1)·Δmax·(1 + tiny) ≤ V`, and rounding
//!    one such sum moves it by at most `ulp(V)/2`.
//!
//! *Later dominance.* If `prev[src_c] = ∞` the candidate `c` is `∞` and
//! never passes the strict `<`. Otherwise both sources are finite, and
//! `fl(Δ_c − Δ_e) > 2·ulp(V)` puts the exact gap above `1.5·ulp(V)`
//! (that subtraction also rounds by at most `ulp(V)/2`), so the exact
//! sums differ by more than `1.5·ulp(V)` and their roundings by more than
//! `0.5·ulp(V)`: `cand_e < cand_c` strictly, in every cell. Node `c`
//! never reaches a cell's minimum, let alone first. When `V` overflows,
//! `margin` is `∞` or NaN and the rule drops nothing.
//!
//! *Earlier dominance.* `e < c` with `Δ_e ≤ Δ_c` and `prev[src_e] ≤
//! prev[src_c]` gives `cand_e ≤ cand_c` (rounding is monotone), so
//! whenever `c` reaches the minimum, the earlier `e` reached it first.
//!
//! So the first node to reach a cell's minimum is never dropped: a
//! later-dominated node never reaches it, and an earlier-dominated one is
//! never first. Folding only the kept nodes, in the same ascending order
//! and with the same strict `<`, therefore gives the same value bits and
//! the same choice tag in every cell, whichever dropped node dominated
//! whichever. On the 48-node multi-vendor market about 33 nodes are
//! usable per column; earlier dominance alone keeps 5.7 of them, both
//! rules together 1.8.
//!
//! **Fused build.** [`DeltaGrid::build`] makes one pass per node row: the
//! [`Isa::delta_row`] fill, the capacity mask, the select-style folds of
//! the column minima (delta, λ, φ, e) and of the largest `|Δ|`, and the
//! earlier-dominance flags. The flags come from per-*rate-class* running
//! minima: the `R` distinct compatible rates, fastest first, and
//! `run[q][j]` = the least delta seen so far in column `j` among nodes of
//! class `≤ q` (rate at least the `q`-th fastest). A node of class `q`
//! reads `run[q]` and then lowers `run[q..R]`. A backward pass over the
//! node rows does the same for later dominance against `margin`, and a
//! flag gather writes the per-column fronts in ascending node order.
//! `R` is 2 on every generated scenario (the A100/A40 split), so each
//! row costs a few zipped passes over `width` cells.
//!
//! **Bit-equivalence.** Each cell is computed with the exact expression
//! (and operation order) of the reference DP, so the optimized pipeline's
//! dp costs, schedules, and admissions are bit-identical to the
//! reference's (proven by `tests/pipeline_equivalence.rs`), and the
//! column fronts drop only candidates that cannot change a cell's value
//! or choice tag (above; checked against a brute-force fold by the unit
//! tests here).

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
    /// Delta of each front candidate (same bits as its grid cell).
    front_delta: Vec<f64>,
    /// Samples per compute pricing unit, captured at build time (the
    /// admission bound prices the task's work term in these units).
    compute_unit: f64,
    /// Build scratch: the distinct compatible rates, fastest first.
    class_rates: Vec<u64>,
    /// Build scratch: each compatible node's rate class.
    class_of: Vec<usize>,
    /// Build scratch: class-major running minima, `classes × width`.
    run_min: Vec<f64>,
    /// Build scratch: per-column largest finite `|Δ|`.
    abs_max: Vec<f64>,
    /// Build scratch: node-major front-membership flags.
    keep: Vec<bool>,
    /// Scratch for the ledger's batched fits check (all `true` unmasked).
    fits_buf: Vec<bool>,
}

/// One column's front candidates, parallel slices.
#[derive(Debug, Clone, Copy)]
pub struct ColumnFront<'a> {
    /// Compatible-node indices (`c`, not node ids), ascending.
    pub nodes: &'a [u32],
    /// The candidates' deltas (bit-identical to the grid cells).
    pub deltas: &'a [f64],
}

/// `cur[j] ← min(cur[j], row[j])`, select-style, over one class row.
#[inline(always)]
fn lower_into(cur: &mut [f64], row: &[f64]) {
    for (m, &d) in cur.iter_mut().zip(row) {
        *m = if d < *m { d } else { *m };
    }
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
        let width = self.deadline - base + 1;
        self.width = width;
        for k in 0..scenario.nodes.len() {
            if task.rate(k) > 0 && task.memory_gb <= scenario.adapter_memory(k) {
                self.compatible.push(k);
                self.rates.push(task.rate(k));
            }
        }
        if self.compatible.is_empty() {
            return;
        }
        let n = self.compatible.len();
        self.min_rate = *self.rates.iter().min().expect("non-empty");
        self.max_rate = *self.rates.iter().max().expect("non-empty");
        // Rate classes, fastest first: class `q` holds the nodes with the
        // `q`-th largest distinct rate, so "rate ≥ rate_c" is "class ≤ q".
        self.class_rates.clear();
        self.class_rates.extend_from_slice(&self.rates);
        self.class_rates.sort_unstable_by(|a, b| b.cmp(a));
        self.class_rates.dedup();
        let classes = self.class_rates.len();
        self.class_of.clear();
        for &r in &self.rates {
            let q = self.class_rates.iter().position(|&x| x == r);
            self.class_of.push(q.expect("every rate has a class"));
        }
        self.deltas.resize(n * width, f64::INFINITY);
        self.col_min.resize(width, f64::INFINITY);
        self.lam_suf.resize(width, f64::INFINITY);
        self.phi_suf.resize(width, f64::INFINITY);
        self.e_suf.resize(width, f64::INFINITY);
        self.abs_max.clear();
        self.abs_max.resize(width, 0.0);
        self.run_min.clear();
        self.run_min.resize(classes * width, f64::INFINITY);
        self.keep.clear();
        self.keep.resize(n * width, false);
        if ctx.ledger.is_none() {
            self.fits_buf.clear();
            self.fits_buf.resize(width, true);
        }
        let isa = Isa::detected();
        let ew = task.energy_weight;
        // Forward pass, one fused sweep per node row.
        for c in 0..n {
            let k = self.compatible[c];
            if let Some(ledger) = ctx.ledger {
                ledger.fits_span(task, k, base, self.deadline, &mut self.fits_buf);
            }
            let lambda = &ctx.duals.lambda_row(k)[base..=self.deadline];
            let phi = &ctx.duals.phi_row(k)[base..=self.deadline];
            let prices = &scenario.cost.prices_row(k)[base..=self.deadline];
            // Same expression — and the same operation order — as the
            // reference DP's per-cell delta, so values are bit-identical.
            let s_price = task.rate(k) as f64 / ctx.compute_unit;
            let row = &mut self.deltas[c * width..(c + 1) * width];
            isa.delta_row(lambda, phi, prices, s_price, task.memory_gb, ew, row);
            let q = self.class_of[c];
            let fits = &self.fits_buf[..width];
            let seen = &self.run_min[q * width..(q + 1) * width];
            let keep = &mut self.keep[c * width..(c + 1) * width];
            let col_min = &mut self.col_min[..width];
            let lam_suf = &mut self.lam_suf[..width];
            let phi_suf = &mut self.phi_suf[..width];
            let e_suf = &mut self.e_suf[..width];
            let abs_max = &mut self.abs_max[..width];
            for j in 0..width {
                let ok = fits[j];
                // A refused cell cannot host the task: +∞, and it feeds
                // none of the usable-cell minima.
                let d = if ok { row[j] } else { f64::INFINITY };
                row[j] = d;
                col_min[j] = if d < col_min[j] { d } else { col_min[j] };
                let l = if ok { lambda[j] } else { f64::INFINITY };
                lam_suf[j] = if l < lam_suf[j] { l } else { lam_suf[j] };
                let p = if ok { phi[j] } else { f64::INFINITY };
                phi_suf[j] = if p < phi_suf[j] { p } else { phi_suf[j] };
                let e = if ok { prices[j] * ew } else { f64::INFINITY };
                e_suf[j] = if e < e_suf[j] { e } else { e_suf[j] };
                let a = d.abs();
                abs_max[j] = if a < f64::INFINITY && a > abs_max[j] {
                    a
                } else {
                    abs_max[j]
                };
                // Kept unless an earlier node at least as fast is at
                // least as cheap here (`seen` is never NaN: it only ever
                // takes a smaller delta).
                keep[j] = d < f64::INFINITY && seen[j] > d;
            }
            for r in q..classes {
                lower_into(&mut self.run_min[r * width..(r + 1) * width], row);
            }
        }
        // Later dominance needs the grid-wide largest |Δ| for its margin.
        let d_max = self.abs_max.iter().fold(0.0f64, |m, &a| m.max(a));
        let v = d_max * (2 * width + 2) as f64;
        let margin = 2.0 * (v.next_up() - v);
        // Backward pass: the same running minima over later nodes.
        self.run_min.fill(f64::INFINITY);
        for c in (0..n).rev() {
            let q = self.class_of[c];
            let row = &self.deltas[c * width..(c + 1) * width];
            let later = &self.run_min[q * width..(q + 1) * width];
            let keep = &mut self.keep[c * width..(c + 1) * width];
            for ((kp, &d), &m) in keep.iter_mut().zip(row).zip(later) {
                // False when `margin` is NaN (an overflowed `V`): keep.
                let dominated = d - m > margin;
                *kp &= !dominated;
            }
            for r in q..classes {
                lower_into(&mut self.run_min[r * width..(r + 1) * width], row);
            }
        }
        // Gather the flags into per-column fronts, ascending node order.
        self.front_idx.push(0);
        for j in 0..width {
            for c in 0..n {
                let i = c * width + j;
                if self.keep[i] {
                    self.front_node.push(c as u32);
                    self.front_delta.push(self.deltas[i]);
                }
            }
            self.front_idx.push(self.front_node.len() as u32);
        }
        // Column minima → suffix minima (right-to-left), so every start
        // offset reads its window's cheapest λ/φ/e cell in O(1).
        for j in (0..width.saturating_sub(1)).rev() {
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

    /// Column `j`'s precomputed front candidates (ascending node index):
    /// the nodes neither earlier- nor later-dominated (module docs). Valid
    /// for any work quantization the DP tries.
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn task(work: u64, rates: Vec<u64>, deadline: usize) -> Task {
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

    /// The fronts' definition, evaluated by brute force over every pair
    /// of compatible nodes: finite, not earlier-dominated, and not
    /// later-dominated by more than the margin.
    fn brute_front(grid: &DeltaGrid, j: usize, margin: f64) -> Vec<u32> {
        let n = grid.compatible().len();
        let d = |c: usize| grid.node_row(c)[j];
        let r = grid.rates();
        (0..n)
            .filter(|&c| {
                d(c).is_finite()
                    && !(0..c).any(|e| r[e] >= r[c] && d(e) <= d(c))
                    && !(c + 1..n).any(|e| r[e] >= r[c] && d(c) - d(e) > margin)
            })
            .map(|c| c as u32)
            .collect()
    }

    /// The largest finite delta anchors `Δmax`, so the tests know the
    /// margin before they place deltas around it.
    const ANCHOR: f64 = 64.0;

    fn margin_for(width: usize) -> f64 {
        let v = ANCHOR * (2 * width + 2) as f64;
        2.0 * (v.next_up() - v)
    }

    /// One adversarial delta next to `b`: an exact tie, 1-ulp gaps, gaps
    /// just below, at and just above the margin, or an unrelated value.
    fn adversarial(rng: &mut StdRng, b: f64, margin: f64) -> f64 {
        match rng.gen_range(0u32..9) {
            0 => b,
            1 => b.next_up(),
            2 => b.next_down().max(0.0),
            3 => b + margin,
            4 => (b + margin).next_down(),
            5 => (b + margin).next_up(),
            6 => (b + margin * 1.5).next_up(),
            7 => (b - margin).max(0.0),
            _ => rng.gen_range(0.0f64..ANCHOR / 2.0),
        }
    }

    /// A random instance whose deltas are exactly its prices (zero duals,
    /// energy weight 1), with a few cells capacity-masked by a ledger.
    fn adversarial_grid(rng: &mut StdRng) -> (DeltaGrid, Task) {
        const RATES: [u64; 5] = [700, 1000, 1000, 1500, 2200];
        let nodes = rng.gen_range(2usize..9);
        let horizon = rng.gen_range(1usize..13);
        let margin = margin_for(horizon);
        let mut prices = vec![0.0; nodes * horizon];
        for j in 0..horizon {
            let b = rng.gen_range(0.0f64..ANCHOR / 2.0);
            for k in 0..nodes {
                prices[k * horizon + j] = adversarial(rng, b, margin);
            }
        }
        let anchor = (rng.gen_range(0usize..nodes), rng.gen_range(0usize..horizon));
        prices[anchor.0 * horizon + anchor.1] = ANCHOR;
        let sc = scenario(prices, nodes, horizon);
        let rates: Vec<u64> = (0..nodes)
            .map(|_| RATES[rng.gen_range(0usize..5)])
            .collect();
        let t = task(rng.gen_range(500u64..9_000), rates, horizon - 1);
        let duals = DualState::new(&sc, 1000.0);
        let mut ledger = CapacityLedger::new(&sc);
        let blocker = task(4000, vec![4000; nodes], horizon - 1);
        for u in 0..rng.gen_range(0usize..3) {
            let cell = (rng.gen_range(0usize..nodes), rng.gen_range(0usize..horizon));
            if cell != anchor {
                let s = Schedule::new(u + 1, VendorQuote::none(), vec![cell]);
                let _ = ledger.commit(&blocker, &s); // a repeated cell is full already
            }
        }
        let ctx = DpContext {
            scenario: &sc,
            duals: &duals,
            ledger: Some(&ledger),
            compute_unit: 1000.0,
            telemetry: None,
        };
        let mut grid = DeltaGrid::default();
        grid.build(&ctx, &t, 0);
        (grid, t)
    }

    #[test]
    fn fronts_match_the_brute_force_definition() {
        let mut later_drops = 0usize;
        for case in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(0xF407_0000 + case);
            let (grid, _) = adversarial_grid(&mut rng);
            for j in 0..grid.width() {
                let front = grid.col_front(j);
                let want = brute_front(&grid, j, margin_for(grid.width()));
                assert_eq!(front.nodes, &want[..], "case {case} column {j}");
                for (&c, &d) in front.nodes.iter().zip(front.deltas) {
                    assert_eq!(d.to_bits(), grid.node_row(c as usize)[j].to_bits());
                }
                // Nodes only the later rule removed.
                let n = grid.compatible().len();
                let r = grid.rates();
                let one_sided = (0..n)
                    .filter(|&c| {
                        let d = |c: usize| grid.node_row(c)[j];
                        d(c).is_finite() && !(0..c).any(|e| r[e] >= r[c] && d(e) <= d(c))
                    })
                    .count();
                later_drops += one_sided - want.len();
            }
        }
        assert!(
            later_drops > 100,
            "later dominance barely exercised: {later_drops}"
        );
    }

    /// Folding a DP row over the pruned front gives the same value bits
    /// and choice tags as folding it over every compatible node in
    /// ascending order, for random monotone `prev` rows (with `prev[0] =
    /// 0` and `+∞` tails) at both refinements the DP tries.
    #[test]
    fn pruned_fronts_fold_bit_identically() {
        /// One strict-`<` cell fold, as the reference DP does it.
        fn fold(
            prev: &[f64],
            w: usize,
            cands: impl Iterator<Item = (usize, usize, f64)>,
        ) -> (u64, u16) {
            let mut cur = prev[w];
            let mut tag = 0u16;
            for (c, gain, delta) in cands {
                let cand = prev[w.saturating_sub(gain)] + delta;
                if cand < cur {
                    cur = cand;
                    tag = c as u16 + 1;
                }
            }
            (cur.to_bits(), tag)
        }
        let mut cells = 0usize;
        let mut node_wins = 0usize;
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(0xF01D_0000 + case);
            let (grid, t) = adversarial_grid(&mut rng);
            let n = grid.compatible().len();
            let width = grid.width();
            let cap = width as f64 * ANCHOR;
            for refinement in [8u64, 64] {
                let unit = (grid.min_rate() / refinement).max(1);
                let gains: Vec<usize> = grid.rates().iter().map(|&r| (r / unit) as usize).collect();
                let w_max = (t.work.div_ceil(unit) as usize).min(4 * gains.iter().max().unwrap());
                for j in 0..width {
                    // A monotone row: 0 at w = 0, flat runs, sums of this
                    // column's deltas (so candidate sums tie and round),
                    // random values, then a +∞ tail.
                    let mut prev = vec![0.0f64; w_max + 1];
                    for w in 1..=w_max {
                        let last = prev[w - 1];
                        prev[w] = match rng.gen_range(0u32..4) {
                            0 => last,
                            1 => last + grid.node_row(rng.gen_range(0usize..n))[j],
                            2 => last + rng.gen_range(0.0f64..ANCHOR),
                            _ => last + rng.gen_range(0.0f64..1.0) * (cap - last).max(0.0),
                        };
                        if prev[w] > cap {
                            prev[w] = f64::INFINITY;
                        }
                    }
                    let tail = rng.gen_range(1usize..w_max + 2);
                    for v in &mut prev[tail..] {
                        *v = f64::INFINITY;
                    }
                    let front = grid.col_front(j);
                    for w in 0..=w_max {
                        let all = (0..n).map(|c| (c, gains[c], grid.node_row(c)[j]));
                        let pruned = front
                            .nodes
                            .iter()
                            .zip(front.deltas)
                            .map(|(&c, &d)| (c as usize, gains[c as usize], d));
                        let want = fold(&prev, w, all);
                        assert_eq!(
                            fold(&prev, w, pruned),
                            want,
                            "case {case} refinement {refinement} column {j} w {w}"
                        );
                        cells += 1;
                        node_wins += usize::from(want.1 > 0);
                    }
                }
            }
        }
        assert!(
            cells > 10_000 && node_wins > cells / 4,
            "{cells} cells, {node_wins} node wins"
        );
    }
}
