//! The min-plus row kernel behind Algorithm 2's DP sweep.
//!
//! [`apply_candidate`] applies one Pareto-front candidate `(gain, Δ)` to
//! one DP row segment — the innermost loop of the whole scheduler — and
//! [`Isa::delta_row`] fills one node's row of the per-arrival delta grid.
//!
//! Each is one branchless body: zipped slice loops whose per-cell update
//! is a select (`lt = cand < cur; cur = if lt {cand} else {cur}`), which
//! stable rustc auto-vectorizes. The body is `#[inline(always)]` and
//! compiled twice ([`Isa`]): once under `#[target_feature(enable =
//! "avx2")]`, and once for the build's baseline target (SSE2 on plain
//! x86-64, whatever the target offers elsewhere). The AVX2 copy runs
//! whenever `is_x86_feature_detected!("avx2")` reports it; std caches
//! that detection, so the pick is made once per process.
//!
//! **Bit-equivalence.** Both copies replay the straight-line branchy loop
//! (`if cand < cur { cur = cand; crow = tag }`) bit for bit, because every
//! cell performs exactly its per-cell operations, in the same candidate
//! order, on the same IEEE-754 doubles:
//!
//! 1. the candidate value is one `add` (`prev[w − gain] + Δ`), and
//!    [`Isa::delta_row`] keeps the reference's association
//!    `(s·λ + m·φ) + p·ew` — never a fused multiply-add (`mul_add`),
//!    which would change rounding;
//! 2. the update keeps the strict `<` tie-break, so an equal candidate
//!    never displaces an earlier node's cell;
//! 3. cells are independent: vectorizing across `w` within one candidate
//!    reorders no floating-point reduction (there is none), and the DP
//!    still applies candidates in ascending node order.
//!
//! AVX2 and SSE2 implement binary64 `add`/`mul`/`cmp`/blend identically,
//! so the runtime ISA pick cannot change results either. The unit tests
//! below and `tests/dp_kernel_equivalence.rs` check both copies against
//! an independent straight-line loop.

/// The DP slab's row alignment: every row of [`crate::DpBuffers`]'s flat
/// slab starts at a multiple of this many cells, so vector loads of one
/// row never straddle the next. 8 × f64 is one AVX-512 vector, two AVX2
/// vectors, or four SSE2 vectors.
pub const LANES: usize = 8;

/// One compiled copy of the kernel bodies.
///
/// A value of this type proves its copy can run on this host: the AVX2
/// copy is only handed out after `is_x86_feature_detected!("avx2")`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa(IsaKind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsaKind {
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Baseline,
}

impl Isa {
    /// The copy the DP and the grid build run on this host: AVX2 when the
    /// CPU has it, the baseline otherwise.
    #[inline]
    #[must_use]
    pub fn detected() -> Isa {
        Isa::avx2().unwrap_or(Isa::baseline())
    }

    /// The copy compiled for the build's baseline target (always runs).
    #[must_use]
    pub fn baseline() -> Isa {
        Isa(IsaKind::Baseline)
    }

    /// The AVX2 copy, or `None` when this host (or target) lacks AVX2.
    #[inline]
    #[must_use]
    pub fn avx2() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Some(Isa(IsaKind::Avx2));
            }
        }
        None
    }

    /// Stable name for reports and bench JSON: `"avx2"` or `"baseline"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            IsaKind::Avx2 => "avx2",
            IsaKind::Baseline => "baseline",
        }
    }

    /// [`apply_candidate`] on this copy.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot-path primitive: flat args beat a per-call struct
    pub fn apply_candidate(
        self,
        prev: &[f64],
        cur: &mut [f64],
        crow: &mut [u16],
        w_lo: usize,
        w_hi: usize,
        gain: usize,
        delta: f64,
        tag: u16,
    ) {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Isa(Avx2)` is only built after runtime detection
            // found AVX2 on this CPU (see `Isa::avx2`).
            IsaKind::Avx2 => unsafe {
                apply_avx2(prev, cur, crow, w_lo, w_hi, gain, delta, tag);
            },
            IsaKind::Baseline => apply_body(prev, cur, crow, w_lo, w_hi, gain, delta, tag),
        }
    }

    /// Computes one node's delta row for the grid build:
    /// `out[j] = s_price·λ[j] + mem·φ[j] + prices[j]·ew`, with the exact
    /// per-cell expression — and operation order — of the reference DP
    /// (two multiplies, the energy product first, no FMA), so grid cells
    /// stay bit-identical to the reference.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn delta_row(
        self,
        lambda: &[f64],
        phi: &[f64],
        prices: &[f64],
        s_price: f64,
        mem: f64,
        ew: f64,
        out: &mut [f64],
    ) {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `apply_candidate`: AVX2 was detected at runtime.
            IsaKind::Avx2 => unsafe {
                delta_avx2(lambda, phi, prices, s_price, mem, ew, out);
            },
            IsaKind::Baseline => delta_body(lambda, phi, prices, s_price, mem, ew, out),
        }
    }
}

/// Applies one candidate `(gain, Δ, tag)` to the maintained row segment
/// `[w_lo, w_hi]` (`w_lo ≤ w_hi`) of a DP row: `cur[w] ← min(cur[w],
/// source + Δ)` with `source = prev[0]` below `gain` (the floor
/// transition) and `prev[w − gain]` from `gain` up, tagging improved
/// cells with the candidate's choice tag under a strict `<` (ties keep
/// the incumbent). Runs the [`Isa::detected`] copy.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn apply_candidate(
    prev: &[f64],
    cur: &mut [f64],
    crow: &mut [u16],
    w_lo: usize,
    w_hi: usize,
    gain: usize,
    delta: f64,
    tag: u16,
) {
    Isa::detected().apply_candidate(prev, cur, crow, w_lo, w_hi, gain, delta, tag);
}

/// The AVX2 copy of [`apply_body`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn apply_avx2(
    prev: &[f64],
    cur: &mut [f64],
    crow: &mut [u16],
    w_lo: usize,
    w_hi: usize,
    gain: usize,
    delta: f64,
    tag: u16,
) {
    apply_body(prev, cur, crow, w_lo, w_hi, gain, delta, tag);
}

/// The AVX2 copy of [`delta_body`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn delta_avx2(
    lambda: &[f64],
    phi: &[f64],
    prices: &[f64],
    s_price: f64,
    mem: f64,
    ew: f64,
    out: &mut [f64],
) {
    delta_body(lambda, phi, prices, s_price, mem, ew, out);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn apply_body(
    prev: &[f64],
    cur: &mut [f64],
    crow: &mut [u16],
    w_lo: usize,
    w_hi: usize,
    gain: usize,
    delta: f64,
    tag: u16,
) {
    debug_assert!(w_lo <= w_hi);
    // Below `gain` the transition reads dp[t−1][0] (the reference's
    // saturating_sub): the floor segment [w_lo, split) sees one constant
    // candidate, the dense segment [split, w_hi] reads prev[w − gain].
    let split = gain.clamp(w_lo, w_hi + 1);
    let (cur_floor, cur_dense) = cur[w_lo..=w_hi].split_at_mut(split - w_lo);
    let (crow_floor, crow_dense) = crow[w_lo..=w_hi].split_at_mut(split - w_lo);
    let floor_cand = prev[0] + delta;
    for (c, t) in cur_floor.iter_mut().zip(crow_floor) {
        let lt = floor_cand < *c;
        *c = if lt { floor_cand } else { *c };
        *t = if lt { tag } else { *t };
    }
    if cur_dense.is_empty() {
        return; // gain > w_hi: the whole segment is floor
    }
    // `gain` is constant for the candidate, so the sources are one
    // contiguous slice: one unaligned load per vector, no gather.
    let src = &prev[split - gain..=w_hi - gain];
    for ((c, t), &p) in cur_dense.iter_mut().zip(crow_dense).zip(src) {
        let cand = p + delta;
        let lt = cand < *c;
        *c = if lt { cand } else { *c };
        *t = if lt { tag } else { *t };
    }
}

#[inline(always)]
fn delta_body(
    lambda: &[f64],
    phi: &[f64],
    prices: &[f64],
    s_price: f64,
    mem: f64,
    ew: f64,
    out: &mut [f64],
) {
    debug_assert!(lambda.len() == out.len() && phi.len() == out.len() && prices.len() == out.len());
    for (((o, &l), &p), &pr) in out.iter_mut().zip(lambda).zip(phi).zip(prices) {
        let e = pr * ew;
        *o = s_price * l + mem * p + e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every copy compiled for and runnable on this host.
    fn copies() -> Vec<Isa> {
        let mut v = vec![Isa::baseline()];
        match Isa::avx2() {
            Some(isa) => v.push(isa),
            None => eprintln!("note: host lacks AVX2; only the baseline copy is checked"),
        }
        v
    }

    /// The straight-line branchy loop the kernel must replay.
    #[allow(clippy::too_many_arguments)]
    fn oracle(
        prev: &[f64],
        cur: &mut [f64],
        crow: &mut [u16],
        w_lo: usize,
        w_hi: usize,
        gain: usize,
        delta: f64,
        tag: u16,
    ) {
        for w in w_lo..=w_hi {
            let source = if w < gain { prev[0] } else { prev[w - gain] };
            let cand = source + delta;
            if cand < cur[w] {
                cur[w] = cand;
                crow[w] = tag;
            }
        }
    }

    /// Each copy, fed random rows, must produce the oracle's value bits
    /// and choice tags — including `+∞` cells, widths that are not lane
    /// multiples, segments narrower than one lane, and `gain > w_hi`.
    #[test]
    fn kernels_are_bit_identical_on_random_rows() {
        for isa in copies() {
            for case in 0..300u64 {
                let mut rng = StdRng::seed_from_u64(0x513D_0000 + case);
                let width = rng.gen_range(1usize..80);
                let w_hi = width - 1;
                let w_lo = rng.gen_range(0..=w_hi);
                let gain = rng.gen_range(1usize..width + 20);
                let delta = rng.gen_range(0.0f64..5.0);
                let tag = rng.gen_range(1u16..40);
                let prev: Vec<f64> = (0..width)
                    .map(|_| {
                        if rng.gen_bool(0.1) {
                            f64::INFINITY
                        } else {
                            rng.gen_range(0.0f64..10.0)
                        }
                    })
                    .collect();
                let base_cur: Vec<f64> =
                    prev.iter().map(|v| v + rng.gen_range(-0.5..0.5)).collect();
                let base_crow = vec![0u16; width];

                let (mut cur_o, mut crow_o) = (base_cur.clone(), base_crow.clone());
                oracle(&prev, &mut cur_o, &mut crow_o, w_lo, w_hi, gain, delta, tag);
                let (mut cur_k, mut crow_k) = (base_cur, base_crow);
                isa.apply_candidate(&prev, &mut cur_k, &mut crow_k, w_lo, w_hi, gain, delta, tag);
                for w in 0..width {
                    assert_eq!(
                        cur_o[w].to_bits(),
                        cur_k[w].to_bits(),
                        "{} case {case} w {w}: {} vs {}",
                        isa.name(),
                        cur_o[w],
                        cur_k[w]
                    );
                }
                assert_eq!(crow_o, crow_k, "{} case {case}", isa.name());
            }
        }
    }

    #[test]
    fn delta_row_matches_reference_expression_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xDE17A);
        for width in [1usize, 7, 8, 9, 31, 64, 100] {
            let lambda: Vec<f64> = (0..width).map(|_| rng.gen_range(0.0f64..2.0)).collect();
            let phi: Vec<f64> = (0..width).map(|_| rng.gen_range(0.0f64..2.0)).collect();
            let prices: Vec<f64> = (0..width).map(|_| rng.gen_range(0.0f64..3.0)).collect();
            let (s_price, mem, ew) = (1.37, 10.0, 0.8);
            for isa in copies() {
                let mut out = vec![0.0; width];
                isa.delta_row(&lambda, &phi, &prices, s_price, mem, ew, &mut out);
                for (j, v) in out.iter().enumerate() {
                    let e = prices[j] * ew;
                    let want = s_price * lambda[j] + mem * phi[j] + e;
                    assert_eq!(
                        v.to_bits(),
                        want.to_bits(),
                        "{} width {width} j {j}",
                        isa.name()
                    );
                }
            }
        }
    }
}
