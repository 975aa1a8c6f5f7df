//! Always-on hot-path counters and the fixed-bucket latency histogram.
//!
//! Every field is a relaxed [`AtomicU64`]: uncontended relaxed increments
//! cost ~1 ns, which is cheaper than the branch that would gate them, so
//! counters run even with the no-op sink — that is what lets `bench_sched`
//! and [`crate::RunReport`] report prune hit-rates and DP work on every
//! run. Relaxed ordering is sound because readers (report assembly) run
//! strictly after the instrumented phase.

use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed load shorthand.
fn get(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

/// Relaxed add shorthand.
fn add(a: &AtomicU64, v: u64) {
    a.fetch_add(v, Ordering::Relaxed);
}

/// The scheduler's hot-path tallies. One instance lives inside each
/// `Telemetry` handle; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Counters {
    /// `decide()` calls (one per arriving task).
    pub decisions: AtomicU64,
    /// Admitted tasks.
    pub admitted: AtomicU64,
    /// Rejections: no feasible schedule for any vendor.
    pub rejected_infeasible: AtomicU64,
    /// Rejections: best surplus `F(il) ≤ 0`.
    pub rejected_surplus: AtomicU64,
    /// Rejections: surplus positive but residual capacity refused.
    pub rejected_capacity: AtomicU64,
    /// Vendor quotes examined (prune check or DP).
    pub vendors_seen: AtomicU64,
    /// Vendor quotes discharged by the delta-grid lower bound alone.
    pub vendors_pruned: AtomicU64,
    /// Vendor quotes discharged by the start-slot memo (duplicate start).
    pub vendors_memoized: AtomicU64,
    /// `findSchedule` invocations that actually ran the DP.
    pub dp_runs: AtomicU64,
    /// DP rows swept, over all runs and refinement attempts.
    pub dp_rows: AtomicU64,
    /// DP cells touched, over all runs and refinement attempts.
    pub dp_cells: AtomicU64,
    /// DP runs whose lower-bound early exit fired.
    pub dp_early_exits: AtomicU64,
    /// Shared delta grids built (one per `decide()` in the optimized path).
    pub grid_builds: AtomicU64,
    /// Cells materialized across all delta grids.
    pub grid_cells: AtomicU64,
    /// Individual `(k, t)` dual-price updates applied.
    pub dual_updates: AtomicU64,
    /// Branch-and-bound nodes branched by the offline MILP solver.
    pub milp_nodes: AtomicU64,
    /// LP (re-)solves performed by the MILP solver (root, dive, nodes).
    pub lp_solves: AtomicU64,
    /// LP solves that were handed a parent basis to warm-start from.
    pub lp_warm_starts: AtomicU64,
    /// Warm-started solves that finished from that basis (no cold restart).
    pub lp_warm_hits: AtomicU64,
    /// Simplex pivots executed (primal + dual), across all LP solves.
    pub simplex_pivots: AtomicU64,
    /// Node LPs that fell back to the dense reference simplex.
    pub lp_dense_fallbacks: AtomicU64,
    /// Node crash events injected (fault runs only).
    pub node_failures: AtomicU64,
    /// Node recovery events applied (fault runs only).
    pub node_recoveries: AtomicU64,
    /// Disrupted-task remnants re-run through the auction.
    pub tasks_resubmitted: AtomicU64,
    /// Remnants the Eq. (10) test re-admitted.
    pub recoveries_admitted: AtomicU64,
    /// Refunds issued for unrecoverable disrupted tasks.
    pub refunds_issued: AtomicU64,
    /// Wall-clock `decide()` latency distribution.
    pub decide_latency: LatencyHistogram,
}

impl Counters {
    /// Adds `v` to a tally.
    pub fn bump(&self, field: &AtomicU64, v: u64) {
        add(field, v);
    }

    /// Fraction of examined vendor quotes discharged without a DP run
    /// (pruned or memoized); 0 when nothing was examined.
    #[must_use]
    pub fn prune_hit_rate(&self) -> f64 {
        let seen = get(&self.vendors_seen);
        if seen == 0 {
            return 0.0;
        }
        let skipped = get(&self.vendors_pruned) + get(&self.vendors_memoized);
        skipped as f64 / seen as f64
    }

    /// Fraction of warm-start attempts that finished from the parent
    /// basis without a cold restart; 0 when nothing was warm-started.
    #[must_use]
    pub fn warm_start_hit_rate(&self) -> f64 {
        let attempts = get(&self.lp_warm_starts);
        if attempts == 0 {
            return 0.0;
        }
        get(&self.lp_warm_hits) as f64 / attempts as f64
    }

    /// Mean DP cells touched per `decide()`; 0 when no decisions ran.
    #[must_use]
    pub fn dp_cells_per_decision(&self) -> f64 {
        let n = get(&self.decisions);
        if n == 0 {
            return 0.0;
        }
        get(&self.dp_cells) as f64 / n as f64
    }

    /// Relaxed snapshot of one tally.
    #[must_use]
    pub fn read(&self, field: &AtomicU64) -> u64 {
        get(field)
    }
}

/// Number of histogram buckets: bucket `i` holds samples whose value in
/// nanoseconds has bit length `i` (i.e. `v == 0 → 0`, else
/// `floor(log2 v) + 1`), with everything ≥ 2⁴⁶ ns (~19 h) clamped into the
/// last bucket. 48 buckets cover sub-ns to hours at 2× resolution.
pub const LATENCY_BUCKETS: usize = 48;

/// Lock-free fixed-bucket log₂ histogram over nanosecond samples.
///
/// Quantiles are estimated at the geometric midpoint of the selected
/// bucket, so any estimate is within √2× of the true value — plenty for
/// p50/p95/p99 regression tracking without per-sample storage.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(nanos: u64) -> usize {
        let bits = (u64::BITS - nanos.leading_zeros()) as usize;
        bits.min(LATENCY_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record_nanos(&self, nanos: u64) {
        add(&self.buckets[Self::bucket_index(nanos)], 1);
        add(&self.count, 1);
        add(&self.sum_nanos, nanos);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records one sample given as a [`std::time::Duration`].
    pub fn record(&self, d: std::time::Duration) {
        self.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample given in seconds (how `Decision::decide_seconds`
    /// stores it). Negative/NaN inputs count as 0 ns.
    pub fn record_seconds(&self, seconds: f64) {
        let nanos = (seconds * 1e9).max(0.0);
        self.record_nanos(if nanos.is_finite() {
            nanos as u64
        } else {
            u64::MAX
        });
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        get(&self.count)
    }

    /// Mean sample in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_nanos(&self) -> f64 {
        let n = get(&self.count);
        if n == 0 {
            return 0.0;
        }
        get(&self.sum_nanos) as f64 / n as f64
    }

    /// Largest sample in nanoseconds (exact, not bucketed).
    #[must_use]
    pub fn max_nanos(&self) -> u64 {
        get(&self.max_nanos)
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`) in nanoseconds: walks the
    /// cumulative bucket counts and returns the geometric midpoint of the
    /// bucket containing the target rank. Returns 0 when empty.
    #[must_use]
    pub fn quantile_nanos(&self, q: f64) -> f64 {
        let n = get(&self.count);
        if n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += get(b);
            if seen >= target {
                return Self::bucket_midpoint(i);
            }
        }
        Self::bucket_midpoint(LATENCY_BUCKETS - 1)
    }

    /// Sum of all samples in nanoseconds (exact).
    #[must_use]
    pub fn sum_nanos(&self) -> u64 {
        get(&self.sum_nanos)
    }

    /// Count in bucket `i` (see [`Self::bucket_upper_nanos`] for its
    /// range) — exposed for Prometheus cumulative-bucket rendering.
    ///
    /// # Panics
    /// Panics if `i ≥ LATENCY_BUCKETS`.
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        get(&self.buckets[i])
    }

    /// Exclusive upper bound of bucket `i` in nanoseconds: bucket `i`
    /// holds samples in `[2^(i-1), 2^i)` (bucket 0 holds only 0), so its
    /// Prometheus `le` bound is `2^i − 1 ≈ 2^i`. The last bucket is
    /// unbounded and reports `u64::MAX`.
    #[must_use]
    pub fn bucket_upper_nanos(i: usize) -> u64 {
        if i + 1 >= LATENCY_BUCKETS {
            u64::MAX
        } else {
            (1u64 << i).saturating_sub(1)
        }
    }

    /// Geometric midpoint of bucket `i`, whose range is `[2^(i-1), 2^i)`
    /// (bucket 0 holds only the value 0).
    fn bucket_midpoint(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let lo = (1u64 << (i - 1)) as f64;
        lo * std::f64::consts::SQRT_2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            LATENCY_BUCKETS - 1
        );
    }

    #[test]
    fn quantiles_are_within_sqrt2_of_truth() {
        let h = LatencyHistogram::default();
        // 100 samples at 1 µs, 5 at 100 µs: p50 ≈ 1 µs, p99 ≈ 100 µs.
        for _ in 0..100 {
            h.record_nanos(1_000);
        }
        for _ in 0..5 {
            h.record_nanos(100_000);
        }
        let p50 = h.quantile_nanos(0.50);
        let p99 = h.quantile_nanos(0.99);
        let s = std::f64::consts::SQRT_2;
        assert!(p50 >= 1_000.0 / s && p50 <= 1_000.0 * s, "p50 {p50}");
        assert!(p99 >= 100_000.0 / s && p99 <= 100_000.0 * s, "p99 {p99}");
        assert_eq!(h.count(), 105);
        assert_eq!(h.max_nanos(), 100_000);
        let mean = h.mean_nanos();
        assert!((mean - (100.0 * 1_000.0 + 5.0 * 100_000.0) / 105.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_nanos(0.5), 0.0);
        assert_eq!(h.mean_nanos(), 0.0);
        assert_eq!(h.max_nanos(), 0);
    }

    #[test]
    fn record_seconds_matches_record_nanos() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        a.record_seconds(15.702e-6);
        b.record_nanos(15_702);
        assert_eq!(a.quantile_nanos(0.5), b.quantile_nanos(0.5));
        a.record_seconds(-1.0); // clamps to 0, must not panic
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn counters_derived_rates() {
        let c = Counters::default();
        assert_eq!(c.prune_hit_rate(), 0.0);
        assert_eq!(c.dp_cells_per_decision(), 0.0);
        c.bump(&c.vendors_seen, 10);
        c.bump(&c.vendors_pruned, 4);
        c.bump(&c.vendors_memoized, 1);
        c.bump(&c.decisions, 2);
        c.bump(&c.dp_cells, 500);
        assert!((c.prune_hit_rate() - 0.5).abs() < 1e-12);
        assert!((c.dp_cells_per_decision() - 250.0).abs() < 1e-12);
        assert_eq!(c.read(&c.vendors_seen), 10);
    }

    #[test]
    fn warm_start_hit_rate_counts_hits_over_attempts() {
        let c = Counters::default();
        assert_eq!(c.warm_start_hit_rate(), 0.0);
        c.bump(&c.lp_warm_starts, 8);
        c.bump(&c.lp_warm_hits, 6);
        assert!((c.warm_start_hit_rate() - 0.75).abs() < 1e-12);
    }
}
