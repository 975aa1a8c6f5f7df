//! [`RunReport`]: the single aggregate summary of one run.
//!
//! A report is assembled from three sources, in increasing specificity:
//!
//! 1. [`RunReport::from_counters`] — the always-on [`Counters`] of an
//!    instrumented scheduler (prune/DP-work tallies, bucketed latency);
//! 2. [`RunReport::with_exact_latency`] — exact decide-latency
//!    percentiles from per-decision wall-clock samples, replacing the
//!    √2-resolution histogram estimates;
//! 3. [`RunReport::with_utilization`] — cluster utilization/co-location
//!    from the post-run ledger replay (`ClusterMetrics` routes here).
//!
//! Uninstrumented schedulers (the baselines) fill the decision tallies
//! through [`RunReport::tally_admitted`] / [`RunReport::tally_rejected`]
//! and leave the DP-work block at zero.

use crate::counters::Counters;
use crate::event::Reason;
use std::fmt::Write as _;

/// Cluster utilization and co-location figures, normalized out of
/// `pdftsp_cluster::ClusterMetrics` so the report stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilizationSummary {
    /// Mean compute utilization over all `(k, t)` cells, `[0, 1]`.
    pub mean_compute: f64,
    /// Peak compute utilization over cells.
    pub peak_compute: f64,
    /// Mean adapter-memory utilization over cells, `[0, 1]`.
    pub mean_memory: f64,
    /// Maximum tasks co-located on one cell (multi-LoRA sharing degree).
    pub peak_colocation: usize,
    /// Mean co-located tasks over busy cells.
    pub mean_colocation_busy: f64,
}

/// Decide-latency percentiles in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Samples observed.
    pub count: u64,
    /// Median.
    pub p50_nanos: f64,
    /// 95th percentile.
    pub p95_nanos: f64,
    /// 99th percentile.
    pub p99_nanos: f64,
    /// Mean.
    pub mean_nanos: f64,
    /// Maximum.
    pub max_nanos: f64,
    /// `true` when computed from exact per-decision samples, `false` when
    /// estimated from the log₂ histogram (within √2×).
    pub exact: bool,
}

/// Aggregate summary of one scheduler run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Scheduler name (e.g. `"pdFTSP"`).
    pub scheduler: String,
    /// Total decisions (arrivals processed).
    pub decisions: u64,
    /// Admitted tasks.
    pub admitted: u64,
    /// Rejected: no feasible schedule.
    pub rejected_infeasible: u64,
    /// Rejected: non-positive surplus.
    pub rejected_surplus: u64,
    /// Rejected: insufficient residual capacity.
    pub rejected_capacity: u64,
    /// Vendor quotes examined.
    pub vendors_seen: u64,
    /// Quotes discharged by the delta-grid bound without a DP run.
    pub vendors_pruned: u64,
    /// Quotes discharged by the start-slot memo.
    pub vendors_memoized: u64,
    /// Fraction of examined quotes discharged without a DP run.
    pub prune_hit_rate: f64,
    /// `findSchedule` DP invocations.
    pub dp_runs: u64,
    /// DP rows swept.
    pub dp_rows: u64,
    /// DP cells touched.
    pub dp_cells: u64,
    /// DP runs whose early exit fired.
    pub dp_early_exits: u64,
    /// Mean DP cells per decision.
    pub dp_cells_per_decision: f64,
    /// Shared delta grids built.
    pub grid_builds: u64,
    /// Cells materialized across delta grids.
    pub grid_cells: u64,
    /// Individual `(k, t)` dual-price updates applied.
    pub dual_updates: u64,
    /// Decide-call latency percentiles.
    pub latency: LatencySummary,
    /// Worker-pool tasks executed during the run — 0 when no pool
    /// snapshot was attached.
    pub pool_tasks: u64,
    /// Nanoseconds pool threads spent parked (idle) during the run.
    pub pool_park_ns: u64,
    /// Cluster utilization, when a post-run replay is available.
    pub utilization: Option<UtilizationSummary>,
}

impl RunReport {
    /// A report seeded from an instrumented scheduler's counters.
    #[must_use]
    pub fn from_counters(scheduler: impl Into<String>, c: &Counters) -> Self {
        let h = &c.decide_latency;
        RunReport {
            scheduler: scheduler.into(),
            decisions: c.read(&c.decisions),
            admitted: c.read(&c.admitted),
            rejected_infeasible: c.read(&c.rejected_infeasible),
            rejected_surplus: c.read(&c.rejected_surplus),
            rejected_capacity: c.read(&c.rejected_capacity),
            vendors_seen: c.read(&c.vendors_seen),
            vendors_pruned: c.read(&c.vendors_pruned),
            vendors_memoized: c.read(&c.vendors_memoized),
            prune_hit_rate: c.prune_hit_rate(),
            dp_runs: c.read(&c.dp_runs),
            dp_rows: c.read(&c.dp_rows),
            dp_cells: c.read(&c.dp_cells),
            dp_early_exits: c.read(&c.dp_early_exits),
            dp_cells_per_decision: c.dp_cells_per_decision(),
            grid_builds: c.read(&c.grid_builds),
            grid_cells: c.read(&c.grid_cells),
            dual_updates: c.read(&c.dual_updates),
            latency: LatencySummary {
                count: h.count(),
                p50_nanos: h.quantile_nanos(0.50),
                p95_nanos: h.quantile_nanos(0.95),
                p99_nanos: h.quantile_nanos(0.99),
                mean_nanos: h.mean_nanos(),
                max_nanos: h.max_nanos() as f64,
                exact: false,
            },
            pool_tasks: 0,
            pool_park_ns: 0,
            utilization: None,
        }
    }

    /// An empty report for an uninstrumented scheduler; fill the decision
    /// tallies with [`RunReport::tally_admitted`] /
    /// [`RunReport::tally_rejected`].
    #[must_use]
    pub fn named(scheduler: impl Into<String>) -> Self {
        RunReport {
            scheduler: scheduler.into(),
            ..RunReport::default()
        }
    }

    /// Counts one admitted decision.
    pub fn tally_admitted(&mut self) {
        self.decisions += 1;
        self.admitted += 1;
    }

    /// Counts one rejected decision.
    pub fn tally_rejected(&mut self, reason: Reason) {
        self.decisions += 1;
        match reason {
            Reason::NoFeasibleSchedule => self.rejected_infeasible += 1,
            Reason::NonPositiveSurplus => self.rejected_surplus += 1,
            Reason::InsufficientCapacity => self.rejected_capacity += 1,
        }
    }

    /// Total rejected decisions across all reasons.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_infeasible + self.rejected_surplus + self.rejected_capacity
    }

    /// Replaces the latency block with exact percentiles computed from
    /// per-decision wall-clock samples in **seconds** (the unit of
    /// `Decision::decide_seconds`). Non-finite samples are dropped.
    #[must_use]
    pub fn with_exact_latency(mut self, samples_seconds: &[f64]) -> Self {
        let mut nanos: Vec<f64> = samples_seconds
            .iter()
            .filter(|s| s.is_finite())
            .map(|s| (s * 1e9).max(0.0))
            .collect();
        if nanos.is_empty() {
            return self;
        }
        nanos.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let pick = |q: f64| {
            let rank = ((q * nanos.len() as f64).ceil() as usize).clamp(1, nanos.len());
            nanos[rank - 1]
        };
        self.latency = LatencySummary {
            count: nanos.len() as u64,
            p50_nanos: pick(0.50),
            p95_nanos: pick(0.95),
            p99_nanos: pick(0.99),
            mean_nanos: nanos.iter().sum::<f64>() / nanos.len() as f64,
            max_nanos: *nanos.last().expect("non-empty"),
            exact: true,
        };
        self
    }

    /// Attaches cluster utilization from the post-run replay.
    #[must_use]
    pub fn with_utilization(mut self, utilization: UtilizationSummary) -> Self {
        self.utilization = Some(utilization);
        self
    }

    /// Attaches worker-pool counters: tasks executed and park (idle)
    /// nanoseconds. Callers compute the run's delta from process-global
    /// pool snapshots before handing it here.
    #[must_use]
    pub fn with_pool(mut self, tasks: u64, park_ns: u64) -> Self {
        self.pool_tasks = tasks;
        self.pool_park_ns = park_ns;
        self
    }

    /// The report as one pretty-printed JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"scheduler\": \"{}\",", self.scheduler);
        let _ = writeln!(s, "  \"decisions\": {},", self.decisions);
        let _ = writeln!(s, "  \"admitted\": {},", self.admitted);
        let _ = writeln!(s, "  \"rejected\": {},", self.rejected());
        let _ = writeln!(
            s,
            "  \"rejected_infeasible\": {},",
            self.rejected_infeasible
        );
        let _ = writeln!(s, "  \"rejected_surplus\": {},", self.rejected_surplus);
        let _ = writeln!(s, "  \"rejected_capacity\": {},", self.rejected_capacity);
        let _ = writeln!(s, "  \"vendors_seen\": {},", self.vendors_seen);
        let _ = writeln!(s, "  \"vendors_pruned\": {},", self.vendors_pruned);
        let _ = writeln!(s, "  \"vendors_memoized\": {},", self.vendors_memoized);
        let _ = writeln!(s, "  \"prune_hit_rate\": {:?},", self.prune_hit_rate);
        let _ = writeln!(s, "  \"dp_runs\": {},", self.dp_runs);
        let _ = writeln!(s, "  \"dp_rows\": {},", self.dp_rows);
        let _ = writeln!(s, "  \"dp_cells\": {},", self.dp_cells);
        let _ = writeln!(s, "  \"dp_early_exits\": {},", self.dp_early_exits);
        let _ = writeln!(
            s,
            "  \"dp_cells_per_decision\": {:?},",
            self.dp_cells_per_decision
        );
        let _ = writeln!(s, "  \"grid_builds\": {},", self.grid_builds);
        let _ = writeln!(s, "  \"grid_cells\": {},", self.grid_cells);
        let _ = writeln!(s, "  \"dual_updates\": {},", self.dual_updates);
        let _ = writeln!(s, "  \"pool_tasks\": {},", self.pool_tasks);
        let _ = writeln!(s, "  \"pool_park_ns\": {},", self.pool_park_ns);
        let _ = writeln!(s, "  \"latency\": {{");
        let _ = writeln!(s, "    \"count\": {},", self.latency.count);
        let _ = writeln!(s, "    \"p50_nanos\": {:?},", self.latency.p50_nanos);
        let _ = writeln!(s, "    \"p95_nanos\": {:?},", self.latency.p95_nanos);
        let _ = writeln!(s, "    \"p99_nanos\": {:?},", self.latency.p99_nanos);
        let _ = writeln!(s, "    \"mean_nanos\": {:?},", self.latency.mean_nanos);
        let _ = writeln!(s, "    \"max_nanos\": {:?},", self.latency.max_nanos);
        let _ = writeln!(s, "    \"exact\": {}", self.latency.exact);
        match &self.utilization {
            None => {
                let _ = writeln!(s, "  }}");
            }
            Some(u) => {
                let _ = writeln!(s, "  }},");
                let _ = writeln!(s, "  \"utilization\": {{");
                let _ = writeln!(s, "    \"mean_compute\": {:?},", u.mean_compute);
                let _ = writeln!(s, "    \"peak_compute\": {:?},", u.peak_compute);
                let _ = writeln!(s, "    \"mean_memory\": {:?},", u.mean_memory);
                let _ = writeln!(s, "    \"peak_colocation\": {},", u.peak_colocation);
                let _ = writeln!(
                    s,
                    "    \"mean_colocation_busy\": {:?}",
                    u.mean_colocation_busy
                );
                let _ = writeln!(s, "  }}");
            }
        }
        s.push('}');
        s
    }

    /// A short human-readable rendering for terminal output.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = writeln!(s, "run report — {}", self.scheduler);
        let _ = writeln!(
            s,
            "  decisions: {} (admitted {}, rejected {})",
            self.decisions,
            self.admitted,
            self.rejected()
        );
        let _ = writeln!(
            s,
            "    rejected by reason: infeasible {}, surplus {}, capacity {}",
            self.rejected_infeasible, self.rejected_surplus, self.rejected_capacity
        );
        let _ = writeln!(
            s,
            "  vendors: {} seen, {} pruned, {} memoized (hit-rate {:.1}%)",
            self.vendors_seen,
            self.vendors_pruned,
            self.vendors_memoized,
            self.prune_hit_rate * 100.0
        );
        let _ = writeln!(
            s,
            "  dp: {} runs, {} rows, {} cells ({:.1} cells/decision), {} early exits",
            self.dp_runs,
            self.dp_rows,
            self.dp_cells,
            self.dp_cells_per_decision,
            self.dp_early_exits
        );
        let _ = writeln!(
            s,
            "  grids: {} built, {} cells; dual updates: {}",
            self.grid_builds, self.grid_cells, self.dual_updates
        );
        if self.pool_tasks > 0 {
            let _ = writeln!(
                s,
                "  pool: {} tasks, {:.1} ms parked",
                self.pool_tasks,
                self.pool_park_ns as f64 / 1e6
            );
        }
        if self.latency.count > 0 {
            let _ = writeln!(
                s,
                "  decide latency ({}): p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
                if self.latency.exact {
                    "exact"
                } else {
                    "histogram"
                },
                self.latency.p50_nanos / 1e3,
                self.latency.p95_nanos / 1e3,
                self.latency.p99_nanos / 1e3,
                self.latency.max_nanos / 1e3
            );
        }
        if let Some(u) = &self.utilization {
            let _ = writeln!(
                s,
                "  utilization: compute mean {:.1}% / peak {:.1}%, memory mean {:.1}%, peak colocation {}",
                u.mean_compute * 100.0,
                u.peak_compute * 100.0,
                u.mean_memory * 100.0,
                u.peak_colocation
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counters_copies_every_tally() {
        let c = Counters::default();
        c.bump(&c.decisions, 4);
        c.bump(&c.admitted, 3);
        c.bump(&c.rejected_surplus, 1);
        c.bump(&c.vendors_seen, 12);
        c.bump(&c.vendors_pruned, 6);
        c.bump(&c.dp_runs, 6);
        c.bump(&c.dp_cells, 240);
        c.bump(&c.dual_updates, 9);
        c.decide_latency.record_nanos(10_000);
        let r = RunReport::from_counters("pdFTSP", &c);
        assert_eq!(r.scheduler, "pdFTSP");
        assert_eq!(r.decisions, 4);
        assert_eq!(r.admitted, 3);
        assert_eq!(r.rejected(), 1);
        assert!((r.prune_hit_rate - 0.5).abs() < 1e-12);
        assert!((r.dp_cells_per_decision - 60.0).abs() < 1e-12);
        assert_eq!(r.dual_updates, 9);
        assert_eq!(r.latency.count, 1);
        assert!(!r.latency.exact);
        assert!(r.utilization.is_none());
    }

    #[test]
    fn tallies_split_rejections_by_reason() {
        let mut r = RunReport::named("EFT");
        r.tally_admitted();
        r.tally_rejected(Reason::NoFeasibleSchedule);
        r.tally_rejected(Reason::InsufficientCapacity);
        r.tally_rejected(Reason::InsufficientCapacity);
        assert_eq!(r.decisions, 4);
        assert_eq!(r.admitted, 1);
        assert_eq!(r.rejected(), 3);
        assert_eq!(r.rejected_capacity, 2);
    }

    #[test]
    fn exact_latency_overrides_histogram_estimates() {
        let samples = vec![1e-6; 99].into_iter().chain([1e-3]).collect::<Vec<_>>();
        let r = RunReport::named("x").with_exact_latency(&samples);
        assert!(r.latency.exact);
        assert_eq!(r.latency.count, 100);
        assert!((r.latency.p50_nanos - 1_000.0).abs() < 1e-6);
        assert!((r.latency.p99_nanos - 1_000.0).abs() < 1e-6);
        assert!((r.latency.max_nanos - 1_000_000.0).abs() < 1e-6);
        // Empty / non-finite samples leave the block untouched.
        let r2 = RunReport::named("x").with_exact_latency(&[f64::NAN]);
        assert!(!r2.latency.exact);
    }

    #[test]
    fn json_contains_every_headline_field() {
        let mut r = RunReport::named("pdFTSP");
        r.tally_admitted();
        let json = r
            .with_utilization(UtilizationSummary {
                mean_compute: 0.25,
                peak_compute: 1.0,
                mean_memory: 0.125,
                peak_colocation: 2,
                mean_colocation_busy: 2.0,
            })
            .to_json();
        for key in [
            "\"scheduler\"",
            "\"admitted\": 1",
            "\"prune_hit_rate\"",
            "\"dp_cells\"",
            "\"dual_updates\"",
            "\"p50_nanos\"",
            "\"peak_colocation\": 2",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Output must be balanced braces (crude structural check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn render_text_mentions_latency_only_when_sampled() {
        let r = RunReport::named("x");
        assert!(!r.render_text().contains("decide latency"));
        let r = r.with_exact_latency(&[2e-6]);
        assert!(r.render_text().contains("decide latency (exact)"));
    }

    #[test]
    fn pool_counters_flow_into_json_and_text() {
        let bare = RunReport::named("x");
        assert!(!bare.render_text().contains("pool:"));
        assert!(bare.to_json().contains("\"pool_tasks\": 0"));
        let r = RunReport::named("x").with_pool(12, 3_500_000);
        assert_eq!(r.pool_tasks, 12);
        let json = r.to_json();
        assert!(json.contains("\"pool_tasks\": 12"), "{json}");
        assert!(json.contains("\"pool_park_ns\": 3500000"), "{json}");
        let text = r.render_text();
        assert!(text.contains("pool: 12 tasks"), "{text}");
    }
}
