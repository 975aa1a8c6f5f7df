//! Emits `BENCH_sched.json` at the repo root: decide-latency percentiles
//! and DP-cell throughput of the optimized evaluation pipeline against the
//! straight-line reference, on the warm Fig.-13 cluster in a single-vendor
//! and a vendor-rich market.
//!
//! Methodology (see EXPERIMENTS.md "Scheduler hot-path benchmark"): each
//! pipeline runs the full online loop end-to-end `REPS` times, the two
//! pipelines' days paired back to back; every `decide()` call
//! contributes one latency sample (the same `decide_seconds` that drives
//! the paper's Fig. 13 CDF). The speedups are medians of the per-pair
//! reference/optimized ratios, so host drift between pairs cancels
//! inside each ratio. "DP cells" is a
//! workload-derived model — Σ over (task, vendor) of
//! `(window + 1) × (w_target + 1) × compatible_nodes` at the coarse
//! refinement — so both pipelines divide the *same* cell count by their
//! own wall-clock: the optimized pipeline's higher cells/s is exactly its
//! decision-for-decision speedup, not a different workload.

use pdftsp_cluster::{configured_threads, hardware_threads};
use pdftsp_core::kernel::Isa;
use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_sim::run_scheduler;
use pdftsp_telemetry::{SpanLog, Telemetry};
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};
use std::sync::Arc;

/// Paired reference/optimized days per market. Odd, so each median is
/// one pair's ratio.
const REPS: usize = 9;
const COARSE_REFINEMENT: u64 = 8;

fn scenario(preprocessing_prob: f64, num_vendors: usize) -> Scenario {
    ScenarioBuilder {
        horizon: 36,
        num_nodes: 20,
        arrivals: ArrivalProcess::Poisson { mean_per_slot: 6.0 },
        num_vendors,
        preprocessing_prob,
        seed: 4242,
        ..ScenarioBuilder::default()
    }
    .build()
}

/// The cell model: how many DP table cells the coarse pass of the
/// reference pipeline touches for this scenario (vendor windows × work
/// columns × compatible nodes). Identical for both pipelines by
/// construction — it normalizes throughput, it is not measured work.
fn dp_cell_model(sc: &Scenario) -> u64 {
    let mut cells = 0u64;
    for task in &sc.tasks {
        let quotes: Vec<(f64, usize)> = if task.needs_preprocessing {
            sc.quotes[task.id]
                .iter()
                .map(|q| (q.price, q.delay))
                .collect()
        } else {
            vec![(0.0, 0)]
        };
        let deadline = task.deadline.min(sc.horizon.saturating_sub(1));
        let min_rate = task.rates.iter().copied().filter(|&r| r > 0).min();
        let Some(min_rate) = min_rate else { continue };
        let unit = (min_rate / COARSE_REFINEMENT).max(1);
        let w_target = task.work.div_ceil(unit);
        let compatible = task.rates.iter().filter(|&&r| r > 0).count() as u64;
        for &(_, delay) in &quotes {
            let start = task.arrival + delay;
            if start > deadline {
                continue;
            }
            let window = (deadline - start + 1) as u64;
            cells += (window + 1) * (w_target + 1) * compatible;
        }
    }
    cells
}

struct PipelineStats {
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    total_s: f64,
    samples: usize,
    welfare: f64,
    admitted: usize,
    /// Per-run hot-path work from the scheduler's always-on telemetry
    /// counters (last rep; every rep does identical work).
    work: WorkStats,
}

struct WorkStats {
    prune_hit_rate: f64,
    vendors_seen: u64,
    vendors_pruned: u64,
    vendors_memoized: u64,
    dp_runs: u64,
    dp_cells_measured: u64,
    dp_early_exits: u64,
    grid_builds: u64,
}

impl WorkStats {
    fn from_scheduler(s: &Pdftsp) -> Self {
        let c = &s.telemetry().counters;
        WorkStats {
            prune_hit_rate: c.prune_hit_rate(),
            vendors_seen: c.read(&c.vendors_seen),
            vendors_pruned: c.read(&c.vendors_pruned),
            vendors_memoized: c.read(&c.vendors_memoized),
            dp_runs: c.read(&c.dp_runs),
            dp_cells_measured: c.read(&c.dp_cells),
            dp_early_exits: c.read(&c.dp_early_exits),
            grid_builds: c.read(&c.grid_builds),
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One day's decide latencies (seconds), welfare, admissions and
/// hot-path work.
type Day = (Vec<f64>, f64, usize, WorkStats);

fn run_day(sc: &Scenario, cfg: PdftspConfig) -> Day {
    let mut s = Pdftsp::new(sc, cfg);
    let r = run_scheduler(sc, &mut s);
    let latencies = r.decisions.iter().map(|d| d.decide_seconds).collect();
    let work = WorkStats::from_scheduler(&s);
    (
        latencies,
        r.welfare.social_welfare,
        r.welfare.admitted,
        work,
    )
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Pools one pipeline's days; every rep does identical work, so the
/// economics and work counters come from the last.
fn run_pipeline(days: Vec<Day>) -> PipelineStats {
    let mut samples: Vec<f64> = days.iter().flat_map(|d| d.0.iter().copied()).collect();
    let (_, welfare, admitted, work) = days.into_iter().last().expect("REPS > 0");
    let total_s: f64 = samples.iter().sum();
    let mean_us = total_s / samples.len().max(1) as f64 * 1e6;
    samples.sort_by(f64::total_cmp);
    PipelineStats {
        p50_us: percentile(&samples, 0.50) * 1e6,
        p99_us: percentile(&samples, 0.99) * 1e6,
        mean_us,
        total_s,
        samples: samples.len(),
        welfare,
        admitted,
        work,
    }
}

fn stats_json(s: &PipelineStats, cells: u64) -> String {
    // Throughput over the per-rep workload: cells × REPS / total seconds.
    let cells_per_s = cells as f64 * REPS as f64 / s.total_s.max(1e-12);
    let w = &s.work;
    format!(
        concat!(
            "{{\"p50_us\": {:.3}, \"p99_us\": {:.3}, \"mean_us\": {:.3}, ",
            "\"total_s\": {:.6}, \"decisions\": {}, \"dp_cells_per_s\": {:.0}, ",
            "\"prune_hit_rate\": {:.4}, \"vendors_seen\": {}, ",
            "\"vendors_pruned\": {}, \"vendors_memoized\": {}, ",
            "\"dp_runs\": {}, \"dp_cells_measured\": {}, ",
            "\"dp_early_exits\": {}, \"grid_builds\": {}}}"
        ),
        s.p50_us,
        s.p99_us,
        s.mean_us,
        s.total_s,
        s.samples,
        cells_per_s,
        w.prune_hit_rate,
        w.vendors_seen,
        w.vendors_pruned,
        w.vendors_memoized,
        w.dp_runs,
        w.dp_cells_measured,
        w.dp_early_exits,
        w.grid_builds
    )
}

fn market_json(name: &str, sc: &Scenario) -> String {
    let cells = dp_cell_model(sc);
    let (opt_cfg, ref_cfg) = (PdftspConfig::default(), PdftspConfig::default().reference());
    let (mut opt_days, mut ref_days) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        // Alternate which pipeline runs first, as `span_overhead` does.
        if rep % 2 == 0 {
            opt_days.push(run_day(sc, opt_cfg));
        }
        ref_days.push(run_day(sc, ref_cfg));
        if rep % 2 == 1 {
            opt_days.push(run_day(sc, opt_cfg));
        }
    }
    let paired = |stat: fn(&[f64]) -> f64| -> Vec<f64> {
        let mut ratios: Vec<f64> = (opt_days.iter().zip(&ref_days))
            .map(|(o, r)| stat(&r.0) / stat(&o.0).max(1e-12))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios
    };
    let (p50_ratios, mean_ratios) = (paired(median), paired(mean));
    let opt = run_pipeline(opt_days);
    let reference = run_pipeline(ref_days);
    // Decision equivalence holds end-to-end; a drift here means a bug.
    assert_eq!(
        opt.welfare.to_bits(),
        reference.welfare.to_bits(),
        "{name}: pipelines diverged"
    );
    assert_eq!(opt.admitted, reference.admitted, "{name}");
    let speedup_p50 = percentile(&p50_ratios, 0.5);
    let speedup_mean = percentile(&mean_ratios, 0.5);
    println!(
        "{name}: optimized p50 {:.1} µs p99 {:.1} µs | reference p50 {:.1} µs p99 {:.1} µs | speedup p50 {speedup_p50:.2}x mean {speedup_mean:.2}x",
        opt.p50_us, opt.p99_us, reference.p50_us, reference.p99_us
    );
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"tasks\": {},\n",
            "      \"dp_cell_model\": {},\n",
            "      \"optimized\": {},\n",
            "      \"reference\": {},\n",
            "      \"speedup_p50\": {:.3},\n",
            "      \"speedup_p50_min\": {:.3},\n",
            "      \"speedup_p50_max\": {:.3},\n",
            "      \"speedup_mean\": {:.3}\n",
            "    }}"
        ),
        name,
        sc.tasks.len(),
        cells,
        stats_json(&opt, cells),
        stats_json(&reference, cells),
        speedup_p50,
        p50_ratios[0],
        p50_ratios[REPS - 1],
        speedup_mean
    )
}

/// Paired disabled/spans-on days behind `span_overhead`. Odd, so the
/// median is one pair's ratio.
const SPAN_PAIRS: usize = 41;

/// Measured cost of turning the span path ON: the multi-vendor day with
/// disabled telemetry vs with a live [`SpanLog`] sink capturing one
/// propose span per decision. Each pair runs the two days back to back,
/// alternating which goes first, and `overhead_frac` is the median of
/// the pairs' `spans_on / disabled − 1`: host drift between pairs
/// cancels inside each ratio, and one slow day moves the median by at
/// most one rank. The disabled side of this comparison is separately
/// proven allocation-free by the overhead-guard test.
fn span_overhead_json(sc: &Scenario) -> String {
    fn day_mean_us(sc: &Scenario, tel: Telemetry) -> f64 {
        let mut s = Pdftsp::with_telemetry(sc, PdftspConfig::default(), tel);
        let r = run_scheduler(sc, &mut s);
        let total: f64 = r.decisions.iter().map(|d| d.decide_seconds).sum();
        total / r.decisions.len().max(1) as f64 * 1e6
    }
    let mut disabled_us = 0.0;
    let mut enabled_us = 0.0;
    let mut ratios = Vec::with_capacity(SPAN_PAIRS);
    let mut spans_recorded = 0usize;
    for pair in 0..SPAN_PAIRS {
        let log = Arc::new(SpanLog::new());
        let (off, on) = if pair % 2 == 0 {
            let off = day_mean_us(sc, Telemetry::disabled());
            (off, day_mean_us(sc, Telemetry::new(log.clone())))
        } else {
            let on = day_mean_us(sc, Telemetry::new(log.clone()));
            (day_mean_us(sc, Telemetry::disabled()), on)
        };
        spans_recorded = log.len();
        disabled_us += off;
        enabled_us += on;
        ratios.push(on / off.max(1e-9) - 1.0);
    }
    disabled_us /= SPAN_PAIRS as f64;
    enabled_us /= SPAN_PAIRS as f64;
    ratios.sort_by(f64::total_cmp);
    let overhead_frac = percentile(&ratios, 0.5);
    println!(
        "span_overhead: disabled mean {disabled_us:.2} µs, spans-on mean {enabled_us:.2} µs, \
         median paired overhead {:+.1}% (pairs {:+.1}% .. {:+.1}%, {spans_recorded} spans/run)",
        overhead_frac * 100.0,
        ratios[0] * 100.0,
        ratios[SPAN_PAIRS - 1] * 100.0
    );
    format!(
        concat!(
            "    \"pairs\": {},\n",
            "    \"disabled_mean_us\": {:.3},\n",
            "    \"spans_on_mean_us\": {:.3},\n",
            "    \"overhead_frac\": {:.4},\n",
            "    \"overhead_frac_min\": {:.4},\n",
            "    \"overhead_frac_max\": {:.4},\n",
            "    \"spans_recorded\": {}"
        ),
        SPAN_PAIRS,
        disabled_us,
        enabled_us,
        overhead_frac,
        ratios[0],
        ratios[SPAN_PAIRS - 1],
        spans_recorded
    )
}

fn main() {
    const MULTI_VENDORS: usize = 8;
    let single = scenario(0.0, 5);
    let multi = scenario(1.0, MULTI_VENDORS);
    // The host shape the numbers come from: true hardware parallelism,
    // the worker count configured for this run (`PDFTSP_THREADS`
    // override included), and the DP kernel copy that ran.
    let hw_threads = hardware_threads();
    let threads = configured_threads();
    let body = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sched_latency\",\n",
            "  \"emitter\": \"bench_sched\",\n",
            "  \"reps\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"configured_threads\": {},\n",
            "  \"isa\": \"{}\",\n",
            "  \"scenario\": {{\"horizon\": 36, \"nodes\": 20, \"mean_arrivals_per_slot\": 6.0, \"seed\": 4242}},\n",
            "  \"markets\": {{\n",
            "{},\n",
            "{}\n",
            "  }},\n",
            "  \"span_overhead\": {{\n",
            "{}\n",
            "  }}\n",
            "}}\n"
        ),
        REPS,
        hw_threads,
        threads,
        Isa::detected().name(),
        market_json("single_vendor", &single),
        market_json("multi_vendor", &multi),
        span_overhead_json(&multi)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    std::fs::write(path, &body).expect("write BENCH_sched.json");
    println!("wrote {path}");
}
