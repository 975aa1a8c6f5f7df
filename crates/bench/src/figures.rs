//! One function per paper figure (Figs. 4–13) plus the ablations.
//!
//! Comparison figures (4–9) return a [`FigureTable`] whose cells are
//! social welfare averaged over seeds; print `.normalized()` to get the
//! paper's "normalized social welfare" axis. Figures 10–13 have bespoke
//! shapes (utility curve, bid/payment pairs, ratio grid, latency CDF).

use crate::scale::Scale;
use pdftsp_cluster::parallel_map;
use pdftsp_core::{probe_bid, Pdftsp, PdftspConfig};
use pdftsp_lora::TuningParadigm;
use pdftsp_sim::{ratio_sweep, run_algo, run_scheduler, Algo, FigureTable};
use pdftsp_solver::milp::MilpConfig;
use pdftsp_telemetry::Telemetry;
use pdftsp_types::Task;
use pdftsp_workload::{ArrivalProcess, DeadlinePolicy, NodeMix, ScenarioBuilder, TraceKind};

/// Base seed all experiments derive their per-repetition seeds from.
const BASE_SEED: u64 = 7_654_321;

/// Runs the four paper algorithms over each `(label, builder)` cell,
/// averaging welfare over `scale.seeds()` seeds per cell.
#[must_use]
pub fn welfare_table(
    title: &str,
    x_label: &str,
    cells: &[(String, ScenarioBuilder)],
    scale: Scale,
) -> FigureTable {
    let algos = Algo::PAPER_SET;
    let seeds = scale.seeds();
    let mut jobs = Vec::new();
    for (ci, _) in cells.iter().enumerate() {
        for (ai, _) in algos.iter().enumerate() {
            for s in 0..seeds {
                jobs.push((ci, ai, s));
            }
        }
    }
    let results = parallel_map(&jobs, |&(ci, ai, s)| {
        let sc = cells[ci].1.with_seed(BASE_SEED ^ (s * 1_000_003)).build();
        run_algo(&sc, algos[ai], s).welfare.social_welfare
    });
    let mut sums = vec![vec![0.0f64; algos.len()]; cells.len()];
    for (&(ci, ai, _), w) in jobs.iter().zip(&results) {
        sums[ci][ai] += w / seeds as f64;
    }
    let mut table = FigureTable::new(
        title,
        x_label,
        algos.iter().map(|a| a.name().to_owned()).collect(),
    );
    for ((label, _), row) in cells.iter().zip(sums) {
        table.push_row(label.clone(), row);
    }
    table
}

/// Fig. 4 — impact of data-center scale (paper: 50/100/200 nodes, medium
/// workload held constant).
#[must_use]
pub fn fig04_scale(scale: Scale) -> FigureTable {
    let cells: Vec<(String, ScenarioBuilder)> = [50usize, 100, 200]
        .iter()
        .map(|&k| {
            (
                k.to_string(),
                ScenarioBuilder {
                    num_nodes: scale.nodes(k),
                    ..scale.base_builder()
                },
            )
        })
        .collect();
    welfare_table(
        "Fig. 4 — Impact of Data Center Scale (social welfare)",
        "nodes",
        &cells,
        scale,
    )
}

/// Fig. 5 — impact of the number of labor vendors (paper: 3/5/10).
#[must_use]
pub fn fig05_vendors(scale: Scale) -> FigureTable {
    let cells: Vec<(String, ScenarioBuilder)> = [3usize, 5, 10]
        .iter()
        .map(|&n| {
            (
                n.to_string(),
                ScenarioBuilder {
                    num_vendors: n,
                    preprocessing_prob: 0.7,
                    ..scale.base_builder()
                },
            )
        })
        .collect();
    welfare_table(
        "Fig. 5 — Impact of Number of Labor Vendors (social welfare)",
        "vendors",
        &cells,
        scale,
    )
}

/// Fig. 6 — impact of per-node capacity (A100-only / A40-only / hybrid).
#[must_use]
pub fn fig06_capacity(scale: Scale) -> FigureTable {
    let cells: Vec<(String, ScenarioBuilder)> = [
        NodeMix::A100Only,
        NodeMix::A40Only,
        NodeMix::Hybrid { a100_fraction: 0.5 },
    ]
    .iter()
    .map(|&mix| {
        (
            mix.name().to_owned(),
            ScenarioBuilder {
                node_mix: mix,
                ..scale.base_builder()
            },
        )
    })
    .collect();
    welfare_table(
        "Fig. 6 — Impact of Per-Node Capacity (social welfare)",
        "node type",
        &cells,
        scale,
    )
}

/// Fig. 7 — real-world task traces (MLaaS / Philly / Helios emulators).
#[must_use]
pub fn fig07_traces(scale: Scale) -> FigureTable {
    let cells: Vec<(String, ScenarioBuilder)> =
        [TraceKind::MLaaS, TraceKind::Philly, TraceKind::Helios]
            .iter()
            .map(|&kind| {
                (
                    kind.name().to_owned(),
                    ScenarioBuilder {
                        arrivals: ArrivalProcess::Trace {
                            kind,
                            mean_per_slot: scale.arrival_mean(50.0),
                        },
                        ..scale.base_builder()
                    },
                )
            })
            .collect();
    welfare_table(
        "Fig. 7 — Impact of Real-World Task Traces (social welfare)",
        "trace",
        &cells,
        scale,
    )
}

/// Fig. 8 — task dynamics: light/medium/high Poisson workloads
/// (paper: mean 30/50/80 per slot).
#[must_use]
pub fn fig08_workload(scale: Scale) -> FigureTable {
    let cells: Vec<(String, ScenarioBuilder)> = [("light", 30.0), ("medium", 50.0), ("high", 80.0)]
        .iter()
        .map(|&(label, mean)| {
            (
                label.to_owned(),
                ScenarioBuilder {
                    arrivals: ArrivalProcess::Poisson {
                        mean_per_slot: scale.arrival_mean(mean),
                    },
                    ..scale.base_builder()
                },
            )
        })
        .collect();
    welfare_table(
        "Fig. 8 — Impact of Task Dynamics (social welfare)",
        "workload",
        &cells,
        scale,
    )
}

/// Fig. 9 — deadline policies: tight/medium/slack.
#[must_use]
pub fn fig09_deadlines(scale: Scale) -> FigureTable {
    let cells: Vec<(String, ScenarioBuilder)> = [
        DeadlinePolicy::Tight,
        DeadlinePolicy::Medium,
        DeadlinePolicy::Slack,
    ]
    .iter()
    .map(|&p| {
        (
            p.name().to_owned(),
            ScenarioBuilder {
                deadline_policy: p,
                ..scale.base_builder()
            },
        )
    })
    .collect();
    welfare_table(
        "Fig. 9 — Impact of Task Deadlines (social welfare)",
        "deadline",
        &cells,
        scale,
    )
}

/// Fig. 10 — truthfulness: utility and payment of one bid as its declared
/// price sweeps across the truth. Also returns the probed task's true
/// valuation (the paper's dashed line).
#[must_use]
pub fn fig10_truthfulness(scale: Scale) -> (FigureTable, f64) {
    let sc = ScenarioBuilder {
        // A loaded cluster so the probed bid faces non-trivial prices.
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: scale.arrival_mean(80.0),
        },
        ..scale.base_builder()
    }
    .build();
    let mut scheduler = Pdftsp::new(&sc, PdftspConfig::default());

    // Warm the market on the first half of the tasks, then find a bid that
    // wins with a strictly positive payment — an interesting threshold.
    let half = sc.tasks.len() / 2;
    for task in &sc.tasks[..half] {
        let _ = scheduler.decide(task, &sc);
    }
    let probe_task: &Task = sc.tasks[half..]
        .iter()
        .find(|t| {
            let p = probe_bid(&scheduler, t, t.valuation, &sc);
            p.admitted && p.payment > 0.05 * t.valuation
        })
        .unwrap_or(&sc.tasks[half]);

    let mut table = FigureTable::new(
        format!(
            "Fig. 10 — Truthfulness (task {}, true valuation {:.2})",
            probe_task.id, probe_task.valuation
        ),
        "declared bid",
        vec!["utility".into(), "payment".into(), "wins".into()],
    );
    let v = probe_task.valuation;
    let steps = 24;
    for i in 0..=steps {
        let declared = v * 2.0 * i as f64 / steps as f64;
        let p = probe_bid(&scheduler, probe_task, declared.max(0.01), &sc);
        table.push_row(
            format!("{declared:.2}"),
            vec![p.utility, p.payment, if p.admitted { 1.0 } else { 0.0 }],
        );
    }
    (table, v)
}

/// Fig. 11 — individual rationality: bids vs payments for 10 sampled
/// winning tasks (normalized by the largest bid, as in the paper).
#[must_use]
pub fn fig11_rationality(scale: Scale) -> FigureTable {
    let sc = ScenarioBuilder {
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: scale.arrival_mean(80.0),
        },
        ..scale.base_builder()
    }
    .build();
    let mut scheduler = Pdftsp::new(&sc, PdftspConfig::default());
    let result = run_scheduler(&sc, &mut scheduler);
    let winners: Vec<&pdftsp_types::Decision> = result
        .decisions
        .iter()
        .filter(|d| d.is_admitted() && d.payment() > 0.0)
        .collect();
    let stride = (winners.len() / 10).max(1);
    let sample: Vec<&&pdftsp_types::Decision> = winners.iter().step_by(stride).take(10).collect();
    let max_bid = sample
        .iter()
        .map(|d| sc.tasks[d.task].bid)
        .fold(1e-12, f64::max);
    let mut table = FigureTable::new(
        "Fig. 11 — Individual Rationality (normalized money)",
        "task",
        vec!["bid".into(), "payment".into()],
    );
    for (i, d) in sample.iter().enumerate() {
        table.push_row(
            i.to_string(),
            vec![sc.tasks[d.task].bid / max_bid, d.payment() / max_bid],
        );
    }
    table
}

/// Fig. 12 — empirical competitive ratio over horizon length × workload
/// intensity, measured against the in-house offline optimum (upper-bound
/// ratio when the optimum is not certified — conservative).
#[must_use]
pub fn fig12_competitive(scale: Scale) -> FigureTable {
    let (horizons, means, milp) = match scale {
        Scale::Quick => (
            vec![24usize, 36, 48],
            vec![("small", 0.25), ("medium", 0.4), ("high", 0.6)],
            MilpConfig {
                node_limit: 300,
                time_limit_secs: 60.0,
                ..MilpConfig::default()
            },
        ),
        Scale::Full => (
            vec![50usize, 100, 150],
            vec![("small", 0.4), ("medium", 0.7), ("high", 1.0)],
            MilpConfig {
                node_limit: 2000,
                time_limit_secs: 600.0,
                ..MilpConfig::default()
            },
        ),
    };
    // Build the full instance grid up front, then hand it to the sweep
    // driver: instances solve concurrently, results come back in grid
    // order (row-major over horizon × intensity).
    let mut scenarios = Vec::new();
    for (hi, &h) in horizons.iter().enumerate() {
        for (mi, &(_, mean)) in means.iter().enumerate() {
            scenarios.push(
                ScenarioBuilder {
                    horizon: h,
                    num_nodes: 2,
                    arrivals: ArrivalProcess::Poisson {
                        mean_per_slot: mean,
                    },
                    // Each instance is one compressed day (same
                    // convention as `Scale::slots_per_day`).
                    slots_per_day: h,
                    seed: BASE_SEED ^ (hi * 31 + mi) as u64,
                    ..ScenarioBuilder::default()
                }
                .build(),
            );
        }
    }
    let sweep = ratio_sweep(&scenarios, &milp, &Telemetry::disabled());
    let mut table = FigureTable::new(
        "Fig. 12 — Empirical Competitive Ratio (offline-bound / online)",
        "slots",
        means.iter().map(|&(n, _)| n.to_owned()).collect(),
    );
    for (hi, h) in horizons.iter().enumerate() {
        let row: Vec<f64> = (0..means.len())
            .map(|mi| sweep.reports[hi * means.len() + mi].ratio_vs_bound)
            .collect();
        table.push_row(h.to_string(), row);
    }
    table
}

/// Fig. 13 — per-task scheduling runtime CDF: pdFTSP vs Titan.
#[must_use]
pub fn fig13_runtime(scale: Scale) -> FigureTable {
    // The paper measures at 100 nodes; Titan's per-slot MILP dominates.
    let builder = match scale {
        Scale::Quick => ScenarioBuilder {
            horizon: 36,
            num_nodes: 20,
            arrivals: ArrivalProcess::Poisson {
                mean_per_slot: 10.0,
            },
            ..ScenarioBuilder::default()
        },
        Scale::Full => ScenarioBuilder {
            num_nodes: 100,
            ..Scale::Full.base_builder()
        },
    };
    let sc = builder.build();
    let pd = run_algo(&sc, Algo::Pdftsp, 0).welfare.decide_seconds;
    let titan = run_algo(&sc, Algo::Titan, 0).welfare.decide_seconds;
    let mut table = FigureTable::new(
        "Fig. 13 — Per-task scheduling runtime CDF (seconds)",
        "percentile",
        vec!["pdFTSP".into(), "Titan".into()],
    );
    let pct = |xs: &[f64], p: f64| -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if v.is_empty() {
            return 0.0;
        }
        let idx = ((v.len() - 1) as f64 * p).round() as usize;
        v[idx]
    };
    for p in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        table.push_row(
            format!("p{:02.0}", p * 100.0),
            vec![pct(&pd, p), pct(&titan, p)],
        );
    }
    table
}

/// Extension experiment — fine-tuning paradigms beyond LoRA (the paper's
/// future work): the same workload under LoRA / QLoRA / prefix-tuning /
/// full fine-tuning calibrations. Columns are the four schedulers; rows
/// are paradigms — full fine-tuning kills base-model sharing, which is
/// exactly the multi-LoRA benefit the paper's Fig. 2 motivates.
#[must_use]
pub fn paradigms(scale: Scale) -> FigureTable {
    let cells: Vec<(String, ScenarioBuilder)> = [
        TuningParadigm::Lora { rank: 8 },
        TuningParadigm::QLora { rank: 8 },
        TuningParadigm::PrefixTuning { prefix_len: 64 },
        TuningParadigm::FullFineTune,
    ]
    .iter()
    .map(|&paradigm| {
        (
            paradigm.name().to_owned(),
            ScenarioBuilder {
                paradigm,
                ..scale.base_builder()
            },
        )
    })
    .collect();
    welfare_table(
        "Extension — Fine-tuning paradigms beyond LoRA (social welfare)",
        "paradigm",
        &cells,
        scale,
    )
}

/// Ablation: capacity policy, price-seeding damping `η`, pricing rule,
/// and compute pricing unit. Returns one table per ablation.
#[must_use]
pub fn ablations(scale: Scale) -> Vec<FigureTable> {
    let loads = [("light", 30.0), ("medium", 50.0), ("high", 80.0)];
    let configs: Vec<(String, PdftspConfig)> = vec![
        ("mask(default)".into(), PdftspConfig::default()),
        ("strict(paper)".into(), PdftspConfig::default().strict()),
        (
            "eta=0.1".into(),
            PdftspConfig {
                seed_damping: 0.1,
                ..PdftspConfig::default()
            },
        ),
        (
            "eta=1.0".into(),
            PdftspConfig {
                seed_damping: 1.0,
                ..PdftspConfig::default()
            },
        ),
        (
            "unit=1".into(),
            PdftspConfig {
                compute_unit: 1.0,
                ..PdftspConfig::default()
            },
        ),
        (
            "unit=20000".into(),
            PdftspConfig {
                compute_unit: 20_000.0,
                ..PdftspConfig::default()
            },
        ),
        (
            "price=eq14".into(),
            PdftspConfig {
                pricing: pdftsp_core::PricingRule::PaperEq14,
                ..PdftspConfig::default()
            },
        ),
        (
            "duals=linear".into(),
            PdftspConfig {
                dual_rule: pdftsp_core::DualRule::Linear,
                ..PdftspConfig::default()
            },
        ),
        (
            "duals=off".into(),
            PdftspConfig {
                dual_rule: pdftsp_core::DualRule::Off,
                ..PdftspConfig::default()
            },
        ),
    ];
    let mut jobs = Vec::new();
    for (li, _) in loads.iter().enumerate() {
        for (ci, _) in configs.iter().enumerate() {
            jobs.push((li, ci));
        }
    }
    let results = parallel_map(&jobs, |&(li, ci)| {
        let sc = ScenarioBuilder {
            arrivals: ArrivalProcess::Poisson {
                mean_per_slot: scale.arrival_mean(loads[li].1),
            },
            ..scale.base_builder()
        }
        .build();
        let mut s = Pdftsp::new(&sc, configs[ci].1);
        let r = run_scheduler(&sc, &mut s);
        (r.welfare.social_welfare, r.welfare.revenue)
    });
    let mut welfare = FigureTable::new(
        "Ablation — pdFTSP variants (social welfare)",
        "workload",
        configs.iter().map(|(n, _)| n.clone()).collect(),
    );
    let mut revenue = FigureTable::new(
        "Ablation — pdFTSP variants (provider revenue)",
        "workload",
        configs.iter().map(|(n, _)| n.clone()).collect(),
    );
    for (li, (label, _)) in loads.iter().enumerate() {
        let wrow: Vec<f64> = (0..configs.len())
            .map(|ci| results[jobs.iter().position(|&j| j == (li, ci)).unwrap()].0)
            .collect();
        let rrow: Vec<f64> = (0..configs.len())
            .map(|ci| results[jobs.iter().position(|&j| j == (li, ci)).unwrap()].1)
            .collect();
        welfare.push_row((*label).to_owned(), wrow);
        revenue.push_row((*label).to_owned(), rrow);
    }
    vec![welfare, revenue]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale used only by these smoke tests.
    fn tiny_cells() -> Vec<(String, ScenarioBuilder)> {
        vec![
            ("a".into(), ScenarioBuilder::smoke(1)),
            ("b".into(), ScenarioBuilder::smoke(2)),
        ]
    }

    #[test]
    fn welfare_table_has_expected_shape() {
        let t = welfare_table("t", "x", &tiny_cells(), Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.series.len(), 4);
        for (_, row) in &t.rows {
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn fig10_probe_utility_peaks_at_truth() {
        // Run at an even smaller size than Quick for test speed.
        let (table, v) = fig10_truthfulness(Scale::Quick);
        assert!(v > 0.0);
        // Utility at any declared bid never exceeds max utility, and the
        // utility column is flat at its max once winning.
        let utilities: Vec<f64> = table.rows.iter().map(|(_, r)| r[0]).collect();
        let max_u = utilities.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let winners: Vec<&(String, Vec<f64>)> =
            table.rows.iter().filter(|(_, r)| r[2] > 0.5).collect();
        for (_, r) in &winners {
            assert!((r[0] - max_u).abs() < 1e-9, "winning utility not flat");
        }
        // Payments of winners are all identical (bid-independent).
        if winners.len() >= 2 {
            let p0 = winners[0].1[1];
            for (_, r) in &winners {
                assert!((r[1] - p0).abs() < 1e-9);
            }
        }
    }
}
