//! Multi-model zones.
//!
//! The paper restricts each scheduling problem to a single shared
//! pre-trained model and notes that "different 'zones' within the cloud
//! data center can be set up for tasks fine-tuning different pre-trained
//! models". This module operationalizes that remark: a zoned cluster is a
//! set of independent scenarios — one per base model — each with its own
//! node partition, task population, and scheduler instance, run in
//! parallel and reported jointly.
//!
//! Zones are fully isolated by construction (a LoRA adapter for GPT-2
//! medium is useless on a node holding GPT-2 large), so per-zone
//! guarantees (truthfulness, IR, competitive ratio) carry over to the
//! whole data center.

use crate::driver::{run_algo, Algo, RunResult};
use pdftsp_cluster::parallel_map;
use pdftsp_cluster::{apportion, ShardError};
use pdftsp_lora::TransformerConfig;
use pdftsp_workload::ScenarioBuilder;

/// One zone: a named scenario generator.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Human-readable zone name (usually the base model).
    pub name: String,
    /// The zone's scenario.
    pub builder: ScenarioBuilder,
}

/// Outcome of a zoned run.
#[derive(Debug)]
pub struct ZonedOutcome {
    /// Per-zone results, in input order.
    pub per_zone: Vec<(String, RunResult)>,
    /// Sum of zone welfares.
    pub total_welfare: f64,
    /// Sum of admitted tasks.
    pub total_admitted: usize,
    /// Sum of all tasks.
    pub total_tasks: usize,
}

/// Splits a data center between base models. Each entry gives the model
/// and its share of nodes and of arriving demand; shares are normalized.
///
/// Node counts come from largest-remainder apportionment
/// ([`pdftsp_cluster::apportion`]), so the per-zone counts sum *exactly*
/// to `base.num_nodes` — the independent `.round().max(1)` of the first
/// version could oversubscribe (2 × 0.5 shares over 5 nodes → 3 + 3) or
/// undershoot the base cluster. Demand is split by [`ArrivalProcess::
/// thin`](pdftsp_workload::ArrivalProcess::thin), which preserves the
/// process law: a trace base keeps its trace kind at scaled intensity
/// instead of being silently downgraded to Poisson.
///
/// Zero-share entries are skipped (they receive no nodes and no zone).
///
/// # Errors
/// [`ShardError::ZeroWeightSum`] when the shares sum to zero (the old
/// code divided by that sum, poisoning every `mean_per_slot` with NaN
/// and collapsing node counts to the `.max(1)` floor),
/// [`ShardError::InvalidWeight`] on a negative/NaN share, and
/// [`ShardError::TooFewItems`] when the base cluster has fewer nodes
/// than there are positive-share zones.
pub fn partition_zones(
    base: &ScenarioBuilder,
    splits: &[(String, TransformerConfig, f64)],
) -> Result<Vec<Zone>, ShardError> {
    let shares: Vec<f64> = splits.iter().map(|&(_, _, s)| s).collect();
    let counts = apportion(base.num_nodes, &shares)?;
    let total_share: f64 = shares.iter().sum();
    Ok(splits
        .iter()
        .zip(&counts)
        .enumerate()
        .filter(|&(_, ((_, _, share), _))| *share > 0.0)
        .map(|(i, ((name, model, share), &num_nodes))| {
            let frac = share / total_share;
            Zone {
                name: name.clone(),
                builder: ScenarioBuilder {
                    num_nodes,
                    arrivals: base.arrivals.thin(frac),
                    model: *model,
                    seed: base.seed ^ (0x9E37 + i as u64 * 0x79B9),
                    ..base.clone()
                },
            }
        })
        .collect())
}

/// Runs `algo` independently in every zone (in parallel) and aggregates.
#[must_use]
pub fn run_zoned(zones: &[Zone], algo: Algo, seed: u64) -> ZonedOutcome {
    let results = parallel_map(zones, |zone| {
        let scenario = zone.builder.build();
        (zone.name.clone(), run_algo(&scenario, algo, seed))
    });
    let total_welfare = results.iter().map(|(_, r)| r.welfare.social_welfare).sum();
    let total_admitted = results.iter().map(|(_, r)| r.welfare.admitted).sum();
    let total_tasks = results
        .iter()
        .map(|(_, r)| r.welfare.admitted + r.welfare.rejected)
        .sum();
    ZonedOutcome {
        per_zone: results,
        total_welfare,
        total_admitted,
        total_tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_workload::{ArrivalProcess, TraceKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base() -> ScenarioBuilder {
        ScenarioBuilder {
            horizon: 24,
            num_nodes: 9,
            arrivals: ArrivalProcess::Poisson { mean_per_slot: 3.0 },
            seed: 11,
            ..ScenarioBuilder::default()
        }
    }

    fn splits() -> Vec<(String, TransformerConfig, f64)> {
        vec![
            ("gpt2-small".into(), TransformerConfig::gpt2_small(), 1.0),
            ("gpt2-medium".into(), TransformerConfig::gpt2_medium(), 1.0),
            ("gpt2-large".into(), TransformerConfig::gpt2_large(), 1.0),
        ]
    }

    #[test]
    fn partition_splits_nodes_and_demand() {
        let zones = partition_zones(&base(), &splits()).unwrap();
        assert_eq!(zones.len(), 3);
        let nodes: usize = zones.iter().map(|z| z.builder.num_nodes).sum();
        assert_eq!(nodes, 9);
        for z in &zones {
            match z.builder.arrivals {
                ArrivalProcess::Poisson { mean_per_slot } => {
                    assert!((mean_per_slot - 1.0).abs() < 1e-9);
                }
                ArrivalProcess::Trace { .. } => panic!("expected poisson"),
            }
        }
        // Different models per zone.
        assert_ne!(
            zones[0].builder.model.total_params(),
            zones[2].builder.model.total_params()
        );
    }

    #[test]
    fn zoned_run_aggregates_per_zone_results() {
        let zones = partition_zones(&base(), &splits()).unwrap();
        let out = run_zoned(&zones, Algo::Pdftsp, 0);
        assert_eq!(out.per_zone.len(), 3);
        let sum: f64 = out
            .per_zone
            .iter()
            .map(|(_, r)| r.welfare.social_welfare)
            .sum();
        assert!((sum - out.total_welfare).abs() < 1e-9);
        assert!(out.total_admitted > 0);
        assert!(out.total_admitted <= out.total_tasks);
    }

    #[test]
    fn uneven_shares_bias_the_partition() {
        let splits = vec![
            ("big".into(), TransformerConfig::gpt2_medium(), 3.0),
            ("small".into(), TransformerConfig::gpt2_small(), 1.0),
        ];
        let zones = partition_zones(&base(), &splits).unwrap();
        assert!(zones[0].builder.num_nodes > zones[1].builder.num_nodes);
        let nodes: usize = zones.iter().map(|z| z.builder.num_nodes).sum();
        assert_eq!(nodes, base().num_nodes);
    }

    #[test]
    fn zones_are_deterministic_given_the_base_seed() {
        let zones = partition_zones(&base(), &splits()).unwrap();
        let a = run_zoned(&zones, Algo::Pdftsp, 0);
        let b = run_zoned(&zones, Algo::Pdftsp, 0);
        assert_eq!(a.total_welfare, b.total_welfare);
    }

    /// Regression: a zero share sum used to divide to NaN, poisoning
    /// every zone's `mean_per_slot` and collapsing node counts to the
    /// `.max(1)` floor. It must be a typed error instead — and so must
    /// negative shares.
    #[test]
    fn degenerate_shares_are_errors_not_nan() {
        let zero = vec![
            ("a".into(), TransformerConfig::gpt2_small(), 0.0),
            ("b".into(), TransformerConfig::gpt2_medium(), 0.0),
        ];
        assert_eq!(
            partition_zones(&base(), &zero).unwrap_err(),
            ShardError::ZeroWeightSum
        );
        let negative = vec![
            ("a".into(), TransformerConfig::gpt2_small(), 1.0),
            ("b".into(), TransformerConfig::gpt2_medium(), -2.0),
        ];
        assert!(matches!(
            partition_zones(&base(), &negative),
            Err(ShardError::InvalidWeight { index: 1, .. })
        ));
        // More positive-share zones than nodes cannot conserve the
        // cluster either.
        let narrow = ScenarioBuilder {
            num_nodes: 2,
            ..base()
        };
        assert!(matches!(
            partition_zones(&narrow, &splits()),
            Err(ShardError::TooFewItems { .. })
        ));
    }

    /// A zero-share zone alongside positive ones is skipped, and the
    /// survivors still conserve the node count.
    #[test]
    fn zero_share_zones_are_skipped() {
        let mixed = vec![
            ("a".into(), TransformerConfig::gpt2_small(), 2.0),
            ("idle".into(), TransformerConfig::gpt2_medium(), 0.0),
            ("c".into(), TransformerConfig::gpt2_large(), 1.0),
        ];
        let zones = partition_zones(&base(), &mixed).unwrap();
        assert_eq!(zones.len(), 2);
        assert!(zones.iter().all(|z| z.name != "idle"));
        let nodes: usize = zones.iter().map(|z| z.builder.num_nodes).sum();
        assert_eq!(nodes, base().num_nodes);
    }

    /// Regression: the motivating oversubscription case (2 zones × share
    /// 0.5 over 5 nodes used to round to 3 + 3 = 6) plus a property
    /// sweep — random splits always sum exactly to the base cluster.
    #[test]
    fn node_counts_conserve_the_data_center() {
        let five = ScenarioBuilder {
            num_nodes: 5,
            ..base()
        };
        let halves = vec![
            ("a".into(), TransformerConfig::gpt2_small(), 0.5),
            ("b".into(), TransformerConfig::gpt2_medium(), 0.5),
        ];
        let zones = partition_zones(&five, &halves).unwrap();
        let nodes: usize = zones.iter().map(|z| z.builder.num_nodes).sum();
        assert_eq!(nodes, 5);

        let mut rng = StdRng::seed_from_u64(77);
        let models = [
            TransformerConfig::gpt2_small(),
            TransformerConfig::gpt2_medium(),
            TransformerConfig::gpt2_large(),
        ];
        for round in 0..100 {
            let parts = rng.gen_range(1..=5usize);
            let splits: Vec<(String, TransformerConfig, f64)> = (0..parts)
                .map(|i| {
                    (
                        format!("z{i}"),
                        models[i % models.len()],
                        rng.gen_range(0.01..10.0f64),
                    )
                })
                .collect();
            let b = ScenarioBuilder {
                num_nodes: rng.gen_range(parts..parts + 40),
                ..base()
            };
            let zones = partition_zones(&b, &splits).unwrap();
            let nodes: usize = zones.iter().map(|z| z.builder.num_nodes).sum();
            assert_eq!(nodes, b.num_nodes, "round {round} lost or minted nodes");
            assert!(zones.iter().all(|z| z.builder.num_nodes >= 1));
            // Demand is conserved too: thinned means sum to the base mean.
            let mean: f64 = zones
                .iter()
                .map(|z| z.builder.arrivals.mean_per_slot())
                .sum();
            assert!((mean - b.arrivals.mean_per_slot()).abs() < 1e-9);
        }
    }

    /// Regression: a trace base used to be silently downgraded to
    /// Poisson; zones must keep the trace kind at thinned intensity.
    #[test]
    fn trace_arrivals_are_thinned_not_downgraded() {
        let traced = ScenarioBuilder {
            arrivals: ArrivalProcess::Trace {
                kind: TraceKind::Philly,
                mean_per_slot: 3.0,
            },
            ..base()
        };
        let zones = partition_zones(&traced, &splits()).unwrap();
        for z in &zones {
            match z.builder.arrivals {
                ArrivalProcess::Trace {
                    kind,
                    mean_per_slot,
                } => {
                    assert_eq!(kind, TraceKind::Philly);
                    assert!((mean_per_slot - 1.0).abs() < 1e-9);
                }
                ArrivalProcess::Poisson { .. } => panic!("trace downgraded to poisson"),
            }
        }
    }
}
