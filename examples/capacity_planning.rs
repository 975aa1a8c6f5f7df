//! Capacity planning: a provider-side what-if study using the public
//! API — how much cluster does a given fine-tuning demand need, and what
//! does each extra GPU buy in welfare, revenue, and admission rate?
//!
//! ```text
//! cargo run -p pdftsp-examples --release --bin capacity_planning
//! ```

use pdftsp_cluster::parallel_map;
use pdftsp_sim::{run_algo, Algo, FigureTable};
use pdftsp_workload::{ArrivalProcess, NodeMix, ScenarioBuilder};

fn main() {
    // Fixed demand: ~6 tasks per 10-minute slot for 48 slots.
    let demand = ArrivalProcess::Poisson { mean_per_slot: 6.0 };
    let cluster_sizes = [4usize, 8, 12, 16, 24];

    let results = parallel_map(&cluster_sizes, |&k| {
        let scenario = ScenarioBuilder {
            horizon: 48,
            num_nodes: k,
            node_mix: NodeMix::Hybrid { a100_fraction: 0.5 },
            arrivals: demand,
            seed: 31,
            ..ScenarioBuilder::default()
        }
        .build();
        let load = scenario.stats().offered_load;
        (load, run_algo(&scenario, Algo::Pdftsp, 0))
    });

    let mut table = FigureTable::new(
        "Capacity planning under pdFTSP (fixed demand, growing cluster)",
        "nodes",
        vec![
            "offered load".into(),
            "welfare".into(),
            "revenue".into(),
            "admission %".into(),
            "mean util %".into(),
        ],
    );
    for (&k, (load, r)) in cluster_sizes.iter().zip(&results) {
        table.push_row(
            k.to_string(),
            vec![
                *load,
                r.welfare.social_welfare,
                r.welfare.revenue,
                100.0 * r.welfare.admission_rate(),
                100.0 * r.metrics.mean_compute_utilization,
            ],
        );
    }
    println!("{}", table.render());

    // Marginal value of capacity: where does another GPU stop paying off?
    println!("marginal welfare per added node:");
    for w in results.windows(2).zip(cluster_sizes.windows(2)) {
        let ((_, a), (_, b)) = (&w.0[0], &w.0[1]);
        let dk = (w.1[1] - w.1[0]) as f64;
        println!(
            "  {} -> {} nodes: {:+.1} welfare per node",
            w.1[0],
            w.1[1],
            (b.welfare.social_welfare - a.welfare.social_welfare) / dk
        );
    }
    println!(
        "\nreading: once the offered load falls well under 1.0 the cluster is\n\
         demand-bound — extra GPUs stop buying welfare and utilization drops."
    );
}
