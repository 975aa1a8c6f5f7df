//! Posted-fixed-price mechanism — the paper's motivating foil.
//!
//! The introduction argues that "the de facto fixed pricing, as adopted by
//! some providers, often fail\[s\] to meet these requirements" (profitability
//! plus agile adaptation to demand and supply). This baseline implements
//! that de facto mechanism so the claim is measurable:
//!
//! * the provider posts a static price per 1000 samples of fine-tuning
//!   work (plus cost pass-through of the chosen vendor);
//! * an arriving user buys iff her valuation covers the posted total;
//! * the provider serves buyers greedily (earliest finish) while capacity
//!   lasts — there is no price signal to shift anyone off peak cells, and
//!   no way to favor high-valuation tasks beyond first-come-first-served.
//!
//! Against pdFTSP this loses in both directions: a low posted price admits
//! cheap work that crowds out later valuable bids; a high posted price
//! idles the cluster. The `fixed_price` ablation bench sweeps the posted
//! price to show the whole frontier sitting below the auction.

use crate::greedy::greedy_asap;
use pdftsp_cluster::CapacityLedger;
use pdftsp_types::{
    Decision, OnlineScheduler, Rejection, Scenario, Schedule, Slot, SlotOutcome, Task, VendorQuote,
};
use std::time::Instant;

/// Posted-price configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPriceConfig {
    /// Price per 1000 samples of requested work (`M_i`).
    pub price_per_kwork: f64,
    /// Whether the vendor's charge is passed through to the user on top of
    /// the posted price (true for real services).
    pub vendor_passthrough: bool,
}

impl Default for FixedPriceConfig {
    fn default() -> Self {
        FixedPriceConfig {
            // The workload generator draws valuations around 1.5 per
            // k-sample of work; posting slightly below the mean valuation
            // is the revenue-maximizing static choice in expectation.
            price_per_kwork: 1.2,
            vendor_passthrough: true,
        }
    }
}

/// The posted-fixed-price scheduler.
pub struct FixedPrice {
    config: FixedPriceConfig,
    ledger: CapacityLedger,
    scratch: Vec<(usize, usize)>,
}

impl FixedPrice {
    /// Creates a fixed-price mechanism over `scenario`'s cluster.
    #[must_use]
    pub fn new(scenario: &Scenario, config: FixedPriceConfig) -> Self {
        FixedPrice {
            config,
            ledger: CapacityLedger::new(scenario),
            scratch: Vec::new(),
        }
    }

    /// The posted total for a task (before vendor pass-through).
    #[must_use]
    pub fn posted_price(&self, task: &Task) -> f64 {
        self.config.price_per_kwork * task.work as f64 / 1000.0
    }

    fn decide(&mut self, task: &Task, scenario: &Scenario) -> Decision {
        let t0 = Instant::now();
        // Cheapest vendor (the provider passes the charge through, users
        // prefer the cheapest; ties on the paper's model don't matter).
        let vendor = if task.needs_preprocessing {
            scenario.quotes[task.id]
                .iter()
                .copied()
                .min_by(|a, b| a.price.partial_cmp(&b.price).unwrap())
                .unwrap_or_else(VendorQuote::none)
        } else {
            VendorQuote::none()
        };
        let mut total = self.posted_price(task);
        if self.config.vendor_passthrough {
            total += vendor.price;
        }
        // The user declines when the posted total exceeds her valuation.
        if total > task.valuation {
            return Decision::rejected(
                task.id,
                Rejection::NonPositiveSurplus,
                t0.elapsed().as_secs_f64(),
            );
        }
        let start = task.arrival + vendor.delay;
        match greedy_asap(task, start, scenario, &self.ledger, None, &mut self.scratch) {
            Some(placements) => {
                let schedule = Schedule::new(task.id, vendor, placements);
                self.ledger
                    .commit(task, &schedule)
                    .expect("greedy_asap only uses fitting cells");
                Decision::admitted(task.id, schedule, total, t0.elapsed().as_secs_f64())
            }
            None => Decision::rejected(
                task.id,
                Rejection::NoFeasibleSchedule,
                t0.elapsed().as_secs_f64(),
            ),
        }
    }
}

impl OnlineScheduler for FixedPrice {
    fn name(&self) -> &'static str {
        "FixedPrice"
    }

    fn on_slot(&mut self, _slot: Slot, arrivals: &[&Task], scenario: &Scenario) -> SlotOutcome {
        arrivals.iter().map(|t| self.decide(t, scenario)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_types::{CostGrid, GpuModel, NodeSpec, TaskBuilder};

    fn scenario(tasks: Vec<Task>, quotes: Vec<Vec<VendorQuote>>) -> Scenario {
        Scenario {
            horizon: 8,
            base_model_gb: 2.0,
            nodes: vec![NodeSpec::new(0, GpuModel::A100_80, 1000)],
            tasks,
            quotes,
            cost: CostGrid::flat(1, 8, 0.1),
        }
    }

    fn task(id: usize, work: u64, valuation: f64) -> Task {
        TaskBuilder::new(id, 0, 7)
            .dataset(work)
            .memory_gb(5.0)
            .bid(valuation)
            .rates(vec![1000])
            .build()
            .unwrap()
    }

    #[test]
    fn user_declines_when_posted_price_exceeds_valuation() {
        // 2000 samples at 1.2/k = 2.4 posted; valuation 2.0 declines.
        let sc = scenario(vec![task(0, 2000, 2.0)], vec![vec![]]);
        let mut fp = FixedPrice::new(&sc, FixedPriceConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        let out = fp.on_slot(0, &refs, &sc);
        assert!(!out[0].is_admitted());
    }

    #[test]
    fn buyer_pays_the_posted_price_not_the_bid() {
        let sc = scenario(vec![task(0, 2000, 50.0)], vec![vec![]]);
        let mut fp = FixedPrice::new(&sc, FixedPriceConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        let out = fp.on_slot(0, &refs, &sc);
        assert!(out[0].is_admitted());
        assert!((out[0].payment() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn first_come_first_served_crowds_out_valuable_late_bids() {
        // Four cheap-but-willing tasks fill the 8 slots; the late whale is
        // turned away — exactly the failure mode the auction fixes.
        let mut tasks: Vec<Task> = (0..4).map(|i| task(i, 2000, 10.0)).collect();
        tasks.push(task(4, 2000, 500.0));
        let quotes = vec![vec![]; 5];
        let sc = scenario(tasks, quotes);
        let mut fp = FixedPrice::new(&sc, FixedPriceConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        let out = fp.on_slot(0, &refs, &sc);
        assert!(out[..4].iter().all(Decision::is_admitted));
        assert!(!out[4].is_admitted());
    }

    #[test]
    fn vendor_passthrough_raises_the_user_total() {
        let mut t = task(0, 2000, 3.0);
        t.needs_preprocessing = true;
        let quotes = vec![vec![VendorQuote {
            vendor: 0,
            price: 1.0,
            delay: 1,
        }]];
        // Posted 2.4 + vendor 1.0 = 3.4 > valuation 3.0 → declined.
        let sc = scenario(vec![t], quotes);
        let mut fp = FixedPrice::new(&sc, FixedPriceConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        assert!(!fp.on_slot(0, &refs, &sc)[0].is_admitted());

        // Without pass-through the provider eats the vendor cost and the
        // user buys.
        let sc2 = {
            let mut t = task(0, 2000, 3.0);
            t.needs_preprocessing = true;
            scenario(
                vec![t],
                vec![vec![VendorQuote {
                    vendor: 0,
                    price: 1.0,
                    delay: 1,
                }]],
            )
        };
        let mut fp = FixedPrice::new(
            &sc2,
            FixedPriceConfig {
                vendor_passthrough: false,
                ..FixedPriceConfig::default()
            },
        );
        let refs: Vec<&Task> = sc2.tasks.iter().collect();
        assert!(fp.on_slot(0, &refs, &sc2)[0].is_admitted());
    }

    #[test]
    fn higher_posted_price_admits_fewer() {
        let tasks: Vec<Task> = (0..6).map(|i| task(i, 1000, 1.5 + i as f64)).collect();
        let quotes = vec![vec![]; 6];
        let sc = scenario(tasks, quotes);
        let admitted_at = |price: f64| {
            let mut fp = FixedPrice::new(
                &sc,
                FixedPriceConfig {
                    price_per_kwork: price,
                    vendor_passthrough: true,
                },
            );
            let refs: Vec<&Task> = sc.tasks.iter().collect();
            fp.on_slot(0, &refs, &sc)
                .iter()
                .filter(|d| d.is_admitted())
                .count()
        };
        assert!(admitted_at(1.0) >= admitted_at(4.0));
    }
}
