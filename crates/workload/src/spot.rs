//! Spot-market scenario family: time-varying spot prices, budget-capped
//! bidders, and revocable lease generation.
//!
//! Three of the retrieved papers study renting preemptible GPU capacity
//! under price uncertainty. This module expresses that setting on top
//! of the existing machinery:
//!
//! * [`SpotPriceProcess`] — a seeded, deterministic per-slot price
//!   multiplier: the diurnal day shape (periodic in
//!   [`pdftsp_cluster::SLOTS_PER_DAY`], sharing the energy signal's
//!   phase convention) times a mean-reverting jump component, the
//!   classic spot-price model (baseline level, daily seasonality,
//!   short-lived spikes that decay geometrically);
//! * [`SpotSpec::apply`] — transforms a base scenario into its spot
//!   variant: the cost grid is re-priced slot-by-slot and a seeded
//!   fraction of bidders receives a budget cap below their bid, so the
//!   Eq. (14) payment check actually binds;
//! * lease generation — [`SpotSpec`] carries the revocation knobs and
//!   hands them to [`pdftsp_cluster::LeasePlan`]; the sim layer maps
//!   the windows onto the crash/quarantine/refund path.

use pdftsp_cluster::{LeasePlan, SLOTS_PER_DAY};
use pdftsp_types::{CostGrid, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parsed `--spot` specification: market dynamics, budgets, leases, and
/// the prediction signal, `key=value` style like the fault plans'
/// `pdftsp_sim::FaultSpec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotSpec {
    /// Per-slot probability of a spot-price jump.
    pub jump_prob: f64,
    /// Maximum relative magnitude of a jump (drawn uniform in
    /// `(0, jump_mag]`, always upward — spot spikes, then decays).
    pub jump_mag: f64,
    /// Mean-reversion rate in `(0, 1]`: the jump component decays by
    /// this fraction per slot.
    pub revert: f64,
    /// Amplitude of the diurnal component in `[0, 1)`.
    pub diurnal: f64,
    /// Number of lease-revocation attempts over the run.
    pub leases: usize,
    /// Length of each revocation window in slots.
    pub lease_len: usize,
    /// Fraction of bidders that are budget-capped, in `[0, 1]`.
    pub budget_frac: f64,
    /// Prediction lookahead in slots for dual pre-heating (0 disables
    /// the prediction signal).
    pub lookahead: usize,
    /// Pre-heat gain (scale on the seeded dual prices).
    pub gain: f64,
    /// Seed for the spot RNG (independent of the workload seed).
    pub seed: u64,
}

impl Default for SpotSpec {
    fn default() -> Self {
        SpotSpec {
            jump_prob: 0.08,
            jump_mag: 1.5,
            revert: 0.35,
            diurnal: 0.4,
            leases: 3,
            lease_len: 4,
            budget_frac: 0.5,
            lookahead: 6,
            gain: 0.5,
            seed: 0,
        }
    }
}

impl SpotSpec {
    /// Parses `key=value` pairs:
    /// `jumps=0.1,mag=2.0,revert=0.3,diurnal=0.4,leases=4,lease_len=6,budgets=0.5,lookahead=8,gain=0.5,seed=7`.
    /// Omitted keys keep their defaults.
    ///
    /// # Errors
    /// Fails on unknown keys, unparsable values, or out-of-range
    /// fractions.
    pub fn parse(spec: &str) -> Result<SpotSpec, String> {
        let mut out = SpotSpec::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("spot spec: `{pair}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("spot spec: `{value}` is not a valid {what} for {key}");
            let frac = |out: &mut f64, what: &str| -> Result<(), String> {
                let f: f64 = value.parse().map_err(|_| bad(what))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("spot spec: {key}={f} outside [0, 1]"));
                }
                *out = f;
                Ok(())
            };
            match key {
                "jumps" => frac(&mut out.jump_prob, "probability")?,
                "mag" => out.jump_mag = value.parse().map_err(|_| bad("magnitude"))?,
                "revert" => frac(&mut out.revert, "rate")?,
                "diurnal" => frac(&mut out.diurnal, "amplitude")?,
                "leases" => out.leases = value.parse().map_err(|_| bad("count"))?,
                "lease_len" => out.lease_len = value.parse().map_err(|_| bad("slot count"))?,
                "budgets" => frac(&mut out.budget_frac, "fraction")?,
                "lookahead" => out.lookahead = value.parse().map_err(|_| bad("slot count"))?,
                "gain" => out.gain = value.parse().map_err(|_| bad("gain"))?,
                "seed" => out.seed = value.parse().map_err(|_| bad("seed"))?,
                other => return Err(format!("spot spec: unknown key `{other}`")),
            }
        }
        if out.jump_mag < 0.0 {
            return Err(format!("spot spec: mag={} negative", out.jump_mag));
        }
        Ok(out)
    }

    /// The lease-revocation plan this spec induces for a cluster.
    #[must_use]
    pub fn lease_plan(&self, nodes: usize, horizon: usize) -> LeasePlan {
        // Offset the seed so lease draws never correlate with the price
        // path even though both flow from the one spot seed.
        LeasePlan::generate(
            nodes,
            horizon,
            self.leases,
            self.lease_len,
            self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Transforms `base` into its spot-market variant: the cost grid is
    /// multiplied by the [`SpotPriceProcess`] path and a seeded
    /// `budget_frac` fraction of bidders receives a budget cap drawn
    /// uniformly in `[0.35, 0.95] · bid`. Payments never exceed bids
    /// (individual rationality), so a cap below the bid is the only
    /// kind that can bind.
    ///
    /// # Panics
    /// Panics if the re-priced grid fails validation — impossible for a
    /// valid input scenario since multipliers are positive and finite.
    #[must_use]
    pub fn apply(&self, base: &Scenario) -> Scenario {
        let process = SpotPriceProcess::generate(base.horizon, self);
        let nodes = base.nodes.len();
        let mut price = Vec::with_capacity(nodes * base.horizon);
        for k in 0..nodes {
            for t in 0..base.horizon {
                price.push(base.cost.price(k, t) * process.multiplier[t]);
            }
        }
        let mut out = base.clone();
        out.cost = CostGrid::from_vec(nodes, base.horizon, price).expect("re-priced grid is valid");
        // Budgets draw from their own stream so adding a task never
        // shifts the price path.
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0xD1B5_4A32_D192_ED03));
        for task in &mut out.tasks {
            let capped: bool = rng.gen::<f64>() < self.budget_frac;
            let scale: f64 = rng.gen_range(0.35..0.95);
            if capped {
                task.budget = Some(task.bid * scale);
            }
        }
        out
    }
}

/// A seeded per-slot spot-price multiplier path.
///
/// `multiplier[t] = diurnal(t) · (1 + x_t)` where the jump state decays
/// geometrically, `x_{t+1} = (1 − revert) · x_t`, and with probability
/// `jump_prob` per slot picks up a fresh spike `uniform(0, jump_mag]`.
/// The diurnal factor shares [`SLOTS_PER_DAY`] (and the energy signal's
/// trough-at-midnight phase), so spot and energy prices peak together.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotPriceProcess {
    /// One multiplier per slot, all ≥ a small positive floor.
    pub multiplier: Vec<f64>,
}

impl SpotPriceProcess {
    /// Generates the deterministic price path for `horizon` slots.
    #[must_use]
    pub fn generate(horizon: usize, spec: &SpotSpec) -> SpotPriceProcess {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut x = 0.0_f64;
        let multiplier = (0..horizon)
            .map(|t| {
                x *= 1.0 - spec.revert.clamp(0.0, 1.0);
                // Draw both uniforms every slot so the path's RNG
                // consumption is independent of jump outcomes.
                let hit: f64 = rng.gen();
                let mag: f64 = rng.gen();
                if hit < spec.jump_prob {
                    x += spec.jump_mag * mag.max(f64::EPSILON);
                }
                let phase = (t % SLOTS_PER_DAY) as f64 / SLOTS_PER_DAY as f64;
                let diurnal = 1.0 + spec.diurnal * (std::f64::consts::TAU * (phase - 0.25)).sin();
                (diurnal * (1.0 + x)).max(0.05)
            })
            .collect();
        SpotPriceProcess { multiplier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;

    #[test]
    fn parse_round_trips_known_keys() {
        let s = SpotSpec::parse(
            "jumps=0.2,mag=2.0,revert=0.5,diurnal=0.3,leases=7,lease_len=6,budgets=0.8,lookahead=9,gain=0.4,seed=11",
        )
        .unwrap();
        assert_eq!(s.jump_prob, 0.2);
        assert_eq!(s.jump_mag, 2.0);
        assert_eq!(s.revert, 0.5);
        assert_eq!(s.diurnal, 0.3);
        assert_eq!(s.leases, 7);
        assert_eq!(s.lease_len, 6);
        assert_eq!(s.budget_frac, 0.8);
        assert_eq!(s.lookahead, 9);
        assert_eq!(s.gain, 0.4);
        assert_eq!(s.seed, 11);
        assert_eq!(SpotSpec::parse("").unwrap(), SpotSpec::default());
        assert!(SpotSpec::parse("wat=1").is_err());
        assert!(SpotSpec::parse("budgets=1.5").is_err());
        assert!(SpotSpec::parse("jumps").is_err());
    }

    #[test]
    fn price_path_is_seeded_and_positive() {
        let spec = SpotSpec {
            seed: 5,
            ..SpotSpec::default()
        };
        let a = SpotPriceProcess::generate(300, &spec);
        let b = SpotPriceProcess::generate(300, &spec);
        assert_eq!(a, b);
        assert!(a.multiplier.iter().all(|&m| m > 0.0 && m.is_finite()));
        let c = SpotPriceProcess::generate(
            300,
            &SpotSpec {
                seed: 6,
                ..SpotSpec::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn jumps_spike_then_revert() {
        // With certain jumps and strong reversion, multipliers exceed
        // the pure diurnal band and decay between spikes.
        let spec = SpotSpec {
            jump_prob: 1.0,
            jump_mag: 1.0,
            revert: 0.9,
            diurnal: 0.0,
            seed: 3,
            ..SpotSpec::default()
        };
        let p = SpotPriceProcess::generate(64, &spec);
        assert!(p.multiplier.iter().any(|&m| m > 1.05));
        // And with no jumps at all the path is the bare diurnal shape.
        let quiet = SpotPriceProcess::generate(
            64,
            &SpotSpec {
                jump_prob: 0.0,
                diurnal: 0.0,
                ..spec
            },
        );
        assert!(quiet.multiplier.iter().all(|&m| (m - 1.0).abs() < 1e-12));
    }

    #[test]
    fn apply_reprices_grid_and_caps_budgets() {
        let base = ScenarioBuilder::smoke(9).build();
        let spec = SpotSpec {
            budget_frac: 1.0,
            seed: 2,
            ..SpotSpec::default()
        };
        let spot = spec.apply(&base);
        assert_eq!(spot.tasks.len(), base.tasks.len());
        assert!(spot.validate().is_ok());
        let process = SpotPriceProcess::generate(base.horizon, &spec);
        for t in 0..base.horizon {
            let expected = base.cost.price(0, t) * process.multiplier[t];
            assert!((spot.cost.price(0, t) - expected).abs() < 1e-12);
        }
        for (b, s) in base.tasks.iter().zip(&spot.tasks) {
            assert_eq!(b.budget, None);
            let cap = s.budget.expect("budget_frac=1 caps every bidder");
            assert!(cap > 0.0 && cap < s.bid, "cap {cap} vs bid {}", s.bid);
        }
        // budget_frac = 0 leaves every bidder uncapped but keeps the
        // identical price path.
        let uncapped = SpotSpec {
            budget_frac: 0.0,
            ..spec
        }
        .apply(&base);
        assert!(uncapped.tasks.iter().all(|t| t.budget.is_none()));
        assert_eq!(uncapped.cost, spot.cost);
    }

    #[test]
    fn apply_is_deterministic() {
        let base = ScenarioBuilder::smoke(4).build();
        let spec = SpotSpec {
            seed: 8,
            ..SpotSpec::default()
        };
        let a = spec.apply(&base);
        let b = spec.apply(&base);
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn lease_plan_flows_from_the_spot_seed() {
        let spec = SpotSpec {
            leases: 5,
            lease_len: 4,
            seed: 21,
            ..SpotSpec::default()
        };
        let a = spec.lease_plan(8, 48);
        assert_eq!(a, spec.lease_plan(8, 48));
        assert!(!a.leases.is_empty());
    }
}
