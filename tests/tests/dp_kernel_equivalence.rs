//! Bit-equivalence of the min-plus DP kernel against independent oracles.
//!
//! `pdftsp_core::kernel` compiles one branchless body twice — an AVX2
//! copy and a baseline copy — and must replay the straight-line branchy
//! recurrence *bit for bit*: same IEEE-754 add/compare per cell, no FMA,
//! strict-`<` tie-break, candidates in ascending node order. These tests
//! pin that contract at three levels: the raw row primitives (each
//! compiled copy against a straight-line loop kept here), whole
//! `findSchedule` sweeps against the reference DP, and the end-to-end
//! auction against the reference pipeline.
//!
//! On a host without AVX2 the AVX2 copy is skipped with a printed note;
//! the baseline copy always runs.
//!
//! Randomization uses explicit seeded [`StdRng`] loops (the workspace
//! vendors a minimal offline `rand`); failures print the case number so
//! any instance replays deterministically.

use pdftsp_core::kernel::{Isa, LANES};
use pdftsp_core::{
    find_schedule_on_grid, find_schedule_reference, DeltaGrid, DpBuffers, DpContext, Pdftsp,
    PdftspConfig,
};
use pdftsp_types::{AuctionOutcome, Scenario};
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every compiled kernel copy that can run on this host.
fn copies() -> Vec<Isa> {
    let mut v = vec![Isa::baseline()];
    match Isa::avx2() {
        Some(isa) => v.push(isa),
        None => eprintln!("note: host lacks AVX2; the AVX2 kernel copy is not checked"),
    }
    v
}

/// The straight-line branchy row update the kernel must replay.
#[allow(clippy::too_many_arguments)]
fn oracle_row(
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

fn maybe_inf(rng: &mut StdRng, one_in: u32) -> f64 {
    if rng.gen_range(0..one_in) == 0 {
        f64::INFINITY
    } else {
        rng.gen_range(-100.0f64..100.0)
    }
}

fn random_scenario(rng: &mut StdRng) -> Scenario {
    ScenarioBuilder {
        horizon: rng.gen_range(10usize..30),
        num_nodes: rng.gen_range(2usize..7),
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: rng.gen_range(0.5f64..3.0),
        },
        num_vendors: rng.gen_range(2usize..7),
        preprocessing_prob: rng.gen_range(0.0f64..1.0),
        seed: rng.gen_range(0u64..1_000_000),
        ..ScenarioBuilder::smoke(0)
    }
    .build()
}

/// Level 1: the row primitive. Random rows — `+∞` cells in both `prev`
/// and `cur`, widths that are not lane multiples, `w_lo` on either side
/// of the floor/dense split at `gain`, and `gain > w_hi` — must come out
/// of every compiled copy with the oracle's bits in `cur` and `crow`.
#[test]
fn apply_candidate_matches_scalar_bitwise() {
    let mut seen = [false; 4]; // w_lo < gain, w_lo ≥ gain, gain > w_hi, odd width
    for isa in copies() {
        let mut rng = StdRng::seed_from_u64(0xD0_5EED);
        for case in 0..400 {
            let cols = rng.gen_range(1usize..130);
            let stride = cols.next_multiple_of(LANES);
            let w_hi = cols - 1;
            let w_lo = rng.gen_range(0..=w_hi);
            let gain = rng.gen_range(1usize..=(w_hi + 10));
            let delta = rng.gen_range(-50.0f64..50.0);
            let tag = rng.gen_range(1u16..=20);
            seen[0] |= w_lo < gain && gain <= w_hi;
            seen[1] |= w_lo >= gain;
            seen[2] |= gain > w_hi;
            seen[3] |= cols % LANES != 0;
            let prev: Vec<f64> = (0..stride).map(|_| maybe_inf(&mut rng, 5)).collect();
            let base_cur: Vec<f64> = (0..stride).map(|_| maybe_inf(&mut rng, 4)).collect();
            let base_crow: Vec<u16> = (0..stride).map(|_| rng.gen_range(0u16..8)).collect();

            let (mut cur_o, mut crow_o) = (base_cur.clone(), base_crow.clone());
            oracle_row(&prev, &mut cur_o, &mut crow_o, w_lo, w_hi, gain, delta, tag);
            let (mut cur_k, mut crow_k) = (base_cur, base_crow);
            isa.apply_candidate(&prev, &mut cur_k, &mut crow_k, w_lo, w_hi, gain, delta, tag);

            for w in 0..stride {
                assert_eq!(
                    cur_o[w].to_bits(),
                    cur_k[w].to_bits(),
                    "{} case {case}: value cell {w} (cols {cols}, w_lo {w_lo}, gain {gain})",
                    isa.name()
                );
                assert_eq!(
                    crow_o[w],
                    crow_k[w],
                    "{} case {case}: choice cell {w} (cols {cols}, w_lo {w_lo}, gain {gain})",
                    isa.name()
                );
            }
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "row shapes not all covered: {seen:?}"
    );
}

/// Level 1, grid side: every compiled copy of `delta_row` must produce
/// the reference expression `(s·λ + m·φ) + p·ew` bit for bit, at widths
/// around and between lane multiples.
#[test]
fn delta_row_matches_scalar_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xDE17A2);
    for isa in copies() {
        for width in [1usize, 3, 7, 8, 9, 15, 16, 17, 33, 100, 257] {
            let lambda: Vec<f64> = (0..width).map(|_| rng.gen_range(0.0f64..5.0)).collect();
            let phi: Vec<f64> = (0..width).map(|_| rng.gen_range(0.0f64..5.0)).collect();
            let prices: Vec<f64> = (0..width).map(|_| rng.gen_range(0.0f64..3.0)).collect();
            let s_price = rng.gen_range(0.1f64..10.0);
            let mem = rng.gen_range(0.5f64..40.0);
            let ew = rng.gen_range(0.0f64..2.0);
            let mut out = vec![f64::NAN; width];
            isa.delta_row(&lambda, &phi, &prices, s_price, mem, ew, &mut out);
            for j in 0..width {
                let e = prices[j] * ew;
                let want = s_price * lambda[j] + mem * phi[j] + e;
                assert_eq!(
                    out[j].to_bits(),
                    want.to_bits(),
                    "{} width {width} j {j}",
                    isa.name()
                );
            }
        }
    }
}

/// Level 2: whole `findSchedule` sweeps. Warm the duals and the ledger
/// with the first half of a random day, then for every later task and
/// every vendor start run the grid DP (the kernel's caller) and the
/// reference DP (no kernel) and demand identical placements and cost
/// bits.
#[test]
fn find_schedule_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x51_D0_07);
    let mut compared = 0usize;
    for case in 0..20 {
        let sc = random_scenario(&mut rng);
        let half = sc.tasks.len() / 2;
        let mut warm = Pdftsp::new(&sc, PdftspConfig::default());
        for task in &sc.tasks[..half] {
            warm.decide(task, &sc);
        }
        let ctx = DpContext {
            scenario: &sc,
            duals: warm.duals(),
            ledger: Some(warm.ledger()),
            compute_unit: warm.config().compute_unit,
            telemetry: None,
        };
        let mut grid = DeltaGrid::default();
        let mut bufs = DpBuffers::default();
        for task in &sc.tasks[half..] {
            grid.build(&ctx, task, task.arrival);
            let mut starts = vec![task.arrival];
            if task.needs_preprocessing {
                starts.extend(sc.quotes[task.id].iter().map(|q| task.arrival + q.delay));
            }
            for start in starts {
                let got = find_schedule_on_grid(&ctx, task, start, &grid, &mut bufs);
                let want = find_schedule_reference(&ctx, task, start);
                match (&got, &want) {
                    (Some(g), Some(w)) => {
                        assert_eq!(g.placements, w.placements, "case {case}: task {}", task.id);
                        assert_eq!(
                            g.dp_cost.to_bits(),
                            w.dp_cost.to_bits(),
                            "case {case}: task {} start {start} cost",
                            task.id
                        );
                        assert_eq!(g.energy.to_bits(), w.energy.to_bits());
                        compared += 1;
                    }
                    (None, None) => {}
                    _ => panic!(
                        "case {case}: task {} start {start}: feasibility split {got:?} vs {want:?}",
                        task.id
                    ),
                }
            }
        }
    }
    assert!(compared > 100, "too few feasible DPs compared: {compared}");
}

/// Level 3: the full auction. The production pipeline (kernel-driven
/// grid DP) and the straight-line reference pipeline over the same
/// arrival sequence must admit the same tasks at the same (bit-identical)
/// payments and keep bit-identical dual objectives.
#[test]
fn end_to_end_decisions_match_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xE2E_CA5E);
    for case in 0..10 {
        let sc = random_scenario(&mut rng);
        let mut opt = Pdftsp::new(&sc, PdftspConfig::default());
        let mut reference = Pdftsp::new(&sc, PdftspConfig::default().reference());
        for task in &sc.tasks {
            let a = opt.decide(task, &sc);
            let b = reference.decide(task, &sc);
            match (&a.outcome, &b.outcome) {
                (
                    AuctionOutcome::Admitted { schedule, payment },
                    AuctionOutcome::Admitted {
                        schedule: s_ref,
                        payment: p_ref,
                    },
                ) => {
                    assert_eq!(schedule, s_ref, "case {case}: task {} schedule", task.id);
                    assert_eq!(
                        payment.to_bits(),
                        p_ref.to_bits(),
                        "case {case}: task {} payment",
                        task.id
                    );
                }
                (AuctionOutcome::Rejected(_), AuctionOutcome::Rejected(_)) => {}
                (x, y) => panic!("case {case}: task {} outcome split {x:?} vs {y:?}", task.id),
            }
            assert_eq!(
                opt.duals().dual_objective().to_bits(),
                reference.duals().dual_objective().to_bits(),
                "case {case}: task {} dual objective",
                task.id
            );
        }
    }
}
