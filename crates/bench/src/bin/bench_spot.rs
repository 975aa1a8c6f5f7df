//! Emits `BENCH_spot.json` at the repo root: the spot-market comparison
//! of pdFTSP against the deadline-aware-with-predictions baseline under
//! time-varying spot prices, budget-capped bidders, and revocable
//! leases.
//!
//! Methodology (see EXPERIMENTS.md "Spot-market benchmark"): the base
//! scenario is transformed by a seeded [`SpotSpec`] — the cost grid is
//! re-priced by a diurnal + mean-reverting-jump multiplier path, a
//! seeded fraction of bidders receives budget caps below their bids,
//! and a lease plan marks revocable capacity. Both systems run over the
//! *identical* transformed instance:
//!
//! * pdFTSP takes the revocations through the crash/quarantine/refund
//!   path (Eq. (14) consumed-prefix refunds) with the prediction signal
//!   pre-heating its dual grids;
//! * the baseline commits its plan up front and loses the revoked
//!   cells — surviving work short of the task's total is a deadline
//!   miss.
//!
//! Reported per instance: social welfare, refund volume, and
//! deadline-miss rate for each system.
//!
//! A determinism block then drives the same spot scenario + lease-derived
//! fault plan through the sharded [`AuctionService`] at {1, 2, 4}
//! workers and asserts one bit-identical [`RunDigest`] — revocations
//! under sharding must replay the single-thread schedule exactly.
//!
//! `--smoke` shrinks the scenario for CI, still runs the comparison and
//! the full determinism sweep, and leaves the committed full-run
//! artifact untouched.

use pdftsp_cluster::{configured_threads, hardware_threads, set_thread_override};
use pdftsp_core::{PdftspConfig, PreheatSpec};
use pdftsp_sim::{
    lease_fault_plan, run_spot, AuctionService, RunDigest, ServiceConfig, SpotMetrics,
};
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder, SpotSpec};

fn scenario(smoke: bool, seed: u64) -> Scenario {
    let (horizon, nodes, mean) = if smoke { (16, 6, 3.0) } else { (48, 12, 8.0) };
    ScenarioBuilder {
        horizon,
        num_nodes: nodes,
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: mean,
        },
        seed,
        ..ScenarioBuilder::default()
    }
    .build()
}

fn spot_spec(smoke: bool) -> SpotSpec {
    SpotSpec {
        jump_prob: 0.10,
        jump_mag: 1.5,
        revert: 0.35,
        diurnal: 0.4,
        leases: if smoke { 3 } else { 8 },
        lease_len: 4,
        budget_frac: 0.6,
        lookahead: 6,
        gain: 0.5,
        seed: 11,
    }
}

/// Scenario seeds for the comparison rows.
const SEEDS: [u64; 3] = [8484, 8485, 8486];

fn metrics_json(m: &SpotMetrics) -> String {
    format!(
        concat!(
            "{{\"name\": \"{}\", \"welfare\": {:.6}, \"refund_volume\": {:.6}, ",
            "\"deadline_miss_rate\": {:.6}, \"completed\": {}, \"aborted\": {}, ",
            "\"rejected\": {}}}"
        ),
        m.name,
        m.social_welfare,
        m.refund_volume,
        m.deadline_miss_rate,
        m.completed,
        m.aborted,
        m.rejected,
    )
}

/// One comparison row: pdFTSP vs the deadline-aware baseline on the
/// identical spot-transformed instance.
fn comparison_json(smoke: bool, seed: u64, spec: &SpotSpec) -> String {
    let base = scenario(smoke, seed);
    let cmp = run_spot(&base, spec, PdftspConfig::default());
    // The comparison itself must be seed-stable.
    assert_eq!(
        cmp,
        run_spot(&base, spec, PdftspConfig::default()),
        "spot comparison is not deterministic (seed {seed})"
    );
    println!(
        "seed {seed}: pdFTSP welfare {:>9.2} (refunds {:>7.2}, miss {:>5.1}%) vs {} welfare {:>9.2} (miss {:>5.1}%), {} revocations, {} capped bidders, {} budget rejections",
        cmp.pdftsp.social_welfare,
        cmp.pdftsp.refund_volume,
        100.0 * cmp.pdftsp.deadline_miss_rate,
        cmp.baseline.name,
        cmp.baseline.social_welfare,
        100.0 * cmp.baseline.deadline_miss_rate,
        cmp.revocations,
        cmp.capped_bidders,
        cmp.budget_rejections,
    );
    format!(
        concat!(
            "    {{\"seed\": {}, \"revocations\": {}, \"capped_bidders\": {}, ",
            "\"budget_rejections\": {},\n",
            "     \"pdftsp\": {},\n",
            "     \"baseline\": {}}}"
        ),
        seed,
        cmp.revocations,
        cmp.capped_bidders,
        cmp.budget_rejections,
        metrics_json(&cmp.pdftsp),
        metrics_json(&cmp.baseline),
    )
}

/// Revocation determinism sweep: the spot-transformed scenario with its
/// lease-derived fault plan through the sharded service at {1, 2, 4}
/// workers — everything must be bit-identical.
fn determinism_json(smoke: bool, spec: &SpotSpec) -> String {
    let base = scenario(smoke, SEEDS[0]);
    let sc = spec.apply(&base);
    let leases = spec.lease_plan(sc.nodes.len(), sc.horizon);
    let plan = lease_fault_plan(&leases, sc.horizon);
    assert!(
        !plan.events.is_empty(),
        "determinism sweep needs live revocations"
    );
    let shards = configured_threads().min(sc.nodes.len()).max(2);
    let scheduler = PdftspConfig::default().with_preheat(PreheatSpec {
        lookahead: spec.lookahead,
        gain: spec.gain,
    });
    let cfg = ServiceConfig {
        shards,
        epoch_slots: 4,
        scheduler,
        ..ServiceConfig::default()
    };
    let mut baseline: Option<RunDigest> = None;
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        set_thread_override(Some(threads));
        let out = AuctionService::run(&sc, cfg, &plan).expect("service run");
        set_thread_override(None);
        let digest = out.digest();
        match baseline {
            None => baseline = Some(digest),
            Some(expected) => assert_eq!(
                expected, digest,
                "spot service diverged at {threads} workers \
                 (welfare / payment / refund bits, ledger digest or decisions)"
            ),
        }
        println!(
            "determinism {threads} workers: welfare {:.2}, refunds {:.2}, ledger digest {:016x} — identical",
            out.welfare.social_welfare, out.welfare.refunds, out.ledger_digest,
        );
        rows.push(format!(
            "    {{\"workers\": {threads}, \"effective_workers\": {}, {digest}}}",
            out.effective_workers
        ));
    }
    rows.join(",\n")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = spot_spec(smoke);
    let sc0 = scenario(smoke, SEEDS[0]);
    println!(
        "spot bench: {} tasks / {} nodes / {} slots per instance, {} seeds, {} lease attempts (len {}), budget fraction {}{}",
        sc0.tasks.len(),
        sc0.nodes.len(),
        sc0.horizon,
        SEEDS.len(),
        spec.leases,
        spec.lease_len,
        spec.budget_frac,
        if smoke { " (smoke)" } else { "" }
    );

    let comparison_rows: Vec<String> = SEEDS
        .iter()
        .map(|&seed| comparison_json(smoke, seed, &spec))
        .collect();
    let determinism = determinism_json(smoke, &spec);

    let body = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"spot_market\",\n",
            "  \"emitter\": \"bench_spot\",\n",
            "  \"smoke\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"configured_threads\": {},\n",
            "  \"scenario\": {{\"horizon\": {}, \"nodes\": {}, \"tasks\": {}, \"seeds\": [{}, {}, {}]}},\n",
            "  \"spot_spec\": {{\"jump_prob\": {:.2}, \"jump_mag\": {:.2}, \"revert\": {:.2}, ",
            "\"diurnal\": {:.2}, \"leases\": {}, \"lease_len\": {}, \"budget_frac\": {:.2}, ",
            "\"lookahead\": {}, \"gain\": {:.2}, \"seed\": {}}},\n",
            "  \"comparison\": [\n",
            "{}\n",
            "  ],\n",
            "  \"determinism\": [\n",
            "{}\n",
            "  ]\n",
            "}}\n"
        ),
        smoke,
        hardware_threads(),
        configured_threads(),
        sc0.horizon,
        sc0.nodes.len(),
        sc0.tasks.len(),
        SEEDS[0],
        SEEDS[1],
        SEEDS[2],
        spec.jump_prob,
        spec.jump_mag,
        spec.revert,
        spec.diurnal,
        spec.leases,
        spec.lease_len,
        spec.budget_frac,
        spec.lookahead,
        spec.gain,
        spec.seed,
        comparison_rows.join(",\n"),
        determinism,
    );
    if smoke {
        println!(
            "smoke ok: comparison deterministic, revocation determinism held across 1/2/4 workers; artifact not rewritten"
        );
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spot.json");
    std::fs::write(path, &body).expect("write BENCH_spot.json");
    println!("wrote {path}");
}
