//! Golden determinism digests: small clean, faulted, spot, 1-shard and
//! 2-shard service days plus two single-process faulted runs, each
//! reduced to its [`RunDigest`] and compared against the committed
//! `tests/golden/digests.json`.
//!
//! A change that is meant to be decision-neutral (a refactor, a
//! performance change) must leave every line of that file as it is. A
//! change that moves a decision on purpose updates the file and says
//! which digests moved and why. On a mismatch the test prints the whole
//! freshly computed file, so the update is a copy of its output.

use pdftsp_core::{PdftspConfig, PreheatSpec};
use pdftsp_sim::{
    lease_fault_plan, run_pdftsp_with_faults, AuctionService, FaultPlan, FaultSpec, Observability,
    RunDigest, ServiceConfig,
};
use pdftsp_telemetry::{SpanLog, Telemetry};
use pdftsp_types::Scenario;
use pdftsp_workload::{ScenarioBuilder, SpotSpec};
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/digests.json");

/// A 6-node, 36-slot day and a crash/outage/degrade plan over it.
fn faulted_case() -> (Scenario, FaultPlan) {
    let scenario = ScenarioBuilder {
        horizon: 36,
        num_nodes: 6,
        seed: 23,
        ..ScenarioBuilder::smoke(23)
    }
    .build();
    let plan = FaultPlan::generate(
        &scenario,
        &FaultSpec {
            crashes: 3,
            outage: 3,
            degrade: 0.2,
            seed: 7,
        },
    );
    (scenario, plan)
}

/// A spot-priced day with budget caps, a lease-revocation storm mapped
/// onto the fault path, and the prediction pre-heat.
fn spot_case() -> (Scenario, FaultPlan, PdftspConfig) {
    let spec = SpotSpec {
        leases: 12,
        lease_len: 4,
        seed: 33,
        ..SpotSpec::default()
    };
    let scenario = spec.apply(&ScenarioBuilder::smoke(23).build());
    let leases = spec.lease_plan(scenario.nodes.len(), scenario.horizon);
    let plan = lease_fault_plan(&leases, scenario.horizon);
    let scheduler = PdftspConfig::default().with_preheat(PreheatSpec {
        lookahead: spec.lookahead,
        gain: spec.gain,
    });
    (scenario, plan, scheduler)
}

fn service(
    scenario: &Scenario,
    plan: &FaultPlan,
    shards: usize,
    scheduler: PdftspConfig,
) -> RunDigest {
    let cfg = ServiceConfig {
        shards,
        epoch_slots: 5,
        scheduler,
        ..ServiceConfig::default()
    };
    AuctionService::with_observability(scenario, cfg, plan, Observability::with_spans())
        .and_then(AuctionService::finish)
        .expect("service run")
        .digest()
}

fn single_process(scenario: &Scenario, plan: &FaultPlan, scheduler: PdftspConfig) -> RunDigest {
    let log = Arc::new(SpanLog::new());
    let (run, pdftsp) =
        run_pdftsp_with_faults(scenario, scheduler, plan, Telemetry::new(log.clone()))
            .expect("valid plan");
    RunDigest::of(
        &run.decisions,
        &run.welfare,
        &run.aborted,
        pdftsp.ledger().state_digest(),
        &log.drain(),
    )
}

/// Every pinned case, in file order.
fn cases() -> Vec<(&'static str, RunDigest)> {
    let (scenario, plan) = faulted_case();
    let (spot, spot_plan, spot_cfg) = spot_case();
    let default = PdftspConfig::default();
    vec![
        (
            "service_clean_2_shards",
            service(&scenario, &FaultPlan::none(), 2, default),
        ),
        (
            "service_faulted_1_shard",
            service(&scenario, &plan, 1, default),
        ),
        (
            "service_faulted_2_shards",
            service(&scenario, &plan, 2, default),
        ),
        (
            "service_spot_2_shards",
            service(&spot, &spot_plan, 2, spot_cfg),
        ),
        ("faulted_run", single_process(&scenario, &plan, default)),
        (
            "faulted_run_spot",
            single_process(&spot, &spot_plan, spot_cfg),
        ),
    ]
}

fn render(cases: &[(&str, RunDigest)]) -> String {
    let rows: Vec<String> = cases
        .iter()
        .map(|(name, digest)| format!("  \"{name}\": {{{digest}}}"))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[test]
fn golden_digests_are_unchanged() {
    let fresh = render(&cases());
    let committed = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let moved: Vec<String> = committed
        .lines()
        .zip(fresh.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  committed {a}\n  fresh     {b}"))
        .collect();
    assert!(
        moved.is_empty() && committed.lines().count() == fresh.lines().count(),
        "golden digests moved:\n{}\nfreshly computed {GOLDEN}:\n{fresh}",
        moved.join("\n")
    );
}
