//! Determinism suite for the sharded auction service: the same faulted
//! scenario must produce byte-identical economics and ledger state
//! regardless of worker count, and a service killed mid-run and rebuilt
//! must re-join the exact trajectory of an uninterrupted run.

use pdftsp_cluster::set_thread_override;
use pdftsp_core::{PdftspConfig, PreheatSpec};
use pdftsp_sim::{
    lease_fault_plan, replay, AuctionService, FaultPlan, FaultSpec, Observability, RunDigest,
    ServiceConfig, ServiceOutcome,
};
use pdftsp_telemetry::{chrome, Stage};
use pdftsp_types::Scenario;
use pdftsp_workload::{ScenarioBuilder, SpotSpec};

fn faulted_case(workload_seed: u64) -> (Scenario, FaultPlan) {
    let scenario = ScenarioBuilder::smoke(workload_seed).build();
    let spec = FaultSpec {
        crashes: 3,
        outage: 4,
        degrade: 0.25,
        seed: 21,
    };
    let plan = FaultPlan::generate(&scenario, &spec);
    (scenario, plan)
}

/// A revocation-heavy spot case: spot-priced grid, budget-capped
/// bidders, and a lease storm mapped onto the fault path, plus the
/// prediction pre-heat in the scheduler config.
fn spot_case(workload_seed: u64) -> (Scenario, FaultPlan, PdftspConfig) {
    let base = ScenarioBuilder::smoke(workload_seed).build();
    let spec = SpotSpec {
        leases: 12,
        lease_len: 4,
        seed: 33,
        ..SpotSpec::default()
    };
    let scenario = spec.apply(&base);
    let leases = spec.lease_plan(scenario.nodes.len(), scenario.horizon);
    let plan = lease_fault_plan(&leases, scenario.horizon);
    let scheduler = PdftspConfig::default().with_preheat(PreheatSpec {
        lookahead: spec.lookahead,
        gain: spec.gain,
    });
    (scenario, plan, scheduler)
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        shards: 3,
        epoch_slots: 5,
        ..ServiceConfig::default()
    }
}

/// The headline contract: {1, 2, 4} phase-1 workers all replay the
/// single-thread schedule bit-for-bit, with faults enabled. Worker
/// override is process-global, so the whole sweep lives in one test.
#[test]
fn worker_count_never_changes_the_schedule() {
    for wseed in [11u64, 23, 57] {
        let (scenario, plan) = faulted_case(wseed);
        let mut baseline: Option<RunDigest> = None;
        let mut disrupted = 0;
        for workers in [1usize, 2, 4] {
            set_thread_override(Some(workers));
            let out = AuctionService::run(&scenario, service_cfg(), &plan);
            set_thread_override(None);
            let out = out.unwrap_or_else(|e| panic!("seed {wseed}/{workers} workers: {e}"));
            disrupted = out.disrupted;
            let digest = out.digest();
            match &baseline {
                None => baseline = Some(digest),
                Some(expected) => assert_eq!(
                    expected, &digest,
                    "seed {wseed}: outcome diverged at {workers} workers"
                ),
            }
        }
        // The sweep must actually exercise the fault path, not pass
        // vacuously on a quiet schedule.
        assert!(disrupted > 0, "seed {wseed}: no disruptions exercised");
    }
}

/// The same contract for the spot-market family: revocation-heavy runs
/// (lease storms through the crash path, spot-priced grids, budget caps,
/// pre-heated duals) are byte-identical across {1, 2, 4} workers, and
/// the run must abort someone so the Eq. (14) refund path is inside the
/// digest.
#[test]
fn spot_revocations_replay_identically_across_workers() {
    let mut any_aborted = false;
    for wseed in [11u64, 23, 57] {
        let (scenario, plan, scheduler) = spot_case(wseed);
        assert!(
            !plan.events.is_empty(),
            "seed {wseed}: lease storm drew no revocations"
        );
        let cfg = ServiceConfig {
            scheduler,
            ..service_cfg()
        };
        let mut baseline: Option<RunDigest> = None;
        let mut disrupted = 0;
        for workers in [1usize, 2, 4] {
            set_thread_override(Some(workers));
            let out = AuctionService::run(&scenario, cfg, &plan);
            set_thread_override(None);
            let out = out.unwrap_or_else(|e| panic!("seed {wseed}/{workers} workers: {e}"));
            disrupted = out.disrupted;
            any_aborted |= !out.aborted.is_empty();
            let digest = out.digest();
            match &baseline {
                None => baseline = Some(digest),
                Some(expected) => assert_eq!(
                    expected, &digest,
                    "seed {wseed}: spot outcome diverged at {workers} workers"
                ),
            }
        }
        assert!(
            disrupted > 0,
            "seed {wseed}: no revocation disrupted anyone"
        );
    }
    assert!(
        any_aborted,
        "no spot case aborted — refund path unexercised"
    );
}

/// Kill-and-resume: drive a service halfway, drop it mid-run, rebuild
/// from the same inputs and replay to the same epoch — the rebuilt
/// coordinator's ledger digest must match at the cut, and finishing it
/// must reproduce the uninterrupted outcome exactly.
#[test]
fn kill_and_resume_mid_run_rejoins_the_trajectory() {
    let (scenario, plan) = faulted_case(23);
    let cfg = service_cfg();

    let uninterrupted = AuctionService::run(&scenario, cfg, &plan).expect("run");
    assert!(uninterrupted.epochs >= 2, "need ≥ 2 epochs to cut between");
    let cut = uninterrupted.epochs / 2;

    // First incarnation: killed (dropped) after `cut` epochs.
    let mut first = AuctionService::new(&scenario, cfg, &plan).expect("service");
    for _ in 0..cut {
        first.run_epoch().expect("epoch");
    }
    let digest_at_cut = first.global_digest();
    drop(first);

    // Second incarnation: same inputs, replayed to the cut, then run to
    // completion.
    let mut second = AuctionService::new(&scenario, cfg, &plan).expect("service");
    for _ in 0..cut {
        second.run_epoch().expect("epoch");
    }
    assert_eq!(
        second.global_digest(),
        digest_at_cut,
        "rebuilt service diverged before the cut"
    );
    let resumed = second.finish().expect("finish");

    assert_eq!(
        uninterrupted.digest(),
        resumed.digest(),
        "kill-and-resume outcome differs from the uninterrupted run"
    );

    // And the resumed decision set still passes the execution-engine
    // oracle (the PR 4 replay harness) on its own.
    replay(&scenario, &resumed.decisions).expect("resumed decisions replay cleanly");
}

/// Span determinism and causal coverage: the rendered Chrome trace is
/// byte-identical across 1/2/4 phase-1 workers (span timestamps come
/// from the sim clock, never the wall clock), and every admitted task
/// carries the full `route -> propose -> commit` parent chain.
#[test]
fn span_trace_is_byte_identical_across_workers_and_covers_admissions() {
    let (scenario, plan) = faulted_case(23);
    let mut baseline: Option<(String, ServiceOutcome)> = None;
    for workers in [1usize, 2, 4] {
        set_thread_override(Some(workers));
        let out = AuctionService::with_observability(
            &scenario,
            service_cfg(),
            &plan,
            Observability::with_spans(),
        )
        .and_then(AuctionService::finish);
        set_thread_override(None);
        let out = out.unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert!(!out.spans.is_empty(), "spans enabled but none recorded");
        let trace = chrome::render_trace(&out.spans);
        match &baseline {
            None => baseline = Some((trace, out)),
            Some((expected, _)) => assert_eq!(
                expected, &trace,
                "chrome trace diverged at {workers} workers"
            ),
        }
    }

    // Causal coverage on the single-worker outcome: index the span tree
    // by task and walk the parent links of every admitted task.
    let (_, out) = baseline.expect("at least one run");
    let tasks = scenario.tasks.len();
    let mut route_span = vec![0u64; tasks];
    let mut propose = vec![(0u64, 0u64); tasks]; // (span, parent)
    let mut commit_parent = vec![0u64; tasks];
    for sp in &out.spans {
        if sp.task >= tasks {
            continue; // settle / node-scoped spans
        }
        match sp.stage {
            Stage::Route => {
                assert_eq!(sp.trace, sp.task as u64, "route trace id is the task id");
                route_span[sp.task] = sp.span;
            }
            Stage::Propose => propose[sp.task] = (sp.span, sp.parent),
            Stage::Commit => commit_parent[sp.task] = sp.parent,
            Stage::Settle | Stage::FaultRecover => {}
        }
    }
    let admitted: Vec<usize> = out
        .decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_admitted())
        .map(|(t, _)| t)
        .collect();
    assert!(!admitted.is_empty(), "case admitted no tasks");
    let covered = admitted
        .iter()
        .filter(|&&t| {
            let (p_span, p_parent) = propose[t];
            route_span[t] != 0 && p_parent == route_span[t] && commit_parent[t] == p_span
        })
        .count();
    // Acceptance bound is >= 99%; the implementation should give 100%.
    assert!(
        covered * 100 >= admitted.len() * 99,
        "span tree covers {covered}/{} admitted tasks",
        admitted.len()
    );
    assert_eq!(covered, admitted.len(), "expected full causal coverage");
}
