//! Chaos suite: seeded fault plans driven through the recovery path, with
//! the outcome held against ground truth — the replay oracle, a fresh
//! capacity ledger, the outage windows themselves, and the refund-adjusted
//! welfare identity. Plus the seeded ledger round-trip property test
//! (commit → release restores every residual bit-for-bit, including the
//! shared base-replica bookkeeping on emptied nodes).

use pdftsp_cluster::CapacityLedger;
use pdftsp_core::PdftspConfig;
use pdftsp_sim::{
    replay, run_pdftsp_with_faults, AuctionService, FaultEvent, FaultPlan, FaultRunResult,
    FaultSpec, Observability, ServiceConfig,
};
use pdftsp_telemetry::{parse_jsonl, Event, Telemetry};
use pdftsp_types::{Scenario, Schedule, Slot};
use pdftsp_workload::ScenarioBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three (workload seed, fault spec) pairs the suite replays.
fn chaos_cases() -> Vec<(u64, FaultSpec)> {
    vec![
        (
            11,
            FaultSpec {
                crashes: 2,
                outage: 4,
                degrade: 0.0,
                seed: 7,
            },
        ),
        (
            23,
            FaultSpec {
                crashes: 4,
                outage: 6,
                degrade: 0.25,
                seed: 21,
            },
        ),
        (
            57,
            FaultSpec {
                crashes: 3,
                outage: 48,
                degrade: 0.0,
                seed: 99,
            },
        ),
    ]
}

fn run_case(workload_seed: u64, spec: &FaultSpec) -> (Scenario, FaultPlan, FaultRunResult) {
    let scenario = ScenarioBuilder::smoke(workload_seed).build();
    let plan = FaultPlan::generate(&scenario, spec);
    let (result, _) = run_pdftsp_with_faults(
        &scenario,
        PdftspConfig::default(),
        &plan,
        Telemetry::disabled(),
    )
    .expect("generated plans are valid");
    (scenario, plan, result)
}

/// Outage windows `[down, up)` per node (`up` = horizon when the node
/// never recovers).
fn outage_windows(scenario: &Scenario, plan: &FaultPlan) -> Vec<(usize, Slot, Slot)> {
    let mut windows = Vec::new();
    for e in &plan.events {
        if let FaultEvent::NodeDown { node, slot } = *e {
            let up = plan
                .events
                .iter()
                .find_map(|x| match *x {
                    FaultEvent::NodeUp { node: n, slot: s } if n == node && s > slot => Some(s),
                    _ => None,
                })
                .unwrap_or(scenario.horizon);
            windows.push((node, slot, up));
        }
    }
    windows
}

#[test]
fn chaos_plans_replay_with_zero_capacity_violations() {
    let mut total_disrupted = 0;
    for (wseed, spec) in chaos_cases() {
        let (scenario, plan, r) = run_case(wseed, &spec);
        total_disrupted += r.disrupted;

        // The replay oracle accepts every recovered decision: schedules
        // valid, capacity constraints (4f)/(4g) respected, work complete.
        replay(&scenario, &r.decisions)
            .unwrap_or_else(|e| panic!("seed {wseed}/{}: replay refused: {e}", spec.seed));

        // Committed consumption — completed schedules plus the executed
        // prefixes of aborted tasks — fits a fresh ledger with no
        // violation either (the oracle never sees aborted prefixes).
        let mut ledger = CapacityLedger::new(&scenario);
        for d in &r.decisions {
            if let Some(s) = d.schedule() {
                ledger
                    .commit(&scenario.tasks[d.task], s)
                    .unwrap_or_else(|e| panic!("seed {wseed}: completed overflows: {e}"));
            }
        }
        for a in &r.aborted {
            ledger
                .commit(&scenario.tasks[a.task], &a.prefix)
                .unwrap_or_else(|e| panic!("seed {wseed}: aborted prefix overflows: {e}"));
        }

        // Nothing ever runs on a node inside one of its outage windows.
        let windows = outage_windows(&scenario, &plan);
        let committed: Vec<&Schedule> = r
            .decisions
            .iter()
            .filter_map(|d| d.schedule())
            .chain(r.aborted.iter().map(|a| &a.prefix))
            .collect();
        for s in committed {
            for &(k, t) in &s.placements {
                for &(node, down, up) in &windows {
                    assert!(
                        k != node || t < down || t >= up,
                        "seed {wseed}: task {} occupies node {node} at slot {t} \
                         inside outage [{down}, {up})",
                        s.task
                    );
                }
            }
        }

        // Book-keeping closes: every task accounted for, welfare identity
        // exact, settlements non-negative.
        let w = &r.welfare;
        assert_eq!(w.completed + w.aborted + w.rejected, scenario.tasks.len());
        assert_eq!(w.aborted, r.aborted.len());
        assert!(
            (w.social_welfare - (w.user_utility + w.provider_utility)).abs() < 1e-9,
            "seed {wseed}: welfare unbalanced: {w:?}"
        );
        assert!(w.refunds >= 0.0 && w.payments >= w.refunds, "{w:?}");
        for a in &r.aborted {
            assert!(a.refund >= 0.0, "negative refund for task {}", a.task);
            assert!(a.consumed >= 0.0, "negative charge for task {}", a.task);
        }
    }
    // The suite must actually exercise recovery, not vacuously pass.
    assert!(total_disrupted > 0, "no chaos case disrupted anything");
}

#[test]
fn fault_welfare_reproduces_bit_for_bit() {
    for (wseed, spec) in chaos_cases() {
        let (_, plan_a, a) = run_case(wseed, &spec);
        let (_, plan_b, b) = run_case(wseed, &spec);
        assert_eq!(plan_a, plan_b, "plan generation must be deterministic");
        let wa = &a.welfare;
        let wb = &b.welfare;
        for (x, y, name) in [
            (wa.social_welfare, wb.social_welfare, "social_welfare"),
            (wa.payments, wb.payments, "payments"),
            (wa.refunds, wb.refunds, "refunds"),
            (wa.vendor_cost, wb.vendor_cost, "vendor_cost"),
            (wa.energy_cost, wb.energy_cost, "energy_cost"),
            (wa.provider_utility, wb.provider_utility, "provider_utility"),
            (wa.user_utility, wb.user_utility, "user_utility"),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "seed {wseed}: {name} differs across identical runs"
            );
        }
        assert_eq!(a.disrupted, b.disrupted);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.decisions.len(), b.decisions.len());
        for (da, db) in a.decisions.iter().zip(&b.decisions) {
            assert_eq!(da.is_admitted(), db.is_admitted());
            assert_eq!(da.payment().to_bits(), db.payment().to_bits());
        }
    }
}

#[test]
fn ledger_commit_release_round_trip_is_exact_under_random_load() {
    // Seeded property test (satellite of the recovery work): a random
    // batch of commits, released again in a shuffled order, must restore
    // every residual cell bit-for-bit — and the ledger must report the
    // base-replica slot (`r_b`) reclaimable exactly when a node's last
    // tenant leaves.
    let scenario = ScenarioBuilder::smoke(123).build();
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..8 {
        let mut ledger = CapacityLedger::new(&scenario);
        let snapshot: Vec<(u64, u64)> = residuals(&scenario, &ledger);

        // Commit random feasible schedules for random tasks.
        let mut committed: Vec<(usize, Schedule)> = Vec::new();
        let mut node_tenants = vec![0usize; scenario.nodes.len()];
        for _ in 0..40 {
            let id = rng.gen_range(0..scenario.tasks.len());
            let task = &scenario.tasks[id];
            let k = rng.gen_range(0..scenario.nodes.len());
            let start = rng.gen_range(0..scenario.horizon);
            let len = rng.gen_range(1..=4.min(scenario.horizon - start));
            let placements: Vec<_> = (start..start + len).map(|t| (k, t)).collect();
            if !ledger.fits_all(task, &placements) {
                continue;
            }
            let schedule = Schedule::new(id, pdftsp_types::VendorQuote::none(), placements);
            ledger.commit(task, &schedule).expect("fits_all said yes");
            node_tenants[k] += schedule.placements.len();
            committed.push((id, schedule));
        }
        assert!(!committed.is_empty(), "round {round}: nothing committed");

        // Release in a seeded shuffle of the commit order.
        let mut order: Vec<usize> = (0..committed.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &i in &order {
            let (id, schedule) = &committed[i];
            let task = &scenario.tasks[*id];
            let freed = ledger.release(task, schedule).expect("committed earlier");
            assert_eq!(freed.cells, schedule.placements.len());
            let k = schedule.placements[0].0;
            node_tenants[k] -= schedule.placements.len();
            // r_b accounting: the release that empties a node — and only
            // that one — reports it reclaimable.
            assert_eq!(
                freed.nodes_emptied.contains(&k),
                node_tenants[k] == 0,
                "round {round}: node {k} emptiness misreported"
            );
        }

        // Every residual cell is restored exactly, not approximately.
        assert_eq!(
            residuals(&scenario, &ledger),
            snapshot,
            "round {round}: commit→release round trip drifted"
        );
        for k in 0..scenario.nodes.len() {
            assert!(ledger.is_node_empty(k));
        }
    }
}

/// Flight recorder end-to-end: a faulted service run with an armed
/// recorder must dump `flightrec-shard<k>.jsonl` files when injected
/// crashes hit, and the dumped stream must parse back bit-exactly (the
/// JSONL round-trip contract) and actually contain the crash events.
#[test]
fn flight_recorder_dumps_on_injected_crash_and_replays() {
    let scenario = ScenarioBuilder::smoke(23).build();
    let spec = FaultSpec {
        crashes: 3,
        outage: 4,
        degrade: 0.25,
        seed: 21,
    };
    let plan = FaultPlan::generate(&scenario, &spec);
    let dir = std::env::temp_dir().join(format!("pdftsp-flightrec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        shards: 3,
        epoch_slots: 5,
        ..ServiceConfig::default()
    };
    let obs = Observability {
        spans: true,
        flight_capacity: 1024,
        flight_dir: Some(dir.clone()),
    };
    let out = AuctionService::with_observability(&scenario, cfg, &plan, obs)
        .and_then(AuctionService::finish)
        .expect("faulted service run");
    assert!(out.disrupted > 0, "plan must actually disrupt tasks");

    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec-shard") && n.ends_with(".jsonl"))
        })
        .collect();
    dumps.sort();
    assert!(!dumps.is_empty(), "crash produced no flight-recorder dump");

    let mut saw_node_down = false;
    for path in &dumps {
        let text = std::fs::read_to_string(path).expect("read dump");
        let events = parse_jsonl(&text).expect("dump parses as event JSONL");
        assert!(!events.is_empty(), "{} is empty", path.display());
        // Bit-exact round trip: re-serializing reproduces the file.
        let mut rendered = String::new();
        for ev in &events {
            rendered.push_str(&ev.to_json());
            rendered.push('\n');
        }
        assert_eq!(&rendered, &text, "{} round-trip drifted", path.display());
        saw_node_down |= events.iter().any(|e| matches!(e, Event::NodeDown { .. }));
    }
    assert!(saw_node_down, "no dump recorded the injected crash");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Bit-exact residual grid: `(compute, memory-in-units)` per cell; memory
/// is compared through its f64 bits to catch even sub-epsilon drift.
fn residuals(scenario: &Scenario, ledger: &CapacityLedger) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for k in 0..scenario.nodes.len() {
        for t in 0..scenario.horizon {
            out.push((
                ledger.residual_compute(k, t),
                ledger.residual_memory(k, t).to_bits(),
            ));
        }
    }
    out
}
