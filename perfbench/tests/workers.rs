//! A service run decides the same at one worker and at two: the
//! decision fingerprint, welfare bits and ledger digest agree. Kept in
//! its own test binary because the worker override is process-wide.

use pdftsp_cluster::set_thread_override;
use pdftsp_core::{PdftspConfig, PreheatSpec};
use pdftsp_perfbench::trace::Tracer;
use pdftsp_perfbench::workloads::{build_service, drive_service, lease_plan, spot_spec, Inputs};
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder, SpotSpec};

#[test]
fn fingerprint_is_identical_at_one_and_two_workers() {
    // A small spot day, so revocations, recoveries and refunds are part
    // of what must replay identically.
    let mut tracer = Tracer::new(false);
    let base = ScenarioBuilder {
        horizon: 96,
        num_nodes: 12,
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: 20.0,
        },
        seed: 3,
        ..ScenarioBuilder::default()
    }
    .build();
    let spec = SpotSpec {
        leases: 16,
        ..spot_spec(3)
    };
    let scenario = spec.apply(&base);
    let plan = lease_plan(&scenario, &spec, &mut tracer);
    let small = Inputs {
        scenario,
        plan,
        scheduler: PdftspConfig {
            preheat: Some(PreheatSpec {
                lookahead: spec.lookahead,
                gain: spec.gain,
            }),
            ..PdftspConfig::default()
        },
    };
    let runs: Vec<_> = [1, 2]
        .into_iter()
        .map(|workers| {
            set_thread_override(Some(workers));
            let built = build_service(&small, &small.plan, None, &mut tracer).expect("service");
            let pass = drive_service(built, &small, &small.plan, &mut tracer);
            set_thread_override(None);
            assert!(pass.verdict.clean(), "{:?}", pass.verdict.violations);
            let out = pass.outcome.as_ref().expect("outcome");
            (
                pass.fingerprint(),
                out.welfare.social_welfare.to_bits(),
                out.ledger_digest,
                out.disrupted,
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert!(runs[0].3 > 0, "the plan should disrupt some tasks");
}
