//! # pdftsp-sim
//!
//! The experiment harness: runs any [`pdftsp_types::OnlineScheduler`] over
//! a scenario, verifies the outcome against the execution engine, accounts
//! social welfare, and packages results into the figure tables the paper's
//! evaluation reports.
//!
//! * [`driver`] — the slot-by-slot simulation loop plus the algorithm
//!   registry ([`driver::Algo`]) and the instrumented pdFTSP run path
//!   ([`driver::run_pdftsp_instrumented`]);
//! * [`artifacts`] — exports of the final dual-price grids `λ_{k,t}` /
//!   `φ_{k,t}` as CSV/JSON run artifacts;
//! * [`welfare`] — welfare/revenue/utility accounting (Eqs. 1–3) computed
//!   from the ground-truth replay, never from scheduler self-reports;
//! * [`competitive`] — empirical competitive-ratio measurement against
//!   the offline optimum from `pdftsp-solver`, plus the parallel
//!   multi-instance sweep driver behind Fig. 12/13 ([`ratio_sweep`]);
//! * [`faults`] — seeded node-failure injection ([`faults::FaultPlan`],
//!   checked by [`faults::FaultPlan::validate`]) and the one per-slot
//!   pdFTSP loop under faults, driven over the whole horizon by
//!   [`faults::run_pdftsp_with_faults`] and one epoch at a time by each
//!   service shard: ledger release, quarantine, remnant resubmission,
//!   and Eq. (14) consumed-resource refunds;
//! * [`service`] — the sharded auction service: per-shard dual grids
//!   and ledger slices, epoch-batched admission with deterministic
//!   routing, and an epoch-ordered two-phase commit against the global
//!   fixed-point ledger (bit-identical for any worker count);
//! * [`spot`] — spot-market runs: lease revocations mapped onto the
//!   fault path, budget-capped bidders, and the
//!   pdFTSP-vs-deadline-aware comparison (welfare, refund volume,
//!   deadline-miss rate) behind `bench_spot`;
//! * [`zones`] — multi-model data-center zones (one independent market
//!   per pre-trained model, as the paper's Section 2.1 sketches);
//! * [`report`] — figure tables with normalization and text/CSV rendering.

pub mod artifacts;
pub mod competitive;
pub mod driver;
pub mod faults;
pub mod report;
pub mod service;
pub mod spot;
pub mod timeline;
pub mod welfare;
pub mod zones;

pub use artifacts::{dual_grid_csv, dual_grid_json, write_dual_grid};
pub use competitive::{
    empirical_ratio, empirical_ratio_with_telemetry, ratio_sweep, RatioReport, RatioSweep,
};
pub use driver::{
    run_algo, run_pdftsp_instrumented, run_scheduler, try_run_algo, try_run_scheduler, Algo,
    RunError, RunResult,
};
pub use faults::{
    run_pdftsp_with_faults, AbortedTask, FaultEvent, FaultPlan, FaultPlanError, FaultRunResult,
    FaultSpec, FaultWelfare, RunDigest,
};
pub use report::FigureTable;
pub use service::{
    AuctionService, EpochReport, Observability, ServiceConfig, ServiceError, ServiceOutcome,
    ShardStats,
};
pub use spot::{lease_fault_plan, run_spot, spot_sweep, SpotComparison, SpotMetrics, SpotSweep};
pub use timeline::{render_gantt, render_timeline, replay};
pub use welfare::WelfareReport;
pub use zones::{partition_zones, run_zoned, Zone, ZonedOutcome};
