//! # pdftsp-core
//!
//! The paper's primary contribution: **pdFTSP**, the online primal-dual
//! joint scheduling and pricing mechanism for multi-LoRA fine-tuning tasks
//! (Zheng et al., ICPP 2024, Section 3).
//!
//! * [`config`] — algorithm knobs: the `α`/`β` multipliers of the dual
//!   updates (fixed or running-max estimates of Lemma 2's
//!   `max_i b_i/M_i`, `max_i b_i/r_i`), the compute pricing unit, the
//!   capacity policy, and the pricing rule.
//! * [`duals`] — the dual-price state `λ_kt` (compute) and `φ_kt` (memory)
//!   with the multiplicative updates of Eqs. (7)–(8).
//! * [`dp`] — Algorithm 2's `findSchedule`: the dynamic program of
//!   Eqs. (12)–(13) that finds, for a given vendor delay, the cheapest
//!   dual-priced execution plan meeting the work requirement by the
//!   deadline. Two pipelines: the production grid path (scratch reuse,
//!   row caps, early termination) and the straight-line reference kept
//!   as the equivalence oracle.
//! * [`kernel`] — the DP's min-plus row update and the grid's delta-row
//!   fill: one branchless body, run as an AVX2 copy or a baseline copy
//!   picked at runtime.
//! * [`grid`] — the per-arrival shared delta grid: every `(node, slot)`
//!   cost `Δ_kt` computed once per arrival, sliced by every vendor's DP,
//!   plus the column-minima bounds behind admission pruning.
//! * [`scheduler`] — Algorithm 1: per-arrival schedule selection across
//!   vendors, the `F(il)` admission test of Eq. (10), dual updates,
//!   the capacity check, and commitment.
//! * [`pricing`] — the payment rule of Eq. (14).
//! * [`probe`] — side-effect-free auction probes used by the
//!   truthfulness (Fig. 10) and individual-rationality (Fig. 11)
//!   experiments;
//! * [`analysis`] — theory instrumentation: per-run empirical
//!   verification of the Theorem-5 primal/dual inequality chain.

pub mod analysis;
pub mod config;
pub mod dp;
pub mod duals;
pub mod grid;
pub mod kernel;
pub mod pricing;
pub mod probe;
pub mod scheduler;

pub use analysis::{audit_guarantees, GuaranteeAudit};
pub use config::{
    AlphaBeta, CapacityPolicy, DualRule, EvalPipeline, PdftspConfig, PreheatSpec, PricingRule,
};
pub use dp::{
    find_schedule, find_schedule_on_grid, find_schedule_reference, DpBuffers, DpContext, DpResult,
    EvalScratch,
};
pub use duals::DualState;
pub use grid::DeltaGrid;
pub use pricing::payment;
pub use probe::{probe_bid, BidProbe};
pub use scheduler::{AuctionRecord, Pdftsp};
