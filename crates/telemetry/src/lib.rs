//! # pdftsp-telemetry
//!
//! The observability layer of the pdftsp workspace: a typed event stream,
//! lock-free hot-path counters, and aggregated run reports. The paper's
//! evaluation (§4) reasons entirely from quantities the scheduler would
//! otherwise throw away — dual-price trajectories `λ_kt`/`φ_kt`,
//! per-arrival admission surplus `F(il)`, vendor-pruning effectiveness,
//! DP work — so this crate makes every run explainable without slowing
//! the hot path down.
//!
//! * [`event`] — the typed [`Event`] taxonomy with JSONL round-tripping
//!   ([`Event::to_json`] / [`Event::from_json`]);
//! * [`sink`] — the [`Sink`] trait and its three implementations:
//!   [`NoopSink`] (zero-cost disabled), [`RingSink`] (bounded in-memory
//!   buffer for tests and live inspection), [`JsonlSink`] (streaming
//!   JSON-lines file writer);
//! * [`counters`] — [`Counters`], a block of relaxed atomics plus a
//!   fixed-bucket [`LatencyHistogram`], always on (an uncontended relaxed
//!   `fetch_add` costs ~1 ns);
//! * [`report`] — [`RunReport`], the single aggregate summary of one run
//!   (decision counts, prune/DP-work statistics, decide-latency
//!   percentiles, cluster utilization);
//! * [`span`] — causal task-lifecycle [`Span`]s (`route → propose →
//!   commit → settle`, plus `fault_recover`) with parent links and
//!   sim-clock timestamps, carried as [`Event::Span`] through any sink;
//! * [`flight`] — the per-shard lock-free [`FlightRecorder`] ring that
//!   dumps the last N events as JSONL on crash/quarantine/panic;
//! * [`prometheus`] / [`chrome`] — text exposition of counters and
//!   histograms, and `trace_event` JSON export of spans.
//!
//! ## Zero cost when disabled
//!
//! Event construction is deferred behind [`Telemetry::emit`], which takes
//! a closure and tests one cached `bool` before calling it. With the
//! no-op sink the per-emission cost is a predictable branch — the
//! overhead-guard test (`tests/tests/telemetry_overhead.rs`) asserts the
//! whole emission budget of one `decide()` stays under 2% of its p50
//! latency. Counters are *not* gated: they feed [`RunReport`] and the
//! bench emitters on every run, and relaxed increments on an uncontended
//! cache line are cheaper than the branch that would skip them.
//!
//! This crate depends only on `std`, so every workspace crate (including
//! `pdftsp-cluster` below `pdftsp-core`) can use it.

pub mod chrome;
pub mod counters;
pub mod event;
pub mod flight;
pub mod prometheus;
pub mod report;
pub mod sink;
pub mod span;

pub use counters::{Counters, LatencyHistogram};
pub use event::{Event, EventParseError, Reason};
pub use flight::FlightRecorder;
pub use report::{LatencySummary, RunReport, UtilizationSummary};
pub use sink::{parse_jsonl, JsonlSink, NoopSink, RingSink, Sink, SpanLog, TeeSink};
pub use span::{Span, SpanContext, Stage, SIM_TICKS_PER_SLOT};

use std::sync::Arc;

/// One scheduler's telemetry handle: the event sink plus the always-on
/// counters. Shared by reference into the evaluation hot path (all
/// interior state is atomic or behind the sink's own synchronization, so
/// `&Telemetry` is enough even from parallel workers).
pub struct Telemetry {
    sink: Arc<dyn Sink>,
    /// Cached `sink.enabled()` so the hot-path test is one branch on a
    /// local field, not a virtual call.
    enabled: bool,
    /// Hot-path counters (always on).
    pub counters: Counters,
    /// Span attribution (shard/epoch) and the deterministic within-slot
    /// propose sequencer. Plain relaxed atomics; only consulted when the
    /// sink is enabled, so the disabled fast path is untouched.
    pub spans: SpanContext,
}

impl Telemetry {
    /// Telemetry with events routed to `sink`.
    #[must_use]
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        let enabled = sink.enabled();
        Telemetry {
            sink,
            enabled,
            counters: Counters::default(),
            spans: SpanContext::default(),
        }
    }

    /// Telemetry with the no-op sink: counters only, no events.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry::new(Arc::new(NoopSink))
    }

    /// Whether events are being recorded at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits the event produced by `make` — which is only *called* when
    /// the sink is enabled, so disabled telemetry never pays for event
    /// construction.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if self.enabled {
            self.sink.emit(&make());
        }
    }

    /// The sink events are routed to.
    #[must_use]
    pub fn sink(&self) -> &dyn Sink {
        self.sink.as_ref()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_never_constructs_events() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut built = false;
        tel.emit(|| {
            built = true;
            Event::ArrivalSeen {
                task: 0,
                slot: 0,
                bid: 1.0,
                vendors: 0,
            }
        });
        assert!(!built, "closure must not run under the no-op sink");
    }

    #[test]
    fn ring_telemetry_records_events() {
        let ring = Arc::new(RingSink::new(8));
        let tel = Telemetry::new(ring.clone());
        assert!(tel.is_enabled());
        tel.emit(|| Event::Rejected {
            task: 3,
            reason: Reason::NonPositiveSurplus,
        });
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            Event::Rejected {
                task: 3,
                reason: Reason::NonPositiveSurplus
            }
        );
    }
}
