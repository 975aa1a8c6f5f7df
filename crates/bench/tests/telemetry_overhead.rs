//! Acceptance guard: the disabled ("no-op") telemetry pipeline must cost
//! under 2% of the multi-vendor decide path, so attaching the
//! observability layer does not give back the hot-path speedup.
//!
//! A direct A/B wall-clock comparison of two full runs would be flaky at
//! the 2% scale (allocator state, frequency scaling). Instead the guard
//! is computed from stable quantities:
//!
//! 1. the per-site cost of the disabled primitives — an `emit` (cached
//!    bool branch; the event closure is never built) and a relaxed atomic
//!    bump — timed over a tight loop of millions of iterations;
//! 2. the number of instrumentation sites a decision actually hits,
//!    counted by the always-on counters over a real multi-vendor day
//!    (the `BENCH_sched.json` scenario);
//! 3. the measured mean decide latency of that same day.
//!
//! overhead = sites-per-decide × per-site-cost / mean-decide < 2%.

use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_sim::run_scheduler;
use pdftsp_telemetry::{Counters, Event, Span, Telemetry};
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Allocation-counting global allocator backing the zero-allocation
// proof below. The counter is a const-initialized thread-local `Cell`
// (no lazy init, so counting never allocates or recurses) and
// per-thread, so the parallel test harness cannot cross-contaminate it.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter bump has no
// allocator interaction.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The vendor-rich market of `BENCH_sched.json`.
fn multi_vendor_scenario() -> Scenario {
    ScenarioBuilder {
        horizon: 36,
        num_nodes: 20,
        arrivals: ArrivalProcess::Poisson { mean_per_slot: 6.0 },
        num_vendors: 8,
        preprocessing_prob: 1.0,
        seed: 4242,
        ..ScenarioBuilder::default()
    }
    .build()
}

#[test]
fn noop_telemetry_costs_under_two_percent_of_decide() {
    // (1) Per-site cost. Each loop iteration exercises two sites: one
    // disabled emit and one counter bump.
    let tel = Telemetry::disabled();
    let counters = Counters::default();
    const ITERS: usize = 2_000_000;
    let t0 = std::time::Instant::now();
    for i in 0..ITERS {
        tel.emit(|| Event::ArrivalSeen {
            task: i,
            slot: i % 36,
            bid: 1.5,
            vendors: 8,
        });
        counters.bump(&counters.dp_cells, 1);
    }
    let loop_seconds = t0.elapsed().as_secs_f64();
    // The optimizer must not have discarded the loop.
    assert_eq!(counters.read(&counters.dp_cells), ITERS as u64);
    let per_site = loop_seconds / (2 * ITERS) as f64;

    // (2) Sites hit per decision, from the real day. Every decide touches
    // seven fixed sites (decisions bump, ArrivalSeen emit, vendors_seen
    // bump, outcome bump, outcome emit, latency record, and the
    // propose-span gate — an `is_enabled()` branch when disabled); each
    // prune is a bump plus an emit; each DP run four bumps plus an emit;
    // each grid build two bumps; each admission one dual-update bump plus
    // one emit per placement.
    let sc = multi_vendor_scenario();
    let mut scheduler = Pdftsp::new(&sc, PdftspConfig::default());
    let run = run_scheduler(&sc, &mut scheduler);
    let c = &scheduler.telemetry().counters;
    let decisions = c.read(&c.decisions);
    assert!(decisions > 0, "scenario produced no decisions");
    let sites = 7 * decisions
        + 2 * c.read(&c.vendors_pruned)
        + c.read(&c.vendors_memoized)
        + 5 * c.read(&c.dp_runs)
        + 2 * c.read(&c.grid_builds)
        + c.read(&c.admitted)
        + c.read(&c.dual_updates);
    let sites_per_decide = sites as f64 / decisions as f64;

    // (3) Measured decide latency of the same day.
    let mean_decide =
        run.decisions.iter().map(|d| d.decide_seconds).sum::<f64>() / decisions as f64;
    assert!(mean_decide > 0.0);

    let overhead = sites_per_decide * per_site / mean_decide;
    assert!(
        overhead < 0.02,
        "no-op telemetry overhead {:.3}% >= 2% \
         (sites/decide {sites_per_decide:.1}, per-site {:.2} ns, mean decide {:.2} us)",
        overhead * 100.0,
        per_site * 1e9,
        mean_decide * 1e6,
    );
}

/// With telemetry disabled the span emit site must not allocate at all:
/// the gate is a cached-bool branch and the `Event::Span` closure is
/// never built. Measured, not argued — the counting global allocator
/// above sees every heap allocation on this thread.
#[test]
fn disabled_span_path_never_allocates() {
    let tel = Telemetry::disabled();
    assert!(!tel.is_enabled());
    let mut live = 0u64;
    // Warm-up pass so any one-time lazy state is paid before counting.
    for i in 0..8usize {
        if tel.is_enabled() && !tel.spans.suppressed() {
            tel.emit(|| Event::Span(Span::propose(i, 0, 0, tel.spans.next_propose_ts(0))));
        }
        live = live.wrapping_add(i as u64);
    }
    let start = ALLOCS.with(Cell::get);
    for i in 0..100_000usize {
        // The exact shape of the hot-path site in `finish_decide`.
        if tel.is_enabled() && !tel.spans.suppressed() {
            tel.emit(|| Event::Span(Span::propose(i, 0, 0, tel.spans.next_propose_ts(0))));
        }
        live = live.wrapping_add(i as u64);
    }
    let allocations = ALLOCS.with(Cell::get) - start;
    assert!(live > 0, "loop must not be optimized away");
    assert_eq!(
        allocations, 0,
        "disabled span path allocated {allocations} times over 100k sites"
    );
}

/// Counts the feasible `DpRun`s of a run. Matching on a borrowed event
/// allocates nothing, so the counting allocator sees only the scheduler.
#[derive(Default)]
struct FeasibleDpRuns(std::sync::atomic::AtomicU64);

impl pdftsp_telemetry::Sink for FeasibleDpRuns {
    fn emit(&self, event: &Event) {
        if let Event::DpRun { feasible: true, .. } = event {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Once the scheduler's scratch is warm, evaluating a multi-vendor task
/// allocates only the placements of the DP runs that found a schedule:
/// the vendor list, the visiting order, the start-slot memo and the
/// memoized results live in `EvalScratch`, and a memo hit reuses a result
/// by index instead of cloning it. A first pass over the day sizes the
/// scratch; the second pass decides the same tasks again and counts the
/// decisions rejected before any dual update, which keep nothing,
/// skipping the ones whose auction-log push grows the record vector. The slack covers the few
/// capacity doublings a DP larger than any in the first pass may still
/// need.
#[test]
fn warm_multi_vendor_decide_allocates_only_dp_outputs() {
    const GROWTH_SLACK: u64 = 8;
    let sc = multi_vendor_scenario();
    let feasible = std::sync::Arc::new(FeasibleDpRuns::default());
    let mut s = Pdftsp::with_telemetry(
        &sc,
        PdftspConfig::default(),
        Telemetry::new(feasible.clone()),
    );
    for task in &sc.tasks {
        s.decide(task, &sc);
    }
    let (mut checked, mut allocations, mut outputs) = (0usize, 0u64, 0u64);
    for task in &sc.tasks {
        let grows_log = s.records().len().is_power_of_two();
        let runs_before = feasible.0.load(std::sync::atomic::Ordering::Relaxed);
        let before = ALLOCS.with(Cell::get);
        let decision = s.decide(task, &sc);
        let allocated = ALLOCS.with(Cell::get) - before;
        // Admissions keep their schedule, and a capacity rejection runs
        // the (event-logged) dual update first: count only the rest.
        let priced = s.records().last().is_some_and(|r| r.capacity_rejected);
        if decision.is_admitted() || priced || grows_log {
            continue;
        }
        checked += 1;
        allocations += allocated;
        outputs += feasible.0.load(std::sync::atomic::Ordering::Relaxed) - runs_before;
    }
    assert!(
        checked > 50 && outputs > 50,
        "too few warm rejections with DP work: {checked} decisions, {outputs} DP outputs"
    );
    assert!(
        allocations <= outputs + GROWTH_SLACK,
        "{allocations} allocations over {checked} rejected decisions for {outputs} feasible DP runs"
    );
}
