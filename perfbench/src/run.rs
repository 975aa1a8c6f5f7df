//! One benchmark run: a workload, a seed, a time budget, traced or not.
//!
//! The untraced run (`--trace 0`) repeats whole rounds of the workload
//! while the budget lasts and reports the end-to-end metrics as medians
//! over its rounds, except the open-loop admission p99, which is its best
//! round. The traced run (`--trace 1`) runs the workload's main pass
//! traced between two untraced ones (after an untraced warm-up), probes
//! every layer on the workload's inputs, and reports the per-layer
//! metrics.

use crate::checks::{self, Verdict, Violation};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::workloads::{
    self, build_service, drive_market, drive_service, new_scheduler, Inputs, MarketPass,
    ServicePass, Workload, CORE_PROBE_SLOTS, OPEN_LOOP_RATE,
};
use pdftsp_sim::FaultPlan;
use pdftsp_types::Decision;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("decisions_per_s", "1/s"),
    ("admission_p50_ms", "ms"),
    ("admission_p99_ms", "ms"),
    ("decide_p50_us", "us"),
    ("decide_p99_us", "us"),
    ("social_welfare", "welfare"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workload.build_s", "s"),
    ("workload.spot_apply_s", "s"),
    ("service.new_s", "s"),
    ("service.epoch_ms.p50", "ms"),
    ("service.epoch_ms.p99", "ms"),
    ("service.epochs", "count"),
    ("service.ops", "count"),
    ("service.shard_routed_max_over_min", "ratio"),
    ("service.finish_s", "s"),
    ("service.fault_epoch_ms.p50", "ms"),
    ("service.quiet_epoch_ms.p50", "ms"),
    ("core.grid_build_us", "us"),
    ("core.dp_us", "us"),
    ("core.vendors_seen", "count"),
    ("core.vendors_pruned", "count"),
    ("core.vendors_memoized", "count"),
    ("core.dp_runs", "count"),
    ("core.dp_cells", "count"),
    ("core.grid_builds", "count"),
    ("core.dual_updates", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.admit_ratio", "ratio"),
    ("cluster.ledger_commit_us", "us"),
    ("cluster.pool_dispatch_ns", "ns"),
    ("faults.disrupted", "count"),
    ("faults.recovered", "count"),
    ("faults.aborted", "count"),
    ("faults.refunds", "count"),
    ("sim.replay_s", "s"),
    ("self.workload_s", "s"),
    ("self.sim.spot_s", "s"),
    ("self.sim.service_s", "s"),
    ("self.core_s", "s"),
    ("self.cluster_s", "s"),
    ("self.sim.timeline_s", "s"),
    ("self.bench_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Layers whose self time the traced run reports, with their metric.
const SELF_TIMES: [(&str, &str); 7] = [
    ("workload", "self.workload_s"),
    ("sim.spot", "self.sim.spot_s"),
    ("sim.service", "self.sim.service_s"),
    ("core", "self.core_s"),
    ("cluster", "self.cluster_s"),
    ("sim.timeline", "self.sim.timeline_s"),
    ("bench", "self.bench_s"),
];

/// Parallel-map dispatches the traced run times.
const POOL_CALLS: usize = 2000;

/// What a run measured and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Decisions the run made and checked.
    pub attempted: u64,
    /// Decisions that failed a check, plus one per violation of the
    /// whole run (see [`Verdict::failed`]).
    pub failed: u64,
    /// Every violation found.
    pub violations: Vec<Violation>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
    /// The traced run's spans as a Chrome trace.
    pub trace_json: Option<String>,
}

impl Report {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    fn tally(&mut self, attempted: usize, verdict: &Verdict) {
        self.attempted += attempted as u64;
        self.failed += verdict.failed() as u64;
        self.violations.extend(verdict.violations.iter().cloned());
    }

    /// Records a violation of the whole run.
    fn fail(&mut self, violation: Violation) {
        self.failed += 1;
        self.violations.push(violation);
    }

    fn error(&mut self, message: String) {
        self.fail(Violation::ProgramError { message });
    }

    /// Records `values` under the names of `table`, in table order.
    fn set(&mut self, table: &[(&'static str, &'static str)], values: &[(&str, f64)]) {
        for &(name, unit) in table {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |&(_, v)| v);
            self.metrics.push(Metric { name, value, unit });
        }
    }
}

/// Runs `args`; `process_start` is the instant `main` began.
#[must_use]
pub fn run(args: &Args, process_start: Instant) -> Report {
    if args.trace {
        traced(args)
    } else {
        untraced(args, process_start)
    }
}

/// Starts whole rounds while the budget lasts: always one, then another
/// only if the mean round so far still fits in what is left.
struct Rounds {
    start: Instant,
    budget: f64,
    done: u32,
}

impl Rounds {
    fn new(budget: f64) -> Rounds {
        Rounds {
            start: Instant::now(),
            budget,
            done: 0,
        }
    }

    fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let go = self.done == 0 || elapsed + elapsed / f64::from(self.done) <= self.budget;
        if go {
            self.done += 1;
        }
        go
    }
}

/// Per-round samples of the end-to-end metrics.
#[derive(Default)]
struct Samples {
    decisions_per_s: Vec<f64>,
    admission_p50_ms: Vec<f64>,
    admission_p99_ms: Vec<f64>,
    decide_p50_us: Vec<f64>,
    decide_p99_us: Vec<f64>,
    /// `(welfare, fingerprint)` of every pass; all must agree.
    outcomes: Vec<(f64, u64)>,
}

impl Samples {
    /// One pass's admission latencies: their p50 and p99, each over all
    /// of the pass's samples.
    fn admission(&mut self, ms: &[f64]) {
        self.admission_p50_ms.push(quantile(ms, 0.50));
        self.admission_p99_ms.push(quantile(ms, 0.99));
    }

    fn decide(&mut self, us: &[f64]) {
        self.decide_p50_us.push(quantile(us, 0.50));
        self.decide_p99_us.push(quantile(us, 0.99));
    }
}

fn service_welfare(pass: &ServicePass) -> f64 {
    pass.outcome
        .as_ref()
        .map_or(f64::NAN, |o| o.welfare.social_welfare)
}

fn untraced(args: &Args, process_start: Instant) -> Report {
    let mut off = Tracer::new(false);
    let mut report = Report::default();
    let mut samples = Samples::default();
    let inputs = workloads::inputs(args.workload, args.seed, &mut off);
    let tasks = inputs.scenario.tasks.len();
    let setup_s;
    if args.workload == Workload::MultiVendorMarket {
        let mut first = Some(new_scheduler(&inputs, &mut off));
        setup_s = process_start.elapsed().as_secs_f64();
        let mut rounds = Rounds::new(args.seconds);
        while rounds.another() {
            let pdftsp = first
                .take()
                .unwrap_or_else(|| new_scheduler(&inputs, &mut off));
            let pass = drive_market(pdftsp, &inputs, tasks, false, &mut off);
            report.tally(tasks, &pass.verdict);
            samples.decisions_per_s.push(pass.decisions_per_s());
            samples.decide(&pass.decide_us);
            samples
                .outcomes
                .push((pass.welfare, checks::fingerprint(&pass.decisions)));
        }
    } else {
        let mut first = Some(build_service(&inputs, &inputs.plan, None, &mut off));
        setup_s = process_start.elapsed().as_secs_f64();
        let mut rounds = Rounds::new(args.seconds);
        while rounds.another() {
            let built = first
                .take()
                .unwrap_or_else(|| build_service(&inputs, &inputs.plan, None, &mut off));
            let unpaced = match built {
                Ok(b) => drive_service(b, &inputs, &inputs.plan, &mut off),
                Err(e) => {
                    report.error(e);
                    break;
                }
            };
            report.tally(tasks, &unpaced.verdict);
            samples.decisions_per_s.push(unpaced.decisions_per_s());
            samples.decide(&unpaced.decide_us());
            samples
                .outcomes
                .push((service_welfare(&unpaced), unpaced.fingerprint()));
            drop(unpaced);
            let open = match build_service(&inputs, &inputs.plan, Some(OPEN_LOOP_RATE), &mut off) {
                Ok(b) => drive_service(b, &inputs, &inputs.plan, &mut off),
                Err(e) => {
                    report.error(e);
                    break;
                }
            };
            report.tally(tasks, &open.verdict);
            samples.admission(&open.admission_ms);
            samples
                .outcomes
                .push((service_welfare(&open), open.fingerprint()));
            report.notes.push(format!(
                "open loop at {OPEN_LOOP_RATE}/s: last epoch returned {:.3} ms after the last task was due",
                open.lag_s * 1e3
            ));
        }
    }
    if let Some(&(welfare, fp)) = samples.outcomes.first() {
        if samples
            .outcomes
            .iter()
            .any(|&(w, f)| w.to_bits() != welfare.to_bits() || f != fp)
        {
            report.fail(Violation::Nondeterministic {
                what: "passes over the same inputs decided differently".into(),
            });
        }
    }
    report.notes.push(format!(
        "{}: {tasks} tasks, {} rounds, setup {setup_s:.3} s",
        args.workload.name(),
        samples.decisions_per_s.len()
    ));
    let (admission_p50_ms, admission_p99_ms) = if args.workload == Workload::MultiVendorMarket {
        // Closed loop: a task's admission is its `decide` call.
        (
            median(&samples.decide_p50_us) / 1e3,
            median(&samples.decide_p99_us) / 1e3,
        )
    } else {
        // Open loop: the best round's p99. Every round replays the same
        // decisions, so a tail of the program's own shows in each round's
        // p99; a stall of the host backs up the queue and inflates the p99
        // of the round it falls in, which the median over five rounds does
        // not absorb (see README.md).
        (
            median(&samples.admission_p50_ms),
            samples
                .admission_p99_ms
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        )
    };
    let values = [
        ("decisions_per_s", median(&samples.decisions_per_s)),
        ("admission_p50_ms", admission_p50_ms),
        ("admission_p99_ms", admission_p99_ms),
        ("decide_p50_us", median(&samples.decide_p50_us)),
        ("decide_p99_us", median(&samples.decide_p99_us)),
        (
            "social_welfare",
            samples.outcomes.first().map_or(f64::NAN, |o| o.0),
        ),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)),
        ("setup_s", setup_s),
    ];
    report.set(&END_TO_END, &values);
    report
}

/// The service-layer metrics of one pass.
fn service_layer(pass: &ServicePass, values: &mut Vec<(&'static str, f64)>) {
    let epoch_ms: Vec<f64> = pass.epochs.iter().map(|e| e.secs * 1e3).collect();
    let (routed_max, routed_min) = pass.outcome.as_ref().map_or((0, 0), |o| {
        let routed = o.per_shard.iter().map(|s| s.routed);
        (routed.clone().max().unwrap_or(0), routed.min().unwrap_or(0))
    });
    values.extend([
        ("service.new_s", pass.new_s),
        ("service.epoch_ms.p50", quantile(&epoch_ms, 0.50)),
        ("service.epoch_ms.p99", quantile(&epoch_ms, 0.99)),
        ("service.epochs", pass.epochs.len() as f64),
        (
            "service.ops",
            pass.epochs.iter().map(|e| e.ops).sum::<usize>() as f64,
        ),
        (
            "service.shard_routed_max_over_min",
            routed_max as f64 / routed_min.max(1) as f64,
        ),
        ("service.finish_s", pass.finish_s),
    ]);
}

/// The fault-path metrics of one pass run with a fault plan.
fn fault_layer(pass: &ServicePass, values: &mut Vec<(&'static str, f64)>) {
    let p50 = |fault: bool| {
        let ms: Vec<f64> = pass
            .epochs
            .iter()
            .filter(|e| e.fault == fault)
            .map(|e| e.secs * 1e3)
            .collect();
        quantile(&ms, 0.50)
    };
    let (disrupted, recovered, aborted, refunds) =
        pass.outcome.as_ref().map_or((0, 0, 0, 0), |o| {
            (
                o.disrupted,
                o.recovered,
                o.aborted.len(),
                o.per_shard.iter().map(|s| s.refunds_issued).sum::<u64>() as usize,
            )
        });
    values.extend([
        ("service.fault_epoch_ms.p50", p50(true)),
        ("service.quiet_epoch_ms.p50", p50(false)),
        ("faults.disrupted", disrupted as f64),
        ("faults.recovered", recovered as f64),
        ("faults.aborted", aborted as f64),
        ("faults.refunds", refunds as f64),
    ]);
}

/// The core-layer metrics of a shadowed scheduler pass.
fn core_layer(pass: &MarketPass, values: &mut Vec<(&'static str, f64)>) {
    let c = pass.counts;
    values.extend([
        ("core.grid_build_us", quantile(&pass.grid_us, 0.50)),
        ("core.dp_us", quantile(&pass.dp_us, 0.50)),
        ("core.vendors_seen", c.vendors_seen as f64),
        ("core.vendors_pruned", c.vendors_pruned as f64),
        ("core.vendors_memoized", c.vendors_memoized as f64),
        ("core.dp_runs", c.dp_runs as f64),
        ("core.dp_cells", c.dp_cells as f64),
        ("core.grid_builds", c.grid_builds as f64),
        ("core.dual_updates", c.dual_updates as f64),
        (
            "core.prune_ratio",
            (c.vendors_pruned + c.vendors_memoized) as f64 / c.vendors_seen.max(1) as f64,
        ),
        (
            "core.admit_ratio",
            c.admitted as f64 / c.decisions.max(1) as f64,
        ),
    ]);
}

/// A service pass over `inputs` with `plan`, unpaced.
fn service_pass(
    inputs: &Inputs,
    plan: &FaultPlan,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<ServicePass> {
    match build_service(inputs, plan, None, tracer) {
        Ok(b) => {
            let pass = drive_service(b, inputs, plan, tracer);
            report.tally(inputs.scenario.tasks.len(), &pass.verdict);
            Some(pass)
        }
        Err(e) => {
            report.error(e);
            None
        }
    }
}

/// Relative cost of tracing: the traced pass against the mean of the
/// untraced passes run just before and after it. A discarded untraced
/// pass runs first, so the process's cold start is billed to neither.
fn traced_overhead(traced: f64, before: f64, after: f64) -> f64 {
    traced / ((before + after) / 2.0).max(1e-12) - 1.0
}

fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let inputs = workloads::inputs(args.workload, args.seed, &mut tracer);
    let tasks = inputs.scenario.tasks.len();
    let spot = workloads::spot_spec(args.seed);
    // Probe: the spot transform, which no workload uses, on this
    // workload's scenario.
    tracer.span("workload.spot_apply", || drop(spot.apply(&inputs.scenario)));
    let mut values: Vec<(&'static str, f64)> = vec![
        ("workload.build_s", tracer.seconds_in("workload.build")),
        (
            "workload.spot_apply_s",
            tracer.seconds_in("workload.spot_apply"),
        ),
    ];
    let decisions: Vec<Decision>;
    let overhead;
    if args.workload == Workload::MultiVendorMarket {
        let plain = |report: &mut Report, off: &mut Tracer| {
            let pass = drive_market(new_scheduler(&inputs, off), &inputs, tasks, false, off);
            report.tally(tasks, &pass.verdict);
            pass.wall_s
        };
        plain(&mut report, &mut off);
        let before = plain(&mut report, &mut off);
        let traced = drive_market(
            new_scheduler(&inputs, &mut tracer),
            &inputs,
            tasks,
            false,
            &mut tracer,
        );
        report.tally(tasks, &traced.verdict);
        let after = plain(&mut report, &mut off);
        overhead = traced_overhead(traced.wall_s, before, after);
        let shadow = drive_market(
            new_scheduler(&inputs, &mut tracer),
            &inputs,
            tasks,
            true,
            &mut tracer,
        );
        report.tally(tasks, &shadow.verdict);
        core_layer(&shadow, &mut values);
        decisions = traced.decisions;
        // Probes: the service layer and the fault path on this workload's
        // inputs, which its own pass bypasses.
        if let Some(pass) = service_pass(&inputs, &inputs.plan, &mut tracer, &mut report) {
            service_layer(&pass, &mut values);
        }
        let plan = workloads::lease_plan(&inputs.scenario, &spot, &mut tracer);
        if let Some(pass) = service_pass(&inputs, &plan, &mut tracer, &mut report) {
            fault_layer(&pass, &mut values);
        }
    } else {
        service_pass(&inputs, &inputs.plan, &mut off, &mut report);
        let before = service_pass(&inputs, &inputs.plan, &mut off, &mut report).map(|p| p.run_s);
        let traced = service_pass(&inputs, &inputs.plan, &mut tracer, &mut report);
        let after = service_pass(&inputs, &inputs.plan, &mut off, &mut report).map(|p| p.run_s);
        let (Some(before), Some(traced), Some(after)) = (before, traced, after) else {
            report.set(&PER_LAYER, &values);
            return report;
        };
        overhead = traced_overhead(traced.run_s, before, after);
        service_layer(&traced, &mut values);
        // Probe: the fault path under the spot market's revocations.
        let plan = workloads::lease_plan(&inputs.scenario, &spot, &mut tracer);
        if let Some(pass) = service_pass(&inputs, &plan, &mut tracer, &mut report) {
            fault_layer(&pass, &mut values);
        }
        // Probe: the core layer, one scheduler over the first slots.
        let count = inputs
            .scenario
            .tasks
            .partition_point(|t| t.arrival < CORE_PROBE_SLOTS);
        let probe = drive_market(
            new_scheduler(&inputs, &mut tracer),
            &inputs,
            count,
            true,
            &mut tracer,
        );
        report.tally(count, &probe.verdict);
        core_layer(&probe, &mut values);
        decisions = traced.outcome.map(|o| o.decisions).unwrap_or_default();
    }
    let (commit_us, bad) = workloads::ledger_commits(&inputs.scenario, &decisions, &mut tracer);
    bad.into_iter().for_each(|v| report.fail(v));
    let dispatch_ns = workloads::pool_dispatch(POOL_CALLS, &mut tracer);
    let (replay_s, bad) = workloads::replay(&inputs.scenario, &decisions, &mut tracer);
    bad.into_iter().for_each(|v| report.fail(v));
    values.extend([
        ("cluster.ledger_commit_us", quantile(&commit_us, 0.50)),
        ("cluster.pool_dispatch_ns", quantile(&dispatch_ns, 0.50)),
        ("sim.replay_s", replay_s),
        ("trace.overhead_pct", overhead * 100.0),
    ]);
    let own = tracer.self_seconds();
    for (layer, name) in SELF_TIMES {
        values.push((name, own.get(layer).copied().unwrap_or(0.0)));
    }
    report.notes.push(format!(
        "{}: traced run, {} spans, tracing overhead {:+.2}%",
        args.workload.name(),
        tracer.spans().len(),
        overhead * 100.0
    ));
    report.set(&PER_LAYER, &values);
    report.trace_json = Some(tracer.chrome_json());
    report
}
