//! Hand-rolled argument parsing: a subcommand followed by `--key value`
//! pairs (plus a few boolean flags).

use pdftsp_lora::TuningParadigm;
use pdftsp_sim::Algo;
use pdftsp_workload::{ArrivalProcess, DeadlinePolicy, NodeMix, TraceKind};
use std::fmt;

/// Usage text printed on parse errors and `help`.
pub const USAGE: &str = "\
usage: pdftsp <command> [options]

commands:
  simulate    run one scheduler over a generated day and report economics
              (alias: run)
  compare     run all schedulers over the same day
  report      run instrumented pdFTSP and print the telemetry run report
  audit       truthfulness + individual-rationality audit of the auction
  ratio       empirical competitive ratio against the offline optimum
  zones       split the cluster into per-model zones and run each market
  serve-sim   run the sharded auction service over the scenario and
              report per-shard admission + commit statistics
  calibrate   print the LoRA/paradigm calibration table
  help        show this text

scenario options (simulate / compare / audit / ratio):
  --nodes N        cluster size                        [default 12; ratio: 2]
  --slots T        horizon in 10-minute slots          [default 48; ratio: 24]
  --mean M         mean task arrivals per slot         [default 6;  ratio: 0.4]
  --seed S         RNG seed                            [default 42]
  --vendors N      labor vendors in the marketplace    [default 5]
  --mix MIX        a100 | a40 | hybrid                 [default hybrid]
  --trace KIND     poisson | mlaas | philly | helios   [default poisson]
  --deadline D     tight | medium | slack              [default medium]
  --paradigm P     lora | qlora | prefix | full        [default lora]

simulate options:
  --algo A         pdftsp | titan | eft | ntm | fixed  [default pdftsp]
  --timeline       also print per-slot strips and the per-node gantt
  --faults SPEC    inject seeded node failures and run the recovery path
                   (pdftsp only); SPEC is key=value pairs, e.g.
                   crashes=2,outage=4,degrade=0.3,seed=7
  --spot SPEC      spot-market run (pdftsp only): time-varying spot
                   prices, budget-capped bidders, revocable leases
                   through the recovery path, and the deadline-aware
                   baseline comparison; SPEC is key=value pairs, e.g.
                   jumps=0.1,mag=2.0,leases=4,lease_len=6,budgets=0.5,
                   lookahead=8,gain=0.5,seed=7 (empty string = defaults)

serve-sim options:
  --shards N       shard count (disjoint node ranges)  [default 2]
  --epoch E        slots committed per service epoch   [default 4]
  --rate R         open-loop arrival rate in tasks/sec (paces admission
                   and measures admission latency; omit for unpaced)
  --faults SPEC    inject seeded node failures through the service path
                   (same SPEC syntax as simulate)
  --spot SPEC      transform the scenario per the spot spec and drive
                   the lease revocations through the service path
                   (same SPEC syntax as simulate's --spot)
  --metrics-file F write a Prometheus text exposition snapshot to F at
                   run end (per-shard labeled series + totals)
  --trace-out F    record lifecycle spans (route/propose/commit/settle)
                   and write a Chrome trace_event JSON file to F
  --progress       print one progress line per epoch to stderr
                   (decisions/sec, admission p50/p99, queue depths)
  --flight DIR     arm the per-shard flight recorder; crash dumps land
                   in DIR as flightrec-shard<k>.jsonl

ratio options (offline branch-and-bound limits):
  --milp-nodes N   node budget for the offline solve   [default 300]
  --milp-time S    wall-clock limit in seconds         [default 60]
  --milp-wave W    nodes evaluated per parallel wave   [default 1]

scenario persistence (simulate / compare / audit / ratio):
  --save FILE      write the generated scenario to FILE (text format)
  --load FILE      replay a scenario from FILE instead of generating one

telemetry options (simulate with --algo pdftsp / report):
  --telemetry FILE stream scheduler events to FILE as JSON lines and write
                   the aggregate run report next to it (FILE with a
                   .summary.json extension)
  --duals DIR      export the final dual-price grids λ/φ as duals.csv and
                   duals.json under DIR (e.g. results/)

output options:
  --csv            emit CSV instead of an aligned table (where applicable)
  --json           emit the run report as JSON (report command)
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Scenario shape shared by most commands.
    pub scenario: ScenarioArgs,
    /// Emit CSV where supported.
    pub csv: bool,
    /// Write the generated scenario to this path.
    pub save: Option<String>,
    /// Load the scenario from this path instead of generating.
    pub load: Option<String>,
    /// Print per-slot strips and the per-node gantt after `simulate`.
    pub timeline: bool,
    /// Stream scheduler events to this JSONL path (plus a summary JSON
    /// written next to it).
    pub telemetry: Option<String>,
    /// Export the final dual-price grids under this directory.
    pub duals: Option<String>,
    /// Fault-injection spec for `simulate` (`--faults`), unparsed.
    pub faults: Option<String>,
    /// Spot-market spec for `simulate` / `serve-sim` (`--spot`),
    /// unparsed.
    pub spot: Option<String>,
    /// Emit the run report as JSON instead of text (`report`).
    pub json: bool,
    /// Offline branch-and-bound limits (`ratio`).
    pub milp: MilpArgs,
    /// Sharded-service knobs (`serve-sim`).
    pub service: ServiceArgs,
    /// Write a Prometheus exposition snapshot here (`serve-sim`).
    pub metrics_file: Option<String>,
    /// Record spans and write a Chrome trace_event file here
    /// (`serve-sim`).
    pub trace_out: Option<String>,
    /// Print one per-epoch progress line to stderr (`serve-sim`).
    pub progress: bool,
    /// Arm the flight recorder; crash dumps land in this directory
    /// (`serve-sim`).
    pub flight: Option<String>,
}

/// Knobs for the sharded auction service behind `serve-sim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceArgs {
    /// Shard count (`--shards`).
    pub shards: usize,
    /// Slots committed per epoch (`--epoch`).
    pub epoch: usize,
    /// Open-loop arrival rate in tasks/sec (`--rate`), `None` = unpaced.
    pub rate: Option<f64>,
}

impl Default for ServiceArgs {
    fn default() -> Self {
        ServiceArgs {
            shards: 2,
            epoch: 4,
            rate: None,
        }
    }
}

/// Limits for the offline branch-and-bound behind `ratio`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpArgs {
    /// Node budget (`--milp-nodes`).
    pub nodes: usize,
    /// Wall-clock limit in seconds (`--milp-time`).
    pub time_secs: f64,
    /// Nodes evaluated per parallel wave (`--milp-wave`).
    pub wave: usize,
}

impl Default for MilpArgs {
    fn default() -> Self {
        MilpArgs {
            nodes: 300,
            time_secs: 60.0,
            wave: 1,
        }
    }
}

/// The selected subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Run one algorithm.
    Simulate {
        /// Which scheduler.
        algo: Algo,
    },
    /// Run every algorithm on the same scenario.
    Compare,
    /// Run instrumented pdFTSP and print the telemetry run report.
    Report,
    /// Economic-property audit.
    Audit,
    /// Competitive ratio vs the offline optimum.
    Ratio,
    /// Multi-model zoned data center.
    Zones,
    /// Sharded auction service with epoch-ordered two-phase commit.
    ServeSim,
    /// Print the calibration table.
    Calibrate,
    /// Print usage.
    Help,
}

/// Scenario knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioArgs {
    /// Cluster size `K`.
    pub nodes: usize,
    /// Horizon `T`.
    pub slots: usize,
    /// Mean arrivals per slot.
    pub mean: f64,
    /// RNG seed.
    pub seed: u64,
    /// Vendor count `N`.
    pub vendors: usize,
    /// GPU mix.
    pub mix: NodeMix,
    /// Arrival shape (`None` = Poisson).
    pub trace: Option<TraceKind>,
    /// Deadline policy.
    pub deadline: DeadlinePolicy,
    /// Fine-tuning paradigm.
    pub paradigm: TuningParadigm,
}

impl Default for ScenarioArgs {
    fn default() -> Self {
        ScenarioArgs {
            nodes: 12,
            slots: 48,
            mean: 6.0,
            seed: 42,
            vendors: 5,
            mix: NodeMix::Hybrid { a100_fraction: 0.5 },
            trace: None,
            deadline: DeadlinePolicy::Medium,
            paradigm: TuningParadigm::Lora { rank: 8 },
        }
    }
}

impl ScenarioArgs {
    /// The arrival process these arguments describe.
    #[must_use]
    pub fn arrivals(&self) -> ArrivalProcess {
        match self.trace {
            None => ArrivalProcess::Poisson {
                mean_per_slot: self.mean,
            },
            Some(kind) => ArrivalProcess::Trace {
                kind,
                mean_per_slot: self.mean,
            },
        }
    }
}

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

impl Cli {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, ParseError> {
        let mut it = argv.iter();
        let command_word = it.next().map(String::as_str).unwrap_or("help");
        let mut algo = Algo::Pdftsp;
        let mut scenario = ScenarioArgs::default();
        if command_word == "ratio" {
            // Offline MILPs need tiny instances.
            scenario.nodes = 2;
            scenario.slots = 24;
            scenario.mean = 0.4;
        }
        let mut csv = false;
        let mut save = None;
        let mut load = None;
        let mut timeline = false;
        let mut telemetry = None;
        let mut duals = None;
        let mut faults = None;
        let mut spot = None;
        let mut json = false;
        let mut milp = MilpArgs::default();
        let mut service = ServiceArgs::default();
        let mut metrics_file = None;
        let mut trace_out = None;
        let mut progress = false;
        let mut flight = None;

        while let Some(arg) = it.next() {
            let mut value_for = |name: &str| -> Result<&String, ParseError> {
                it.next()
                    .ok_or_else(|| err(format!("{name} needs a value")))
            };
            match arg.as_str() {
                "--csv" => csv = true,
                "--json" => json = true,
                "--timeline" => timeline = true,
                "--save" => save = Some(value_for("--save")?.clone()),
                "--load" => load = Some(value_for("--load")?.clone()),
                "--telemetry" => telemetry = Some(value_for("--telemetry")?.clone()),
                "--duals" => duals = Some(value_for("--duals")?.clone()),
                "--faults" => faults = Some(value_for("--faults")?.clone()),
                "--spot" => spot = Some(value_for("--spot")?.clone()),
                "--metrics-file" => metrics_file = Some(value_for("--metrics-file")?.clone()),
                "--trace-out" => trace_out = Some(value_for("--trace-out")?.clone()),
                "--progress" => progress = true,
                "--flight" => flight = Some(value_for("--flight")?.clone()),
                "--nodes" => scenario.nodes = parse_num(value_for("--nodes")?, "--nodes")?,
                "--slots" => scenario.slots = parse_num(value_for("--slots")?, "--slots")?,
                "--seed" => scenario.seed = parse_num(value_for("--seed")?, "--seed")?,
                "--vendors" => {
                    scenario.vendors = parse_num(value_for("--vendors")?, "--vendors")?;
                }
                "--mean" => {
                    let v = value_for("--mean")?;
                    scenario.mean = v
                        .parse::<f64>()
                        .map_err(|_| err(format!("--mean: bad number `{v}`")))?;
                }
                "--shards" => {
                    service.shards = parse_num(value_for("--shards")?, "--shards")?;
                    if service.shards == 0 {
                        return Err(err("--shards: must be at least 1"));
                    }
                }
                "--epoch" => {
                    service.epoch = parse_num(value_for("--epoch")?, "--epoch")?;
                    if service.epoch == 0 {
                        return Err(err("--epoch: must be at least 1"));
                    }
                }
                "--rate" => {
                    let rate: f64 = parse_num(value_for("--rate")?, "--rate")?;
                    if !rate.is_finite() || rate <= 0.0 {
                        return Err(err("--rate: must be positive"));
                    }
                    service.rate = Some(rate);
                }
                "--milp-nodes" => {
                    milp.nodes = parse_num(value_for("--milp-nodes")?, "--milp-nodes")?;
                }
                "--milp-time" => {
                    milp.time_secs = parse_num(value_for("--milp-time")?, "--milp-time")?;
                }
                "--milp-wave" => {
                    milp.wave = parse_num(value_for("--milp-wave")?, "--milp-wave")?;
                    if milp.wave == 0 {
                        return Err(err("--milp-wave: must be at least 1"));
                    }
                }
                "--mix" => {
                    scenario.mix = match value_for("--mix")?.as_str() {
                        "a100" => NodeMix::A100Only,
                        "a40" => NodeMix::A40Only,
                        "hybrid" => NodeMix::Hybrid { a100_fraction: 0.5 },
                        other => return Err(err(format!("--mix: unknown `{other}`"))),
                    };
                }
                "--trace" => {
                    scenario.trace = match value_for("--trace")?.as_str() {
                        "poisson" => None,
                        "mlaas" => Some(TraceKind::MLaaS),
                        "philly" => Some(TraceKind::Philly),
                        "helios" => Some(TraceKind::Helios),
                        other => return Err(err(format!("--trace: unknown `{other}`"))),
                    };
                }
                "--deadline" => {
                    scenario.deadline = match value_for("--deadline")?.as_str() {
                        "tight" => DeadlinePolicy::Tight,
                        "medium" => DeadlinePolicy::Medium,
                        "slack" => DeadlinePolicy::Slack,
                        other => return Err(err(format!("--deadline: unknown `{other}`"))),
                    };
                }
                "--paradigm" => {
                    scenario.paradigm = match value_for("--paradigm")?.as_str() {
                        "lora" => TuningParadigm::Lora { rank: 8 },
                        "qlora" => TuningParadigm::QLora { rank: 8 },
                        "prefix" => TuningParadigm::PrefixTuning { prefix_len: 64 },
                        "full" => TuningParadigm::FullFineTune,
                        other => return Err(err(format!("--paradigm: unknown `{other}`"))),
                    };
                }
                "--algo" => {
                    algo = match value_for("--algo")?.as_str() {
                        "pdftsp" => Algo::Pdftsp,
                        "titan" => Algo::Titan,
                        "eft" => Algo::Eft,
                        "ntm" => Algo::Ntm,
                        "fixed" => Algo::FixedPrice,
                        other => return Err(err(format!("--algo: unknown `{other}`"))),
                    };
                }
                other => return Err(err(format!("unknown option `{other}`"))),
            }
        }

        let command = match command_word {
            "simulate" | "run" => Command::Simulate { algo },
            "compare" => Command::Compare,
            "report" => Command::Report,
            "audit" => Command::Audit,
            "ratio" => Command::Ratio,
            "zones" => Command::Zones,
            "serve-sim" => Command::ServeSim,
            "calibrate" => Command::Calibrate,
            "help" | "--help" | "-h" => Command::Help,
            other => return Err(err(format!("unknown command `{other}`"))),
        };
        Ok(Cli {
            command,
            scenario,
            csv,
            save,
            load,
            timeline,
            telemetry,
            duals,
            faults,
            spot,
            json,
            milp,
            service,
            metrics_file,
            trace_out,
            progress,
            flight,
        })
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, ParseError> {
    v.parse::<T>()
        .map_err(|_| err(format!("{flag}: bad number `{v}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &str) -> Result<Cli, ParseError> {
        let argv: Vec<String> = words.split_whitespace().map(String::from).collect();
        Cli::parse(&argv)
    }

    #[test]
    fn defaults_apply_without_options() {
        let cli = parse("compare").unwrap();
        assert_eq!(cli.command, Command::Compare);
        assert_eq!(cli.scenario, ScenarioArgs::default());
        assert!(!cli.csv);
    }

    #[test]
    fn simulate_parses_algo_and_scenario() {
        let cli = parse("simulate --algo titan --nodes 20 --slots 72 --mean 10 --seed 9").unwrap();
        assert_eq!(cli.command, Command::Simulate { algo: Algo::Titan });
        assert_eq!(cli.scenario.nodes, 20);
        assert_eq!(cli.scenario.slots, 72);
        assert_eq!(cli.scenario.mean, 10.0);
        assert_eq!(cli.scenario.seed, 9);
    }

    #[test]
    fn ratio_defaults_are_tiny() {
        let cli = parse("ratio").unwrap();
        assert_eq!(cli.scenario.nodes, 2);
        assert!(cli.scenario.mean < 1.0);
    }

    #[test]
    fn enums_parse() {
        let cli =
            parse("compare --mix a40 --trace helios --deadline slack --paradigm qlora").unwrap();
        assert_eq!(cli.scenario.mix, NodeMix::A40Only);
        assert_eq!(cli.scenario.trace, Some(TraceKind::Helios));
        assert_eq!(cli.scenario.deadline, DeadlinePolicy::Slack);
        assert_eq!(cli.scenario.paradigm, TuningParadigm::QLora { rank: 8 });
    }

    #[test]
    fn unknown_bits_are_rejected() {
        assert!(parse("frobnicate").is_err());
        assert!(parse("simulate --algo sorcery").is_err());
        assert!(parse("compare --nodes").is_err());
        assert!(parse("compare --mean banana").is_err());
        assert!(parse("compare --wat 3").is_err());
    }

    #[test]
    fn report_parses_telemetry_and_duals_paths() {
        let cli = parse("report --telemetry events.jsonl --duals results --json").unwrap();
        assert_eq!(cli.command, Command::Report);
        assert_eq!(cli.telemetry.as_deref(), Some("events.jsonl"));
        assert_eq!(cli.duals.as_deref(), Some("results"));
        assert!(cli.json);
        // Values are required.
        assert!(parse("report --telemetry").is_err());
        assert!(parse("report --duals").is_err());
    }

    #[test]
    fn simulate_accepts_telemetry_flags() {
        let cli = parse("simulate --algo pdftsp --telemetry t.jsonl").unwrap();
        assert_eq!(cli.telemetry.as_deref(), Some("t.jsonl"));
        assert!(cli.duals.is_none());
        assert!(!cli.json);
    }

    #[test]
    fn milp_limits_parse_with_defaults() {
        let cli = parse("ratio").unwrap();
        assert_eq!(cli.milp, MilpArgs::default());
        let cli = parse("ratio --milp-nodes 50 --milp-time 2.5 --milp-wave 4").unwrap();
        assert_eq!(cli.milp.nodes, 50);
        assert_eq!(cli.milp.time_secs, 2.5);
        assert_eq!(cli.milp.wave, 4);
        assert!(parse("ratio --milp-nodes").is_err());
        assert!(parse("ratio --milp-nodes banana").is_err());
        assert!(parse("ratio --milp-wave 0").is_err());
    }

    #[test]
    fn run_is_an_alias_for_simulate_and_faults_parse() {
        let cli = parse("run --faults crashes=2,outage=4,seed=7").unwrap();
        assert_eq!(cli.command, Command::Simulate { algo: Algo::Pdftsp });
        assert_eq!(cli.faults.as_deref(), Some("crashes=2,outage=4,seed=7"));
        let cli = parse("simulate").unwrap();
        assert!(cli.faults.is_none());
        assert!(parse("run --faults").is_err());
    }

    #[test]
    fn spot_spec_parses_on_run_and_serve_sim() {
        let cli = parse("run --spot leases=4,budgets=0.5,seed=7").unwrap();
        assert_eq!(cli.spot.as_deref(), Some("leases=4,budgets=0.5,seed=7"));
        let cli = parse("serve-sim --spot lease_len=6 --shards 3").unwrap();
        assert_eq!(cli.spot.as_deref(), Some("lease_len=6"));
        assert!(parse("simulate").unwrap().spot.is_none());
        assert!(parse("run --spot").is_err());
    }

    #[test]
    fn serve_sim_parses_service_knobs() {
        let cli = parse("serve-sim").unwrap();
        assert_eq!(cli.command, Command::ServeSim);
        assert_eq!(cli.service, ServiceArgs::default());
        let cli = parse("serve-sim --shards 4 --epoch 6 --rate 1000").unwrap();
        assert_eq!(cli.service.shards, 4);
        assert_eq!(cli.service.epoch, 6);
        assert_eq!(cli.service.rate, Some(1000.0));
        assert!(parse("serve-sim --pipeline").is_err());
        assert!(parse("serve-sim --shards 0").is_err());
        assert!(parse("serve-sim --epoch 0").is_err());
        assert!(parse("serve-sim --rate -3").is_err());
        assert!(parse("serve-sim --rate banana").is_err());
    }

    #[test]
    fn serve_sim_parses_observability_flags() {
        let cli = parse("serve-sim").unwrap();
        assert!(cli.metrics_file.is_none());
        assert!(cli.trace_out.is_none());
        assert!(!cli.progress);
        assert!(cli.flight.is_none());
        let cli =
            parse("serve-sim --metrics-file m.prom --trace-out t.json --progress --flight results")
                .unwrap();
        assert_eq!(cli.metrics_file.as_deref(), Some("m.prom"));
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert!(cli.progress);
        assert_eq!(cli.flight.as_deref(), Some("results"));
        assert!(parse("serve-sim --metrics-file").is_err());
        assert!(parse("serve-sim --trace-out").is_err());
        assert!(parse("serve-sim --flight").is_err());
    }

    #[test]
    fn help_is_the_default() {
        assert_eq!(parse("").unwrap().command, Command::Help);
        assert_eq!(parse("help").unwrap().command, Command::Help);
    }

    #[test]
    fn arrivals_reflect_trace_choice() {
        let poisson = parse("compare --mean 4").unwrap().scenario.arrivals();
        assert!(matches!(poisson, ArrivalProcess::Poisson { .. }));
        let trace = parse("compare --trace mlaas --mean 4")
            .unwrap()
            .scenario
            .arrivals();
        assert!(matches!(
            trace,
            ArrivalProcess::Trace {
                kind: TraceKind::MLaaS,
                ..
            }
        ));
    }
}
