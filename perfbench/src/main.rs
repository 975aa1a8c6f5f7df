//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when a correctness check fails, 2 on bad usage.
//! Trace files and a copy of the result line go to `out/` next to this
//! package's manifest.

use pdftsp_perfbench::run::{run, Args, Report};
use pdftsp_perfbench::workloads::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <service_day|multi_vendor_market> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        // JSON has no NaN: a metric that could not be measured is null.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

/// Writes the run's result line and trace under `out/`; failures only
/// warn, the printed result stands either way.
fn save(args: &Args, report: &Report, line: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut files = vec![(dir.join(format!("{stem}.json")), format!("{line}\n"))];
    if let Some(trace) = &report.trace_json {
        files.push((dir.join(format!("{stem}.chrome.json")), trace.clone()));
    }
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(path, body)| std::fs::write(path, body))
    });
    if let Err(e) = result {
        eprintln!(
            "warning: cannot write run outputs to {}: {e}",
            dir.display()
        );
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args, process_start);
    for note in &report.notes {
        eprintln!("{note}");
    }
    for v in report.violations.iter().take(20) {
        eprintln!("CHECK FAILED: {v:?}");
    }
    if report.violations.len() > 20 {
        eprintln!("... {} violations in all", report.violations.len());
    }
    let line = result_line(&report);
    save(&args, &report, &line);
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
