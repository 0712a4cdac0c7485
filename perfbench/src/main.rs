//! `neofog-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the host block, every metric by name with its unit, and as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use neofog_perfbench::host::Host;
use neofog_perfbench::report::{human_line, result_line};
use neofog_perfbench::workloads::{self, Workload, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: neofog-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", Host::probe().to_json());
    let run = if args.trace {
        workloads::traced(args.workload, args.seed)
    } else {
        workloads::run(args.workload, args.seed, args.seconds)
    };
    let run = match run {
        Ok(run) => run,
        Err(error) => {
            eprintln!("benchmark failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    for metric in run.metrics.iter().chain(&run.extra) {
        println!("{}", human_line(metric));
    }
    for note in &run.notes {
        println!("check failed: {note}");
    }
    match result_line(run.correct, run.tally, &run.metrics) {
        Some(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("benchmark failed: a metric is not a finite number");
            ExitCode::FAILURE
        }
    }
}
