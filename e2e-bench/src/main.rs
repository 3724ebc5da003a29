//! End-to-end and per-layer benchmark of the Muffin pipeline.
//!
//! ```text
//! e2e-bench --workload search-cold|serve-fused \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run is untraced and prints the end-to-end metrics;
//! with `--trace 1` it runs the workload under a capturing tracer and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The process exits 1 if any correctness check failed.
//! `RATIONALE.md` explains the workloads and metrics.

mod e2e;
mod layers;
mod pipeline;
mod report;
mod stats;

use pipeline::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    let mut seen = Vec::new();
    while let Some(flag) = it.next() {
        if seen.contains(flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag.clone());
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (expected {})", names.join("|"))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => match number()? {
                0 => return Err("--seconds must be at least 1".into()),
                n => seconds = Some(n),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            print!("{}", report.render());
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            std::process::exit(1);
        }
    }
}
