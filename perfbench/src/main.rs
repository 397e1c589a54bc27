//! The fair-ranking server's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload twod_read --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Each run drives one workload through the real front door — a loopback
//! `HttpServer` over a `FairRankService` over a `FairRanker` — checks every
//! answer, and prints each metric by name with its unit. The untraced run
//! (`--trace 0`) gives the end-to-end metrics; the traced run (`--trace 1`)
//! times each layer's public entry points from here and reads the stage and
//! build-phase histograms the program keeps. The last line of standard
//! output is the result: `{"correct", "attempted", "failed", "metrics"}`.
//! `BENCHMARK.json` at the repository root defines the metrics, their units
//! and their regression bounds.

mod client;
mod inputs;
mod layers;
mod load;
mod metrics;
mod phases;
mod run;
mod serving;
mod stats;
mod workloads;

const USAGE: &str =
    "usage: fairrank-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<run::Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(12.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(run::Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(workload) = workloads::find(&args.workload) else {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {:?}; known: {names:?}", args.workload);
        std::process::exit(2);
    };
    if let Err(e) = run::run(workload, &args) {
        eprintln!("{}: {e}", workload.name);
        std::process::exit(1);
    }
}
