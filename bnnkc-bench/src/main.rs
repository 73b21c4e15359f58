//! `bnnkc-bench` — the end-to-end benchmark of the bnnkc pipeline.
//!
//! ```text
//! bnnkc-bench --workload batch|edge|serve --seed N --seconds S --trace 0|1
//!             --bnnkc PATH --work DIR
//! ```
//!
//! Prints a `fingerprint` line (host and autotuner facts), a `detail`
//! line (sample counts, tails, ladder rungs), and, last, the result
//! object: `correct`, `attempted`, `failed`, and every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`) with its unit.
//! Exits 1 when an output differed from its oracle, 2 when the run could
//! not be measured (no result line then). `run.py` next to this package
//! builds both binaries and supplies `--bnnkc` and `--work`.

mod daemon;
mod gen;
mod model;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Args, WORKLOADS};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or(format!("{name} is required"))?;
    v.parse()
        .map_err(|_| format!("invalid value `{v}` for {name}"))
}

fn workload(args: &[String]) -> Result<workload::Workload, String> {
    let name: String = parse(args, "--workload")?;
    WORKLOADS
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or(format!(
            "unknown workload `{name}` (known: {})",
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        ))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let seconds: f64 = parse(args, "--seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, got `{v}`")),
    };
    Ok(Args {
        workload: workload(args)?,
        seed: parse(args, "--seed")?,
        seconds,
        trace,
        bnnkc: PathBuf::from(parse::<String>(args, "--bnnkc")?),
        work: PathBuf::from(parse::<String>(args, "--work")?),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bnnkc-bench: {e}");
            return ExitCode::from(2);
        }
    };
    // Internal mode: one measuring round in this fresh process.
    if let Some(r) = flag(&raw, "--round") {
        let round = r
            .parse::<usize>()
            .map_err(|e| e.to_string().into())
            .and_then(|r| workload::round_main(&args, r));
        return match round {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bnnkc-bench: round {r}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match workload::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bnnkc-bench: {}: {e}", args.workload.name);
            return ExitCode::from(2);
        }
    };
    let set = if args.trace {
        report::LAYERS
    } else {
        report::E2E
    };
    let t = &outcome.tally;
    let correct = t.correct();
    println!("fingerprint {}", outcome.fingerprint);
    println!("detail {}", outcome.detail);
    println!(
        "{}",
        report::result_line(set, &outcome.values, correct, t.attempted.max(1), t.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
