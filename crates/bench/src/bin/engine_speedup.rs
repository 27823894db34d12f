//! Classic-vs-flat engine comparison: shuffle on the per-node reference
//! `Simulation` vs the arena `FlatSimulation`, same behavior, `n`, seed,
//! loss rate, and round count — the two runs are byte-identical, so the
//! ratio isolates the storage layout.
//!
//! ```text
//! engine_speedup [--nodes N] [--rounds R] [--loss F] [--seed S]
//!                [--out PATH] [--min-speedup F]
//! ```
//!
//! Defaults: `--nodes 100000 --rounds 20 --loss 0.05 --seed 42`. The
//! JSON report goes to stdout and, with `--out`, to a file; with
//! `--min-speedup` the binary exits nonzero when flat fails to clear the
//! floor over classic, which is how CI pins the arena layout's advantage.

use std::process::ExitCode;

use sandf_bench::perf::shuffle_speedup;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
            value.parse().map(Some).map_err(|_| format!("bad value for {flag}: {value}"))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match compare(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("engine_speedup: {message}");
            ExitCode::FAILURE
        }
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let nodes = parse_flag(args, "--nodes")?.unwrap_or(100_000);
    let rounds = parse_flag(args, "--rounds")?.unwrap_or(20);
    let loss = parse_flag(args, "--loss")?.unwrap_or(0.05);
    let seed = parse_flag(args, "--seed")?.unwrap_or(42);
    let out: Option<String> = parse_flag(args, "--out")?;
    let floor: Option<f64> = parse_flag(args, "--min-speedup")?;
    if nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }

    let report = shuffle_speedup(nodes, rounds, loss, seed);
    let json = report.to_json();
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(floor) = floor {
        if report.speedup < floor {
            eprintln!(
                "engine_speedup: {:.2}x is below the pinned floor {floor:.2}x",
                report.speedup
            );
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("engine_speedup: {:.2}x clears the floor {floor:.2}x", report.speedup);
    }
    Ok(ExitCode::SUCCESS)
}
