//! Command line of the benchmark:
//!
//! ```text
//! qorbench --workload <control|arith|resume> --seed <n> --seconds <s> --trace <0|1>
//!          [--designs <name,...>]
//! ```
//!
//! Logs go to standard error; the last line of standard output is the
//! JSON result. The exit code is 0 whenever a result was printed (its
//! `correct` field says whether every operation passed), 2 on bad
//! arguments. `--designs` runs the workload's configuration on other
//! EPFL designs (the self-tests use it).

use std::path::PathBuf;
use std::process::ExitCode;

use qorbench::run::{run, Config};
use qorbench::workload::Workload;
use qorbench::{per_layer, END_TO_END};

const USAGE: &str =
    "usage: qorbench --workload <control|arith|resume> --seed <n> --seconds <s> --trace <0|1> \
     [--designs <name,...>]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut designs = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--designs" => designs = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let mut workload = workload.ok_or("--workload is required")?;
    if let Some(names) = designs {
        workload = workload
            .with_designs(&names)
            .ok_or_else(|| format!("unknown design in {names:?}"))?;
    }
    let work_dir =
        PathBuf::from(".qorbench-work").join(format!("{}-{}", workload.name, std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("qorbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config);
    // The run's checkpoints are scratch data.
    let _ = std::fs::remove_dir_all(&config.work_dir);
    let _ = std::fs::remove_dir(".qorbench-work");

    let names: Vec<String> = if config.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|s| (*s).to_string()).collect()
    };
    for line in &outcome.notes {
        eprintln!("{line}");
    }
    for name in &names {
        match outcome.metrics.iter().find(|m| &m.name == name) {
            Some(m) => eprintln!("  {name:<32} {:>16.6} {}", m.value, m.unit),
            None => eprintln!("  {name:<32} (not measured)"),
        }
    }
    for failure in &outcome.failures {
        eprintln!("FAILED {failure}");
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    println!("{}", outcome.to_json(&refs));
    ExitCode::SUCCESS
}
