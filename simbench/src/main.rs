//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the CLIP simulator benchmark, prints every metric
//! by name and unit, and ends with one JSON result line. With
//! `--trace 1` it also runs the traced phase and the layer replays,
//! reports the per-layer metrics instead of the end-to-end ones, and
//! writes the spans to `out/spans-<workload>-<seed>.json` in this
//! package's directory.

use simbench::workloads::{self, Workload};
use simbench::{host, report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: simbench --workload <mix8-analytic|mcf64-mesh|summary-sweep> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::pin_environment();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let outcome = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        false,
        &out_dir,
    );
    for line in report::lines(&outcome, args.trace) {
        println!("{line}");
    }
    if args.trace {
        let path = out_dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        match outcome.tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report::result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
