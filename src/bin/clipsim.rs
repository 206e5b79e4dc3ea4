//! `clipsim` — command-line driver for the CLIP many-core simulator.
//!
//! ```text
//! clipsim --workload 605.mcf_s-1554B --cores 8 --channels 1 \
//!         --prefetcher berti --clip --instrs 10000
//! clipsim --hetero-seed 7 --cores 16 --channels 2 --prefetcher spp-ppf
//! clipsim --list-workloads
//! clipsim --connect 127.0.0.1:4117 --workload 605.mcf_s-1554B --clip
//! clipsim --connect 127.0.0.1:4117 --figure fig02
//! ```
//!
//! Runs the requested mix under the requested scheme *and* the
//! no-prefetch baseline, then prints a comparison report. With
//! `--connect`, the same request is executed by a `clipd` daemon
//! (shared cache, admission control — see `clip::bench::server`) and
//! the output is byte-identical to a local run.

use clip::bench::client::{self, ClientError};
use clip::bench::experiment::write_artifact;
use clip::bench::proto::{self, RunSpec};
use clip::sim::{run_mix_checked, ComparisonReport, Scheme, SimResult};
use clip::stats::Json;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Args {
    spec: RunSpec,
    list: bool,
    /// Execute on a `clipd` daemon at this address instead of locally.
    connect: Option<String>,
    /// Ask the daemon for a whole registered figure.
    figure: Option<String>,
    /// Ask the daemon for its health/stats frame.
    health: bool,
    /// Ask the daemon to drain and stop.
    shutdown: bool,
}

const USAGE: &str = "\
clipsim — CLIP many-core simulator

USAGE:
  clipsim [OPTIONS]

OPTIONS:
  --workload <NAME>      homogeneous mix of the named trace (see --list-workloads)
  --hetero-seed <N>      random heterogeneous mix instead of a named workload
  --cores <N>            cores in the system              [default: 8]
  --channels <N>         DRAM channels (power of 2)       [default: 1]
  --prefetcher <KIND>    none|berti|ipcp|bingo|spp-ppf|ip-stride|stream|next-line|composite
                                                          [default: berti, or CLIP_PF]
  --clip                 attach CLIP to the prefetcher
  --dynclip              attach Dynamic CLIP (bandwidth-governed)
  --throttler <KIND>     fdp|hpac|spac|nst
  --hermes               attach Hermes off-chip prediction
  --dspatch              attach DSPatch modulation
  --instrs <N>           measured instructions per core   [default: 10000]
  --warmup <N>           warmup instructions per core     [default: 2000]
  --seed <N>             workload seed                    [default: 42]
  --noc <MODEL>          mesh|analytic|chiplet            [default: mesh]
  --dram <BACKEND>       ddr4|hbm                         [default: ddr4]
  --deadline-ms <N>      wall-clock budget per run in milliseconds
                         (default: CLIP_JOB_DEADLINE_MS, else unlimited)
  --list-workloads       print the workload catalog and exit

DAEMON MODE (see `clipd --help`):
  --connect <ADDR>       execute on the clipd daemon at HOST:PORT
  --figure <NAME>        with --connect: run a registered figure binary
                         (text printed, artifacts written locally)
  --health               with --connect: print the daemon's health frame
  --shutdown             with --connect: ask the daemon to drain and stop
                         (CLIP_CLIENT_TIMEOUT_MS bounds each attempt;
                         `overloaded` rejections retry with backoff)
  --help                 this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let spec = &mut args.spec;
        match flag.as_str() {
            "--workload" => spec.workload = Some(value("--workload")?),
            "--hetero-seed" => {
                spec.hetero_seed = Some(
                    value("--hetero-seed")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--cores" => spec.cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--channels" => {
                spec.channels = value("--channels")?.parse().map_err(|e| format!("{e}"))?
            }
            "--prefetcher" => spec.prefetcher = proto::prefetcher_from(&value("--prefetcher")?)?,
            "--clip" => spec.clip = true,
            "--dynclip" => spec.dynclip = true,
            "--throttler" => spec.throttler = Some(proto::throttler_from(&value("--throttler")?)?),
            "--hermes" => spec.hermes = true,
            "--dspatch" => spec.dspatch = true,
            "--instrs" => spec.instrs = value("--instrs")?.parse().map_err(|e| format!("{e}"))?,
            "--warmup" => spec.warmup = value("--warmup")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => spec.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--noc" => spec.noc = proto::noc_from(&value("--noc")?)?,
            "--dram" => spec.dram = proto::dram_from(&value("--dram")?)?,
            "--deadline-ms" => {
                spec.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--list-workloads" => args.list = true,
            "--connect" => args.connect = Some(value("--connect")?),
            "--figure" => args.figure = Some(value("--figure")?),
            "--health" => args.health = true,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.connect.is_none() && (args.figure.is_some() || args.health || args.shutdown) {
        return Err("--figure/--health/--shutdown need --connect".to_string());
    }
    Ok(args)
}

/// Prints one line to stdout. A reader that closed the pipe early
/// (`clipsim --list-workloads | head -2`) ends the process quietly with
/// status 0; `println!` would panic with a backtrace instead.
fn print_line(line: std::fmt::Arguments<'_>) {
    match writeln!(std::io::stdout(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Prints the run report exactly as the local path always has, from
/// wherever the two results came from.
fn print_report(spec: &RunSpec, mix_name: &str, res: &SimResult, base: &SimResult) {
    print_line(format_args!(
        "mix                 : {} x {}",
        spec.cores, mix_name
    ));
    print_line(format_args!(
        "{}",
        ComparisonReport::new(spec.scheme().label(spec.prefetcher), res, base)
    ));
}

fn run_local(spec: &RunSpec) -> ExitCode {
    let mix = match spec.mix() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (cfg_base, cfg) = match spec.configs() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = spec.options();
    let scheme = spec.scheme();

    eprintln!(
        "running {} on {} cores / {} channel(s), {} + baseline ...",
        mix.name,
        spec.cores,
        spec.channels,
        scheme.label(spec.prefetcher)
    );
    let run = |cfg, scheme: &Scheme| match run_mix_checked(cfg, scheme, &mix, &opts) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    };
    let Some(base) = run(&cfg_base, &Scheme::plain()) else {
        return ExitCode::FAILURE;
    };
    let Some(res) = run(&cfg, &scheme) else {
        return ExitCode::FAILURE;
    };

    print_report(spec, &mix.name, &res, &base);
    ExitCode::SUCCESS
}

fn run_remote(addr: &str, spec: &RunSpec) -> ExitCode {
    // The mix derivation is deterministic and shared with the daemon
    // (same spec, same mix), so the report line needs no wire traffic.
    let mix_name = match spec.mix() {
        Ok(m) => m.name,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "requesting {} on {} cores / {} channel(s), {} + baseline from {addr} ...",
        mix_name,
        spec.cores,
        spec.channels,
        spec.scheme().label(spec.prefetcher)
    );
    let mut cells: Vec<SimResult> = Vec::new();
    let outcome = client::request(addr, &spec.to_json(), |frame| {
        if frame.get("kind").and_then(Json::as_str) == Some("cell") {
            if let Some(r) = frame.get("result").and_then(SimResult::from_json) {
                cells.push(r);
            }
        }
    });
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // The daemon streams the baseline cell first, then the scheme cell.
    let (Some(res), Some(base)) = (cells.pop(), cells.pop()) else {
        eprintln!("error: daemon response was missing cells");
        return ExitCode::FAILURE;
    };
    print_report(spec, &mix_name, &res, &base);
    ExitCode::SUCCESS
}

fn run_figure(addr: &str, name: &str) -> ExitCode {
    eprintln!("requesting figure {name} from {addr} ...");
    let outcome = client::request(addr, &proto::figure_request(name), |frame| {
        if frame.get("kind").and_then(Json::as_str) != Some("experiment") {
            return;
        }
        if let Some(text) = frame.get("text").and_then(Json::as_str) {
            print!("{text}");
        }
        // The artifact lands in the *client's* artifact directory,
        // byte-identical to a local figure run.
        if let (Some(exp), Some(artifact)) = (
            frame.get("name").and_then(Json::as_str),
            frame.get("artifact"),
        ) {
            write_artifact(exp, artifact);
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_health(addr: &str) -> ExitCode {
    let outcome = client::request(addr, &proto::health_request(), |frame| {
        println!("{}", frame.render());
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_shutdown(addr: &str) -> ExitCode {
    match client::request(addr, &proto::shutdown_request(), |_| {}) {
        Ok(()) => {
            eprintln!("daemon at {addr} acknowledged shutdown");
            ExitCode::SUCCESS
        }
        // A daemon that drains *very* fast can close before the ack
        // frame is read; the shutdown still happened.
        Err(ClientError::Protocol(_)) => {
            eprintln!("daemon at {addr} closed while draining");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for w in clip::trace::catalog::all() {
            print_line(format_args!(
                "{:<28} {:>10} lines  [{}]",
                w.name,
                w.footprint_lines,
                w.suite.name()
            ));
        }
        return ExitCode::SUCCESS;
    }

    match &args.connect {
        None => run_local(&args.spec),
        Some(addr) if args.health => run_health(addr),
        Some(addr) if args.shutdown => run_shutdown(addr),
        Some(addr) => match &args.figure {
            Some(name) => run_figure(addr, name),
            None => run_remote(addr, &args.spec),
        },
    }
}
