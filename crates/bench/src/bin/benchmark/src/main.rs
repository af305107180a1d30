//! The repository's benchmark: five wire-level workloads driven against
//! real `milr` child processes, end-to-end metrics from untraced runs,
//! per-layer metrics from a traced run. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result line last
//! benchmark [--seed N] [--seconds S] [--trace 0]               every workload, untraced then traced
//! benchmark --aa [--seed N]                                    untraced twice, differences vs bounds
//! benchmark --smoke [--trace 1]                                tiny counts, every check, no bounds
//! ```

mod check;
mod harness;
mod layers;
mod procs;
mod replica;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod wire;
mod workloads;

use std::process::ExitCode;

use harness::{cores, run_untraced, Context};
use report::{Better, END_TO_END};
use traced::run_traced;
use workloads::{Spec, SPECS};

/// Seconds a run measures for when `--seconds` is absent; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// `--seconds` of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.25;

/// Parsed command line.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    aa: bool,
    smoke: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: None,
        aa: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a number")?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("invalid --seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("invalid --seconds {text:?}"))?;
            }
            "--trace" => {
                options.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace {other:?} (0 or 1)")),
                });
            }
            "--aa" => options.aa = true,
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.smoke {
        options.seconds = SMOKE_SECONDS;
        options.trace.get_or_insert(false);
    }
    Ok(options)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<bool, String> {
    let options = parse_args()?;
    let context = Context {
        milr: procs::build_program()?,
        scratch: procs::Scratch::create()?,
        smoke: options.smoke,
    };
    print_environment(&options);
    if let Some(name) = &options.workload {
        let spec = Spec::by_name(name).ok_or_else(|| {
            let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name:?}; expected one of {names:?}")
        })?;
        let outcome = if options.trace == Some(true) {
            run_traced(&context, spec, options.seed, options.seconds)?
        } else {
            run_untraced(&context, spec, options.seed, options.seconds)?
        };
        report::print_metrics(spec.name, &outcome.metrics);
        let correct = outcome.failed == 0;
        println!(
            "{}",
            report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
        );
        return Ok(correct);
    }
    if options.aa {
        return self_check(&context, &options);
    }
    let mut correct = true;
    for traced in [false, true] {
        if traced && options.trace == Some(false) {
            break;
        }
        for spec in &SPECS {
            let outcome = if traced {
                run_traced(&context, spec, options.seed, options.seconds)?
            } else {
                run_untraced(&context, spec, options.seed, options.seconds)?
            };
            report::print_metrics(spec.name, &outcome.metrics);
            println!(
                "{:<16} ops_attempted {} ops_failed {} error_rate {:.6}",
                spec.name,
                outcome.attempted,
                outcome.failed,
                outcome.failed as f64 / outcome.attempted.max(1) as f64
            );
            correct &= outcome.failed == 0;
        }
    }
    println!(
        "{}",
        if correct {
            "all pages correct"
        } else {
            "INCORRECT PAGES"
        }
    );
    Ok(correct)
}

/// Records what the numbers were measured on.
fn print_environment(options: &Options) {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!(
        "benchmark seed {} seconds {} nproc {} cpu {cpu:?} rustc {:?} commit {}",
        options.seed,
        options.seconds,
        cores(),
        command("rustc", &["-V"]),
        command("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// `--aa`: the whole untraced benchmark twice on one build; every
/// end-to-end metric's relative difference is printed beside its bound
/// and any excess fails the command.
fn self_check(context: &Context, options: &Options) -> Result<bool, String> {
    let mut within = true;
    for spec in &SPECS {
        let first = run_untraced(context, spec, options.seed, options.seconds)?;
        let second = run_untraced(context, spec, options.seed, options.seconds)?;
        within &= first.failed == 0 && second.failed == 0;
        for ((a, b), definition) in first.metrics.iter().zip(&second.metrics).zip(&END_TO_END) {
            let worse = match definition.better {
                Better::Lower => (b.value - a.value) / a.value,
                Better::Higher => (a.value - b.value) / a.value,
            };
            let ok = worse.abs() <= definition.bound;
            within &= ok;
            println!(
                "{:<16} {:<18} ({} is better) first {:>14.6} second {:>14.6} worse by {:>+8.2}% bound {:>5.1}% {}",
                spec.name,
                a.name,
                definition.better.as_str(),
                a.value,
                b.value,
                worse * 100.0,
                definition.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(within)
}
