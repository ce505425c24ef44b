//! The repo benchmark: four workloads, seven end-to-end metrics, and a
//! per-layer budget timed from outside. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; the result line is last
//! run.sh [--seed N] [--trace] [--sets K]                  every workload, 3 fresh processes each
//! run.sh compare A.json B.json                            apply the BENCHMARK.json bounds
//! ```

mod json;
mod metrics;
mod stats;
mod suite;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use trace::{NoSpans, Recorder};
use workloads::{Outcome, RunOptions, Size};

/// Where the benchmark's files live: beside the manifest this binary was
/// built from (`run.sh` rebuilds it wherever the checkout is).
#[derive(Debug, Clone)]
pub struct Dirs {
    pub bench: PathBuf,
}

impl Dirs {
    pub fn out(&self) -> PathBuf {
        self.bench.join("out")
    }
    pub fn spec(&self) -> PathBuf {
        self.bench.join("..").join("BENCHMARK.json")
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    dirs: Dirs,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `--trace 1` (one run) or a bare `--trace` (the suite).
    trace: bool,
    size: Size,
    sets: Option<usize>,
    report: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        dirs: Dirs {
            bench: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        },
        positional: Vec::new(),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        size: Size::Full,
        sets: None,
        report: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<u64, String> {
        text.parse::<u64>()
            .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => cli.seed = number(value(&mut i, "--seed")?, "--seed")?,
            "--seconds" => {
                let text = value(&mut i, "--seconds")?;
                let seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                cli.seconds =
                    Some(seconds.ok_or_else(|| format!("--seconds: `{text}` is not a duration"))?);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--size" => {
                cli.size = match value(&mut i, "--size")?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size: `{other}` is neither full nor smoke")),
                }
            }
            "--sets" => {
                cli.sets = Some(number(value(&mut i, "--sets")?, "--sets")?.max(2) as usize)
            }
            "--report" => cli.report = Some(PathBuf::from(value(&mut i, "--report")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => cli.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(cli)
}

/// `run_seconds` of `BENCHMARK.json`: the floor on measured time a run
/// uses when `--seconds` is not given.
fn default_seconds(dirs: &Dirs) -> f64 {
    std::fs::read_to_string(dirs.spec())
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|spec| spec.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

/// Everything one run found, as written to `--report` files.
fn report_json(workload: &str, opts: &RunOptions, traced: bool, outcome: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::int(opts.seed)),
        ("seconds", Json::num(opts.seconds)),
        ("size", Json::str(opts.size.label())),
        ("traced", Json::Bool(traced)),
        ("correct", Json::Bool(outcome.breaches.is_empty())),
        ("attempted", Json::int(outcome.attempted)),
        ("declined", Json::int(outcome.declined)),
        (
            "breaches",
            Json::Arr(outcome.breaches.iter().map(Json::str).collect()),
        ),
        ("digest", Json::str(format!("{:016x}", outcome.digest))),
        ("end_to_end", outcome.end_to_end.to_json()),
        ("per_layer", outcome.per_layer.to_json()),
        ("notes", Json::Obj(outcome.notes.clone())),
    ])
}

/// One run of one workload. Prints every metric by name with its unit,
/// then the result line.
fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    if !workloads::NAMES.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let opts = RunOptions {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or_else(|| default_seconds(&cli.dirs)),
        size: cli.size,
    };
    let outcome = if cli.trace {
        let mut recorder = Recorder::default();
        let outcome = workloads::run(workload, &opts, &mut recorder);
        let dump = Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::int(opts.seed)),
            ("trace", recorder.to_json()),
        ]);
        let path = cli.dirs.out().join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(cli.dirs.out())
            .and_then(|()| std::fs::write(&path, dump.pretty()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome
    } else {
        workloads::run(workload, &opts, &mut NoSpans)
    };
    if let Some(path) = &cli.report {
        std::fs::write(
            path,
            report_json(workload, &opts, cli.trace, &outcome).pretty(),
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let metrics = if cli.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{workload}  seed {}  digest {:016x}",
        opts.seed, outcome.digest
    );
    for (def, value) in metrics.iter() {
        println!("  {:<42} {:>16.6} {}", def.name, value, def.unit);
    }
    for breach in &outcome.breaches {
        eprintln!("BREACH {workload}: {breach}");
    }
    // An operation *fails* when an invariant or an output check breaks.
    // A request the middleware declines for want of a qualified
    // composition is a correct answer: it counts against `success_rate`
    // and is listed as `declined` in the report, not here.
    let line = Json::obj([
        ("correct", Json::Bool(outcome.breaches.is_empty())),
        ("attempted", Json::int(outcome.attempted.max(1))),
        ("failed", Json::int(outcome.breaches.len() as u64)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{}", line.compact());
    Ok(if outcome.breaches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|cli| {
        match (cli.positional.first().map(String::as_str), &cli.workload) {
            (Some("compare"), _) => match cli.positional.as_slice() {
                [_, a, b] => suite::compare(&cli.dirs, a.as_ref(), b.as_ref()),
                _ => Err("usage: compare A.json B.json".to_string()),
            },
            (Some(other), _) => Err(format!("unknown command `{other}`")),
            (None, Some(workload)) => run_one(&cli, workload),
            (None, None) => suite::run(&suite::SuiteOptions {
                dirs: cli.dirs.clone(),
                seed: cli.seed,
                seconds: cli.seconds.unwrap_or_else(|| default_seconds(&cli.dirs)),
                size: cli.size,
                trace: cli.trace,
                sets: cli.sets,
            }),
        }
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("acp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(&args(&[
            "--workload",
            "chaos_full",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("chaos_full"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, Some(12.0), true));
        let cli = parse(&args(&["--trace", "0", "--workload", "figure_mix"])).unwrap();
        assert!(!cli.trace);
        // The suite's bare flag.
        assert!(parse(&args(&["--trace", "--seed", "3"])).unwrap().trace);
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(parse(&args(&["--seed", "-1"])).is_err());
        assert!(parse(&args(&["--seconds", "nan"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
    }

    /// All four workloads at smoke size: output checks hold, a repeat
    /// gives the same digest and the same deterministic metrics, another
    /// seed gives another digest, and a traced run changes neither.
    #[test]
    fn smoke_pass_of_every_workload() {
        for workload in workloads::NAMES {
            let opts = RunOptions {
                seed: 42,
                seconds: 0.0,
                size: Size::Smoke,
            };
            let start = std::time::Instant::now();
            let first = workloads::run(workload, &opts, &mut NoSpans);
            let elapsed = start.elapsed().as_secs_f64();
            assert!(
                first.breaches.is_empty(),
                "{workload}: {:?}",
                first.breaches
            );
            assert!(
                first.attempted > 0 && first.declined <= first.attempted,
                "{workload}"
            );
            for (def, value) in first.end_to_end.iter() {
                assert!(
                    value > 0.0 && value.is_finite(),
                    "{workload}: {} = {value}",
                    def.name
                );
            }
            assert!(
                cfg!(debug_assertions) || elapsed < 2.0,
                "{workload} smoke took {elapsed:.2}s"
            );

            let again = workloads::run(workload, &opts, &mut NoSpans);
            assert_eq!(first.digest, again.digest, "{workload}: repeat digest");
            for name in ["success_rate", "probe_msgs_per_request"] {
                assert_eq!(
                    first.end_to_end.get(name),
                    again.end_to_end.get(name),
                    "{workload}: {name}"
                );
            }

            let other = workloads::run(workload, &RunOptions { seed: 7, ..opts }, &mut NoSpans);
            assert!(
                other.breaches.is_empty(),
                "{workload} seed 7: {:?}",
                other.breaches
            );
            assert_ne!(
                first.digest, other.digest,
                "{workload}: the seed must reach the inputs"
            );

            let mut recorder = Recorder::default();
            let traced = workloads::run(workload, &opts, &mut recorder);
            assert!(
                traced.breaches.is_empty(),
                "{workload} traced: {:?}",
                traced.breaches
            );
            assert_eq!(
                first.digest, traced.digest,
                "{workload}: tracing must not change results"
            );
            assert!(
                traced.per_layer.iter().any(|(_, v)| v != 0.0),
                "{workload}: no layer reported"
            );
            assert!(
                first.per_layer.iter().all(|(_, v)| v == 0.0),
                "{workload}: untraced layers"
            );
            let dump = recorder.to_json();
            assert!(dump
                .get("spans")
                .and_then(Json::as_array)
                .is_some_and(|s| !s.is_empty()));
        }
    }

    #[test]
    fn the_measured_time_floor_adds_cells_but_keeps_the_digest() {
        let base = RunOptions {
            seed: 42,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let floor = RunOptions {
            seconds: 0.5,
            ..base
        };
        let short = workloads::run("chaos_full", &base, &mut NoSpans);
        let long = workloads::run("chaos_full", &floor, &mut NoSpans);
        assert!(long.attempted > short.attempted, "the floor adds cells");
        assert_eq!(
            short.digest, long.digest,
            "the digest covers the base work only"
        );
        assert_eq!(
            short.end_to_end.get("success_rate"),
            long.end_to_end.get("success_rate")
        );
    }

    #[test]
    fn paper_steady_loop_reproduces_run_scenario() {
        let opts = RunOptions {
            seed: 42,
            seconds: 0.0,
            size: Size::Smoke,
        };
        assert!(workloads::paper_steady::replica_matches(&opts));
    }
}
