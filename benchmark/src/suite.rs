//! The whole benchmark in one command, and comparing two of its results.
//!
//! Every end-to-end number is the median of several repeats, each in a
//! fresh process so `VmHWM` is clean, with min and max recorded beside
//! it. All repeats of one (workload, seed) must give the same result
//! digest. `--sets K` repeats the whole exercise K times and records how
//! far the medians of identical code drift apart: the noise floor the
//! bounds in `BENCHMARK.json` are derived from.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats;
use crate::workloads::{Size, NAMES};
use crate::Dirs;

/// Fresh processes per workload and set; metrics are their median.
const REPEATS: usize = 3;

pub struct SuiteOptions {
    pub dirs: Dirs,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub trace: bool,
    pub sets: Option<usize>,
}

/// Runs one workload once, in a fresh process, and returns its report.
fn run_child(opts: &SuiteOptions, workload: &str, trace: bool, tag: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let report = opts.dirs.out().join(format!("run-{workload}-{tag}.json"));
    let status = Command::new(exe)
        .args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args([
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--size", opts.size.label()])
        .arg("--report")
        .arg(&report)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let text = std::fs::read_to_string(&report)
        .map_err(|e| format!("{workload} ({tag}) left no report ({status}): {e}"))?;
    // The per-run report is folded into the workload's file; do not keep it.
    let _ = std::fs::remove_file(&report);
    Json::parse(&text)
}

fn metric_value(report: &Json, group: &str, name: &str) -> f64 {
    report
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// One set: every workload, [`REPEATS`] fresh processes each (plus one
/// traced), folded into the summary object. Breaches are appended to
/// `breaches` with the offending workload in front.
fn run_set(opts: &SuiteOptions, breaches: &mut Vec<String>) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for workload in NAMES {
        let mut reports = Vec::new();
        for repeat in 0..REPEATS {
            eprintln!("  {workload}: repeat {}/{}", repeat + 1, REPEATS);
            reports.push(run_child(opts, workload, false, &format!("r{repeat}"))?);
        }
        let digest = |r: &Json| {
            r.get("digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        if reports.iter().any(|r| digest(r) != digest(&reports[0])) {
            let seen: Vec<String> = reports.iter().map(digest).collect();
            breaches.push(format!(
                "{workload}: repeats of seed {} disagree on the digest: {seen:?}",
                opts.seed
            ));
        }
        let mut broken = 0;
        for report in &reports {
            for breach in report
                .get("breaches")
                .and_then(Json::as_array)
                .unwrap_or(&[])
            {
                breaches.push(format!("{workload}: {}", breach.as_str().unwrap_or("?")));
                broken += 1;
            }
        }

        let end_to_end = END_TO_END.iter().map(|def| {
            let values: Vec<f64> = reports
                .iter()
                .map(|r| metric_value(r, "end_to_end", def.name))
                .collect();
            let mut sorted = values.clone();
            stats::sort(&mut sorted);
            let entry = Json::obj([
                ("unit", Json::str(def.unit)),
                ("median", Json::num(stats::median(&values))),
                ("min", Json::num(sorted[0])),
                ("max", Json::num(sorted[sorted.len() - 1])),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::num(v)).collect()),
                ),
            ]);
            (def.name.to_string(), entry)
        });
        let first = &reports[0];
        let count = |key: &str| first.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut entry = vec![
            ("digest".to_string(), Json::str(digest(first))),
            ("attempted".to_string(), Json::num(count("attempted"))),
            ("declined".to_string(), Json::num(count("declined"))),
            // Requests not composed plus invariant breaches, over requests
            // submitted: the share of operations that did not succeed.
            (
                "failed_share".to_string(),
                Json::num((count("declined") + f64::from(broken)) / count("attempted").max(1.0)),
            ),
            ("end_to_end".to_string(), Json::Obj(end_to_end.collect())),
            (
                "notes".to_string(),
                first.get("notes").cloned().unwrap_or(Json::Null),
            ),
        ];
        if opts.trace {
            eprintln!("  {workload}: traced run");
            let traced = run_child(opts, workload, true, "traced")?;
            if digest(&traced) != digest(first) {
                breaches.push(format!(
                    "{workload}: the traced run's digest differs from the untraced one"
                ));
            }
            entry.push((
                "per_layer".to_string(),
                traced.get("per_layer").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push((workload.to_string(), Json::Obj(entry)));
    }
    Ok(Json::obj([
        ("seed", Json::int(opts.seed)),
        ("size", Json::str(opts.size.label())),
        ("seconds", Json::num(opts.seconds)),
        ("repeats", Json::int(REPEATS as u64)),
        (
            "cores",
            Json::int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// Prints every metric of a summary by name, with its unit.
fn print_summary(summary: &Json) {
    for (workload, entry) in summary
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&[])
    {
        let digest = entry.get("digest").and_then(Json::as_str).unwrap_or("");
        println!("{workload}  digest {digest}");
        println!(
            "  {:<42} {:>14} {:>14} {:>14}  unit",
            "end-to-end metric", "median", "min", "max"
        );
        for (name, m) in entry
            .get("end_to_end")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            let field = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!(
                "  {name:<42} {:>14.4} {:>14.4} {:>14.4}  {unit}",
                field("median"),
                field("min"),
                field("max")
            );
        }
        if let Some(layers) = entry.get("per_layer").and_then(Json::as_object) {
            println!(
                "  {:<42} {:>14}  unit",
                "per-layer metric (traced run)", "value"
            );
            for (name, m) in layers {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {name:<42} {value:>14.4}  {unit}");
            }
        }
    }
}

fn write(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, value.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The suite: run, verify, print, write `out/*.json` (and `noise.json`
/// with `--sets`).
pub fn run(opts: &SuiteOptions) -> Result<ExitCode, String> {
    std::fs::create_dir_all(opts.dirs.out())
        .map_err(|e| format!("creating {}: {e}", opts.dirs.out().display()))?;
    let mut breaches = Vec::new();
    let sets = opts.sets.unwrap_or(1);
    let mut summaries = Vec::new();
    for set in 0..sets {
        eprintln!("set {}/{sets}, seed {}", set + 1, opts.seed);
        let summary = run_set(opts, &mut breaches)?;
        if opts.sets.is_some() {
            // Kept so two sets of the same code can be put through `compare`.
            write(
                &opts.dirs.out().join(format!("set-{}.json", set + 1)),
                &summary,
            )?;
        }
        summaries.push(summary);
    }
    let last = summaries.last().expect("at least one set");
    print_summary(last);
    write(&opts.dirs.out().join("summary.json"), last)?;
    for (workload, entry) in last
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&[])
    {
        write(&opts.dirs.out().join(format!("{workload}.json")), entry)?;
    }
    if opts.sets.is_some() {
        let noise = noise_floor(opts, &summaries);
        write(&opts.dirs.bench.join("noise.json"), &noise)?;
        println!(
            "noise floor over {sets} sets written to {}",
            opts.dirs.bench.join("noise.json").display()
        );
    }
    for breach in &breaches {
        eprintln!("BREACH {breach}");
    }
    Ok(if breaches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Inter-set spread of the medians, per metric × workload: (max − min)
/// of the set medians as a share of their median.
fn noise_floor(opts: &SuiteOptions, summaries: &[Json]) -> Json {
    let mut worst: Vec<(String, f64)> = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), 0.0))
        .collect();
    let mut per_workload = Vec::new();
    for workload in NAMES {
        let mut per_metric = Vec::new();
        for (slot, def) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = summaries
                .iter()
                .map(|s| {
                    s.get("workloads")
                        .and_then(|w| w.get(workload))
                        .and_then(|w| w.get("end_to_end"))
                        .and_then(|e| e.get(def.name))
                        .and_then(|m| m.get("median"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                })
                .collect();
            let mut sorted = medians.clone();
            stats::sort(&mut sorted);
            let centre = stats::median(&medians);
            let spread = if centre == 0.0 {
                0.0
            } else {
                (sorted[sorted.len() - 1] - sorted[0]) / centre
            };
            worst[slot].1 = worst[slot].1.max(spread);
            per_metric.push((
                def.name.to_string(),
                Json::obj([
                    (
                        "medians",
                        Json::Arr(medians.iter().map(|&m| Json::num(m)).collect()),
                    ),
                    ("spread", Json::num(spread)),
                ]),
            ));
        }
        per_workload.push((workload.to_string(), Json::Obj(per_metric)));
    }
    Json::obj([
        ("what", Json::str("inter-set spread of medians, same code and seed: (max - min) / median over the sets")),
        ("sets", Json::int(summaries.len() as u64)),
        ("repeats_per_set", Json::int(REPEATS as u64)),
        ("seed", Json::int(opts.seed)),
        ("cores", Json::int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64))),
        ("worst_spread_per_metric", Json::Obj(worst.into_iter().map(|(k, v)| (k, Json::num(v))).collect())),
        ("workloads", Json::Obj(per_workload)),
    ])
}

/// How one metric × workload moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound: not resolved.
    Unresolved,
}

/// The regression rule of `BENCHMARK.json`: B's median may be worse than
/// A's by at most `bound` (a share of A's median).
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Signed worsening as a share of A's median.
    let worsening = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let (all_better, all_worse) = match better {
        Better::Lower => (b_hi < a_lo, b_lo > a_hi),
        Better::Higher => (b_lo > a_hi, b_hi < a_lo),
    };
    let spread = ((a_hi - a_lo) / ma.abs()).max((b_hi - b_lo) / mb.abs().max(f64::MIN_POSITIVE));
    if all_better {
        Verdict::Better
    } else if worsening > bound && (all_worse || spread <= bound) {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn bound_of(spec: &Json, def: &MetricDef) -> Result<f64, String> {
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|list| {
            list.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
        })
        .and_then(|m| m.get("bound").and_then(Json::as_f64))
        .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))
}

/// `compare A.json B.json`: applies the bounds per metric × workload,
/// prints each ratio beside its base, exits non-zero on any "worse".
pub fn compare(dirs: &Dirs, a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let spec_path: PathBuf = dirs.spec();
    let (spec, a, b) = (load(&spec_path)?, load(a)?, load(b)?);
    let values = |summary: &Json, workload: &str, metric: &str| -> Option<Vec<f64>> {
        let list = summary
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("values")?;
        Some(list.as_array()?.iter().filter_map(Json::as_f64).collect())
    };
    let mut worse = 0;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for workload in NAMES {
        for def in END_TO_END {
            let bound = bound_of(&spec, def)?;
            let (Some(va), Some(vb)) = (
                values(&a, workload, def.name),
                values(&b, workload, def.name),
            ) else {
                return Err(format!(
                    "{workload}/{} is missing from one of the files",
                    def.name
                ));
            };
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{} has no values", def.name));
            }
            let verdict = verdict(def.better, bound, &va, &vb);
            worse += usize::from(verdict == Verdict::Worse);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let label = match verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{workload:<14} {:<24} {ma:>14.4} {mb:>14.4} {:>8.4} {bound:>7.3}  {label} ({} is better)",
                def.name,
                if ma == 0.0 { 0.0 } else { mb / ma },
                def.better.label(),
            );
        }
    }
    println!("{worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = Better::Lower;
        // Within the bound.
        assert_eq!(
            verdict(lower, 0.05, &[100.0, 101.0, 99.0], &[102.0, 103.0, 101.0]),
            Verdict::Same
        );
        // Worse by more than the bound, tight runs.
        assert_eq!(
            verdict(lower, 0.05, &[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0]),
            Verdict::Worse
        );
        // Every B run beats every A run.
        assert_eq!(
            verdict(lower, 0.05, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Better
        );
        // Medians differ by more than the bound but runs overlap and the
        // spread is wider than the bound: unresolved, not worse.
        assert_eq!(
            verdict(lower, 0.05, &[100.0, 120.0, 90.0], &[108.0, 95.0, 125.0]),
            Verdict::Unresolved
        );
        // Wide spread, yet every B run is worse than every A run.
        assert_eq!(
            verdict(lower, 0.05, &[100.0, 120.0, 90.0], &[150.0, 130.0, 170.0]),
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        let higher = Better::Higher;
        assert_eq!(
            verdict(higher, 0.05, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(higher, 0.05, &[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0]),
            Verdict::Better
        );
        // Deterministic metric, identical: same.
        assert_eq!(
            verdict(higher, 0.02, &[0.93, 0.93, 0.93], &[0.93, 0.93, 0.93]),
            Verdict::Same
        );
    }
}
