//! Whole-suite commands: `--all` (every workload, each in a child process of
//! its own), `--check-agree` (two result files against the bounds) and
//! `--smoke` (every workload at toy size, wiring only).

use crate::json::Json;
use crate::run::{run_workload, show, END_TO_END};
use crate::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Where a run leaves its files, relative to the directory the command is
/// started from (the repository root).
pub const OUT_DIR: &str = "perf/out";

pub fn record_path(workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "end_to_end" };
    Path::new(OUT_DIR).join(format!("{workload}.{kind}.json"))
}

pub fn write_file(path: &Path, json: &Json) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    std::fs::create_dir_all(OUT_DIR).map_err(failed)?;
    std::fs::write(path, json.render_pretty()).map_err(failed)
}

fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            let text = String::from_utf8_lossy(&output.stdout);
            text.lines().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn number(json: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(json, |at, key| at.get(key))
        .and_then(Json::as_f64)
}

/// Where a run's record keeps the numbers the derived metrics divide.
const WALL_S: [&str; 4] = ["untraced", "end_to_end", "wall_s", "value"];
const CPU_S: [&str; 4] = ["untraced", "end_to_end", "cpu_s", "value"];
const SOLVER_BUSY_S: [&str; 4] = ["traced", "per_layer", "solver.busy_s", "value"];

/// Ratios between two workloads, which only `--all` can report: name, the
/// numerator's workload, the denominator's, and the number both contribute.
const DERIVED: [(&str, &str, &str, [&str; 4]); 4] = [
    (
        "cluster.speedup",
        "memcached-4x5.tests.solo",
        "memcached-4x5.tests.cluster2",
        WALL_S,
    ),
    (
        "cluster.cpu_overhead",
        "memcached-4x5.tests.cluster2",
        "memcached-4x5.tests.solo",
        CPU_S,
    ),
    ("threads.speedup", "curl-8.solo", "curl-8.threads2", WALL_S),
    (
        "threads.solver_busy_ratio",
        "curl-8.threads2",
        "curl-8.solo",
        SOLVER_BUSY_S,
    ),
];

/// Runs every workload twice — untraced for the end-to-end metrics, traced
/// for the per-layer ones — each run in a child process, so that peak
/// memory is per workload; writes `perf/out/results.json`.
pub fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for (kind, traced) in [("untraced", false), ("traced", true)] {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("cannot start the run of {}: {e}", w.name))?;
            // A run that counted failures exits non-zero after writing its
            // record; one that crashed wrote none.
            let path = record_path(w.name, traced);
            let record =
                read_file(&path).map_err(|e| format!("{e} (the run ended with {status})"))?;
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            attempted += number(&record, &["attempted"]).unwrap_or(0.0);
            failed += number(&record, &["failed"]).unwrap_or(0.0);
            runs.push((kind.to_string(), record));
        }
        workloads.push((w.name.to_string(), Json::Obj(runs)));
    }
    let workloads = Json::Obj(workloads);

    let mut derived = Vec::new();
    println!("\nacross workloads:");
    for (name, numerator, denominator, at) in DERIVED {
        let of = |workload| number(&workloads, &[&[workload], &at[..]].concat());
        if let (Some(n), Some(d)) = (of(numerator), of(denominator)) {
            println!("  {name:<26} ratio  {:>16.6}", n / d);
            derived.push((
                name.to_string(),
                Json::Obj(vec![
                    ("unit".into(), Json::Str("ratio".into())),
                    ("value".into(), Json::Num(n / d)),
                ]),
            ));
        }
    }
    let set_wall_s = started.elapsed().as_secs_f64();
    println!(
        "operations: {attempted} attempted, {failed} failed; the whole set took {set_wall_s:.1} s"
    );

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Json::Obj(vec![
        (
            "commit".into(),
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "rustc".into(),
            Json::Str(first_line_of("rustc", &["--version"])),
        ),
        ("seed".into(), Json::Num(seed as f64)),
        ("run_seconds".into(), Json::Num(seconds)),
        ("set_wall_s".into(), Json::Num(set_wall_s)),
        ("attempted".into(), Json::Num(attempted)),
        ("failed".into(), Json::Num(failed)),
        ("workloads".into(), workloads),
        ("derived".into(), Json::Obj(derived)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    write_file(&path, &results)?;
    println!("wrote {}", path.display());
    Ok(failed == 0.0)
}

/// Compares the end-to-end values of two `results.json` files; `Ok(true)` if
/// every workload × metric pair agrees within the metric's bound.
pub fn check_agree(a: &Path, b: &Path) -> Result<bool, String> {
    let (a_json, b_json) = (read_file(a)?, read_file(b)?);
    println!(
        "{:<30} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut agree = true;
    for w in &WORKLOADS {
        for (metric, unit, bound, _) in END_TO_END {
            let path = [
                "workloads",
                w.name,
                "untraced",
                "end_to_end",
                metric,
                "value",
            ];
            let value_of = |json: &Json, file: &Path| {
                number(json, &path)
                    .filter(|value| *value > 0.0)
                    .ok_or_else(|| {
                        format!("{}: no value of {metric} for {}", file.display(), w.name)
                    })
            };
            let (a_value, b_value) = (value_of(&a_json, a)?, value_of(&b_json, b)?);
            let diff = (b_value - a_value).abs() / a_value;
            let verdict = if diff > bound { "  DISAGREE" } else { "" };
            agree &= diff <= bound;
            println!(
                "{:<30} {:<18} {:>14} {:>14} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                format!("{metric} ({unit})"),
                show(a_value),
                show(b_value),
                100.0 * diff,
                100.0 * bound
            );
        }
    }
    println!(
        "{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(agree)
}

/// Every workload at toy size, once untraced and once traced, in this
/// process. Checks wiring only: counts consistent within a run and between
/// shapes, spans nest, every per-layer metric is a number, the records
/// render to JSON that parses back. Writes nothing.
pub fn smoke(seed: u64) -> Result<bool, String> {
    let mut problems = Vec::new();
    let mut paths: Vec<(&str, u64)> = Vec::new();
    for w in &WORKLOADS {
        let toy = w.toy();
        for traced in [false, true] {
            // No time budget: the minimum number of repetitions.
            let record = run_workload(&toy, seed, 0.0, traced)?;
            let kind = if traced { "traced" } else { "untraced" };
            println!(
                "smoke {:<30} {kind:<9} {} paths, {} tests, {} attempted, {} failed",
                w.name, record.paths, record.tests, record.tally.attempted, record.tally.failed
            );
            for note in &record.tally.notes {
                problems.push(format!("{} ({kind}): {note}", w.name));
            }
            for json in [record.to_json(), record.result_line()] {
                if Json::parse(&json.render_pretty()).as_ref() != Ok(&json) {
                    problems.push(format!("{} ({kind}): record does not parse back", w.name));
                }
            }
            if let Some(layers) = &record.layers {
                let value = |name: &str| {
                    layers
                        .iter()
                        .find(|m| m.0 == name)
                        .map_or(f64::NAN, |m| m.1)
                };
                for (name, value) in layers {
                    if !value.is_finite() {
                        problems.push(format!("{}: {name} is {value}", w.name));
                    }
                }
                let parts = value("vm.interp_s") + value("solver.busy_s");
                if (parts - value("core.quantum_s")).abs() > 1e-9 {
                    problems.push(format!("{}: interp + solver != quantum time", w.name));
                }
                if value("core.quanta") < 1.0 {
                    problems.push(format!("{}: no quantum was traced", w.name));
                }
            }
            paths.push((w.name, record.paths));
        }
    }
    // The same seed, traced or not, and the same program in another shape
    // explore the same paths.
    let same_program = [
        ("curl-8.solo", "curl-8.threads2"),
        ("memcached-4x5.tests.solo", "memcached-4x5.tests.cluster2"),
    ];
    for (i, (name, count)) in paths.iter().enumerate() {
        for (other, other_count) in &paths[i + 1..] {
            let comparable = name == other || same_program.contains(&(name, other));
            if comparable && count != other_count {
                problems.push(format!(
                    "{name} counted {count} paths, {other} {other_count}"
                ));
            }
        }
    }
    for problem in &problems {
        println!("smoke FAILED: {problem}");
    }
    println!("smoke: {} problems", problems.len());
    Ok(problems.is_empty())
}
