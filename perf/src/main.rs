//! `perf_suite`: the repository's benchmark. See `perf/README.md`.

mod json;
mod layers;
mod procfs;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perf_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       perf_suite --all [--seed N] [--seconds S]
       perf_suite --smoke [--seed N]
       perf_suite --check-agree A.json B.json
(a run starts `perf_suite --rep NAME --seed N [--toy]` itself,
 once per repetition)";

enum Mode {
    Workload(String),
    /// One isolated repetition of the workload, printed as one line.
    Rep(String),
    All,
    Smoke,
    CheckAgree(String, String),
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Use the workload's `--smoke` size (with `--rep`).
    toy: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut mode, mut seed, mut seconds, mut traced) = (None, 1, run::RUN_SECONDS, false);
    let mut toy = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(value()?)),
            "--all" => mode = Some(Mode::All),
            "--smoke" => mode = Some(Mode::Smoke),
            "--rep" => mode = Some(Mode::Rep(value()?)),
            "--toy" => toy = true,
            "--check-agree" => mode = Some(Mode::CheckAgree(value()?, value()?)),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds takes a number from 0 to 600".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --all, --smoke, --check-agree is needed")?,
        seed,
        seconds,
        traced,
        toy,
    })
}

fn find(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })
}

/// The child's side of an end-to-end run: one repetition, one line.
fn rep(name: &str, args: &Args) -> Result<bool, String> {
    let w = find(name)?;
    let w = if args.toy { w.toy() } else { *w };
    println!("{}", run::isolated_rep_line(&w, args.seed).render());
    Ok(true)
}

/// Runs one workload; prints every metric, writes the run's record (and
/// trace) under `perf/out/`, and ends with the one-line result.
fn workload(name: &str, args: &Args) -> Result<bool, String> {
    let w = find(name)?;
    println!("{}: {}", w.name, w.why);
    let record = run::run_workload(w, args.seed, args.seconds, args.traced)?;
    record.print();
    suite::write_file(&suite::record_path(w.name, args.traced), &record.to_json())?;
    if let Some(chrome_trace) = &record.chrome_trace {
        let path = Path::new(suite::OUT_DIR).join(format!("{}.trace.json", w.name));
        suite::write_file(&path, chrome_trace)?;
    }
    println!("{}", record.result_line().render());
    Ok(record.tally.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| match &args.mode {
        Mode::Workload(name) => workload(name, &args),
        Mode::Rep(name) => rep(name, &args),
        Mode::All => suite::all(args.seed, args.seconds),
        Mode::Smoke => suite::smoke(args.seed),
        Mode::CheckAgree(a, b) => suite::check_agree(Path::new(a), Path::new(b)),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf_suite: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed = parse_args(&args(
            "--workload curl-8.solo --seed 7 --seconds 12 --trace 1",
        ))
        .expect("parses");
        assert!(matches!(parsed.mode, Mode::Workload(name) if name == "curl-8.solo"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.traced),
            (7, 12.0, true)
        );
    }

    #[test]
    fn defaults_and_errors() {
        let parsed = parse_args(&args("--all")).expect("parses");
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.traced),
            (1, run::RUN_SECONDS, false)
        );
        for bad in [
            "",
            "--seed 1",
            "--workload",
            "--all --trace 2",
            "--all --seconds -1",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    /// `BENCHMARK.json` restates constants of this package; the two must
    /// not drift apart.
    #[test]
    fn benchmark_json_mirrors_the_constants() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| match json.get(key) {
            Some(Json::Arr(rows)) => rows.clone(),
            _ => panic!("BENCHMARK.json has no array {key}"),
        };
        let text_of =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).map(str::to_string);

        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(run::RUN_SECONDS)
        );

        let listed: Vec<_> = rows("workloads")
            .iter()
            .map(|row| (text_of(row, "name"), text_of(row, "why")))
            .collect();
        let own: Vec<_> = workloads::WORKLOADS
            .iter()
            .map(|w| (Some(w.name.to_string()), Some(w.why.to_string())))
            .collect();
        assert_eq!(listed, own);
        assert!(workloads::WORKLOADS.iter().all(|w| w.why.len() <= 200));

        let listed: Vec<_> = rows("end_to_end")
            .iter()
            .map(|row| {
                assert_eq!(text_of(row, "better").as_deref(), Some("lower"));
                (
                    text_of(row, "name"),
                    text_of(row, "unit"),
                    row.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let own: Vec<_> = run::END_TO_END
            .iter()
            .map(|&(name, unit, bound, _)| {
                (Some(name.to_string()), Some(unit.to_string()), Some(bound))
            })
            .collect();
        assert_eq!(listed, own);

        let listed: Vec<_> = rows("per_layer")
            .iter()
            .map(|row| {
                (
                    text_of(row, "name"),
                    text_of(row, "unit"),
                    text_of(row, "better"),
                )
            })
            .collect();
        let own: Vec<_> = layers::LAYER_METRICS
            .iter()
            .map(|&(name, unit, better)| {
                (
                    Some(name.to_string()),
                    Some(unit.to_string()),
                    Some(better.to_string()),
                )
            })
            .collect();
        assert_eq!(listed, own);
    }
}
