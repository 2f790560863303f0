//! One workload run: repetitions inside a time budget (each in a process of
//! its own for the end-to-end run, all in this process for the traced one),
//! the correctness tally, and the record the run leaves.

use crate::json::Json;
use crate::layers::{self, Metrics, LAYER_METRICS};
use crate::procfs::peak_rss_mb;
use crate::stats::{median, Gate, Summary};
use crate::trace::Tracer;
use crate::workloads::{Reference, Rep, Workload};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The end-to-end metrics: name, unit, the share of the parent's value by
/// which a later change may worsen it, and the statistic that is the value.
/// All are better when lower. `BENCHMARK.json` lists the same rows.
pub const END_TO_END: [(&str, &str, f64, Gate); 4] = [
    ("wall_s", "s", 0.25, Gate::Fastest),
    ("cpu_s", "s", 0.25, Gate::Fastest),
    ("peak_rss_mb", "MB", 0.15, Gate::Median),
    ("setup_s", "s", 0.25, Gate::Fastest),
];

/// How long one run measures unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 25.0;
/// Timed repetitions a run makes even when the time budget is already spent.
const MIN_TIMED_REPS: usize = 3;
/// A set-up takes microseconds, so one `setup_s` sample is the mean of a
/// batch of set-ups. Samples are taken before every repetition, so that they
/// spread over the whole run (and over as many processes as it has
/// repetitions: a process's samples are all near 2.7 µs or all near 3.9 µs,
/// depending on where its heap landed) and a burst of interference on the
/// machine spoils only some of them.
const SETUP_BATCH: usize = 256;
const SETUP_SAMPLES_PER_REP: usize = 5;
/// Share of a traced run's time budget spent on repetitions; the probes
/// take the rest.
const TRACED_REP_SHARE: f64 = 0.5;

/// What a repetition counted: all the correctness check looks at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub paths: u64,
    pub tests: u64,
    pub divergences: u64,
    pub unknowns: u64,
    /// An exhaustive run that ended with jobs still queued.
    pub work_left: bool,
}

impl Counts {
    fn of(rep: &Rep) -> Counts {
        Counts {
            paths: rep.paths(),
            tests: rep.tests,
            divergences: rep.total(|s| s.replay_divergences),
            unknowns: rep.total(|s| s.solver.unknowns),
            work_left: rep.work_left,
        }
    }
}

/// Attempted and failed operations of a run.
///
/// Every repetition attempts the reference number of paths (and of test
/// cases where they are generated); it fails by each path or test it is off
/// by, each replay divergence, each solver `Unknown`, and once more if an
/// exhaustive run ended with work left.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// What later repetitions are held to when nothing is pinned: the
    /// first repetition's counts.
    first: Option<Reference>,
}

impl Tally {
    fn fail(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("{count} × {what}"));
        }
    }

    fn check(&mut self, w: &Workload, seed: u64, counted: &Counts) {
        let own = Reference {
            paths: counted.paths,
            tests: counted.tests,
        };
        let expected = match w.reference {
            Some(pinned) if w.budget.is_none() || seed == 1 => pinned,
            _ => *self.first.get_or_insert(own),
        };
        self.attempted += (expected.paths + expected.tests).max(1);
        self.fail(own.paths.abs_diff(expected.paths), "path off the reference");
        self.fail(
            own.tests.abs_diff(expected.tests),
            "test case off the reference",
        );
        if w.tests {
            self.fail(own.tests.abs_diff(own.paths), "path without its test case");
        }
        self.fail(counted.divergences, "replay divergence");
        self.fail(counted.unknowns, "solver Unknown");
        self.fail(
            u64::from(counted.work_left),
            "exhaustive run ended with work left",
        );
    }
}

/// What a run leaves behind.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub tally: Tally,
    /// Counts of the last repetition (all repetitions agree when nothing
    /// failed).
    pub paths: u64,
    pub tests: u64,
    /// Repetitions measured (a traced run's discarded first one excluded).
    pub reps: usize,
    /// Untraced run: one summary per row of [`END_TO_END`].
    pub end_to_end: Option<Vec<Summary>>,
    /// Traced run: one value per row of [`LAYER_METRICS`].
    pub layers: Option<Metrics>,
    /// Traced run: the spans, in Chrome-trace form.
    pub chrome_trace: Option<Json>,
}

/// Repeats `rep` until the time budget is spent: at least `min` times, then
/// for as long as one more repetition of the last one's cost still fits.
fn repeat_within(
    started: Instant,
    seconds: f64,
    min: usize,
    mut rep: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut done = 0;
    loop {
        let rep_started = Instant::now();
        rep()?;
        done += 1;
        let cost = rep_started.elapsed().as_secs_f64();
        if done >= min && started.elapsed().as_secs_f64() + cost > seconds {
            return Ok(());
        }
    }
}

/// One untraced repetition, measured in a process of its own: what a user
/// who starts an exploration sees, with nothing left over from an earlier
/// repetition in the allocator or the caches, and a peak memory that is the
/// repetition's alone.
struct IsolatedRep {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    setup_samples: Vec<f64>,
    counts: Counts,
}

/// The child's side of an isolated repetition (`--rep`): set-up samples, one
/// repetition, and the line the parent reads.
pub fn isolated_rep_line(w: &Workload, seed: u64) -> Json {
    let setup_samples: Vec<f64> = (0..SETUP_SAMPLES_PER_REP)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..SETUP_BATCH {
                w.set_up(seed);
            }
            started.elapsed().as_secs_f64() / SETUP_BATCH as f64
        })
        .collect();
    let rep = w.run(seed, &mut Tracer::new(false));
    let counts = Counts::of(&rep);
    // The worker is gone by now; the high-water mark remembers it.
    Json::Obj(vec![
        ("wall_s".into(), Json::Num(rep.wall_s)),
        ("cpu_s".into(), Json::Num(rep.cpu_s)),
        ("peak_rss_mb".into(), Json::Num(peak_rss_mb())),
        (
            "setup_samples".into(),
            Json::Arr(setup_samples.into_iter().map(Json::Num).collect()),
        ),
        ("paths".into(), Json::Num(counts.paths as f64)),
        ("tests".into(), Json::Num(counts.tests as f64)),
        ("divergences".into(), Json::Num(counts.divergences as f64)),
        ("unknowns".into(), Json::Num(counts.unknowns as f64)),
        ("work_left".into(), Json::Bool(counts.work_left)),
    ])
}

fn parse_isolated_rep(line: &str) -> Result<IsolatedRep, String> {
    let json = Json::parse(line)?;
    let number = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("repetition line has no number {key}"))
    };
    let setup_samples = match json.get("setup_samples") {
        Some(Json::Arr(samples)) => samples.iter().filter_map(Json::as_f64).collect(),
        _ => return Err("repetition line has no setup_samples".into()),
    };
    Ok(IsolatedRep {
        wall_s: number("wall_s")?,
        cpu_s: number("cpu_s")?,
        peak_rss_mb: number("peak_rss_mb")?,
        setup_samples,
        counts: Counts {
            paths: number("paths")? as u64,
            tests: number("tests")? as u64,
            divergences: number("divergences")? as u64,
            unknowns: number("unknowns")? as u64,
            // Anything but a plain `false` counts as work left.
            work_left: json.get("work_left") != Some(&Json::Bool(false)),
        },
    })
}

/// Starts this executable again for one repetition and waits for it.
fn spawn_isolated_rep(w: &Workload, seed: u64) -> Result<IsolatedRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--rep", w.name, "--seed", &seed.to_string()]);
    if w.toy {
        command.arg("--toy");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition of {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!(
            "a repetition of {} ended with {}",
            w.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_isolated_rep(stdout.lines().last().unwrap_or_default())
}

/// The end-to-end run: isolated repetitions until the time budget is spent.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Result<Record, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut reps: Vec<IsolatedRep> = Vec::new();
    repeat_within(started, seconds, MIN_TIMED_REPS, || {
        let rep = spawn_isolated_rep(w, seed)?;
        tally.check(w, seed, &rep.counts);
        reps.push(rep);
        Ok(())
    })?;
    let column = |value: fn(&IsolatedRep) -> f64| -> Vec<f64> { reps.iter().map(value).collect() };
    let setup_samples: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.setup_samples.iter().copied())
        .collect();
    let last = reps.last().expect("at least one repetition");
    Ok(Record {
        workload: w.name,
        seed,
        paths: last.counts.paths,
        tests: last.counts.tests,
        reps: reps.len(),
        tally,
        end_to_end: Some(vec![
            Summary::of(&column(|rep| rep.wall_s)),
            Summary::of(&column(|rep| rep.cpu_s)),
            Summary::of(&column(|rep| rep.peak_rss_mb)),
            Summary::of(&setup_samples),
        ]),
        layers: None,
        chrome_trace: None,
    })
}

/// The per-layer run, all in this process: a discarded repetition (so that
/// the repetitions compared below both run warm), then untraced and traced
/// repetitions alternating (so that slow drift of the machine cancels out of
/// `trace.overhead`) for a share of the time budget, then the probes.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Record, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let mut checked_rep = |tracer: &mut Tracer| {
        let rep = w.run(seed, tracer);
        tally.check(w, seed, &Counts::of(&rep));
        rep
    };
    checked_rep(&mut tracer);

    let mut measured = Metrics::new();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    repeat_within(started, seconds * TRACED_REP_SHARE, 1, || {
        untraced_walls.push(checked_rep(&mut tracer).wall_s);
        tracer.set_on(true);
        let first_span = tracer.spans().len();
        let rep = checked_rep(&mut tracer);
        tracer.set_on(false);
        measured.extend(layers::rep_metrics(w, &rep, &tracer, first_span));
        traced_walls.push(rep.wall_s);
        last = Some(rep);
        Ok(())
    })?;
    measured.push((
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    ));

    tracer.set_on(true);
    let last = last.expect("at least one traced repetition");
    let instructions = last.total(|s| s.useful_instructions);
    let (probed, failures) = layers::probe(w, seed, instructions, &mut tracer);
    measured.extend(probed);
    tally.attempted += 1;
    tally.fail(failures.divergences, "replay divergence in a probe");
    tally.fail(failures.unknowns, "solver Unknown in a probe");
    if let Err(broken) = tracer.check_nesting() {
        tally.fail(1, &broken);
    }
    Ok(Record {
        workload: w.name,
        seed,
        paths: last.paths(),
        tests: last.tests,
        reps: untraced_walls.len() + traced_walls.len(),
        tally,
        end_to_end: None,
        layers: Some(layers::in_table_order(&measured)),
        chrome_trace: Some(tracer.chrome_trace()),
    })
}

pub fn run_workload(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Record, String> {
    if traced {
        run_traced(w, seed, seconds)
    } else {
        run_untraced(w, seed, seconds)
    }
}

/// Six decimals for everyday magnitudes, exponent form for the very small
/// (a set-up takes microseconds).
pub fn show(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.4e}")
    } else {
        format!("{value:.6}")
    }
}

impl Record {
    /// The result line the benchmark contract asks for: `correct`,
    /// `attempted`, `failed`, and the run's metrics as `{value, unit}`.
    pub fn result_line(&self) -> Json {
        let metric = |name: &str, value: f64, unit: &str| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        };
        let mut metrics = Vec::new();
        if let Some(summaries) = &self.end_to_end {
            for ((name, unit, _, gate), summary) in END_TO_END.iter().zip(summaries) {
                metrics.push(metric(name, gate.of(summary), unit));
            }
        }
        if let Some(layers) = &self.layers {
            for ((name, unit, _), (_, value)) in LAYER_METRICS.iter().zip(layers) {
                metrics.push(metric(name, *value, unit));
            }
        }
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.tally.failed == 0)),
            ("attempted".into(), Json::Num(self.tally.attempted as f64)),
            ("failed".into(), Json::Num(self.tally.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// The full record, as `--all` collects it into `results.json`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("attempted".into(), Json::Num(self.tally.attempted as f64)),
            ("failed".into(), Json::Num(self.tally.failed as f64)),
            (
                "failures".into(),
                Json::Arr(self.tally.notes.iter().cloned().map(Json::Str).collect()),
            ),
            ("paths".into(), Json::Num(self.paths as f64)),
            ("tests".into(), Json::Num(self.tests as f64)),
            ("reps".into(), Json::Num(self.reps as f64)),
        ];
        if let Some(summaries) = &self.end_to_end {
            let rows = END_TO_END.iter().zip(summaries);
            fields.push((
                "end_to_end".into(),
                Json::Obj(
                    rows.map(|((name, unit, _, gate), s)| {
                        (name.to_string(), s.to_json(unit, *gate))
                    })
                    .collect(),
                ),
            ));
        }
        if let Some(layers) = &self.layers {
            let rows = LAYER_METRICS.iter().zip(layers);
            fields.push((
                "per_layer".into(),
                Json::Obj(
                    rows.map(|((name, unit, _), (_, value))| {
                        let fields = vec![
                            ("unit".into(), Json::Str(unit.to_string())),
                            ("value".into(), Json::Num(*value)),
                        ];
                        (name.to_string(), Json::Obj(fields))
                    })
                    .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Every metric by name, with its unit, for a person to read.
    pub fn print(&self) {
        println!(
            "{}  seed {}  {} repetitions  {} paths, {} test cases",
            self.workload, self.seed, self.reps, self.paths, self.tests
        );
        if let Some(summaries) = &self.end_to_end {
            println!(
                "  {:<12} {:<5} {:>3} {:>14} {:<7} {:>14} {:>14} {:>14} {:>14} {:>14}",
                "metric", "unit", "n", "value", "", "median", "min", "q1", "q3", "max"
            );
            for ((name, unit, _, gate), s) in END_TO_END.iter().zip(summaries) {
                println!(
                    "  {:<12} {:<5} {:>3} {:>14} {:<7} {:>14} {:>14} {:>14} {:>14} {:>14}",
                    name,
                    unit,
                    s.samples.len(),
                    show(gate.of(s)),
                    format!("={}", gate.name()),
                    show(s.median),
                    show(s.min),
                    show(s.q1),
                    show(s.q3),
                    show(s.max)
                );
            }
            println!(
                "  paths_per_s  1/s       {:>14.1}   (paths / wall_s; not gated)",
                self.paths as f64 / END_TO_END[0].3.of(&summaries[0])
            );
        }
        if let Some(layers) = &self.layers {
            for ((name, unit, _), (_, value)) in LAYER_METRICS.iter().zip(layers) {
                println!("  {name:<26} {unit:<6} {:>16}", show(*value));
            }
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.tally.attempted, self.tally.failed
        );
        for note in &self.tally.notes {
            println!("  FAILED: {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn rep(paths: u64, tests: u64) -> Counts {
        Counts {
            paths,
            tests,
            divergences: 0,
            unknowns: 0,
            work_left: false,
        }
    }

    #[test]
    fn a_repetition_on_the_reference_attempts_and_fails_nothing() {
        let w = &WORKLOADS[2];
        let mut tally = Tally::default();
        tally.check(w, 7, &rep(11_644, 11_644));
        assert_eq!((tally.attempted, tally.failed), (23_288, 0));
    }

    #[test]
    fn every_kind_of_failure_is_counted() {
        let w = &WORKLOADS[2];
        let mut tally = Tally::default();
        let mut bad = rep(11_640, 11_644);
        bad.work_left = true;
        bad.divergences = 2;
        bad.unknowns = 3;
        tally.check(w, 1, &bad);
        // 4 paths off, 4 paths without a test, 2 divergences, 3 unknowns,
        // 1 unexhausted tree.
        assert_eq!(tally.failed, 4 + 4 + 2 + 3 + 1);
        assert_eq!(tally.notes.len(), 5);
    }

    #[test]
    fn a_budgeted_run_is_pinned_only_for_seed_one() {
        let w = &WORKLOADS[1];
        let mut pinned = Tally::default();
        pinned.check(w, 1, &rep(8_000, 0));
        assert_eq!(pinned.failed, 563);

        let mut agreeing = Tally::default();
        agreeing.check(w, 2, &rep(8_000, 0));
        agreeing.check(w, 2, &rep(8_000, 0));
        assert_eq!((agreeing.attempted, agreeing.failed), (16_000, 0));
        agreeing.check(w, 2, &rep(8_001, 0));
        assert_eq!(agreeing.failed, 1);
    }

    #[test]
    fn repeat_within_honours_the_minimum_and_the_budget() {
        let mut count = 0;
        let ok = repeat_within(Instant::now(), 0.0, 3, || {
            count += 1;
            Ok(())
        });
        assert_eq!((ok, count), (Ok(()), 3));

        let mut count = 0;
        let ok = repeat_within(Instant::now(), 0.05, 1, || {
            count += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(())
        });
        assert!(
            ok.is_ok() && (2..=5).contains(&count),
            "{count} repetitions of 10 ms in 50 ms"
        );

        let mut count = 0;
        let failed = repeat_within(Instant::now(), 60.0, 1, || {
            count += 1;
            Err("child died".to_string())
        });
        assert_eq!((failed, count), (Err("child died".to_string()), 1));
    }

    #[test]
    fn an_isolated_repetition_line_parses_back() {
        let line = r#"{"wall_s": 1.5, "cpu_s": 1.25, "peak_rss_mb": 52.5, "setup_samples": [0.000003, 0.000004], "paths": 11644, "tests": 11644, "divergences": 0, "unknowns": 2, "work_left": false}"#;
        let rep = parse_isolated_rep(line).expect("parses");
        assert_eq!((rep.wall_s, rep.cpu_s, rep.peak_rss_mb), (1.5, 1.25, 52.5));
        assert_eq!(rep.setup_samples, vec![0.000003, 0.000004]);
        let counts = Counts {
            paths: 11_644,
            tests: 11_644,
            divergences: 0,
            unknowns: 2,
            work_left: false,
        };
        assert_eq!(rep.counts, counts);
        assert!(parse_isolated_rep("").is_err());
        assert!(parse_isolated_rep(r#"{"wall_s": 1.5}"#).is_err());
    }
}
