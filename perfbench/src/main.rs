//! The mxq benchmark.  See `README.md` beside `Cargo.toml` for the metric ×
//! workload × layer table and how to read the output.

#![forbid(unsafe_code)]

mod golden;
mod json;
mod layers;
mod measure;
mod scratch;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use measure::{EndToEnd, RunOptions};
use scratch::Scratch;
use stats::{median, quartiles, Distribution};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// Name, unit and regression bound of every end-to-end metric; all are
/// lower-is-better.  `BENCHMARK.json` states the same (a test compares).
/// The bounds are the contract's maximum: on the sizing runs the sandbox's
/// own speed wandered by ±7 % in plateaus of 10–50 s, which put the spread
/// of ten 20 s runs at up to 9 % — a third of nothing tighter.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("op_p50_ms", "ms", 0.25),
    ("op_p90_ms", "ms", 0.25),
    ("read_p50_ms", "ms", 0.25),
    ("read_p90_ms", "ms", 0.25),
    ("setup_s", "s", 0.25),
];

/// Seconds one run measures by default; `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 2.0;

/// Engine knobs read from the environment.  The benchmark fixes each one
/// (scale per workload, single-threaded kernels, stated sync policy and
/// checkpoint interval), so a set variable would silently measure
/// something else.
const GUARDED_ENV: [&str; 6] = [
    "MXQ_SCALE",
    "MXQ_THREADS",
    "MXQ_SYNC",
    "MXQ_MEMORY_BUDGET",
    "MXQ_CHECKPOINT_MS",
    "MXQ_VALIDATE_PLANS",
];

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                 [--out FILE] [--trace-out FILE] [--repeat N] [--strict] [--quick]
  --workload NAME   scan.sf0.1 | join.sf0.1 | adhoc.sf0.001 | rw_durable.sf0.05 (default: all)
  --seed N          seeds the XMark generator and the statement streams (default 42)
  --seconds S       length of the measured window (default 20; 2 with --quick)
  --trace 1         run the fixed-count traced run and print the per-layer metrics
  --out FILE        also write the full report of every run to FILE, one JSON object per line
  --trace-out FILE  with --trace 1: write the spans to FILE, one JSON object per line
  --repeat N        two sets of N runs per workload (seeds N, N+1, ...); prints median, quartiles
                    and spread per end-to-end metric and marks a metric unresolved when a spread
                    or the difference of the two medians exceeds the metric's bound
  --strict          with --repeat: exit with code 3 if a metric is unresolved
  --quick           scales divided by ten, 2 s windows, same code paths";

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    repeat: Option<usize>,
    strict: bool,
    quick: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workloads: Vec::new(),
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            out: None,
            trace_out: None,
            repeat: None,
            strict: false,
            quick: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let workload = workloads::find(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?;
                    if !parsed.workloads.iter().any(|w| w.name == workload.name) {
                        parsed.workloads.push(workload);
                    }
                }
                "--seed" => {
                    let raw = value()?;
                    parsed.seed = raw.parse().map_err(|_| format!("bad --seed `{raw}`"))?;
                }
                "--seconds" => {
                    let raw = value()?;
                    match raw.parse::<f64>() {
                        Ok(s) if s > 0.0 && s <= 600.0 => parsed.seconds = Some(s),
                        _ => return Err(format!("bad --seconds `{raw}`")),
                    }
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                    }
                }
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
                "--repeat" => {
                    let raw = value()?;
                    match raw.parse::<usize>() {
                        Ok(n) if (2..=100).contains(&n) => parsed.repeat = Some(n),
                        _ => return Err(format!("--repeat takes 2..=100, got `{raw}`")),
                    }
                }
                "--strict" => parsed.strict = true,
                "--quick" => parsed.quick = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if parsed.workloads.is_empty() {
            parsed.workloads = WORKLOADS.iter().collect();
        }
        if parsed.repeat.is_some() && parsed.trace {
            return Err("--repeat judges end-to-end metrics; use it with --trace 0".to_string());
        }
        if parsed.trace_out.is_some() && !(parsed.trace && parsed.workloads.len() == 1) {
            return Err("--trace-out needs --trace 1 and exactly one --workload".to_string());
        }
        Ok(parsed)
    }

    fn run_options(&self, seed: u64) -> RunOptions {
        let default = if self.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        };
        RunOptions {
            seed,
            seconds: self.seconds.unwrap_or(default),
            quick: self.quick,
        }
    }
}

/// The names of the guarded variables that are set.
fn guarded_env_set(lookup: impl Fn(&str) -> bool) -> Vec<&'static str> {
    GUARDED_ENV
        .into_iter()
        .filter(|name| lookup(name))
        .collect()
}

fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(PathBuf::from(".git").join(reference))
            .ok()
            .map(|rev| rev.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn rustc_version() -> Option<String> {
    let output = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn environment(workload: &Workload, options: &RunOptions) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("git_rev", Json::Str(git_rev().unwrap_or_else(unknown))),
        ("rustc", Json::Str(rustc_version().unwrap_or_else(unknown))),
        ("seed", Json::Int(options.seed as i64)),
        ("scale", Json::Num(workload.factor(options.quick))),
        ("quick", Json::Bool(options.quick)),
        ("window_s", Json::Num(options.seconds)),
        ("kernel_threads", Json::Int(1)),
        ("exec_config", Json::str("ExecConfig::default()")),
        ("load", Json::str("closed loop")),
    ])
}

/// The five end-to-end values in [`END_TO_END`] order.
fn end_to_end_values(op: &Distribution, read: &Distribution, run: &EndToEnd) -> [f64; 5] {
    [op.p50, op.p90, read.p50, read.p90, run.setup_s()]
}

fn metrics_json(metrics: impl IntoIterator<Item = (&'static str, f64, &'static str)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), Json::metric(value, unit)))
            .collect(),
    )
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(checks: &measure::Checks, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Int(checks.attempted.max(1) as i64)),
        ("failed", Json::Int(checks.failed as i64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Where the full reports go: standard output, and `--out` when given.
struct Reports {
    file: Option<std::fs::File>,
}

impl Reports {
    fn emit(&mut self, report: &Json) -> Result<(), String> {
        use std::io::Write;
        let line = report.render();
        println!("{line}");
        if let Some(file) = &mut self.file {
            writeln!(file, "{line}").map_err(|e| format!("--out: {e}"))?;
        }
        Ok(())
    }
}

/// One measured run: prints the full report, returns the five end-to-end
/// values and the result line.
fn measured_run(
    workload: &Workload,
    options: &RunOptions,
    scratch: &Scratch,
    reports: &mut Reports,
) -> Result<([f64; 5], String), String> {
    eprintln!(
        "[benchmark] {} seed {} — measuring for {} s",
        workload.name, options.seed, options.seconds
    );
    let run = measure::run(workload, options, scratch)?;
    let (op, read) = (Distribution::of(&run.op_ms), Distribution::of(&run.read_ms));
    let values = end_to_end_values(&op, &read, &run);
    let metrics = metrics_json(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| (name, value, unit)),
    );
    reports.emit(&Json::obj([
        ("workload", Json::str(workload.name)),
        ("mode", Json::str("measured")),
        ("environment", environment(workload, options)),
        ("unit_of_work", Json::str(workload.unit)),
        ("end_to_end", metrics.clone()),
        ("op_latency", op.to_json("ms")),
        ("read_latency", read.to_json("ms")),
        (
            "setup",
            Json::obj([
                ("median_s", Json::Num(run.setup_s())),
                (
                    "samples_s",
                    Json::Arr(run.setup_samples_s.iter().map(|&s| Json::Num(s)).collect()),
                ),
                ("xml_generation_s", Json::Num(run.xml_gen_s)),
                ("xml_bytes", Json::Int(run.xml_bytes as i64)),
            ]),
        ),
        ("per_statement", measure::per_statement_json(&run)),
        ("checks", run.checks.to_json()),
        ("details", run.details.clone()),
    ]))?;
    Ok((values, result_line(&run.checks, metrics)))
}

/// One traced run: prints the full report, returns the result line.
fn traced_run(
    workload: &Workload,
    options: &RunOptions,
    scratch: &Scratch,
    reports: &mut Reports,
    trace_out: Option<&PathBuf>,
) -> Result<String, String> {
    eprintln!(
        "[benchmark] {} seed {} — traced run",
        workload.name, options.seed
    );
    let layers = layers::run(workload, options, scratch)?;
    if let Some(path) = trace_out {
        layers
            .tracer
            .write_to(path)
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
    }
    let self_time = Json::Obj(
        layers
            .tracer
            .self_time_by_name()
            .into_iter()
            .map(|(name, (ns, spans))| {
                let fields = [
                    ("self_ns", Json::Int(ns as i64)),
                    ("spans", Json::Int(spans as i64)),
                ];
                (name.to_string(), Json::obj(fields))
            })
            .collect(),
    );
    let metrics = metrics_json(layers.metrics());
    reports.emit(&Json::obj([
        ("workload", Json::str(workload.name)),
        ("mode", Json::str("traced")),
        ("environment", environment(workload, options)),
        ("per_layer", metrics.clone()),
        ("self_time_by_span", self_time),
        ("counts", layers.counts.clone()),
        ("checks", layers.checks.to_json()),
    ]))?;
    Ok(result_line(&layers.checks, metrics))
}

/// `--repeat N`: two sets of N runs, judged the way the driver judges the
/// benchmark.  Returns the summary and whether any metric is unresolved.
fn repeat_check(
    args: &Args,
    runs: usize,
    scratch: &Scratch,
    reports: &mut Reports,
) -> Result<(Json, bool), String> {
    let mut any_unresolved = false;
    let mut per_workload = Vec::new();
    for workload in &args.workloads {
        let mut sets: [Vec<[f64; 5]>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..runs {
                let options = args.run_options(args.seed + i as u64);
                set.push(measured_run(workload, &options, scratch, reports)?.0);
            }
        }
        let mut per_metric = Vec::new();
        for (m, &(name, unit, bound)) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<[f64; 5]>| set.iter().map(|v| v[m]).collect::<Vec<f64>>();
            let (first, second) = (column(&sets[0]), column(&sets[1]));
            let (med1, med2) = (median(&first), median(&second));
            let (spread1, spread2) = (stats::spread(&first), stats::spread(&second));
            // the driver exempts the spread of setup_s, not its medians
            let too_wide = name != "setup_s" && spread1.max(spread2) > bound;
            let moved = (med2 - med1).abs() / med1 > bound;
            let unresolved = too_wide || moved;
            any_unresolved |= unresolved;
            let set_json = |values: &[f64], med: f64, spread: f64| {
                Json::obj([
                    ("median", Json::Num(med)),
                    (
                        "quartiles",
                        Json::Arr(quartiles(values).into_iter().map(Json::Num).collect()),
                    ),
                    ("spread", Json::Num(spread)),
                ])
            };
            per_metric.push((
                name.to_string(),
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("bound", Json::Num(bound)),
                    ("first", set_json(&first, med1, spread1)),
                    ("second", set_json(&second, med2, spread2)),
                    (
                        "verdict",
                        Json::str(if unresolved { "unresolved" } else { "resolved" }),
                    ),
                ]),
            ));
        }
        per_workload.push((workload.name.to_string(), Json::Obj(per_metric)));
    }
    let summary = Json::obj([
        ("repeat", Json::Int(runs as i64)),
        ("workloads", Json::Obj(per_workload)),
    ]);
    Ok((summary, any_unresolved))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let file = match &args.out {
        Some(path) => Some(
            std::fs::File::create(path).map_err(|e| format!("--out {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let mut reports = Reports { file };
    if let Some(runs) = args.repeat {
        let (summary, unresolved) = repeat_check(args, runs, &scratch, &mut reports)?;
        println!("{}", summary.render());
        return Ok(if unresolved && args.strict {
            ExitCode::from(3)
        } else {
            ExitCode::SUCCESS
        });
    }
    let options = args.run_options(args.seed);
    for workload in &args.workloads {
        let line = if args.trace {
            traced_run(
                workload,
                &options,
                &scratch,
                &mut reports,
                args.trace_out.as_ref(),
            )?
        } else {
            measured_run(workload, &options, &scratch, &mut reports)?.1
        };
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = guarded_env_set(|name| std::env::var_os(name).is_some());
    if !set.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set — the benchmark fixes these itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // `run` owns the scratch guard, so it is gone before the process exits
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_invocation_parses() {
        let args = parse(&[
            "--workload",
            "join.sf0.1",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(args.workloads[0].name, "join.sf0.1");
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(20.0), true));
        assert_eq!(args.run_options(7).seconds, 20.0);
    }

    #[test]
    fn defaults_select_all_workloads_and_quick_shortens_the_window() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.workloads.len(), 4);
        assert_eq!(args.seed, DEFAULT_SEED);
        assert_eq!(args.run_options(1).seconds, RUN_SECONDS);
        let quick = parse(&["--quick"]).unwrap();
        assert_eq!(quick.run_options(1).seconds, QUICK_SECONDS);
        assert!(quick.run_options(1).quick);
        assert!(!quick.run_options(DEFAULT_SEED).has_golden());
        assert!(args.run_options(DEFAULT_SEED).has_golden());
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        for bad in [
            &["--workload", "scan"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--repeat", "1"],
            &["--repeat", "3", "--trace", "1"],
            &["--trace-out", "t.jsonl"],
            &["--trace-out", "t.jsonl", "--trace", "1"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(parse(&[
            "--trace-out",
            "t",
            "--trace",
            "1",
            "--workload",
            "scan.sf0.1"
        ])
        .is_ok());
    }

    #[test]
    fn a_set_engine_knob_is_reported() {
        assert!(guarded_env_set(|_| false).is_empty());
        assert_eq!(
            guarded_env_set(|name| name == "MXQ_THREADS" || name == "MXQ_SYNC"),
            ["MXQ_THREADS", "MXQ_SYNC"]
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = measure::Checks::default();
        checks.pass();
        checks.fail(|| "x".to_string());
        let line = result_line(&checks, metrics_json([("setup_s", 0.5, "s")]));
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 2, "failed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }

    /// The whole harness at a scale a debug build finishes in seconds: a
    /// measured and a traced run of the read path and of the durable
    /// read/write path, off the golden seed so the cross-configuration
    /// check runs too.
    #[test]
    fn a_short_quick_run_of_each_path_is_correct_and_reports_every_metric() {
        let scratch = Scratch::new().unwrap();
        let options = RunOptions {
            seed: 7,
            seconds: 0.3,
            quick: true,
        };
        for name in ["scan.sf0.1", "rw_durable.sf0.05"] {
            // 1 000 traced commits on three databases take a debug build a minute
            let workload = &Workload {
                traced_units: 5,
                ..*workloads::find(name).unwrap()
            };
            let run = measure::run(workload, &options, &scratch).unwrap();
            assert_eq!(run.checks.failed, 0, "{name}: {:?}", run.checks.notes);
            let (op, read) = (Distribution::of(&run.op_ms), Distribution::of(&run.read_ms));
            let values = end_to_end_values(&op, &read, &run);
            assert!(values.iter().all(|v| *v > 0.0), "{name}");
            assert_eq!(run.setup_samples_s.len(), measure::SETUP_REPS);

            let layers = layers::run(workload, &options, &scratch).unwrap();
            assert_eq!(layers.checks.failed, 0, "{name}: {:?}", layers.checks.notes);
            let metrics = layers.metrics();
            assert_eq!(metrics.len(), layers::PER_LAYER.len());
            let value = |metric: &str| metrics.iter().find(|m| m.0 == metric).unwrap().1;
            assert!((0.5..1.5).contains(&value("trace.coverage")), "{name}");
            assert_eq!(value("plan_cache.hit_ratio"), 1.0);
            assert_eq!(
                value("wal.fsyncs_per_commit") > 0.0,
                name == "rw_durable.sf0.05"
            );
            // spans nest: every child lies inside its parent
            let spans = layers.tracer.spans();
            for span in spans.iter().filter(|s| s.parent != trace::NO_PARENT) {
                let parent = &spans[span.parent as usize];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                assert_eq!(parent.stmt_id, span.stmt_id);
            }
        }
    }

    /// `BENCHMARK.json` sits at the repository root, one level above this
    /// package; it must list exactly the metrics and workloads coded here.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, bound) in END_TO_END {
            let entry = format!(
                r#"{{"name": "{name}", "unit": "{unit}", "better": "lower", "bound": {bound}}}"#
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for (name, unit) in layers::PER_LAYER {
            assert!(
                text.contains(&format!(r#"{{"name": "{name}", "unit": "{unit}", "#)),
                "missing per-layer metric {name}"
            );
        }
        for workload in &WORKLOADS {
            assert!(text.contains(&format!(r#"{{"name": "{}", "#, workload.name)));
        }
        assert_eq!(
            text.matches(r#""better":"#).count(),
            END_TO_END.len() + layers::PER_LAYER.len()
        );
        assert!(text.contains(&format!(r#""run_seconds": {RUN_SECONDS}"#)));
    }
}
