//! The repo's end-to-end benchmark. See `README.md` beside this crate for
//! the workloads, the metrics and how they are expected to interact.
//!
//! ```text
//! smartpick_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the result
//! smartpick_benchmark [--seed <n>] [--seconds <s>] [--trace] [--repeat <k>] [--quick]
//!     every workload, each in a child process of this binary
//! ```

mod layers;
mod load;
mod metrics;
mod recover;
mod speed;
mod stats;
mod stream;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use metrics::{Report, END_TO_END, WORKLOADS};
use speed::Speed;
use world::{Spec, World};

/// Length of the timed window unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 12;
/// The tail of the publish lag that is reported. About one feedback batch
/// in ten carries a retrain and takes ten times as long, so p90 sits on the
/// edge between the two modes and p95 sits inside the slow one.
pub const LAG_PERCENTILE: f64 = 0.95;
/// Times an untraced run sets its world up; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// Length of the timed window; `--quick` shortens the default to 1 s.
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--quick" => args.quick = true,
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.quick { 1.0 } else { args.seconds });
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) || args.repeat == 0 {
        return Err("--seconds must be within 1..=60 and --repeat at least 1".to_owned());
    }
    Ok(args)
}

/// `benchmark/target`, wherever cargo put the build: traces and scratch
/// store roots live here so the benchmark writes only inside its checkout.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("target")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match world::spec(name, args.quick) {
            Some(spec) => run_workload(&spec, &args),
            None => {
                eprintln!("unknown workload `{name}`");
                ExitCode::from(2)
            }
        },
        None => run_suite(&args),
    }
}

/// One workload in this process. Prints every metric by name, then the
/// result line.
fn run_workload(spec: &Spec, args: &Args) -> ExitCode {
    let warmup = Duration::from_secs_f64(if args.quick { 0.5 } else { 2.0 });
    let window = Duration::from_secs_f64(args.seconds);
    match world::pin_to_one_cpu() {
        Some(cpu) => println!(
            "{:<16} every thread of this run is pinned to CPU {cpu}",
            spec.name
        ),
        None => eprintln!("note: could not pin to one CPU; timings will spread further"),
    }

    let mut speed = Speed::new();
    let (report, attempted, failed) = if args.trace {
        let (mut world, _) = World::build(spec);
        let mut stream = spec.stream(args.seed);
        layers::traced_run(&mut world, spec, &mut stream, warmup, window, &mut speed)
    } else {
        untraced_run(spec, args, warmup, window, &mut speed)
    };
    let mut factors = speed.factors();
    stats::sort(&mut factors);
    println!(
        "{:<16} box speed as a share of nominal: median {:.3}, lowest {:.3}, highest {:.3} of {} samples; timed metrics are at nominal speed",
        spec.name,
        stats::quantile(&factors, 0.5),
        stats::quantile(&factors, 0.0),
        stats::quantile(&factors, 1.0),
        factors.len()
    );

    assert!(
        report.missing().is_empty(),
        "metrics not measured: {:?}",
        report.missing()
    );
    print!("{}", report.human(spec.name));
    println!(
        "{:<16} {:<30} {:>16.6} {:<6} ops_failed={failed} ops_attempted={attempted}",
        spec.name,
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share"
    );
    println!("{}", report.result_line(attempted, failed));
    ExitCode::SUCCESS
}

/// The run behind the end-to-end metrics: the world is set up `SETUPS`
/// times (the last one is kept), the workload's window runs, then the
/// write path and recovery are measured.
fn untraced_run(
    spec: &Spec,
    args: &Args,
    warmup: Duration,
    window: Duration,
    speed: &mut Speed,
) -> (Report, u64, u64) {
    // One world at a time: the previous one is gone, store and all, before
    // the next is timed.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    speed.sample();
    for _ in 0..SETUPS {
        drop(built.take());
        let started = Instant::now();
        let (world, seconds) = World::build(spec);
        let done = Instant::now();
        speed.sample();
        setups.push(seconds * speed.factor(started, done));
        built = Some(world);
    }
    let mut world = built.expect("SETUPS is at least 1");
    let mut stream = spec.stream(args.seed);
    let own = load::drive(&mut world, spec, &mut stream, warmup, window, speed, None);
    // The harness's own reference table is not the program's memory.
    let rss_mb = world::rss_hwm_mb() - Speed::table_mb();
    let (mut attempted, mut failed) = (own.attempted, own.failed);

    // The write-path metrics have one definition: what the `feedback_mixed`
    // window measures. A run of that workload has just made it; every other
    // run — every metric is printed on every run — makes the same window
    // next, on a `feedback_mixed` world of its own.
    let written = if spec.feedback {
        None
    } else {
        drop(world);
        let feedback = world::spec("feedback_mixed", args.quick).expect("a declared workload");
        world = World::build(&feedback).0;
        let mut stream = feedback.stream(args.seed);
        let w = load::drive(
            &mut world,
            &feedback,
            &mut stream,
            warmup,
            window,
            speed,
            None,
        );
        attempted += w.attempted;
        failed += w.failed;
        Some(w)
    };
    let written = written.as_ref().unwrap_or(&own);
    let recover = recover::run(&world, speed);
    attempted += recover.attempted;
    failed += recover.failed;

    let mut report = Report::end_to_end();
    report.set("setup_s", stats::median(setups), SETUPS);
    report.set("determine_per_s", own.determine_per_s(), own.subs.len());
    let lags = written.batch_lags_ms();
    report.set(
        "report_applied_per_s",
        written.report_applied_per_s(),
        lags.len(),
    );
    report.set(
        "publish_lag_ms_p95",
        stats::quantile(&lags, LAG_PERCENTILE),
        lags.len(),
    );
    stats::check_percentile("publish_lag_ms_p95", LAG_PERCENTILE, lags.len());
    let (before, after) = (&written.before, &written.after);
    let bytes =
        (after.wal_bytes - before.wal_bytes) + (after.snapshot_bytes - before.snapshot_bytes);
    let applied = after.reports_applied - before.reports_applied;
    report.set(
        "disk_bytes_per_report",
        bytes as f64 / applied.max(1) as f64,
        applied as usize,
    );
    // The fastest open, not the median: the replay is count-driven and
    // deterministic, so whatever else the box is doing only adds to it.
    let fastest = recover
        .open_ms
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    report.set("recover_ms", fastest, recover.open_ms.len());
    report.set("rss_mb", rss_mb, 1);
    (report, attempted, failed)
}

/// One child run's metrics, parsed back from its result line.
struct ChildResult {
    metrics: Vec<(String, f64)>,
    attempted: f64,
    failed: f64,
}

fn run_child(workload: &str, seed: u64, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    parse_result_line(last).ok_or_else(|| format!("{workload}: no result line, got `{last}`"))
}

fn parse_result_line(line: &str) -> Option<ChildResult> {
    use serde::Value;
    let Value::Obj(doc) = serde_json::from_str::<Value>(line).ok()? else {
        return None;
    };
    let num = |pairs: &[(String, Value)], key: &str| match serde::obj_get(pairs, key) {
        Ok(Value::Num(n)) => Some(*n),
        _ => None,
    };
    let Value::Obj(metrics) = serde::obj_get(&doc, "metrics").ok()? else {
        return None;
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| match m {
            Value::Obj(m) => num(m, "value").map(|v| (name.clone(), v)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ChildResult {
        metrics,
        attempted: num(&doc, "attempted")?,
        failed: num(&doc, "failed")?,
    })
}

/// Every workload, each in a fresh child process so `rss_mb` is its own;
/// `--repeat` runs the suite again with the next seed and reports how far
/// each metric moved between runs of the same code.
fn run_suite(args: &Args) -> ExitCode {
    // values[workload][metric] = one value per repeat
    let mut values: Vec<Vec<(String, Vec<f64>)>> = vec![Vec::new(); WORKLOADS.len()];
    let mut any_failed = false;
    for rep in 0..args.repeat {
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                match run_child(workload, args.seed + rep as u64, args, trace) {
                    Ok(result) => {
                        any_failed |= result.failed > 0.0 || result.attempted < 1.0;
                        for (name, value) in result.metrics {
                            match values[w].iter_mut().find(|(n, _)| *n == name) {
                                Some((_, vs)) => vs.push(value),
                                None => values[w].push((name, vec![value])),
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    if args.repeat > 1 {
        println!();
        println!(
            "{:<16} {:<30} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
            "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
        );
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            for (name, vs) in &values[w] {
                let s = stats::Spread::of(vs.clone());
                let bound = END_TO_END
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(String::new(), |m| format!("{:.2}", m.3));
                println!(
                    "{workload:<16} {name:<30} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>9.4} {bound:>7}",
                    s.median,
                    s.q1,
                    s.q3,
                    s.iqr_share(),
                    s.range_share()
                );
            }
        }
    }
    if any_failed {
        eprintln!("some operations failed: see failed_share above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
