//! One benchmark for the index-launch simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it builds the workload several times (`setup_s`), then
//! runs it through the public API, once to warm up and then timed, until
//! `--seconds` seconds have passed since the first build, and reports the
//! end-to-end metrics. With `--trace 1` it runs the workload once untraced
//! and once with every layer call under its own timer, and reports the
//! per-layer metrics. Both modes check correctness: every run
//! executes all of its tasks, the service finishes every session and
//! rejects none, repeated and traced runs are byte-identical in simulated
//! time, and the tiny validate-mode instance of the workload's
//! application matches its sequential reference. The last line of
//! standard output is one JSON object; the exit code is 0 only when every
//! check passed. `METRICS.md` describes every metric.

mod layers;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Built, Workload};

/// `setup_s` is the median of at least this many builds...
const SETUP_MIN_REPS: usize = 3;
/// ...repeated until they have taken at least this long in total. Host
/// speed drifts from one second to the next, so builds spread over a
/// second give a steadier median than a few back to back.
const SETUP_MIN_SECS: f64 = 1.0;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds is required and positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of `xs` (not empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending, not empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

/// Build the workload repeatedly; returns the last build and the median
/// build time.
fn setup(args: &Args) -> (Built, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECS {
        drop(built.take());
        let t = Instant::now();
        built = Some(workload::build(args.workload, args.seed));
        times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "# setup_s: median of {} builds, {:.3} s in total",
        times.len(),
        times.iter().sum::<f64>()
    );
    (built.expect("at least one build"), median(&times))
}

/// What a mode measured and checked.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    errors: Vec<String>,
}

/// Untraced mode: the end-to-end metrics.
fn end_to_end(args: &Args) -> Outcome {
    // The set-up counts toward the measuring budget.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (built, setup_s) = setup(args);
    // The first run faults in the memory later runs reuse, and is up to a
    // fifth slower than they are; it is checked but not timed.
    let warmup = built.run();
    let mut errors = warmup.check(&built);
    let reference = warmup.fingerprint();
    let mut latencies: Vec<f64> = warmup.latencies().iter().map(|l| l.as_ms_f64()).collect();
    let makespan_ms = warmup.makespan().as_ms_f64();
    drop(warmup);
    let measure = Instant::now();
    let mut rates = Vec::new();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let ran = built.run();
        let secs = t.elapsed().as_secs_f64();
        rates.push(ran.tasks() as f64 / secs);
        times.push(format!("{secs:.3}"));
        errors.extend(ran.check(&built));
        if ran.fingerprint() != reference {
            errors.push(format!(
                "timed run {} differs in simulated time from the first run",
                rates.len()
            ));
        }
        // Stop at the run boundary nearest the budget: one more run would
        // end further from it than this one.
        let per_run = measure.elapsed() / rates.len() as u32;
        if start.elapsed() + per_run / 2 > budget {
            break;
        }
    }
    latencies.sort_by(f64::total_cmp);
    let samples = rates.len();
    println!(
        "# {} seed {}: 1 warm-up and {samples} timed runs in {:.3} s",
        args.workload.name(),
        args.seed,
        start.elapsed().as_secs_f64()
    );
    println!(
        "# tasks_per_host_s: median of {samples} samples; run seconds {}",
        times.join(" ")
    );
    println!(
        "# sim_session_p50_ms / p99_ms: over {} sessions",
        latencies.len()
    );
    let mut metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("tasks_per_host_s", median(&rates), "1/s"),
    ];
    match peak_rss_mb() {
        Ok(mb) => metrics.push(Metric::new("peak_rss_mb", mb, "MiB")),
        Err(e) => errors.push(e),
    }
    metrics.push(Metric::new("sim_makespan_ms", makespan_ms, "sim_ms"));
    metrics.push(Metric::new(
        "sim_session_p50_ms",
        percentile(&latencies, 50.0),
        "sim_ms",
    ));
    metrics.push(Metric::new(
        "sim_session_p99_ms",
        percentile(&latencies, 99.0),
        "sim_ms",
    ));
    Outcome {
        metrics,
        attempted: built.operations() * (samples as u64 + 1),
        errors,
    }
}

/// Traced mode: one untraced run, then the per-layer metrics.
fn per_layer(args: &Args) -> Outcome {
    let built = workload::build(args.workload, args.seed);
    let t = Instant::now();
    let untraced = built.run();
    let untraced_s = t.elapsed().as_secs_f64();
    let mut errors = untraced.check(&built);
    let traced = layers::traced(&built, untraced_s);
    errors.extend(traced.ran.check(&built));
    errors.extend(traced.errors);
    if traced.ran.fingerprint() != untraced.fingerprint() {
        errors.push("traced run differs in simulated time from the untraced run".into());
    }
    let get = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    println!(
        "# coverage: expand.wall_s in named buckets {:.1}% (target >= 95%)",
        100.0 * get("coverage.expand_named")
    );
    // simulate.wall_s is the traced call minus expand.wall_s, so the two
    // cover that call by construction; against the untraced run the
    // share only shows host drift between the two runs.
    println!(
        "# coverage: expand.wall_s + simulate.wall_s = 100% of the traced call by construction \
         (target >= 95%); the traced call took {:.1}% of the untraced run",
        100.0 * traced.execute_s / untraced_s
    );
    Outcome {
        metrics: traced.metrics,
        attempted: 2 * built.operations(),
        errors,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // A panic inside the program is a failed run: report it, not crash.
    let measured = std::panic::catch_unwind(|| {
        let mut out = if args.trace {
            per_layer(&args)
        } else {
            end_to_end(&args)
        };
        if let Err(e) = workload::validate_tiny(args.workload, args.seed) {
            out.errors.push(e);
        }
        out
    });
    let mut out = measured.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Outcome {
            metrics: vec![],
            attempted: 1,
            errors: vec![format!("panicked: {msg}")],
        }
    });
    for m in &out.metrics {
        println!("# {:<40} {:>24} {}", m.name, m.value, m.unit);
    }
    for m in out.metrics.iter().filter(|m| !m.value.is_finite()) {
        out.errors
            .push(format!("{} is not a finite number", m.name));
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    // Every operation of a run whose check fails counts as failed.
    let failed = if correct { 0 } else { out.attempted };
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
