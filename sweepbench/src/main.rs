//! sweepbench: end-to-end and per-layer benchmark of scenario sweeps run
//! through the meg engine's public entry points.
//!
//! ```text
//! sweepbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! sweepbench worker        (dist worker subprocess; spawned by the dist workload)
//! ```
//!
//! `--trace 0` times whole sweeps with tracing off and reports the
//! end-to-end metrics; `--trace 1` runs the traced replay and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `sweepbench/README.md` for the workloads, metrics and seeds.

mod check;
mod sys;
mod trace;
mod workload;

use check::{fingerprint, node_rounds, Checker};
use meg_engine::Json;
use std::time::Instant;
use workload::{find, parse, setup_once, Env, Workload};

/// Master seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2009;
/// Timed sweeps per run, at least, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;
/// Set-ups timed before each timed sweep. Spreading them over the whole run
/// keeps a burst of host noise from moving every sample at once.
const SETUPS_PER_SWEEP: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(find(value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Cells checked and cells failing, summed over a run's sweeps.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

/// One run's result: the JSON object printed as the last line. The run is
/// correct when no checked cell failed.
struct Report {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let out = Json::obj([
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", out.render());
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Counts one sweep's output-check failures, plus `extra` ones found by the
/// caller, into `tally` and logs them.
fn tally(tally: &mut Tally, checker: &Checker, lines: &[String], extra: &[(usize, String)]) {
    let mut failures = checker.check(lines);
    for (cell, why) in extra {
        failures.entry(*cell).or_insert_with(|| why.clone());
    }
    for (cell, why) in &failures {
        eprintln!("sweepbench: cell {cell}: {why}");
    }
    tally.attempted += checker.num_cells();
    tally.failed += failures.len();
}

fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// The checker of a workload's rows. It runs the scenario once in-process
/// on a single thread, untimed: every later sweep, in-process or dist,
/// traced or not, must reproduce those rows byte for byte.
fn checker(w: &Workload, env: &Env, threads: usize) -> Result<Checker, String> {
    set_threads(1);
    let reference = workload::sweep(w, env, None);
    set_threads(threads);
    Checker::new(parse(w)?, reference?)
}

/// `--trace 0`: the reference sweep, then whole sweeps timed back to back
/// for `seconds`, each one checked and preceded by `SETUPS_PER_SWEEP` timed
/// set-ups.
fn timed_run(args: &Args, env: &Env, threads: usize) -> Result<Report, String> {
    let w = args.workload;
    let checker = checker(w, env, threads)?;
    // Peak memory of one sweep in a fresh process: for in-process workloads
    // the single-threaded reference sweep, whose peak repeats from run to
    // run (with two trial threads, glibc's per-thread arenas move the peak
    // by a quarter); for dist, the coordinator after its first sweep.
    let mut peak_rss_mb = match w.dist {
        true => 0.0,
        false => sys::peak_rss_mb()?,
    };
    let budget = parse(w)?.round_budget;
    let mut checked = Tally::default();
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut work, mut rows_fingerprint) = (0.0, 0);
    let start = Instant::now();
    while walls.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..SETUPS_PER_SWEEP {
            setups.push(setup_once(w, env, threads)?);
        }
        let dir = match w.dist {
            true => Some(env.fresh_dir()?),
            false => None,
        };
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let lines = workload::sweep(w, env, dir.as_deref())?;
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(sys::cpu_seconds() - cpu0);
        if w.dist && walls.len() == 1 {
            peak_rss_mb = sys::peak_rss_mb()?;
        }
        if let Some(dir) = dir {
            workload::drain_dir(&dir)?;
        }
        tally(&mut checked, &checker, &lines, &[]);
        rows_fingerprint = fingerprint(&lines);
        work = node_rounds(&lines, budget);
    }
    println!(
        "workload {} seed {} threads {threads} sweeps {} rows_fingerprint {rows_fingerprint:016x}",
        w.name,
        env.seed,
        walls.len(),
    );
    let sweep_s = median(&walls);
    let ok_frac = 1.0 - checked.failed as f64 / checked.attempted as f64;
    let metrics = vec![
        ("sweep_s", sweep_s, "s"),
        ("sweep_cpu_s", median(&cpus), "s"),
        ("node_rounds_per_s", work / sweep_s, "1/s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("ok_frac", ok_frac, "frac"),
    ];
    Ok(Report {
        tally: checked,
        metrics,
    })
}

/// `--trace 1`: untraced and traced sweeps alternate for `seconds`; every
/// traced sweep's rows must equal the untraced rows. Reports the median of
/// each per-layer metric over the traced sweeps.
fn traced_run(args: &Args, env: &Env, threads: usize) -> Result<Report, String> {
    let w = args.workload;
    let tracer = trace::Tracer::new(w, env.seed, threads)?;
    let checker = checker(w, env, threads)?;
    let step_vs_floor = trace::step_vs_rng_floor(w, env.seed)?;
    let mut checked = Tally::default();
    let mut samples: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let mut rows_fingerprint = 0;
    let start = Instant::now();
    while samples.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let dir = match w.dist {
            true => Some(env.fresh_dir()?),
            false => None,
        };
        let t0 = Instant::now();
        let lines = workload::sweep(w, env, dir.as_deref())?;
        let untraced_ns = t0.elapsed().as_nanos() as u64;
        if let Some(dir) = dir {
            workload::drain_dir(&dir)?;
        }
        let dist = match w.dist {
            true => Some(tracer.dist_sweep(env)?),
            false => None,
        };
        let traced = tracer.sweep()?;
        let mut extra = traced.trial_failures.clone();
        let traced_lines = std::iter::once(&traced.lines).chain(dist.as_ref().map(|d| &d.lines));
        for other in traced_lines {
            for i in 0..lines.len().max(other.len()) {
                if other.get(i) != lines.get(i) {
                    extra.push((i, "traced row differs from the untraced row".into()));
                }
            }
        }
        tally(&mut checked, &checker, &lines, &extra);
        rows_fingerprint = fingerprint(&lines);
        samples.push(tracer.metrics(&traced, dist.as_ref(), untraced_ns, step_vs_floor));
    }
    println!(
        "workload {} seed {} threads {threads} traced sweeps {} rows_fingerprint {rows_fingerprint:016x}",
        w.name,
        env.seed,
        samples.len(),
    );
    let metrics = samples[0]
        .iter()
        .enumerate()
        .map(|(k, &(name, _, unit))| {
            let values: Vec<f64> = samples.iter().map(|s| s[k].1).collect();
            (name, median(&values), unit)
        })
        .collect();
    Ok(Report {
        tally: checked,
        metrics,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("worker") {
        if args.len() > 1 {
            return Err("worker takes no arguments".into());
        }
        // Dist workers are single-threaded: parallelism comes from the pool.
        set_threads(1);
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        meg_engine::dist::worker::serve(stdin.lock(), stdout.lock(), None)
            .map_err(|e| e.to_string())?;
        return Ok(());
    }
    let args = parse_args(args)?;
    // In-process trials use at most two threads (and never more than the
    // machine has), so figures compare across machines of two or more cores.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    set_threads(threads);
    let env = Env::new(args.seed)?;
    let report = match args.trace {
        false => timed_run(&args, &env, threads)?,
        true => traced_run(&args, &env, threads)?,
    };
    report.print();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("sweepbench: {e}");
        std::process::exit(1);
    }
}
