//! The four workloads and the untraced paths that run them: a whole sweep
//! through `run_scenario` (in-process) or `run_sharded` (dist), and the
//! set-up phase that precedes a sweep's first trial.

use meg_engine::dist::worker::{hello_line, shutdown_line};
use meg_engine::dist::{run_sharded, DistOptions};
use meg_engine::run::{resolve_cells, Cell};
use meg_engine::{run_scenario, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Worker subprocesses of the dist workload.
pub const DIST_WORKERS: usize = 2;

/// One benchmark workload: a scenario document owned by the benchmark and
/// the engine entry point that runs it.
pub struct Workload {
    pub name: &'static str,
    pub scenario_json: &'static str,
    /// Run through `run_sharded` on [`DIST_WORKERS`] worker subprocesses
    /// with checkpointing, instead of in-process through `run_scenario`.
    pub dist: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "edge_flood_sweep",
        scenario_json: include_str!("../scenarios/edge_flood_sweep.json"),
        dist: false,
    },
    Workload {
        name: "edge_dense_churn",
        scenario_json: include_str!("../scenarios/edge_dense_churn.json"),
        dist: false,
    },
    Workload {
        name: "geo_flood_sweep",
        scenario_json: include_str!("../scenarios/geo_flood_sweep.json"),
        dist: false,
    },
    Workload {
        name: "dist_adaptive_sweep",
        scenario_json: include_str!("../scenarios/dist_adaptive_sweep.json"),
        dist: true,
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })
}

/// What a run needs besides the workload: the master seed, the worker
/// executable and a private directory for dist checkpoints.
pub struct Env {
    pub seed: u64,
    pub exe: PathBuf,
    work_dir: PathBuf,
    next_dir: std::cell::Cell<u64>,
}

impl Env {
    pub fn new(seed: u64) -> Result<Env, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let work_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        Ok(Env {
            seed,
            exe,
            work_dir,
            next_dir: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty checkpoint directory under the benchmark's work dir.
    pub fn fresh_dir(&self) -> Result<PathBuf, String> {
        let k = self.next_dir.get();
        self.next_dir.set(k + 1);
        let dir = self.work_dir.join(format!("sweep-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Options of a dist sweep; `ship_metrics` has every worker send its
    /// `meg-obs` counters and span histograms back (traced runs only).
    pub fn dist_options(&self, out_dir: PathBuf, ship_metrics: bool) -> DistOptions {
        DistOptions {
            workers: DIST_WORKERS,
            out_dir: Some(out_dir),
            worker_cmd: Some(self.exe.clone()),
            ship_metrics,
            ..DistOptions::default()
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work_dir);
    }
}

pub fn parse(w: &Workload) -> Result<Scenario, String> {
    Scenario::parse(w.scenario_json).map_err(|e| format!("{}: {e}", w.name))
}

/// Total size of the files in `dir` (the dist part files), after which the
/// directory is removed.
pub fn drain_dir(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(total)
}

/// One whole sweep, from scenario decode to the canonical row lines:
/// in-process through `run_scenario` when `out_dir` is `None`, otherwise
/// through `run_sharded`, checkpointing into `out_dir`, which the caller
/// creates empty and removes afterwards.
pub fn sweep(w: &Workload, env: &Env, out_dir: Option<&Path>) -> Result<Vec<String>, String> {
    let scenario = parse(w)?;
    match out_dir {
        None => {
            let rows = run_scenario(&scenario, env.seed).map_err(|e| e.to_string())?;
            Ok(rows.iter().map(|r| r.to_json().render()).collect())
        }
        Some(dir) => {
            let opts = env.dist_options(dir.to_path_buf(), false);
            let report =
                run_sharded(&scenario, env.seed, &opts, |_, _| {}).map_err(|e| e.to_string())?;
            Ok(report.rows.into_iter().map(|(_, line)| line).collect())
        }
    }
}

/// Times one set-up: everything a sweep does before its first trial starts.
/// That is scenario decode and validation, `resolve_cells`, and then either
/// the start of the trial runner's threads (in-process) or the spawn and
/// handshake of every dist worker. Workers are shut down after the clock
/// stops.
pub fn setup_once(w: &Workload, env: &Env, threads: usize) -> Result<f64, String> {
    let t0 = Instant::now();
    let scenario = parse(w)?;
    let cells: Vec<Cell> = resolve_cells(&scenario).map_err(|e| e.to_string())?;
    std::hint::black_box(&cells);
    if !w.dist {
        // The trial runner starts one scoped thread per worker thread for
        // the first cell's trials; start and join as many.
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| std::hint::black_box(0u64));
            }
        });
        return Ok(t0.elapsed().as_secs_f64());
    }
    let hello = hello_line(&scenario, env.seed);
    let exe = env.exe.as_path();
    let workers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..DIST_WORKERS)
            .map(|_| s.spawn(|| handshake(exe, &hello)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("handshake thread panicked"))
            .collect::<Vec<Result<_, String>>>()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    // Shut down every worker that started, even when another failed.
    let mut first_err = None;
    for result in workers {
        if let Err(e) = result.and_then(shutdown) {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(elapsed),
    }
}

fn shutdown(mut child: std::process::Child) -> Result<(), String> {
    if let Some(mut stdin) = child.stdin.take() {
        let _ = writeln!(stdin, "{}", shutdown_line());
    }
    let status = child.wait().map_err(|e| format!("worker wait: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("worker exited with {status}"))
    }
}

/// Spawns one worker and completes the hello/ready handshake.
fn handshake(exe: &Path, hello: &str) -> Result<std::process::Child, String> {
    let mut child = Command::new(exe)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn worker: {e}"))?;
    let stdin = child.stdin.as_mut().expect("piped stdin");
    let mut ready = String::new();
    let sent = writeln!(stdin, "{hello}").and_then(|_| stdin.flush());
    let read = sent.and_then(|_| {
        BufReader::new(child.stdout.as_mut().expect("piped stdout")).read_line(&mut ready)
    });
    if read.is_err() || !ready.starts_with("{\"ready\"") {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("worker handshake failed: {read:?} {ready:?}"));
    }
    Ok(child)
}
