//! The traced run. It replays every trial of a workload's cells through the
//! public calls the engine makes — the substrate constructor, `advance`
//! through a timing [`EvolvingGraph`] wrapper, the protocol entry point,
//! `meg_stats`'s trial runner and `aggregate_row` — with a clock around
//! each layer and the `meg-obs` recorder installed for the counters.
//! Its rows must equal the untraced rows byte for byte.

use crate::workload::{drain_dir, parse, Env, Workload};
use meg_core::evolving::{EvolvingGraph, Stepping};
use meg_core::protocols::{probabilistic_flood, run_machine, EpidemicMachine};
use meg_edge::{DenseEdgeMeg, SparseEdgeMeg};
use meg_engine::dist::run_sharded;
use meg_engine::run::{
    adaptive_stop, aggregate_row, cell_seed, resolve_cells, Cell, ResolvedSubstrate, TrialOutcome,
};
use meg_engine::{EdgeEngine, MobilityKind, Precision, Protocol};
use meg_geometric::{GeometricMeg, GeometricMegParams};
use meg_graph::SnapshotBuf;
use meg_obs as obs;
use meg_stats::{precision_checkpoints, run_trials, run_trials_scheduled};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An [`EvolvingGraph`] that times every `advance` call, and the protocol
/// work between one call's return and the next call, of the graph it wraps.
struct Timed<M> {
    inner: M,
    advance_ns: Vec<u64>,
    protocol_ns: u64,
    mark: Instant,
}

impl<M: EvolvingGraph> Timed<M> {
    fn new(inner: M) -> Self {
        Timed {
            inner,
            advance_ns: Vec::new(),
            protocol_ns: 0,
            mark: Instant::now(),
        }
    }
}

impl<M: EvolvingGraph> EvolvingGraph for Timed<M> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let start = Instant::now();
        self.protocol_ns += ns(start - self.mark);
        let snapshot = self.inner.advance();
        let end = Instant::now();
        self.advance_ns.push(ns(end - start));
        self.mark = end;
        snapshot
    }

    fn time(&self) -> u64 {
        self.inner.time()
    }
}

/// Layer times of one trial.
struct TrialTrace {
    init_ns: u64,
    advance_ns: Vec<u64>,
    protocol_ns: u64,
    trial_ns: u64,
}

/// Runs one trial's protocol over a substrate built by `make`, as the
/// engine's `execute_trial` does for the edge and grid-walk substrates.
fn traced_trial<M: EvolvingGraph>(
    t0: Instant,
    make: impl FnOnce() -> M,
    cell: &Cell,
    rng: &mut ChaCha8Rng,
) -> (TrialOutcome, TrialTrace) {
    let t_init = Instant::now();
    let meg = make();
    let init_ns = ns(t_init.elapsed());
    let n = meg.num_nodes();
    let mut timed = Timed::new(meg);
    let r = match cell.protocol {
        Protocol::Flooding => probabilistic_flood(&mut timed, 0, 1.0, cell.round_budget, rng),
        Protocol::Sis {
            contagion,
            infection_rounds,
            immunity_rounds,
        } => {
            let mut machine =
                EpidemicMachine::new(n, 0, contagion, infection_rounds, Some(immunity_rounds));
            run_machine(&mut timed, &mut machine, cell.round_budget, rng).into_protocol_result()
        }
        _ => unreachable!("Tracer::new admits only flooding and SIS cells"),
    };
    timed.protocol_ns += ns(timed.mark.elapsed());
    let outcome = TrialOutcome {
        completed: r.completed,
        value: r.rounds as f64,
        messages: r.messages_sent as f64,
    };
    let trace = TrialTrace {
        init_ns,
        advance_ns: timed.advance_ns,
        protocol_ns: timed.protocol_ns,
        trial_ns: ns(t0.elapsed()),
    };
    (outcome, trace)
}

fn trial(cell: &Cell, rng: &mut ChaCha8Rng) -> (TrialOutcome, TrialTrace) {
    let t0 = Instant::now();
    let sub_seed: u64 = rng.gen();
    match &cell.substrate {
        ResolvedSubstrate::Edge {
            engine,
            params,
            init,
            stepping,
            ..
        } => match engine {
            EdgeEngine::Sparse => traced_trial(
                t0,
                || SparseEdgeMeg::with_stepping(*params, *init, *stepping, sub_seed),
                cell,
                rng,
            ),
            EdgeEngine::Dense => traced_trial(
                t0,
                || DenseEdgeMeg::with_stepping(*params, *init, *stepping, sub_seed),
                cell,
                rng,
            ),
        },
        ResolvedSubstrate::Geometric {
            n,
            radius,
            move_radius,
            ..
        } => traced_trial(
            t0,
            || {
                GeometricMeg::from_params(
                    GeometricMegParams::new(*n, *move_radius, *radius),
                    sub_seed,
                )
            },
            cell,
            rng,
        ),
        _ => unreachable!("Tracer::new admits only edge and grid-walk cells"),
    }
}

/// What one traced sweep measured, summed over its cells.
#[derive(Default)]
pub struct SweepTrace {
    pub lines: Vec<String>,
    /// Cells whose trials broke a per-trial check.
    pub trial_failures: Vec<(usize, String)>,
    pub wall_ns: u64,
    resolve_ns: u64,
    aggregate_ns: u64,
    edge_init_ns: u64,
    edge_advance_ns: Vec<u64>,
    edge_flips: u64,
    geo_init_ns: u64,
    geo_advance_ns: Vec<u64>,
    bucket_scan_visits: u64,
    rng_draws: u64,
    delta_rounds: u64,
    delta_patched: u64,
    rebuild_bytes: u64,
    protocol_ns: u64,
    node_rounds: u64,
    rounds: u64,
    messages: u64,
    trial_ns: Vec<u64>,
    unattributed_ns: u64,
}

/// What one traced dist sweep measured.
pub struct DistTrace {
    pub lines: Vec<String>,
    pub wall_ns: u64,
    round_trips: u64,
    respawns: u64,
    checkpoint_bytes: u64,
    /// Share of worker-lane wall time not spent inside trials.
    overhead_frac: f64,
}

pub struct Tracer<'a> {
    w: &'a Workload,
    seed: u64,
    threads: usize,
}

impl<'a> Tracer<'a> {
    /// Admits a workload whose cells the traced replay reproduces exactly:
    /// edge or grid-walk geometric substrates under flooding or SIS.
    pub fn new(w: &'a Workload, seed: u64, threads: usize) -> Result<Tracer<'a>, String> {
        for cell in resolve_cells(&parse(w)?).map_err(|e| e.to_string())? {
            let substrate_ok = match cell.substrate {
                ResolvedSubstrate::Edge { .. } => true,
                ResolvedSubstrate::Geometric { mobility, .. } => mobility == MobilityKind::GridWalk,
                _ => false,
            };
            let protocol_ok = matches!(cell.protocol, Protocol::Flooding | Protocol::Sis { .. });
            if !substrate_ok || !protocol_ok {
                return Err(format!(
                    "{}: the traced replay does not cover cell {} ({} / {})",
                    w.name,
                    cell.index,
                    cell.substrate_label,
                    cell.protocol.label()
                ));
            }
        }
        Ok(Tracer { w, seed, threads })
    }

    /// One traced sweep of every cell, in-process.
    pub fn sweep(&self) -> Result<SweepTrace, String> {
        let mut t = SweepTrace::default();
        obs::install();
        let t0 = Instant::now();
        let scenario = parse(self.w)?;
        let tr = Instant::now();
        let cells = resolve_cells(&scenario).map_err(|e| e.to_string())?;
        t.resolve_ns = ns(tr.elapsed());
        for cell in &cells {
            let seed = cell_seed(&scenario.name, self.seed, cell.index);
            let before = obs::snapshot();
            let results: Vec<(TrialOutcome, TrialTrace)> = match scenario.precision {
                Precision::FixedTrials => run_trials(seed, cell.trials, |_, rng| trial(cell, rng)),
                Precision::TargetStderr {
                    eps,
                    min_trials,
                    max_trials,
                } => run_trials_scheduled(
                    seed,
                    &precision_checkpoints(min_trials, max_trials),
                    |_, rng| trial(cell, rng),
                    |done| {
                        let outcomes: Vec<TrialOutcome> = done.iter().map(|d| d.0).collect();
                        adaptive_stop(eps, &outcomes)
                    },
                ),
            };
            let after = obs::snapshot();
            let outcomes: Vec<TrialOutcome> = results.iter().map(|r| r.0).collect();
            let ta = Instant::now();
            let row = aggregate_row(&scenario, cell, seed, &outcomes);
            t.aggregate_ns += ns(ta.elapsed());
            t.lines.push(row.to_json().render());
            t.add_cell(cell, &results, &before, &after);
        }
        t.wall_ns = ns(t0.elapsed());
        obs::uninstall();
        Ok(t)
    }

    /// One traced dist sweep: `run_sharded` with the coordinator's recorder
    /// installed and every worker shipping its metrics.
    pub fn dist_sweep(&self, env: &Env) -> Result<DistTrace, String> {
        let dir = env.fresh_dir()?;
        let opts = env.dist_options(dir.clone(), true);
        obs::install();
        let t0 = Instant::now();
        let scenario = parse(self.w)?;
        let report = run_sharded(&scenario, self.seed, &opts, |_, _| {});
        let wall_ns = ns(t0.elapsed());
        let snap = obs::snapshot();
        obs::uninstall();
        let report = report.map_err(|e| e.to_string())?;
        let lane_trial_ns: u64 = report
            .worker_metrics
            .iter()
            .filter_map(|m| m.span("trial"))
            .map(|s| s.total_ns)
            .sum();
        let lanes = report.worker_metrics.len().max(1) as f64;
        Ok(DistTrace {
            lines: report.rows.into_iter().map(|(_, line)| line).collect(),
            wall_ns,
            round_trips: snap.span("worker_round_trip").map_or(0, |s| s.count),
            respawns: snap.counter("worker_respawns"),
            checkpoint_bytes: drain_dir(&dir)?,
            overhead_frac: 1.0 - lane_trial_ns as f64 / (lanes * wall_ns as f64),
        })
    }

    /// Per-layer metrics of one traced sweep (and, for dist, one traced
    /// dist sweep). `untraced_ns` is the wall time of the untraced sweep
    /// the trace overhead is measured against.
    pub fn metrics(
        &self,
        t: &SweepTrace,
        dist: Option<&DistTrace>,
        untraced_ns: u64,
        step_vs_floor: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |v: u64| v as f64 / 1e6;
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let trial_total = sum(&t.trial_ns);
        let traced_wall = dist.map_or(t.wall_ns, |d| d.wall_ns);
        vec![
            ("edge.init_ms", ms(t.edge_init_ns), "ms"),
            ("edge.advance_ms", ms(sum(&t.edge_advance_ns)), "ms"),
            (
                "edge.advance_ms_p50",
                ms(percentile(&t.edge_advance_ns, 0.5)),
                "ms",
            ),
            (
                "edge.advance_ms_p90",
                ms(percentile(&t.edge_advance_ns, 0.9)),
                "ms",
            ),
            ("edge.flips", t.edge_flips as f64, "count"),
            ("markov.rng_draws", t.rng_draws as f64, "count"),
            ("markov.step_vs_rng_floor", step_vs_floor, "ratio"),
            ("graph.delta_rounds", t.delta_rounds as f64, "count"),
            (
                "graph.delta_patch_ratio",
                ratio(t.delta_patched as f64, t.delta_rounds as f64),
                "ratio",
            ),
            ("graph.rebuild_bytes", t.rebuild_bytes as f64, "bytes"),
            ("geometric.init_ms", ms(t.geo_init_ns), "ms"),
            ("geometric.advance_ms", ms(sum(&t.geo_advance_ns)), "ms"),
            (
                "geometric.advance_ms_p50",
                ms(percentile(&t.geo_advance_ns, 0.5)),
                "ms",
            ),
            (
                "geometric.advance_ms_p90",
                ms(percentile(&t.geo_advance_ns, 0.9)),
                "ms",
            ),
            (
                "geometric.bucket_scan_visits",
                t.bucket_scan_visits as f64,
                "count",
            ),
            (
                "geometric.ns_per_visit",
                ratio(sum(&t.geo_advance_ns) as f64, t.bucket_scan_visits as f64),
                "ns",
            ),
            ("core.protocol_ms", ms(t.protocol_ns), "ms"),
            (
                "core.protocol_ns_per_node_round",
                ratio(t.protocol_ns as f64, t.node_rounds as f64),
                "ns",
            ),
            ("core.rounds", t.rounds as f64, "count"),
            ("core.messages", t.messages as f64, "count"),
            ("stats.trial_ms_p50", ms(percentile(&t.trial_ns, 0.5)), "ms"),
            ("stats.trial_ms_p90", ms(percentile(&t.trial_ns, 0.9)), "ms"),
            (
                "stats.parallel_efficiency",
                ratio(trial_total as f64, (self.threads as u64 * t.wall_ns) as f64),
                "ratio",
            ),
            ("engine.resolve_ms", ms(t.resolve_ns), "ms"),
            ("engine.aggregate_ms", ms(t.aggregate_ns), "ms"),
            (
                "dist.round_trips",
                dist.map_or(0, |d| d.round_trips) as f64,
                "count",
            ),
            (
                "dist.overhead_frac",
                dist.map_or(0.0, |d| d.overhead_frac),
                "ratio",
            ),
            (
                "dist.respawns",
                dist.map_or(0, |d| d.respawns) as f64,
                "count",
            ),
            (
                "dist.checkpoint_bytes",
                dist.map_or(0, |d| d.checkpoint_bytes) as f64,
                "bytes",
            ),
            (
                "obs.trace_overhead",
                ratio(traced_wall as f64, untraced_ns as f64),
                "ratio",
            ),
            (
                "bench.unattributed_frac",
                ratio(t.unattributed_ns as f64, trial_total as f64),
                "ratio",
            ),
        ]
    }
}

impl SweepTrace {
    /// Folds one cell's trials and its recorder counter deltas in.
    fn add_cell(
        &mut self,
        cell: &Cell,
        results: &[(TrialOutcome, TrialTrace)],
        before: &obs::MetricsSnapshot,
        after: &obs::MetricsSnapshot,
    ) {
        let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name));
        let n = match &cell.substrate {
            ResolvedSubstrate::Edge { params, .. } => params.n,
            ResolvedSubstrate::Geometric { n, .. } => *n,
            _ => unreachable!("Tracer::new admits only edge and grid-walk cells"),
        };
        let edge = matches!(cell.substrate, ResolvedSubstrate::Edge { .. });
        let mut advances = 0u64;
        for (i, (outcome, trace)) in results.iter().enumerate() {
            let advance_total: u64 = trace.advance_ns.iter().sum();
            advances += trace.advance_ns.len() as u64;
            if edge {
                self.edge_init_ns += trace.init_ns;
                self.edge_advance_ns.extend(&trace.advance_ns);
            } else {
                self.geo_init_ns += trace.init_ns;
                self.geo_advance_ns.extend(&trace.advance_ns);
            }
            self.protocol_ns += trace.protocol_ns;
            self.trial_ns.push(trace.trial_ns);
            self.unattributed_ns += trace
                .trial_ns
                .saturating_sub(trace.init_ns + advance_total + trace.protocol_ns);
            let rounds = outcome.value as u64;
            self.rounds += rounds;
            self.node_rounds += n as u64 * rounds;
            self.messages += outcome.messages as u64;
            let censored = !outcome.completed && rounds == cell.round_budget;
            if matches!(cell.protocol, Protocol::Sis { .. }) && !censored {
                self.trial_failures.push((
                    cell.index,
                    format!(
                        "SIS trial {i} did not censor at the {}-round budget",
                        cell.round_budget
                    ),
                ));
            }
        }
        if edge {
            self.edge_flips += delta("edge_births") + delta("edge_deaths");
        }
        // The counter covers sparse and transitions stepping; per-pair dense
        // stepping draws exactly one `next_u64` per pair per advance.
        self.rng_draws += delta("rng_draws");
        if let ResolvedSubstrate::Edge {
            engine: EdgeEngine::Dense,
            params,
            stepping: Stepping::PerPair,
            ..
        } = &cell.substrate
        {
            self.rng_draws += params.num_pairs() * advances;
        }
        self.delta_rounds += delta("delta_rounds");
        self.delta_patched += delta("delta_patched");
        self.rebuild_bytes += delta("rebuild_bytes");
        self.bucket_scan_visits += delta("bucket_scan_visits");
    }
}

/// Nearest-rank percentile of `values` (0 when empty).
fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-pair stepping cost over the raw RNG draw cost, for the first dense
/// per-pair cell of the workload (0 when it has none): ns per pair of
/// `WordStepper::step_word` over that cell's pair words, divided by ns per
/// bare `next_u64` of the same generator, both timed here, medians of
/// interleaved passes.
pub fn step_vs_rng_floor(w: &Workload, seed: u64) -> Result<f64, String> {
    let cells = resolve_cells(&parse(w)?).map_err(|e| e.to_string())?;
    let params = cells.iter().find_map(|c| match &c.substrate {
        ResolvedSubstrate::Edge {
            engine: EdgeEngine::Dense,
            params,
            stepping: Stepping::PerPair,
            ..
        } => Some(*params),
        _ => None,
    });
    let Some(params) = params else {
        return Ok(0.0);
    };
    let stepper = params.chain().word_stepper();
    let pairs = params.num_pairs() as usize;
    let mut words = vec![0u64; pairs.div_ceil(64)];
    let draws = words.len() * 64;
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut step, mut floor) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let t = Instant::now();
        for w in words.iter_mut() {
            *w = stepper.step_word(*w, 64, &mut rng);
        }
        step.push(ns(t.elapsed()));
        std::hint::black_box(&words);
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..draws {
            acc ^= rng.next_u64();
        }
        floor.push(ns(t.elapsed()));
        std::hint::black_box(acc);
    }
    Ok(percentile(&step, 0.5) as f64 / percentile(&floor, 0.5) as f64)
}
