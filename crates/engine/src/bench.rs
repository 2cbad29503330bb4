//! `meg-lab bench` — the workspace's wall-time measurement harness.
//!
//! Hot-path optimisation is gated on this module: a small registry of **named benchmark workloads** (each a deterministic,
//! seeded end-to-end run over the real substrates), timed with warm-up
//! repetitions followed by `R` measured repetitions, and summarised as
//! **median / IQR / min** wall time so one noisy repetition cannot skew a
//! reported speedup.
//!
//! Results render as machine-readable JSON (see [`results_to_json`]); the
//! committed `BENCH_PR5.json` at the repository root records the
//! pre/post-refactor trajectory of the allocation-free snapshot pipeline and
//! is the template every future perf PR extends. `BENCH_PR6.json` records
//! the stepping A/B pairs (`edge_*_flood_n*` vs `edge_*_flood_fast_n*`):
//! equal parameters and seeds, per-pair vs transitions stepping, interleaved
//! runs. Every workload returns a
//! `checksum` folded from its observable output; it is recorded in the JSON
//! so (a) the optimiser cannot dead-code-eliminate the work and (b) two
//! harness runs on the same code can be spot-checked for identical behaviour.
//!
//! ## Example
//!
//! ```
//! use meg_engine::bench::{run_bench, BenchOptions};
//!
//! let opts = BenchOptions {
//!     repetitions: 2,
//!     warmup: 1,
//!     scale: 0.02, // doc-test sized; real runs use scale 1.0
//! };
//! let result = run_bench("geo_flood_n4096", &opts).unwrap();
//! assert_eq!(result.repetitions, 2);
//! assert!(result.median_ms >= 0.0);
//! assert!(result.checksum > 0.0);
//! ```

use crate::json::Json;
use meg_core::evolving::{EvolvingGraph, InitialDistribution, Stepping};
use meg_core::flooding::flood;
use meg_core::protocols::push_pull_gossip;
use meg_core::spec;
use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg};
use meg_geometric::{GeometricMeg, GeometricMegParams};
use meg_obs as obs;
use meg_stats::quantile::quantile;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Fixed seed for every workload: benches must measure the same work on
/// every invocation, on every machine, pre- and post-optimisation.
const BENCH_SEED: u64 = 0x4D45_475F_5035; // "MEG_P5"

/// Options shared by every benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Measured repetitions (the statistics are computed over these).
    pub repetitions: usize,
    /// Untimed warm-up repetitions run first (cache / branch-predictor /
    /// page-table warm-up). Note that every repetition constructs fresh
    /// models, so each *measured* repetition still includes the models' own
    /// buffer-capacity warm-up — deliberately: the workloads time the
    /// end-to-end trial cost the engine actually pays, identically for every
    /// code version being compared.
    pub warmup: usize,
    /// Node-count multiplier applied to each workload's canonical `n`.
    pub scale: f64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            repetitions: 5,
            warmup: 2,
            scale: 1.0,
        }
    }
}

/// Measured wall-time statistics of one named workload.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Workload name (from [`bench_names`]).
    pub name: String,
    /// Resolved workload parameters (`n` after scaling, etc.).
    pub params: Vec<(String, f64)>,
    /// Measured repetitions.
    pub repetitions: usize,
    /// Warm-up repetitions that ran before measurement.
    pub warmup: usize,
    /// Median wall time over the measured repetitions, in milliseconds.
    pub median_ms: f64,
    /// Interquartile range (Q3 − Q1) of the wall times, in milliseconds.
    pub iqr_ms: f64,
    /// Minimum wall time, in milliseconds.
    pub min_ms: f64,
    /// Maximum wall time, in milliseconds.
    pub max_ms: f64,
    /// Every measured repetition's wall time, in milliseconds, in run order
    /// (the raw samples behind the summary statistics — lets a later reader
    /// recompute any quantile or spot a drifting machine).
    pub samples_ms: Vec<f64>,
    /// Checksum folded from the workload's observable output (anti-DCE and
    /// a cheap behavioural fingerprint; identical across runs of the same
    /// code at the same scale).
    pub checksum: f64,
    /// `meg-obs` counter deltas from one extra **untimed** instrumented
    /// repetition (`--counters`); `None` when the repetition was not run.
    /// Never populated from the timed repetitions — the recorder stays off
    /// while the clock runs.
    pub counters: Option<Vec<(String, u64)>>,
    /// Span statistics (count, total, p50/p90/p99 from the log2 latency
    /// histogram) of the same instrumented repetition; spans that recorded
    /// nothing are omitted. `None` without `--counters`.
    pub spans: Option<Vec<meg_obs::SpanStats>>,
}

impl BenchResult {
    /// Renders the result as one JSON object. The `counters` key is present
    /// only when the instrumented repetition ran, keeping the document
    /// byte-compatible with pre-observability consumers.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("bench".to_string(), Json::Str(self.name.clone())),
            (
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "repetitions".to_string(),
                Json::Num(self.repetitions as f64),
            ),
            ("warmup".to_string(), Json::Num(self.warmup as f64)),
            ("median_ms".to_string(), Json::Num(self.median_ms)),
            ("iqr_ms".to_string(), Json::Num(self.iqr_ms)),
            ("min_ms".to_string(), Json::Num(self.min_ms)),
            ("max_ms".to_string(), Json::Num(self.max_ms)),
            (
                "samples_ms".to_string(),
                Json::Arr(self.samples_ms.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("checksum".to_string(), Json::Num(self.checksum)),
        ];
        if let Some(counters) = &self.counters {
            fields.push((
                "counters".to_string(),
                Json::Obj(
                    counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ));
        }
        if let Some(spans) = &self.spans {
            fields.push((
                "spans".to_string(),
                Json::Obj(
                    spans
                        .iter()
                        .map(|s| {
                            (
                                s.name.to_string(),
                                Json::obj([
                                    ("count", Json::Num(s.count as f64)),
                                    ("total_ms", Json::Num(s.total_ms())),
                                    ("p50_ms", Json::Num(s.p50_ms())),
                                    ("p90_ms", Json::Num(s.p90_ms())),
                                    ("p99_ms", Json::Num(s.p99_ms())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

/// Renders a labelled harness run (label + options + every result) as the
/// JSON document `meg-lab bench --out` writes.
pub fn results_to_json(label: &str, opts: &BenchOptions, results: &[BenchResult]) -> Json {
    Json::obj([
        ("label", Json::Str(label.to_string())),
        ("harness", Json::Str("meg-lab bench".to_string())),
        ("repetitions", Json::Num(opts.repetitions as f64)),
        ("warmup", Json::Num(opts.warmup as f64)),
        ("scale", Json::Num(opts.scale)),
        (
            "results",
            Json::Arr(results.iter().map(BenchResult::to_json).collect()),
        ),
    ])
}

/// Names of all benchmark workloads, in registry order.
pub fn bench_names() -> Vec<&'static str> {
    vec![
        "geo_flood_n4096",
        "geo_snapshots_n4096",
        "geo_flood_torus_n2048",
        "edge_sparse_flood_n16384",
        "edge_dense_flood_n1024",
        "edge_dense_snapshots_n2048",
        "push_pull_geo_n2048",
        "edge_dense_flood_n4096",
        "edge_dense_flood_fast_n4096",
        "edge_sparse_flood_n65536",
        "edge_sparse_flood_fast_n65536",
    ]
}

fn scaled_n(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(16)
}

/// Trials and sequential floods per trial of the dense stepping A/B pair.
const DENSE_AB_TRIALS: u64 = 3;
const DENSE_AB_FLOODS: usize = 8;

/// Shared body of the dense stepping A/B pair: identical parameters and
/// seeds, the stepping mode is the *only* difference between the two
/// workload names, so `median(A)/median(B)` is the fast path's speedup.
///
/// Each trial builds one long-lived MEG and floods it from several sources
/// in sequence (the chain keeps evolving across floods). A single flood
/// completes in a handful of rounds, so the one-off `O(C(n,2))` stationary
/// initialisation — identical work in both modes — would otherwise dominate
/// the measurement and mask the per-round stepping difference the pair
/// exists to expose.
///
/// `q = 0.1` keeps the stationary density at `p̂` while thinning the flip
/// calendar (expected flips/round scale with `2p̂q`): the regime the
/// transitions path is built for, and the one the flooding scenarios above
/// threshold actually sit in — slowly-churning sparse graphs.
fn dense_flood_ab(n: usize, stepping: Stepping) -> (Vec<(String, f64)>, f64) {
    let p_hat = (4.0 * (n as f64).ln() / n as f64).min(0.9);
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.1);
    let mut sum = 0.0;
    for i in 0..DENSE_AB_TRIALS {
        let mut meg = DenseEdgeMeg::with_stepping(
            params,
            InitialDistribution::Stationary,
            stepping,
            BENCH_SEED + i,
        );
        for f in 0..DENSE_AB_FLOODS {
            let source = (f * n / DENSE_AB_FLOODS) as u32;
            let r = flood(&mut meg, source, 100_000);
            sum += r.rounds as f64 + r.informed_count() as f64;
        }
    }
    (
        vec![
            ("n".into(), n as f64),
            ("trials".into(), DENSE_AB_TRIALS as f64),
            ("floods".into(), DENSE_AB_FLOODS as f64),
        ],
        sum,
    )
}

/// Shared body of the sparse stepping A/B pair (single trial: at the full
/// `n = 65536` one flood already visits ~10⁶ alive edges per round).
fn sparse_flood_ab(n: usize, stepping: Stepping) -> (Vec<(String, f64)>, f64) {
    let p_hat = (3.0 * (n as f64).ln() / n as f64).min(0.9);
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.5);
    let mut meg = SparseEdgeMeg::with_stepping(
        params,
        InitialDistribution::Stationary,
        stepping,
        BENCH_SEED,
    );
    let r = flood(&mut meg, 0, 100_000);
    (
        vec![("n".into(), n as f64), ("trials".into(), 1.0)],
        r.rounds as f64 + r.informed_count() as f64,
    )
}

/// Geometric-MEG with grid-walk mobility at `factor ×` the connectivity
/// threshold (the Theorem 3.4/3.5 regime).
fn geo_meg(n: usize, factor: f64, seed: u64) -> GeometricMeg<meg_mobility::GridWalk> {
    let radius =
        factor * spec::geometric_connectivity_threshold(n, spec::DEFAULT_THRESHOLD_CONSTANT);
    let side = (n as f64).sqrt();
    let radius = radius.min(side * 0.95);
    GeometricMeg::from_params(
        GeometricMegParams {
            n,
            move_radius: radius * 0.5,
            transmission_radius: radius,
            resolution: 1.0,
        },
        seed,
    )
}

/// One repetition of a named workload; returns its checksum.
/// `None` means the name is unknown.
fn run_once(name: &str, scale: f64) -> Option<(Vec<(String, f64)>, f64)> {
    match name {
        // The acceptance workload of the snapshot-pipeline refactor: flooding
        // on a geometric MEG at n = 4096, three sources, snapshot rebuilt
        // every round.
        "geo_flood_n4096" => {
            let n = scaled_n(4096, scale);
            let mut sum = 0.0;
            for (i, source) in [0u32, 1, 2].into_iter().enumerate() {
                let mut meg = geo_meg(n, 1.2, BENCH_SEED + i as u64);
                let r = flood(&mut meg, source % n as u32, 100_000);
                sum += r.rounds as f64 + r.informed_count() as f64;
            }
            Some((vec![("n".into(), n as f64), ("trials".into(), 3.0)], sum))
        }
        // Pure snapshot construction: advance() in a loop, no protocol on
        // top, isolating the radius-graph + snapshot-buffer hot path.
        "geo_snapshots_n4096" => {
            let n = scaled_n(4096, scale);
            let steps = 60;
            let mut meg = geo_meg(n, 1.2, BENCH_SEED);
            let mut sum = 0.0;
            for _ in 0..steps {
                sum += meg.advance().num_edges() as f64;
            }
            Some((
                vec![("n".into(), n as f64), ("steps".into(), steps as f64)],
                sum,
            ))
        }
        // Torus metric exercises the wrapped distance check.
        "geo_flood_torus_n2048" => {
            let n = scaled_n(2048, scale);
            let side = (n as f64).sqrt();
            let radius = (1.2
                * spec::geometric_connectivity_threshold(n, spec::DEFAULT_THRESHOLD_CONSTANT))
            .min(side * 0.95);
            let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
            let walkers = meg_mobility::TorusWalkers::new(n, side, radius * 0.5, 1.0, &mut rng);
            let mut meg = GeometricMeg::new(walkers, radius, BENCH_SEED);
            let r = flood(&mut meg, 0, 100_000);
            Some((
                vec![("n".into(), n as f64)],
                r.rounds as f64 + r.informed_count() as f64,
            ))
        }
        // Sparse edge-MEG in the paper's sparse connected regime.
        "edge_sparse_flood_n16384" => {
            let n = scaled_n(16384, scale);
            let p_hat = 3.0 * (n as f64).ln() / n as f64;
            let params = EdgeMegParams::with_stationary(n, p_hat.min(0.9), 0.5);
            let mut sum = 0.0;
            for i in 0..3u64 {
                let mut meg = SparseEdgeMeg::stationary(params, BENCH_SEED + i);
                let r = flood(&mut meg, 0, 100_000);
                sum += r.rounds as f64 + r.informed_count() as f64;
            }
            Some((vec![("n".into(), n as f64), ("trials".into(), 3.0)], sum))
        }
        // Dense engine: every pair touched per step.
        "edge_dense_flood_n1024" => {
            let n = scaled_n(1024, scale);
            let p_hat = 4.0 * (n as f64).ln() / n as f64;
            let params = EdgeMegParams::with_stationary(n, p_hat.min(0.9), 0.5);
            let mut sum = 0.0;
            for i in 0..3u64 {
                let mut meg =
                    DenseEdgeMeg::new(params, InitialDistribution::Stationary, BENCH_SEED + i);
                let r = flood(&mut meg, 0, 100_000);
                sum += r.rounds as f64 + r.informed_count() as f64;
            }
            Some((vec![("n".into(), n as f64), ("trials".into(), 3.0)], sum))
        }
        // Dense snapshot rebuild without a protocol on top.
        "edge_dense_snapshots_n2048" => {
            let n = scaled_n(2048, scale);
            let p_hat = 0.02;
            let params = EdgeMegParams::with_stationary(n, p_hat, 0.3);
            let mut meg = DenseEdgeMeg::new(params, InitialDistribution::Stationary, BENCH_SEED);
            let steps = 20;
            let mut sum = 0.0;
            for _ in 0..steps {
                sum += meg.advance().num_edges() as f64;
            }
            Some((
                vec![("n".into(), n as f64), ("steps".into(), steps as f64)],
                sum,
            ))
        }
        // Push–pull consumes the snapshot differently (one random neighbor
        // per node per round), covering the neighbor-slice fast path.
        "push_pull_geo_n2048" => {
            let n = scaled_n(2048, scale);
            let mut meg = geo_meg(n, 1.5, BENCH_SEED);
            let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
            let r = push_pull_gossip(&mut meg, 0, 100_000, &mut rng);
            Some((
                vec![("n".into(), n as f64)],
                r.rounds as f64 + r.informed_count() as f64,
            ))
        }
        // PR 6 A/B pairs — per-pair reference vs geometric skip-sampled
        // transitions, equal parameters, interleave the two names to compare.
        "edge_dense_flood_n4096" => Some(dense_flood_ab(scaled_n(4096, scale), Stepping::PerPair)),
        "edge_dense_flood_fast_n4096" => {
            Some(dense_flood_ab(scaled_n(4096, scale), Stepping::Transitions))
        }
        "edge_sparse_flood_n65536" => {
            Some(sparse_flood_ab(scaled_n(65536, scale), Stepping::PerPair))
        }
        "edge_sparse_flood_fast_n65536" => Some(sparse_flood_ab(
            scaled_n(65536, scale),
            Stepping::Transitions,
        )),
        _ => None,
    }
}

/// Runs one named workload under `opts`; `None` if the name is unknown.
pub fn run_bench(name: &str, opts: &BenchOptions) -> Option<BenchResult> {
    let repetitions = opts.repetitions.max(1);
    // Warm-up: untimed, but must execute the identical workload.
    for _ in 0..opts.warmup {
        run_once(name, opts.scale)?;
    }
    let mut times_ms = Vec::with_capacity(repetitions);
    let mut params = Vec::new();
    let mut checksum = 0.0;
    for _ in 0..repetitions {
        let start = Instant::now();
        let (p, sum) = run_once(name, opts.scale)?;
        times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        params = p;
        checksum = sum;
    }
    let median_ms = quantile(&times_ms, 0.5).expect("non-empty");
    let q1 = quantile(&times_ms, 0.25).expect("non-empty");
    let q3 = quantile(&times_ms, 0.75).expect("non-empty");
    let min_ms = times_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max_ms = times_ms.iter().copied().fold(0.0f64, f64::max);
    Some(BenchResult {
        name: name.to_string(),
        params,
        repetitions,
        warmup: opts.warmup,
        median_ms,
        iqr_ms: q3 - q1,
        min_ms,
        max_ms,
        samples_ms: times_ms,
        checksum,
        counters: None,
        spans: None,
    })
}

/// [`run_bench`] plus one extra **untimed** repetition with the `meg-obs`
/// recorder installed, recording the counter deltas that repetition produced
/// (flips, RNG draws, delta patches/rebuilds, …) in
/// [`BenchResult::counters`]. The timed repetitions run with the recorder
/// off, so the reported wall times are the uninstrumented ones; the recorder
/// is uninstalled again before returning.
pub fn run_bench_with_counters(name: &str, opts: &BenchOptions) -> Option<BenchResult> {
    obs::uninstall();
    let mut result = run_bench(name, opts)?;
    obs::install();
    let before = obs::snapshot();
    let instrumented = run_once(name, opts.scale);
    let after = obs::snapshot();
    obs::uninstall();
    instrumented?;
    result.counters = Some(
        after
            .counter_deltas(&before)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    // The recorder was freshly installed above, so `after`'s span histograms
    // cover exactly the instrumented repetition.
    result.spans = Some(
        after
            .spans
            .iter()
            .filter(|s| s.count > 0)
            .copied()
            .collect(),
    );
    Some(result)
}

/// Metrics-off vs metrics-on A/B measurement of one workload — the number
/// behind the "instrumentation is free when off, cheap when on" claim and
/// the ≤ 5% overhead guard in `ci.sh`.
#[derive(Clone, Debug, PartialEq)]
pub struct OverheadResult {
    /// Workload name.
    pub name: String,
    /// Median wall time with no recorder installed, in milliseconds.
    pub off_median_ms: f64,
    /// Median wall time with the `meg-obs` recorder installed, in
    /// milliseconds.
    pub on_median_ms: f64,
    /// `on_median_ms / off_median_ms` — 1.0 means free, 1.05 is the guard.
    pub ratio: f64,
}

impl OverheadResult {
    /// Renders the measurement as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::Str(self.name.clone())),
            ("off_median_ms", Json::Num(self.off_median_ms)),
            ("on_median_ms", Json::Num(self.on_median_ms)),
            ("ratio", Json::Num(self.ratio)),
        ])
    }
}

/// Times one workload with the recorder uninstalled vs installed and reports
/// the median ratio. The two variants are **interleaved per repetition**
/// (off, on, off, on, …) so slow machine drift — thermal throttling,
/// frequency ramp-up, cache warming — cancels out of the ratio instead of
/// biasing whichever variant ran second. Both variants execute the identical
/// seeded work (the checksums are asserted equal), so the ratio isolates the
/// instrumentation cost. `None` if the name is unknown.
pub fn run_overhead(name: &str, opts: &BenchOptions) -> Option<OverheadResult> {
    let repetitions = opts.repetitions.max(1);
    obs::uninstall();
    for _ in 0..opts.warmup {
        run_once(name, opts.scale)?;
    }
    let mut off_ms = Vec::with_capacity(repetitions);
    let mut on_ms = Vec::with_capacity(repetitions);
    let mut off_sum = 0.0;
    let mut on_sum = 0.0;
    for _ in 0..repetitions {
        obs::uninstall();
        let start = Instant::now();
        let (_, sum) = run_once(name, opts.scale)?;
        off_ms.push(start.elapsed().as_secs_f64() * 1e3);
        off_sum = sum;

        obs::install();
        let start = Instant::now();
        let step = run_once(name, opts.scale);
        on_ms.push(start.elapsed().as_secs_f64() * 1e3);
        obs::uninstall();
        on_sum = step?.1;
    }
    assert_eq!(
        off_sum, on_sum,
        "metrics must not change behaviour for `{name}`"
    );
    let off_median_ms = quantile(&off_ms, 0.5).expect("non-empty");
    let on_median_ms = quantile(&on_ms, 0.5).expect("non-empty");
    Some(OverheadResult {
        name: name.to_string(),
        off_median_ms,
        on_median_ms,
        ratio: on_median_ms / off_median_ms.max(f64::MIN_POSITIVE),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: BenchOptions = BenchOptions {
        repetitions: 2,
        warmup: 1,
        scale: 0.02,
    };

    #[test]
    fn every_registered_bench_runs_and_reports_sane_statistics() {
        for name in bench_names() {
            let r = run_bench(name, &TINY).unwrap_or_else(|| panic!("bench `{name}` missing"));
            assert_eq!(r.name, name);
            assert_eq!(r.repetitions, 2);
            assert!(r.min_ms >= 0.0, "{name}");
            assert!(r.median_ms >= r.min_ms, "{name}");
            assert!(r.max_ms >= r.median_ms, "{name}");
            assert!(r.iqr_ms >= 0.0, "{name}");
            assert_eq!(r.samples_ms.len(), r.repetitions, "{name}");
            assert!(
                r.samples_ms
                    .iter()
                    .all(|&t| (r.min_ms..=r.max_ms).contains(&t)),
                "{name}: samples outside [min, max]"
            );
            assert!(r.checksum.is_finite() && r.checksum > 0.0, "{name}");
            assert!(!r.params.is_empty(), "{name}");
        }
    }

    #[test]
    fn stepping_ab_pairs_flood_the_same_population() {
        for (a, b) in [
            ("edge_dense_flood_n4096", "edge_dense_flood_fast_n4096"),
            ("edge_sparse_flood_n65536", "edge_sparse_flood_fast_n65536"),
        ] {
            let ra = run_bench(a, &TINY).unwrap();
            let rb = run_bench(b, &TINY).unwrap();
            assert_eq!(ra.params, rb.params, "{a} vs {b} must share parameters");
            // Both modes flood the full population; only the per-flood round
            // counts (single digits above threshold) may differ between the
            // two RNG schedules. The dense pair runs 3 trials × 8 sequential
            // floods, so allow ~10 rounds of drift per flood.
            assert!(
                (ra.checksum - rb.checksum).abs() < 250.0,
                "{a}={} vs {b}={}",
                ra.checksum,
                rb.checksum
            );
        }
    }

    #[test]
    fn unknown_bench_is_none() {
        assert!(run_bench("no_such_bench", &TINY).is_none());
        assert!(run_bench_with_counters("no_such_bench", &TINY).is_none());
        assert!(run_overhead("no_such_bench", &TINY).is_none());
    }

    /// One test covers both recorder-touching modes: the recorder is
    /// process-global, so splitting these into parallel-running tests would
    /// let one test's `uninstall()` race the other's instrumented repetition.
    #[test]
    fn counters_and_overhead_modes_use_the_recorder_and_restore_it() {
        let r = run_bench_with_counters("edge_dense_flood_n1024", &TINY).unwrap();
        let counters = r.counters.as_ref().expect("instrumented rep recorded");
        let get = |name: &str| {
            counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(get("edge_births") > 0, "dense flood must flip edges");
        assert!(
            get("rounds") == 0,
            "bench drives flood() directly, not trials"
        );
        let text = r.to_json().render();
        assert!(text.contains("\"counters\":{"), "{text}");
        assert!(Json::parse(&text).is_ok());
        assert!(!obs::installed(), "recorder must be off after --counters");

        let m = run_overhead("edge_dense_snapshots_n2048", &TINY).unwrap();
        assert!(m.off_median_ms >= 0.0 && m.on_median_ms >= 0.0);
        assert!(m.ratio.is_finite() && m.ratio > 0.0);
        assert!(!obs::installed(), "recorder must be off after --overhead");
        let text = m.to_json().render();
        assert!(text.contains("\"ratio\":"), "{text}");
    }

    #[test]
    fn checksums_are_deterministic_across_runs() {
        for name in ["geo_flood_n4096", "edge_sparse_flood_n16384"] {
            let a = run_bench(name, &TINY).unwrap();
            let b = run_bench(name, &TINY).unwrap();
            assert_eq!(a.checksum, b.checksum, "{name}");
        }
    }

    #[test]
    fn json_rendering_contains_every_field() {
        let r = run_bench("edge_dense_snapshots_n2048", &TINY).unwrap();
        let doc = results_to_json("test", &TINY, std::slice::from_ref(&r));
        let text = doc.render();
        for key in [
            "\"label\":\"test\"",
            "\"bench\":\"edge_dense_snapshots_n2048\"",
            "\"median_ms\":",
            "\"iqr_ms\":",
            "\"min_ms\":",
            "\"samples_ms\":[",
            "\"checksum\":",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        // And the document is parseable JSON.
        assert!(Json::parse(&text).is_ok());
    }
}
