//! Experiment `exp_mobility_models` — the "further mobility models" claim.
//!
//! The flooding-time comparison across the four mobility models now runs
//! through the engine's built-in `mobility_models` scenario (one geometric
//! substrate per model, identical radius and speed). This wrapper adds the
//! stationary-occupancy uniformity diagnostics the scenario rows do not
//! carry: the paper's expansion argument only needs the stationary position
//! law to be (almost) uniform, so each model's TV distance from uniform and
//! max/min cell-occupancy ratio are reported first.
//!
//! Honours `MEG_SEED`, `MEG_TRIALS`, `MEG_SCALE`, `MEG_OUTPUT`; run
//! `meg-lab show mobility_models` to see the scenario as JSON.

use meg_engine::harness;
use meg_engine::sink::{format_from_env, render_table, OutputFormat};
use meg_mobility::grid_walk::GridWalkParams;
use meg_mobility::stationary::measure_uniformity;
use meg_mobility::{Billiard, GridWalk, RandomWaypoint, TorusWalkers};
use meg_stats::seeds::labeled_rng;
use meg_stats::table::fmt_f64;
use meg_stats::Table;

fn uniformity_table(seed: u64) -> Table {
    let n = (2_000.0 * harness::scale_from_env()).round().max(4.0) as usize;
    let side = (n as f64).sqrt();
    let radius = 2.0 * (n as f64).ln().sqrt();
    let move_radius = radius / 2.0;
    let cells = ((side / radius).floor() as usize).max(2);

    let mut table = Table::new(
        format!(
            "exp_mobility_models: stationary occupancy uniformity over {cells}×{cells} cells \
             (n = {n}, r = {move_radius:.2})"
        ),
        &[
            "model",
            "TV distance from uniform",
            "max/min cell occupancy",
        ],
    );

    // The `Mobility` trait is not object-safe (its methods are generic over
    // the RNG), so the models are enumerated explicitly instead of boxed.
    {
        let mut rng = labeled_rng(seed, "mob-grid");
        let mut probe = GridWalk::new(
            GridWalkParams {
                n,
                side,
                move_radius,
                resolution: 1.0,
            },
            &mut rng,
        );
        let report = measure_uniformity(&mut probe, cells, 3, &mut rng);
        table.push_row(&[
            "grid random walk (paper)".to_string(),
            fmt_f64(report.tv_distance),
            fmt_f64(report.max_min_ratio),
        ]);
    }
    {
        let mut rng = labeled_rng(seed, "mob-walkers");
        let mut probe = TorusWalkers::new(n, side, move_radius, 1.0, &mut rng);
        let report = measure_uniformity(&mut probe, cells, 3, &mut rng);
        table.push_row(&[
            "walkers on toroidal grid".to_string(),
            fmt_f64(report.tv_distance),
            fmt_f64(report.max_min_ratio),
        ]);
    }
    {
        let mut rng = labeled_rng(seed, "mob-waypoint");
        let mut probe = RandomWaypoint::new(n, side, move_radius / 2.0, move_radius, &mut rng);
        let report = measure_uniformity(&mut probe, cells, 3, &mut rng);
        table.push_row(&[
            "random waypoint on torus".to_string(),
            fmt_f64(report.tv_distance),
            fmt_f64(report.max_min_ratio),
        ]);
    }
    {
        let mut rng = labeled_rng(seed, "mob-billiard");
        let mut probe = Billiard::new(n, side, move_radius / 2.0, move_radius, 0.1, &mut rng);
        let report = measure_uniformity(&mut probe, cells, 3, &mut rng);
        table.push_row(&[
            "random direction / billiard".to_string(),
            fmt_f64(report.tv_distance),
            fmt_f64(report.max_min_ratio),
        ]);
    }
    table
}

fn main() {
    // Machine-readable formats get only the engine rows; the uniformity
    // diagnostics are a human-facing preamble.
    let format = format_from_env();
    if format == OutputFormat::Table {
        let table = uniformity_table(harness::master_seed_from_env());
        println!("{}", render_table(&table, format));
    }
    harness::run_builtin_experiment(
        "mobility_models",
        "Expected shape: every model keeps the TV distance small and the max/min occupancy\n\
         ratio near 1, and their flooding times all sit within a small constant factor of\n\
         the same Θ(√n/R) value — supporting the paper's claim that only the (almost)\n\
         uniform stationary distribution matters.",
    );
}
