//! Mobile ad-hoc network scenario: a fleet of vehicles with fixed-range
//! radios drives around a square region; a traffic alert is flooded from one
//! vehicle and we ask how the transmission range and the vehicle speed affect
//! the time until everyone has the alert.
//!
//! This is the scenario the paper's geometric-MEG results are about:
//! * flooding time scales like √n / R (Corollary 3.6), and
//! * as long as the speed r is at most comparable to R, making vehicles move
//!   faster does not help or hurt much.
//!
//! Run with:
//! ```text
//! cargo run --release --example mobile_network
//! ```

use meg::prelude::*;
use meg::stats::table::fmt_f64;

fn average_flooding_time(n: usize, move_radius: f64, radius: f64, trials: usize, seed: u64) -> f64 {
    let mut total = 0.0;
    let mut completed = 0usize;
    for t in 0..trials {
        let params = GeometricMegParams::new(n, move_radius, radius);
        let mut meg = GeometricMeg::from_params(params, seed + t as u64);
        if let Some(time) = flood(&mut meg, 0, 100_000).completion_time() {
            total += time as f64;
            completed += 1;
        }
    }
    if completed == 0 {
        f64::NAN
    } else {
        total / completed as f64
    }
}

#[path = "support/scale.rs"]
mod support;
use support::scaled;

fn main() {
    let n = scaled(1_200, 150);
    let trials = 3usize;
    let threshold = spec::geometric_connectivity_threshold(n, spec::DEFAULT_THRESHOLD_CONSTANT);
    println!(
        "fleet size n = {n}, square side = {:.1}, connectivity threshold R ≥ {threshold:.2}\n",
        (n as f64).sqrt()
    );

    // ------------------------------------------------ sweep transmission range
    let mut by_radius = Table::new(
        "Alert dissemination time vs radio range (speed r = R/2)",
        &["R", "mean flooding time", "√n/R (theory shape)"],
    );
    for factor in [1.0, 1.5, 2.0, 3.0] {
        let radius = threshold * factor;
        let mean = average_flooding_time(n, radius / 2.0, radius, trials, 7_000);
        let shape = (n as f64).sqrt() / radius;
        by_radius.push_row(&[fmt_f64(radius), fmt_f64(mean), fmt_f64(shape)]);
    }
    println!("{}", by_radius.render_ascii());

    // ------------------------------------------------------- sweep vehicle speed
    let radius = threshold * 1.5;
    let mut by_speed = Table::new(
        "Alert dissemination time vs vehicle speed (fixed R)",
        &["r / R", "mean flooding time"],
    );
    for ratio in [0.0, 0.25, 0.5, 1.0, 2.0] {
        // move radius 0 is not allowed by the model; use a tiny value that the
        // grid resolution rounds down to "no movement".
        let move_radius = if ratio == 0.0 { 0.4 } else { radius * ratio };
        let mean = average_flooding_time(n, move_radius, radius, trials, 9_000);
        by_speed.push_row(&[fmt_f64(ratio), fmt_f64(mean)]);
    }
    println!("{}", by_speed.render_ascii());

    println!(
        "Reading: dissemination time falls roughly like 1/R as the radio range grows,\n\
         and for speeds up to about the radio range it is essentially flat — exactly\n\
         the behaviour Theorem 3.4 / Corollary 3.6 predict."
    );
}
