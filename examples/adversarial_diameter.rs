//! Diameter tells you (almost) nothing about flooding time in a dynamic
//! network.
//!
//! The introduction of the paper observes that one can build an n-node dynamic
//! network whose every snapshot has constant diameter while flooding needs
//! Θ(n) rounds. The `RotatingStar` is such a witness: every snapshot is a star
//! (diameter 2), but the centre rotates one position per step, so from the
//! worst source exactly one new node learns the message per round.
//!
//! The `RotatingBridge` (two cliques joined by a rotating bridge, diameter 3)
//! shows the contrast: constant diameter *plus good expansion* does give fast
//! flooding — it is the expansion, not the diameter, that the paper's general
//! theorem turns into a bound.
//!
//! Run with:
//! ```text
//! cargo run --release --example adversarial_diameter
//! ```

use meg::prelude::*;

// The rotating bridge needs an even node count, hence `scaled_even`.
#[path = "support/scale.rs"]
mod support;
use support::scaled_even as scaled;

fn main() {
    let mut table = Table::new(
        "Snapshot diameter vs measured flooding time",
        &[
            "n",
            "evolving graph",
            "snapshot diameter",
            "worst-source flooding time",
        ],
    );

    for n in [scaled(64, 8), scaled(256, 16), scaled(1024, 32)] {
        let mut star = RotatingStar::new(n, 0);
        let source = star.worst_source();
        let diameter = star.snapshot_diameter();
        let time = flood(&mut star, source, 10 * n as u64)
            .completion_time()
            .expect("rotating star always completes");
        table.push_row(&[
            n.to_string(),
            "rotating star".to_string(),
            diameter.to_string(),
            time.to_string(),
        ]);

        let mut bridge = RotatingBridge::new(n);
        let diameter = bridge.snapshot_diameter();
        let time = flood(&mut bridge, 1, 10 * n as u64)
            .completion_time()
            .expect("rotating bridge always completes");
        table.push_row(&[
            n.to_string(),
            "rotating bridge (two cliques)".to_string(),
            diameter.to_string(),
            time.to_string(),
        ]);
    }

    println!("{}", table.render_ascii());
    println!(
        "Reading: both evolving graphs keep a tiny snapshot diameter, yet the rotating\n\
         star needs n−1 rounds to flood while the rotating bridge needs 3. Diameter\n\
         alone is useless as a flooding predictor — what the rotating star lacks, and\n\
         what Theorem 2.5 actually uses, is node expansion of the snapshots."
    );

    // Verify the closed-form prediction for the star on one more size.
    let n = scaled(500, 24);
    let mut star = RotatingStar::new(n, 3);
    let predicted = star.predicted_worst_completion_time();
    let source = star.worst_source();
    let measured = flood(&mut star, source, 10 * n as u64)
        .completion_time()
        .unwrap();
    println!("\nClosed-form check at n = {n}: predicted {predicted}, measured {measured}.");
    assert_eq!(predicted, measured);
}
