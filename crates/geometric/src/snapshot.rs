//! One-shot stationary snapshots.
//!
//! Several experiments (connectivity sweeps, the Theorem 3.2 expansion
//! profile, Claim 1 occupancy concentration) only need independent samples of
//! the *stationary snapshot distribution*, not the time-correlated dynamics.
//! Sampling a snapshot directly — stationary positions plus one radius-graph
//! construction — is much cheaper than running the full evolving graph.

use crate::model::GeometricMegParams;
use crate::radius_graph::radius_graph;
use meg_graph::SnapshotBuf;
use meg_mobility::space::Point;
use meg_mobility::Mobility;
use rand::Rng;

/// A stationary snapshot: node positions plus the induced radius graph.
#[derive(Clone, Debug)]
pub struct StationarySnapshot {
    /// Node positions drawn from the stationary distribution.
    pub positions: Vec<Point>,
    /// The induced radius graph.
    pub graph: SnapshotBuf,
}

/// Samples one stationary snapshot of the paper's canonical model
/// `G(n, r, R, ε)`.
pub fn sample_paper_snapshot<R: Rng>(
    params: GeometricMegParams,
    rng: &mut R,
) -> StationarySnapshot {
    snapshot_of(&params.grid_walk(rng), params.transmission_radius)
}

/// Builds the snapshot induced by the *current* positions of any mobility
/// model.
pub fn snapshot_of<M: Mobility>(mobility: &M, transmission_radius: f64) -> StationarySnapshot {
    let positions = mobility.positions().to_vec();
    let graph = radius_graph(&positions, transmission_radius, mobility.region());
    StationarySnapshot { positions, graph }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meg_graph::{connectivity, metrics};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn snapshot_has_consistent_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let snap = sample_paper_snapshot(GeometricMegParams::new(300, 1.0, 5.0), &mut rng);
        assert_eq!(snap.positions.len(), 300);
        assert_eq!(snap.graph.num_nodes(), 300);
        // expected degree ≈ πR² ≈ 78 — just check it is in a broad plausible band
        let avg = metrics::average_degree(&snap.graph);
        assert!(avg > 30.0 && avg < 150.0, "average degree {avg}");
    }

    #[test]
    fn snapshots_above_threshold_are_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // R = 6 ≥ 2√(ln 400) ≈ 4.9
        for _ in 0..3 {
            let snap = sample_paper_snapshot(GeometricMegParams::new(400, 1.0, 6.0), &mut rng);
            assert!(connectivity::is_connected(&snap.graph));
        }
    }

    #[test]
    fn snapshots_well_below_threshold_are_disconnected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let snap = sample_paper_snapshot(GeometricMegParams::new(400, 1.0, 1.2), &mut rng);
        assert!(!connectivity::is_connected(&snap.graph));
    }

    #[test]
    fn independent_samples_differ() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = sample_paper_snapshot(GeometricMegParams::new(200, 1.0, 5.0), &mut rng);
        let b = sample_paper_snapshot(GeometricMegParams::new(200, 1.0, 5.0), &mut rng);
        assert_ne!(a.positions, b.positions);
    }
}
