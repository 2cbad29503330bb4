//! Bridging simulation and the general theorem.
//!
//! Theorem 2.5 needs an `(h_i, k_i)` expander sequence that holds w.h.p. for
//! the *stationary snapshot distribution*. In an experiment we do not know
//! that sequence analytically for an arbitrary model, but we can estimate it:
//! draw several snapshots from the evolving graph, measure each one's
//! empirical expansion profile, and keep the point-wise worst rates. Feeding
//! the result to [`ExpanderSequence`]
//! yields a fully data-driven flooding-time prediction that the measured
//! flooding time can be compared against (experiment `exp_general_bound`).

use crate::evolving::EvolvingGraph;
use crate::expansion::{ExpanderSequence, SequenceError};
use meg_graph::expansion::{ExpansionPoint, ExpansionProfile, SamplingStrategy};
use rand::Rng;

/// Options controlling [`measure_expansion_sequence`].
#[derive(Clone, Copy, Debug)]
pub struct ExpansionMeasurement {
    /// How many snapshots of the evolving graph to inspect.
    pub snapshots: usize,
    /// Candidate sets sampled per set size per snapshot.
    pub samples_per_size: usize,
    /// Sampling strategy for candidate sets.
    pub strategy: SamplingStrategy,
}

impl Default for ExpansionMeasurement {
    fn default() -> Self {
        ExpansionMeasurement {
            snapshots: 5,
            samples_per_size: 20,
            strategy: SamplingStrategy::Mixed,
        }
    }
}

/// Measures an empirical expansion profile of `meg` across several snapshots,
/// keeping the worst (smallest) observed rate at each set size.
pub fn measure_expansion_profile<M, R>(
    meg: &mut M,
    options: ExpansionMeasurement,
    rng: &mut R,
) -> ExpansionProfile
where
    M: EvolvingGraph,
    R: Rng,
{
    let mut merged: Vec<ExpansionPoint> = Vec::new();
    for _ in 0..options.snapshots.max(1) {
        let snapshot = meg.advance();
        let profile =
            ExpansionProfile::measure(snapshot, options.samples_per_size, options.strategy, rng);
        if merged.is_empty() {
            merged = profile.points;
        } else {
            for (acc, new) in merged.iter_mut().zip(profile.points.iter()) {
                debug_assert_eq!(acc.h, new.h, "profiles measured on the same node count");
                if new.min_ratio < acc.min_ratio {
                    acc.min_ratio = new.min_ratio;
                }
            }
        }
    }
    ExpansionProfile { points: merged }
}

/// Measures an empirical [`ExpanderSequence`] for `meg`
/// (worst observed expansion over several snapshots, made monotone).
pub fn measure_expansion_sequence<M, R>(
    meg: &mut M,
    options: ExpansionMeasurement,
    rng: &mut R,
) -> Result<ExpanderSequence, SequenceError>
where
    M: EvolvingGraph,
    R: Rng,
{
    let n = meg.num_nodes();
    let profile = measure_expansion_profile(meg, options, rng);
    ExpanderSequence::from_profile(n, &profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::FrozenGraph;
    use crate::flooding::flood_static;
    use meg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn measured_bound_dominates_measured_flooding_on_good_expanders() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::complete(60);
        let mut frozen = FrozenGraph::new(g.clone());
        let seq =
            measure_expansion_sequence(&mut frozen, ExpansionMeasurement::default(), &mut rng)
                .unwrap();
        let bound = seq.flooding_bound();
        let measured = flood_static(&g, 0).completion_time().unwrap() as f64;
        assert!(
            bound >= measured,
            "Lemma 2.4 bound {bound} must dominate measured flooding {measured}"
        );
    }

    #[test]
    fn measured_bound_dominates_flooding_on_grid() {
        // Grids are weak expanders; the bound is far from tight but must still
        // be an upper bound on the measured flooding time.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::grid2d(8, 8);
        let mut frozen = FrozenGraph::new(g.clone());
        let options = ExpansionMeasurement {
            snapshots: 3,
            samples_per_size: 40,
            strategy: SamplingStrategy::Mixed,
        };
        let seq = measure_expansion_sequence(&mut frozen, options, &mut rng).unwrap();
        let bound = seq.flooding_bound();
        // Source near the centre of the grid (the bound is a worst-case-source
        // statement only when fed the exact worst-case expansion; the sampled
        // profile is an estimate, so compare against a typical source).
        let measured = flood_static(&g, 27).completion_time().unwrap() as f64;
        assert!(bound >= measured, "bound {bound} vs measured {measured}");
    }

    #[test]
    fn profile_merging_keeps_worst_rate() {
        // An evolving graph alternating between a complete graph and a cycle:
        // the merged profile must reflect the cycle's (much worse) expansion.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let complete = generators::complete(24);
        let cycle = generators::cycle(24);
        let mut meg = crate::evolving::ScheduledGraph::new(vec![complete.clone(), cycle.clone()]);
        let options = ExpansionMeasurement {
            snapshots: 4,
            samples_per_size: 30,
            strategy: SamplingStrategy::BfsBalls,
        };
        let merged = measure_expansion_profile(&mut meg, options, &mut rng);
        // At set size 4, the cycle's BFS balls expand by exactly 2/4 = 0.5,
        // while the complete graph expands by 20/4 = 5.
        let at_4 = merged.points.iter().find(|p| p.h == 4).unwrap();
        assert!(at_4.min_ratio <= 0.5 + 1e-12);
    }

    #[test]
    fn default_options_are_sane() {
        let o = ExpansionMeasurement::default();
        assert!(o.snapshots >= 1);
        assert!(o.samples_per_size >= 1);
    }
}
