//! Snapshot construction: the graph induced by node positions and a
//! transmission radius, under either the square (Euclidean) or toroidal
//! metric.
//!
//! A uniform bucket grid with cell side `≥ R` reduces the candidate pairs to
//! nodes in the same or adjacent cells, so a snapshot costs
//! `O(n + #candidate pairs)` — the dominant cost of simulating geometric-MEG,
//! incurred once per time step.
//!
//! The construction is allocation-free on the hot path:
//! [`radius_graph_into`] fills a caller-owned
//! [`SnapshotBuf`] using a caller-owned [`RadiusGraphWorkspace`] whose bucket
//! index is a **flat counting sort** — bucket membership, node ids, and the
//! `x`/`y` coordinates each live in one contiguous vector, so the inner
//! candidate loops scan flat `f64` slices (cache-friendly, no per-bucket
//! `Vec`s) through a fixed-lane chunked kernel (`compress_close`) that
//! LLVM autovectorizes: packed squared-distance compares, branchless hit
//! compression, safe code only (the re-verify procedure lives in
//! `docs/PERF.md`).
//! [`radius_graph`] is the one-shot allocating wrapper over the same core
//! (identical edge order), kept for single-snapshot sampling and tests.

use meg_graph::{Node, SnapshotBuf};
use meg_mobility::space::{Point, Region};
use meg_obs as obs;

/// Reusable scratch for the bucket-grid construction.
///
/// Hoisted out of the per-call path (the old implementation allocated a
/// `vec![Vec::new(); k²]` bucket table per snapshot): the caller owns one
/// workspace per evolving graph and every rebuild reuses its five flat
/// vectors, which stop allocating once their capacities reach the run's
/// high-water mark.
#[derive(Clone, Debug, Default)]
pub struct RadiusGraphWorkspace {
    /// Per-bucket occupancy counts (counting-sort pass 1), then reused as the
    /// per-bucket fill cursor in pass 2.
    counts: Vec<usize>,
    /// Per-bucket start offset into the three flat arrays (`k² + 1` entries).
    starts: Vec<usize>,
    /// Node ids, grouped by bucket, index order preserved inside each bucket.
    nodes: Vec<Node>,
    /// `x` coordinate of `nodes[i]` (flat, parallel to `nodes`).
    xs: Vec<f64>,
    /// `y` coordinate of `nodes[i]` (flat, parallel to `nodes`).
    ys: Vec<f64>,
    /// Branchless-compress scratch of the lane kernel ([`compress_close`]):
    /// accepted candidate slots of the current inner scan (the accept branch
    /// mispredicts ~⅓ of the time if taken inline; an unconditional store
    /// plus flag add is far cheaper, and keeping the accept test branch-free
    /// is what lets LLVM vectorize it).
    hits: Vec<usize>,
}

/// Squared-distance test over flat coordinate values — the single distance
/// check shared by every candidate loop (previously duplicated through
/// `Region::distance_squared`, which re-matched the region enum per pair).
#[inline(always)]
fn within_square(ax: f64, ay: f64, bx: f64, by: f64, r2: f64) -> bool {
    let dx = ax - bx;
    let dy = ay - by;
    dx * dx + dy * dy <= r2
}

/// Toroidal variant: folds each axis delta to its minimal wrap-around
/// representative, then applies the same squared test. The fold is the
/// branchless `d.min(side − d)`, which selects the *same value* as the
/// historical `if d > half { side − d }` on every input (for `d ≤ side/2`
/// the direct delta is the minimum, beyond it the complement is — and at
/// exactly `side/2` the two coincide), so accept/reject decisions are
/// bit-identical to `Region::Torus::distance_squared`. Branch-free matters
/// here: this predicate runs inside the lane kernel ([`compress_close`]),
/// where any data-dependent branch would block autovectorization.
#[inline(always)]
fn within_torus(ax: f64, ay: f64, bx: f64, by: f64, r2: f64, side: f64) -> bool {
    let dxa = (ax - bx).abs();
    let dx = dxa.min(side - dxa);
    let dya = (ay - by).abs();
    let dy = dya.min(side - dya);
    dx * dx + dy * dy <= r2
}

/// Metric predicate monomorphised into the candidate kernels: a small `Copy`
/// struct (not a closure) so the two region kinds instantiate
/// [`compress_close`] and [`scan_buckets`] as named, inspectable
/// monomorphizations with fully branchless `accept` bodies.
trait LaneMetric: Copy {
    /// Is `b` within transmission range of `a`?
    fn accept(self, ax: f64, ay: f64, bx: f64, by: f64) -> bool;
}

/// Euclidean metric on the square, radius pre-squared.
#[derive(Clone, Copy)]
struct SquareMetric {
    r2: f64,
}

impl LaneMetric for SquareMetric {
    #[inline(always)]
    fn accept(self, ax: f64, ay: f64, bx: f64, by: f64) -> bool {
        within_square(ax, ay, bx, by, self.r2)
    }
}

/// Wrap-around metric on the torus, radius pre-squared.
#[derive(Clone, Copy)]
struct TorusMetric {
    r2: f64,
    side: f64,
}

impl LaneMetric for TorusMetric {
    #[inline(always)]
    fn accept(self, ax: f64, ay: f64, bx: f64, by: f64) -> bool {
        within_torus(ax, ay, bx, by, self.r2, self.side)
    }
}

/// Lane width of the chunked distance kernel. Bucket occupancy at realistic
/// radii is small (≈ n·r² ≲ 10 nodes), so candidate ranges are short; a
/// narrow chunk vectorizes more of each range (fewer candidates stranded in
/// the scalar remainder) while still filling the 2 × f64 SSE2 lanes of the
/// x86-64 baseline twice over (and a 4 × f64 AVX register exactly, under
/// `-C target-cpu` builds).
const LANES: usize = 4;

/// The vectorizable candidate kernel: tests every `(xs[j], ys[j])` against
/// `(ux, uy)` and compresses the indices of accepted candidates (offset by
/// `base`, ascending) into the front of `hits`, returning how many.
///
/// Safe-code autovectorization contract (see `docs/PERF.md`): the hot loop
/// runs over `chunks_exact(LANES)` computing a `[bool; LANES]` mask — fixed
/// trip count, no data-dependent control flow, and fixed-size `[f64; LANES]`
/// chunk views so no bounds checks survive to block the vectorizer — which
/// LLVM turns into packed f64 compares. The mask is then compressed serially
/// (an unconditional store plus flag add per lane, no branch to mispredict);
/// sub-chunk leftovers take the scalar remainder loop, same branchless
/// compress. Emission order is ascending `j`, exactly what the historical
/// branchy scan produced.
#[inline]
fn compress_close<M: LaneMetric>(
    metric: M,
    ux: f64,
    uy: f64,
    xs: &[f64],
    ys: &[f64],
    base: usize,
    hits: &mut [usize],
) -> usize {
    debug_assert_eq!(xs.len(), ys.len());
    let mut cnt = 0usize;
    let mut off = 0usize;
    let mut cx = xs.chunks_exact(LANES);
    let mut cy = ys.chunks_exact(LANES);
    for (chunk_x, chunk_y) in cx.by_ref().zip(cy.by_ref()) {
        let chunk_x: &[f64; LANES] = chunk_x.try_into().expect("chunks_exact");
        let chunk_y: &[f64; LANES] = chunk_y.try_into().expect("chunks_exact");
        let mut mask = [false; LANES];
        for l in 0..LANES {
            mask[l] = metric.accept(ux, uy, chunk_x[l], chunk_y[l]);
        }
        for (l, &hit) in mask.iter().enumerate() {
            hits[cnt] = base + off + l;
            cnt += hit as usize;
        }
        off += LANES;
    }
    for (l, (&x, &y)) in cx.remainder().iter().zip(cy.remainder()).enumerate() {
        hits[cnt] = base + off + l;
        cnt += metric.accept(ux, uy, x, y) as usize;
    }
    cnt
}

/// Buckets per axis for a region of side `side`: each bucket has side
/// `≥ radius`, so any pair within the radius lies in the same or an adjacent
/// bucket.
#[inline]
fn grid_k(side: f64, radius: f64) -> usize {
    ((side / radius).floor() as usize).max(1)
}

/// Counting sort of the nodes into buckets: three flat arrays
/// (`nodes`/`xs`/`ys` grouped by bucket, `starts` delimiting each group),
/// node index order preserved within each bucket (same per-bucket order as
/// pushing into per-bucket Vecs).
fn build_bucket_index(
    positions: &[Point],
    k: usize,
    bucket_side: f64,
    ws: &mut RadiusGraphWorkspace,
) {
    let n = positions.len();
    let nb = k * k;
    ws.counts.clear();
    ws.counts.resize(nb, 0);
    let bucket_of = |p: Point| -> usize {
        let bx = ((p.0 / bucket_side) as usize).min(k - 1);
        let by = ((p.1 / bucket_side) as usize).min(k - 1);
        by * k + bx
    };
    // Cache each node's bucket id in the `hits` scratch so the placement
    // pass below reuses it instead of redoing the two divisions per node
    // (the scratch is free here — the candidate scan only needs it later).
    ws.hits.resize(n, 0);
    for (i, &p) in positions.iter().enumerate() {
        let b = bucket_of(p);
        ws.hits[i] = b;
        ws.counts[b] += 1;
    }
    ws.starts.clear();
    ws.starts.reserve(nb + 1);
    let mut acc = 0usize;
    ws.starts.push(0);
    for &c in &ws.counts {
        acc += c;
        ws.starts.push(acc);
    }
    ws.counts.copy_from_slice(&ws.starts[..nb]);
    // Resize without `clear()`: the placement pass overwrites every slot, so
    // re-initialising the kept prefix would be wasted work.
    ws.nodes.resize(n, 0);
    ws.xs.resize(n, 0.0);
    ws.ys.resize(n, 0.0);
    for (i, &p) in positions.iter().enumerate() {
        let slot = &mut ws.counts[ws.hits[i]];
        ws.nodes[*slot] = i as Node;
        ws.xs[*slot] = p.0;
        ws.ys[*slot] = p.1;
        *slot += 1;
    }
}

/// Builds the radius graph of `positions` **in place**: the snapshot lands in
/// the caller-owned `out` buffer, scratch lives in the caller-owned `ws`.
///
/// Nodes are connected iff their distance (Euclidean in a square, wrap-around
/// on a torus) is at most `radius`. Every edge is pushed once as a
/// `(min, max)` pair in bucket scan order, so neighbor order is
/// deterministic. Performs zero heap allocations once both buffers'
/// capacities have warmed up — this is the per-time-step hot path of every
/// geometric evolving graph.
pub fn radius_graph_into(
    positions: &[Point],
    radius: f64,
    region: Region,
    ws: &mut RadiusGraphWorkspace,
    out: &mut SnapshotBuf,
) {
    let n = positions.len();
    out.begin(n);
    if n == 0 || radius <= 0.0 {
        out.build();
        return;
    }
    let side = region.side();
    let r2 = radius * radius;
    let wrap = region.is_torus();
    // Number of buckets per axis; each bucket has side ≥ radius so only the
    // 8-neighborhood needs to be examined. On a torus the neighborhood wraps.
    let k = grid_k(side, radius);
    let bucket_side = side / k as f64;
    build_bucket_index(positions, k, bucket_side, ws);

    // Monomorphise the candidate scan per metric so the inner lane kernel
    // carries no per-pair branch on the region kind.
    if wrap {
        scan_buckets(ws, k, true, TorusMetric { r2, side }, out);
    } else {
        scan_buckets(ws, k, false, SquareMetric { r2 }, out);
    }
    out.build();
}

/// The bucket-pair candidate scan over an already-built workspace index.
///
/// `metric` is the distance predicate (monomorphised per region); `wrap`
/// selects toroidal neighbor offsets. Every candidate range runs through the
/// chunked lane kernel [`compress_close`] — packed squared-distance compares
/// over the SoA `xs`/`ys` slices, accepted slots compressed branchlessly
/// into `ws.hits` before emission. The emission order (ascending slot among
/// accepted) is exactly the order the historical branchy scan produced.
fn scan_buckets<M: LaneMetric>(
    ws: &mut RadiusGraphWorkspace,
    k: usize,
    wrap: bool,
    metric: M,
    out: &mut SnapshotBuf,
) {
    let RadiusGraphWorkspace {
        starts,
        nodes,
        xs,
        ys,
        hits,
        ..
    } = ws;
    let nb = k * k;
    // With ≤ 3 buckets per axis a wrapped neighbor offset can land on a
    // bucket pair that was already examined (the historical implementation
    // deduplicated this with a checked `add_edge` per candidate); a tiny
    // visited-pair mask restores single-visit semantics at bucket-pair
    // granularity instead — same edge set, same emission order, no per-edge
    // membership scan. `k ≤ 3 ⇒ nb ≤ 9 ⇒ nb² ≤ 81`.
    let dedup_pairs = k <= 3;
    let mut visited_pair = [false; 81];
    // Candidate-pair tally for the `bucket_scan_visits` counter: accumulated
    // at bucket-pair granularity (one multiply per pair of buckets, nothing
    // per candidate) and flushed once at the end.
    let mut visits = 0u64;

    let m = k as isize;
    for by in 0..k {
        for bx in 0..k {
            let here_idx = by * k + bx;
            let hs = starts[here_idx];
            let he = starts[here_idx + 1];
            let cnt = (he - hs) as u64;
            visits += cnt * cnt.saturating_sub(1) / 2;
            // Same-bucket pairs: i < j scan order == node index order.
            for i in hs..he {
                let (uxi, uyi) = (xs[i], ys[i]);
                let cnt = compress_close(
                    metric,
                    uxi,
                    uyi,
                    &xs[i + 1..he],
                    &ys[i + 1..he],
                    i + 1,
                    hits,
                );
                for &j in &hits[..cnt] {
                    let (u, v) = (nodes[i], nodes[j]);
                    out.push_edge(u.min(v), u.max(v));
                }
            }
            // Forward neighbor buckets (E, SW, S, SE) so each unordered bucket
            // pair is visited once; wrapped duplicates are skipped through the
            // visited-pair mask above.
            for (dx, dy) in [(1isize, 0isize), (-1, 1), (0, 1), (1, 1)] {
                let (nx, ny) = if wrap {
                    (
                        ((bx as isize + dx).rem_euclid(m)) as usize,
                        ((by as isize + dy).rem_euclid(m)) as usize,
                    )
                } else {
                    let nx = bx as isize + dx;
                    let ny = by as isize + dy;
                    if nx < 0 || ny < 0 || nx >= m || ny >= m {
                        continue;
                    }
                    (nx as usize, ny as usize)
                };
                let there_idx = ny * k + nx;
                if there_idx == here_idx {
                    continue; // wrapped onto ourselves (tiny grids)
                }
                if dedup_pairs {
                    let key = here_idx.min(there_idx) * nb + here_idx.max(there_idx);
                    if visited_pair[key] {
                        continue;
                    }
                    visited_pair[key] = true;
                }
                let ts = starts[there_idx];
                let te = starts[there_idx + 1];
                visits += (he - hs) as u64 * (te - ts) as u64;
                for i in hs..he {
                    let (uxi, uyi) = (xs[i], ys[i]);
                    let cnt = compress_close(metric, uxi, uyi, &xs[ts..te], &ys[ts..te], ts, hits);
                    for &j in &hits[..cnt] {
                        let (u, v) = (nodes[i], nodes[j]);
                        out.push_edge(u.min(v), u.max(v));
                    }
                }
            }
        }
    }
    if obs::installed() {
        obs::add(obs::Counter::BucketScanVisits, visits);
    }
}

/// Builds the radius graph of `positions` under the metric of `region`
/// (one-shot allocating form of [`radius_graph_into`]).
pub fn radius_graph(positions: &[Point], radius: f64, region: Region) -> SnapshotBuf {
    let mut g = SnapshotBuf::new();
    radius_graph_into(
        positions,
        radius,
        region,
        &mut RadiusGraphWorkspace::default(),
        &mut g,
    );
    g
}

/// Brute-force reference implementation (O(n²)), used by tests and available
/// for very small inputs.
pub fn radius_graph_brute_force(positions: &[Point], radius: f64, region: Region) -> SnapshotBuf {
    let n = positions.len();
    let mut g = SnapshotBuf::new();
    g.begin(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            if region.distance_squared(positions[u], positions[v]) <= r2 {
                g.push_edge(u as Node, v as Node);
            }
        }
    }
    g.build();
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_positions(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect()
    }

    fn assert_same_graph(a: &SnapshotBuf, b: &SnapshotBuf) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for u in 0..a.num_nodes() as Node {
            let mut na = a.neighbors(u).to_vec();
            let mut nb = b.neighbors(u).to_vec();
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb, "neighbors of {u}");
        }
    }

    #[test]
    fn square_metric_matches_brute_force() {
        let region = Region::Square { side: 20.0 };
        for (n, radius, seed) in [(150usize, 2.0f64, 1u64), (80, 5.0, 2), (60, 0.7, 3)] {
            let pos = random_positions(n, 20.0, seed);
            let fast = radius_graph(&pos, radius, region);
            let slow = radius_graph_brute_force(&pos, radius, region);
            assert_same_graph(&fast, &slow);
        }
    }

    #[test]
    fn torus_metric_matches_brute_force() {
        let region = Region::Torus { side: 20.0 };
        for (n, radius, seed) in [(150usize, 2.0f64, 4u64), (80, 5.0, 5), (50, 9.0, 6)] {
            let pos = random_positions(n, 20.0, seed);
            let fast = radius_graph(&pos, radius, region);
            let slow = radius_graph_brute_force(&pos, radius, region);
            assert_same_graph(&fast, &slow);
        }
    }

    #[test]
    fn in_place_form_matches_allocating_form_exactly() {
        // Same workspace and snapshot buffer reused across every
        // configuration: the in-place construction must agree with the
        // allocating one edge-for-edge (including neighbor order) on both
        // metrics, including tiny wrapped grids where bucket pairs collide.
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        let mut checked = 0usize;
        for seed in 0..25u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let n = rng.gen_range(1..120usize);
            let side = rng.gen_range(3.0..25.0f64);
            let radius = rng.gen_range(0.2..side); // spans k = 1 .. large
            for region in [Region::Square { side }, Region::Torus { side }] {
                let pos = random_positions(n, side, 2000 + seed);
                let reference = radius_graph(&pos, radius, region);
                radius_graph_into(&pos, radius, region, &mut ws, &mut buf);
                assert_eq!(buf.num_nodes(), reference.num_nodes());
                assert_eq!(buf.num_edges(), reference.num_edges(), "seed {seed}");
                for u in 0..n as Node {
                    assert_eq!(
                        buf.neighbors(u),
                        reference.neighbors(u),
                        "seed {seed} {region:?} node {u}"
                    );
                }
                let brute = radius_graph_brute_force(&pos, radius, region);
                assert_same_graph(&reference, &brute);
                checked += 1;
            }
        }
        assert_eq!(checked, 50);
    }

    #[test]
    fn workspace_capacities_stabilise_after_warmup() {
        let region = Region::Torus { side: 12.0 };
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        let pos = random_positions(400, 12.0, 9);
        for _ in 0..5 {
            radius_graph_into(&pos, 2.5, region, &mut ws, &mut buf);
        }
        let warm = (
            ws.counts.capacity(),
            ws.starts.capacity(),
            ws.nodes.capacity(),
            ws.xs.capacity(),
            ws.ys.capacity(),
            buf.capacities(),
        );
        for _ in 0..20 {
            radius_graph_into(&pos, 2.5, region, &mut ws, &mut buf);
            let now = (
                ws.counts.capacity(),
                ws.starts.capacity(),
                ws.nodes.capacity(),
                ws.xs.capacity(),
                ws.ys.capacity(),
                buf.capacities(),
            );
            assert_eq!(now, warm, "workspace capacity drifted after warm-up");
        }
    }

    #[test]
    fn torus_connects_across_the_seam() {
        let region = Region::Torus { side: 10.0 };
        let pos = [(0.2, 5.0), (9.8, 5.0), (5.0, 5.0)];
        let g = radius_graph(&pos, 1.0, region);
        assert!(
            g.has_edge(0, 1),
            "nodes near opposite edges are close on the torus"
        );
        assert_eq!(g.num_edges(), 1);
        // Same positions under the square metric are far apart.
        let sq = radius_graph(&pos, 1.0, Region::Square { side: 10.0 });
        assert_eq!(sq.num_edges(), 0);
    }

    #[test]
    fn radius_larger_than_region_gives_complete_graph() {
        let region = Region::Square { side: 5.0 };
        let pos = random_positions(30, 5.0, 7);
        let g = radius_graph(&pos, 10.0, region);
        assert_eq!(g.num_edges(), 30 * 29 / 2);
        let torus = radius_graph(&pos, 10.0, Region::Torus { side: 5.0 });
        assert_eq!(torus.num_edges(), 30 * 29 / 2);
    }

    #[test]
    fn degenerate_inputs() {
        let region = Region::Square { side: 5.0 };
        assert_eq!(radius_graph(&[], 1.0, region).num_nodes(), 0);
        assert_eq!(radius_graph(&[(1.0, 1.0)], 1.0, region).num_edges(), 0);
        assert_eq!(
            radius_graph(&[(1.0, 1.0), (1.5, 1.0)], 0.0, region).num_edges(),
            0
        );
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        radius_graph_into(&[], 1.0, region, &mut ws, &mut buf);
        assert_eq!(buf.num_nodes(), 0);
        radius_graph_into(&[(1.0, 1.0), (1.5, 1.0)], 0.0, region, &mut ws, &mut buf);
        assert_eq!(buf.num_nodes(), 2);
        assert_eq!(buf.num_edges(), 0);
    }
}
