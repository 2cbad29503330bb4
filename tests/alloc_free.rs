//! The no-allocation invariant of the snapshot pipeline, asserted with a
//! counting global allocator.
//!
//! `EvolvingGraph::advance()` fills a model-owned flat CSR buffer
//! ([`meg::graph::SnapshotBuf`]) in place. After a warm-up phase — during
//! which the buffer and workspace capacities grow to the run's high-water
//! mark — stepping the dense-edge and geometric evolving graphs must perform
//! **zero** heap allocations (the acceptance criterion of the
//! allocation-free snapshot pipeline refactor). Both stepping modes are
//! covered: the per-pair reference path — which now steps 64 chains per
//! round through the word-packed [`meg::graph::PairBits`] state (fixed words
//! reused in place) — and the `Stepping::Transitions` skip-sampling path,
//! whose per-round work is a `SnapshotBuf::apply_delta` edit rather than a
//! rebuild — raw delta rounds (including the slack-exhaustion rebuild
//! fallback) are measured directly as well. The geometric bucket scan runs
//! the fixed-lane compress kernel of `meg-geometric::radius_graph` over both
//! metrics: the square-region section covers the Euclidean lanes and a
//! torus-walkers section covers the wrap-around lanes (the two metric
//! monomorphisations are separate code paths, so each gets its own bar). The
//! sparse engine is covered in both stepping modes: per-pair stepping keeps
//! its sorted alive list, survivor and birth buffers as reused `Vec`s, and
//! the transitions path keeps its flat alive array and delta scratch the
//! same way. The protocol layer is covered too: `FloodMachine::step`, the
//! one flooding kernel, reuses its `newly` scratch in both scan branches.
//!
//! The test counts `alloc` / `realloc` / `alloc_zeroed` calls around the
//! measured loop on the test's own single thread; nothing else runs
//! concurrently in this integration-test binary (one `#[test]`), so a
//! non-zero delta is attributable to the measured call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn advance_is_allocation_free_after_warmup_on_dense_and_geometric_paths() {
    use meg::core::evolving::EvolvingGraph;
    use meg::edge::{DenseEdgeMeg, EdgeMegParams};
    use meg::geometric::{GeometricMeg, GeometricMegParams};

    // --- dense edge-MEG ---------------------------------------------------
    let params = EdgeMegParams::with_stationary(256, 0.08, 0.4);
    let mut dense = DenseEdgeMeg::stationary(params, 7);
    // Warm-up: let every buffer reach its high-water capacity. The snapshot
    // size fluctuates around the stationary level, so a generous warm-up
    // covers the edge-count peaks the measured window will see.
    for _ in 0..100 {
        dense.advance();
    }
    let (dense_allocs, dense_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += dense.advance().num_edges();
        }
        total
    });
    assert!(dense_edges > 0, "dense workload degenerated");
    assert_eq!(
        dense_allocs, 0,
        "dense advance() allocated {dense_allocs} times after warm-up"
    );

    // --- geometric-MEG (grid walk, square metric) -------------------------
    let params = GeometricMegParams::new(512, 1.5, 4.0);
    let mut geo = GeometricMeg::from_params(params, 11);
    for _ in 0..100 {
        geo.advance();
    }
    let (geo_allocs, geo_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += geo.advance().num_edges();
        }
        total
    });
    assert!(geo_edges > 0, "geometric workload degenerated");
    assert_eq!(
        geo_allocs, 0,
        "geometric advance() allocated {geo_allocs} times after warm-up"
    );

    // --- geometric-MEG (torus walkers, wrap-around metric) ----------------
    // The torus metric is a distinct monomorphisation of the lane-compress
    // scan kernel, so it earns its own zero-allocation window.
    use meg::mobility::TorusWalkers;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut walker_rng = StdRng::seed_from_u64(17);
    let side = (512f64).sqrt() * 1.5;
    let walkers = TorusWalkers::new(512, side, 1.5, 1.0, &mut walker_rng);
    let mut torus = GeometricMeg::new(walkers, 4.0, 17);
    for _ in 0..100 {
        torus.advance();
    }
    let (torus_allocs, torus_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += torus.advance().num_edges();
        }
        total
    });
    assert!(torus_edges > 0, "torus geometric workload degenerated");
    assert_eq!(
        torus_allocs, 0,
        "torus geometric advance() allocated {torus_allocs} times after warm-up"
    );

    // --- dense edge-MEG, transitions stepping (delta snapshot path) -------
    use meg::core::evolving::{InitialDistribution, Stepping};
    let params = EdgeMegParams::with_stationary(256, 0.08, 0.4);
    let mut fast = DenseEdgeMeg::with_stepping(
        params,
        InitialDistribution::Stationary,
        Stepping::Transitions,
        7,
    );
    for _ in 0..100 {
        fast.advance();
    }
    let (fast_allocs, fast_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += fast.advance().num_edges();
        }
        total
    });
    assert!(fast_edges > 0, "dense transitions workload degenerated");
    assert_eq!(
        fast_allocs, 0,
        "dense transitions advance() allocated {fast_allocs} times after warm-up"
    );

    // --- sparse edge-MEG, transitions stepping ----------------------------
    use meg::edge::SparseEdgeMeg;
    let params = EdgeMegParams::with_stationary(256, 0.03, 0.4);
    let mut sparse = SparseEdgeMeg::with_stepping(
        params,
        InitialDistribution::Stationary,
        Stepping::Transitions,
        13,
    );
    for _ in 0..100 {
        sparse.advance();
    }
    let (sparse_allocs, sparse_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += sparse.advance().num_edges();
        }
        total
    });
    assert!(sparse_edges > 0, "sparse transitions workload degenerated");
    assert_eq!(
        sparse_allocs, 0,
        "sparse transitions advance() allocated {sparse_allocs} times after warm-up"
    );

    // --- sparse edge-MEG, per-pair stepping (sorted alive list) -----------
    // Deaths compact into a reused survivor buffer, births land in a reused
    // birth buffer, and the merge writes back into the alive list, so after
    // the buffers reach the run's high-water mark a round allocates nothing.
    let params = EdgeMegParams::with_stationary(256, 0.03, 0.4);
    let mut per_pair = SparseEdgeMeg::stationary(params, 13);
    for _ in 0..100 {
        per_pair.advance();
    }
    let (per_pair_allocs, per_pair_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += per_pair.advance().num_edges();
        }
        total
    });
    assert!(per_pair_edges > 0, "sparse per-pair workload degenerated");
    assert_eq!(
        per_pair_allocs, 0,
        "sparse per-pair advance() allocated {per_pair_allocs} times after warm-up"
    );

    // --- raw SnapshotBuf delta rounds -------------------------------------
    // A ring with slack 2, hammered with kill/revive delta rounds plus
    // slack-exhaustion rebuilds: after one warm-up rebuild (which sizes the
    // staging buffer), every delta round — in-place *and* fallback — must be
    // allocation-free.
    use meg::graph::SnapshotBuf;
    let n = 64u32;
    let mut buf = SnapshotBuf::new();
    buf.begin(n as usize);
    for u in 0..n {
        buf.push_edge(u.min((u + 1) % n), u.max((u + 1) % n));
    }
    buf.build_with_slack(2);
    let kill: Vec<(u32, u32)> = (0..n)
        .step_by(2)
        .map(|u| {
            let v = (u + 1) % n;
            (u.min(v), u.max(v))
        })
        .collect();
    // Three chords at one hub exceed its slack of 2 and trigger the rebuild
    // fallback; a second hub provides a fresh exhaustion for the measured
    // window.
    let chords_a: [(u32, u32); 3] = [(0, 4), (0, 8), (0, 12)];
    let chords_b: [(u32, u32); 3] = [(1, 5), (1, 9), (1, 13)];
    for _ in 0..4 {
        assert!(!buf.apply_delta(&[], &kill).is_rebuilt());
        assert!(!buf.apply_delta(&kill, &[]).is_rebuilt());
    }
    // Warm-up rebuild: exceeding the hub's slack must report `Rebuilt`.
    assert!(buf.apply_delta(&chords_a, &[]).is_rebuilt());
    let _ = buf.apply_delta(&[], &chords_a);
    let (delta_allocs, delta_edges) = allocations_during(|| {
        let mut total = 0usize;
        let mut rebuilds = 0usize;
        for _ in 0..100 {
            rebuilds += buf.apply_delta(&[], &kill).is_rebuilt() as usize;
            rebuilds += buf.apply_delta(&kill, &[]).is_rebuilt() as usize;
            total += buf.num_edges();
        }
        // Fallback rebuild, measured: the outcome must say so.
        rebuilds += buf.apply_delta(&chords_b, &[]).is_rebuilt() as usize;
        let _ = buf.apply_delta(&[], &chords_b);
        (total + buf.num_edges(), rebuilds)
    });
    let (delta_edges, delta_rebuilds) = delta_edges;
    assert!(delta_edges > 0, "delta workload degenerated");
    assert!(
        delta_rebuilds >= 1,
        "the chord burst must exhaust slack and report Rebuilt"
    );
    assert_eq!(
        delta_allocs, 0,
        "apply_delta allocated {delta_allocs} times after warm-up"
    );

    // --- FloodMachine::step, both scan branches ---------------------------
    // Flooding a 1024-cycle from node 0 informs two nodes per round, so the
    // `newly` scratch reaches its capacity in the first rounds. Rounds
    // 1..=255 keep |I| ≤ n/2 (informed-side scan); from round 256 on
    // |I| > n/2 and the β = 1 kernel scans the uninformed side instead.
    use meg::core::protocols::{FloodMachine, ProtocolMachine};
    use rand::rngs::mock::StepRng;
    let n = 1024usize;
    let cycle = meg::graph::generators::cycle(n);
    let mut flood = FloodMachine::new(n, 0, 1.0);
    let mut no_draws = StepRng::new(0, 0);
    for _ in 0..10 {
        flood.step(&cycle, &mut no_draws);
    }
    let (informed_side_allocs, ()) = allocations_during(|| {
        for _ in 0..200 {
            flood.step(&cycle, &mut no_draws);
        }
    });
    assert!(2 * flood.coverage() <= n, "left the informed-side branch");
    assert_eq!(
        informed_side_allocs, 0,
        "FloodMachine::step (informed-side scan) allocated {informed_side_allocs} times"
    );
    while 2 * flood.coverage() <= n {
        flood.step(&cycle, &mut no_draws);
    }
    let (uninformed_side_allocs, ()) = allocations_during(|| {
        for _ in 0..200 {
            flood.step(&cycle, &mut no_draws);
        }
    });
    // Entered the uninformed-side branch at round 256, stayed for 200 more.
    assert_eq!(flood.coverage(), 2 * (256 + 200) + 1);
    assert_eq!(
        uninformed_side_allocs, 0,
        "FloodMachine::step (uninformed-side scan) allocated {uninformed_side_allocs} times"
    );

    // --- recorder installed: observation must not allocate either ---------
    // The recorder's storage is entirely static: counters and gauges are
    // atomics, and span latencies land in fixed log2-bucket histograms
    // (`[u64; SPAN_HIST_BUCKETS]` per span), so with the recorder live the
    // counter adds, gauge samples, and span records on the advance() hot
    // paths must perform zero heap allocations. Reuses the already-warmed
    // dense and geometric models above — same loops, now observed.
    meg::obs::install();
    for _ in 0..5 {
        dense.advance();
        geo.advance();
    }
    let (observed_allocs, observed_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += dense.advance().num_edges();
            total += geo.advance().num_edges();
        }
        total
    });
    assert!(observed_edges > 0, "observed workload degenerated");
    assert_eq!(
        observed_allocs, 0,
        "advance() with the recorder installed allocated {observed_allocs} times"
    );
    let snap = meg::obs::snapshot();
    assert!(
        snap.counter("edge_births") > 0,
        "dense flips were not recorded"
    );
    assert!(
        snap.counter("bucket_scan_visits") > 0,
        "geometric bucket scans were not recorded"
    );
    assert!(
        snap.span("advance").is_some_and(|s| s.count >= 400),
        "advance spans were not recorded"
    );
    // The histogram must account for every recorded span — each of the 400+
    // observations above incremented exactly one bucket, at zero allocations
    // (the measured window covers the records; the buckets are static).
    let advance = snap.span("advance").unwrap();
    let hist_total: u64 = advance.hist.iter().sum();
    assert_eq!(
        hist_total, advance.count,
        "histogram bucket counts must sum to the span count"
    );
    // Percentiles come back as bucket midpoints, so bracket with a factor-2
    // tolerance on each side of the observed [min, max] range.
    let p50 = advance.percentile_ns(0.50);
    let p99 = advance.percentile_ns(0.99);
    assert!(
        advance.min_ns / 2 <= p50 && p50 <= p99 && p99 <= advance.max_ns.saturating_mul(2),
        "percentiles must be ordered and bracketed by the observed range \
         (min {} · p50 {p50} · p99 {p99} · max {})",
        advance.min_ns,
        advance.max_ns
    );
    meg::obs::uninstall();
}
