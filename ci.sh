#!/usr/bin/env bash
# CI gate for the meg workspace. Mirrors what a hosted pipeline would run;
# everything works fully offline (dependencies are vendored under
# crates/compat/). Run from the repository root:
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build and example smoke-runs
#
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"

step() { printf '\n\033[1m== %s\033[0m\n' "$*"; }

step "markdown link check (intra-repo links and backticked repo paths in README + docs)"
LINK_ERR_FILE=$(mktemp)
for md in README.md PAPER.md PAPERS.md ROADMAP.md CHANGES.md docs/*.md crates/*/README.md; do
    [ -f "$md" ] || continue
    # Extract [text](target) links, keep repo-relative targets only (skip
    # http(s), mailto, and pure #anchors), strip any #fragment.
    { grep -oE '\]\([^)]+\)' "$md" || true; } |
    sed -e 's/^](//' -e 's/)$//' -e 's/#.*$//' |
    while read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|"") continue ;;
        esac
        # Resolve relative to the linking file only — a root-relative
        # fallback would pass links that 404 when the file is rendered.
        if [ ! -e "$(dirname "$md")/$target" ]; then
            echo "broken link in $md: $target" | tee -a "$LINK_ERR_FILE" >&2
        fi
    done
done
# Backticked mentions of repo paths (`crates/…`, `docs/…`, `tests/…`,
# `examples/…`, `sweepbench/…`) resolve from the repository root; a glob
# must match at least one file. CHANGES.md and ROADMAP.md are history and
# may name deleted files, so they are not checked.
for md in README.md docs/*.md crates/*/README.md .claude/skills/verify/SKILL.md; do
    [ -f "$md" ] || continue
    { grep -oE '`(crates|docs|tests|examples|sweepbench)/[^` ]*`' "$md" || true; } |
    tr -d '`' |
    while read -r target; do
        if ! compgen -G "$target" > /dev/null; then
            echo "stale repo path in $md: $target" | tee -a "$LINK_ERR_FILE" >&2
        fi
    done
done
if [ -s "$LINK_ERR_FILE" ]; then
    echo "$(wc -l < "$LINK_ERR_FILE") broken intra-repo link(s) or path(s)" >&2
    rm -f "$LINK_ERR_FILE"
    exit 1
fi
rm -f "$LINK_ERR_FILE"
echo "all intra-repo markdown links and backticked repo paths resolve"

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (all targets, -D warnings)"
cargo clippy -q --workspace --all-targets --offline -- -D warnings

step "cargo build"
cargo build --workspace --offline

step "cargo check sweepbench (its own workspace, so the build above skips it)"
# --locked fails if an API or dependency change would rewrite
# sweepbench/Cargo.lock, instead of leaving that to the benchmark run.
cargo check --offline --locked --manifest-path sweepbench/Cargo.toml

if [ "$MODE" != "quick" ]; then
    step "cargo build --release (tier-1)"
    cargo build --release --workspace --offline
fi

step "cargo test -q (tier-1: unit + property + integration + doc)"
cargo test -q --workspace --offline

step "test-count floor (the tier-1 suite must not shrink)"
TEST_COUNT=$(cargo test -q --workspace --offline -- --list 2>/dev/null | grep -c ': test')
TEST_FLOOR=600
if [ "$TEST_COUNT" -lt "$TEST_FLOOR" ]; then
    echo "test count $TEST_COUNT fell below the floor of $TEST_FLOOR" >&2
    exit 1
fi
echo "test count: $TEST_COUNT (floor $TEST_FLOOR)"

if [ "$MODE" != "quick" ]; then
    step "test-stats (gof + stepping-equivalence + delta-consistency, release)"
    cargo test -q --release --offline -p meg-stats gof
    cargo test -q --release --offline -p meg-edge --test stepping_equivalence
    cargo test -q --release --offline -p meg-graph --test delta_consistency
fi

step "cargo doc --workspace --no-deps (must be warning-free)"
DOCWARN=$(cargo doc --workspace --no-deps --offline 2>&1 | grep -c '^warning' || true)
if [ "$DOCWARN" -ne 0 ]; then
    echo "cargo doc produced $DOCWARN warning(s)" >&2
    cargo doc --workspace --no-deps --offline 2>&1 | grep -A4 '^warning' >&2
    exit 1
fi

if [ "$MODE" != "quick" ]; then
    step "example smoke-runs (MEG_EXAMPLE_SCALE=0.1)"
    for ex in examples/*.rs; do
        name="$(basename "$ex" .rs)"
        echo "-- example $name"
        MEG_EXAMPLE_SCALE=0.1 cargo run -q --release --offline --example "$name" >/dev/null
    done

    step "exp_mobility_models smoke (uniformity preamble only with the table sink)"
    # The one exp_* binary with logic of its own: a human-facing uniformity
    # table before the engine rows, which machine-readable output must omit.
    EXP_MOB="cargo run -q --release --offline -p meg-bench --bin exp_mobility_models"
    EXP_TABLE=$(MEG_SCALE=0.1 MEG_TRIALS=2 $EXP_MOB)
    grep -q "stationary occupancy uniformity" <<< "$EXP_TABLE" || {
        echo "exp_mobility_models printed no uniformity preamble with the table sink" >&2
        exit 1
    }
    MEG_SCALE=0.1 MEG_TRIALS=2 MEG_OUTPUT=json $EXP_MOB | python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
rows = [json.loads(l) for l in lines]
assert rows and all(r.get("scenario") == "mobility_models" for r in rows), \
    "MEG_OUTPUT=json must carry engine rows only"
print(f"exp_mobility_models: preamble with the table sink, {len(rows)} bare JSON rows")
'

    step "meg-lab smoke (built-in scenario, JSON-lines schema)"
    SMOKE_OUT=$(MEG_SCALE=0.1 cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        run quick_smoke --trials 2 --format json)
    ROWS=$(printf '%s\n' "$SMOKE_OUT" | grep -c '^{"scenario":.*"completion_rate":.*}$' || true)
    if [ "$ROWS" -lt 1 ]; then
        echo "meg-lab smoke produced no well-formed JSON-lines rows:" >&2
        printf '%s\n' "$SMOKE_OUT" >&2
        exit 1
    fi
    echo "meg-lab emitted $ROWS well-formed JSON rows"

    step "meg-lab sharded smoke (0/2 + 1/2 + merge, byte-identical to unsharded)"
    MEG_LAB="cargo run -q --release --offline -p meg-engine --bin meg-lab --"
    DIST_DIR=$(mktemp -d)
    COMMON="--scale 0.1 --trials 2 --seed 2009 --format json"
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON > "$DIST_DIR/unsharded.jsonl"
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --shard 0/2 --out "$DIST_DIR/parts" > /dev/null
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --shard 1/2 --out "$DIST_DIR/parts" > /dev/null
    $MEG_LAB merge "$DIST_DIR/parts" > "$DIST_DIR/merged.jsonl" 2> /dev/null
    if ! diff -u "$DIST_DIR/unsharded.jsonl" "$DIST_DIR/merged.jsonl"; then
        echo "sharded+merged output differs from the unsharded run" >&2
        rm -rf "$DIST_DIR"
        exit 1
    fi
    echo "sharded run merged byte-identically ($(wc -l < "$DIST_DIR/merged.jsonl") rows)"
    rm -rf "$DIST_DIR"

    step "meg-lab input validation (out-of-domain fixed p_hat exits 2, no clamp)"
    BAD_SCENARIO=$(mktemp)
    cat > "$BAD_SCENARIO" <<'EOF'
{"name": "bad_p_hat", "description": "p_hat above 0.999/(1+q)",
 "substrates": [{"family": "edge", "n": 100, "engine": "sparse", "p_hat": {"fixed": 1.5},
                 "q": 0.5, "init": "stationary", "stepping": "per_pair"}],
 "protocols": ["flooding"], "sweep": {"axes": []}, "trials": 2, "round_budget": 1000}
EOF
    BAD_CODE=0
    BAD_ERR=$($MEG_LAB run --file "$BAD_SCENARIO" 2>&1 >/dev/null) || BAD_CODE=$?
    rm -f "$BAD_SCENARIO"
    if [ "$BAD_CODE" -ne 2 ] || ! printf '%s\n' "$BAD_ERR" | grep -q "fixed p_hat=1.5 outside"; then
        echo "fixed p_hat=1.5 was not rejected with exit 2 (got $BAD_CODE):" >&2
        printf '%s\n' "$BAD_ERR" >&2
        exit 1
    fi
    echo "fixed p_hat=1.5 rejected before any work (exit 2)"

    step "meg-lab adaptive smoke (--target-stderr converges on every row)"
    ADAPTIVE_OUT=$(MEG_SCALE=0.1 cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        run quick_smoke --seed 2009 --target-stderr 0.75 --min-trials 2 --max-trials 4 \
        --format json)
    # A row is acceptable iff it met the target (achieved_stderr ≤ eps) or
    # spent the whole budget (trials == max_trials) — the acceptance
    # contract of adaptive mode.
    if ! printf '%s\n' "$ADAPTIVE_OUT" | awk -F'"achieved_stderr":' '
        /^\{/ {
            rows++
            split($2, a, ","); se = a[1]
            if ($0 ~ /"trials":4,/ || (se != "null" && se + 0 <= 0.75)) converged++
        }
        END {
            printf "adaptive smoke: %d of %d rows converged or exhausted the budget\n", \
                converged, rows
            exit (rows < 1 || converged < rows) ? 1 : 0
        }'; then
        printf '%s\n' "$ADAPTIVE_OUT" >&2
        exit 1
    fi

    step "bench-smoke (meg-lab bench: harness runs, JSON well-formed)"
    BENCH_DIR=$(mktemp -d)
    cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench --repetitions 2 --warmup 1 --scale 0.1 \
        --label ci-smoke --out "$BENCH_DIR/bench.json" > "$BENCH_DIR/lines.jsonl"
    python3 - "$BENCH_DIR" <<'PYEOF'
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
doc = json.loads((d / "bench.json").read_text())
assert doc["label"] == "ci-smoke" and doc["repetitions"] == 2, "bad meta"
results = doc["results"]
assert len(results) >= 5, f"only {len(results)} bench results"
for r in results:
    for key in ("bench", "median_ms", "iqr_ms", "min_ms", "max_ms", "samples_ms",
                "checksum"):
        assert key in r, f"missing {key} in {r}"
    assert r["min_ms"] >= 0 and r["median_ms"] >= r["min_ms"], f"bad stats in {r}"
    # Raw repetitions ride along for offline noise analysis: one sample per
    # measured repetition, each inside the reported [min, max] envelope.
    assert len(r["samples_ms"]) == doc["repetitions"], f"bad samples_ms in {r}"
    assert all(r["min_ms"] <= s <= r["max_ms"] for s in r["samples_ms"]), \
        f"samples outside [min, max] in {r}"
lines = [json.loads(l) for l in (d / "lines.jsonl").read_text().splitlines() if l.strip()]
assert len(lines) == len(results), "stdout lines and document disagree"
print(f"bench-smoke: {len(results)} workloads, JSON well-formed")
# A/B stepping pair: the per-pair and transitions dense-flood workloads run
# the same population, so both must be present and report sane medians.
by_name = {r["bench"]: r for r in results}
a = by_name.get("edge_dense_flood_n4096")
b = by_name.get("edge_dense_flood_fast_n4096")
assert a and b, "stepping A/B pair missing from bench results"
ratio = a["median_ms"] / b["median_ms"] if b["median_ms"] > 0 else float("inf")
print(f"bench-smoke A/B: dense_flood per_pair {a['median_ms']:.2f} ms vs "
      f"transitions {b['median_ms']:.2f} ms ({ratio:.1f}x at smoke scale)")
# Golden checksum: the scale-0.1 dense flood is fully deterministic, so its
# checksum is a behaviour fingerprint of the whole stepping + flooding
# pipeline — any drift in the RNG schedule or snapshot contents changes it.
c = by_name.get("edge_dense_flood_n1024")
assert c, "edge_dense_flood_n1024 missing from bench results"
assert c["checksum"] == 315, \
    f"edge_dense_flood_n1024 checksum drifted: {c['checksum']} != 315"
print("bench-smoke golden: edge_dense_flood_n1024 checksum 315 ok")
# Same pin for the sparse per-pair schedule (sorted alive list: death draws
# in ascending pair order, then the birth skip-sampler).
s = by_name.get("edge_sparse_flood_n16384")
assert s, "edge_sparse_flood_n16384 missing from bench results"
assert s["checksum"] == 4924, \
    f"edge_sparse_flood_n16384 checksum drifted: {s['checksum']} != 4924"
print("bench-smoke golden: edge_sparse_flood_n16384 checksum 4924 ok")
PYEOF
    rm -rf "$BENCH_DIR"

    step "bench baseline gate smoke (--baseline on one workload)"
    # Full-scale single workload (~0.3 s). This smoke asserts the gate
    # *mechanism*, not peak perf (docs/PERF.md has the honest A/B
    # procedure), so the baseline is recorded here by the same binary on the
    # same machine: a median committed from another machine would make the
    # pass path depend on the hardware. The behaviour stays pinned across
    # changes through the checksum, which must equal BENCH_PR8.json's record.
    GATE_DIR=$(mktemp -d)
    cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench geo_flood_n4096 --repetitions 3 --warmup 1 \
        --out "$GATE_DIR/base.json" > /dev/null
    python3 - "$GATE_DIR/base.json" BENCH_PR8.json <<'PYEOF'
import json, sys
fresh = {r["bench"]: r for r in json.load(open(sys.argv[1]))["results"]}
pinned = {e["workload"]: e for e in json.load(open(sys.argv[2]))["entries"]}
got, want = fresh["geo_flood_n4096"]["checksum"], pinned["geo_flood_n4096"]["checksum"]
assert want == 12312 and got == want, f"geo_flood_n4096 checksum {got} != {want}"
print(f"baseline gate: geo_flood_n4096 checksum {got} matches BENCH_PR8.json")
PYEOF
    cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench geo_flood_n4096 --repetitions 3 --warmup 1 \
        --baseline "$GATE_DIR/base.json" --baseline-threshold 1.5 > /dev/null
    # The gate must also *fail* correctly: an absurd threshold flags the
    # workload and exits 4.
    if cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench geo_flood_n4096 --repetitions 2 --warmup 1 \
        --baseline "$GATE_DIR/base.json" --baseline-threshold 0.001 \
        > /dev/null 2>&1; then
        echo "baseline gate failed to flag a regression at threshold 0.001" >&2
        rm -rf "$GATE_DIR"
        exit 1
    fi
    rm -rf "$GATE_DIR"
    echo "baseline gate: pass path clean, regression path exits nonzero"

    step "metrics-smoke (--metrics report: counters live, stdout untouched)"
    MET_DIR=$(mktemp -d)
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON > "$MET_DIR/off.jsonl"
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --metrics report \
        > "$MET_DIR/on.jsonl" 2> "$MET_DIR/metrics.txt"
    if ! diff -u "$MET_DIR/off.jsonl" "$MET_DIR/on.jsonl"; then
        echo "row stream changed when the recorder was installed" >&2
        rm -rf "$MET_DIR"
        exit 1
    fi
    grep -q "── metrics report" "$MET_DIR/metrics.txt" || {
        echo "no metrics report on stderr" >&2; cat "$MET_DIR/metrics.txt" >&2; exit 1; }
    # Counters that must be present AND nonzero for this workload.
    for c in edge_births edge_deaths rng_draws bucket_scan_visits rounds trials; do
        grep -qE "^  $c +[1-9][0-9]*$" "$MET_DIR/metrics.txt" || {
            echo "counter $c missing or zero in the metrics report:" >&2
            cat "$MET_DIR/metrics.txt" >&2
            rm -rf "$MET_DIR"
            exit 1
        }
    done
    # Span timings must have been recorded for the core phases.
    for s in advance trial cell; do
        grep -qE "^  $s +[1-9][0-9]*" "$MET_DIR/metrics.txt" || {
            echo "span $s missing from the metrics report" >&2
            rm -rf "$MET_DIR"
            exit 1
        }
    done
    echo "metrics report carries live counters and spans; rows byte-identical"
    rm -rf "$MET_DIR"

    step "protocol-family smoke (epidemics + rumor + byzantine, per-protocol counters live)"
    PROTO_DIR=$(mktemp -d)
    proto_smoke() {
        scenario=$1; shift
        # shellcheck disable=SC2086
        $MEG_LAB run "$scenario" $COMMON --metrics report \
            > "$PROTO_DIR/$scenario.jsonl" 2> "$PROTO_DIR/$scenario.metrics.txt"
        PROWS=$(grep -c '^{"scenario":.*"completion_rate":.*}$' "$PROTO_DIR/$scenario.jsonl" || true)
        if [ "$PROWS" -lt 1 ]; then
            echo "$scenario produced no well-formed JSON rows" >&2
            cat "$PROTO_DIR/$scenario.jsonl" >&2
            exit 1
        fi
        for c in "$@"; do
            grep -qE "^  $c +[1-9][0-9]*$" "$PROTO_DIR/$scenario.metrics.txt" || {
                echo "counter $c missing or zero for $scenario:" >&2
                cat "$PROTO_DIR/$scenario.metrics.txt" >&2
                exit 1
            }
        done
        echo "$scenario: $PROWS rows, counters live ($*)"
    }
    proto_smoke epidemic_threshold infections recoveries
    proto_smoke rumor_dynamism rumor_pushes
    proto_smoke byzantine_tamper tampered_adoptions
    rm -rf "$PROTO_DIR"

    step "distributed observability smoke (fault-injected pool: shipping + trace + progress)"
    OBS_DIR=$(mktemp -d)
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON > "$OBS_DIR/reference.jsonl"
    # Every worker aborts after one cell, so the sweep only completes through
    # the respawn path — with the whole observability stack turned on.
    # shellcheck disable=SC2086
    MEG_PROGRESS_FORCE=1 $MEG_LAB run quick_smoke $COMMON \
        --workers 2 --worker-fail-after 1 --verbose \
        --metrics jsonl --trace "$OBS_DIR/trace.json" --progress \
        > "$OBS_DIR/rows.jsonl" 2> "$OBS_DIR/stderr.txt"
    if ! diff -u "$OBS_DIR/reference.jsonl" "$OBS_DIR/rows.jsonl"; then
        echo "row stream changed under workers + shipping + trace + progress" >&2
        rm -rf "$OBS_DIR"
        exit 1
    fi
    python3 - "$OBS_DIR" <<'PYEOF'
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
cells = len((d / "reference.jsonl").read_text().splitlines())
lines = (d / "stderr.txt").read_text().splitlines()

# Narrated faults must agree with the merged worker_respawns counter.
narrated = sum(1 for l in lines if "worker respawned" in l)
assert narrated >= 1, "fault injection produced no narrated respawns"
merged = [json.loads(l) for l in lines if l.startswith('{"counters":')][-1]
counted = merged["counters"].get("worker_respawns", 0)
assert counted == narrated, f"worker_respawns {counted} != narrated {narrated}"

# Worker-side counters must be shipped, tagged per worker, and reach the
# merged snapshot (the coordinator itself runs no trials).
workers = [json.loads(l) for l in lines if l.startswith('{"worker":')]
assert len(workers) == 2, f"expected 2 per-worker lines, got {len(workers)}"
shipped = sum(w["metrics"].get("counters", {}).get("trials", 0) for w in workers)
assert shipped > 0, "worker-side trial counters never arrived"
assert merged["counters"].get("trials", 0) >= shipped, "merge lost worker counters"

# The progress meter drew (forced on via MEG_PROGRESS_FORCE).
assert any("cells" in l and "rows/s" in l for l in lines), "no progress line"

# The trace journal is valid JSON with >= 1 complete-phase event per cell.
trace = json.loads((d / "trace.json").read_text())
spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
assert spans >= cells, f"{spans} complete spans for {cells} cells"
print(f"distributed observability smoke: {cells} cells, {narrated} respawn(s) "
      f"(counter agrees), {shipped} worker-side trials shipped, "
      f"{spans} trace spans")
PYEOF
    rm -rf "$OBS_DIR"

    step "metrics overhead guard (dense stepping bench, on/off median ratio ≤ 1.05)"
    OVERHEAD_OUT=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench --overhead edge_dense_flood_fast_n4096 --repetitions 5 --warmup 2 --scale 0.25)
    python3 - "$OVERHEAD_OUT" <<'PYEOF'
import json, sys
m = json.loads(sys.argv[1].splitlines()[0])
print(f"overhead: off {m['off_median_ms']:.2f} ms vs on {m['on_median_ms']:.2f} ms "
      f"(ratio {m['ratio']:.4f})")
assert m["ratio"] <= 1.05, f"metrics overhead {m['ratio']:.4f} exceeds the 5% budget"
PYEOF
fi

printf '\n\033[1;32mCI gate passed (%s mode).\033[0m\n' "$MODE"
