//! Golden pre/post-refactor row fixtures.
//!
//! The fixtures under `tests/golden/` were produced by `meg-lab run` **before
//! the allocation-free snapshot pipeline landed** (one heap neighbor list per
//! node and snapshot), at `--scale 0.1 --seed 20260730` — fixed mode with
//! `--trials 2`, adaptive mode with `--target-stderr 0.5 --min-trials 2
//! --max-trials 4`. These tests re-run every builtin through the library path
//! the CLI uses and require the JSON-lines output to be **byte-identical**:
//! the snapshot representation, the radius-graph workspace, the CSR build,
//! and the protocol scratch-buffer reuse must all be invisible in the rows.
//!
//! If a legitimate behaviour change ever invalidates these fixtures,
//! regenerate them with:
//!
//! ```text
//! MEG_SCALE=0.1 meg-lab run <name> --trials 2 --seed 20260730 --format json
//! MEG_SCALE=0.1 meg-lab run <name> --seed 20260730 --target-stderr 0.5 \
//!     --min-trials 2 --max-trials 4 --format json
//! ```

use meg_engine::prelude::*;
use meg_engine::scenario::Precision;

const SEED: u64 = 20260730;
const SCALE: f64 = 0.1;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

fn rendered_rows(scenario: &Scenario) -> String {
    let rows = run_scenario(scenario, SEED).expect("scenario runs");
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json().render());
        out.push('\n');
    }
    out
}

#[test]
fn every_builtin_matches_its_fixed_trials_golden_fixture() {
    for name in builtin_names() {
        let mut scenario = builtin(name).expect("registry consistent").scaled(SCALE);
        scenario.trials = 2;
        let got = rendered_rows(&scenario);
        let want = fixture(&format!("{name}.jsonl"));
        assert_eq!(
            got, want,
            "`{name}` rows differ from the pre-refactor golden output"
        );
    }
}

#[test]
fn the_transitions_stepping_run_matches_its_golden_fixture() {
    // One fixture pins the `Stepping::Transitions` fast path itself (the 26
    // fixtures above all run under the default per-pair stepping and guard
    // that the new mode changed nothing there). Regenerate with:
    //
    // ```text
    // MEG_SCALE=0.1 meg-lab run edge_vs_n --trials 2 --seed 20260730 \
    //     --stepping transitions --format json
    // ```
    use meg_engine::scenario::{SteppingKind, Substrate};
    let mut scenario = builtin("edge_vs_n")
        .expect("registry consistent")
        .scaled(SCALE);
    scenario.trials = 2;
    for sub in &mut scenario.substrates {
        if let Substrate::Edge { stepping, .. } = sub {
            *stepping = SteppingKind::Transitions;
        }
    }
    let got = rendered_rows(&scenario);
    let want = fixture("edge_vs_n.transitions.jsonl");
    assert_eq!(
        got, want,
        "transitions-stepping rows drifted from the pinned fixture"
    );
}

#[test]
fn every_builtin_matches_its_adaptive_golden_fixture() {
    for name in builtin_names() {
        let mut scenario = builtin(name).expect("registry consistent").scaled(SCALE);
        scenario.precision = Precision::TargetStderr {
            eps: 0.5,
            min_trials: 2,
            max_trials: 4,
        };
        let got = rendered_rows(&scenario);
        let want = fixture(&format!("{name}.adaptive.jsonl"));
        assert_eq!(
            got, want,
            "`{name}` adaptive rows differ from the pre-refactor golden output"
        );
    }
}
