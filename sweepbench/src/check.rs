//! Output checks that hold for every master seed: each cell yields a row
//! with the expected trial count, flooding completes within the paper's
//! flooding-time shapes, endemic SIS censors at the round budget, and the
//! rows equal those of a single-threaded in-process run byte for byte.

use meg_engine::run::{resolve_cells, Cell, Row};
use meg_engine::{Json, Precision, Protocol, Scenario};
use meg_stats::precision_checkpoints;
use std::collections::BTreeMap;

/// Cor 4.5: stationary edge-MEG flooding time is Θ(log n / log(n·p̂)). The
/// band on `mean_rounds / (ln n / ln(n·p̂))` was fixed from the seed-state
/// rows of every workload with margin on both sides.
pub const EDGE_SHAPE: (f64, f64) = (1.1, 2.3);
/// Cor 3.6: geometric-MEG flooding time is Θ(√n / R) for R above the
/// connectivity threshold and move radius r = O(R); band on
/// `mean_rounds / (√n / R)`, fixed the same way.
pub const GEO_SHAPE: (f64, f64) = (0.6, 2.0);

pub struct Checker {
    scenario: Scenario,
    cells: Vec<Cell>,
    /// Rows the output must equal byte for byte.
    reference: Vec<String>,
}

impl Checker {
    pub fn new(scenario: Scenario, reference: Vec<String>) -> Result<Checker, String> {
        let cells = resolve_cells(&scenario).map_err(|e| e.to_string())?;
        Ok(Checker {
            scenario,
            cells,
            reference,
        })
    }

    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Checks one sweep's row lines; returns the first failure of each
    /// failing cell, keyed by cell index.
    pub fn check(&self, lines: &[String]) -> BTreeMap<usize, String> {
        let mut failures = BTreeMap::new();
        for cell in &self.cells {
            if let Err(e) = self.check_cell(cell, lines) {
                failures.insert(cell.index, e);
            }
        }
        if lines.len() > self.cells.len() {
            failures
                .entry(self.cells.len().saturating_sub(1))
                .or_insert_with(|| format!("{} rows for {} cells", lines.len(), self.cells.len()));
        }
        failures
    }

    fn check_cell(&self, cell: &Cell, lines: &[String]) -> Result<(), String> {
        let i = cell.index;
        let line = lines.get(i).ok_or("no row")?;
        if self.reference.get(i) != Some(line) {
            return Err("row differs from the single-threaded in-process row".into());
        }
        let row = Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| Row::from_json(&v).map_err(|e| e.to_string()))?;
        if row.cell != i {
            return Err(format!("row is for cell {}", row.cell));
        }
        self.check_trials(cell, &row)?;
        match cell.protocol {
            Protocol::Flooding => check_flood_shape(&row),
            Protocol::Sis { .. } => {
                if row.completion_rate == 0.0 && row.rounds.is_none() {
                    Ok(())
                } else {
                    Err(format!(
                        "endemic SIS must censor every trial, completion_rate {}",
                        row.completion_rate
                    ))
                }
            }
            other => Err(format!("no output check for protocol {}", other.label())),
        }
    }

    fn check_trials(&self, cell: &Cell, row: &Row) -> Result<(), String> {
        let ok = match self.scenario.precision {
            Precision::FixedTrials => row.trials == cell.trials,
            Precision::TargetStderr {
                eps,
                min_trials,
                max_trials,
            } => {
                precision_checkpoints(min_trials, max_trials).contains(&row.trials)
                    && (row.trials == max_trials || row.achieved_stderr.is_some_and(|se| se <= eps))
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("unexpected trial count {}", row.trials))
        }
    }
}

fn param(row: &Row, name: &str) -> Result<f64, String> {
    row.params
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("row has no `{name}` param"))
}

fn check_flood_shape(row: &Row) -> Result<(), String> {
    if row.completion_rate != 1.0 {
        return Err(format!("flooding completion_rate {}", row.completion_rate));
    }
    let mean = row.rounds.as_ref().ok_or("no rounds summary")?.mean;
    let n = param(row, "n")?;
    let (scale, (lo, hi)) = match row.family.as_str() {
        "edge" => (n.ln() / (n * param(row, "p_hat")?).ln(), EDGE_SHAPE),
        "geometric" => (n.sqrt() / param(row, "radius")?, GEO_SHAPE),
        other => return Err(format!("no flooding shape for family {other}")),
    };
    let ratio = mean / scale;
    if (lo..=hi).contains(&ratio) {
        Ok(())
    } else {
        Err(format!(
            "mean rounds {mean} is {ratio:.3}x the {} shape, outside [{lo}, {hi}]",
            row.family
        ))
    }
}

/// Σ over trials of n × rounds, from the rows: completed trials contribute
/// their mean, censored trials the round budget.
pub fn node_rounds(lines: &[String], budget: u64) -> f64 {
    lines
        .iter()
        .filter_map(|l| Row::from_json(&Json::parse(l).ok()?).ok())
        .map(|row| {
            let n = param(&row, "n").unwrap_or(0.0);
            let (done, mean) = row.rounds.as_ref().map_or((0, 0.0), |s| (s.count, s.mean));
            n * (mean * done as f64 + budget as f64 * (row.trials - done) as f64)
        })
        .sum()
}

/// FNV-1a over the row lines, newline-separated: one number that names a
/// sweep's output.
pub fn fingerprint(lines: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
