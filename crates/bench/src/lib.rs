//! # wcs-bench — the reproduction harness
//!
//! One function per table/figure of the paper, each returning the data as
//! rendered text (the same rows/series the paper reports). The `repro`
//! binary exposes them as subcommands; [`perf`] is the one bench harness
//! (`repro bench`); the workspace integration tests assert the *shapes*.
//!
//! Every function takes an [`Effort`] so tests can run a cheap version of
//! the same code path the full harness uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod perf;
pub mod tables;

pub use experiments::{exposed_vs_rate_report, pathology_report, testbed_report, TestbedCategory};

pub use wcs_runtime::EffortProfile;

/// How much compute to spend: `Quick` for CI/tests, `Full` for
/// paper-fidelity numbers.
///
/// `Effort` is now only the harness's two-level *name* for a budget; the
/// actual sample/duration knobs live in [`wcs_runtime::EffortProfile`]
/// and flow from there through the engine and every generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced samples / shorter runs (seconds of wall time).
    Quick,
    /// Paper-fidelity settings (minutes of wall time).
    Full,
}

impl Effort {
    /// The compute budget this effort level names.
    pub fn profile(self) -> EffortProfile {
        match self {
            Effort::Quick => EffortProfile::quick(),
            Effort::Full => EffortProfile::full(),
        }
    }

    /// Monte Carlo samples per point for model averages.
    pub fn mc_samples(self) -> u64 {
        self.profile().mc_samples
    }

    /// Simulated seconds per experiment run.
    pub fn run_secs(self) -> u64 {
        self.profile().run_secs
    }

    /// Number of pair-of-pairs points per testbed ensemble.
    pub fn ensemble_points(self) -> usize {
        self.profile().ensemble_points
    }

    /// Number of D grid points for curve figures.
    pub fn curve_points(self) -> usize {
        self.profile().curve_points
    }
}

/// The engine every generator in this crate schedules onto: auto-sized
/// from the hardware, overridable with `WCS_THREADS` (results are
/// bitwise identical either way).
pub fn engine() -> wcs_runtime::Engine {
    wcs_runtime::Engine::from_env()
}

/// Format a data series as aligned TSV with a `#` comment header.
pub fn render_series(header: &str, cols: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {header}\n"));
    out.push_str(&format!("# {}\n", cols.join("\t")));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}
