//! # wcs-runtime — the parallel scenario-execution engine
//!
//! The paper's evaluation is a grid of *independent* experiments:
//! (Rmax, D, σ, α, D_thresh, MAC policy, bitrate model) points for
//! Figures 2–9 and Tables 1–3. This crate turns that observation into the
//! reproduction's execution substrate:
//!
//! * the [`Workload`] trait ([`workload`]) — the one seam behind every
//!   sweep-shaped run: a workload names its columns, lowers to
//!   deterministic per-seed tasks, runs one task to a row block, and
//!   contributes a canonical string/hash. Model sweeps ([`Sweep`]) and
//!   §4 protocol-simulation sweeps ([`SimSweep`], [`simsweep`]) are the
//!   two implementors; [`AnyWorkload`] is the runtime-dispatch form the
//!   CLI, spec files and `wcs-shard` use,
//! * a declarative [`Sweep`] spec — parameter grids built with a fluent
//!   API that lower to a flat list of independent [`Task`]s, including a
//!   **topology axis** (pair count × sender placement) whose N-pair
//!   points score N mutually interfering pairs with fairness aggregates
//!   while the default two-pair point stays bitwise identical to the
//!   pre-axis path ([`scenario`]),
//! * a work-stealing thread-pool [`Engine`] (std threads + channels, no
//!   external deps) whose outputs are **bitwise identical** for any
//!   thread count, because every task draws from its own RNG stream
//!   derived via `wcs_stats::rng` from the sweep's root seed and results
//!   are committed in task order ([`engine`]),
//! * typed [`RunReport`] aggregation with CSV/JSON emission
//!   ([`report`]),
//! * an on-disk [`ResultCache`] keyed by (scenario hash, seed), so
//!   re-running an unchanged spec is free while any parameter change
//!   misses cleanly ([`cache`]),
//! * the shared [`EffortProfile`] compute budget consumed by the
//!   `wcs-bench` harness ([`config`]), and
//! * ready-made scenario specs such as the Figure-4 family sweep
//!   ([`scenarios`]).
//!
//! The existing layers route through it: `wcs-bench`'s figure/table
//! generators fan their point loops out on the engine, `wcs-sim` exposes
//! its §4 protocol runs as engine tasks, and the `repro` binary's `sweep`
//! subcommand is driven entirely by [`Sweep`] specs.
//!
//! ```
//! use wcs_runtime::{run_workload, Engine, PolicyAxis, Sweep};
//!
//! let sweep = Sweep::new("doc-example")
//!     .rmaxes(&[20.0, 55.0])
//!     .ds(&[30.0, 90.0])
//!     .sigmas(&[0.0, 8.0])
//!     .policies(&[PolicyAxis::CarrierSense, PolicyAxis::Optimal])
//!     .samples(2_000)
//!     .seed(7);
//! let serial = run_workload(&sweep, &Engine::serial(), None).report;
//! let parallel = run_workload(&sweep, &Engine::new(4), None).report;
//! assert_eq!(serial.to_csv(), parallel.to_csv()); // bitwise identical
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod history;
pub mod index;
pub mod model;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod simsweep;
pub mod spec;
pub mod workload;

pub use cache::{sanitize_name, CacheEntry, ResultCache};
pub use config::EffortProfile;
pub use engine::Engine;
pub use index::{IndexQuery, ResultIndex, RowPage};
pub use model::{finalize_report, sweep_columns};
pub use report::RunReport;
pub use scenario::{PolicyAxis, Sweep, Task, Topology};
pub use simsweep::{RateAxis, SimSweep, SimTask};
pub use spec::{
    load_any_spec_file, parse_any_spec_toml, parse_sim_spec_toml, parse_spec_toml,
    to_sim_spec_toml, to_spec_toml, SpecError, SpecErrorKind,
};
pub use wcs_core::params::StreamLayout;
pub use workload::{
    run_workload, run_workload_subset, AnyWorkload, Workload, WorkloadKind, WorkloadOutcome,
    WorkloadSpec,
};
