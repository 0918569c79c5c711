//! Declarative scenario/sweep specifications.
//!
//! A [`Sweep`] is a cartesian grid over the model's parameter axes —
//! Rmax, D, shadowing σ, path-loss α, carrier-sense threshold, bitrate
//! (capacity) model — plus the MAC-policy axis and a root seed. It lowers
//! to a flat list of independent [`Task`]s, one per *configuration point*:
//! the MAC-policy axis selects report rows rather than extra compute,
//! because `wcs_core::average::mc_averages` already scores every policy on
//! common random numbers (one sample set serves all policies, which is
//! both cheaper and statistically tighter).
//!
//! Every component that affects the computed numbers is folded into a
//! canonical string ([`Sweep::canonical`]) whose [`fnv1a64`] hash keys the
//! on-disk result cache; the root seed is kept out of the hash so
//! (hash, seed) pairs form the cache key, and the policy *selection* is
//! kept out too because cached entries always carry all-policy rows.

use crate::config::EffortProfile;
use wcs_capacity::npair::{NPairTopology, Placement};
use wcs_capacity::shannon::CapacityModel;
use wcs_core::params::{ModelParams, StreamLayout};
use wcs_stats::rng::splitmix64;

/// One value of a sweep's topology axis.
///
/// The default axis is the single classic [`Topology::TwoPair`] point —
/// the paper's model, evaluated by the exact code path that predates the
/// axis, so adding the axis changes neither the numbers nor the cache
/// identity of any existing sweep. [`Topology::NPair`] points evaluate N
/// mutually interfering pairs under a sender placement instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// The paper's two-pair model (§3.2.2): S1 at the origin, S2 at
    /// (−D, 0), scored by `wcs_core::average::mc_averages`.
    TwoPair,
    /// N mutually interfering pairs under a sender placement, scored by
    /// `wcs_core::npair::mc_averages_npair`.
    NPair(NPairTopology),
}

impl Topology {
    /// An N-pair line topology (the natural generalization of the
    /// classic geometry). Panics if `n < 2`.
    pub fn npair_line(n: usize) -> Self {
        Topology::NPair(NPairTopology::line(n))
    }

    /// An N-pair topology under an explicit placement. Panics if
    /// `n < 2`.
    pub fn npair(n: usize, placement: Placement) -> Self {
        Topology::NPair(NPairTopology::new(n, placement))
    }

    /// Stable short label used in report metadata.
    pub fn label(&self) -> String {
        match self {
            Topology::TwoPair => "two-pair".into(),
            Topology::NPair(t) => t.label(),
        }
    }

    /// Canonical form folded into the sweep hash.
    pub fn canonical(&self) -> String {
        match self {
            Topology::TwoPair => "two-pair".into(),
            Topology::NPair(t) => format!("npair(n={},placement={})", t.n, t.placement.label()),
        }
    }

    /// Number of pairs this topology evaluates.
    pub fn n_pairs(&self) -> usize {
        match self {
            Topology::TwoPair => 2,
            Topology::NPair(t) => t.n,
        }
    }
}

/// The MAC-policy axis of a sweep (threshold-free; the sweep's
/// `d_thresh` axis supplies the carrier-sense threshold per point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAxis {
    /// Ideal TDMA.
    Multiplexing,
    /// Always transmit concurrently.
    Concurrency,
    /// Threshold-on-sensed-power carrier sense.
    CarrierSense,
    /// The joint optimal binary choice.
    Optimal,
    /// The per-pair optimal upper bound (footnote 10).
    OptimalUpperBound,
}

impl PolicyAxis {
    /// Every policy the model scores.
    pub const ALL: [PolicyAxis; 5] = [
        PolicyAxis::Multiplexing,
        PolicyAxis::Concurrency,
        PolicyAxis::CarrierSense,
        PolicyAxis::Optimal,
        PolicyAxis::OptimalUpperBound,
    ];

    /// Stable short label used in reports and cache keys.
    pub fn label(self) -> &'static str {
        match self {
            PolicyAxis::Multiplexing => "multiplexing",
            PolicyAxis::Concurrency => "concurrency",
            PolicyAxis::CarrierSense => "carrier-sense",
            PolicyAxis::Optimal => "optimal",
            PolicyAxis::OptimalUpperBound => "optimal-upper-bound",
        }
    }

    /// Inverse of [`PolicyAxis::label`] (spec-file parsing).
    pub fn from_label(label: &str) -> Option<Self> {
        PolicyAxis::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// A declarative parameter sweep (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Human-readable scenario name (also the cache file prefix).
    pub name: String,
    /// Network-range axis.
    pub rmaxes: Vec<f64>,
    /// Sender–sender distance axis.
    pub ds: Vec<f64>,
    /// Shadowing σ axis (dB).
    pub sigmas: Vec<f64>,
    /// Path-loss exponent axis.
    pub alphas: Vec<f64>,
    /// Carrier-sense threshold-distance axis.
    pub d_threshes: Vec<f64>,
    /// Bitrate (capacity) model axis.
    pub caps: Vec<CapacityModel>,
    /// Topology axis (pair count × placement); defaults to the single
    /// classic two-pair point.
    pub topologies: Vec<Topology>,
    /// MAC policies whose averages the report emits.
    pub policies: Vec<PolicyAxis>,
    /// Versioned Monte Carlo draw path. [`StreamLayout::V1`] (the
    /// default) is the bitwise paper-exact path; [`StreamLayout::V2`] is
    /// the batched/fused path with its own canonical prefix — so the two
    /// layouts never share cache keys or goldens.
    pub stream_layout: StreamLayout,
    /// Monte Carlo samples per task.
    pub samples: u64,
    /// Root seed; every task derives its own stream from it.
    pub seed: u64,
}

impl Sweep {
    /// A new sweep with the paper's defaults on every axis: α = 3,
    /// σ = 8 dB, D_thresh = 55, pure Shannon capacity, all policies,
    /// and the quick-effort sample budget.
    pub fn new(name: &str) -> Self {
        Sweep {
            name: name.to_string(),
            rmaxes: vec![55.0],
            ds: vec![55.0],
            sigmas: vec![8.0],
            alphas: vec![3.0],
            d_threshes: vec![55.0],
            caps: vec![CapacityModel::SHANNON],
            topologies: vec![Topology::TwoPair],
            policies: PolicyAxis::ALL.to_vec(),
            stream_layout: StreamLayout::V1,
            samples: EffortProfile::quick().mc_samples,
            seed: 0,
        }
    }

    /// Set the Rmax axis.
    pub fn rmaxes(mut self, v: &[f64]) -> Self {
        self.rmaxes = v.to_vec();
        self
    }

    /// Set the D axis explicitly.
    pub fn ds(mut self, v: &[f64]) -> Self {
        self.ds = v.to_vec();
        self
    }

    /// Set the D axis to `n` log-spaced points on [d_min, d_max].
    pub fn d_log_grid(mut self, d_min: f64, d_max: f64, n: usize) -> Self {
        self.ds = wcs_core::curves::log_d_grid(d_min, d_max, n);
        self
    }

    /// Set the σ axis (dB).
    pub fn sigmas(mut self, v: &[f64]) -> Self {
        self.sigmas = v.to_vec();
        self
    }

    /// Set the α axis.
    pub fn alphas(mut self, v: &[f64]) -> Self {
        self.alphas = v.to_vec();
        self
    }

    /// Set the carrier-sense threshold axis.
    pub fn d_threshes(mut self, v: &[f64]) -> Self {
        self.d_threshes = v.to_vec();
        self
    }

    /// Set the bitrate/capacity-model axis.
    pub fn caps(mut self, v: &[CapacityModel]) -> Self {
        self.caps = v.to_vec();
        self
    }

    /// Set the topology axis (pair count × placement).
    pub fn topologies(mut self, v: &[Topology]) -> Self {
        self.topologies = v.to_vec();
        self
    }

    /// Whether any point of the topology axis is an N-pair topology
    /// (selects the extended N-pair report columns).
    pub fn has_npair_topology(&self) -> bool {
        self.topologies.iter().any(|t| *t != Topology::TwoPair)
    }

    /// Choose which MAC policies the report emits.
    pub fn policies(mut self, v: &[PolicyAxis]) -> Self {
        self.policies = v.to_vec();
        self
    }

    /// Select the Monte Carlo draw path (stream layout). V2 runs carry
    /// the `wcs-sweep-v2;` canonical prefix, so switching layouts is a
    /// full identity change: fresh cache keys, fresh goldens.
    pub fn stream_layout(mut self, layout: StreamLayout) -> Self {
        self.stream_layout = layout;
        self
    }

    /// Set the per-task Monte Carlo sample count.
    pub fn samples(mut self, n: u64) -> Self {
        self.samples = n;
        self
    }

    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of tasks this sweep lowers to (saturating: a spec that
    /// asks for more is refused by its task cap).
    pub fn task_count(&self) -> usize {
        let n = (self.topologies.len() as u64).saturating_mul(self.points_per_topology());
        usize::try_from(n).unwrap_or(usize::MAX)
    }

    /// Configuration points per topology: the product of every other
    /// axis's length (saturating).
    pub(crate) fn points_per_topology(&self) -> u64 {
        axis_product([
            self.rmaxes.len(),
            self.ds.len(),
            self.sigmas.len(),
            self.alphas.len(),
            self.d_threshes.len(),
            self.caps.len(),
        ])
    }

    /// Lower the grid to its flat task list. Task order — and therefore
    /// report row order and seed assignment — is the fixed nesting
    /// (topology, α, σ, cap, Rmax, D_thresh, D), so a spec change that
    /// only appends axis values extends the list without reshuffling
    /// existing seeds. The topology loop is outermost, so the default
    /// single-topology axis leaves every pre-existing sweep's task
    /// indices — and seeds — untouched.
    pub fn lower(&self) -> Vec<Task> {
        let mut tasks = Vec::with_capacity(self.task_count());
        for &topology in &self.topologies {
            for &alpha in &self.alphas {
                for &sigma_db in &self.sigmas {
                    for &cap in &self.caps {
                        for &rmax in &self.rmaxes {
                            for &d_thresh in &self.d_threshes {
                                for &d in &self.ds {
                                    let index = tasks.len();
                                    tasks.push(Task {
                                        index,
                                        topology,
                                        rmax,
                                        d,
                                        sigma_db,
                                        alpha,
                                        d_thresh,
                                        cap,
                                        stream_layout: self.stream_layout,
                                        samples: self.samples,
                                        seed: task_seed(self.seed, index as u64),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        tasks
    }

    /// Canonical textual form of everything that affects the computed
    /// numbers, except the root seed (the cache key is the (hash, seed)
    /// pair) and the policy selection (every policy is scored on the same
    /// samples, so the cache stores all-policy rows and a different
    /// reported subset must still hit). Uses `{:?}` for floats (shortest
    /// round-tripping representation) so the string — and its hash — is
    /// exact, not an approximation.
    ///
    /// The topology axis is appended **only when it differs from the
    /// default** single two-pair point: a sweep that never touches the
    /// axis serializes to exactly the v1 string it always did, so every
    /// pre-existing scenario hash — and every on-disk cache entry — stays
    /// valid.
    ///
    /// The stream layout *is* the leading version prefix: V1 sweeps keep
    /// the historical `wcs-sweep-v1;` string byte for byte, while V2
    /// sweeps lead with `wcs-sweep-v2;` and therefore hash to a disjoint
    /// identity — no cache entry, result-index row or golden is ever
    /// shared across layouts.
    pub fn canonical(&self) -> String {
        let fmt = |v: &[f64]| {
            let parts: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            parts.join(",")
        };
        let caps: Vec<String> = self
            .caps
            .iter()
            .map(|c| {
                format!(
                    "(eff={:?},cap={:?})",
                    c.efficiency, c.max_spectral_efficiency
                )
            })
            .collect();
        let mut out = format!(
            "{}name={};rmaxes=[{}];ds=[{}];sigmas=[{}];alphas=[{}];d_threshes=[{}];caps=[{}];samples={}",
            self.stream_layout.canonical_prefix(),
            self.name,
            fmt(&self.rmaxes),
            fmt(&self.ds),
            fmt(&self.sigmas),
            fmt(&self.alphas),
            fmt(&self.d_threshes),
            caps.join(","),
            self.samples,
        );
        if self.topologies != [Topology::TwoPair] {
            let topos: Vec<String> = self.topologies.iter().map(|t| t.canonical()).collect();
            out.push_str(&format!(";topologies=[{}]", topos.join(",")));
        }
        out
    }

    /// [`fnv1a64`] hash of [`Sweep::canonical`] — the scenario half of the
    /// (scenario hash, seed) cache key.
    pub fn scenario_hash(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }
}

/// One independent unit of work: a single configuration point of the
/// model, with its own derived RNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Position in the lowered task list (row-block index in the report).
    pub index: usize,
    /// Topology point (pair count × placement) this task evaluates.
    pub topology: Topology,
    /// Network range Rmax.
    pub rmax: f64,
    /// Sender–sender distance D.
    pub d: f64,
    /// Shadowing σ (dB).
    pub sigma_db: f64,
    /// Path-loss exponent α.
    pub alpha: f64,
    /// Carrier-sense threshold distance.
    pub d_thresh: f64,
    /// Bitrate/capacity model.
    pub cap: CapacityModel,
    /// Monte Carlo draw path this task evaluates under.
    pub stream_layout: StreamLayout,
    /// Monte Carlo samples for this task.
    pub samples: u64,
    /// This task's private seed, derived from the sweep root.
    pub seed: u64,
}

impl Task {
    /// The model parameterisation of this point.
    pub fn params(&self) -> ModelParams {
        let base = ModelParams::paper_default()
            .with_alpha(self.alpha)
            .with_sigma_db(self.sigma_db);
        ModelParams {
            prop: base.prop,
            cap: self.cap,
        }
    }
}

/// The product of axis lengths, saturating at `u64::MAX` instead of
/// wrapping: a spec read from outside input can ask for any lengths,
/// and its budget check must see the true (or a larger) count.
pub(crate) fn axis_product(lens: impl IntoIterator<Item = usize>) -> u64 {
    lens.into_iter()
        .fold(1u64, |acc, n| acc.saturating_mul(n as u64))
}

/// Derive the per-task seed from the sweep root: decorrelated streams via
/// SplitMix64 (the same expansion `wcs_stats::rng::split_rng` uses), so
/// no two tasks — and no task and the root — share generator state.
pub fn task_seed(root: u64, index: u64) -> u64 {
    let mut s = root ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7773_6373_7761_7265;
    splitmix64(&mut s)
}

/// The workspace's 64-bit hash of a byte string. It runs FNV-1a's loop
/// (start from the offset basis `0xcbf2_9ce4_8422_2325`; for each byte,
/// XOR it in, then multiply) but multiplies by `0x1000_0000_01b3`
/// (2^44 + 0x1b3), not the FNV 64-bit prime `0x100_0000_01b3`
/// (2^40 + 0x1b3). So it is not FNV-1a, and a standard FNV-1a tool does
/// not reproduce its values. The constant is frozen: every cache key
/// (the scenario hash) and every pinned report hash depends on it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_is_pinned_and_is_not_standard_fnv1a() {
        fn standard_fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
        }
        // The published FNV-1a 64 test vectors.
        assert_eq!(standard_fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(standard_fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // What this workspace's hash gives instead, pinned.
        assert_eq!(fnv1a64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn lowering_is_cartesian_and_indexed() {
        let s = Sweep::new("t")
            .rmaxes(&[20.0, 55.0])
            .ds(&[10.0, 30.0, 90.0])
            .sigmas(&[0.0, 8.0]);
        let tasks = s.lower();
        assert_eq!(tasks.len(), s.task_count());
        assert_eq!(tasks.len(), 2 * 3 * 2);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.index, i);
        }
        // All (rmax, d, sigma) combinations present exactly once.
        let mut combos: Vec<(u64, u64, u64)> = tasks
            .iter()
            .map(|t| (t.rmax.to_bits(), t.d.to_bits(), t.sigma_db.to_bits()))
            .collect();
        combos.sort();
        combos.dedup();
        assert_eq!(combos.len(), tasks.len());
    }

    #[test]
    fn task_seeds_are_distinct_and_stable() {
        let s = Sweep::new("t").ds(&[1.0, 2.0, 3.0, 4.0]).seed(99);
        let a = s.lower();
        let b = s.lower();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
        }
        let mut seeds: Vec<u64> = a.iter().map(|t| t.seed).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn hash_ignores_seed_and_policy_selection_but_sees_params() {
        let base = Sweep::new("t").ds(&[10.0, 20.0]);
        let reseeded = base.clone().seed(123);
        assert_eq!(base.scenario_hash(), reseeded.scenario_hash());
        // Policy selection only filters report rows; same compute → same key.
        let subset = base.clone().policies(&[PolicyAxis::CarrierSense]);
        assert_eq!(base.scenario_hash(), subset.scenario_hash());
        let changed = base.clone().ds(&[10.0, 20.5]);
        assert_ne!(base.scenario_hash(), changed.scenario_hash());
        let more_samples = base.clone().samples(base.samples + 1);
        assert_ne!(base.scenario_hash(), more_samples.scenario_hash());
    }

    #[test]
    fn params_carry_axes() {
        let s = Sweep::new("t").alphas(&[3.5]).sigmas(&[4.0]);
        let t = s.lower()[0];
        let p = t.params();
        assert_eq!(p.prop.path_loss.alpha, 3.5);
        assert_eq!(p.prop.shadowing.sigma_db, 4.0);
    }

    #[test]
    fn default_topology_keeps_v1_canonical() {
        // The topology axis must be invisible for classic sweeps: no
        // `topologies=` segment, so every pre-existing scenario hash and
        // cache entry stays valid.
        let s = Sweep::new("t").ds(&[10.0, 20.0]);
        assert!(!s.canonical().contains("topologies"));
        assert!(s.canonical().starts_with("wcs-sweep-v1;"));
        let explicit = s.clone().topologies(&[Topology::TwoPair]);
        assert_eq!(s.canonical(), explicit.canonical());
        assert_eq!(s.scenario_hash(), explicit.scenario_hash());
    }

    #[test]
    fn npair_topology_changes_hash_and_canonical() {
        let base = Sweep::new("t").ds(&[10.0]);
        let npair = base.clone().topologies(&[Topology::npair_line(4)]);
        assert_ne!(base.scenario_hash(), npair.scenario_hash());
        assert!(npair.canonical().contains("npair(n=4,placement=line)"));
        // Placement and pair count are both part of the identity.
        let grid = base
            .clone()
            .topologies(&[Topology::npair(4, Placement::Grid)]);
        let eight = base.clone().topologies(&[Topology::npair_line(8)]);
        assert_ne!(npair.scenario_hash(), grid.scenario_hash());
        assert_ne!(npair.scenario_hash(), eight.scenario_hash());
        // The random placement's frozen seed is identity too.
        let r1 = base
            .clone()
            .topologies(&[Topology::npair(4, Placement::Random { seed: 1 })]);
        let r2 = base
            .clone()
            .topologies(&[Topology::npair(4, Placement::Random { seed: 2 })]);
        assert_ne!(r1.scenario_hash(), r2.scenario_hash());
    }

    #[test]
    fn stream_layout_v2_changes_prefix_and_hash_only() {
        let base = Sweep::new("t").ds(&[10.0, 20.0]);
        let v2 = base.clone().stream_layout(StreamLayout::V2);
        assert!(base.canonical().starts_with("wcs-sweep-v1;"));
        assert!(v2.canonical().starts_with("wcs-sweep-v2;"));
        assert_ne!(base.scenario_hash(), v2.scenario_hash());
        // The layout is the prefix and nothing else: the rest of the
        // canonical string is unchanged.
        assert_eq!(
            base.canonical().strip_prefix("wcs-sweep-v1;"),
            v2.canonical().strip_prefix("wcs-sweep-v2;"),
        );
        // Tasks carry the layout; seeds are layout-independent (v2 uses
        // the same per-task streams, drawn through a different path).
        let a = base.lower();
        let b = v2.lower();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stream_layout, StreamLayout::V1);
            assert_eq!(y.stream_layout, StreamLayout::V2);
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn hash_is_stable_under_axis_reordering() {
        // Axes are serialized in a fixed field order, so the order the
        // builder methods are *called* in must not matter.
        let a = Sweep::new("t")
            .alphas(&[2.0, 3.0])
            .sigmas(&[0.0, 8.0])
            .rmaxes(&[20.0, 55.0])
            .topologies(&[Topology::npair_line(4)])
            .ds(&[10.0, 30.0]);
        let b = Sweep::new("t")
            .ds(&[10.0, 30.0])
            .topologies(&[Topology::npair_line(4)])
            .rmaxes(&[20.0, 55.0])
            .sigmas(&[0.0, 8.0])
            .alphas(&[2.0, 3.0]);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.scenario_hash(), b.scenario_hash());
    }

    #[test]
    fn topology_axis_lowers_outermost() {
        let s = Sweep::new("t")
            .ds(&[10.0, 20.0])
            .topologies(&[Topology::npair_line(2), Topology::npair_line(4)]);
        let tasks = s.lower();
        assert_eq!(tasks.len(), s.task_count());
        assert_eq!(tasks.len(), 4);
        assert_eq!(tasks[0].topology, Topology::npair_line(2));
        assert_eq!(tasks[1].topology, Topology::npair_line(2));
        assert_eq!(tasks[2].topology, Topology::npair_line(4));
        assert_eq!(tasks[3].topology, Topology::npair_line(4));
        // Default-topology sweeps keep their historical task seeds: the
        // first |grid| tasks of a two-topology sweep coincide with the
        // single-topology lowering.
        let classic = Sweep::new("t").ds(&[10.0, 20.0]);
        let classic_tasks = classic.lower();
        for (a, b) in classic_tasks.iter().zip(&tasks) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.d, b.d);
        }
    }

    #[test]
    fn topology_labels_are_distinct() {
        let labels: Vec<String> = [
            Topology::TwoPair,
            Topology::npair_line(2),
            Topology::npair_line(4),
            Topology::npair(4, Placement::Grid),
            Topology::npair(4, Placement::Random { seed: 9 }),
        ]
        .iter()
        .map(|t| t.label())
        .collect();
        for i in 0..labels.len() {
            for j in (i + 1)..labels.len() {
                assert_ne!(labels[i], labels[j]);
            }
        }
        assert_eq!(Topology::TwoPair.n_pairs(), 2);
        assert_eq!(Topology::npair_line(16).n_pairs(), 16);
    }

    #[test]
    fn policy_axis_roundtrips() {
        for p in PolicyAxis::ALL {
            assert!(!p.label().is_empty());
            assert_eq!(PolicyAxis::from_label(p.label()), Some(p));
        }
        assert_eq!(PolicyAxis::from_label("csma"), None);
    }
}
