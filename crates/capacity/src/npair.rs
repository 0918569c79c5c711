//! N-pair generalization of the two-pair capacity model.
//!
//! The paper states its model for two interfering sender–receiver pairs
//! (§3.2.2); the capacity/fairness questions generalize directly to N
//! mutually interfering pairs — the regime studied by the scale-free
//! bottleneck literature. An [`NPairScenario`] is one fully-drawn
//! configuration of N pairs, reduced to the quantities the capacity
//! formulas need:
//!
//! * an N×N **cross-gain matrix** `g[i][j]`: linear channel gain at
//!   receiver *i* from sender *j* (diagonal = signal links, off-diagonal
//!   = interference links), shadowing already folded in, and
//! * an N×N **sense matrix** `sense[i][j]`: gain at sender *i* from
//!   sender *j* (symmetric — the senders' mutual channel is reciprocal;
//!   diagonal unused), which drives per-sender carrier-sense decisions.
//!
//! MAC policies generalize as:
//!
//! * **multiplexing** — ideal TDMA over all N senders: each pair gets
//!   `C_single / N`;
//! * **concurrency** — all N transmit; the other N−1 signals add to the
//!   noise at each receiver;
//! * **carrier sense** — each sender counts the *contenders* it senses
//!   above threshold (its contention degree `deg_i`) and transmits a
//!   `1/(deg_i + 1)` share, while senders it does **not** sense (hidden
//!   or far) contribute interference at its receiver;
//! * **optimal** — the paper's binary choice made jointly over all
//!   pairs: all-concurrent vs all-TDMA, whichever has the larger
//!   throughput sum;
//! * **optimal upper bound** — per-pair `max(concurrent, multiplexing)`,
//!   ignoring the other pairs' preferences (footnote 10).
//!
//! **Exactness contract:** every formula is written so that N = 2
//! reduces to *bitwise* the same arithmetic as [`TwoPairScenario`]
//! (sums fold from 0.0 in index order, shares are powers of two for
//! N = 2, `1.0 * x` and `x + 0.0` are exact). [`NPairScenario::from_two_pair`]
//! builds the matrices from a two-pair configuration with the identical
//! gain expressions, and the property tests below assert bit equality of
//! every policy capacity across random draws.

use crate::shannon::CapacityModel;
use crate::twopair::{PairSample, TwoPairScenario};
use rand::Rng;
use serde::{Deserialize, Serialize};
use wcs_propagation::geometry::Point2;
use wcs_propagation::model::PropagationModel;

/// How the N senders are placed in the plane (the topology half of a
/// sweep's topology axis; the pair count is the other half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Senders on the −x axis at spacing D: sender k at (−k·D, 0).
    /// For N = 2 this is exactly the paper's geometry (S1 at the origin,
    /// S2 at (−D, 0)).
    Line,
    /// Senders on a √N×√N square lattice with spacing D, growing from
    /// the origin into the third quadrant (row-major, sender 0 at the
    /// origin).
    Grid,
    /// Senders placed uniformly at random in a square of side D·√N,
    /// from a dedicated placement RNG stream — the placement is frozen
    /// per (seed, N, D), not redrawn per Monte Carlo sample.
    Random {
        /// Placement stream seed (independent of the sweep root seed).
        seed: u64,
    },
}

impl Placement {
    /// Stable short label used in reports, cache keys and CLI output.
    pub fn label(&self) -> String {
        match self {
            Placement::Line => "line".into(),
            Placement::Grid => "grid".into(),
            Placement::Random { seed } => format!("random({seed})"),
        }
    }

    /// Numeric code for report columns (line = 0, grid = 1, random = 2).
    pub fn code(&self) -> f64 {
        match self {
            Placement::Line => 0.0,
            Placement::Grid => 1.0,
            Placement::Random { .. } => 2.0,
        }
    }
}

/// The largest pair count a topology read from outside input may have.
/// A kernel's per-sample scratch grows as N² (the v2 kernel keeps about
/// 4.5·N² eight-byte words), so 256 pairs hold it to about 2 MB; a spec
/// asking for more is refused where it is parsed, before anything is
/// allocated.
pub const MAX_PAIRS: usize = 256;

/// A pair count plus a sender placement — the value of one point on a
/// sweep's topology axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NPairTopology {
    /// Number of interfering pairs N (≥ 2).
    pub n: usize,
    /// How the N senders are placed.
    pub placement: Placement,
}

impl NPairTopology {
    /// A topology of `n` pairs under `placement`. Panics if `n < 2`
    /// (one pair has nothing to interfere with — the failure should
    /// surface here, not on an engine worker thread mid-sweep).
    pub fn new(n: usize, placement: Placement) -> Self {
        assert!(n >= 2, "an N-pair topology needs at least two pairs");
        NPairTopology { n, placement }
    }

    /// A line topology of `n` pairs (the paper's geometry for N = 2).
    /// Panics if `n < 2`.
    pub fn line(n: usize) -> Self {
        NPairTopology::new(n, Placement::Line)
    }

    /// Stable short label, e.g. `4xline` or `9xrandom(7)`.
    pub fn label(&self) -> String {
        format!("{}x{}", self.n, self.placement.label())
    }

    /// Sender positions at nearest-neighbour spacing `d`.
    pub fn senders(&self, d: f64) -> Vec<Point2> {
        sender_positions(self.n, d, self.placement)
    }
}

/// Sender positions for `n` pairs at nearest-neighbour spacing `d` under
/// `placement`. Deterministic: a fixed (n, d, placement) always yields
/// the same positions.
pub fn sender_positions(n: usize, d: f64, placement: Placement) -> Vec<Point2> {
    assert!(n >= 1, "need at least one pair");
    match placement {
        Placement::Line => (0..n).map(|k| Point2::new(-(k as f64) * d, 0.0)).collect(),
        Placement::Grid => {
            let side = (n as f64).sqrt().ceil() as usize;
            (0..n)
                .map(|k| Point2::new(-((k % side) as f64) * d, -((k / side) as f64) * d))
                .collect()
        }
        Placement::Random { seed } => {
            let mut rng = wcs_stats::rng::split_rng(seed, 0x70_6c61_6365);
            let side = d * (n as f64).sqrt();
            (0..n)
                .map(|_| {
                    let x: f64 = rng.gen();
                    let y: f64 = rng.gen();
                    Point2::new(-x * side, -y * side)
                })
                .collect()
        }
    }
}

/// A fully-drawn N-pair configuration: gain matrices plus the models
/// that score them. See the module docs for the matrix conventions.
#[derive(Debug, Clone, PartialEq)]
pub struct NPairScenario {
    /// `gains[i][j]`: linear gain at receiver i from sender j
    /// (shadowing included). Diagonal entries are the signal links.
    pub gains: Vec<Vec<f64>>,
    /// `sense[i][j]`: linear gain at sender i from sender j (symmetric,
    /// shadowing included; diagonal unused and set to 0).
    pub sense: Vec<Vec<f64>>,
    /// Propagation model (supplies the noise floor and the threshold
    /// power mapping for carrier sense).
    pub prop: PropagationModel,
    /// Capacity model (Shannon, scaled, or capped).
    pub cap: CapacityModel,
}

impl NPairScenario {
    /// Number of pairs N.
    pub fn n(&self) -> usize {
        self.gains.len()
    }

    /// Build the two-pair configuration's matrices with the *identical*
    /// gain expressions [`TwoPairScenario`] uses, so every capacity
    /// method below is bitwise equal to its two-pair counterpart.
    pub fn from_two_pair(s: &TwoPairScenario) -> Self {
        let g00 = s.prop.median_gain(s.pair1.r) * s.shadows.signal1;
        let g11 = s.prop.median_gain(s.pair2.r) * s.shadows.signal2;
        let g01 = s.prop.median_gain(s.delta_r_1()) * s.shadows.interference1;
        let g10 = s.prop.median_gain(s.delta_r_2()) * s.shadows.interference2;
        let sensed = s.prop.median_gain(s.d) * s.shadows.sense;
        NPairScenario {
            gains: vec![vec![g00, g01], vec![g10, g11]],
            sense: vec![vec![0.0, sensed], vec![sensed, 0.0]],
            prop: s.prop,
            cap: s.cap,
        }
    }

    /// Draw one configuration: receivers placed area-uniformly in the
    /// Rmax disc around their own sender, then independent lognormal
    /// shadowing per link. Draw order (fixed — it defines the stream
    /// layout): receiver offsets pair-by-pair, then signal shadows
    /// pair-by-pair, then interference shadows row-major (i, then j≠i),
    /// then sense shadows for i<j (one reciprocal draw per sender pair).
    pub fn sample<R: Rng + ?Sized>(
        senders: &[Point2],
        rmax: f64,
        prop: &PropagationModel,
        cap: CapacityModel,
        rng: &mut R,
    ) -> Self {
        let n = senders.len();
        let offsets: Vec<PairSample> = (0..n)
            .map(|_| PairSample::sample_uniform(rmax, rng))
            .collect();
        let receivers: Vec<Point2> = senders
            .iter()
            .zip(&offsets)
            .map(|(s, o)| {
                let p = Point2::from_polar(o.r, o.theta);
                Point2::new(s.x + p.x, s.y + p.y)
            })
            .collect();

        let signal_shadow: Vec<f64> = (0..n).map(|_| prop.shadowing.sample_linear(rng)).collect();
        let mut gains = vec![vec![0.0; n]; n];
        for i in 0..n {
            // The signal link uses the polar radius directly (not the
            // cartesian round trip), exactly like the two-pair model.
            gains[i][i] = prop.median_gain(offsets[i].r) * signal_shadow[i];
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let dist = receivers[i].distance(&senders[j]);
                    gains[i][j] = prop.median_gain(dist) * prop.shadowing.sample_linear(rng);
                }
            }
        }
        let mut sense = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = senders[i].distance(&senders[j]);
                let s = prop.median_gain(dist) * prop.shadowing.sample_linear(rng);
                sense[i][j] = s;
                sense[j][i] = s;
            }
        }

        NPairScenario {
            gains,
            sense,
            prop: *prop,
            cap,
        }
    }

    /// C_single for pair i: capacity of the signal link alone.
    pub fn c_single(&self, i: usize) -> f64 {
        self.cap.capacity(self.gains[i][i] / self.prop.noise)
    }

    /// C_multiplexing for pair i: a 1/N TDMA share of C_single.
    pub fn c_multiplexing(&self, i: usize) -> f64 {
        self.c_single(i) / self.n() as f64
    }

    /// C_concurrent for pair i: all N senders transmit; the other N−1
    /// add to the noise.
    pub fn c_concurrent(&self, i: usize) -> f64 {
        let mut interf = 0.0;
        for j in 0..self.n() {
            if j != i {
                interf += self.gains[i][j];
            }
        }
        self.cap
            .capacity(self.gains[i][i] / (self.prop.noise + interf))
    }

    /// Whether sender i senses sender j above the threshold whose
    /// no-shadowing switch distance is `d_thresh`.
    pub fn senses(&self, i: usize, j: usize, d_thresh: f64) -> bool {
        debug_assert_ne!(i, j);
        self.sense[i][j] > self.prop.median_gain(d_thresh)
    }

    /// Contention degree of sender i: how many other senders it senses
    /// above threshold.
    pub fn contention_degree(&self, i: usize, d_thresh: f64) -> usize {
        (0..self.n())
            .filter(|&j| j != i && self.senses(i, j, d_thresh))
            .count()
    }

    /// C_cs for pair i: sender i shares the channel `1/(deg_i + 1)` with
    /// the contenders it senses; the senders it does *not* sense (hidden
    /// or far) interfere at its receiver. For N = 2 this is exactly the
    /// two-pair piecewise C_cs (§3.2.2).
    pub fn c_cs(&self, i: usize, d_thresh: f64) -> f64 {
        let mut deg = 0usize;
        let mut hidden_interf = 0.0;
        for j in 0..self.n() {
            if j == i {
                continue;
            }
            if self.senses(i, j, d_thresh) {
                deg += 1;
            } else {
                hidden_interf += self.gains[i][j];
            }
        }
        let share = 1.0 / (deg as f64 + 1.0);
        share
            * self
                .cap
                .capacity(self.gains[i][i] / (self.prop.noise + hidden_interf))
    }

    /// Fraction of senders that defer to at least one contender at
    /// threshold `d_thresh` (the N-pair analogue of the two-pair
    /// multiplex/concurrent decision indicator).
    pub fn deferring_senders(&self, d_thresh: f64) -> usize {
        (0..self.n())
            .filter(|&i| self.contention_degree(i, d_thresh) > 0)
            .count()
    }

    /// Sum of all-concurrent per-pair capacities.
    pub fn concurrent_sum(&self) -> f64 {
        (0..self.n()).map(|i| self.c_concurrent(i)).sum()
    }

    /// Sum of all-TDMA per-pair capacities.
    pub fn multiplexing_sum(&self) -> f64 {
        (0..self.n()).map(|i| self.c_multiplexing(i)).sum()
    }

    /// The optimal MAC's per-pair average throughput: the joint binary
    /// choice between all-concurrent and all-TDMA (§3.2.2 generalized),
    /// averaged over pairs.
    pub fn c_max(&self) -> f64 {
        (1.0 / self.n() as f64) * self.concurrent_sum().max(self.multiplexing_sum())
    }

    /// Whether the joint optimum chooses concurrency for this
    /// configuration.
    pub fn optimal_prefers_concurrency(&self) -> bool {
        self.concurrent_sum() > self.multiplexing_sum()
    }
}

/// Per-task evaluation context for the N-pair Monte Carlo hot path.
///
/// [`NPairScenario::sample`] is written for clarity: every sample
/// allocates fresh offset/receiver/shadow vectors plus two N×N nested
/// `Vec<Vec<f64>>` matrices, and scoring carrier sense re-derives the
/// threshold power `median_gain(d_thresh)` for every (i, j) probe —
/// O(N²) redundant `powf` calls per sample. An `NPairKernel` hoists the
/// per-task invariants once:
///
/// * the **sender geometry table** — the N×N median path gains between
///   senders (the deterministic factor of every sense link; receivers
///   move per sample, senders don't),
/// * the **threshold power** `median_gain(d_thresh)`, and
/// * flat reusable buffers for the per-sample draws and matrices, so the
///   steady-state sample loop performs **zero** heap allocation.
///
/// **Bitwise contract:** [`NPairKernel::sample_and_score`] consumes the
/// generator in exactly the order [`NPairScenario::sample`] does and
/// computes every per-pair policy capacity with the identical
/// floating-point expressions (reused, never reassociated), so swapping
/// it into `mc_averages_npair` changes no output bit — asserted by
/// `kernel_matches_scenario_path_bitwise` below across random draws.
#[derive(Debug, Clone)]
pub struct NPairKernel {
    n: usize,
    senders: Vec<Point2>,
    rmax: f64,
    prop: PropagationModel,
    cap: CapacityModel,
    /// Hoisted `median_gain(d_thresh)`.
    p_thresh: f64,
    /// Flat N×N sender→sender median path gains (diagonal unused = 0).
    sense_path: Vec<f64>,
    // ---- per-sample scratch (reused across samples) ----
    offsets: Vec<PairSample>,
    receivers: Vec<Point2>,
    signal_shadow: Vec<f64>,
    interf_shadow: Vec<f64>,
    sense_shadow: Vec<f64>,
    gains: Vec<f64>,
    sense: Vec<f64>,
    // ---- per-sample outputs ----
    mux: Vec<f64>,
    conc: Vec<f64>,
    cs: Vec<f64>,
    deferring: usize,
}

impl NPairKernel {
    /// Build the kernel for one task point: fixed sender positions,
    /// receiver disc radius, models and carrier-sense threshold.
    pub fn new(
        senders: &[Point2],
        rmax: f64,
        prop: &PropagationModel,
        cap: CapacityModel,
        d_thresh: f64,
    ) -> Self {
        let n = senders.len();
        let mut sense_path = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = senders[i].distance(&senders[j]);
                let g = prop.median_gain(dist);
                sense_path[i * n + j] = g;
                sense_path[j * n + i] = g;
            }
        }
        NPairKernel {
            n,
            senders: senders.to_vec(),
            rmax,
            prop: *prop,
            cap,
            p_thresh: prop.median_gain(d_thresh),
            sense_path,
            offsets: vec![PairSample { r: 0.0, theta: 0.0 }; n],
            receivers: vec![Point2::default(); n],
            signal_shadow: vec![0.0; n],
            interf_shadow: vec![0.0; n * n.saturating_sub(1)],
            sense_shadow: vec![0.0; n * n.saturating_sub(1) / 2],
            gains: vec![0.0; n * n],
            sense: vec![0.0; n * n],
            mux: vec![0.0; n],
            conc: vec![0.0; n],
            cs: vec![0.0; n],
            deferring: 0,
        }
    }

    /// Number of pairs N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Draw one configuration (identical generator stream layout to
    /// [`NPairScenario::sample`]) and score every policy's per-pair
    /// capacities into the kernel's output buffers.
    pub fn sample_and_score<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.n;
        // Draw order is the stream contract: receiver offsets
        // pair-by-pair, signal shadows, interference shadows row-major,
        // sense shadows for i<j. Batching the shadow fills does not move
        // any draw (distances consume no randomness).
        for o in self.offsets.iter_mut() {
            *o = PairSample::sample_uniform(self.rmax, rng);
        }
        self.prop
            .shadowing
            .fill_linear(rng, &mut self.signal_shadow);
        self.prop
            .shadowing
            .fill_linear(rng, &mut self.interf_shadow);
        self.prop.shadowing.fill_linear(rng, &mut self.sense_shadow);

        for i in 0..n {
            let o = self.offsets[i];
            let p = Point2::from_polar(o.r, o.theta);
            let s = self.senders[i];
            self.receivers[i] = Point2::new(s.x + p.x, s.y + p.y);
        }
        for i in 0..n {
            // The signal link uses the polar radius directly (not the
            // cartesian round trip), exactly like the two-pair model.
            self.gains[i * n + i] =
                self.prop.median_gain(self.offsets[i].r) * self.signal_shadow[i];
        }
        let mut draw = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let dist = self.receivers[i].distance(&self.senders[j]);
                    self.gains[i * n + j] = self.prop.median_gain(dist) * self.interf_shadow[draw];
                    draw += 1;
                }
            }
        }
        let mut draw = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let s = self.sense_path[i * n + j] * self.sense_shadow[draw];
                draw += 1;
                self.sense[i * n + j] = s;
                self.sense[j * n + i] = s;
            }
        }

        // Score: each per-pair capacity via the exact NPairScenario
        // expressions, every gain read from the flat matrices.
        let noise = self.prop.noise;
        self.deferring = 0;
        for i in 0..n {
            let g_ii = self.gains[i * n + i];
            self.mux[i] = self.cap.capacity(g_ii / noise) / n as f64;
            let mut interf = 0.0;
            for j in 0..n {
                if j != i {
                    interf += self.gains[i * n + j];
                }
            }
            self.conc[i] = self.cap.capacity(g_ii / (noise + interf));
            let mut deg = 0usize;
            let mut hidden_interf = 0.0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                if self.sense[i * n + j] > self.p_thresh {
                    deg += 1;
                } else {
                    hidden_interf += self.gains[i * n + j];
                }
            }
            let share = 1.0 / (deg as f64 + 1.0);
            self.cs[i] = share * self.cap.capacity(g_ii / (noise + hidden_interf));
            if deg > 0 {
                self.deferring += 1;
            }
        }
    }

    /// Per-pair C_multiplexing of the last sampled configuration.
    pub fn mux(&self) -> &[f64] {
        &self.mux
    }

    /// Per-pair C_concurrent of the last sampled configuration.
    pub fn conc(&self) -> &[f64] {
        &self.conc
    }

    /// Per-pair C_cs of the last sampled configuration.
    pub fn cs(&self) -> &[f64] {
        &self.cs
    }

    /// How many senders deferred to at least one sensed contender in the
    /// last sampled configuration.
    pub fn deferring_senders(&self) -> usize {
        self.deferring
    }
}

/// The N-pair evaluation kernel for the **v2 stream layout**.
///
/// Same physics, geometry and scoring as [`NPairKernel`], but the draw
/// path is restructured around batched draws and slice-level
/// vectorizable transcendentals:
///
/// * the three shadow tables are filled in one call with **raw
///   standard normals** via the one-uniform inverse-CDF sampler
///   (`wcs_stats::dist::fill_standard_normal` — fixed one generator
///   word per draw, no rejection loop, so any chunking of the tables is
///   byte-equivalent by construction), not linear dB factors — no
///   `10^(x/10)` powf per draw and ~60% less generator traffic;
/// * every link gain is one batched `exp`: a link of squared length
///   `dist²` with raw shadow z has gain `exp(k·z − (α/2)·ln(dist²))`
///   with `k = σ·ln10/10` hoisted, so interference links skip the
///   `Point2::distance` square root entirely. The whole configuration's
///   exponent arguments (N² gains + N(N−1)/2 sense links) are assembled
///   in one flat buffer and run through `fast_ln_slice`/`fast_exp_slice`
///   in two passes the compiler can vectorize;
/// * the sense links hoist `ln(median_gain(|sᵢ−sⱼ|))` per task, packed
///   in draw order, so a sense link contributes `k·z + ln_path` to the
///   same batched exp and is compared to the threshold once;
/// * scoring reads the gains in place and the sense decisions through a
///   per-task (i, j) → link index, and accumulates without branches;
/// * all 3N Shannon logs are scored in one `capacity_v2_batch` pass.
///
/// **One body, two compilations.** On x86-64 the body of
/// [`NPairKernelV2::sample_and_score`] is compiled twice: once for the
/// build's baseline target (SSE2, 2 lanes) and once inside a
/// `#[target_feature(enable = "avx2")]` function, where the inlined
/// normal-fill, ln, exp and capacity slice loops run 4 lanes wide. Each
/// call takes the AVX2 copy when `is_x86_feature_detected!("avx2")`
/// reports AVX2 (a cached check) and the baseline copy otherwise; other
/// architectures have only the baseline copy. FMA stays off and Rust
/// never contracts `a * b + c`, so both copies produce the same bits,
/// which `v2_kernel_compilations_agree_bitwise` checks.
///
/// Statistically identical to v1, **not** bitwise equal to it (hence
/// the v2 canonical prefix and fresh goldens); bitwise-deterministic
/// with itself at any thread/shard/worker split.
#[derive(Debug, Clone)]
pub struct NPairKernelV2 {
    n: usize,
    senders: Vec<Point2>,
    rmax: f64,
    cap: CapacityModel,
    noise: f64,
    /// α/2 — the squared-distance path-loss exponent.
    half_alpha: f64,
    /// Hoisted σ·ln10/10 (zero when shadowing is disabled).
    k_shadow: f64,
    /// Hoisted `median_gain(d_thresh)`.
    p_thresh: f64,
    /// ln(sender→sender median path gain) for each i < j, packed row by
    /// row — the sense-draw order.
    ln_sense_path: Vec<f64>,
    /// N×N map from (i, j) to the packed position of the {i, j} sense
    /// link (diagonal unused).
    sense_link: Vec<usize>,
    // ---- per-sample scratch (reused across samples) ----
    offsets: Vec<PairSample>,
    /// Raw shadow normals in draw order: N signal links, N(N−1)
    /// interference links (row-major, j ≠ i), N(N−1)/2 sense links
    /// (i < j).
    z: Vec<f64>,
    /// Batched transcendental staging: N² squared distances → log-gain
    /// exponent arguments → link gains (row i = receiver i), then
    /// N(N−1)/2 sense exponent arguments → sense gains, all transformed
    /// in place by the slice kernels.
    args: Vec<f64>,
    /// Per sense link: whether its gain clears the threshold.
    sensed: Vec<bool>,
    /// Batched SNR staging for the 3N capacity logs (mux, conc, cs per
    /// pair).
    snr: Vec<f64>,
    /// Per-pair carrier-sense airtime share 1/(deg+1).
    share: Vec<f64>,
    // ---- per-sample outputs ----
    mux: Vec<f64>,
    conc: Vec<f64>,
    cs: Vec<f64>,
    deferring: usize,
}

impl NPairKernelV2 {
    /// Squared near-field clamp (v1 clamps distances at 1e-6 inside
    /// `PathLoss::gain`; squared-distance arithmetic clamps at 1e-12).
    const NEAR_FIELD_EPS_SQ: f64 = 1e-12;

    /// Build the kernel for one task point: fixed sender positions,
    /// receiver disc radius, models and carrier-sense threshold.
    pub fn new(
        senders: &[Point2],
        rmax: f64,
        prop: &PropagationModel,
        cap: CapacityModel,
        d_thresh: f64,
    ) -> Self {
        let n = senders.len();
        let links = n * n.saturating_sub(1) / 2;
        let mut ln_sense_path = Vec::with_capacity(links);
        let mut sense_link = vec![0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = senders[i].distance(&senders[j]);
                sense_link[i * n + j] = ln_sense_path.len();
                sense_link[j * n + i] = ln_sense_path.len();
                ln_sense_path.push(wcs_stats::fastmath::fast_ln(prop.median_gain(dist)));
            }
        }
        NPairKernelV2 {
            n,
            senders: senders.to_vec(),
            rmax,
            cap,
            noise: prop.noise,
            half_alpha: prop.path_loss.alpha / 2.0,
            k_shadow: prop.shadowing.linear_exp_coeff(),
            p_thresh: prop.median_gain(d_thresh),
            ln_sense_path,
            sense_link,
            offsets: vec![PairSample { r: 0.0, theta: 0.0 }; n],
            z: vec![0.0; n + n * n.saturating_sub(1) + links],
            args: vec![0.0; n * n + links],
            sensed: vec![false; links],
            snr: vec![0.0; 3 * n],
            share: vec![0.0; n],
            mux: vec![0.0; n],
            conc: vec![0.0; n],
            cs: vec![0.0; n],
            deferring: 0,
        }
    }

    /// Number of pairs N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Draw one configuration on the v2 stream layout and score every
    /// policy's per-pair capacities into the kernel's output buffers.
    /// The draw *order* is v1's (offsets, signal table, interference
    /// table row-major, sense table i<j); the per-draw and per-link
    /// arithmetic is batched, which is what moves the output bits.
    ///
    /// Runs the AVX2 compilation of the body when the CPU has AVX2, the
    /// baseline one otherwise; both produce the same bits.
    pub fn sample_and_score<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.sample_and_score_on(rng, true);
    }

    /// The one dispatch site: the AVX2 copy of the body when `allow_avx2`
    /// is set and the CPU has AVX2, the baseline copy otherwise. Tests
    /// pass `false` to run the baseline copy on an AVX2 machine.
    #[allow(unsafe_code)]
    fn sample_and_score_on<R: Rng + ?Sized>(&mut self, rng: &mut R, allow_avx2: bool) {
        #[cfg(target_arch = "x86_64")]
        if allow_avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `sample_and_score_avx2` only requires AVX2, and
            // `is_x86_feature_detected!("avx2")` just confirmed that
            // this CPU executes AVX2 instructions.
            return unsafe { self.sample_and_score_avx2(rng) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = allow_avx2;
        self.sample_and_score_body(rng);
    }

    /// The body compiled with AVX2 enabled, so its inlined slice loops
    /// run 4 lanes wide (see the type's docs for why the bits match).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn sample_and_score_avx2<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.sample_and_score_body(rng);
    }

    #[inline(always)]
    fn sample_and_score_body<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.n;
        let n2 = n * n;
        for o in self.offsets.iter_mut() {
            *o = PairSample::sample_uniform(self.rmax, rng);
        }
        // σ = 0 consumes no draws, as in v1, and leaves every z at zero.
        if self.k_shadow != 0.0 {
            wcs_stats::dist::fill_standard_normal(rng, &mut self.z);
        }
        let (signal_z, rest) = self.z.split_at(n);
        let (interf_z, sense_z) = rest.split_at(n * n.saturating_sub(1));

        // Stage 1: every link's squared distance into the staging
        // buffer, row i from receiver i to all N senders; interference
        // links never take a square root at all. The signal link then
        // overwrites the diagonal from the polar radius directly,
        // exactly like v1 — squared here because the exponent is α/2.
        for i in 0..n {
            let row = &mut self.args[i * n..(i + 1) * n];
            let o = self.offsets[i];
            let p = Point2::from_polar(o.r, o.theta);
            let s = self.senders[i];
            let rx = Point2::new(s.x + p.x, s.y + p.y);
            for (a, tx) in row.iter_mut().zip(&self.senders) {
                let dx = rx.x - tx.x;
                let dy = rx.y - tx.y;
                *a = (dx * dx + dy * dy).max(Self::NEAR_FIELD_EPS_SQ);
            }
            row[i] = (o.r * o.r).max(Self::NEAR_FIELD_EPS_SQ);
        }
        // Stage 2: batched ln over all N² squared distances at once.
        wcs_stats::fastmath::fast_ln_slice(&mut self.args[..n2]);
        // Stage 3: fuse shadow and path-loss into exponent arguments,
        // in place: gain = exp(k·z − (α/2)·ln(d²)). Row i reads its
        // interference draws for columns [0, i) and (i, N) around the
        // signal draw on the diagonal. A sense link is exp(k·z + ln_path)
        // and rides the same batched exp.
        let (k, half_alpha) = (self.k_shadow, self.half_alpha);
        let fuse = |args: &mut [f64], z: &[f64]| {
            for (a, &z) in args.iter_mut().zip(z) {
                *a = k * z - half_alpha * *a;
            }
        };
        let (gains, sense) = self.args.split_at_mut(n2);
        for i in 0..n {
            let z = &interf_z[i * (n - 1)..(i + 1) * (n - 1)];
            let (before, rest) = gains[i * n..(i + 1) * n].split_at_mut(i);
            let (diag, after) = rest.split_at_mut(1);
            fuse(before, &z[..i]);
            fuse(diag, &signal_z[i..=i]);
            fuse(after, &z[i..]);
        }
        for ((a, &z), &ln_path) in sense.iter_mut().zip(sense_z).zip(&self.ln_sense_path) {
            *a = k * z + ln_path;
        }
        // Stage 4: one batched exp turns every argument into a gain, and
        // each sense link meets the threshold once.
        wcs_stats::fastmath::fast_exp_slice(&mut self.args);
        for (flag, &g) in self.sensed.iter_mut().zip(&self.args[n2..]) {
            *flag = g > self.p_thresh;
        }

        // Stage 5: accumulate every pair's three SNRs, then score all
        // 3N capacities in one batched log pass. Sums run over j ≠ i in
        // index order, as in v1; a sensed link adds +0.0 to the hidden
        // interference, which is exact (the sum starts at +0.0 and every
        // gain is positive).
        let noise = self.noise;
        self.deferring = 0;
        for i in 0..n {
            let row = &self.args[i * n..(i + 1) * n];
            let links = &self.sense_link[i * n..(i + 1) * n];
            let (mut interf, mut hidden_interf, mut deg) = (0.0, 0.0, 0usize);
            for part in [0..i, i + 1..n] {
                for (&g, &link) in row[part.clone()].iter().zip(&links[part]) {
                    let sensed = self.sensed[link];
                    interf += g;
                    hidden_interf += if sensed { 0.0 } else { g };
                    deg += sensed as usize;
                }
            }
            let g_ii = row[i];
            self.snr[3 * i] = g_ii / noise;
            self.snr[3 * i + 1] = g_ii / (noise + interf);
            self.share[i] = 1.0 / (deg as f64 + 1.0);
            self.snr[3 * i + 2] = g_ii / (noise + hidden_interf);
            self.deferring += (deg > 0) as usize;
        }
        self.cap.capacity_v2_batch(&mut self.snr);
        for i in 0..n {
            self.mux[i] = self.snr[3 * i] / n as f64;
            self.conc[i] = self.snr[3 * i + 1];
            self.cs[i] = self.share[i] * self.snr[3 * i + 2];
        }
    }

    /// Per-pair C_multiplexing of the last sampled configuration.
    pub fn mux(&self) -> &[f64] {
        &self.mux
    }

    /// Per-pair C_concurrent of the last sampled configuration.
    pub fn conc(&self) -> &[f64] {
        &self.conc
    }

    /// Per-pair C_cs of the last sampled configuration.
    pub fn cs(&self) -> &[f64] {
        &self.cs
    }

    /// How many senders deferred to at least one sensed contender in the
    /// last sampled configuration.
    pub fn deferring_senders(&self) -> usize {
        self.deferring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twopair::ShadowDraws;
    use proptest::prelude::*;
    use wcs_stats::rng::seeded_rng;

    fn two_pair(
        r1: f64,
        t1: f64,
        r2: f64,
        t2: f64,
        d: f64,
        shadows: ShadowDraws,
    ) -> TwoPairScenario {
        TwoPairScenario {
            pair1: PairSample { r: r1, theta: t1 },
            pair2: PairSample { r: r2, theta: t2 },
            d,
            shadows,
            prop: PropagationModel::paper_default(),
            cap: CapacityModel::SHANNON,
        }
    }

    #[test]
    fn placements_have_right_counts_and_spacing() {
        for placement in [
            Placement::Line,
            Placement::Grid,
            Placement::Random { seed: 7 },
        ] {
            let pos = sender_positions(9, 55.0, placement);
            assert_eq!(pos.len(), 9);
        }
        let line = sender_positions(4, 10.0, Placement::Line);
        assert!((line[1].distance(&line[0]) - 10.0).abs() < 1e-12);
        assert!((line[3].distance(&line[0]) - 30.0).abs() < 1e-12);
        let grid = sender_positions(9, 10.0, Placement::Grid);
        // 3×3 lattice: sender 4 is the centre, one row down one col left.
        assert!((grid[4].x - -10.0).abs() < 1e-12);
        assert!((grid[4].y - -10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two pairs")]
    fn single_pair_topology_rejected_at_construction() {
        let _ = NPairTopology::line(1);
    }

    #[test]
    fn random_placement_is_frozen_by_seed() {
        let a = sender_positions(6, 55.0, Placement::Random { seed: 3 });
        let b = sender_positions(6, 55.0, Placement::Random { seed: 3 });
        let c = sender_positions(6, 55.0, Placement::Random { seed: 4 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn line_n2_matches_paper_geometry() {
        let pos = sender_positions(2, 55.0, Placement::Line);
        assert_eq!(pos[0], Point2::new(0.0, 0.0));
        assert_eq!(pos[1], Point2::new(-55.0, 0.0));
    }

    #[test]
    fn contention_counts_thresholds() {
        // Three senders on a line at spacing 30: neighbours sense each
        // other at threshold 55 (sense gain over distance 30 > gain over
        // 55), ends do not sense each other (distance 60 > 55).
        let senders = sender_positions(3, 30.0, Placement::Line);
        let prop = PropagationModel::paper_no_shadowing();
        let mut rng = seeded_rng(1);
        let s = NPairScenario::sample(&senders, 10.0, &prop, CapacityModel::SHANNON, &mut rng);
        assert_eq!(s.contention_degree(0, 55.0), 1);
        assert_eq!(s.contention_degree(1, 55.0), 2);
        assert_eq!(s.contention_degree(2, 55.0), 1);
        assert_eq!(s.deferring_senders(55.0), 3);
        // A tiny threshold makes everyone concurrent.
        assert_eq!(s.deferring_senders(1.0), 0);
    }

    #[test]
    fn cs_share_reflects_degree() {
        let senders = sender_positions(3, 30.0, Placement::Line);
        let prop = PropagationModel::paper_no_shadowing();
        let mut rng = seeded_rng(2);
        let s = NPairScenario::sample(&senders, 5.0, &prop, CapacityModel::SHANNON, &mut rng);
        // Middle sender defers to both neighbours: share 1/3 of a clean
        // channel (no unsensed interferers).
        let mid = s.c_cs(1, 55.0);
        let clean = s.cap.capacity(s.gains[1][1] / s.prop.noise);
        assert!((mid - clean / 3.0).abs() < 1e-12);
        // End sender shares with one neighbour but eats the far end's
        // interference.
        let end = s.c_cs(0, 55.0);
        let with_hidden = s
            .cap
            .capacity(s.gains[0][0] / (s.prop.noise + s.gains[0][2]));
        assert!((end - with_hidden / 2.0).abs() < 1e-12);
    }

    #[test]
    fn v2_kernel_compilations_agree_bitwise() {
        // The AVX2 copy of the body must reproduce the baseline copy bit
        // for bit, partial 4-lane vectors at the slice ends included.
        // Without AVX2 both runs take the baseline copy.
        let outputs = |k: &NPairKernelV2| {
            let bits = k.mux().iter().chain(k.conc()).chain(k.cs());
            let bits: Vec<u64> = bits.map(|x| x.to_bits()).collect();
            (bits, k.deferring_senders())
        };
        let caps = [
            CapacityModel::SHANNON,
            CapacityModel::with_efficiency(0.6),
            CapacityModel::SHANNON.capped(2.7),
        ];
        let placements = [
            Placement::Line,
            Placement::Grid,
            Placement::Random { seed: 11 },
        ];
        for n in 2..=20 {
            for (p, placement) in placements.into_iter().enumerate() {
                let senders = sender_positions(n, [20.0, 55.0, 120.0][n % 3], placement);
                for (s, sigma) in [0.0, 4.0, 8.0, 12.0].into_iter().enumerate() {
                    let prop = PropagationModel::paper_default().with_sigma_db(sigma);
                    for cap in caps {
                        let seed = (n * 16 + p * 4 + s) as u64;
                        let mut plain = NPairKernelV2::new(&senders, 40.0, &prop, cap, 55.0);
                        let mut avx2 = plain.clone();
                        let (mut rp, mut ra) = (seeded_rng(seed), seeded_rng(seed));
                        for _ in 0..4 {
                            plain.sample_and_score_on(&mut rp, false);
                            avx2.sample_and_score_on(&mut ra, true);
                            let case = format!("n={n} {placement:?} sigma={sigma} {cap:?}");
                            assert_eq!(outputs(&plain), outputs(&avx2), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn optimal_dominates_fixed_choices() {
        let senders = sender_positions(5, 40.0, Placement::Grid);
        let prop = PropagationModel::paper_default();
        let mut rng = seeded_rng(3);
        for _ in 0..200 {
            let s = NPairScenario::sample(&senders, 30.0, &prop, CapacityModel::SHANNON, &mut rng);
            let n = s.n() as f64;
            let conc_avg = s.concurrent_sum() / n;
            let mux_avg = s.multiplexing_sum() / n;
            assert!(s.c_max() >= conc_avg - 1e-12);
            assert!(s.c_max() >= mux_avg - 1e-12);
            for i in 0..s.n() {
                assert!(s.c_cs(i, 55.0) >= 0.0);
            }
        }
    }

    proptest! {
        #[test]
        fn n2_reproduces_two_pair_bitwise(
            r1 in 1.0..120.0f64, t1 in 0.0..std::f64::consts::TAU,
            r2 in 1.0..120.0f64, t2 in 0.0..std::f64::consts::TAU,
            d in 1.0..300.0f64, seed in 0u64..1000,
        ) {
            let mut rng = seeded_rng(seed);
            let prop = PropagationModel::paper_default();
            let shadows = ShadowDraws::sample(&prop, &mut rng);
            let tp = two_pair(r1, t1, r2, t2, d, shadows);
            let np = NPairScenario::from_two_pair(&tp);
            prop_assert_eq!(np.c_single(0).to_bits(), tp.c_single_1().to_bits());
            prop_assert_eq!(np.c_single(1).to_bits(), tp.c_single_2().to_bits());
            prop_assert_eq!(np.c_multiplexing(0).to_bits(), tp.c_multiplexing_1().to_bits());
            prop_assert_eq!(np.c_multiplexing(1).to_bits(), tp.c_multiplexing_2().to_bits());
            prop_assert_eq!(np.c_concurrent(0).to_bits(), tp.c_concurrent_1().to_bits());
            prop_assert_eq!(np.c_concurrent(1).to_bits(), tp.c_concurrent_2().to_bits());
            prop_assert_eq!(np.c_max().to_bits(), tp.c_max().to_bits());
            prop_assert_eq!(
                np.optimal_prefers_concurrency(),
                tp.optimal_prefers_concurrency()
            );
            for dt in [20.0, 55.0, 120.0] {
                prop_assert_eq!(np.c_cs(0, dt).to_bits(), tp.c_cs_1(dt).to_bits());
                prop_assert_eq!(np.c_cs(1, dt).to_bits(), tp.c_cs_2(dt).to_bits());
                let deferred = np.deferring_senders(dt);
                let multiplexed =
                    tp.cs_decision(dt) == crate::twopair::CsDecision::Multiplex;
                prop_assert_eq!(deferred == 2, multiplexed);
                prop_assert!(deferred == 0 || deferred == 2);
            }
        }

        #[test]
        fn kernel_matches_scenario_path_bitwise(
            n in 2usize..9, rmax in 1.0..120.0f64, d in 1.0..300.0f64,
            d_thresh in 5.0..200.0f64, seed in 0u64..500,
        ) {
            // Same seed, two generators: one drives the allocating
            // NPairScenario path, the other the buffered kernel. Every
            // per-pair policy capacity — and the deferral count — must
            // be bit-identical.
            let senders = sender_positions(n, d, Placement::Line);
            let prop = PropagationModel::paper_default();
            let mut rng_naive = seeded_rng(seed);
            let mut rng_kernel = seeded_rng(seed);
            let mut kernel =
                NPairKernel::new(&senders, rmax, &prop, CapacityModel::SHANNON, d_thresh);
            for _ in 0..3 {
                let s = NPairScenario::sample(
                    &senders, rmax, &prop, CapacityModel::SHANNON, &mut rng_naive,
                );
                kernel.sample_and_score(&mut rng_kernel);
                for i in 0..n {
                    prop_assert_eq!(kernel.mux()[i].to_bits(), s.c_multiplexing(i).to_bits());
                    prop_assert_eq!(kernel.conc()[i].to_bits(), s.c_concurrent(i).to_bits());
                    prop_assert_eq!(kernel.cs()[i].to_bits(), s.c_cs(i, d_thresh).to_bits());
                }
                prop_assert_eq!(kernel.deferring_senders(), s.deferring_senders(d_thresh));
            }
        }

        #[test]
        fn v2_kernel_tracks_v1_statistically(
            n in 2usize..6, d in 20.0..120.0f64, seed in 0u64..50,
        ) {
            // The v2 draw path (inverse-CDF normals, one word per draw)
            // is no longer sample-aligned with v1's rejection loop, so
            // the layouts are compared as estimators: per-pair policy
            // means over a few thousand configurations must agree
            // within Monte Carlo error. Loose per-proptest-case sample
            // counts keep the suite fast; the tight statistical
            // comparison lives in wcs-core's sweep-level tests.
            let senders = sender_positions(n, d, Placement::Line);
            let prop = PropagationModel::paper_default();
            let mut rng_v1 = seeded_rng(seed);
            let mut rng_v2 = seeded_rng(seed ^ 0x9e37);
            let mut v1 = NPairKernel::new(&senders, 40.0, &prop, CapacityModel::SHANNON, 55.0);
            let mut v2 =
                NPairKernelV2::new(&senders, 40.0, &prop, CapacityModel::SHANNON, 55.0);
            let samples = 4_000;
            let mut acc = [[0.0f64; 3]; 2];
            for _ in 0..samples {
                v1.sample_and_score(&mut rng_v1);
                v2.sample_and_score(&mut rng_v2);
                for i in 0..n {
                    acc[0][0] += v1.mux()[i];
                    acc[0][1] += v1.conc()[i];
                    acc[0][2] += v1.cs()[i];
                    acc[1][0] += v2.mux()[i];
                    acc[1][1] += v2.conc()[i];
                    acc[1][2] += v2.cs()[i];
                }
            }
            let norm = (samples * n) as f64;
            for (k, (a, b)) in acc[0].iter().zip(&acc[1]).enumerate() {
                let (a, b) = (a / norm, b / norm);
                prop_assert!(
                    (a - b).abs() < 0.15 * a.abs().max(0.5),
                    "policy {k}: v1 {a} vs v2 {b}"
                );
            }
        }

        #[test]
        fn v2_kernel_is_self_deterministic(
            n in 2usize..7, rmax in 1.0..120.0f64, d in 1.0..300.0f64, seed in 0u64..200,
        ) {
            // Two independent v2 kernels over the same stream produce
            // bit-identical outputs — the contract the runtime extends
            // to whole reports at any thread/shard split.
            let senders = sender_positions(n, d, Placement::Line);
            let prop = PropagationModel::paper_default();
            let mut ra = seeded_rng(seed);
            let mut rb = seeded_rng(seed);
            let mut a = NPairKernelV2::new(&senders, rmax, &prop, CapacityModel::SHANNON, 55.0);
            let mut b = NPairKernelV2::new(&senders, rmax, &prop, CapacityModel::SHANNON, 55.0);
            for _ in 0..3 {
                a.sample_and_score(&mut ra);
                b.sample_and_score(&mut rb);
                for i in 0..n {
                    prop_assert_eq!(a.mux()[i].to_bits(), b.mux()[i].to_bits());
                    prop_assert_eq!(a.conc()[i].to_bits(), b.conc()[i].to_bits());
                    prop_assert_eq!(a.cs()[i].to_bits(), b.cs()[i].to_bits());
                }
                prop_assert_eq!(a.deferring_senders(), b.deferring_senders());
            }
        }

        #[test]
        fn capacities_nonnegative_any_n(
            n in 2usize..10, rmax in 1.0..120.0f64, d in 1.0..300.0f64, seed in 0u64..500,
        ) {
            let senders = sender_positions(n, d, Placement::Line);
            let prop = PropagationModel::paper_default();
            let mut rng = seeded_rng(seed);
            let s = NPairScenario::sample(&senders, rmax, &prop, CapacityModel::SHANNON, &mut rng);
            for i in 0..n {
                prop_assert!(s.c_single(i) >= 0.0);
                prop_assert!(s.c_concurrent(i) >= 0.0);
                prop_assert!(s.c_concurrent(i) <= s.c_single(i) + 1e-12);
                prop_assert!(s.c_cs(i, 55.0) >= 0.0);
                prop_assert!(s.c_cs(i, 55.0) <= s.c_single(i) + 1e-12);
            }
            prop_assert!(s.c_max() >= 0.0);
        }
    }
}
