//! The simulated world: node positions and the static channel.
//!
//! The channel between two nodes is power-law path loss times a frozen
//! per-link lognormal shadowing draw — exactly the model the paper fits
//! to its own testbed in Figure 14 (α ≈ 3.6, σ ≈ 10.4 dB). Powers are
//! normalised as in the analysis: transmit power is 1 at unit distance
//! and the noise floor defaults to −65 dB, so "RSSI" in this simulator
//! is dB above the noise floor, matching the paper's RSSI axes.

use serde::{Deserialize, Serialize};
use wcs_propagation::geometry::Point2;
use wcs_propagation::pathloss::PathLoss;
use wcs_propagation::shadowing::{ShadowField, Shadowing};

/// Identifier of a node in the world.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Path-loss exponent α.
    pub path_loss: PathLoss,
    /// Shadowing distribution (frozen per link).
    pub shadowing: Shadowing,
    /// Normalised noise floor N = N₀/P₀ (linear).
    pub noise: f64,
    /// Transmit power (linear, relative to unit-distance reference).
    pub tx_power: f64,
}

impl ChannelConfig {
    /// The paper's testbed-like channel: α = 3.5, σ = 10 dB, −65 dB noise.
    pub fn paper_testbed() -> Self {
        ChannelConfig {
            path_loss: PathLoss::TESTBED_MEASURED,
            shadowing: Shadowing::new(10.0),
            noise: 10f64.powf(-6.5),
            tx_power: 1.0,
        }
    }

    /// The analysis channel: α = 3, σ = 8 dB.
    pub fn paper_analysis() -> Self {
        ChannelConfig {
            path_loss: PathLoss::INDOOR_TYPICAL,
            shadowing: Shadowing::PAPER_DEFAULT,
            noise: 10f64.powf(-6.5),
            tx_power: 1.0,
        }
    }

    /// Disable shadowing (deterministic geometry-only channel, handy in
    /// unit tests).
    pub fn without_shadowing(mut self) -> Self {
        self.shadowing = Shadowing::NONE;
        self
    }
}

/// The static world: positions plus the frozen channel.
#[derive(Debug, Clone)]
pub struct World {
    positions: Vec<Point2>,
    config: ChannelConfig,
    shadow: ShadowField,
    /// Memoised received powers, one row per sender (`rx_rows[a][b]` is
    /// the power at `b` when `a` transmits, 0 on the diagonal); a row
    /// stays empty until its sender is first queried.
    rx_rows: Vec<Vec<f64>>,
}

impl World {
    /// Build a world from node positions.
    pub fn new(positions: Vec<Point2>, config: ChannelConfig, seed: u64) -> Self {
        World {
            rx_rows: vec![Vec::new(); positions.len()],
            positions,
            config,
            shadow: ShadowField::new(config.shadowing, seed),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the world has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    pub fn position(&self, n: NodeId) -> Point2 {
        self.positions[n.0 as usize]
    }

    /// Distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(&self.position(b))
    }

    /// The channel configuration.
    pub fn config(&self) -> ChannelConfig {
        self.config
    }

    /// Linear channel *gain* from `a` to `b` (path loss × frozen shadow).
    /// Symmetric by construction.
    pub fn gain(&mut self, a: NodeId, b: NodeId) -> f64 {
        assert_ne!(a, b, "self-channel is undefined");
        let d = self.distance(a, b);
        self.config.path_loss.gain(d) * self.shadow.gain_linear(a.0, b.0)
    }

    /// Received power at `b` when `a` transmits (linear).
    pub fn rx_power(&mut self, a: NodeId, b: NodeId) -> f64 {
        assert_ne!(a, b, "self-channel is undefined");
        self.rx_row(a)[b.0 as usize]
    }

    /// Received power at every node when `a` transmits, indexed by node
    /// id; the sender's own entry is 0. The channel is static, so each
    /// row is computed once, on first use, and then shared by every
    /// frame `a` sends.
    pub(crate) fn rx_row(&mut self, a: NodeId) -> &[f64] {
        let i = a.0 as usize;
        if self.rx_rows[i].is_empty() {
            let row = (0..self.len() as u32)
                .map(|j| {
                    let b = NodeId(j);
                    if b == a {
                        0.0
                    } else {
                        self.config.tx_power * self.gain(a, b)
                    }
                })
                .collect();
            self.rx_rows[i] = row;
        }
        &self.rx_rows[i]
    }

    /// RSSI in dB above the noise floor — the quantity the paper's
    /// Figures 11/13 plot on their x axes.
    pub fn rssi_db(&mut self, a: NodeId, b: NodeId) -> f64 {
        10.0 * (self.rx_power(a, b) / self.config.noise).log10()
    }

    /// Median SNR (dB) of the link ignoring shadowing — used by testbed
    /// generation to sanity-check layouts.
    pub fn median_snr_db(&self, a: NodeId, b: NodeId) -> f64 {
        let g = self.config.path_loss.gain(self.distance(a, b));
        10.0 * (self.config.tx_power * g / self.config.noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_world(d: f64) -> World {
        World::new(
            vec![Point2::new(0.0, 0.0), Point2::new(d, 0.0)],
            ChannelConfig::paper_analysis().without_shadowing(),
            1,
        )
    }

    #[test]
    fn gain_is_symmetric() {
        let mut w = World::new(
            vec![Point2::new(0.0, 0.0), Point2::new(30.0, 40.0)],
            ChannelConfig::paper_testbed(),
            7,
        );
        let ab = w.gain(NodeId(0), NodeId(1));
        let ba = w.gain(NodeId(1), NodeId(0));
        assert_eq!(ab, ba);
    }

    #[test]
    fn rssi_matches_snr_anchors() {
        // d = 20 at α = 3 ⇒ RSSI ≈ 26 dB above noise.
        let mut w = two_node_world(20.0);
        assert!((w.rssi_db(NodeId(0), NodeId(1)) - 26.0).abs() < 0.2);
        let mut w = two_node_world(120.0);
        assert!((w.rssi_db(NodeId(0), NodeId(1)) - 2.6).abs() < 0.2);
    }

    #[test]
    fn shadowing_is_frozen() {
        let mut w = World::new(
            vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)],
            ChannelConfig::paper_testbed(),
            3,
        );
        let g1 = w.gain(NodeId(0), NodeId(1));
        let g2 = w.gain(NodeId(0), NodeId(1));
        assert_eq!(g1, g2);
    }

    #[test]
    fn rx_row_is_the_pairwise_expression_bitwise() {
        let mut w = World::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(30.0, 40.0),
                Point2::new(-70.0, 12.5),
            ],
            ChannelConfig::paper_testbed(),
            11,
        );
        let mut unmemoised = w.clone();
        let row = w.rx_row(NodeId(1)).to_vec();
        assert_eq!(row[1], 0.0, "no self-channel");
        for j in [0u32, 2] {
            let direct = w.config().tx_power * unmemoised.gain(NodeId(1), NodeId(j));
            assert_eq!(row[j as usize].to_bits(), direct.to_bits(), "n1 -> n{j}");
            assert_eq!(w.rx_power(NodeId(1), NodeId(j)), row[j as usize]);
        }
        // The reverse direction reads its own row, equal by symmetry.
        assert_eq!(w.rx_power(NodeId(2), NodeId(1)), row[2]);
    }

    #[test]
    fn distance_and_positions() {
        let w = two_node_world(50.0);
        assert_eq!(w.len(), 2);
        assert!((w.distance(NodeId(0), NodeId(1)) - 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn self_channel_rejected() {
        let mut w = two_node_world(10.0);
        let _ = w.gain(NodeId(0), NodeId(0));
    }

    #[test]
    #[should_panic]
    fn self_rx_power_rejected() {
        let mut w = two_node_world(10.0);
        let _ = w.rx_power(NodeId(1), NodeId(1));
    }
}
