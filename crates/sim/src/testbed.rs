//! The synthetic indoor testbed (substitute for the paper's 50 Soekris
//! nodes on two office floors).
//!
//! Nodes are placed uniformly at random over a rectangular floor area,
//! and the channel uses the paper's own measured propagation fit
//! (α ≈ 3.5, σ ≈ 10 dB, Figure 14). Link quality is expressed — exactly
//! as in §4 — by delivery rate at 6 Mbps rather than geometric distance:
//! "rather than communicating with nodes within a given geometric range,
//! senders communicate with nodes within some link-level metric."
//!
//! The channel is symmetric bit for bit (see [`crate::world`]), so the
//! link survey ([`Testbed::candidate_links`], [`Testbed::rssi_survey`])
//! computes each unordered pair's RSSI and delivery once.

use crate::phy::{PhyConfig, ReceptionModel};
use crate::world::{ChannelConfig, NodeId, World};
use rand::Rng;
use serde::{Deserialize, Serialize};
use wcs_propagation::geometry::Point2;
use wcs_stats::fit::RssiSample;
use wcs_stats::rng::split_rng;

/// Testbed generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Number of nodes (the paper has "roughly 50").
    pub n_nodes: usize,
    /// Floor width in model units.
    pub width: f64,
    /// Floor height in model units.
    pub height: f64,
    /// Channel model.
    pub channel: ChannelConfig,
    /// RNG seed controlling placement and the frozen shadowing field.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        // At α = 3.5 over the −65 dB noise floor, a 180 × 90 floor yields
        // link SNRs from ~45 dB (adjacent) down to far below the noise
        // floor (opposite corners through deep shadows) — the same spread
        // the paper's Figure 14 survey shows, and crucially a sender-pair
        // separation distribution in which distant pairs' interference
        // genuinely decays into the noise floor, as on a building-scale
        // testbed.
        TestbedConfig {
            n_nodes: 50,
            width: 180.0,
            height: 90.0,
            channel: ChannelConfig::paper_testbed(),
            seed: 0xBED,
        }
    }
}

/// The PHY configuration used for testbed experiments: a soft (sigmoid)
/// reception curve so link delivery rates grade smoothly with SNR, as
/// real links do. Width 4 dB reproduces the paper's mapping from
/// delivery-rate categories to average SNR (≥94 % ⇒ ≳16 dB at 6 Mbps).
pub fn testbed_phy() -> PhyConfig {
    PhyConfig {
        preamble_snr_db: 4.0,
        reception: ReceptionModel::Sigmoid { width_db: 4.0 },
    }
}

/// The most nodes a testbed read from outside input may have.
/// [`Testbed::candidate_links`] scores every unordered node pair, and a
/// [`World`] keeps a row of received powers per sender, so both grow as
/// nodes². At 500 nodes, planning one ensemble (one `lower()` of the
/// quick threshold grid) took about 25 ms on a 2-core Xeon, and a
/// `World` with every row filled would hold 2 MB; planning fills no
/// row, and a protocol run fills only its two senders' (8 KB). A spec
/// asking for more is refused where it is parsed, before anything is
/// allocated.
pub const MAX_NODES: usize = 500;

/// A generated testbed: node positions plus the frozen channel.
#[derive(Debug, Clone)]
pub struct Testbed {
    cfg: TestbedConfig,
    positions: Vec<Point2>,
}

/// A candidate directed link with its estimated base-rate delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateLink {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Estimated delivery probability at 6 Mbps, interference-free.
    pub delivery_6mbps: f64,
    /// Link RSSI in dB above the noise floor (incl. shadowing).
    pub rssi_db: f64,
}

impl Testbed {
    /// Generate a testbed.
    pub fn generate(cfg: TestbedConfig) -> Self {
        let mut rng = split_rng(cfg.seed, 0xb1d);
        let positions = (0..cfg.n_nodes)
            .map(|_| {
                Point2::new(
                    rng.gen_range(0.0..cfg.width),
                    rng.gen_range(0.0..cfg.height),
                )
            })
            .collect();
        Testbed { cfg, positions }
    }

    /// The generation parameters.
    pub fn config(&self) -> TestbedConfig {
        self.cfg
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the testbed is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// A fresh [`World`] over this testbed (same frozen shadowing every
    /// time — the building doesn't move between runs).
    pub fn world(&self) -> World {
        World::new(
            self.positions.clone(),
            self.cfg.channel,
            self.cfg.seed ^ 0x5AAD,
        )
    }

    /// Interference-free delivery probability of one frame at `rate_idx`
    /// (into `RATES_11A`) on the link `src → dst`, under the testbed PHY.
    ///
    /// With the sigmoid reception model this is exact:
    /// p = σ((SNR − SNR_min)/width), so link categorisation does not need
    /// simulation time.
    pub fn link_delivery(&self, src: NodeId, dst: NodeId, rate_idx: usize) -> f64 {
        delivery_at(self.world().rssi_db(src, dst), rate_idx)
    }

    /// Enumerate all directed links whose 6 Mbps delivery lies within
    /// `[min_delivery, max_delivery]` — the paper's link-level metric for
    /// picking short-range (≥0.94) and long-range (0.80–0.95) pairs.
    /// Links come in (src, dst) order.
    ///
    /// The channel is symmetric bit for bit (see [`crate::world`]), so
    /// each unordered pair's RSSI and delivery are computed once and
    /// both of its directions are listed. Pairs are visited in (a, b)
    /// order with a < b, so sender `s` receives its links to `d < s`
    /// (while a = d) before those to `d > s` (while a = s), each run in
    /// ascending `d`: concatenating the per-sender lists gives (src,
    /// dst) order without a sort.
    pub fn candidate_links(&self, min_delivery: f64, max_delivery: f64) -> Vec<CandidateLink> {
        let w = self.world();
        let mut by_src = vec![Vec::new(); self.len()];
        for a in 0..self.len() {
            for b in (a + 1)..self.len() {
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                let rssi_db = w.rssi_db(na, nb);
                let p = delivery_at(rssi_db, 0);
                if p >= min_delivery && p <= max_delivery {
                    let link = |src, dst| CandidateLink {
                        src,
                        dst,
                        delivery_6mbps: p,
                        rssi_db,
                    };
                    by_src[a].push(link(na, nb));
                    by_src[b].push(link(nb, na));
                }
            }
        }
        by_src.concat()
    }

    /// The Figure 14 survey: (distance, RSSI) for every detectable pair,
    /// censored below `threshold_db` — feed this to
    /// `wcs_stats::fit::fit_pathloss_shadowing` to recover (α, σ).
    /// Returns `(observed, censored_distances)`. Each unordered pair is
    /// surveyed once.
    pub fn rssi_survey(&self, threshold_db: f64) -> (Vec<RssiSample>, Vec<f64>) {
        let w = self.world();
        let mut obs = Vec::new();
        let mut cens = Vec::new();
        for a in 0..self.len() {
            for b in (a + 1)..self.len() {
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                let rssi = w.rssi_db(na, nb);
                let d = w.distance(na, nb);
                if rssi >= threshold_db {
                    obs.push(RssiSample {
                        distance: d,
                        rssi_db: rssi,
                    });
                } else {
                    cens.push(d);
                }
            }
        }
        (obs, cens)
    }
}

/// [`Testbed::link_delivery`] for a link of known SNR (dB over noise).
fn delivery_at(snr_db: f64, rate_idx: usize) -> f64 {
    let req = wcs_capacity::rates::RATES_11A[rate_idx].min_snr_db;
    match testbed_phy().reception {
        ReceptionModel::Sigmoid { width_db } => 1.0 / (1.0 + (-(snr_db - req) / width_db).exp()),
        ReceptionModel::HardThreshold => {
            if snr_db >= req {
                1.0
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_stats::fit::fit_pathloss_shadowing;

    fn bed() -> Testbed {
        Testbed::generate(TestbedConfig::default())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = bed();
        let b = bed();
        assert_eq!(a.len(), 50);
        for i in 0..a.len() {
            assert_eq!(a.positions[i], b.positions[i]);
        }
    }

    #[test]
    fn both_link_categories_exist() {
        let t = bed();
        let short = t.candidate_links(0.94, 1.0);
        let long = t.candidate_links(0.80, 0.95);
        assert!(short.len() >= 20, "short-range links: {}", short.len());
        assert!(long.len() >= 10, "long-range links: {}", long.len());
        // Short-range links have higher RSSI on average.
        let avg = |v: &[CandidateLink]| v.iter().map(|l| l.rssi_db).sum::<f64>() / v.len() as f64;
        assert!(avg(&short) > avg(&long) + 3.0);
    }

    #[test]
    fn candidate_links_match_fresh_world_queries_bitwise() {
        // Categorisation reads one shared World; every link must carry
        // exactly the values a fresh per-link World would give.
        let t = bed();
        let links = t.candidate_links(0.0, 1.0);
        assert_eq!(links.len(), t.len() * (t.len() - 1));
        for l in links.iter().step_by(7) {
            let p = t.link_delivery(l.src, l.dst, 0);
            assert_eq!(l.delivery_6mbps.to_bits(), p.to_bits());
            let rssi = t.world().rssi_db(l.src, l.dst);
            assert_eq!(l.rssi_db.to_bits(), rssi.to_bits());
        }
    }

    #[test]
    fn candidate_links_equal_the_directed_pair_loop_in_order() {
        // The directed loop each link used to be scored by: every
        // (src, dst) in order, RSSI and delivery computed per direction.
        for (seed, n_nodes) in [(0xBED, 50), (7, 2), (11, 13), (2009, 80)] {
            let t = Testbed::generate(TestbedConfig {
                n_nodes,
                seed,
                ..TestbedConfig::default()
            });
            let w = t.world();
            for (lo, hi) in [
                (0.0, 1.0),
                (0.94, 1.0),
                (0.80, 0.95),
                (0.3, 0.6),
                (1.0, 1.0),
            ] {
                let mut want = Vec::new();
                for s in 0..n_nodes {
                    for d in (0..n_nodes).filter(|&d| d != s) {
                        let (src, dst) = (NodeId(s as u32), NodeId(d as u32));
                        let rssi_db = w.rssi_db(src, dst);
                        let p = delivery_at(rssi_db, 0);
                        if p >= lo && p <= hi {
                            want.push((src, dst, p.to_bits(), rssi_db.to_bits()));
                        }
                    }
                }
                let got: Vec<_> = t
                    .candidate_links(lo, hi)
                    .iter()
                    .map(|l| {
                        (
                            l.src,
                            l.dst,
                            l.delivery_6mbps.to_bits(),
                            l.rssi_db.to_bits(),
                        )
                    })
                    .collect();
                assert_eq!(got, want, "testbed {seed}, window [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn link_delivery_monotone_in_rate() {
        let t = bed();
        let links = t.candidate_links(0.5, 1.0);
        let l = links[0];
        let mut prev = 1.1;
        for rate_idx in 0..5 {
            let p = t.link_delivery(l.src, l.dst, rate_idx);
            assert!(p <= prev + 1e-12, "rate {rate_idx}");
            prev = p;
        }
    }

    #[test]
    fn figure14_fit_recovers_channel_parameters() {
        // The end-to-end Figure 14 pipeline: survey the testbed, fit with
        // censoring, recover α ≈ 3.5 and σ ≈ 10 (the generation truth).
        let t = bed();
        let (obs, cens) = t.rssi_survey(3.0);
        assert!(obs.len() > 400, "observed {}", obs.len());
        assert!(!cens.is_empty(), "some links must be censored");
        let fit = fit_pathloss_shadowing(&obs, &cens, 3.0, 20.0);
        assert!((fit.alpha - 3.5).abs() < 0.5, "alpha {}", fit.alpha);
        assert!((fit.sigma_db - 10.0).abs() < 2.0, "sigma {}", fit.sigma_db);
    }

    #[test]
    fn survey_rssi_spread_matches_figure14_shape() {
        // Figure 14 shows ~50 dB of RSSI spread across the testbed.
        let t = bed();
        let (obs, _) = t.rssi_survey(f64::NEG_INFINITY);
        let max = obs
            .iter()
            .map(|s| s.rssi_db)
            .fold(f64::NEG_INFINITY, f64::max);
        let min = obs.iter().map(|s| s.rssi_db).fold(f64::INFINITY, f64::min);
        assert!(max - min > 35.0, "spread {}", max - min);
    }
}
