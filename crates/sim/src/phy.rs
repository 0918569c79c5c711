//! The PHY: frames on the air, SINR bookkeeping, capture and decoding.
//!
//! Reception model: a receiver *locks* onto a frame if, at the frame's
//! start, the frame's power exceeds the current noise + interference at
//! the receiver by the preamble-detection margin. Once locked it stays
//! locked until the frame ends — **no receive abort**, as on the paper's
//! Atheros hardware ("we … did not have receive abort enabled, making it
//! impossible to identify the desired packet at the MAC layer", §4.2) —
//! so a later, stronger frame is lost even if it would have been
//! decodable. The frame decodes successfully iff the *worst* SINR seen
//! during its airtime meets the bitrate's SNR requirement (optionally a
//! logistic roll-off instead of a hard threshold).
//!
//! Bookkeeping: [`Medium`] keeps one state word per node — idle,
//! transmitting, or the id of the frame the node is locked on — and a
//! short list of the *reported* receptions, the only locks whose outcome
//! anything reads: the addressee's lock on a data frame or an ACK, and
//! every lock on an RTS or a CTS (each overhearer honours its NAV). Only
//! those carry a signal and a worst-case SINR. Any other lock, such as a
//! bystander's on someone else's data frame, is a state word and nothing
//! more, and its SINR is unobservable: while the lock lasts it only keeps
//! the node from locking onto another frame and, under preamble-detect
//! CCA, makes the node busy, and neither reads the SINR; when it ends,
//! the node takes its one draw of the sigmoid model in node order, as if
//! its outcome were decided and thrown away.

use crate::time::SimTime;
use crate::world::{NodeId, World};
use rand::Rng;
use serde::{Deserialize, Serialize};
use wcs_capacity::rates::Bitrate;

/// What a frame is, MAC-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A data frame for `dst` (broadcast experiments still name the
    /// intended receiver so the harness can count deliveries; `ack`
    /// says whether the receiver should respond).
    Data {
        /// Intended receiver.
        dst: NodeId,
        /// Whether an ACK is expected.
        ack: bool,
    },
    /// An acknowledgement for `dst`.
    Ack {
        /// The node being acknowledged.
        dst: NodeId,
    },
    /// Request-to-send: reserves the medium until `nav_until`.
    Rts {
        /// Addressed receiver.
        dst: NodeId,
        /// NAV reservation end carried in the frame.
        nav_until: SimTime,
    },
    /// Clear-to-send.
    Cts {
        /// The node being cleared.
        dst: NodeId,
        /// NAV reservation end carried in the frame.
        nav_until: SimTime,
    },
}

/// A frame being transmitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// MAC meaning.
    pub kind: FrameKind,
    /// Modulation used.
    pub rate: Bitrate,
    /// MPDU size in bytes (drives airtime).
    pub mpdu_bytes: usize,
    /// Sequence number (per sender).
    pub seq: u64,
}

/// How decode success is decided from the worst-case SINR.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReceptionModel {
    /// Success iff min-SINR ≥ the rate's requirement. Deterministic.
    HardThreshold,
    /// Logistic success probability centred on the requirement:
    /// p = 1/(1 + exp(−(sinr − req)/width)). Models the soft PER curve
    /// of real radios; `width_db` ≈ 1–2 dB is typical.
    Sigmoid {
        /// Transition width in dB.
        width_db: f64,
    },
}

/// PHY configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhyConfig {
    /// Margin (dB) by which a preamble must exceed noise + interference
    /// to be detected and locked.
    pub preamble_snr_db: f64,
    /// Decode-success model.
    pub reception: ReceptionModel,
}

impl Default for PhyConfig {
    fn default() -> Self {
        PhyConfig {
            preamble_snr_db: 4.0,
            reception: ReceptionModel::HardThreshold,
        }
    }
}

/// An in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveTx {
    /// Transmission id (unique per simulator run).
    pub id: u64,
    /// Transmitting node.
    pub sender: NodeId,
    /// The frame.
    pub frame: Frame,
    /// Start time.
    pub start: SimTime,
    /// Scheduled end time.
    pub end: SimTime,
}

/// Node state: neither transmitting nor locked on a frame.
const IDLE: u64 = u64::MAX;
/// Node state: transmitting, so it cannot lock (half-duplex radio).
/// Any other state is the id of the frame the node is locked on.
const TRANSMITTING: u64 = u64::MAX - 1;

/// A reported reception in progress (see the module doc).
#[derive(Debug, Clone, Copy)]
struct Reception {
    node: usize,
    tx_id: u64,
    signal: f64,
    /// Worst SINR (linear) observed so far during the frame.
    min_sinr: f64,
}

/// Outcome of a completed reception attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeResult {
    /// The node that was locked on the frame.
    pub receiver: NodeId,
    /// The frame.
    pub frame: Frame,
    /// The transmitting node.
    pub sender: NodeId,
    /// Whether it decoded.
    pub success: bool,
    /// Worst SINR during the frame, dB.
    pub min_sinr_db: f64,
}

/// The shared medium: ambient power and one state word per node (idle,
/// transmitting, or the id of the frame it is locked on), plus the
/// reported receptions in progress, the only ones that track their SINR
/// (see the module doc for which those are and why the rest need not).
#[derive(Debug)]
pub struct Medium {
    cfg: PhyConfig,
    noise: f64,
    /// `preamble_snr_db` as a linear power ratio.
    lock_margin: f64,
    /// Sum of rx power at each node from all active transmissions
    /// (the node's own transmission contributes nothing to itself).
    /// Never −0.0: it starts at +0.0, adds non-negative powers, and a
    /// subtraction that reaches zero gives +0.0 or clamps to it.
    ambient: Vec<f64>,
    /// In-flight transmissions. Rarely more than a handful at once, so
    /// lookups scan by id.
    active: Vec<ActiveTx>,
    /// Per node: [`IDLE`], [`TRANSMITTING`], or the id of the frame the
    /// node is locked on.
    state: Vec<u64>,
    /// Reported receptions in progress; each frame's are in node order.
    reported: Vec<Reception>,
}

impl Medium {
    /// New idle medium over `n` nodes.
    pub fn new(n: usize, noise: f64, cfg: PhyConfig) -> Self {
        Medium {
            cfg,
            noise,
            lock_margin: 10f64.powf(cfg.preamble_snr_db / 10.0),
            ambient: vec![0.0; n],
            active: Vec::new(),
            state: vec![IDLE; n],
            reported: Vec::new(),
        }
    }

    /// Total non-own received power at `node` (the CCA energy input).
    pub fn ambient(&self, node: NodeId) -> f64 {
        self.ambient[node.0 as usize]
    }

    /// Whether `node` is currently locked on an incoming frame.
    pub fn is_receiving(&self, node: NodeId) -> bool {
        self.state[node.0 as usize] < TRANSMITTING
    }

    /// Whether `node` is currently transmitting.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.state[node.0 as usize] == TRANSMITTING
    }

    /// Number of in-flight transmissions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Put `tx` on the air. Updates ambient powers, degrades the SINR of
    /// every reported reception in progress, and attempts preamble locks
    /// at idle nodes, reading the sender's received powers from `world`'s
    /// memoised gain row.
    ///
    /// If the sender was itself locked on a frame, that reception is
    /// abandoned (half-duplex radio).
    pub fn begin_tx(&mut self, world: &mut World, tx: ActiveTx) {
        let s = tx.sender.0 as usize;
        assert!(
            self.state[s] != TRANSMITTING,
            "{} already transmitting",
            tx.sender
        );
        assert!(tx.id < TRANSMITTING, "tx id {} is a node state", tx.id);

        // Half-duplex: a sender abandons any reception in progress.
        self.state[s] = TRANSMITTING;
        self.reported.retain(|r| r.node != s);

        let n = self.state.len();
        let row = &world.rx_row(tx.sender)[..n];
        let ambient = &mut self.ambient[..n];
        let (noise, margin) = (self.noise, self.lock_margin);
        // Raise every ambient. The sender's own entry in its row is +0.0
        // and an ambient is never −0.0, so the sender's keeps its bits.
        for (a, &g) in ambient.iter_mut().zip(row) {
            *a += g;
        }
        // Interference for a locked frame = ambient − its own signal.
        for r in &mut self.reported {
            let interf = (ambient[r.node] - r.signal).max(0.0);
            let sinr = r.signal / (noise + interf);
            if sinr < r.min_sinr {
                r.min_sinr = sinr;
            }
        }
        // An idle node locks if the preamble clears the margin over noise
        // plus everything else on the air. The sender is transmitting.
        let state = &mut self.state[..n];
        for i in 0..n {
            let g = row[i];
            let lock = (state[i] == IDLE) & (g >= margin * (noise + (ambient[i] - g).max(0.0)));
            state[i] = if lock { tx.id } else { state[i] };
        }
        let reported = match tx.frame.kind {
            FrameKind::Data { dst, .. } | FrameKind::Ack { dst } => {
                dst.0 as usize..dst.0 as usize + 1
            }
            FrameKind::Rts { .. } | FrameKind::Cts { .. } => 0..n,
        };
        for i in reported {
            if state[i] == tx.id {
                let signal = row[i];
                let interf = (ambient[i] - signal).max(0.0);
                self.reported.push(Reception {
                    node: i,
                    tx_id: tx.id,
                    signal,
                    min_sinr: signal / (noise + interf),
                });
            }
        }
        self.active.push(tx);
    }

    /// End transmission `tx_id` and return its record. `world` must be
    /// the one the transmission began in: its gain row says how much
    /// power the frame leaves each node's ambient.
    ///
    /// Every node locked on the frame is released. The decode outcomes
    /// the MAC acts on replace the contents of `results`, in node order:
    /// every locked node's for an RTS or CTS, whose NAV each overhearer
    /// honours, and only the addressee's for a data frame or an ACK.
    /// `rng` drives the sigmoid reception model (unused under
    /// `HardThreshold`); every locked node takes its draw in node order,
    /// so the stream is the same as if every outcome were resolved.
    pub fn end_tx<R: Rng + ?Sized>(
        &mut self,
        world: &mut World,
        tx_id: u64,
        rng: &mut R,
        results: &mut Vec<DecodeResult>,
    ) -> ActiveTx {
        let pos = self
            .active
            .iter()
            .position(|tx| tx.id == tx_id)
            .expect("unknown tx_id");
        let tx = self.active.swap_remove(pos);
        self.state[tx.sender.0 as usize] = IDLE;
        results.clear();

        let n = self.state.len();
        let row = &world.rx_row(tx.sender)[..n];
        // Lower every ambient, clamping at +0.0: with many frames
        // overlapping, removals in another order than the additions can
        // leave tiny negatives. The sender's entry in its row is +0.0, so
        // its ambient keeps its bits.
        for (a, &g) in self.ambient[..n].iter_mut().zip(row) {
            let left = *a - g;
            *a = if left < 0.0 { 0.0 } else { left };
        }
        // Release the locks in node order: the unreported ones before
        // each reported reception take their draws, then that reception
        // is decided with its own.
        let mut from = 0;
        let mut k = 0;
        while k < self.reported.len() {
            if self.reported[k].tx_id != tx_id {
                k += 1;
                continue;
            }
            let r = self.reported.remove(k);
            let skipped = release(&mut self.state[from..r.node], tx_id);
            self.skip_draws(skipped, rng);
            debug_assert_eq!(self.state[r.node], tx_id);
            self.state[r.node] = IDLE;
            results.push(self.decide(&tx, r, rng));
            from = r.node + 1;
        }
        let skipped = release(&mut self.state[from..], tx_id);
        self.skip_draws(skipped, rng);
        tx
    }

    /// Decide reported reception `r` of `tx`.
    fn decide<R: Rng + ?Sized>(&self, tx: &ActiveTx, r: Reception, rng: &mut R) -> DecodeResult {
        let min_sinr_db = 10.0 * r.min_sinr.log10();
        let success = match self.cfg.reception {
            ReceptionModel::HardThreshold => min_sinr_db >= tx.frame.rate.min_snr_db,
            ReceptionModel::Sigmoid { width_db } => {
                let x = (min_sinr_db - tx.frame.rate.min_snr_db) / width_db;
                let p = 1.0 / (1.0 + (-x).exp());
                rng.gen::<f64>() < p
            }
        };
        DecodeResult {
            receiver: NodeId(r.node as u32),
            frame: tx.frame,
            sender: tx.sender,
            success,
            min_sinr_db,
        }
    }

    /// Take the draws of `count` unreported receptions (none under
    /// `HardThreshold`).
    fn skip_draws<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) {
        if let ReceptionModel::Sigmoid { .. } = self.cfg.reception {
            for _ in 0..count {
                let _ = rng.gen::<f64>();
            }
        }
    }

    /// The active transmission record, if in flight.
    pub fn active_tx(&self, tx_id: u64) -> Option<&ActiveTx> {
        self.active.iter().find(|tx| tx.id == tx_id)
    }
}

/// Set every node of `state` locked on `tx_id` idle; returns how many
/// there were.
fn release(state: &mut [u64], tx_id: u64) -> usize {
    let mut count = 0;
    for st in state {
        let locked = *st == tx_id;
        count += locked as usize;
        *st = if locked { IDLE } else { *st };
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ChannelConfig;
    use wcs_capacity::rates::RATES_11A;
    use wcs_propagation::geometry::Point2;
    use wcs_stats::rng::seeded_rng;

    fn world(positions: Vec<Point2>) -> World {
        World::new(
            positions,
            ChannelConfig::paper_analysis().without_shadowing(),
            1,
        )
    }

    fn tx(id: u64, sender: u32, frame: Frame, end: u64) -> ActiveTx {
        ActiveTx {
            id,
            sender: NodeId(sender),
            frame,
            start: SimTime::ZERO,
            end: SimTime(end),
        }
    }

    /// End `id` and return its decode outcomes.
    fn end(m: &mut Medium, w: &mut World, id: u64, rng: &mut impl Rng) -> Vec<DecodeResult> {
        let mut results = Vec::new();
        assert_eq!(m.end_tx(w, id, rng, &mut results).id, id);
        results
    }

    fn data(dst: u32, rate_idx: usize) -> Frame {
        Frame {
            kind: FrameKind::Data {
                dst: NodeId(dst),
                ack: false,
            },
            rate: RATES_11A[rate_idx],
            mpdu_bytes: 1432,
            seq: 0,
        }
    }

    #[test]
    fn clean_frame_decodes() {
        // Sender at origin, receiver 20 away: 26 dB SNR, decodes 54 Mbps.
        let mut w = world(vec![Point2::new(0.0, 0.0), Point2::new(20.0, 0.0)]);
        let mut m = Medium::new(2, w.config().noise, PhyConfig::default());
        let mut rng = seeded_rng(1);
        m.begin_tx(&mut w, tx(0, 0, data(1, 7), 100));
        assert!(m.is_receiving(NodeId(1)));
        assert!(m.is_transmitting(NodeId(0)));
        let res = end(&mut m, &mut w, 0, &mut rng);
        assert_eq!(res.len(), 1);
        assert!(res[0].success);
        assert!((res[0].min_sinr_db - 26.0).abs() < 0.5);
        assert!(!m.is_transmitting(NodeId(0)));
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    fn weak_frame_fails_at_high_rate_but_not_base() {
        // Receiver at 90 → SNR ≈ 6.4 dB: 6 Mbps OK, 24 Mbps fails.
        let mut w = world(vec![Point2::new(0.0, 0.0), Point2::new(90.0, 0.0)]);
        let mut rng = seeded_rng(2);
        let mut m = Medium::new(2, w.config().noise, PhyConfig::default());
        m.begin_tx(&mut w, tx(0, 0, data(1, 0), 100));
        assert!(end(&mut m, &mut w, 0, &mut rng)[0].success);
        m.begin_tx(&mut w, tx(1, 0, data(1, 4), 200));
        assert!(!end(&mut m, &mut w, 1, &mut rng)[0].success);
    }

    #[test]
    fn interference_mid_frame_corrupts() {
        // Node 0 → node 1 at distance 20 (26 dB); node 2 sits 25 from the
        // receiver: its interference drops SINR to ≈ 10·log10(20⁻³/25⁻³)
        // ≈ 2.9 dB < even the base-rate requirement.
        let mut w = world(vec![
            Point2::new(0.0, 0.0),
            Point2::new(20.0, 0.0),
            Point2::new(45.0, 0.0),
        ]);
        let mut rng = seeded_rng(3);
        let mut m = Medium::new(3, w.config().noise, PhyConfig::default());
        m.begin_tx(&mut w, tx(0, 0, data(1, 0), 1000));
        m.begin_tx(&mut w, tx(1, 2, data(1, 0), 900));
        let res = end(&mut m, &mut w, 0, &mut rng);
        let r1 = res.iter().find(|r| r.receiver == NodeId(1)).unwrap();
        assert!(!r1.success, "min SINR {} dB should fail", r1.min_sinr_db);
    }

    #[test]
    fn no_receive_abort() {
        // Receiver locks the weak frame first; a stronger later frame
        // does NOT steal the lock (and itself goes unreceived).
        let mut w = world(vec![
            Point2::new(0.0, 0.0),  // weak sender, 60 away from rx
            Point2::new(60.0, 0.0), // receiver
            Point2::new(70.0, 0.0), // strong sender, 10 away from rx
        ]);
        let mut rng = seeded_rng(4);
        let mut m = Medium::new(3, w.config().noise, PhyConfig::default());
        m.begin_tx(&mut w, tx(0, 0, data(1, 0), 1000));
        assert!(m.is_receiving(NodeId(1)));
        m.begin_tx(&mut w, tx(1, 2, data(1, 0), 900));
        // Still locked on tx 0 (which is now hopeless), not on tx 1.
        let res0 = end(&mut m, &mut w, 0, &mut rng);
        let r = res0.iter().find(|r| r.receiver == NodeId(1)).unwrap();
        assert!(!r.success);
        // tx 1 ends with no receiver locked on it.
        let res1 = end(&mut m, &mut w, 1, &mut rng);
        assert!(res1.iter().all(|r| r.receiver != NodeId(1)));
    }

    #[test]
    fn preamble_below_margin_not_locked() {
        // A frame arriving under existing strong interference is never
        // locked (the §5 chain-collision ingredient).
        let mut w = world(vec![
            Point2::new(0.0, 0.0),  // interferer near rx
            Point2::new(10.0, 0.0), // receiver
            Point2::new(80.0, 0.0), // weak sender
        ]);
        let mut rng = seeded_rng(5);
        let mut m = Medium::new(3, w.config().noise, PhyConfig::default());
        m.begin_tx(&mut w, tx(0, 0, data(1, 0), 1000));
        // Node 1 locks the strong frame; now the weak one arrives.
        m.begin_tx(&mut w, tx(1, 2, data(1, 0), 1000));
        // End the strong frame; node 1 was locked on it, decodes fine.
        let res = end(&mut m, &mut w, 0, &mut rng);
        assert!(res.iter().any(|r| r.receiver == NodeId(1) && r.success));
        // The weak frame finds no lock at node 1 (it appeared mid-burst)
        // and is too weak to have locked anyone else.
        let res1 = end(&mut m, &mut w, 1, &mut rng);
        assert!(res1.is_empty());
    }

    #[test]
    fn ambient_power_books_balance() {
        let mut w = world(vec![
            Point2::new(0.0, 0.0),
            Point2::new(20.0, 0.0),
            Point2::new(40.0, 0.0),
        ]);
        let mut rng = seeded_rng(6);
        let mut m = Medium::new(3, w.config().noise, PhyConfig::default());
        m.begin_tx(&mut w, tx(0, 0, data(1, 0), 1000));
        m.begin_tx(&mut w, tx(1, 2, data(1, 0), 1000));
        assert!(m.ambient(NodeId(1)) > 0.0);
        let _ = end(&mut m, &mut w, 0, &mut rng);
        let _ = end(&mut m, &mut w, 1, &mut rng);
        for i in 0..3 {
            assert_eq!(m.ambient(NodeId(i)), 0.0, "node {i} ambient should be zero");
        }
    }

    #[test]
    fn records_round_trip() {
        let mut w = world(vec![
            Point2::new(0.0, 0.0),
            Point2::new(20.0, 0.0),
            Point2::new(40.0, 0.0),
        ]);
        let mut rng = seeded_rng(9);
        let mut m = Medium::new(3, w.config().noise, PhyConfig::default());
        let a = tx(7, 0, data(1, 0), 500);
        let b = tx(8, 2, data(1, 0), 900);
        m.begin_tx(&mut w, a);
        m.begin_tx(&mut w, b);
        assert_eq!(m.active_tx(8), Some(&b));
        // Stale entries in the caller's buffer are replaced, not appended to.
        let mut results = end(&mut m, &mut w, 8, &mut rng);
        assert_eq!(m.end_tx(&mut w, 7, &mut rng, &mut results), a);
        assert!(results.iter().all(|r| r.sender == NodeId(0)), "{results:?}");
        assert!(m.active_tx(7).is_none() && m.active_tx(8).is_none());
    }

    #[test]
    fn overheard_outcomes_resolve_only_for_rts_and_cts() {
        let width_db = 1.0;
        let cfg = PhyConfig {
            reception: ReceptionModel::Sigmoid { width_db },
            ..Default::default()
        };
        let rts = Frame {
            kind: FrameKind::Rts {
                dst: NodeId(1),
                nav_until: SimTime(500),
            },
            ..data(1, 0)
        };
        // Node 0 sends to node 1 while node 2 overhears.
        let three = vec![
            Point2::new(0.0, 0.0),
            Point2::new(20.0, 0.0),
            Point2::new(0.0, 20.0),
        ];
        // Node 1 sends at 24 Mbps to node 2, which sits at that rate's
        // requirement, while nodes 0 and 3 overhear on both sides of the
        // addressee in node order.
        let four = vec![
            Point2::new(0.0, 20.0),
            Point2::new(0.0, 0.0),
            Point2::new(50.1, 0.0),
            Point2::new(0.0, -20.0),
        ];
        for (positions, sender, frame, receivers) in [
            (three.clone(), 0, data(1, 0), vec![1]),
            (three, 0, rts, vec![1, 2]),
            (four, 1, data(2, 4), vec![2]),
        ] {
            let n = positions.len();
            let mut w = world(positions);
            let mut successes = 0;
            for seed in 10..42 {
                let mut m = Medium::new(n, w.config().noise, cfg);
                m.begin_tx(&mut w, tx(0, sender, frame, 100));
                let locked: Vec<u32> = (0..n as u32)
                    .filter(|&i| m.is_receiving(NodeId(i)))
                    .collect();
                assert_eq!(locked.len(), n - 1, "every other node locks");
                let mut rng = seeded_rng(seed);
                let res = end(&mut m, &mut w, 0, &mut rng);
                let got: Vec<u32> = res.iter().map(|r| r.receiver.0).collect();
                assert_eq!(got, receivers, "{:?}", frame.kind);
                assert!(
                    (0..n as u32).all(|i| !m.is_receiving(NodeId(i))),
                    "all released"
                );
                // Every locked node took exactly one draw, in node order,
                // and each reported outcome was decided by its own node's.
                let mut reference = seeded_rng(seed);
                let draws: Vec<f64> = locked.iter().map(|_| reference.gen()).collect();
                assert_eq!(rng.gen::<f64>(), reference.gen::<f64>());
                for r in &res {
                    let k = locked.iter().position(|&i| i == r.receiver.0).unwrap();
                    let x = (r.min_sinr_db - frame.rate.min_snr_db) / width_db;
                    let p = 1.0 / (1.0 + (-x).exp());
                    assert_eq!(r.success, draws[k] < p, "{:?} seed {seed}", frame.kind);
                    successes += r.success as usize;
                }
            }
            if sender == 1 {
                // At the requirement the outcome really turns on the draw.
                assert!(successes > 0 && successes < 32, "{successes}");
            }
        }
    }

    #[test]
    fn half_duplex_abandons_reception() {
        let mut w = world(vec![Point2::new(0.0, 0.0), Point2::new(20.0, 0.0)]);
        let mut rng = seeded_rng(7);
        let mut m = Medium::new(2, w.config().noise, PhyConfig::default());
        m.begin_tx(&mut w, tx(0, 0, data(1, 0), 1000));
        assert!(m.is_receiving(NodeId(1)));
        // Node 1 starts its own transmission mid-reception.
        m.begin_tx(&mut w, tx(1, 1, data(0, 0), 900));
        assert!(!m.is_receiving(NodeId(1)));
        // Frame 0 ends with nobody locked.
        assert!(end(&mut m, &mut w, 0, &mut rng).is_empty());
        let _ = end(&mut m, &mut w, 1, &mut rng);
    }

    #[test]
    fn sigmoid_reception_is_probabilistic() {
        // At exactly the requirement the sigmoid gives ~50 % success.
        let mut w = world(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)]);
        // Choose geometry: snr huge; instead use rate with requirement
        // equal to actual snr by placing receiver at SNR = 14 dB for
        // 24 Mbps: r where r^-3/1e-6.5 = 10^1.4 → r ≈ 50.
        let mut w2 = world(vec![Point2::new(0.0, 0.0), Point2::new(50.1, 0.0)]);
        let _ = &mut w;
        let cfg = PhyConfig {
            reception: ReceptionModel::Sigmoid { width_db: 1.0 },
            ..Default::default()
        };
        let mut rng = seeded_rng(8);
        let mut successes = 0;
        let n = 2000;
        for t in 0..n {
            let mut m = Medium::new(2, w2.config().noise, cfg);
            m.begin_tx(&mut w2, tx(t, 0, data(1, 4), 1000));
            if end(&mut m, &mut w2, t, &mut rng)[0].success {
                successes += 1;
            }
        }
        let frac = successes as f64 / n as f64;
        assert!(frac > 0.2 && frac < 0.8, "{frac}");
    }
}
