//! Golden digests of seeded `Simulator` runs in the MAC/PHY modes that no
//! built-in workload reaches: unicast ACK with retries, RTS/CTS `Always`
//! (under hard-threshold and sigmoid reception) and `LossTriggered`,
//! preamble-detect CCA, hard-threshold reception, a per-node CCA offset,
//! and frame tracing.
//!
//! The sweep workloads only exercise broadcast energy-detect runs under
//! the sigmoid testbed PHY, so their CSV goldens say nothing about these
//! paths. Each case here hashes every observable a run produces — all
//! `FlowStats` fields, per-node airtime, medium occupancy and (when on)
//! the trace — and the hashes were captured before the simulator's fast
//! path existed. They stand in for keeping the old event loop around as a
//! reference: any change to event order, RNG consumption or SINR
//! arithmetic moves at least one of them.

use std::fmt::Write;
use wcs_propagation::geometry::Point2;
use wcs_sim::mac::{AckPolicy, CcaMode, MacConfig, RtsCtsPolicy};
use wcs_sim::phy::{PhyConfig, ReceptionModel};
use wcs_sim::rate::RatePolicy;
use wcs_sim::{ChannelConfig, Duration, NodeId, SimConfig, Simulator, World};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Three sender→receiver pairs on a shadowed channel (σ = 8 dB): senders
/// 0 and 2 sense each other at ≈15 dB, just over the 13 dB threshold,
/// sender 4 is hidden from both, and every receiver hears the other
/// senders a few dB above the noise floor.
fn six_node_world() -> World {
    World::new(
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(35.0, 0.0),
            Point2::new(140.0, 0.0),
            Point2::new(140.0, 35.0),
            Point2::new(70.0, 90.0),
            Point2::new(70.0, 120.0),
        ],
        ChannelConfig::paper_analysis(),
        4,
    )
}

struct Case {
    name: &'static str,
    mac: MacConfig,
    phy: PhyConfig,
    /// Node whose CCA threshold is offset, and by how many dB.
    cca_offset: Option<(u32, f64)>,
    /// Trace capacity, when tracing is on.
    trace: Option<usize>,
    /// One policy per flow (flows are 0→1, 2→3, 4→5 in order).
    rates: Vec<RatePolicy>,
    seed: u64,
}

/// Run `case` for two simulated seconds and hash everything it exposes.
/// Returns the digest and the flow stats (for the sanity checks that
/// each case really exercises its mode).
fn run(case: &Case) -> (u64, Vec<wcs_sim::FlowStats>) {
    let mut sim = Simulator::new(
        six_node_world(),
        SimConfig {
            phy: case.phy,
            mac: case.mac,
            payload_bytes: 1400,
            seed: case.seed,
        },
    );
    if let Some(cap) = case.trace {
        sim.enable_trace(cap);
    }
    for (i, rate) in case.rates.iter().enumerate() {
        let src = NodeId(2 * i as u32);
        sim.add_flow(src, NodeId(src.0 + 1), rate.clone());
    }
    if let Some((node, db)) = case.cca_offset {
        sim.set_cca_offset_db(NodeId(node), db);
    }
    sim.run_for(Duration::from_secs(2));

    let mut text = String::new();
    let stats: Vec<_> = (0..case.rates.len())
        .map(|i| sim.flow_stats(i).clone())
        .collect();
    for s in &stats {
        write!(text, "{s:?};").unwrap();
    }
    for node in 0..6 {
        write!(text, "{};", sim.airtime_us(NodeId(node))).unwrap();
    }
    write!(text, "{:?};", sim.occupancy_us()).unwrap();
    if let Some(tr) = sim.trace() {
        write!(text, "{};{};", tr.len(), tr.dropped()).unwrap();
        for e in tr.entries() {
            write!(text, "{e:?};").unwrap();
        }
    }
    (fnv1a64(text.as_bytes()), stats)
}

fn unicast(retry_limit: u32, rts_cts: RtsCtsPolicy) -> MacConfig {
    MacConfig {
        ack: AckPolicy::Unicast { retry_limit },
        rts_cts,
        ..MacConfig::paper_cs()
    }
}

fn fixed(rates: &[f64]) -> Vec<RatePolicy> {
    rates.iter().map(|&r| RatePolicy::fixed(r)).collect()
}

fn cases() -> Vec<Case> {
    let hard = PhyConfig::default();
    vec![
        Case {
            name: "unicast-retries",
            mac: unicast(3, RtsCtsPolicy::Off),
            phy: hard,
            cca_offset: None,
            trace: None,
            rates: fixed(&[12.0, 12.0]),
            seed: 1,
        },
        Case {
            name: "unicast-samplerate-sigmoid",
            mac: unicast(4, RtsCtsPolicy::Off),
            phy: PhyConfig {
                reception: ReceptionModel::Sigmoid { width_db: 2.0 },
                ..PhyConfig::default()
            },
            cca_offset: None,
            trace: None,
            rates: vec![
                RatePolicy::sample_paper_subset(),
                RatePolicy::sample_paper_subset(),
                RatePolicy::fixed(24.0),
            ],
            seed: 2,
        },
        Case {
            name: "rts-always",
            mac: unicast(2, RtsCtsPolicy::Always),
            phy: hard,
            cca_offset: None,
            trace: None,
            rates: fixed(&[12.0, 12.0, 6.0]),
            seed: 3,
        },
        Case {
            name: "rts-always-sigmoid",
            mac: unicast(2, RtsCtsPolicy::Always),
            phy: PhyConfig {
                reception: ReceptionModel::Sigmoid { width_db: 2.0 },
                ..PhyConfig::default()
            },
            cca_offset: None,
            trace: None,
            rates: fixed(&[12.0, 12.0, 6.0]),
            seed: 8,
        },
        Case {
            name: "rts-loss-triggered",
            mac: unicast(
                2,
                RtsCtsPolicy::LossTriggered {
                    loss_threshold: 0.7,
                    min_rssi_db: 5.0,
                    window: 20,
                    rearm_threshold: 0.9,
                },
            ),
            phy: hard,
            cca_offset: None,
            trace: None,
            rates: fixed(&[12.0, 12.0]),
            seed: 4,
        },
        Case {
            name: "preamble-detect",
            mac: MacConfig {
                cca_mode: CcaMode::PreambleDetect,
                ..MacConfig::paper_cs()
            },
            phy: hard,
            cca_offset: None,
            trace: None,
            rates: fixed(&[6.0, 12.0, 24.0]),
            seed: 5,
        },
        Case {
            name: "cca-offset",
            mac: MacConfig::paper_cs(),
            phy: hard,
            cca_offset: Some((0, 12.0)),
            trace: None,
            rates: fixed(&[12.0, 18.0, 12.0]),
            seed: 6,
        },
        Case {
            name: "trace-rts-unicast",
            mac: unicast(3, RtsCtsPolicy::Always),
            phy: hard,
            cca_offset: None,
            trace: Some(3000),
            rates: fixed(&[18.0, 9.0, 12.0]),
            seed: 7,
        },
    ]
}

/// Digests captured from the simulator before its fast path (per-sender
/// gain rows, precomputed CCA thresholds, id-keyed vectors instead of
/// hash maps). `rts-always-sigmoid` was captured later, before the medium
/// kept one state word per node: it is the one case where a frame (an RTS
/// or CTS) has several reported receptions, each decided by its own
/// sigmoid draw in node order. If a change is *meant* to alter simulator
/// output, it is a new stream: say so, and re-pin all of these together.
const PINNED: [(&str, u64); 8] = [
    ("unicast-retries", 0xce14d390e14cb7e1),
    ("unicast-samplerate-sigmoid", 0xd2305fe083de6e8a),
    ("rts-always", 0xfc26e9bd5d28ea37),
    ("rts-always-sigmoid", 0x13ecaae47c5b270f),
    ("rts-loss-triggered", 0xfb2b9772410b2e39),
    ("preamble-detect", 0xc4b50e37e8aec977),
    ("cca-offset", 0x0968bd3d37bee8d7),
    ("trace-rts-unicast", 0x33ae140aa447013d),
];

#[test]
fn every_mode_reproduces_its_pinned_digest() {
    let mut wrong = Vec::new();
    for case in cases() {
        let (digest, _) = run(&case);
        let pinned = PINNED
            .iter()
            .find(|(name, _)| *name == case.name)
            .map(|&(_, d)| d);
        if pinned != Some(digest) {
            wrong.push(format!("(\"{}\", 0x{digest:016x})", case.name));
        }
    }
    assert!(
        wrong.is_empty(),
        "digest mismatches:\n{}",
        wrong.join(",\n")
    );
}

#[test]
fn each_case_exercises_its_mode() {
    let by_name = |name: &str| {
        let case = cases().into_iter().find(|c| c.name == name).unwrap();
        run(&case).1
    };
    let retries = by_name("unicast-retries");
    assert!(retries.iter().any(|s| s.timeouts > 0), "{retries:?}");
    assert!(retries.iter().all(|s| s.acked > 0), "{retries:?}");
    for name in ["rts-always", "rts-always-sigmoid"] {
        let always = by_name(name);
        assert!(always.iter().all(|s| s.rts_sent > 0), "{name}: {always:?}");
    }
    let triggered = by_name("rts-loss-triggered");
    assert!(triggered.iter().any(|s| s.rts_sent > 0), "{triggered:?}");
    let adaptive = by_name("unicast-samplerate-sigmoid");
    assert!(adaptive[0].per_rate.len() > 1, "{adaptive:?}");
}
