//! Reproducibility: the entire pipeline — model averages, threshold
//! solves, testbed generation, packet simulation, harness text — must be
//! bit-for-bit identical across runs with the same seeds.

use in_defense_of_carrier_sense::model::average::mc_averages;
use in_defense_of_carrier_sense::model::params::ModelParams;
use wcs_bench::{figures, tables, Effort};

#[test]
fn model_averages_reproduce_exactly() {
    let p = ModelParams::paper_default();
    let a = mc_averages(&p, 40.0, 55.0, 55.0, 10_000, 123);
    let b = mc_averages(&p, 40.0, 55.0, 55.0, 10_000, 123);
    assert_eq!(
        a.carrier_sense.mean.to_bits(),
        b.carrier_sense.mean.to_bits()
    );
    assert_eq!(a.optimal.mean.to_bits(), b.optimal.mean.to_bits());
    assert_eq!(
        a.multiplex_fraction.to_bits(),
        b.multiplex_fraction.to_bits()
    );
}

#[test]
fn different_seeds_differ() {
    let p = ModelParams::paper_default();
    let a = mc_averages(&p, 40.0, 55.0, 55.0, 10_000, 1);
    let b = mc_averages(&p, 40.0, 55.0, 55.0, 10_000, 2);
    assert_ne!(
        a.carrier_sense.mean.to_bits(),
        b.carrier_sense.mean.to_bits()
    );
}

#[test]
fn harness_text_is_stable() {
    assert_eq!(tables::table1(Effort::Quick), tables::table1(Effort::Quick));
    assert_eq!(
        figures::shadow_example_report(Effort::Quick),
        figures::shadow_example_report(Effort::Quick)
    );
    assert_eq!(figures::fig3(Effort::Quick), figures::fig3(Effort::Quick));
}

#[test]
fn testbed_experiment_is_stable() {
    use wcs_bench::TestbedCategory;
    let a = wcs_bench::testbed_report(TestbedCategory::ShortRange, Effort::Quick);
    let b = wcs_bench::testbed_report(TestbedCategory::ShortRange, Effort::Quick);
    assert_eq!(a, b);
}

// ---- engine-driven runs -------------------------------------------------
//
// The wcs-runtime engine must be invisible in the numbers: any thread
// count, any scheduling interleaving, same bits.

use in_defense_of_carrier_sense::runtime::{run_sweep, scenarios, EffortProfile, Engine};

/// A miniature Figure-4-family grid: the full declarative spec shape
/// (3 Rmax × 3 σ × all policies) at test-sized sample counts.
fn tiny_fig4_family() -> in_defense_of_carrier_sense::runtime::Sweep {
    let profile = EffortProfile::quick()
        .with_curve_points(6)
        .with_mc_samples(20_000);
    scenarios::figure4_family(&profile)
}

#[test]
fn engine_sweep_is_bitwise_identical_across_thread_counts() {
    let sweep = tiny_fig4_family();
    let serial = run_sweep(&sweep, &Engine::new(1), None);
    let four = run_sweep(&sweep, &Engine::new(4), None);
    let many = run_sweep(&sweep, &Engine::new(13), None);
    assert_eq!(serial.report.to_csv(), four.report.to_csv());
    assert_eq!(serial.report.to_csv(), many.report.to_csv());
    assert_eq!(serial.report.to_json(), four.report.to_json());
}

#[test]
fn npair_scaling_sweep_is_bitwise_identical_across_thread_counts() {
    // The topology-axis path (N-pair kernel, extended fairness columns)
    // must honour the same contract as the classic path: any thread
    // count, same bits. This is the `repro sweep npair-scaling` CI smoke
    // in miniature.
    let profile = EffortProfile::quick().with_mc_samples(10_000);
    let sweep = scenarios::npair_scaling(&profile);
    let serial = run_sweep(&sweep, &Engine::new(1), None);
    let four = run_sweep(&sweep, &Engine::new(4), None);
    let many = run_sweep(&sweep, &Engine::new(11), None);
    assert_eq!(serial.report.to_csv(), four.report.to_csv());
    assert_eq!(serial.report.to_csv(), many.report.to_csv());
    assert_eq!(serial.report.to_json(), four.report.to_json());
}

#[test]
fn stream_layout_v2_is_bitwise_identical_across_thread_counts() {
    // The batched v2 draw path honours the same engine contract as v1:
    // any thread count, same bits — but it is a *different* stream, so
    // its bytes and its cache identity must both diverge from v1.
    use in_defense_of_carrier_sense::runtime::StreamLayout;
    let v1 = tiny_fig4_family();
    let v2 = tiny_fig4_family().stream_layout(StreamLayout::V2);
    let serial = run_sweep(&v2, &Engine::new(1), None);
    let four = run_sweep(&v2, &Engine::new(4), None);
    let many = run_sweep(&v2, &Engine::new(13), None);
    assert_eq!(serial.report.to_csv(), four.report.to_csv());
    assert_eq!(serial.report.to_csv(), many.report.to_csv());
    assert_eq!(serial.report.to_json(), four.report.to_json());
    let v1_out = run_sweep(&v1, &Engine::new(4), None);
    assert_ne!(
        v1_out.report.to_csv(),
        serial.report.to_csv(),
        "v2 must be a distinct stream, not a re-labelled v1"
    );
    assert_ne!(
        v1.scenario_hash(),
        v2.scenario_hash(),
        "v2 must not collide with v1 cache entries"
    );
}

#[test]
fn stream_layout_v2_npair_sweep_is_thread_count_invariant() {
    // Same contract on the topology-axis path, where the batched N-pair
    // kernel (the whole point of v2) actually runs.
    use in_defense_of_carrier_sense::runtime::StreamLayout;
    let profile = EffortProfile::quick().with_mc_samples(10_000);
    let sweep = scenarios::npair_scaling(&profile).stream_layout(StreamLayout::V2);
    let serial = run_sweep(&sweep, &Engine::new(1), None);
    let many = run_sweep(&sweep, &Engine::new(11), None);
    assert_eq!(serial.report.to_csv(), many.report.to_csv());
    assert_eq!(serial.report.to_json(), many.report.to_json());
}

#[test]
fn stream_layout_v2_reproduces_its_pinned_report_bytes() {
    // Thread and shard parity cannot catch a change that moves v2 bytes
    // the same way on every path, so the v2 reports are pinned too.
    // Any rewrite of the v2 kernels or samplers must keep these hashes.
    use in_defense_of_carrier_sense::runtime::scenario::fnv1a64;
    use in_defense_of_carrier_sense::runtime::StreamLayout;
    let tiny = EffortProfile::quick()
        .with_mc_samples(2_000)
        .with_curve_points(4);
    let pinned: [(&str, u64, usize); 3] = [
        ("figure4-family", 0xf44c30d9d8ad219a, 180),
        ("npair-scaling", 0x6f63609be7115428, 60),
        ("npair-placements", 0x457cffee8bfb5f55, 18),
    ];
    let got: Vec<(&str, u64, usize)> = pinned
        .iter()
        .map(|&(name, _, _)| {
            let sweep = scenarios::by_name(name, &tiny)
                .unwrap()
                .stream_layout(StreamLayout::V2);
            let out = run_sweep(&sweep, &Engine::new(4), None);
            let hash = fnv1a64(out.report.to_csv().as_bytes());
            (name, hash, out.report.rows.len())
        })
        .collect();
    assert_eq!(got, pinned, "v2 report bytes changed (name, fnv1a64, rows)");
}

#[test]
fn adding_the_topology_axis_changed_no_classic_sweep() {
    // The classic scenarios must hash to the same canonical identity
    // whether or not the (defaulted) topology axis is spelled out, and
    // their reports keep the pre-axis 11-column layout.
    use in_defense_of_carrier_sense::runtime::Topology;
    let sweep = tiny_fig4_family();
    let spelled = sweep.clone().topologies(&[Topology::TwoPair]);
    assert_eq!(sweep.scenario_hash(), spelled.scenario_hash());
    let out = run_sweep(&sweep, &Engine::new(2), None);
    assert_eq!(out.report.columns.len(), 11);
}

#[test]
fn engine_driven_generators_match_their_serial_text() {
    // fig4_5, fig7, table2 and the testbed reports all schedule onto the
    // engine; forcing different worker counts via WCS_THREADS must not
    // change a byte. (Each call re-reads the env through Engine::from_env.)
    std::env::set_var("WCS_THREADS", "1");
    let serial_fig = figures::fig4_5(Effort::Quick);
    let serial_tab = tables::table2(Effort::Quick);
    std::env::set_var("WCS_THREADS", "5");
    let parallel_fig = figures::fig4_5(Effort::Quick);
    let parallel_tab = tables::table2(Effort::Quick);
    std::env::remove_var("WCS_THREADS");
    assert_eq!(serial_fig, parallel_fig);
    assert_eq!(serial_tab, parallel_tab);
}

#[test]
fn workload_redesign_preserves_builtin_scenario_identities() {
    // The api_redesign acceptance criterion, pinned: every pre-existing
    // built-in scenario's canonical hash (quick profile — what `repro
    // sweep <name>` uses) and report bytes (tiny profile) must be
    // **unchanged** under the Workload-trait-based API. The constants
    // below were captured from the pre-redesign code; if any of them
    // moves, a cache key or report byte changed.
    use in_defense_of_carrier_sense::runtime::scenario::fnv1a64;
    let quick = EffortProfile::quick();
    let quick_hashes: [(&str, u64); 5] = [
        ("figure4-family", 0xc936b82047ff628e),
        ("table1-grid", 0x98c89621b3f11201),
        ("threshold-robustness", 0x6b141a86340d60e0),
        ("npair-scaling", 0xc44268aede8a706a),
        ("npair-placements", 0x023ab1d93c482c23),
    ];
    for (name, expected) in quick_hashes {
        let sweep = scenarios::by_name(name, &quick).unwrap();
        assert_eq!(
            sweep.scenario_hash(),
            expected,
            "{name}: canonical hash (cache key) changed across the workload redesign"
        );
    }
    let tiny = EffortProfile::quick()
        .with_mc_samples(2_000)
        .with_curve_points(4);
    let tiny_reports: [(&str, u64, u64, usize); 5] = [
        (
            "figure4-family",
            0x8e91f0e5567d71bc,
            0x92ba8f4fdca3e36f,
            180,
        ),
        ("table1-grid", 0x53c36c39c0443b4b, 0xa6be65808ad029cf, 18),
        (
            "threshold-robustness",
            0x27add0fb030feb90,
            0xde1608884762394b,
            486,
        ),
        ("npair-scaling", 0x55c51b67f11d678a, 0x6515035132150283, 60),
        (
            "npair-placements",
            0xb9966599bbcdee15,
            0xca83064614b8fa3c,
            18,
        ),
    ];
    for (name, spec_hash, csv_hash, rows) in tiny_reports {
        let sweep = scenarios::by_name(name, &tiny).unwrap();
        assert_eq!(sweep.scenario_hash(), spec_hash, "{name}: tiny spec hash");
        let out = run_sweep(&sweep, &Engine::new(4), None);
        assert_eq!(out.report.rows.len(), rows, "{name}: row count");
        assert_eq!(
            fnv1a64(out.report.to_csv().as_bytes()),
            csv_hash,
            "{name}: report bytes changed across the workload redesign"
        );
    }
}

#[test]
fn sim_workload_is_bitwise_identical_across_thread_counts() {
    // The second Workload implementor honours the same contract as the
    // first: any engine width, same bits — report, CSV and JSON.
    // The second grid's CCA siblings share baselines slots, which 4 and
    // 11 workers then contend for.
    use in_defense_of_carrier_sense::runtime::{run_workload, RateAxis, SimSweep};
    let sweep = SimSweep::new("determinism-sim")
        .cca_thresholds_db(&[7.0, 13.0])
        .points(2)
        .run_secs(1)
        .sweep_rates_mbps(&[6.0, 24.0])
        .seed(23);
    let shared = sweep
        .clone()
        .cca_thresholds_db(&[7.0, 13.0, 19.0])
        .rates(&[RateAxis::BestFixed, RateAxis::Fixed(6.0)]);
    for sweep in [sweep, shared] {
        let serial = run_workload(&sweep, &Engine::new(1), None);
        let four = run_workload(&sweep, &Engine::new(4), None);
        let many = run_workload(&sweep, &Engine::new(11), None);
        assert_eq!(serial.report.to_csv(), four.report.to_csv());
        assert_eq!(serial.report.to_csv(), many.report.to_csv());
        assert_eq!(serial.report.to_json(), four.report.to_json());
    }
}

#[test]
fn sim_scenarios_reproduce_their_pinned_report_bytes() {
    // The §4 simulator has no stream-layout split, so any simulator
    // optimization must leave its reports byte-identical. These hashes
    // were captured before the simulator's fast path; if one moves, the
    // event loop or the SINR arithmetic changed observable output.
    use in_defense_of_carrier_sense::runtime::run_workload;
    use in_defense_of_carrier_sense::runtime::scenario::fnv1a64;
    let tiny = EffortProfile::quick()
        .with_run_secs(1)
        .with_ensemble_points(8);
    let pinned = [
        (scenarios::sim_threshold_grid(&tiny), 0x6c2bbac85b4cb1a7, 6),
        (scenarios::sim_rate_policies(&tiny), 0xe37fa089eeb04335, 6),
    ];
    for (sweep, csv_hash, rows) in pinned {
        let out = run_workload(&sweep, &Engine::new(2), None);
        assert_eq!(out.report.rows.len(), rows, "{}: row count", sweep.name);
        assert_eq!(
            fnv1a64(out.report.to_csv().as_bytes()),
            csv_hash,
            "{}: report bytes changed",
            sweep.name
        );
    }
}
