//! The distributed-sharding determinism contract, end to end:
//! plan → worker → merge must be **bitwise identical** to a
//! single-process run for every built-in scenario, at any shard count,
//! under either dealing strategy — and the merge must refuse any shard
//! set that is inconsistent (overlaps, gaps, edited specs).

use in_defense_of_carrier_sense::runtime::{
    parse_any_spec_toml, parse_spec_toml, run_workload, scenarios, to_spec_toml, AnyWorkload,
    EffortProfile, Engine, PolicyAxis, RateAxis, ResultCache, SimSweep, Sweep, Topology,
    WorkloadSpec,
};
use in_defense_of_carrier_sense::shard::{
    manifest::ShardManifest,
    merge_dir, merge_partials,
    partial::{run_worker, PartialReport},
    plan::{ShardPlan, ShardStrategy},
    write_plan, ShardError,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// Built-in scenarios at a test-sized budget (the full quick profile
/// would make this suite minutes long for zero extra coverage).
fn tiny_scenarios() -> Vec<Sweep> {
    let profile = EffortProfile::quick()
        .with_mc_samples(2_000)
        .with_curve_points(4);
    scenarios::NAMES
        .iter()
        .map(|name| scenarios::by_name(name, &profile).expect(name))
        .collect()
}

fn shard_and_merge(workload: &AnyWorkload, k: usize, strategy: ShardStrategy) -> String {
    let plan = ShardPlan::new(workload.task_count(), k, strategy).unwrap();
    let parts: Vec<PartialReport> = (0..plan.k)
        .map(|i| {
            // Alternate worker thread counts: shard determinism must not
            // depend on every worker using the same engine width.
            let engine = if i % 2 == 0 {
                Engine::serial()
            } else {
                Engine::new(3)
            };
            run_worker(
                &ShardManifest::new(workload.clone(), &plan, i),
                &engine,
                None,
            )
            .unwrap()
        })
        .collect();
    let full = merge_partials(&parts).expect("merge");
    workload.finalize(&full).to_csv()
}

#[test]
fn every_builtin_scenario_merges_bitwise_at_multiple_shard_counts() {
    // The acceptance criterion of the sharding subsystem, verbatim: for
    // every built-in scenario and at least two shard counts K > 1, the
    // sharded pipeline's CSV equals the single-process CSV byte for byte.
    for sweep in tiny_scenarios() {
        let single = run_workload(&sweep, &Engine::new(2), None).report.to_csv();
        let workload = AnyWorkload::from(&sweep);
        for k in [2, 3] {
            for strategy in [ShardStrategy::Contiguous, ShardStrategy::Strided] {
                let merged = shard_and_merge(&workload, k, strategy);
                assert_eq!(
                    merged,
                    single,
                    "sim sweep with {} thresholds diverged at k = {k} ({})",
                    sweep.name,
                    strategy.label()
                );
            }
        }
    }
}

/// The sim workload acceptance criterion: a sim sweep sharded at
/// K ∈ {1, 2, 3} merges bitwise-identical to its single-process run, at
/// mixed worker thread counts, under both dealing strategies.
#[test]
fn sim_workload_shards_merge_bitwise_at_k_1_2_3() {
    let sim = SimSweep::new("sharded-sim")
        .cca_thresholds_db(&[7.0, 13.0])
        .points(2)
        .run_secs(1)
        .sweep_rates_mbps(&[6.0, 24.0])
        .seed(31);
    // Every shard boundary cuts some of this grid's groups of CCA
    // siblings, which share baselines within one lowering.
    let shared = sim
        .clone()
        .cca_thresholds_db(&[7.0, 13.0, 19.0])
        .rates(&[RateAxis::BestFixed, RateAxis::Fixed(6.0)]);
    for sim in [sim, shared] {
        let single = run_workload(&sim, &Engine::new(4), None).report.to_csv();
        let workload = AnyWorkload::from(&sim);
        for k in [1, 2, 3] {
            for strategy in [ShardStrategy::Contiguous, ShardStrategy::Strided] {
                assert_eq!(
                    shard_and_merge(&workload, k, strategy),
                    single,
                    "sim sweep with {} thresholds diverged at k = {k} ({})",
                    sim.cca_thresholds_db.len(),
                    strategy.label()
                );
            }
        }
    }
}

#[test]
fn extreme_shard_counts_also_merge_bitwise() {
    // k = 1 (degenerate single shard) and k = 7 (more shards than some
    // scenarios have task-count divisors; npair-scaling has 12 tasks, so
    // shards are ragged) on the heterogeneous N-pair grid.
    let profile = EffortProfile::quick().with_mc_samples(1_000);
    let sweep = scenarios::npair_scaling(&profile);
    let single = run_workload(&sweep, &Engine::serial(), None)
        .report
        .to_csv();
    let workload = AnyWorkload::from(&sweep);
    for k in [1, 7] {
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::Strided] {
            assert_eq!(
                shard_and_merge(&workload, k, strategy),
                single,
                "k = {k} ({})",
                strategy.label()
            );
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-sharding-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_workers_into(dir: &std::path::Path, sweep: &Sweep, k: usize) {
    let paths = write_plan(dir, sweep, k, ShardStrategy::Contiguous).unwrap();
    for p in &paths {
        let manifest = ShardManifest::load(p).unwrap();
        let shard = manifest.shard;
        let partial = run_worker(&manifest, &Engine::serial(), None).unwrap();
        partial
            .save(&in_defense_of_carrier_sense::shard::partial_path(
                dir, shard,
            ))
            .unwrap();
    }
}

fn tiny_sweep() -> Sweep {
    Sweep::new("on-disk")
        .ds(&[25.0, 75.0])
        .sigmas(&[0.0, 8.0])
        .samples(400)
        .seed(17)
}

#[test]
fn on_disk_merge_matches_and_stores_under_the_single_process_cache_key() {
    let dir = tmpdir("merge");
    let cache_dir = tmpdir("merge-cache");
    let sweep = tiny_sweep();
    run_workers_into(&dir, &sweep, 3);
    let cache = ResultCache::new(&cache_dir);
    let outcome = merge_dir(&dir, Some(&cache)).expect("merge");
    let single = run_workload(&sweep, &Engine::new(4), None);
    assert_eq!(outcome.report.to_csv(), single.report.to_csv());
    assert_eq!(outcome.shards, 3);
    // The merge stored the full all-policy report under the exact key a
    // single-process run uses: a fresh run_workload must hit, not compute.
    let served = run_workload(&sweep, &Engine::serial(), Some(&cache));
    assert!(served.cache_hit, "merged store must serve later sweeps");
    assert_eq!(served.report.to_csv(), single.report.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn workers_slice_from_a_shared_cache_bitwise() {
    // A worker that finds the *full* sweep already cached (by a merged or
    // single-process run) serves its slice from it — and the slice is
    // bitwise what a recompute produces.
    let cache_dir = tmpdir("worker-cache");
    let cache = ResultCache::new(&cache_dir);
    let sweep = tiny_sweep();
    let _ = run_workload(&sweep, &Engine::new(2), Some(&cache)); // fill
    let plan = ShardPlan::new(sweep.task_count(), 2, ShardStrategy::Strided).unwrap();
    for shard in 0..2 {
        let manifest = ShardManifest::new(&sweep, &plan, shard);
        let from_cache = run_worker(&manifest, &Engine::serial(), Some(&cache)).unwrap();
        let recomputed = run_worker(&manifest, &Engine::serial(), None).unwrap();
        assert_eq!(from_cache.report.to_csv(), recomputed.report.to_csv());
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn merge_dir_rejects_gaps_and_edited_manifests() {
    use in_defense_of_carrier_sense::shard::partial_path;
    let sweep = tiny_sweep();

    // Gap: a worker never delivered its partial.
    let dir = tmpdir("gap");
    run_workers_into(&dir, &sweep, 3);
    std::fs::remove_file(partial_path(&dir, 1)).unwrap();
    assert!(
        matches!(
            merge_dir(&dir, None),
            Err(ShardError::Gap { shard: 1, k: 3 })
        ),
        "missing partial must be a gap"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Edited manifest: spec changed after planning, hash now disagrees.
    let dir = tmpdir("tamper");
    run_workers_into(&dir, &sweep, 2);
    let mpath = in_defense_of_carrier_sense::shard::manifest_path(&dir, 0);
    let text = std::fs::read_to_string(&mpath).unwrap();
    let tampered = text.replace("samples = 400", "samples = 4000");
    assert_ne!(text, tampered);
    std::fs::write(&mpath, tampered).unwrap();
    assert!(
        matches!(merge_dir(&dir, None), Err(ShardError::HashMismatch { .. })),
        "edited manifest must fail hash verification"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Overlap: two deliveries of the same shard index under different
    // file names.
    let dir = tmpdir("overlap");
    run_workers_into(&dir, &sweep, 2);
    let plan = ShardPlan::new(sweep.task_count(), 2, ShardStrategy::Contiguous).unwrap();
    let duplicate = run_worker(
        &ShardManifest::new(&sweep, &plan, 0),
        &Engine::serial(),
        None,
    )
    .unwrap();
    let mut parts = vec![
        PartialReport::load(&partial_path(&dir, 0)).unwrap(),
        PartialReport::load(&partial_path(&dir, 1)).unwrap(),
    ];
    parts.push(duplicate);
    assert!(matches!(
        merge_partials(&parts),
        Err(ShardError::Overlap { shard: 0 })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lost_worker_remerge_serves_cached_partials_and_only_reruns_the_gap() {
    // The shard-level partial-caching satellite: workers store their
    // partials in the shared cache, so a merge whose plan directory lost
    // one partial file serves it from the cache — and a re-run of the
    // whole plan only recomputes shards the cache has never seen.
    use in_defense_of_carrier_sense::shard::partial_path;
    let dir = tmpdir("partial-cache");
    let cache_dir = tmpdir("partial-cache-cache");
    let cache = ResultCache::new(&cache_dir);
    let sweep = tiny_sweep();
    let single = run_workload(&sweep, &Engine::new(2), None).report.to_csv();

    let paths = write_plan(&dir, &sweep, 3, ShardStrategy::Contiguous).unwrap();
    for p in &paths {
        let manifest = ShardManifest::load(p).unwrap();
        let shard = manifest.shard;
        let partial = run_worker(&manifest, &Engine::serial(), Some(&cache)).unwrap();
        partial.save(&partial_path(&dir, shard)).unwrap();
    }
    // Lose one worker's delivered partial; the merge must fall back to
    // the cached blob instead of reporting a gap.
    std::fs::remove_file(partial_path(&dir, 1)).unwrap();
    let outcome = merge_dir(&dir, Some(&cache)).expect("merge with cached partial");
    assert_eq!(outcome.shards, 3);
    assert_eq!(outcome.shards_from_cache, 1, "exactly the lost shard");
    assert_eq!(outcome.report.to_csv(), single);
    // Without the cache the same directory is a genuine gap.
    std::fs::remove_file(partial_path(&dir, 0)).unwrap();
    assert!(matches!(
        merge_dir(&dir, None),
        Err(ShardError::Gap { shard: 0, k: 3 })
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

// ---- spec-file round-trip properties ------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// parse ∘ serialize = id for randomized sweeps: every axis value,
    /// the topology, the sample budget and the seed survive the trip —
    /// and the canonical hash (the cache key) is untouched.
    #[test]
    fn spec_roundtrip_preserves_sweep_and_hash(
        rmax in 5.0..500.0f64,
        d in 1.0..400.0f64,
        sigma in 0.0..16.0f64,
        alpha in 2.0..5.0f64,
        n_pairs in 2usize..12,
        placement in 0usize..3,
        samples in 1u64..1_000_000,
        seed in 0u64..u64::MAX,
    ) {
        use in_defense_of_carrier_sense::capacity::npair::Placement;
        let topology = match placement {
            0 => Topology::npair(n_pairs, Placement::Line),
            1 => Topology::npair(n_pairs, Placement::Grid),
            _ => Topology::npair(n_pairs, Placement::Random { seed: seed ^ 0xA5A5 }),
        };
        let sweep = Sweep::new("prop-spec")
            .rmaxes(&[rmax, rmax * 1.5])
            .ds(&[d])
            .sigmas(&[sigma])
            .alphas(&[alpha])
            .d_threshes(&[d * 0.75])
            .topologies(&[Topology::TwoPair, topology])
            .policies(&[PolicyAxis::CarrierSense, PolicyAxis::Optimal])
            .samples(samples)
            .seed(seed);
        let parsed = parse_spec_toml(&to_spec_toml(&sweep)).expect("roundtrip parse");
        prop_assert_eq!(&parsed, &sweep);
        prop_assert_eq!(parsed.canonical(), sweep.canonical());
        prop_assert_eq!(parsed.scenario_hash(), sweep.scenario_hash());
    }

    /// Manifests round-trip through their on-disk form for arbitrary
    /// plan coordinates, and the derived slices partition the task list.
    #[test]
    fn manifest_roundtrip_preserves_plan(
        k in 1usize..9,
        strided in 0usize..2,
        d_count in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let ds: Vec<f64> = (0..d_count).map(|i| 10.0 + 15.0 * i as f64).collect();
        let sweep = Sweep::new("prop-manifest").ds(&ds).samples(100).seed(seed);
        let strategy = if strided == 0 { ShardStrategy::Contiguous } else { ShardStrategy::Strided };
        let plan = ShardPlan::new(sweep.task_count(), k, strategy).unwrap();
        let mut covered: Vec<usize> = Vec::new();
        for shard in 0..plan.k {
            let m = ShardManifest::new(&sweep, &plan, shard);
            let parsed = ShardManifest::parse(
                &m.to_toml(),
                std::path::Path::new("prop.manifest.toml"),
            ).expect("manifest parse");
            prop_assert_eq!(&parsed, &m);
            covered.extend(parsed.indices());
        }
        covered.sort_unstable();
        let expected: Vec<usize> = (0..sweep.task_count()).collect();
        prop_assert_eq!(covered, expected);
    }
}

#[test]
fn spec_file_for_a_builtin_scenario_keeps_its_cache_key() {
    // The "scenario files on disk" contract: a spec file written from a
    // built-in scenario is the *same* scenario — same canonical string,
    // same hash, so the same cache entries keep serving it. Since the
    // workload redesign this holds for both families.
    let profile = EffortProfile::quick();
    for name in scenarios::NAMES {
        let builtin = scenarios::by_name(name, &profile).unwrap();
        let reloaded = parse_spec_toml(&to_spec_toml(&builtin)).expect(name);
        assert_eq!(reloaded.canonical(), builtin.canonical(), "{name}");
        assert_eq!(reloaded.scenario_hash(), builtin.scenario_hash(), "{name}");
    }
    for name in scenarios::all_names() {
        let builtin = scenarios::any_by_name(name, &profile).unwrap();
        let reloaded = parse_any_spec_toml(&builtin.to_spec_toml()).expect(name);
        assert_eq!(reloaded.canonical(), builtin.canonical(), "{name}");
        assert_eq!(reloaded.scenario_hash(), builtin.scenario_hash(), "{name}");
        assert_eq!(reloaded.kind(), builtin.kind(), "{name}");
    }
}
