//! The benchmark's metric catalog: every end-to-end and per-layer
//! metric with its unit, and for each per-layer metric the end-to-end
//! metric it should move and the workloads it should move it on (the
//! prediction table). `BENCHMARK.json` mirrors this table; the
//! benchmark's tests keep the two in step.

/// The four workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fig4-sweep",
        "figure4-family, v1 layout, full effort on a 2-thread engine: cold pass then warm passes from the result index",
    ),
    (
        "sim-grid",
        "sim-threshold-grid at quick effort, 2-thread engine, no cache: the slowest workload, 9 tasks on 2 threads",
    ),
    (
        "npair-dispatch",
        "npair-scaling under stream layout v2 through the multi-host dispatcher, 2 local worker processes",
    ),
    (
        "serve-mixed",
        "repro serve daemons, each sent 300 jobs by a closed loop of 2 clients, half fresh and half repeated specs",
    ),
];

/// One seed per workload kept out of tuning, for later claims to be
/// checked on.
pub const HELD_OUT_SEEDS: [(&str, u64); 4] = [
    ("fig4-sweep", 7_919),
    ("sim-grid", 104_729),
    ("npair-dispatch", 1_299_709),
    ("serve-mixed", 15_485_863),
];

/// An end-to-end metric: what a user of the system waits on.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every end-to-end metric.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        what: "median set-up: spec, plan or daemon ready before the timed operations",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        what: "interquartile mean of the cold operations, spec to verified CSV bytes (serve-mixed: fresh jobs, sent to last SSE row)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.2,
        what: "peak resident memory (VmHWM) of the benchmark process; on serve-mixed, the median over rounds of the daemon's",
    },
];

/// A per-layer metric and its prediction: which end-to-end metric it
/// should move, on which workloads. On every other workload the
/// prediction is no change.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// (end-to-end metric, workload) pairs this layer should move.
    pub moves: &'static [(&'static str, &'static str)],
    pub what: &'static str,
}

const FIG4_WALL: &[(&str, &str)] = &[("wall_s", "fig4-sweep")];
const SIM_WALL: &[(&str, &str)] = &[("wall_s", "sim-grid")];
const SIM_SETUP: &[(&str, &str)] = &[("setup_s", "sim-grid")];
const NPAIR_WALL: &[(&str, &str)] = &[("wall_s", "npair-dispatch")];
/// Store, finalize and render: every fresh serve job pays them, and a
/// fig4 cold pass once (under 1 % of it).
const RESULT_PATH: &[(&str, &str)] = &[("wall_s", "serve-mixed"), ("wall_s", "fig4-sweep")];
const SERVE_ALL: &[(&str, &str)] = &[("wall_s", "serve-mixed")];
const SERVE_RSS: &[(&str, &str)] = &[("peak_rss_mb", "serve-mixed")];
const EVERY_WALL: &[(&str, &str)] = &[
    ("wall_s", "fig4-sweep"),
    ("wall_s", "sim-grid"),
    ("wall_s", "npair-dispatch"),
    ("wall_s", "serve-mixed"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
    what: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        what,
    }
}

/// Per-layer metrics of the traced run. Layers are the crates. A layer
/// a workload never calls reports 0 on that workload.
pub const PER_LAYER: [Layer; 49] = [
    layer(
        "propagation.draw_ns",
        "ns",
        "lower",
        FIG4_WALL,
        "ShadowDraws::sample plus two PairSample::sample_uniform, per sample",
    ),
    layer(
        "capacity.score_ns",
        "ns",
        "lower",
        FIG4_WALL,
        "TwoPairKernel::evaluate, per sample",
    ),
    layer(
        "capacity.npair_v2_n8_ns",
        "ns",
        "lower",
        NPAIR_WALL,
        "NPairKernelV2::sample_and_score at N = 8, per sample",
    ),
    layer(
        "capacity.npair_v2_n16_ns",
        "ns",
        "lower",
        NPAIR_WALL,
        "NPairKernelV2::sample_and_score at N = 16, per sample",
    ),
    layer(
        "core.task_ms_p50",
        "ms",
        "lower",
        FIG4_WALL,
        "Workload::run_task of a model task, median",
    ),
    layer(
        "core.aggregate_ns",
        "ns",
        "lower",
        FIG4_WALL,
        "derived: serial task time / samples - draw - score",
    ),
    layer(
        "runtime.lower_ms",
        "ms",
        "lower",
        SIM_WALL,
        "Workload::lower",
    ),
    layer(
        "runtime.engine.wall_ms",
        "ms",
        "lower",
        SIM_WALL,
        "Engine::map_blocks over every task",
    ),
    layer(
        "runtime.engine.busy_ms",
        "ms",
        "lower",
        SIM_WALL,
        "summed worker busy time inside map_blocks",
    ),
    layer(
        "runtime.engine.critical_path_ms",
        "ms",
        "lower",
        SIM_WALL,
        "busy time of the busiest worker",
    ),
    layer(
        "runtime.engine.imbalance",
        "ratio",
        "lower",
        SIM_WALL,
        "max / mean worker busy time",
    ),
    layer(
        "runtime.engine.blocks",
        "count",
        "lower",
        SIM_WALL,
        "task blocks the engine dispatched",
    ),
    layer(
        "runtime.assemble_ms",
        "ms",
        "lower",
        RESULT_PATH,
        "row blocks into the full RunReport",
    ),
    layer(
        "runtime.finalize_ms",
        "ms",
        "lower",
        RESULT_PATH,
        "WorkloadSpec::finalize",
    ),
    layer(
        "runtime.csv_ms",
        "ms",
        "lower",
        RESULT_PATH,
        "RunReport::to_csv",
    ),
    layer(
        "runtime.csv_bytes",
        "bytes",
        "lower",
        RESULT_PATH,
        "size of the CSV",
    ),
    layer(
        "runtime.cache_store_ms",
        "ms",
        "lower",
        RESULT_PATH,
        "ResultIndex::store_report",
    ),
    layer(
        "runtime.cache_load_ms",
        "ms",
        "lower",
        RESULT_PATH,
        "ResultIndex::load_report",
    ),
    layer(
        "runtime.cache_bytes",
        "bytes",
        "lower",
        RESULT_PATH,
        "size of the stored index entry",
    ),
    layer(
        "runtime.history_ms",
        "ms",
        "lower",
        RESULT_PATH,
        "history::append_run_manifest",
    ),
    layer(
        "sim.testbed_ms",
        "ms",
        "lower",
        SIM_SETUP,
        "Testbed::generate",
    ),
    layer(
        "sim.plan_ms",
        "ms",
        "lower",
        SIM_SETUP,
        "SimSweep::planned_for",
    ),
    layer(
        "sim.task_ms_p50",
        "ms",
        "lower",
        SIM_WALL,
        "Workload::run_task of a sim task (Testbed::generate + run_planned_with), median",
    ),
    layer(
        "sim.task_ms_max",
        "ms",
        "lower",
        SIM_WALL,
        "slowest sim task",
    ),
    layer(
        "sim.host_ns_per_frame",
        "ns",
        "lower",
        SIM_WALL,
        "one representative Simulator::run_for, host ns per data frame sent",
    ),
    layer(
        "sim.frames_sent",
        "count",
        "higher",
        SIM_WALL,
        "data frames the representative run put on the air (exact)",
    ),
    layer(
        "sim.delivery_ratio",
        "ratio",
        "higher",
        SIM_WALL,
        "delivered / sent in the representative run",
    ),
    layer(
        "shard.plan_ms",
        "ms",
        "lower",
        NPAIR_WALL,
        "ShardPlan::new and write_plan",
    ),
    layer(
        "shard.worker_ms_max",
        "ms",
        "lower",
        NPAIR_WALL,
        "slowest shard's index set through run_workload_subset, in process",
    ),
    layer(
        "shard.imbalance",
        "ratio",
        "lower",
        NPAIR_WALL,
        "max / mean shard time under contiguous dealing",
    ),
    layer("shard.merge_ms", "ms", "lower", NPAIR_WALL, "merge_dir"),
    layer(
        "dispatch.run_ms",
        "ms",
        "lower",
        NPAIR_WALL,
        "Dispatcher::run over HostPool::local(2), median",
    ),
    layer(
        "dispatch.overhead_ms",
        "ms",
        "lower",
        NPAIR_WALL,
        "derived: run - plan - slowest shard - merge",
    ),
    layer(
        "dispatch.assignments",
        "count",
        "lower",
        NPAIR_WALL,
        "DispatchStats worker launches per run",
    ),
    layer(
        "dispatch.requeues",
        "count",
        "lower",
        NPAIR_WALL,
        "DispatchStats requeues per run",
    ),
    layer(
        "dispatch.retries",
        "count",
        "lower",
        NPAIR_WALL,
        "DispatchStats spawn retries per run",
    ),
    layer(
        "dispatch.deaths",
        "count",
        "lower",
        NPAIR_WALL,
        "DispatchStats worker deaths per run",
    ),
    layer(
        "serve.post_ms_p50",
        "ms",
        "lower",
        SERVE_ALL,
        "POST /v1/jobs round trip, median",
    ),
    layer(
        "serve.first_row_ms_p50",
        "ms",
        "lower",
        SERVE_ALL,
        "GET rows sent to the first SSE row, median",
    ),
    layer(
        "serve.stream_ms_p50",
        "ms",
        "lower",
        SERVE_ALL,
        "first SSE row to end of stream, median",
    ),
    layer(
        "serve.cold_job_ms_p50",
        "ms",
        "lower",
        SERVE_ALL,
        "fresh job, sent to last row, median",
    ),
    layer(
        "serve.warm_job_ms_p50",
        "ms",
        "lower",
        SERVE_ALL,
        "repeated job, sent to last row, median",
    ),
    layer(
        "serve.dedupe_ratio",
        "ratio",
        "higher",
        SERVE_ALL,
        "POSTs answered by an existing job / POSTs",
    ),
    layer(
        "serve.rejected",
        "count",
        "lower",
        SERVE_ALL,
        "POSTs refused with 503",
    ),
    layer(
        "serve.threads_max",
        "count",
        "lower",
        SERVE_RSS,
        "daemon threads, sampled from /proc/<pid>/status",
    ),
    layer(
        "loadgen.achieved_per_s",
        "1/s",
        "higher",
        SERVE_ALL,
        "jobs completed per second the clients were sending",
    ),
    layer(
        "trace.coverage_pct",
        "%",
        "higher",
        EVERY_WALL,
        "layer times / traced pipeline wall time",
    ),
    layer(
        "trace.unattributed_ms",
        "ms",
        "lower",
        EVERY_WALL,
        "traced pipeline wall time no layer accounts for",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        EVERY_WALL,
        "traced vs untraced pipeline wall time",
    ),
];

#[cfg(test)]
/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The unit of any catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The catalog as one JSON document (`perfbench --catalog`), which the
/// benchmark's tests compare against `BENCHMARK.json`.
pub fn to_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            let held_out = HELD_OUT_SEEDS
                .iter()
                .find(|(w, _)| w == name)
                .map_or(0, |s| s.1);
            format!("{{\"name\":\"{name}\",\"why\":\"{why}\",\"held_out_seed\":{held_out}}}")
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"lower\",\"bound\":{},\"what\":\"{}\"}}",
                m.name, m.unit, m.bound, m.what
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            let moves: Vec<String> = m
                .moves
                .iter()
                .map(|(e, w)| format!("[\"{e}\",\"{w}\"]"))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"moves\":[{}],\"what\":\"{}\"}}",
                m.name,
                m.unit,
                m.better,
                moves.join(","),
                m.what
            )
        })
        .collect();
    format!(
        "{{\"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        workloads.join(","),
        e2e.join(","),
        layers.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|(w, _)| *w));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            names.len(),
            "duplicate metric or workload name"
        );
    }

    #[test]
    fn counts_and_bounds_fit_the_contract() {
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (_, why) in &WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn every_layer_maps_to_an_end_to_end_metric_and_a_workload() {
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty(), "{} predicts nothing", m.name);
            for (e2e, w) in m.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *e2e),
                    "{}: {e2e}",
                    m.name
                );
                assert!(WORKLOADS.iter().any(|(n, _)| n == w), "{}: {w}", m.name);
            }
            assert!(m.better == "lower" || m.better == "higher");
        }
    }
}
