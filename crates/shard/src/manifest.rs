//! On-disk shard manifests.
//!
//! A manifest is everything a worker process needs to run its slice of a
//! workload: the full spec (embedded via [`wcs_runtime::spec`], so it
//! round-trips bitwise) and the shard coordinates (index, shard count,
//! strategy, expected task count). Since the workload-API redesign the
//! manifest also **carries its workload kind** — both as an explicit
//! `workload =` key in the `[shard]` table and via the self-describing
//! spec body — so a sim shard can never be mistaken for a model shard.
//! The spec's canonical-string hash is embedded too and **re-verified on
//! load** — a manifest whose spec was edited after planning (or
//! corrupted in transit between hosts) is rejected instead of silently
//! computing different numbers under the original identity.
//!
//! The recorded task count is checked by whoever holds the tasks (a sim
//! workload's count plans every testbed): each worker against the task
//! list it lowers or the indexed full report it slices
//! ([`crate::partial::run_worker`]), and the merge once for the whole
//! set ([`crate::merge_dir`]). Loading bounds it by `MAX_TASKS` so an
//! unchecked claim sizes nothing a spec could not, and refuses a `k`
//! that [`ShardPlan::new`] would not deal for it.
//!
//! ```text
//! # wcs-shard manifest v1
//! [shard]
//! workload = "model"
//! k = 3
//! index = 0
//! strategy = "contiguous"
//! task_count = 12
//! spec_hash = "89abcdef01234567"
//!
//! [sweep]
//! name = "npair-scaling"
//! ...                       (the wcs_runtime::spec format)
//! ```

use crate::plan::{ShardPlan, ShardStrategy};
use crate::ShardError;
use std::path::Path;
use wcs_runtime::workload::MAX_TASKS;
use wcs_runtime::{parse_any_spec_toml, AnyWorkload, WorkloadKind, WorkloadSpec};

/// Magic first line of every manifest file.
pub const MANIFEST_MAGIC: &str = "# wcs-shard manifest v1";

/// One shard's self-contained work order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// The full workload this shard is a slice of.
    pub workload: AnyWorkload,
    /// Total number of shards in the plan.
    pub k: usize,
    /// This shard's index in `0..k`.
    pub shard: usize,
    /// How the plan deals task indices to shards.
    pub strategy: ShardStrategy,
    /// `workload.task_count()` at planning time, checked against the
    /// tasks by the worker and the merge (see the module docs).
    pub task_count: usize,
}

impl ShardManifest {
    /// Manifest for shard `shard` of `plan` over `workload`. The caller
    /// built `plan` from this workload's task count, which is not taken
    /// again here; the worker and the merge check it (see the module
    /// docs).
    pub fn new(workload: impl Into<AnyWorkload>, plan: &ShardPlan, shard: usize) -> Self {
        let workload = workload.into();
        assert!(
            shard < plan.k,
            "shard {shard} out of range (k = {})",
            plan.k
        );
        ShardManifest {
            workload,
            k: plan.k,
            shard,
            strategy: plan.strategy,
            task_count: plan.task_count,
        }
    }

    /// Which workload family this shard slices.
    pub fn kind(&self) -> WorkloadKind {
        self.workload.kind()
    }

    /// The plan this manifest is one shard of.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan {
            task_count: self.task_count,
            k: self.k,
            strategy: self.strategy,
        }
    }

    /// This shard's task indices (ascending).
    pub fn indices(&self) -> Vec<usize> {
        self.plan().indices(self.shard)
    }

    /// Serialize to the manifest file format.
    pub fn to_toml(&self) -> String {
        format!(
            "{MANIFEST_MAGIC}\n\
             [shard]\n\
             workload = \"{}\"\n\
             k = {}\n\
             index = {}\n\
             strategy = \"{}\"\n\
             task_count = {}\n\
             spec_hash = \"{:016x}\"\n\
             \n\
             [sweep]\n{}",
            self.workload.kind().label(),
            self.k,
            self.shard,
            self.strategy.label(),
            self.task_count,
            self.workload.scenario_hash(),
            self.workload.to_spec_toml(),
        )
    }

    /// Parse a manifest document, verifying the embedded spec hash,
    /// workload kind and shard coordinates (the plan's `k` included).
    /// The task count is bounded here and checked against the tasks
    /// later (see the module docs).
    /// `path` is only used for error messages.
    pub fn parse(text: &str, path: &Path) -> Result<Self, ShardError> {
        let parse_err = |message: String| ShardError::Parse {
            path: path.to_path_buf(),
            message,
        };
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(MANIFEST_MAGIC) {
            return Err(parse_err(format!(
                "not a shard manifest (missing '{MANIFEST_MAGIC}' first line)"
            )));
        }
        // Split the remainder into the [shard] table and the [sweep] body.
        let mut shard_lines: Vec<&str> = Vec::new();
        let mut sweep_lines: Vec<&str> = Vec::new();
        let mut section = "";
        for line in lines {
            let trimmed = line.trim();
            match trimmed {
                "[shard]" => section = "shard",
                "[sweep]" => section = "sweep",
                _ => match section {
                    "shard" => shard_lines.push(trimmed),
                    "sweep" => sweep_lines.push(line),
                    _ if trimmed.is_empty() || trimmed.starts_with('#') => {}
                    _ => return Err(parse_err(format!("line outside any section: '{trimmed}'"))),
                },
            }
        }

        let mut kind: Option<WorkloadKind> = None;
        let mut k: Option<usize> = None;
        let mut shard: Option<usize> = None;
        let mut strategy: Option<ShardStrategy> = None;
        let mut task_count: Option<usize> = None;
        let mut spec_hash: Option<u64> = None;
        for line in shard_lines {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| parse_err(format!("bad [shard] line '{line}'")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "workload" => {
                    let label = unquote(value).map_err(&parse_err)?;
                    kind = Some(WorkloadKind::from_label(label).ok_or_else(|| {
                        parse_err(format!(
                            "unknown workload '{label}' (known workloads: model, sim)"
                        ))
                    })?);
                }
                "k" => k = Some(parse_usize(value).map_err(&parse_err)?),
                "index" => shard = Some(parse_usize(value).map_err(&parse_err)?),
                "task_count" => task_count = Some(parse_usize(value).map_err(&parse_err)?),
                "strategy" => {
                    let label = unquote(value).map_err(&parse_err)?;
                    strategy = Some(
                        ShardStrategy::parse(label)
                            .ok_or_else(|| parse_err(format!("unknown strategy '{label}'")))?,
                    );
                }
                "spec_hash" => {
                    let hex = unquote(value).map_err(&parse_err)?;
                    spec_hash = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| parse_err(format!("bad spec_hash '{hex}'")))?,
                    );
                }
                other => return Err(parse_err(format!("unknown [shard] key '{other}'"))),
            }
        }
        let missing = |what: &str| parse_err(format!("[shard] is missing '{what}'"));
        let k = k.ok_or_else(|| missing("k"))?;
        let shard = shard.ok_or_else(|| missing("index"))?;
        let strategy = strategy.ok_or_else(|| missing("strategy"))?;
        let task_count = task_count.ok_or_else(|| missing("task_count"))?;
        let spec_hash = spec_hash.ok_or_else(|| missing("spec_hash"))?;

        let workload = parse_any_spec_toml(&sweep_lines.join("\n"))
            .map_err(|e| parse_err(format!("[sweep] section: {e}")))?;
        // A `workload =` key in [shard] (written by every post-redesign
        // plan; optional for pre-redesign model manifests) must agree
        // with the self-describing spec body.
        if let Some(kind) = kind {
            if kind != workload.kind() {
                return Err(ShardError::WorkloadMismatch {
                    expected: kind,
                    found: workload.kind(),
                });
            }
        }
        let computed = workload.scenario_hash();
        if computed != spec_hash {
            return Err(ShardError::HashMismatch {
                path: path.to_path_buf(),
                recorded: spec_hash,
                computed,
            });
        }
        if task_count as u64 > MAX_TASKS {
            return Err(parse_err(format!(
                "task_count {task_count} is over the cap of {MAX_TASKS} tasks"
            )));
        }
        ShardPlan::recorded(task_count, k, strategy).map_err(|e| parse_err(e.to_string()))?;
        if shard >= k {
            return Err(parse_err(format!(
                "shard index {shard} out of range for k = {k}"
            )));
        }
        Ok(ShardManifest {
            workload,
            k,
            shard,
            strategy,
            task_count,
        })
    }

    /// Load and verify a manifest file (as [`ShardManifest::parse`]).
    pub fn load(path: &Path) -> Result<Self, ShardError> {
        let text = std::fs::read_to_string(path)?;
        ShardManifest::parse(&text, path)
    }

    /// Refuse this manifest, read from `path`, unless its task count is
    /// `counted`, the number of tasks its workload really has.
    pub(crate) fn check_task_count(&self, counted: usize, path: &Path) -> Result<(), ShardError> {
        if self.task_count == counted {
            Ok(())
        } else {
            Err(self.count_mismatch(counted, path))
        }
    }

    /// The refusal of [`ShardManifest::check_task_count`].
    pub(crate) fn count_mismatch(&self, counted: usize, path: &Path) -> ShardError {
        ShardError::Parse {
            path: path.to_path_buf(),
            message: format!(
                "task_count {} does not match the workload's {counted} tasks",
                self.task_count
            ),
        }
    }

    /// Write this manifest to `path` (temp-file rename, like every other
    /// on-disk artifact in the pipeline).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("toml.tmp");
        std::fs::write(&tmp, self.to_toml())?;
        std::fs::rename(&tmp, path)
    }
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|_| format!("bad integer '{s}'"))
}

fn unquote(s: &str) -> Result<&str, String> {
    s.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_runtime::{SimSweep, Sweep, Topology};

    fn sweep() -> Sweep {
        Sweep::new("manifest-test")
            .ds(&[10.0, 20.0, 30.0])
            .topologies(&[Topology::TwoPair, Topology::npair_line(4)])
            .samples(500)
            .seed(42)
    }

    fn sim_sweep() -> SimSweep {
        SimSweep::new("manifest-sim")
            .cca_thresholds_db(&[7.0, 13.0])
            .points(2)
            .run_secs(1)
            .seed(5)
    }

    fn path() -> std::path::PathBuf {
        std::path::PathBuf::from("shard-0000.manifest.toml")
    }

    #[test]
    fn roundtrips_with_hash_verified() {
        let s = sweep();
        let plan = ShardPlan::new(s.task_count(), 3, ShardStrategy::Strided).unwrap();
        for shard in 0..3 {
            let m = ShardManifest::new(&s, &plan, shard);
            assert_eq!(m.kind(), WorkloadKind::Model);
            let parsed = ShardManifest::parse(&m.to_toml(), &path()).expect("parse");
            assert_eq!(parsed, m);
            assert_eq!(parsed.workload.scenario_hash(), s.scenario_hash());
            assert_eq!(parsed.indices(), plan.indices(shard));
        }
    }

    #[test]
    fn sim_manifests_roundtrip_and_carry_their_kind() {
        let s = sim_sweep();
        let plan =
            ShardPlan::new(WorkloadSpec::task_count(&s), 2, ShardStrategy::Contiguous).unwrap();
        let m = ShardManifest::new(&s, &plan, 1);
        assert_eq!(m.kind(), WorkloadKind::Sim);
        let text = m.to_toml();
        assert!(text.contains("workload = \"sim\""), "{text}");
        let parsed = ShardManifest::parse(&text, &path()).expect("parse");
        assert_eq!(parsed, m);
        assert_eq!(parsed.kind(), WorkloadKind::Sim);
        // A [shard] kind that contradicts the spec body is refused.
        let lied = text.replacen("workload = \"sim\"", "workload = \"model\"", 1);
        assert_ne!(text, lied);
        assert!(matches!(
            ShardManifest::parse(&lied, &path()),
            Err(ShardError::WorkloadMismatch { .. })
        ));
    }

    #[test]
    fn edited_spec_is_rejected_by_hash() {
        let s = sweep();
        let plan = ShardPlan::new(s.task_count(), 2, ShardStrategy::Contiguous).unwrap();
        let text = ShardManifest::new(&s, &plan, 0).to_toml();
        // Tamper with an axis value without updating the embedded hash.
        let tampered = text.replace("ds = [10.0, 20.0, 30.0]", "ds = [10.0, 20.0, 31.0]");
        assert_ne!(text, tampered, "tamper target not found");
        match ShardManifest::parse(&tampered, &path()) {
            Err(ShardError::HashMismatch { .. }) => {}
            other => panic!("expected HashMismatch, got {other:?}"),
        }
    }

    #[test]
    fn stale_task_count_is_rejected() {
        // The count is checked by whoever holds the tasks: a worker that
        // lowers them or slices the indexed full report, and the merge.
        // Each refuses a stale count with the same error, before any
        // task runs.
        use crate::partial::run_worker;
        use wcs_runtime::{run_workload, Engine, ResultCache};
        let s = sweep();
        let plan = ShardPlan::new(s.task_count(), 2, ShardStrategy::Contiguous).unwrap();
        let text = ShardManifest::new(&s, &plan, 0).to_toml();
        let tampered = text.replace("task_count = 6", "task_count = 7");
        assert_ne!(text, tampered);
        let stale = ShardManifest::parse(&tampered, &path()).unwrap();
        let refusal = |result: Result<(), ShardError>| match result {
            Err(ShardError::Parse { message, .. }) => message,
            other => panic!("expected a Parse error, got {other:?}"),
        };
        let expected = "task_count 7 does not match the workload's 6 tasks";
        let computed = run_worker(&stale, &Engine::serial(), None).map(|_| ());
        assert_eq!(refusal(computed), expected);
        let dir = std::env::temp_dir().join(format!("wcs-manifest-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(dir.join("index"));
        run_workload(&s, &Engine::serial(), Some(&cache));
        let sliced = run_worker(&stale, &Engine::serial(), Some(&cache)).map(|_| ());
        assert_eq!(refusal(sliced), expected);
        let plan_dir = dir.join("plan");
        std::fs::create_dir_all(&plan_dir).unwrap();
        std::fs::write(crate::manifest_path(&plan_dir, 0), &tampered).unwrap();
        let merged = crate::merge_dir(&plan_dir, None).map(|_| ());
        assert_eq!(refusal(merged), expected);
        // A count no spec lowers to is refused on load: it would size
        // the shard's index list before any check.
        let huge = text.replace("task_count = 6", "task_count = 1000000000000000");
        assert!(matches!(
            ShardManifest::parse(&huge, &path()),
            Err(ShardError::Parse { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_missing_fields_are_rejected() {
        assert!(ShardManifest::parse("not a manifest", &path()).is_err());
        let s = sweep();
        let plan = ShardPlan::new(s.task_count(), 2, ShardStrategy::Contiguous).unwrap();
        let text = ShardManifest::new(&s, &plan, 1).to_toml();
        let no_hash: String = text
            .lines()
            .filter(|l| !l.starts_with("spec_hash"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(ShardManifest::parse(&no_hash, &path()).is_err());
        // An unknown workload label is its own clear error.
        let alien = text.replacen("workload = \"model\"", "workload = \"quantum\"", 1);
        assert!(ShardManifest::parse(&alien, &path()).is_err());
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("wcs-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let s = sweep();
        let plan = ShardPlan::new(s.task_count(), 2, ShardStrategy::Contiguous).unwrap();
        let m = ShardManifest::new(&s, &plan, 1);
        let p = dir.join("shard-0001.manifest.toml");
        m.save(&p).unwrap();
        assert_eq!(ShardManifest::load(&p).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
