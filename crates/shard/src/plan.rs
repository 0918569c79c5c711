//! Partitioning the task index space into K shards.
//!
//! A plan never deals more shards than tasks: asked for K shards of N
//! tasks it deals min(K, N), so every shard has a worker's worth of
//! work (a zero-task workload gets one empty shard). Manifests and
//! partials record the dealt K, and a set whose K is not what the plan
//! deals for its task count is refused.
//!
//! Both strategies partition `0..task_count` exactly (every index in
//! exactly one shard), so an index-order merge of all K slices
//! reconstructs the full task list. The choice only affects load balance:
//!
//! * [`ShardStrategy::Contiguous`] keeps each shard a contiguous range —
//!   the simplest slices to reason about, ideal for homogeneous grids.
//! * [`ShardStrategy::Strided`] deals indices round-robin (shard `i`
//!   takes `i, i+k, i+2k, …`). On heterogeneous grids — an N-pair
//!   topology axis lowers outermost, so contiguous slicing hands one
//!   shard *all* the O(N²) N = 16 tasks — striding spreads every
//!   topology's tasks across all shards. The balance test below measures
//!   this on the `npair-scaling` cost profile.

use crate::ShardError;
use wcs_runtime::workload::MAX_TASKS;

/// How a plan deals task indices to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Shard `i` gets a contiguous index range (near-equal lengths; the
    /// first `task_count % k` shards are one longer).
    Contiguous,
    /// Shard `i` gets indices `i, i + k, i + 2k, …` (round-robin).
    Strided,
}

impl ShardStrategy {
    /// Stable textual form used in manifests and partial headers.
    pub fn label(self) -> &'static str {
        match self {
            ShardStrategy::Contiguous => "contiguous",
            ShardStrategy::Strided => "strided",
        }
    }

    /// Inverse of [`ShardStrategy::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "contiguous" => Some(ShardStrategy::Contiguous),
            "strided" => Some(ShardStrategy::Strided),
            _ => None,
        }
    }
}

/// A partition of `0..task_count` into `k` shards under a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of tasks being partitioned.
    pub task_count: usize,
    /// Number of shards: the `k` asked for, at most one per task.
    pub k: usize,
    /// How indices are dealt to shards.
    pub strategy: ShardStrategy,
}

impl ShardPlan {
    /// A plan splitting `task_count` tasks into at most `k` shards. `k`
    /// must be at least 1 and at most [`MAX_TASKS`] (no spec lowers to
    /// more tasks). The plan deals `min(k, max(task_count, 1))` shards,
    /// so every shard holds a task, except the one shard of a
    /// zero-task workload.
    pub fn new(task_count: usize, k: usize, strategy: ShardStrategy) -> Result<Self, ShardError> {
        if k == 0 || k as u64 > MAX_TASKS {
            return Err(ShardError::SpecMismatch(format!(
                "shard count k must be between 1 and {MAX_TASKS}, got {k}"
            )));
        }
        Ok(ShardPlan {
            task_count,
            k: k.min(task_count.max(1)),
            strategy,
        })
    }

    /// The plan a manifest or partial set records: refused unless
    /// [`ShardPlan::new`] deals exactly `k` shards for `task_count`
    /// tasks (only an older binary or a hand edit writes another `k`).
    pub(crate) fn recorded(
        task_count: usize,
        k: usize,
        strategy: ShardStrategy,
    ) -> Result<Self, ShardError> {
        let plan = ShardPlan::new(task_count, k, strategy)?;
        if plan.k != k {
            return Err(ShardError::SpecMismatch(format!(
                "k = {k} is not the {} shard(s) a plan deals {task_count} tasks",
                plan.k
            )));
        }
        Ok(plan)
    }

    /// The task indices of shard `shard` (ascending). Panics if
    /// `shard >= k`.
    pub fn indices(&self, shard: usize) -> Vec<usize> {
        assert!(
            shard < self.k,
            "shard {shard} out of range (k = {})",
            self.k
        );
        match self.strategy {
            ShardStrategy::Contiguous => {
                let base = self.task_count / self.k;
                let rem = self.task_count % self.k;
                let start = shard * base + shard.min(rem);
                let len = base + usize::from(shard < rem);
                (start..start + len).collect()
            }
            ShardStrategy::Strided => (shard..self.task_count).step_by(self.k).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(plan: &ShardPlan) {
        let mut all: Vec<usize> = (0..plan.k).flat_map(|s| plan.indices(s)).collect();
        all.sort();
        assert_eq!(
            all,
            (0..plan.task_count).collect::<Vec<_>>(),
            "{plan:?} is not a partition"
        );
    }

    #[test]
    fn both_strategies_partition_exactly() {
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::Strided] {
            for task_count in [0, 1, 2, 7, 12, 100] {
                for k in [1, 2, 3, 7, 13] {
                    let plan = ShardPlan::new(task_count, k, strategy).unwrap();
                    assert_partition(&plan);
                }
            }
        }
    }

    #[test]
    fn contiguous_slices_are_contiguous_and_balanced() {
        let plan = ShardPlan::new(10, 3, ShardStrategy::Contiguous).unwrap();
        assert_eq!(plan.indices(0), vec![0, 1, 2, 3]);
        assert_eq!(plan.indices(1), vec![4, 5, 6]);
        assert_eq!(plan.indices(2), vec![7, 8, 9]);
        // Lengths differ by at most one.
        let lens: Vec<usize> = (0..3).map(|s| plan.indices(s).len()).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn strided_deals_round_robin() {
        let plan = ShardPlan::new(10, 3, ShardStrategy::Strided).unwrap();
        assert_eq!(plan.indices(0), vec![0, 3, 6, 9]);
        assert_eq!(plan.indices(1), vec![1, 4, 7]);
        assert_eq!(plan.indices(2), vec![2, 5, 8]);
    }

    #[test]
    fn zero_shards_is_an_error() {
        assert!(ShardPlan::new(4, 0, ShardStrategy::Contiguous).is_err());
        // So is a k no spec's task count can fill.
        let most = MAX_TASKS as usize;
        assert!(ShardPlan::new(4, most, ShardStrategy::Contiguous).is_ok());
        assert!(ShardPlan::new(4, most + 1, ShardStrategy::Contiguous).is_err());
        assert!(ShardPlan::new(4, 1_000_000_000, ShardStrategy::Strided).is_err());
    }

    #[test]
    fn more_shards_than_tasks_deal_one_shard_per_task() {
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::Strided] {
            let plan = ShardPlan::new(2, 5, strategy).unwrap();
            assert_eq!(plan.k, 2);
            assert_eq!(plan.indices(0), vec![0]);
            assert_eq!(plan.indices(1), vec![1]);
            assert_partition(&plan);
            // Only a zero-task workload has an empty shard, and just one.
            let empty = ShardPlan::new(0, 5, strategy).unwrap();
            assert_eq!(empty.k, 1);
            assert!(empty.indices(0).is_empty());
            assert_partition(&empty);
        }
        // A recorded k is refused unless `new` deals it.
        assert!(ShardPlan::recorded(2, 2, ShardStrategy::Strided).is_ok());
        assert!(ShardPlan::recorded(0, 1, ShardStrategy::Strided).is_ok());
        for (tasks, k) in [(2, 5), (0, 2), (2, 0)] {
            assert!(matches!(
                ShardPlan::recorded(tasks, k, ShardStrategy::Contiguous),
                Err(ShardError::SpecMismatch(_))
            ));
        }
    }

    #[test]
    fn strided_balances_npair_scaling_cost_better_than_contiguous() {
        // The balance benchmark the module docs promise: the
        // `npair-scaling` scenario lowers (topology outermost) to 3 tasks
        // each of N ∈ {2, 4, 8, 16}, and N-pair task cost scales like N².
        // Contiguous slicing at k = 4 gives the last shard all the
        // N = 16 work; striding deals every N to every shard.
        let costs: Vec<u64> = [2u64, 4, 8, 16]
            .iter()
            .flat_map(|&n| vec![n * n; 3])
            .collect();
        let imbalance = |strategy| {
            let plan = ShardPlan::new(costs.len(), 4, strategy).unwrap();
            let loads: Vec<u64> = (0..plan.k)
                .map(|s| plan.indices(s).iter().map(|&i| costs[i]).sum())
                .collect();
            let mean = costs.iter().sum::<u64>() as f64 / plan.k as f64;
            *loads.iter().max().unwrap() as f64 / mean
        };
        let contiguous = imbalance(ShardStrategy::Contiguous);
        let strided = imbalance(ShardStrategy::Strided);
        assert!(
            strided < contiguous,
            "strided ({strided:.2}×) should beat contiguous ({contiguous:.2}×)"
        );
        // Concretely: contiguous is ~3× the mean load, strided ~1.1×.
        assert!(contiguous > 2.5);
        assert!(strided < 1.5);
    }
}
