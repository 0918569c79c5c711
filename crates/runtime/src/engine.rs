//! The work-stealing task executor.
//!
//! Scheduling is a shared atomic cursor over the task list — idle workers
//! steal the next unclaimed index — and results are committed into their
//! task's slot, so the output vector is in task order regardless of which
//! worker computed what. Combined with per-task RNG streams (tasks never
//! share generator state), this makes every run bitwise identical for any
//! thread count, which `tests/determinism.rs` asserts end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// A fixed-size pool executing independent tasks by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::auto()
    }
}

impl Engine {
    /// Pool with an explicit worker count (`0` means auto-detect).
    pub fn new(threads: usize) -> Self {
        if threads == 0 {
            Engine::auto()
        } else {
            Engine { threads }
        }
    }

    /// Single-threaded engine: runs tasks inline, in order.
    pub fn serial() -> Self {
        Engine { threads: 1 }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        let threads = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Engine { threads }
    }

    /// Auto-sized pool unless the `WCS_THREADS` environment variable
    /// overrides it (`WCS_THREADS=1` forces serial execution everywhere —
    /// handy for bisecting any suspected nondeterminism).
    pub fn from_env() -> Self {
        match std::env::var("WCS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) => Engine::new(n),
            None => Engine::auto(),
        }
    }

    /// The worker count this engine schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `kernel` over a slice of task descriptions, preserving
    /// order.
    ///
    /// The kernel must be a pure function of its item (all randomness
    /// derived from per-item seeds); under that contract the result is
    /// identical for every thread count.
    pub fn map<I, T, K>(&self, items: &[I], kernel: K) -> Vec<T>
    where
        I: Sync,
        T: Send,
        K: Fn(&I) -> T + Sync,
    {
        // Item-at-a-time scheduling is exactly block scheduling with
        // block = 1; one implementation carries both.
        self.run_blocked(items.len(), 1, |range| {
            items[range].iter().map(&kernel).collect()
        })
    }

    /// Execute `kernel` over **contiguous index blocks** and return the
    /// per-index results in index order — what [`Engine::map`] and
    /// [`Engine::map_blocks`] dispatch through.
    ///
    /// Workers claim `block` indices per atomic bump and send one
    /// message per block instead of one per index, so a grid of many
    /// small tasks pays scheduling overhead once per block. The kernel
    /// receives the claimed index range and must return exactly one
    /// result per index, in range order. Results are committed into
    /// their index slots, so the output is identical for any thread
    /// count *and any block size*.
    fn run_blocked<T, K>(&self, n: usize, block: usize, kernel: K) -> Vec<T>
    where
        T: Send,
        K: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
    {
        let block = block.max(1);
        let check_arity = |got: usize, range: &std::ops::Range<usize>| {
            assert_eq!(
                got,
                range.len(),
                "block kernel returned {got} results for {} indices",
                range.len()
            );
        };
        // Telemetry is strictly out-of-band: when disabled (`telemetry`
        // false) no clock is read and no event is built; when enabled it
        // only observes — the cursor, the kernel, and the result commit
        // order are untouched either way.
        let telemetry = wcs_telemetry::enabled();
        let mut run_span = wcs_telemetry::span("engine.run")
            .with("n", n)
            .with("block", block)
            .with("threads", self.threads)
            .start();
        wcs_telemetry::metrics::gauge_set(
            wcs_telemetry::metrics::GaugeId::EngineThreads,
            self.threads as i64,
        );
        // Records one `engine.block` event (per-block task timing plus
        // the queue depth left behind), feeds the block-dispatch latency
        // histogram, and accumulates the worker's busy-time tally.
        let record_block = |worker: usize, range: &std::ops::Range<usize>, dur_ns: u64| {
            wcs_telemetry::metrics::record_ns(wcs_telemetry::metrics::HistId::EngineBlock, dur_ns);
            wcs_telemetry::value(
                "engine.block",
                vec![
                    (
                        "worker".to_string(),
                        wcs_telemetry::Value::U64(worker as u64),
                    ),
                    (
                        "start".to_string(),
                        wcs_telemetry::Value::U64(range.start as u64),
                    ),
                    (
                        "len".to_string(),
                        wcs_telemetry::Value::U64(range.len() as u64),
                    ),
                    ("dur_ns".to_string(), wcs_telemetry::Value::U64(dur_ns)),
                    (
                        "remaining".to_string(),
                        wcs_telemetry::Value::U64(n.saturating_sub(range.end) as u64),
                    ),
                ],
            );
        };
        // One `engine.worker` event per worker: its share of the blocks
        // and its busy nanoseconds, i.e. per-thread utilization.
        let record_worker = |worker: usize, blocks: u64, busy_ns: u64| {
            wcs_telemetry::value(
                "engine.worker",
                vec![
                    (
                        "worker".to_string(),
                        wcs_telemetry::Value::U64(worker as u64),
                    ),
                    ("blocks".to_string(), wcs_telemetry::Value::U64(blocks)),
                    ("busy_ns".to_string(), wcs_telemetry::Value::U64(busy_ns)),
                ],
            );
        };
        if self.threads <= 1 || n <= 1 {
            let mut out = Vec::with_capacity(n);
            let mut start = 0;
            let (mut busy_ns, mut blocks) = (0u64, 0u64);
            while start < n {
                let range = start..(start + block).min(n);
                start = range.end;
                let t0 = telemetry.then(Instant::now);
                let results = kernel(range.clone());
                if let Some(t0) = t0 {
                    let dur = t0.elapsed().as_nanos() as u64;
                    busy_ns += dur;
                    blocks += 1;
                    record_block(0, &range, dur);
                }
                check_arity(results.len(), &range);
                out.extend(results);
            }
            if telemetry && blocks > 0 {
                record_worker(0, blocks, busy_ns);
            }
            run_span.add("tasks_run", n);
            return out;
        }
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Vec<T>)>();
        thread::scope(|scope| {
            for worker in 0..self.threads.min(n) {
                let tx = tx.clone();
                let cursor = &cursor;
                let kernel = &kernel;
                let record_block = &record_block;
                let record_worker = &record_worker;
                scope.spawn(move || {
                    let (mut busy_ns, mut blocks) = (0u64, 0u64);
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let range = start..(start + block).min(n);
                        let t0 = telemetry.then(Instant::now);
                        let results = kernel(range.clone());
                        if let Some(t0) = t0 {
                            let dur = t0.elapsed().as_nanos() as u64;
                            busy_ns += dur;
                            blocks += 1;
                            record_block(worker, &range, dur);
                        }
                        check_arity(results.len(), &range);
                        if tx.send((start, results)).is_err() {
                            break;
                        }
                    }
                    if telemetry && blocks > 0 {
                        record_worker(worker, blocks, busy_ns);
                    }
                });
            }
            drop(tx);
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            for (start, results) in rx {
                for (offset, result) in results.into_iter().enumerate() {
                    slots[start + offset] = Some(result);
                }
            }
            run_span.add("tasks_run", n);
            slots
                .into_iter()
                .map(|s| s.expect("engine worker died before completing its block"))
                .collect()
        })
    }

    /// Execute `kernel` over contiguous sub-slices of `items` (the
    /// row-block seam workloads dispatch through), preserving per-item
    /// order. The kernel must return one result per item of its slab.
    pub fn map_blocks<I, T, K>(&self, items: &[I], block: usize, kernel: K) -> Vec<T>
    where
        I: Sync,
        T: Send,
        K: Fn(&[I]) -> Vec<T> + Sync,
    {
        self.run_blocked(items.len(), block, |range| kernel(&items[range]))
    }

    /// The block size [`crate::workload`] hands to [`Engine::map_blocks`]
    /// for an `n`-task grid: enough blocks to keep every worker busy
    /// (~8 claims each) while amortising dispatch for very wide grids.
    pub fn task_block_size(&self, n: usize) -> usize {
        (n / (self.threads * 8).max(1)).clamp(1, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indices(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn results_in_task_order() {
        let e = Engine::new(8);
        let out = e.map(&indices(100), |&i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| {
            // A little arithmetic so tasks finish out of order.
            let mut x = i as u64 + 1;
            for _ in 0..(i % 7) * 1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x
        };
        let serial = Engine::serial().map(&indices(64), |&i| work(i));
        let parallel = Engine::new(4).map(&indices(64), |&i| work(i));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let out = Engine::new(3).map(&items, |x| x * 2.0);
        assert_eq!(out, items.iter().map(|x| x * 2.0).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_matches_indexed_for_any_block_and_thread_count() {
        let work = |i: usize| (i * 31 + 7) as u64;
        let expected = Engine::serial().map(&indices(97), |&i| work(i));
        for threads in [1, 3, 8] {
            for block in [1, 2, 5, 16, 97, 200] {
                let out = Engine::new(threads)
                    .run_blocked(97, block, |range| range.map(work).collect::<Vec<_>>());
                assert_eq!(out, expected, "threads={threads} block={block}");
            }
        }
    }

    #[test]
    fn map_blocks_preserves_order() {
        let items: Vec<f64> = (0..53).map(|i| i as f64).collect();
        let expected: Vec<f64> = items.iter().map(|x| x * 3.0).collect();
        let out =
            Engine::new(4).map_blocks(&items, 7, |slab| slab.iter().map(|x| x * 3.0).collect());
        assert_eq!(out, expected);
    }

    #[test]
    #[should_panic(expected = "block kernel returned")]
    fn blocked_checks_kernel_arity() {
        let _ = Engine::serial().run_blocked(4, 2, |_range| vec![0u8]);
    }

    #[test]
    fn task_block_size_is_sane() {
        let e = Engine::new(4);
        assert_eq!(e.task_block_size(0), 1);
        assert_eq!(e.task_block_size(10), 1);
        assert_eq!(e.task_block_size(320), 10);
        assert_eq!(e.task_block_size(1_000_000), 64);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(Engine::new(0).threads() >= 1);
    }

    #[test]
    fn empty_task_list() {
        let out: Vec<u32> = Engine::new(4).map(&indices(0), |_| unreachable!());
        assert!(out.is_empty());
    }
}
