//! Worker-side heartbeat files and the dispatcher-side reader.
//!
//! Liveness has to survive the transports' lowest common denominator —
//! an exec wrapper with no back-channel — so it rides on the filesystem
//! the plan directory already shares: the worker rewrites a tiny
//! `shard-NNNN.hb` file with a monotonically increasing sequence number
//! every interval, and the dispatcher polls it. A worker whose sequence
//! has not advanced within the heartbeat timeout is declared dead —
//! whether it crashed, hung, or its host fell off the network, the
//! evidence is the same: silence.
//!
//! Writes are best-effort and out-of-band (a full disk must not fail a
//! worker whose actual job is the partial report); reads tolerate torn
//! or missing files by reporting "no beat yet".

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Default worker beat period in milliseconds.
pub const DEFAULT_INTERVAL_MS: u64 = 250;

/// RAII heartbeat thread: writes sequence `0` immediately (so even a
/// near-instant worker registers as alive once), then bumps the file
/// every `interval` until dropped.
pub struct HeartbeatWriter {
    stop: mpsc::Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatWriter {
    /// Start beating `path` every `interval` (at least 1 ms).
    pub fn start(path: PathBuf, interval: Duration) -> HeartbeatWriter {
        let interval = interval.max(Duration::from_millis(1));
        let (stop, stopped) = mpsc::channel();
        // Beat 0 lands before the worker's real work starts, from this
        // thread, so callers never observe a spawned-but-beatless gap
        // longer than the spawn itself.
        write_beat(&path, 0);
        let thread = std::thread::spawn(move || {
            let mut seq = 0u64;
            // Wait on the stop channel rather than sleeping, so drop()
            // wakes the thread at once instead of after its interval.
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                seq += 1;
                write_beat(&path, seq);
            }
        });
        HeartbeatWriter {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for HeartbeatWriter {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn write_beat(path: &Path, seq: u64) {
    let _ = std::fs::write(path, format!("{seq}\n"));
}

/// The current beat sequence of `path`, or `None` if the file is
/// missing, unreadable, or torn.
pub fn read_beat(path: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beats_advance_and_stop_on_drop() {
        let path = std::env::temp_dir().join(format!("wcs-hb-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_beat(&path), None);
        {
            let _hb = HeartbeatWriter::start(path.clone(), Duration::from_millis(5));
            assert_eq!(read_beat(&path), Some(0), "beat 0 lands synchronously");
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while read_beat(&path) == Some(0) {
                assert!(std::time::Instant::now() < deadline, "no beat after 5s");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let after_drop = read_beat(&path).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            read_beat(&path),
            Some(after_drop),
            "beats must stop on drop"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drop_returns_without_waiting_out_the_interval() {
        // A worker's exit joins its writer; with a long interval the
        // join must still be immediate, not a sleep step later.
        let path = std::env::temp_dir().join(format!("wcs-hb-drop-{}", std::process::id()));
        let mut drops: Vec<Duration> = (0..7)
            .map(|_| {
                let hb = HeartbeatWriter::start(path.clone(), Duration::from_secs(60));
                std::thread::sleep(Duration::from_millis(3));
                let t = std::time::Instant::now();
                drop(hb);
                t.elapsed()
            })
            .collect();
        drops.sort();
        assert!(
            drops[drops.len() / 2] < Duration::from_millis(5),
            "median drop took {:?} (all: {drops:?})",
            drops[drops.len() / 2]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_or_junk_files_read_as_no_beat() {
        let path = std::env::temp_dir().join(format!("wcs-hb-junk-{}", std::process::id()));
        std::fs::write(&path, "not a number\n").unwrap();
        assert_eq!(read_beat(&path), None);
        std::fs::write(&path, "").unwrap();
        assert_eq!(read_beat(&path), None);
        std::fs::write(&path, "17\n").unwrap();
        assert_eq!(read_beat(&path), Some(17));
        let _ = std::fs::remove_file(&path);
    }
}
