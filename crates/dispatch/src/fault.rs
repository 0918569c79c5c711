//! Deterministic fault injection: a [`Transport`] decorator that kills
//! workers, fails spawns, or mutes heartbeats on chosen
//! `(shard, attempt)` pairs.
//!
//! Distributed-failure tests that rely on timing are flaky tests; this
//! wrapper makes the failures part of the *plan*. A fault keyed to
//! `(shard 1, attempt 1)` fires on exactly that attempt and never
//! again, so "worker dies, shard requeues, merge still byte-identical"
//! is a deterministic assertion rather than a race. The CLI exposes the
//! same plans via `--fault` specs (see [`parse_spec`]), which is how
//! the CI `dispatch-smoke` job kills a worker mid-run on every push.

use crate::heartbeat::read_beat;
use crate::hosts::Host;
use crate::transport::{SpawnRequest, Transport, WorkerHandle, WorkerStatus};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One injected failure mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Let the worker start, then kill it once its heartbeat file
    /// reaches `beats` — and report the attempt failed even if the
    /// worker managed to finish first, so the dead/requeue path is
    /// exercised deterministically regardless of scheduling.
    KillAfterBeats {
        /// Heartbeat sequence number that triggers the kill.
        beats: u64,
    },
    /// Fail the spawn itself with an injected I/O error, on this attempt
    /// and the `times - 1` attempts after it.
    FailSpawn {
        /// How many consecutive attempts fail to spawn.
        times: usize,
    },
    /// Launch the worker with its heartbeat disabled, so the dispatcher
    /// sees eternal silence and declares it dead on the timeout.
    MuteHeartbeat,
}

/// A [`Transport`] decorator that applies a `(shard, attempt)`-keyed
/// fault plan and passes everything else through.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: BTreeMap<(usize, usize), Fault>,
}

impl FaultyTransport {
    /// Wrap `inner` with an empty fault plan.
    pub fn new(inner: Box<dyn Transport>) -> FaultyTransport {
        FaultyTransport {
            inner,
            plan: BTreeMap::new(),
        }
    }

    /// The fault that fires on `shard`'s `attempt`: the latest one keyed
    /// at or before it, if it still reaches that far (a spawn failure
    /// spans `times` attempts, every other fault one).
    fn fault(&self, shard: usize, attempt: usize) -> Option<&Fault> {
        let (&(_, at), fault) = self.plan.range((shard, 0)..=(shard, attempt)).next_back()?;
        let reach = match fault {
            Fault::FailSpawn { times } => *times,
            _ => 1,
        };
        (attempt - at < reach).then_some(fault)
    }

    /// Inject `fault` on `shard`'s `attempt` (1-based).
    pub fn with_fault(mut self, shard: usize, attempt: usize, fault: Fault) -> FaultyTransport {
        self.plan.insert((shard, attempt), fault);
        self
    }

    /// Add the fault a `--fault` spec string describes.
    pub fn add_spec(&mut self, spec: &str) -> Result<(), String> {
        let (key, fault) = parse_spec(spec)?;
        self.plan.insert(key, fault);
        Ok(())
    }
}

/// Parse one CLI fault spec into its `(shard, attempt) → fault` entry:
///
/// * `kill:SHARD@BEATS` — kill SHARD's first attempt at heartbeat BEATS
/// * `spawn-fail:SHARD` — fail SHARD's first spawn
///   (`spawn-fail:SHARDxN` fails its first N spawn attempts)
/// * `mute:SHARD` — mute SHARD's first attempt's heartbeat
pub fn parse_spec(spec: &str) -> Result<((usize, usize), Fault), String> {
    let bad = || {
        format!("bad fault spec '{spec}' (kill:SHARD@BEATS | spawn-fail:SHARD[xN] | mute:SHARD)")
    };
    let (verb, rest) = spec.split_once(':').ok_or_else(bad)?;
    match verb {
        "kill" => {
            let (shard, beats) = rest.split_once('@').ok_or_else(bad)?;
            let shard: usize = shard.parse().map_err(|_| bad())?;
            let beats: u64 = beats.parse().map_err(|_| bad())?;
            Ok(((shard, 1), Fault::KillAfterBeats { beats }))
        }
        "spawn-fail" => {
            let (shard, times) = match rest.split_once('x') {
                Some((s, n)) => (s, n.parse().map_err(|_| bad())?),
                None => (rest, 1usize),
            };
            let shard: usize = shard.parse().map_err(|_| bad())?;
            if times == 0 {
                return Err(bad());
            }
            Ok(((shard, 1), Fault::FailSpawn { times }))
        }
        "mute" => {
            let shard: usize = rest.parse().map_err(|_| bad())?;
            Ok(((shard, 1), Fault::MuteHeartbeat))
        }
        _ => Err(bad()),
    }
}

impl Transport for FaultyTransport {
    fn label(&self) -> &'static str {
        "faulty"
    }

    fn spawn(&self, host: &Host, req: &SpawnRequest) -> io::Result<Box<dyn WorkerHandle>> {
        match self.fault(req.shard, req.attempt) {
            None => self.inner.spawn(host, req),
            Some(Fault::FailSpawn { .. }) => Err(io::Error::other(format!(
                "injected spawn failure (shard {}, attempt {})",
                req.shard, req.attempt
            ))),
            Some(Fault::MuteHeartbeat) => {
                let mut muted = req.clone();
                muted.invocation.heartbeat = None;
                self.inner.spawn(host, &muted)
            }
            Some(Fault::KillAfterBeats { beats }) => {
                let inner = self.inner.spawn(host, req)?;
                Ok(Box::new(KillingHandle {
                    inner,
                    hb_path: req.invocation.heartbeat.clone(),
                    partial: partial_sibling(&req.invocation.manifest, req.shard),
                    beats: *beats,
                    fired: false,
                }))
            }
        }
    }

    fn fetch(&self, host: &Host, path: &Path) -> io::Result<()> {
        self.inner.fetch(host, path)
    }
}

/// The partial path next to `manifest` for `shard`.
fn partial_sibling(manifest: &Path, shard: usize) -> PathBuf {
    let dir = manifest.parent().unwrap_or_else(|| Path::new("."));
    wcs_shard::partial_path(dir, shard)
}

/// Handle wrapper behind [`Fault::KillAfterBeats`]: watches the
/// heartbeat file and pulls the trigger at the configured beat. When
/// the worker is gone — killed or finished — it deletes the partial and
/// reports failure, so the dispatcher's dead/requeue path fires no
/// matter who won the race.
struct KillingHandle {
    inner: Box<dyn WorkerHandle>,
    hb_path: Option<PathBuf>,
    partial: PathBuf,
    beats: u64,
    fired: bool,
}

impl WorkerHandle for KillingHandle {
    fn poll(&mut self) -> WorkerStatus {
        if !self.fired {
            let seq = self.hb_path.as_deref().and_then(read_beat);
            if seq.is_some_and(|s| s >= self.beats) {
                self.inner.kill();
                self.fired = true;
            }
        }
        match self.inner.poll() {
            WorkerStatus::Running => WorkerStatus::Running,
            WorkerStatus::Exited { .. } => {
                let _ = std::fs::remove_file(&self.partial);
                WorkerStatus::Exited {
                    success: false,
                    detail: if self.fired {
                        format!("killed by fault injection at beat {}", self.beats)
                    } else {
                        "failed by fault injection (finished before the kill beat)".to_string()
                    },
                }
            }
        }
    }

    fn kill(&mut self) {
        self.inner.kill();
        self.fired = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_specs() {
        assert_eq!(
            parse_spec("kill:1@2").unwrap(),
            ((1, 1), Fault::KillAfterBeats { beats: 2 })
        );
        assert_eq!(
            parse_spec("spawn-fail:0").unwrap(),
            ((0, 1), Fault::FailSpawn { times: 1 })
        );
        assert_eq!(
            parse_spec("spawn-fail:2x3").unwrap(),
            ((2, 1), Fault::FailSpawn { times: 3 })
        );
        // A huge count is one entry, not one per attempt.
        assert_eq!(
            parse_spec("spawn-fail:0x1000000000000000").unwrap(),
            (
                (0, 1),
                Fault::FailSpawn {
                    times: 1_000_000_000_000_000
                }
            )
        );
        assert_eq!(
            parse_spec("mute:4").unwrap(),
            ((4, 1), Fault::MuteHeartbeat)
        );
    }

    #[test]
    fn a_spawn_failure_spans_its_count_of_attempts() {
        let mut t = FaultyTransport::new(Box::new(crate::LocalExec::new("/nonexistent")));
        t.add_spec("spawn-fail:2x3").unwrap();
        t.add_spec("kill:0@1").unwrap();
        let fires = |shard, attempt| t.fault(shard, attempt).cloned();
        assert_eq!(fires(2, 1), Some(Fault::FailSpawn { times: 3 }));
        assert_eq!(fires(2, 3), Some(Fault::FailSpawn { times: 3 }));
        assert_eq!(fires(2, 4), None);
        assert_eq!(fires(1, 2), None);
        assert_eq!(fires(0, 1), Some(Fault::KillAfterBeats { beats: 1 }));
        assert_eq!(fires(0, 2), None, "other faults fire on one attempt");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "kill",
            "kill:1",
            "kill:x@2",
            "spawn-fail:1x0",
            "boom:1",
            "mute:x",
        ] {
            assert!(parse_spec(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
