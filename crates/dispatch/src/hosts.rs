//! The host pool and its on-disk format.
//!
//! A hosts file is one worker slot source per line:
//!
//! ```text
//! # comment lines and blanks are ignored
//! local                          # one subprocess slot on this machine
//! local slots=2                  # two concurrent subprocess slots
//! exec ssh user@hostA            # prefix argv wrapped around the worker
//! exec slots=4 exe=/opt/bin/repro ssh user@hostB
//! exec fetch="scp hostC:{path} {path}" ssh user@hostC
//! ```
//!
//! An `exec` line names a **command template**: the worker command
//! becomes `<prefix...> <exe> shard worker <manifest> ...`, which is
//! exactly how ssh takes a remote command — but any exec wrapper
//! (`nice`, `env`, a container runner) works the same way. Key=value
//! options may appear between the verb and the prefix: `slots=N`
//! (concurrent workers on that host), `exe=PATH` (the repro binary on
//! the remote side), and `fetch="CMD"` (run after a worker exits to
//! pull its artifacts back; every `{path}` token is substituted with
//! the artifact path). With no `fetch`, the plan directory is assumed
//! shared (NFS or local). The pool has at most [`MAX_TASKS`] slots: a
//! plan has no more shards than that, so more could never be filled.

use crate::DispatchError;
use std::path::{Path, PathBuf};
use wcs_runtime::workload::MAX_TASKS;

/// How workers are launched on one host.
#[derive(Debug, Clone, PartialEq)]
pub enum HostKind {
    /// Plain subprocess on this machine.
    Local,
    /// Command-template launch: `prefix... exe args...`.
    Exec {
        /// The wrapper argv (e.g. `["ssh", "user@hostA"]`). Never empty.
        prefix: Vec<String>,
        /// The repro binary path on the far side; `None` = same path as
        /// the dispatcher's.
        exe: Option<PathBuf>,
        /// Optional artifact-fetch argv template (`{path}` substituted).
        fetch: Option<Vec<String>>,
    },
}

/// One line of the hosts file: a slot source.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Display label (`local`, or the joined exec prefix).
    pub label: String,
    /// Concurrent worker slots this host contributes.
    pub slots: usize,
    /// Launch mechanism.
    pub kind: HostKind,
}

/// The parsed pool of hosts the dispatcher deals shards to.
#[derive(Debug, Clone, PartialEq)]
pub struct HostPool {
    /// Hosts in file order.
    pub hosts: Vec<Host>,
}

impl HostPool {
    /// A pool of `slots` subprocess slots on this machine — the default
    /// when no hosts file is given.
    pub fn local(slots: usize) -> HostPool {
        HostPool {
            hosts: vec![Host {
                label: "local".to_string(),
                slots: slots.max(1),
                kind: HostKind::Local,
            }],
        }
    }

    /// Parse the hosts-file format. Errors carry the 1-based line.
    pub fn parse(text: &str) -> Result<HostPool, DispatchError> {
        let mut hosts = Vec::new();
        let mut total = 0usize;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let bad = |message: String| DispatchError::Hosts { line, message };
            // A '#' starts a comment unless inside quotes.
            let tokens = tokenize(raw).map_err(&bad)?;
            if tokens.is_empty() {
                continue;
            }
            let verb = tokens[0].as_str();
            let mut slots = 1usize;
            let mut exe: Option<PathBuf> = None;
            let mut fetch: Option<Vec<String>> = None;
            let mut rest: Vec<String> = Vec::new();
            for tok in &tokens[1..] {
                if let Some(v) = tok.strip_prefix("slots=") {
                    slots = v.parse().ok().filter(|s| *s >= 1).ok_or_else(|| {
                        bad(format!("slots= needs a positive integer, got '{v}'"))
                    })?;
                } else if let Some(v) = tok.strip_prefix("exe=") {
                    exe = Some(PathBuf::from(v));
                } else if let Some(v) = tok.strip_prefix("fetch=") {
                    let argv = tokenize(v).map_err(&bad)?;
                    if argv.is_empty() {
                        return Err(bad("fetch= needs a command".to_string()));
                    }
                    fetch = Some(argv);
                } else {
                    rest.push(tok.clone());
                }
            }
            match verb {
                "local" => {
                    if !rest.is_empty() {
                        return Err(bad(format!("unexpected token '{}' after local", rest[0])));
                    }
                    if exe.is_some() || fetch.is_some() {
                        return Err(bad("exe=/fetch= only apply to exec hosts".to_string()));
                    }
                    hosts.push(Host {
                        label: "local".to_string(),
                        slots,
                        kind: HostKind::Local,
                    });
                }
                "exec" => {
                    if rest.is_empty() {
                        return Err(bad(
                            "exec needs a wrapper command (e.g. ssh HOST)".to_string()
                        ));
                    }
                    hosts.push(Host {
                        label: rest.join(" "),
                        slots,
                        kind: HostKind::Exec {
                            prefix: rest,
                            exe,
                            fetch,
                        },
                    });
                }
                other => {
                    return Err(bad(format!(
                        "unknown host kind '{other}' (expected local or exec)"
                    )));
                }
            }
            total = total.saturating_add(slots);
            if total as u64 > MAX_TASKS {
                return Err(bad(format!("more than {MAX_TASKS} slots")));
            }
        }
        Ok(HostPool { hosts })
    }

    /// Parse a hosts file from disk.
    pub fn load(path: &Path) -> Result<HostPool, DispatchError> {
        let text = std::fs::read_to_string(path).map_err(|e| DispatchError::Hosts {
            line: 0,
            message: format!("reading {}: {e}", path.display()),
        })?;
        HostPool::parse(&text)
    }

    /// Total worker slots across all hosts.
    pub fn total_slots(&self) -> usize {
        self.hosts.iter().map(|h| h.slots).sum()
    }
}

/// Whitespace tokenizer with double-quote grouping and `#` comments
/// (outside quotes). No escape sequences — paths with spaces go in
/// quotes.
fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut has_token = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                has_token = true;
            }
            '#' if !in_quotes => break,
            c if c.is_whitespace() && !in_quotes => {
                if has_token {
                    tokens.push(std::mem::take(&mut cur));
                    has_token = false;
                }
            }
            c => {
                cur.push(c);
                has_token = true;
            }
        }
    }
    if in_quotes {
        return Err("unterminated quote".to_string());
    }
    if has_token {
        tokens.push(cur);
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_format() {
        let pool = HostPool::parse(
            "# fleet\n\
             local\n\
             local slots=2\n\
             exec ssh user@hostA\n\
             exec slots=4 exe=/opt/bin/repro ssh user@hostB  # comment\n\
             exec fetch=\"scp hostC:{path} {path}\" ssh user@hostC\n",
        )
        .unwrap();
        assert_eq!(pool.hosts.len(), 5);
        assert_eq!(pool.total_slots(), 1 + 2 + 1 + 4 + 1);
        assert_eq!(pool.hosts[0].kind, HostKind::Local);
        assert_eq!(pool.hosts[2].label, "ssh user@hostA");
        match &pool.hosts[3].kind {
            HostKind::Exec { prefix, exe, fetch } => {
                assert_eq!(prefix, &["ssh", "user@hostB"]);
                assert_eq!(exe.as_deref(), Some(Path::new("/opt/bin/repro")));
                assert!(fetch.is_none());
            }
            other => panic!("expected exec host, got {other:?}"),
        }
        match &pool.hosts[4].kind {
            HostKind::Exec { fetch, .. } => {
                assert_eq!(
                    fetch.as_deref(),
                    Some(
                        &[
                            "scp".to_string(),
                            "hostC:{path}".to_string(),
                            "{path}".to_string()
                        ][..]
                    )
                );
            }
            other => panic!("expected exec host, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_lines_with_line_numbers() {
        for (text, want_line) in [
            ("local\nbogus host\n", 2),
            ("exec\n", 1),
            ("local slots=0\n", 1),
            ("local slots=100001\n", 1),
            ("local slots=1000000000000\n", 1),
            ("local slots=60000\nexec slots=40001 ssh h\n", 2),
            ("local extra\n", 1),
            ("exec fetch=\"\" ssh h\n", 1),
            ("exec ssh \"h\n", 1),
        ] {
            match HostPool::parse(text) {
                Err(DispatchError::Hosts { line, .. }) => assert_eq!(line, want_line, "{text:?}"),
                other => panic!("expected hosts error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn local_pool_never_has_zero_slots() {
        assert_eq!(HostPool::local(0).total_slots(), 1);
        assert_eq!(HostPool::local(3).total_slots(), 3);
    }
}
