// ---------------------------------------------------------------------
// Advisory commit lock: serializes save/append/compact across
// processes.
// ---------------------------------------------------------------------
//
// Protocol: a writer owns the directory's commit right while a `LOCK`
// file it created (O_EXCL) exists with its token inside. Contenders
// classify a present lock:
//
//   * body parses, owner pid alive        → live: wait with backoff
//   * body parses, owner pid dead         → stale: take over now
//   * body unparseable, fresh mtime       → live (a mid-write lock body
//                                           is indistinguishable from
//                                           garbage; give it time)
//   * body unparseable, past LOCK_TTL     → stale: take over
//
// Takeover renames the stale lock to a dot-temp (one contender wins
// the rename; the rest see NotFound and re-race the create), deletes
// the tomb, and retries the O_EXCL create immediately. A parseable
// lock with a live owner is *never* taken over on age alone: a commit
// can legitimately outlive any ttl.
//
// Release deletes the file only while its token still matches — a
// release after a takeover must not steal the usurper's lock. On an
// injected crash the lock is deliberately *leaked as crashed*: body
// rewritten to pid 0 and mtime zeroed, so the next writer (or
// `Store::recover`) classifies it stale immediately — exactly how a
// real dead writer's lock looks, without the test process having to
// die.

use super::layout::{fresh_token, pid_alive, LOCK_NAME};
use super::{StoreError, StoreOptions};
use crate::backoff::Backoff;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// Age past which an *unparseable* lock file counts as abandoned (a
/// parseable lock with a live owner is never taken over).
const LOCK_TTL: Duration = Duration::from_secs(10);

/// Exclusive commit right on a store directory; released on drop.
pub(crate) struct CommitLock {
    dir: PathBuf,
    token: u64,
    armed: bool,
}

pub(crate) fn lock_body(pid: u32, token: u64) -> String {
    format!("pid {pid}\ntoken {token:016x}\n")
}

/// `pid <n>\ntoken <hex>` → (pid, token). Order-insensitive, extra
/// lines ignored (forward compatibility); `None` on anything else.
pub(crate) fn parse_lock_body(text: &str) -> Option<(u32, u64)> {
    let mut pid = None;
    let mut token = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("pid ") {
            pid = v.trim().parse().ok();
        } else if let Some(v) = line.strip_prefix("token ") {
            token = u64::from_str_radix(v.trim(), 16).ok();
        }
    }
    Some((pid?, token?))
}

/// How a present lock file reads to a contender.
pub(crate) enum LockState {
    /// Held by a live owner (description of the owner).
    Live(String),
    /// Orphaned: safe to take over / reap (description of why).
    Stale(String),
    /// Vanished between listing and reading.
    Gone,
}

/// Classify the `LOCK` file in `dir` (which may vanish concurrently).
pub(crate) fn classify_lock(dir: &Path) -> LockState {
    let path = dir.join(LOCK_NAME);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LockState::Gone,
        // Unreadable-but-present reads as live: never steal what we
        // cannot classify.
        Err(e) => return LockState::Live(format!("unreadable ({e})")),
    };
    match std::str::from_utf8(&bytes).ok().and_then(parse_lock_body) {
        Some((pid, _)) if pid_alive(pid) => {
            LockState::Live(format!("held by live pid {pid}"))
        }
        Some((pid, _)) => LockState::Stale(format!("owner pid {pid} is dead")),
        None => {
            let age = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok());
            match age {
                Some(age) if age > LOCK_TTL => LockState::Stale(format!(
                    "unparseable body, {}s past its {}s liveness window",
                    age.as_secs(),
                    LOCK_TTL.as_secs()
                )),
                // Fresh garbage could be a lock body mid-write.
                _ => LockState::Live("unparseable but fresh body".to_string()),
            }
        }
    }
}

impl CommitLock {
    /// Acquire the commit lock, waiting up to
    /// [`StoreOptions::lock_timeout`] with jittered exponential backoff
    /// and taking over stale locks. Times out with
    /// [`StoreError::Busy`].
    pub(crate) fn acquire(dir: &Path, opts: &StoreOptions) -> Result<CommitLock, StoreError> {
        let token = fresh_token();
        let path = dir.join(LOCK_NAME);
        let start = Instant::now();
        // Our token seeds the jitter, so contenders decorrelate.
        let mut backoff =
            Backoff::new(Duration::from_micros(500), Duration::from_millis(50), token);
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    // Body and sync are best-effort: the O_EXCL create
                    // is the mutual exclusion; the body only informs
                    // staleness classification by others.
                    let _ = f.write_all(lock_body(std::process::id(), token).as_bytes());
                    let _ = f.sync_all();
                    return Ok(CommitLock {
                        dir: dir.to_path_buf(),
                        token,
                        armed: true,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(StoreError::Io(e)),
            }
            match classify_lock(dir) {
                LockState::Stale(_) => {
                    // One contender wins the rename and clears the way;
                    // everyone re-races the create immediately.
                    let tomb = dir.join(format!(".{LOCK_NAME}-takeover-{token:016x}.tmp"));
                    if std::fs::rename(&path, &tomb).is_ok() {
                        let _ = std::fs::remove_file(&tomb);
                    }
                    continue;
                }
                LockState::Gone => continue,
                LockState::Live(_) => {}
            }
            let waited = start.elapsed();
            if waited >= opts.lock_timeout {
                return Err(StoreError::Busy { waited });
            }
            std::thread::sleep(backoff.next_delay());
        }
    }

    /// Finish a locked critical section: on an injected crash the lock
    /// is leaked in dead-writer form (the crash *is* the scenario under
    /// test); every other outcome releases it. Returns `result`
    /// unchanged.
    pub(crate) fn seal<T>(mut self, result: Result<T, StoreError>) -> Result<T, StoreError> {
        if matches!(result, Err(StoreError::InjectedCrash { .. })) {
            self.leak_as_crashed();
        }
        result
    }

    /// Make the lock look exactly like one left by a writer that died:
    /// owner pid 0 (never alive) and an epoch-old heartbeat.
    fn leak_as_crashed(&mut self) {
        self.armed = false;
        let path = self.dir.join(LOCK_NAME);
        let _ = std::fs::write(&path, lock_body(0, self.token));
        if let Ok(f) = std::fs::OpenOptions::new().append(true).open(&path) {
            let _ = f.set_modified(SystemTime::UNIX_EPOCH);
        }
    }

    fn release(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let path = self.dir.join(LOCK_NAME);
        // Delete only while the lock is still ours: after a (buggy or
        // clock-skewed) takeover the file belongs to someone else.
        let ours = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| parse_lock_body(&t))
            .is_some_and(|(_, tok)| tok == self.token);
        if ours {
            let _ = std::fs::remove_file(&path);
        }
    }
}

impl Drop for CommitLock {
    fn drop(&mut self) {
        self.release();
    }
}
