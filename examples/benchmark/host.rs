//! Process-local facts: scratch directories, peak RSS, disk usage and
//! the host description stamped on results.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use thicket::perfsim::Store;

/// Scratch space lives under the working directory (the checkout the
/// benchmark runs from), never elsewhere on the host.
const SCRATCH_ROOT: &str = ".bench_scratch";

/// A directory unique to this process, removed when dropped.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir: dir.canonicalize()?,
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only once no other run still uses the root.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Regular files directly inside `dir` whose name passes `keep`:
/// (count, total bytes).
pub fn dir_files(dir: &Path, keep: impl Fn(&str) -> bool) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| keep(&e.file_name().to_string_lossy()))
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, bytes), m| (n + 1, bytes + m.len()))
}

/// Size of the newest manifest in a store directory.
pub fn manifest_bytes(dir: &Path) -> u64 {
    let Ok(reader) = Store::open(dir) else {
        return 0;
    };
    let name = format!("MANIFEST-{:06}", reader.generation());
    dir_files(dir, |n| n == name).1
}

/// Reader leases (`pin-*` files) currently in a store directory.
pub fn lease_count(dir: &Path) -> u64 {
    dir_files(dir, |name| name.starts_with("pin-")).0
}

/// The host description written next to every result.
pub struct HostInfo {
    pub nproc: usize,
    pub rustc: String,
    pub git_rev: String,
    pub scratch_fs: String,
}

impl HostInfo {
    pub fn probe(scratch: &Path) -> HostInfo {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let scratch_fs = mount_fs_type(scratch).unwrap_or_else(|| "unknown".into());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            scratch_fs,
        }
    }

    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("rustc", self.rustc.clone()),
            ("git_rev", self.git_rev.clone()),
            ("scratch_fs", self.scratch_fs.clone()),
            (
                "flush_policy",
                "store default: shard files and manifest synced before each commit rename".into(),
            ),
        ]
    }
}

/// The commit checked out in the working directory, read straight from
/// `.git` (a plain export has none).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(refname))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn mount_fs_type(path: &Path) -> Option<String> {
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}
