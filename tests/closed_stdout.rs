//! Both command-line tools stop quietly, with status 0, when the reader
//! of their standard output is gone (`thicket DIR perf | head`), instead
//! of panicking in a print.

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, ExitStatus, Stdio};
use thicket::prelude::*;
use thicket_perfsim::ScratchDir;

/// Run `bin` with `args`, its stdout a stream whose reading end was
/// closed before the child started, so its first write fails with a
/// broken pipe. Returns the exit status and what it wrote to stderr.
fn run_with_closed_stdout(bin: &str, args: &[&str]) -> (ExitStatus, String) {
    let (write_end, read_end) = UnixStream::pair().expect("a socket pair");
    drop(read_end);
    let out = Command::new(bin)
        .args(args)
        .stdout(Stdio::from(OwnedFd::from(write_end)))
        .stderr(Stdio::piped())
        .output()
        .expect("the binary runs");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_quiet(bin: &str, args: &[&str]) {
    let (status, stderr) = run_with_closed_stdout(bin, args);
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked: {stderr}"
    );
    assert!(
        status.success(),
        "{bin} {args:?}: {status}, stderr: {stderr}"
    );
}

#[test]
fn thicketd_stops_quietly_when_stdout_is_closed() {
    let dir = ScratchDir::new("closed-stdout-thicketd");
    let store = dir.join("store");
    let store = store.to_str().expect("a UTF-8 scratch path");
    assert_quiet(
        env!("CARGO_BIN_EXE_thicketd"),
        &["seed", store, "--profiles", "1"],
    );
    // The store was written before the print failed.
    assert_eq!(Store::open(store).unwrap().manifest().profiles.len(), 1);
}

#[test]
fn thicket_stops_quietly_when_stdout_is_closed() {
    let dir = ScratchDir::new("closed-stdout-thicket");
    let profiles: Vec<Profile> = (0..2)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    save_ensemble(&dir, &profiles).unwrap();
    let path = dir.to_str().expect("a UTF-8 scratch path");
    for command in [&["perf"][..], &["summary"], &["csv", "perf"]] {
        let args: Vec<&str> = std::iter::once(path)
            .chain(command.iter().copied())
            .collect();
        assert_quiet(env!("CARGO_BIN_EXE_thicket"), &args);
    }
}
