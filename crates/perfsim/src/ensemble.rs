//! Ensemble I/O: whole directories of profiles, the unit the paper's
//! workflow moves between collection (steps 1–2) and analysis (step 3).
//!
//! [`load_dir`] is the single directory-load engine; both contracts of
//! [`crate::ingest::Strictness`] run through it (`FailFast` aborts on
//! the first unhealthy file, identified by path and deterministic for
//! any thread count; `Lenient` returns the healthy subset plus a
//! per-file [`IngestReport`]). Most code should reach ensembles
//! through `Thicket::loader` in `thicket-core`, which drives this
//! engine.

use crate::ingest::{DiagKind, Diagnostic, IngestReport, Strictness};
use crate::parallel::{parallel_map_catch, try_parallel_map, JobFailure};
use crate::profile::{Profile, ProfileError};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Write every profile to `dir` as `profile-<hash>.json`, creating the
/// directory. Returns the written paths.
///
/// The hash is metadata-derived, so profiles with identical metadata
/// collide; collisions are disambiguated with an index suffix chosen
/// from an in-memory name set (deterministic for the batch, immune to
/// the check-then-write race of probing the filesystem). Each file is
/// written to a temporary name and atomically renamed into place, so a
/// concurrent reader never observes a half-written profile; re-saving
/// an ensemble replaces its previous files instead of accumulating
/// bumped copies.
///
/// The save runs in two phases. Phase one stages every profile to a
/// temporary name; a failure there removes only this call's temps and
/// leaves the directory's existing files untouched. Phase two renames
/// the staged temps into place; a failure there removes the not-yet-
/// renamed temps but never deletes a destination file — when re-saving
/// over a previous ensemble, the destinations still hold valid copies
/// (old or freshly renamed), so an interrupted save degrades to a
/// mixed-but-loadable directory instead of losing data. (An earlier
/// revision rolled back by deleting already-renamed destinations,
/// which destroyed the previous good copies on a re-save.)
pub fn save_ensemble(
    dir: impl AsRef<Path>,
    profiles: &[Profile],
) -> Result<Vec<PathBuf>, ProfileError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut taken: HashSet<String> = HashSet::with_capacity(profiles.len());
    let mut staged: Vec<(PathBuf, PathBuf)> = Vec::with_capacity(profiles.len());
    for (i, p) in profiles.iter().enumerate() {
        let base = format!("profile-{:016x}", p.profile_hash() as u64);
        let mut name = format!("{base}.json");
        let mut bump = 0;
        while !taken.insert(name.clone()) {
            bump += 1;
            name = format!("{base}-{bump}.json");
        }
        let tmp = dir.join(format!(".{name}.tmp-{i}"));
        if let Err(e) = p.save(&tmp) {
            let _ = std::fs::remove_file(&tmp);
            for (t, _) in &staged {
                let _ = std::fs::remove_file(t);
            }
            return Err(e);
        }
        staged.push((tmp, dir.join(&name)));
    }
    let mut out = Vec::with_capacity(staged.len());
    for (idx, (tmp, path)) in staged.iter().enumerate() {
        if let Err(e) = std::fs::rename(tmp, path) {
            for (t, _) in &staged[idx..] {
                let _ = std::fs::remove_file(t);
            }
            return Err(ProfileError::from(e).in_file(path));
        }
        out.push(path.clone());
    }
    Ok(out)
}

/// The directory-load engine: every `*.json` profile in `dir`, sorted
/// by filename for determinism, parsed on `threads` workers (`None` →
/// a count fitted to the file count). Results and diagnostics are
/// byte-identical for any thread count.
///
/// Under [`Strictness::FailFast`] the first unhealthy file in filename
/// order fails the load with its path (remaining work is cancelled)
/// and the report is empty-diagnostic. Under `Lenient` unhealthy files
/// become typed [`Diagnostic`]s, and a file whose profile *hash*
/// duplicates an earlier file's is dropped with a
/// [`DiagKind::DuplicateProfile`] diagnostic — what a downstream
/// thicket build needs (the strict contract keeps duplicates and
/// leaves the choice of profile ids to the caller).
pub fn load_dir(
    dir: impl AsRef<Path>,
    threads: Option<usize>,
    strictness: Strictness,
) -> Result<(Vec<Profile>, IngestReport), ProfileError> {
    let paths = ensemble_paths(&dir)?;
    let threads = threads.unwrap_or_else(|| crate::parallel::default_threads(paths.len()));
    match strictness {
        Strictness::FailFast => {
            let profiles = load_paths(&paths, threads)?;
            let report = IngestReport {
                attempted: paths.len(),
                loaded: profiles.len(),
                diagnostics: Vec::new(),
                pushdown: None,
            };
            Ok((profiles, report))
        }
        Strictness::Lenient => {
            let results = parallel_map_catch(&paths, threads, |p| Profile::load(p));
            let mut profiles = Vec::with_capacity(paths.len());
            let mut diagnostics = Vec::new();
            // Lenient output feeds straight into thicket construction,
            // where profile ids (metadata hashes) must be unique: later
            // files re-claiming a hash are dropped here with a typed
            // diagnostic instead of exploding there.
            let mut first_by_hash: HashMap<i64, &PathBuf> = HashMap::new();
            for (path, result) in paths.iter().zip(results) {
                let source = path.display().to_string();
                match result {
                    Ok(profile) => match first_by_hash.get(&profile.profile_hash()) {
                        Some(first) => diagnostics.push(Diagnostic {
                            source,
                            kind: DiagKind::DuplicateProfile {
                                first: first.display().to_string(),
                            },
                        }),
                        None => {
                            first_by_hash.insert(profile.profile_hash(), path);
                            profiles.push(profile);
                        }
                    },
                    Err(JobFailure::Error(e)) => diagnostics.push(Diagnostic {
                        source,
                        kind: DiagKind::from_profile_error(&e),
                    }),
                    Err(JobFailure::Panic(m)) => diagnostics.push(Diagnostic {
                        source,
                        kind: DiagKind::WorkerPanic(m),
                    }),
                }
            }
            let report = IngestReport {
                attempted: paths.len(),
                loaded: profiles.len(),
                diagnostics,
                pushdown: None,
            };
            Ok((profiles, report))
        }
    }
}

fn ensemble_paths(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, ProfileError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Strict load of sorted paths: the first failure in path order wins
/// (worker panics included, captured as [`ProfileError::Panicked`]) and
/// is annotated with the offending path.
fn load_paths(paths: &[PathBuf], threads: usize) -> Result<Vec<Profile>, ProfileError> {
    try_parallel_map(paths, threads, |p| Profile::load(p)).map_err(|e| {
        let path = &paths[e.index];
        match e.failure {
            JobFailure::Error(pe) => pe.in_file(path),
            JobFailure::Panic(m) => ProfileError::Panicked(m).in_file(path),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ScratchDir;
    use crate::rajaperf::{simulate_cpu_run, CpuRunConfig};

    fn load_strict(dir: impl AsRef<Path>) -> Result<Vec<Profile>, ProfileError> {
        load_dir(dir, None, Strictness::FailFast).map(|(profiles, _)| profiles)
    }

    #[test]
    fn roundtrip_preserves_profiles() {
        let dir = ScratchDir::new("ensemble-roundtrip");
        let profiles: Vec<Profile> = (0..4)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        let paths = save_ensemble(&dir, &profiles).unwrap();
        assert_eq!(paths.len(), 4);
        let loaded = load_strict(&dir).unwrap();
        assert_eq!(loaded.len(), 4);
        let mut orig: Vec<i64> = profiles.iter().map(|p| p.profile_hash()).collect();
        let mut back: Vec<i64> = loaded.iter().map(|p| p.profile_hash()).collect();
        orig.sort_unstable();
        back.sort_unstable();
        assert_eq!(orig, back);
    }

    #[test]
    fn identical_metadata_disambiguated() {
        let dir = ScratchDir::new("ensemble-dup");
        let p = simulate_cpu_run(&CpuRunConfig::quartz_default());
        let paths = save_ensemble(&dir, &[p.clone(), p]).unwrap();
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0], paths[1]);
        assert_eq!(load_strict(&dir).unwrap().len(), 2);
    }

    #[test]
    fn corrupt_file_fails_loudly() {
        let dir = ScratchDir::new("ensemble-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.json"), "{oops").unwrap();
        assert!(load_strict(&dir).is_err());
    }

    #[test]
    fn non_json_files_ignored() {
        let dir = ScratchDir::new("ensemble-mixed");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), "notes").unwrap();
        save_ensemble(&dir, &[simulate_cpu_run(&CpuRunConfig::quartz_default())]).unwrap();
        assert_eq!(load_strict(&dir).unwrap().len(), 1);
    }

    #[test]
    fn missing_dir_errors() {
        assert!(load_strict("/nonexistent/thicket-dir").is_err());
        assert!(load_dir("/nonexistent/thicket-dir", Some(4), Strictness::FailFast).map(|(p, _)| p).is_err());
    }

    #[test]
    fn threaded_load_matches_serial() {
        let dir = ScratchDir::new("ensemble-threads");
        let profiles: Vec<Profile> = (0..6)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        save_ensemble(&dir, &profiles).unwrap();
        let one = load_dir(&dir, Some(1), Strictness::FailFast).map(|(p, _)| p).unwrap();
        let eight = load_dir(&dir, Some(8), Strictness::FailFast).map(|(p, _)| p).unwrap();
        let hashes = |ps: &[Profile]| ps.iter().map(|p| p.profile_hash()).collect::<Vec<_>>();
        assert_eq!(hashes(&one), hashes(&eight));
        assert_eq!(one.len(), 6);
    }

    #[test]
    fn strict_error_names_offending_path() {
        let dir = ScratchDir::new("ensemble-strict-path");
        std::fs::create_dir_all(&dir).unwrap();
        save_ensemble(&dir, &[simulate_cpu_run(&CpuRunConfig::quartz_default())]).unwrap();
        std::fs::write(dir.join("aa-bad.json"), "{truncated").unwrap();
        for threads in [1, 2, 8] {
            let err = load_dir(&dir, Some(threads), Strictness::FailFast).map(|(p, _)| p).unwrap_err();
            assert_eq!(
                err.path().map(|p| p.to_path_buf()),
                Some(dir.join("aa-bad.json")),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn lenient_load_keeps_healthy_subset() {
        let dir = ScratchDir::new("ensemble-lenient");
        let profiles: Vec<Profile> = (0..3)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        save_ensemble(&dir, &profiles).unwrap();
        std::fs::write(dir.join("aa-corrupt.json"), "{nope").unwrap();
        let (loaded, report) = load_dir(&dir, None, Strictness::Lenient).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(report.attempted, 4);
        assert_eq!(report.loaded, 3);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].source.ends_with("aa-corrupt.json"));
        assert!(matches!(
            report.diagnostics[0].kind,
            crate::ingest::DiagKind::Parse { .. }
        ));
        // Strict load of the same dir fails.
        assert!(load_strict(&dir).is_err());
    }

    #[test]
    fn lenient_drops_duplicate_hashes_with_diagnostic() {
        let dir = ScratchDir::new("ensemble-lenient-dup");
        let p = simulate_cpu_run(&CpuRunConfig::quartz_default());
        // Two files, identical metadata → identical hash.
        save_ensemble(&dir, &[p.clone(), p]).unwrap();
        let (loaded, report) = load_dir(&dir, None, Strictness::Lenient).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(report.diagnostics.len(), 1);
        match &report.diagnostics[0].kind {
            crate::ingest::DiagKind::DuplicateProfile { first } => {
                assert!(first.ends_with(".json"));
                assert_ne!(first, &report.diagnostics[0].source);
            }
            other => panic!("expected DuplicateProfile, got {other:?}"),
        }
        // Strict mode still tolerates duplicates (caller picks ids).
        assert_eq!(load_strict(&dir).unwrap().len(), 2);
    }

    #[test]
    fn lenient_drops_every_bad_file_fail_fast_aborts() {
        let dir = ScratchDir::new("ensemble-bad-files");
        std::fs::create_dir_all(&dir).unwrap();
        save_ensemble(&dir, &[simulate_cpu_run(&CpuRunConfig::quartz_default())]).unwrap();
        std::fs::write(dir.join("bad1.json"), "{").unwrap();
        std::fs::write(dir.join("bad2.json"), "[").unwrap();
        let (loaded, report) = load_dir(&dir, Some(2), Strictness::Lenient).unwrap();
        assert_eq!((loaded.len(), report.dropped()), (1, 2));
        assert!(load_dir(&dir, Some(2), Strictness::FailFast).is_err());
    }

    #[test]
    fn failed_save_rolls_back_partial_output() {
        let dir = ScratchDir::new("ensemble-rollback");
        let profiles: Vec<Profile> = (0..3)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        // Block the *second* profile's target name with a directory so
        // its rename fails after the first file has landed.
        let planned = save_ensemble(&dir, &profiles).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&planned[1]).unwrap();
        let err = save_ensemble(&dir, &profiles);
        assert!(err.is_err(), "rename onto a directory must fail");
        // Files renamed before the failure are complete, valid
        // profiles and stay in place; temps are cleaned up.
        let leftovers: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .map(|e| e.path())
            .collect();
        assert_eq!(leftovers, vec![planned[0].clone()]);
        Profile::load(&leftovers[0]).expect("surviving file is a valid profile");
    }

    #[test]
    fn failed_save_never_deletes_previous_copies() {
        let dir = ScratchDir::new("ensemble-rollback-resave");
        let profiles: Vec<Profile> = (0..3)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        let planned = save_ensemble(&dir, &profiles).unwrap();

        // Staging failure (temp name blocked by a directory): the
        // previous ensemble must come through completely untouched.
        std::fs::create_dir_all(dir.join(format!(
            ".{}.tmp-1",
            planned[1].file_name().unwrap().to_string_lossy()
        )))
        .unwrap();
        assert!(save_ensemble(&dir, &profiles).is_err());
        assert_eq!(load_strict(&dir).unwrap().len(), 3);

        // Rename failure mid-way (destination replaced by a directory
        // out from under us): the other destinations keep a valid copy
        // — old or freshly renamed — and nothing is deleted.
        std::fs::remove_dir_all(dir.join(format!(
            ".{}.tmp-1",
            planned[1].file_name().unwrap().to_string_lossy()
        )))
        .unwrap();
        std::fs::remove_file(&planned[1]).unwrap();
        std::fs::create_dir_all(&planned[1]).unwrap();
        assert!(save_ensemble(&dir, &profiles).is_err());
        for p in [&planned[0], &planned[2]] {
            Profile::load(p).expect("previous copy must survive a failed re-save");
        }
    }

    #[test]
    fn resave_replaces_instead_of_accumulating() {
        let dir = ScratchDir::new("ensemble-resave");
        let p = simulate_cpu_run(&CpuRunConfig::quartz_default());
        let first = save_ensemble(&dir, std::slice::from_ref(&p)).unwrap();
        let second = save_ensemble(&dir, &[p]).unwrap();
        assert_eq!(first, second);
        // Still exactly one profile (and no leftover temp files).
        assert_eq!(load_strict(&dir).unwrap().len(), 1);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty());
    }
}
