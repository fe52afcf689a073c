// ---------------------------------------------------------------------
// Deep verification (fsck) and repair (recover).
// ---------------------------------------------------------------------

use super::crc::crc32c;
use super::frame;
use super::layout::{
    list_dir, manifest_name, parse_manifest_name, parse_shard_name, LOCK_NAME,
};
use super::lock::{classify_lock, LockState};
use super::manifest::{Manifest, ShardInfo};
use super::{lease, legacy};
use super::{FsckReport, GenCheck, RecoverReport, Store, StoreError};
use crate::ingest::{DiagKind, Diagnostic, IngestReport};
use crate::profile::Profile;
use std::collections::HashSet;
use std::path::Path;

fn entry_ranges(m: &Manifest, si: usize) -> Vec<(u64, u32, u32)> {
    let mut ranges: Vec<(u64, u32, u32)> = m
        .profiles
        .iter()
        .filter(|e| e.shard == si)
        .map(|e| (e.offset, e.len, e.crc))
        .collect();
    ranges.sort_unstable_by_key(|(off, _, _)| *off);
    ranges
}

/// Walk a shard byte image, returning every CRC-intact record as
/// `(index, payload)` plus at most one classified finding for the first
/// structural problem (bad magic, checksum mismatch or torn tail).
///
/// The walk is resilient: a record with a bad CRC does not stop it
/// (framing is still trusted as long as lengths stay in bounds), so
/// later intact records remain salvageable.
fn walk_shard<'a>(bytes: &'a [u8], name: &str) -> (Vec<(usize, &'a [u8])>, Option<Diagnostic>) {
    let shard = name.to_string();
    let Some(walk) = frame::walk(bytes) else {
        let kind = DiagKind::ChecksumMismatch { shard, record: 0 };
        let source = name.to_string();
        return (Vec::new(), Some(Diagnostic { source, kind }));
    };
    // The first problem in image order: a torn tail comes last.
    let finding = match walk.frames.iter().position(|f| !f.intact) {
        Some(record) => Some((record, DiagKind::ChecksumMismatch { shard, record })),
        None if walk.torn => Some((walk.frames.len(), DiagKind::TornShard { shard })),
        None => None,
    };
    let records = walk
        .frames
        .into_iter()
        .enumerate()
        .filter(|(_, f)| f.intact)
        .map(|(ri, f)| (ri, &bytes[f.payload]))
        .collect();
    let finding = finding.map(|(ri, kind)| Diagnostic {
        source: format!("{name}#{ri}"),
        kind,
    });
    (records, finding)
}

/// Deep-check one shard against its manifest descriptor.
fn check_shard(
    dir: &Path,
    info: &ShardInfo,
    expected: Vec<(u64, u32, u32)>,
) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    let bytes = match std::fs::read(dir.join(&info.file)) {
        Ok(b) => b,
        Err(e) => {
            findings.push(Diagnostic {
                source: info.file.clone(),
                kind: DiagKind::Io(format!("{}: {e}", info.file)),
            });
            return findings;
        }
    };
    if crc32c(&bytes) == info.crc && bytes.len() as u64 == info.bytes {
        // The file digest matches what the manifest promised — but the
        // manifest's *per-record* claims can still lie (a corrupted or
        // rewritten entry range), so verify each declared byte range
        // against the shard image before trusting it.
        for (ri, &(offset, len, crc)) in expected.iter().enumerate() {
            let bad = offset
                .checked_add(len as u64)
                .is_none_or(|end| end > bytes.len() as u64)
                || crc32c(&bytes[offset as usize..(offset + len as u64) as usize]) != crc;
            if bad {
                findings.push(Diagnostic {
                    source: format!("{}#{ri}", info.file),
                    kind: DiagKind::StaleManifest {
                        manifest: format!(
                            "{}#{ri}: manifest entry range {offset}+{len} disagrees with shard bytes",
                            info.file
                        ),
                    },
                });
            }
        }
        // Every frame is bit-intact — but a corruptor that re-frames a
        // record (rewriting the frame CRC and manifest to match) keeps
        // all digests consistent while still breaking the payload, so
        // deep verification must run each record through the decoder.
        // fsck checks integrity, not currency: a JSON record an older
        // build wrote decodes here and passes (`compact` migrates it).
        let (records, _) = walk_shard(&bytes, &info.file);
        for (ri, payload) in records {
            if let Err(e) = legacy::decode_record(payload) {
                findings.push(Diagnostic {
                    source: format!("{}#{ri}", info.file),
                    kind: DiagKind::from_profile_error(&e),
                });
            }
        }
        return findings;
    }
    // Digest mismatch: walk the records to classify precisely.
    let (intact, finding) = walk_shard(&bytes, &info.file);
    if let Some(d) = finding {
        findings.push(d);
    }
    // A record whose payload CRC matches its *frame* but disagrees with
    // the manifest (or extra/missing records) still breaks the digest:
    // classify against the manifest's expectations.
    if findings.is_empty() {
        if intact.len() != expected.len() || bytes.len() as u64 != info.bytes {
            findings.push(Diagnostic {
                source: info.file.clone(),
                kind: DiagKind::StaleManifest {
                    manifest: format!(
                        "{}: shard holds {} intact records, manifest expects {}",
                        info.file,
                        intact.len(),
                        expected.len()
                    ),
                },
            });
        } else {
            // Same framing, different bytes → some record's content and
            // CRC were rewritten together; surface as checksum trouble.
            findings.push(Diagnostic {
                source: info.file.clone(),
                kind: DiagKind::ChecksumMismatch {
                    shard: info.file.clone(),
                    record: 0,
                },
            });
        }
    }
    findings
}

/// Deep-verify every generation and classify all corruption (see
/// [`Store::fsck`]). Coordination files — the commit `LOCK` and
/// `pin-*` reader leases — are classified too: stale ones (dead owner
/// pid, or heartbeat past its ttl) become typed findings that
/// [`Store::recover`] reaps, live ones are reported untouched.
pub(crate) fn fsck(dir: &Path) -> Result<FsckReport, StoreError> {
    let names = list_dir(dir)?;
    let mut gens: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_manifest_name(n))
        .collect();
    gens.sort_unstable();
    gens.reverse();

    let mut generations = Vec::with_capacity(gens.len());
    let mut referenced: HashSet<String> = HashSet::new();
    for gen in gens {
        let mname = manifest_name(gen);
        let mut findings = Vec::new();
        match std::fs::read(dir.join(&mname))
            .map_err(|e| e.to_string())
            .and_then(|b| Manifest::from_file_bytes(&b))
        {
            Err(why) => findings.push(Diagnostic {
                source: mname.clone(),
                kind: DiagKind::StaleManifest {
                    manifest: format!("{mname}: {why}"),
                },
            }),
            Ok(m) => {
                if m.generation != gen {
                    findings.push(Diagnostic {
                        source: mname.clone(),
                        kind: DiagKind::StaleManifest {
                            manifest: format!(
                                "{mname}: body claims generation {}",
                                m.generation
                            ),
                        },
                    });
                }
                for (si, info) in m.shards.iter().enumerate() {
                    referenced.insert(info.file.clone());
                    findings.extend(check_shard(dir, info, entry_ranges(&m, si)));
                }
                // Deep-verify the columnar index: every block must
                // decode and agree with its presence mask.
                for b in &m.columns {
                    if let Err(why) = b.values() {
                        findings.push(Diagnostic {
                            source: mname.clone(),
                            kind: DiagKind::StaleManifest {
                                manifest: format!("{mname}: {why}"),
                            },
                        });
                    }
                }
            }
        }
        let intact = findings.is_empty();
        generations.push(GenCheck {
            generation: gen,
            manifest: mname,
            intact,
            findings,
        });
    }

    let orphan_shards: Vec<String> = names
        .iter()
        .filter(|n| parse_shard_name(n).is_some() && !referenced.contains(*n))
        .cloned()
        .collect();
    let temps: Vec<String> = names
        .iter()
        .filter(|n| n.starts_with('.') && n.ends_with(".tmp"))
        .cloned()
        .collect();

    // Coordination files: a stale lock or lease is a typed finding
    // (recover reaps it); live ones are reported but never findings —
    // a healthy concurrent store has them all the time.
    let mut coordination = Vec::new();
    let mut live_lock = None;
    if names.iter().any(|n| n == LOCK_NAME) {
        match classify_lock(dir) {
            LockState::Live(owner) => live_lock = Some(owner),
            LockState::Stale(why) => coordination.push(Diagnostic {
                source: LOCK_NAME.to_string(),
                kind: DiagKind::StaleLock { lock: why },
            }),
            LockState::Gone => {}
        }
    }
    let leases = lease::scan(dir, &names);
    for name in leases.stale {
        coordination.push(Diagnostic {
            source: name.clone(),
            kind: DiagKind::StaleLease { lease: name },
        });
    }

    let newest_intact = generations
        .iter()
        .filter(|g| g.intact)
        .map(|g| g.generation)
        .max();
    Ok(FsckReport {
        generations,
        orphan_shards,
        temps,
        coordination,
        live_lock,
        live_leases: leases.live,
        newest_intact,
    })
}

/// Repair the directory to a consistent state (see [`Store::recover`]).
pub(crate) fn recover(dir: &Path) -> Result<RecoverReport, StoreError> {
    let fsck = fsck(dir)?;
    let mut removed = Vec::new();
    let mut diagnostics = Vec::new();

    let remove = |d: &Path, name: &str, removed: &mut Vec<String>| {
        if std::fs::remove_file(d.join(name)).is_ok() {
            removed.push(name.to_string());
        }
    };

    for t in &fsck.temps {
        remove(dir, t, &mut removed);
    }
    // Reap stale coordination files *before* any path that re-acquires
    // the commit lock (the salvage rewrite below): a dead writer's LOCK
    // must not make its own repair wait out a takeover window.
    for d in &fsck.coordination {
        remove(dir, &d.source, &mut removed);
    }

    if let Some(keep) = fsck.newest_intact {
        // Roll back to the newest intact generation: drop every
        // broken generation's files and all orphans. Older intact
        // generations stay (they are the retention window).
        let mut kept_shards: HashSet<String> = HashSet::new();
        let mut kept_profiles = 0usize;
        for g in fsck.generations.iter().filter(|g| g.intact) {
            if let Ok(bytes) = std::fs::read(dir.join(&g.manifest)) {
                if let Ok(m) = Manifest::from_file_bytes(&bytes) {
                    if g.generation == keep {
                        kept_profiles = m.profiles.len();
                    }
                    kept_shards.extend(m.shards.iter().map(|s| s.file.clone()));
                }
            }
        }
        for g in fsck.generations.iter().filter(|g| !g.intact) {
            diagnostics.extend(g.findings.iter().cloned());
            remove(dir, &g.manifest, &mut removed);
        }
        for name in list_dir(dir)? {
            if parse_shard_name(&name).is_some() && !kept_shards.contains(&name) {
                remove(dir, &name, &mut removed);
            }
        }
        let attempted = kept_profiles + diagnostics.len();
        return Ok(RecoverReport {
            generation: keep,
            salvaged: 0,
            removed,
            report: IngestReport {
                attempted,
                loaded: kept_profiles,
                diagnostics,
                pushdown: None,
            },
        });
    }

    // No generation verifies: salvage every intact record from
    // every shard file present, newest generation's shards first so
    // its copy of a profile wins the hash dedupe. Records in an older
    // build's encoding are salvaged too: the rewrite below is TKP3.
    let mut shard_files: Vec<(u64, usize, String)> = list_dir(dir)?
        .into_iter()
        .filter_map(|n| parse_shard_name(&n).map(|(g, i)| (g, i, n)))
        .collect();
    shard_files.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut seen: HashSet<i64> = HashSet::new();
    let mut salvaged: Vec<Profile> = Vec::new();
    for (_, _, name) in &shard_files {
        let bytes = std::fs::read(dir.join(name))?;
        let (records, finding) = walk_shard(&bytes, name);
        for (ri, payload) in records {
            match legacy::decode_record(payload) {
                Ok(p) => {
                    if seen.insert(p.profile_hash()) {
                        salvaged.push(p);
                    }
                    // A hash-duplicate across generations is the
                    // same profile's older copy, not a fault: no
                    // diagnostic.
                }
                Err(e) => diagnostics.push(Diagnostic {
                    source: format!("{name}#{ri}"),
                    kind: DiagKind::from_profile_error(&e),
                }),
            }
        }
        if let Some(d) = finding {
            diagnostics.push(d);
        }
    }
    for g in &fsck.generations {
        diagnostics.extend(
            g.findings
                .iter()
                .filter(|d| matches!(d.kind, DiagKind::StaleManifest { .. }))
                .cloned(),
        );
    }
    if salvaged.is_empty() {
        return Err(StoreError::NoGeneration(format!(
            "nothing salvageable in {}",
            dir.display()
        )));
    }

    // Rewrite the survivors as a fresh generation, then drop every
    // older file.
    let old_files: Vec<String> = list_dir(dir)?
        .into_iter()
        .filter(|n| parse_shard_name(n).is_some() || parse_manifest_name(n).is_some())
        .collect();
    let report = Store::save(dir, &salvaged)?;
    // The salvage save may reuse a generation number whose manifest never
    // committed (the crashed writer left only a temp), so its fresh files
    // can collide with `old_files` names. Never delete what we just wrote.
    for name in old_files {
        let reused = parse_shard_name(&name).map(|(g, _)| g) == Some(report.generation)
            || parse_manifest_name(&name) == Some(report.generation);
        if !reused {
            remove(dir, &name, &mut removed);
        }
    }
    let salvaged_count = salvaged.len();
    Ok(RecoverReport {
        generation: report.generation,
        salvaged: salvaged_count,
        removed,
        report: IngestReport {
            attempted: salvaged_count + diagnostics.len(),
            loaded: salvaged_count,
            diagnostics,
            pushdown: None,
        },
    })
}
