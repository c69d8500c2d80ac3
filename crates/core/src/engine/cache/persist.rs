//! Disk persistence for the marginal cache: an **append-and-compact
//! segment store** of the content-addressed `(model hash, unit hash,
//! fingerprint, f64 bits)` records.
//!
//! Because the keys are stable FNV-1a hashes of work-unit *content* and the
//! values are bit-deterministic per `(content, fingerprint)`, records
//! written by one process are valid in any other — loading is a pure warm
//! start, never a source of divergence. Everything is written little-endian
//! via explicit `to_le_bytes`, and probabilities are stored as
//! `f64::to_bits`, so round-trips are bit-exact across platforms.
//!
//! ## Store layout
//!
//! The store is a directory of immutable segment files named
//! `seg-NNNNNNNN.ppdmseg`, applied in file-name order. Each
//! [`save`] appends **one new segment** holding only what changed since
//! the store was last written: value records for newly solved units and
//! tombstone records for models invalidated by database updates — the
//! whole-cache rewrite of the earlier `PPDMCACH` snapshot format is gone,
//! so a save after a quiet interval costs a directory scan plus a few
//! records, not the full cache. A record for a `(unit hash, fingerprint)`
//! pair supersedes earlier records for the same pair; a tombstone for model
//! hash `M` kills every earlier value record whose model hash is `M`.
//!
//! Superseded and tombstoned records are *dead bytes*. When they reach
//! [`COMPACT_DEAD_RATIO`] of the store, [`save`] rewrites all live records
//! into a single fresh segment and deletes the older files. Compaction is
//! crash-safe without a manifest: the compacted segment is renamed into
//! place *before* the old segments are deleted, and since it sorts later
//! by name its records simply supersede any old segment a crash leaves
//! behind.
//!
//! ## Segment format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PPDMSEG\0"
//! 8       4     segment format version, u32 LE (currently 1)
//! 12      4     solver revision, u32 LE
//! 16      8     record count, u64 LE
//! 24      50×n  records:
//!               kind u8 (0 = value, 1 = tombstone) |
//!               model hash u64 LE | unit hash u64 LE |
//!               tag u8 | aux_a u64 LE | aux_b u64 LE | aux_c u64 LE |
//!               f64 bits u64 LE
//! ```
//!
//! Tombstone records carry only the model hash; every other field must be
//! zero. The model hash on value records is what makes *surgical
//! invalidation* survive restarts: on load the engine rebuilds its
//! `model hash → unit hashes` reverse index straight from the records, so
//! an update arriving after a reload still drops exactly the units that
//! cover the changed sessions.
//!
//! The **solver revision** versions the numeric semantics the way the
//! format version versions the layout: any change that moves even
//! low-order bits of any solver's output (a reordered summation, a new DP
//! recurrence, an RNG tweak) must bump [`SOLVER_REVISION`]. Without it,
//! records from an older binary would be served as hits — the cache is
//! checked *before* solving, so the insert-path `debug_assert` on
//! differing bits can never fire for loaded entries — and a warm-started
//! engine would silently answer with the old binary's bits.
//!
//! Corruption handling is whole-segment and whole-load: every segment is
//! parsed and validated (magic, versions, declared length, per-record
//! fields) before a single record is absorbed, and any bad segment fails
//! the load with nothing installed — a store is either understood exactly
//! or rejected, never half-read. Fingerprint tags: `0` = auto-selected
//! exact, `1` = inclusion–exclusion general exact (all aux fields zero),
//! `2` = approximate (`aux_a` = samples per proposal, `aux_b` = engine
//! base seed), `3` = error-budgeted (`aux_a` = `ε.to_bits()`, `aux_b` =
//! `confidence.to_bits()`, `aux_c` = engine base seed).
//!
//! Segment writes go to a sibling `*.tmp` file first and are renamed into
//! place, so a crash mid-save cannot corrupt the store. The store assumes
//! one writer at a time per directory (the serving layer's single
//! dispatcher thread); concurrent *loads* are safe.

use super::sharded::MarginalCache;
use super::SolverFingerprint;
use std::collections::{HashMap, HashSet};
use std::io::{self, Error, ErrorKind};
use std::path::{Path, PathBuf};

/// Magic prefix of a marginal-cache segment file.
const MAGIC: [u8; 8] = *b"PPDMSEG\0";
/// Current segment format version.
pub(crate) const FORMAT_VERSION: u32 = 1;
/// Revision of the solvers' numeric semantics (see the module docs). Bump
/// on any change that alters output bits; old stores then reload from
/// scratch instead of serving stale numbers.
///
/// Revision 2: PR 5's packed-state kernels re-keyed the bipartite pruning
/// DP (uncertain edges as per-pattern masks) and the pattern solver's
/// general-DAG DP (positions per relevant item), changing BTreeMap
/// iteration — hence float summation — order, and `GeneralSolver` now
/// evaluates conjunctions over deduplicated member classes.
///
/// Revision 3: PR 6 replaced MIS-AMP-lite's multiplicative pruning
/// compensation (`c_ψ · c_r`, clamped) with the odds-space normalization,
/// changing every approximate estimate computed with pruning active.
///
/// Revision 4: PR 10's mixture estimator re-weighted the MIS combination
/// (coefficient-weighted balance heuristic over a stratified total budget
/// instead of equal per-proposal quotas with an unweighted density average),
/// changing every approximate estimate; the budgeted estimator's doubling
/// rounds now also grow a *total* mixture budget.
///
/// Revision 5: the two-label DP answers the mass of the transitions that
/// satisfy an edge, summed as they are generated, instead of `1 −` the mass
/// of the states that never do, and stops after its last tracked item.
/// Two-label marginals move by up to a few ulps, and tiny ones become exact
/// to relative precision.
const SOLVER_REVISION: u32 = 5;
/// Header size in bytes: magic + format version + solver revision +
/// record count.
const HEADER_BYTES: usize = 8 + 4 + 4 + 8;
/// Fixed size of one serialized record: kind + model hash + unit hash +
/// fingerprint (tag + three aux fields) + probability bits.
const RECORD_BYTES: usize = 1 + 8 + 8 + 1 + 8 + 8 + 8 + 8;
/// Record kinds.
const KIND_VALUE: u8 = 0;
const KIND_TOMBSTONE: u8 = 1;
/// Compaction trigger: when dead records reach this fraction of all
/// record bytes in the store, [`save`] rewrites the live set into a single
/// segment and deletes the rest.
const COMPACT_DEAD_RATIO: f64 = 0.5;

/// The on-disk encoding of a fingerprint: `(tag, aux_a, aux_b, aux_c)`.
fn encode_fingerprint(fingerprint: SolverFingerprint) -> (u8, u64, u64, u64) {
    match fingerprint {
        SolverFingerprint::ExactAuto => (0, 0, 0, 0),
        SolverFingerprint::GeneralExact => (1, 0, 0, 0),
        SolverFingerprint::Approx {
            samples_per_proposal,
            base_seed,
        } => (2, samples_per_proposal as u64, base_seed, 0),
        SolverFingerprint::ErrorBudget {
            epsilon_bits,
            confidence_bits,
            base_seed,
        } => (3, epsilon_bits, confidence_bits, base_seed),
    }
}

fn decode_fingerprint(
    tag: u8,
    aux_a: u64,
    aux_b: u64,
    aux_c: u64,
) -> io::Result<SolverFingerprint> {
    match (tag, aux_a, aux_b, aux_c) {
        (0, 0, 0, 0) => Ok(SolverFingerprint::ExactAuto),
        (1, 0, 0, 0) => Ok(SolverFingerprint::GeneralExact),
        (2, samples, seed, 0) => Ok(SolverFingerprint::Approx {
            samples_per_proposal: samples as usize,
            base_seed: seed,
        }),
        (3, epsilon_bits, confidence_bits, base_seed) => Ok(SolverFingerprint::ErrorBudget {
            epsilon_bits,
            confidence_bits,
            base_seed,
        }),
        (0..=2, ..) => Err(invalid(format!(
            "solver fingerprint tag {tag} carries unexpected non-zero aux fields"
        ))),
        (t, ..) => Err(invalid(format!("unknown solver fingerprint tag {t}"))),
    }
}

fn invalid(message: String) -> Error {
    Error::new(ErrorKind::InvalidData, message)
}

/// One decoded segment record.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Record {
    Value {
        model: u64,
        hash: u64,
        fingerprint: SolverFingerprint,
        bits: u64,
    },
    Tombstone {
        model: u64,
    },
}

/// What [`save`] did to the store, for the engine's stats counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SegmentReport {
    /// Value records appended (newly solved units persisted this save).
    pub(crate) appended: u64,
    /// Bytes of live records across the store after the save.
    pub(crate) live_bytes: u64,
    /// Bytes of dead (superseded or tombstoned) records after the save.
    pub(crate) dead_bytes: u64,
    /// Whether this save compacted the store.
    pub(crate) compacted: bool,
}

/// What [`load`] installed, including the `(unit hash, model hash)` pairs
/// the engine needs to rebuild its invalidation reverse index.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoadReport {
    /// Live records read from the store (what was absorbed; keep-first
    /// conflicts and capacity eviction may retain fewer).
    pub(crate) records: u64,
    /// `(unit hash, model hash)` of every live record, for the engine's
    /// reverse index.
    pub(crate) index: Vec<(u64, u64)>,
    /// Bytes of live records across the store.
    pub(crate) live_bytes: u64,
    /// Bytes of dead records across the store.
    pub(crate) dead_bytes: u64,
}

/// Appends the cache's unsaved content to the segment store at `dir`
/// (created if missing) and compacts when the dead-byte ratio crosses
/// [`COMPACT_DEAD_RATIO`]. `model_of` maps unit hashes to the model hash
/// they cover (units it misses are recorded under model hash `0` and are
/// then never tombstoned); `tombstones` are the model hashes invalidated
/// since the last save — the ones that kill at least one on-disk record
/// are persisted, the rest are no-ops. Returns what was written.
pub(crate) fn save(
    cache: &MarginalCache,
    model_of: &HashMap<u64, u64>,
    tombstones: &HashSet<u64>,
    dir: &Path,
) -> io::Result<SegmentReport> {
    std::fs::create_dir_all(dir)?;
    let segments = scan(dir)?;
    let mut next_index = segments.last().map_or(0, |(index, _, _)| index + 1);
    let (mut live, mut total_records) = replay(&segments);

    // Apply the pending tombstones to the on-disk state; only the ones
    // that actually kill a record are worth persisting.
    let mut useful_tombstones: Vec<u64> = Vec::new();
    for &model in tombstones {
        let before = live.len();
        live.retain(|_, &mut (_, m)| m != model);
        if live.len() < before {
            useful_tombstones.push(model);
        }
    }
    useful_tombstones.sort_unstable();

    // The delta: cached entries the (post-tombstone) disk state does not
    // already serve with the same bits.
    let delta: Vec<(u64, SolverFingerprint, f64)> = cache
        .snapshot()
        .into_iter()
        .filter(|&(hash, fingerprint, p)| {
            live.get(&(hash, fingerprint)).map(|&(bits, _)| bits) != Some(p.to_bits())
        })
        .collect();

    let mut obsolete: Vec<PathBuf> = segments.into_iter().map(|(_, path, _)| path).collect();
    let appended = delta.len() as u64;
    if !useful_tombstones.is_empty() || !delta.is_empty() {
        // Tombstones first: within a segment records apply in order, so a
        // model deleted and then re-inserted with identical content keeps
        // its re-solved values.
        let mut records: Vec<Record> = useful_tombstones
            .iter()
            .map(|&model| Record::Tombstone { model })
            .collect();
        for &(hash, fingerprint, p) in &delta {
            let model = model_of.get(&hash).copied().unwrap_or(0);
            records.push(Record::Value {
                model,
                hash,
                fingerprint,
                bits: p.to_bits(),
            });
            live.insert((hash, fingerprint), (p.to_bits(), model));
        }
        write_segment(dir, next_index, &records)?;
        obsolete.push(dir.join(segment_name(next_index)));
        total_records += records.len() as u64;
        next_index += 1;
    }

    let mut live_bytes = live.len() as u64 * RECORD_BYTES as u64;
    let mut dead_bytes = (total_records - live.len() as u64) * RECORD_BYTES as u64;
    let mut compacted = false;
    if dead_bytes > 0 && dead_bytes as f64 >= COMPACT_DEAD_RATIO * (dead_bytes + live_bytes) as f64
    {
        let mut records: Vec<((u64, SolverFingerprint), (u64, u64))> =
            live.iter().map(|(&k, &v)| (k, v)).collect();
        records.sort_unstable_by_key(|&((hash, fingerprint), _)| (hash, fingerprint));
        let records: Vec<Record> = records
            .into_iter()
            .map(|((hash, fingerprint), (bits, model))| Record::Value {
                model,
                hash,
                fingerprint,
                bits,
            })
            .collect();
        write_segment(dir, next_index, &records)?;
        // Only after the compacted segment is durable under its (later)
        // name are the superseded files removed; a crash in between leaves
        // a store whose replay still converges to the same live set.
        for path in &obsolete {
            let _ = std::fs::remove_file(path);
        }
        dead_bytes = 0;
        live_bytes = records.len() as u64 * RECORD_BYTES as u64;
        compacted = true;
    }

    cache.record_saved(appended);
    Ok(SegmentReport {
        appended,
        live_bytes,
        dead_bytes,
        compacted,
    })
}

/// Loads the store at `dir` into the cache (keep-first on conflicts with
/// entries already present, honouring the cache's capacity). Every segment
/// is parsed and validated before anything is absorbed: a single corrupt
/// segment rejects the whole load with the cache untouched.
pub(crate) fn load(cache: &MarginalCache, dir: &Path) -> io::Result<LoadReport> {
    let segments = scan(dir)?;
    let (live, total_records) = replay(&segments);
    let mut entries: Vec<((u64, SolverFingerprint), (u64, u64))> =
        live.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&((hash, fingerprint), _)| (hash, fingerprint));
    let mut index: Vec<(u64, u64)> = entries
        .iter()
        .map(|&((hash, _), (_, model))| (hash, model))
        .collect();
    index.dedup();
    let records = entries.len() as u64;
    cache.absorb(
        entries
            .into_iter()
            .map(|((hash, fingerprint), (bits, _))| (hash, fingerprint, f64::from_bits(bits))),
    );
    Ok(LoadReport {
        records,
        index,
        live_bytes: records * RECORD_BYTES as u64,
        dead_bytes: (total_records - records) * RECORD_BYTES as u64,
    })
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.ppdmseg")
}

/// Parses every segment file in `dir`, in file-name (= append) order.
/// Errors on the first unreadable or corrupt segment — the caller treats
/// the store as all-or-nothing.
fn scan(dir: &Path) -> io::Result<Vec<(u64, PathBuf, Vec<Record>)>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".ppdmseg"))
        else {
            continue;
        };
        let index: u64 = stem
            .parse()
            .map_err(|_| invalid(format!("segment file {name} has a malformed index")))?;
        found.push((index, path));
    }
    found.sort_unstable();
    let mut segments = Vec::with_capacity(found.len());
    for (index, path) in found {
        let bytes = std::fs::read(&path)?;
        let records = parse_segment(&bytes).map_err(|e| {
            invalid(format!(
                "segment {} rejected whole: {e}",
                path.file_name().and_then(|n| n.to_str()).unwrap_or("?")
            ))
        })?;
        segments.push((index, path, records));
    }
    Ok(segments)
}

/// Replays segments in order into the live map `(unit hash, fingerprint)
/// → (bits, model hash)`, returning it with the total record count.
#[allow(clippy::type_complexity)]
fn replay(
    segments: &[(u64, PathBuf, Vec<Record>)],
) -> (HashMap<(u64, SolverFingerprint), (u64, u64)>, u64) {
    let mut live: HashMap<(u64, SolverFingerprint), (u64, u64)> = HashMap::new();
    let mut total = 0u64;
    for (_, _, records) in segments {
        total += records.len() as u64;
        for record in records {
            match *record {
                Record::Value {
                    model,
                    hash,
                    fingerprint,
                    bits,
                } => {
                    live.insert((hash, fingerprint), (bits, model));
                }
                Record::Tombstone { model } => {
                    live.retain(|_, &mut (_, m)| m != model);
                }
            }
        }
    }
    (live, total)
}

/// Serializes `records` and atomically installs them as segment `index`.
fn write_segment(dir: &Path, index: u64, records: &[Record]) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + records.len() * RECORD_BYTES);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&SOLVER_REVISION.to_le_bytes());
    bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for record in records {
        let (kind, model, hash, fingerprint, bits) = match *record {
            Record::Value {
                model,
                hash,
                fingerprint,
                bits,
            } => (KIND_VALUE, model, hash, Some(fingerprint), bits),
            Record::Tombstone { model } => (KIND_TOMBSTONE, model, 0, None, 0),
        };
        let (tag, aux_a, aux_b, aux_c) = match fingerprint {
            Some(fp) => encode_fingerprint(fp),
            None => (0, 0, 0, 0),
        };
        bytes.push(kind);
        bytes.extend_from_slice(&model.to_le_bytes());
        bytes.extend_from_slice(&hash.to_le_bytes());
        bytes.push(tag);
        bytes.extend_from_slice(&aux_a.to_le_bytes());
        bytes.extend_from_slice(&aux_b.to_le_bytes());
        bytes.extend_from_slice(&aux_c.to_le_bytes());
        bytes.extend_from_slice(&bits.to_le_bytes());
    }
    // The scratch name must be unique per writer: sibling stores share a
    // directory with other processes' saves, so a fixed `.tmp` sibling
    // would let two writers interleave and install a corrupt file under a
    // valid name.
    static SAVE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let nonce = SAVE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(segment_name(index));
    let tmp = dir.join(format!(
        "{}.{}-{nonce}.tmp",
        segment_name(index),
        std::process::id()
    ));
    let written_then_renamed =
        std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = written_then_renamed {
        // Clean up on either failure (a full disk leaves a partial tmp
        // file; the unique names would otherwise accumulate across
        // retries).
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Parses and fully validates one segment body.
fn parse_segment(bytes: &[u8]) -> io::Result<Vec<Record>> {
    if bytes.len() < HEADER_BYTES {
        return Err(invalid(format!(
            "segment is {} bytes, smaller than the {HEADER_BYTES}-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(invalid("not a marginal-cache segment (bad magic)".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "segment format version {version} is not the supported {FORMAT_VERSION}"
        )));
    }
    let solver_revision = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if solver_revision != SOLVER_REVISION {
        return Err(invalid(format!(
            "segment solver revision {solver_revision} is not the current {SOLVER_REVISION}: \
             the saving binary's solvers produced different bits, so serving its records \
             would break warm-start determinism"
        )));
    }
    let count = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    let expected = HEADER_BYTES + count * RECORD_BYTES;
    if bytes.len() != expected {
        return Err(invalid(format!(
            "segment declares {count} records ({expected} bytes) but is {} bytes",
            bytes.len()
        )));
    }
    let mut records = Vec::with_capacity(count);
    for record in bytes[HEADER_BYTES..].chunks_exact(RECORD_BYTES) {
        let kind = record[0];
        let model = u64::from_le_bytes(record[1..9].try_into().expect("8 bytes"));
        let hash = u64::from_le_bytes(record[9..17].try_into().expect("8 bytes"));
        let tag = record[17];
        let aux_a = u64::from_le_bytes(record[18..26].try_into().expect("8 bytes"));
        let aux_b = u64::from_le_bytes(record[26..34].try_into().expect("8 bytes"));
        let aux_c = u64::from_le_bytes(record[34..42].try_into().expect("8 bytes"));
        let bits = u64::from_le_bytes(record[42..50].try_into().expect("8 bytes"));
        match kind {
            KIND_VALUE => records.push(Record::Value {
                model,
                hash,
                fingerprint: decode_fingerprint(tag, aux_a, aux_b, aux_c)?,
                bits,
            }),
            KIND_TOMBSTONE => {
                if hash != 0 || tag != 0 || aux_a != 0 || aux_b != 0 || aux_c != 0 || bits != 0 {
                    return Err(invalid(
                        "tombstone record carries non-zero value fields".into(),
                    ));
                }
                records.push(Record::Tombstone { model });
            }
            k => return Err(invalid(format!("unknown record kind {k}"))),
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::super::eviction::CacheCapacity;
    use super::*;
    use std::path::PathBuf;

    const FP: SolverFingerprint = SolverFingerprint::ExactAuto;

    fn scratch(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ppd-persist-{}-{name}.mseg", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn populated() -> MarginalCache {
        let cache = MarginalCache::unbounded();
        cache.insert(0xdead_beef, SolverFingerprint::ExactAuto, 0.125);
        cache.insert(0xdead_beef, SolverFingerprint::GeneralExact, 0.12500000001);
        cache.insert(
            42,
            SolverFingerprint::Approx {
                samples_per_proposal: 300,
                base_seed: 42,
            },
            0.9999999999,
        );
        cache.insert(
            42,
            SolverFingerprint::ErrorBudget {
                epsilon_bits: 0.01f64.to_bits(),
                confidence_bits: 0.95f64.to_bits(),
                base_seed: 42,
            },
            0.333,
        );
        cache
    }

    fn models() -> HashMap<u64, u64> {
        [(0xdead_beef_u64, 1u64), (42, 2)].into_iter().collect()
    }

    #[test]
    fn round_trip_is_bit_exact_and_deterministic() {
        let dir = scratch("round-trip");
        let cache = populated();
        let report = save(&cache, &models(), &HashSet::new(), &dir).unwrap();
        assert_eq!(report.appended, 4);
        assert_eq!(report.dead_bytes, 0);
        assert_eq!(report.live_bytes, 4 * RECORD_BYTES as u64);
        assert_eq!(cache.saved(), 4);

        let restored = MarginalCache::new(4, CacheCapacity::Unbounded);
        let loaded = load(&restored, &dir).unwrap();
        assert_eq!(loaded.records, 4);
        assert_eq!(restored.loaded(), 4);
        let mut index = loaded.index.clone();
        index.sort_unstable();
        assert_eq!(index, vec![(42, 2), (0xdead_beef, 1)]);
        let (a, b) = (cache.snapshot(), restored.snapshot());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
            assert_eq!(x.2.to_bits(), y.2.to_bits(), "round-trip must be bit-exact");
        }

        // Equal content ⇒ byte-identical first segments (records are
        // sorted), so fresh-store saves are deterministic.
        let second = scratch("round-trip-2");
        save(&restored, &models(), &HashSet::new(), &second).unwrap();
        assert_eq!(
            std::fs::read(dir.join(segment_name(0))).unwrap(),
            std::fs::read(second.join(segment_name(0))).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&second);
    }

    #[test]
    fn saves_append_only_the_delta_and_tombstones_kill_on_disk_records() {
        let dir = scratch("delta");
        let cache = populated();
        assert_eq!(
            save(&cache, &models(), &HashSet::new(), &dir)
                .unwrap()
                .appended,
            4
        );
        // Quiet interval: nothing new, nothing written.
        let report = save(&cache, &models(), &HashSet::new(), &dir).unwrap();
        assert_eq!(report.appended, 0);
        assert!(!dir.join(segment_name(1)).exists(), "no empty segments");

        // One new unit: the next save appends exactly one record.
        cache.insert(77, FP, 0.5);
        let mut model_of = models();
        model_of.insert(77, 3);
        let report = save(&cache, &model_of, &HashSet::new(), &dir).unwrap();
        assert_eq!(report.appended, 1);

        // Invalidate model 1 (two records on disk): the in-memory side was
        // already dropped by the engine; the save persists the tombstone.
        let invalidated = MarginalCache::unbounded();
        invalidated.insert(
            42,
            SolverFingerprint::ErrorBudget {
                epsilon_bits: 0.01f64.to_bits(),
                confidence_bits: 0.95f64.to_bits(),
                base_seed: 42,
            },
            0.333,
        );
        invalidated.insert(
            42,
            SolverFingerprint::Approx {
                samples_per_proposal: 300,
                base_seed: 42,
            },
            0.9999999999,
        );
        invalidated.insert(77, FP, 0.5);
        let dead: HashSet<u64> = [1, 999].into_iter().collect();
        let report = save(&invalidated, &model_of, &dead, &dir).unwrap();
        assert_eq!(report.appended, 0, "no new values, just the tombstone");

        let restored = MarginalCache::unbounded();
        let loaded = load(&restored, &dir).unwrap();
        assert_eq!(loaded.records, 3, "model 1's two records are dead");
        assert_eq!(restored.get(0xdead_beef, FP), None);
        assert_eq!(restored.get(77, FP), Some(0.5));
        assert!(
            loaded.index.iter().all(|&(_, model)| model != 1),
            "tombstoned models never re-enter the reverse index"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_live_records_once_dead_bytes_dominate() {
        let dir = scratch("compact");
        let cache = MarginalCache::unbounded();
        for hash in 0..8u64 {
            cache.insert(hash, FP, hash as f64 / 8.0);
        }
        let model_of: HashMap<u64, u64> = (0..8u64).map(|h| (h, 100 + h)).collect();
        save(&cache, &model_of, &HashSet::new(), &dir).unwrap();

        // Kill 6 of 8 models: 6 dead + 1 tombstone-heavy segment pushes the
        // dead ratio over the threshold and triggers compaction.
        let survivors = MarginalCache::unbounded();
        survivors.insert(6, FP, 6.0 / 8.0);
        survivors.insert(7, FP, 7.0 / 8.0);
        let dead: HashSet<u64> = (0..6u64).map(|m| 100 + m).collect();
        let report = save(&survivors, &model_of, &dead, &dir).unwrap();
        assert!(report.compacted, "dead ratio 6/8 must compact");
        assert_eq!(report.dead_bytes, 0);
        assert_eq!(report.live_bytes, 2 * RECORD_BYTES as u64);
        let segments: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            segments.len(),
            1,
            "compaction leaves one segment: {segments:?}"
        );

        let restored = MarginalCache::unbounded();
        let loaded = load(&restored, &dir).unwrap();
        assert_eq!(loaded.records, 2);
        assert_eq!(restored.get(6, FP), Some(6.0 / 8.0));
        assert_eq!(restored.get(0, FP), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segments_reject_the_whole_load() {
        let dir = scratch("corrupt");
        let cache = populated();
        save(&cache, &models(), &HashSet::new(), &dir).unwrap();

        // A valid store plus one garbage segment: nothing loads.
        std::fs::write(dir.join(segment_name(1)), b"not a segment").unwrap();
        let restored = MarginalCache::unbounded();
        assert!(load(&restored, &dir).is_err());
        assert_eq!(restored.len(), 0, "rejected whole, not half-loaded");

        // Truncating a good segment rejects it too.
        std::fs::remove_file(dir.join(segment_name(1))).unwrap();
        let good = std::fs::read(dir.join(segment_name(0))).unwrap();
        std::fs::write(dir.join(segment_name(0)), &good[..good.len() - 7]).unwrap();
        assert!(load(&restored, &dir).is_err());
        assert_eq!(restored.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_wrong_versions_are_rejected() {
        assert!(parse_segment(b"short").is_err());
        assert!(parse_segment(&[0u8; HEADER_BYTES]).is_err(), "bad magic");

        let mut wrong_version = Vec::new();
        wrong_version.extend_from_slice(&MAGIC);
        wrong_version.extend_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        wrong_version.extend_from_slice(&SOLVER_REVISION.to_le_bytes());
        wrong_version.extend_from_slice(&0u64.to_le_bytes());
        assert!(parse_segment(&wrong_version).is_err());

        // A segment written by the previous solvers, or by later ones.
        for revision in [SOLVER_REVISION - 1, SOLVER_REVISION + 1] {
            let mut wrong_revision = Vec::new();
            wrong_revision.extend_from_slice(&MAGIC);
            wrong_revision.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            wrong_revision.extend_from_slice(&revision.to_le_bytes());
            wrong_revision.extend_from_slice(&0u64.to_le_bytes());
            assert!(
                parse_segment(&wrong_revision).is_err(),
                "a segment from solvers with different bits must be rejected"
            );
        }

        let mut truncated = Vec::new();
        truncated.extend_from_slice(&MAGIC);
        truncated.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        truncated.extend_from_slice(&SOLVER_REVISION.to_le_bytes());
        truncated.extend_from_slice(&2u64.to_le_bytes());
        truncated.extend_from_slice(&[0u8; RECORD_BYTES]); // one of two records
        assert!(parse_segment(&truncated).is_err());

        let mut bad_tag = Vec::new();
        bad_tag.extend_from_slice(&MAGIC);
        bad_tag.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bad_tag.extend_from_slice(&SOLVER_REVISION.to_le_bytes());
        bad_tag.extend_from_slice(&1u64.to_le_bytes());
        let mut record = [0u8; RECORD_BYTES];
        record[17] = 7; // unknown fingerprint tag on a value record
        bad_tag.extend_from_slice(&record);
        assert!(parse_segment(&bad_tag).is_err());

        let mut dirty_tombstone = Vec::new();
        dirty_tombstone.extend_from_slice(&MAGIC);
        dirty_tombstone.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        dirty_tombstone.extend_from_slice(&SOLVER_REVISION.to_le_bytes());
        dirty_tombstone.extend_from_slice(&1u64.to_le_bytes());
        let mut record = [0u8; RECORD_BYTES];
        record[0] = KIND_TOMBSTONE;
        record[42] = 3; // non-zero probability bits on a tombstone
        dirty_tombstone.extend_from_slice(&record);
        assert!(parse_segment(&dirty_tombstone).is_err());
    }

    #[test]
    fn empty_cache_round_trips() {
        let dir = scratch("empty");
        let cache = MarginalCache::unbounded();
        let report = save(&cache, &HashMap::new(), &HashSet::new(), &dir).unwrap();
        assert_eq!(report.appended, 0);
        let restored = MarginalCache::unbounded();
        assert_eq!(load(&restored, &dir).unwrap().records, 0);
        assert_eq!(restored.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
