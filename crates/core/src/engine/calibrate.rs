//! Measured-cost calibration: the store that turns wall-clock solve
//! timings into unit-cost estimates for scheduling and eviction.
//!
//! The static [`cost::unit_cost`](super::cost::unit_cost) formula predicts
//! relative solver effort from structure alone (class, `m`, pattern
//! widths). It is a pure function of unit content — which the determinism
//! contract needs — but its constants are guesses, and on real hardware a
//! "cheap" bipartite unit can outweigh an "expensive" two-label one. This
//! module records what solving actually cost and blends it back in:
//!
//! 1. **Exact key hit** — the scheduler timed this exact `(content hash,
//!    solver fingerprint)` before: use the measured seconds directly.
//! 2. **Bucket geomean** — no exact hit, but units of the same *bucket*
//!    (union class × `⌈log₂ m⌉` × solver family) were measured: scale the
//!    static cost by the bucket's running geometric mean of
//!    `measured / static` ratios. The geomean is the right average for a
//!    multiplicative correction — one 100× outlier shifts it by its log,
//!    not its magnitude.
//! 3. **Cold store** — neither: fall back to the static formula scaled by
//!    [`NOMINAL_SECONDS_PER_COST`]. A constant scale preserves the static
//!    order exactly, so a cold engine schedules as if calibration did not
//!    exist.
//!
//! Calibrated costs steer **wall-clock only**: wave ordering (LPT
//! makespan) and byte-mode cache eviction weights. Seeds, cache keys, and
//! solver selection stay pure functions of content, so answers are
//! bit-identical whether the store is warm, cold, or absent — the
//! determinism suites pin this.
//!
//! Like the marginal cache, the store is sharded (same multiply-xorshift
//! shard selection), bounded (FIFO per shard — timings do not need LRU
//! recency), and snapshot-persistable in a versioned, endian-stable binary
//! format (magic `PPDCALIB`) that is rejected whole on any corruption.
//! Bucket aggregates are *not* persisted: they are rebuilt from the
//! retained entries on load, so save → load → save round-trips
//! byte-identically.

use super::cache::persist::{decode_fingerprint, encode_fingerprint, SOLVER_REVISION};
use super::cache::SolverFingerprint;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Error, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Seconds one abstract static-cost unit is nominally worth (one
/// nanosecond-scale DP step). Cold-store estimates are `static × this`, a
/// constant scale that cannot reorder anything relative to the static
/// formula.
pub(crate) const NOMINAL_SECONDS_PER_COST: f64 = 1e-9;

/// Floor for recorded timings: a sub-picosecond (or zero) measurement
/// would make the log-ratio blow up, and below this resolution the clock
/// is noise anyway.
const MIN_SECONDS: f64 = 1e-12;

/// One snapshot row: `(hash, fingerprint, bucket, seconds, ln_ratio)` —
/// the wire shape [`CalibrationStore::snapshot`] emits, [`parse`] decodes,
/// and [`CalibrationStore::absorb`] installs.
pub(crate) type SnapshotEntry = (u64, SolverFingerprint, BucketKey, f64, f64);

/// The coarse similarity class a measurement generalizes over when no
/// exact key hit is available: union class × item-count magnitude × solver
/// family. Buckets are deliberately coarse — the point is a robust
/// multiplicative correction from a handful of samples, not a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct BucketKey {
    /// Union class: `0` two-label, `1` bipartite, `2` general.
    pub(crate) class: u8,
    /// `⌈log₂ m⌉` of the model's item count (0 for `m ≤ 1`).
    pub(crate) m_bucket: u8,
    /// The solver fingerprint's on-disk tag (see
    /// [`encode_fingerprint`]) — exact and sampled timings must not mix.
    pub(crate) solver: u8,
}

impl BucketKey {
    /// Builds the bucket for a unit: class tag, item count, and the solver
    /// fingerprint whose timing is being generalized.
    pub(crate) fn from_parts(class: u8, m: usize, fingerprint: SolverFingerprint) -> Self {
        let m_bucket = if m <= 1 { 0 } else { (m - 1).ilog2() as u8 + 1 };
        BucketKey {
            class,
            m_bucket,
            solver: encode_fingerprint(fingerprint).0,
        }
    }
}

/// One measured timing.
#[derive(Debug, Clone, Copy)]
struct CalEntry {
    bucket: BucketKey,
    /// Measured wall-clock seconds of the solve.
    seconds: f64,
    /// `ln(seconds / (static_cost × NOMINAL_SECONDS_PER_COST))` at record
    /// time — the bucket aggregates sum these, so the geomean correction
    /// is `exp(mean)`.
    ln_ratio: f64,
}

/// One lock's worth of the store. FIFO-bounded: `queue` holds insertion
/// order, and the oldest entry is dropped when `cap` is exceeded.
#[derive(Debug)]
struct CalShard {
    entries: HashMap<(u64, SolverFingerprint), CalEntry>,
    queue: VecDeque<(u64, SolverFingerprint)>,
    cap: usize,
}

impl CalShard {
    fn new(cap: usize) -> Self {
        CalShard {
            entries: HashMap::new(),
            queue: VecDeque::new(),
            cap: cap.max(1),
        }
    }
}

/// Engine-lifetime map from `(unit content hash, solver fingerprint)` to
/// measured solve time, with per-bucket geomean fallback. Shares the
/// marginal cache's content-addressing: entries are valid in any process,
/// so snapshots warm-start cost estimates across restarts.
#[derive(Debug)]
pub(crate) struct CalibrationStore {
    shards: Box<[Mutex<CalShard>]>,
    /// `bucket → (Σ ln_ratio, count)` over the *currently retained*
    /// entries; evictions subtract their contribution.
    aggregates: Mutex<HashMap<BucketKey, (f64, u64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recorded: AtomicU64,
    loaded: AtomicU64,
    saved: AtomicU64,
}

impl CalibrationStore {
    /// A store with `shards` partitions (clamped to at least one) sharing
    /// `capacity` entries evenly.
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        CalibrationStore {
            shards: (0..shards)
                .map(|_| Mutex::new(CalShard::new(per_shard)))
                .collect(),
            aggregates: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            saved: AtomicU64::new(0),
        }
    }

    /// Same finalization + reduction as the marginal cache's shard
    /// selection (FNV-1a's low bits are weak).
    fn shard(&self, hash: u64) -> &Mutex<CalShard> {
        let mixed = (hash ^ (hash >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let index = (mixed >> 32) as usize % self.shards.len();
        &self.shards[index]
    }

    /// Records a measured solve time against the static cost it is
    /// calibrating. Non-finite or negative timings are dropped (a clock
    /// step backwards must not poison the aggregates).
    pub(crate) fn record(
        &self,
        hash: u64,
        fingerprint: SolverFingerprint,
        bucket: BucketKey,
        seconds: f64,
        static_cost: f64,
    ) {
        if !seconds.is_finite() || seconds < 0.0 || static_cost.is_nan() || static_cost <= 0.0 {
            return;
        }
        let ln_ratio = (seconds.max(MIN_SECONDS) / (static_cost * NOMINAL_SECONDS_PER_COST)).ln();
        self.insert_entry(
            hash,
            fingerprint,
            CalEntry {
                bucket,
                seconds,
                ln_ratio,
            },
        );
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    fn insert_entry(&self, hash: u64, fingerprint: SolverFingerprint, entry: CalEntry) {
        let key = (hash, fingerprint);
        let mut shard = self.shard(hash).lock().expect("calibration shard poisoned");
        let (removed, evicted) = match shard.entries.insert(key, entry) {
            Some(old) => (Some(old), None),
            None => {
                shard.queue.push_back(key);
                if shard.queue.len() > shard.cap {
                    let victim = shard.queue.pop_front().expect("queue non-empty");
                    (None, shard.entries.remove(&victim))
                } else {
                    (None, None)
                }
            }
        };
        drop(shard);
        let mut aggregates = self
            .aggregates
            .lock()
            .expect("calibration aggregates poisoned");
        for old in removed.iter().chain(evicted.iter()) {
            if let Some(slot) = aggregates.get_mut(&old.bucket) {
                slot.0 -= old.ln_ratio;
                slot.1 = slot.1.saturating_sub(1);
                if slot.1 == 0 {
                    aggregates.remove(&old.bucket);
                }
            }
        }
        let slot = aggregates.entry(entry.bucket).or_insert((0.0, 0));
        slot.0 += entry.ln_ratio;
        slot.1 += 1;
    }

    /// The calibrated cost estimate, in seconds, for a unit with the given
    /// static cost. Applies the blend described in the module docs and
    /// counts the lookup as a hit (exact measured key) or a miss (bucket
    /// or static fallback).
    pub(crate) fn cost_estimate(
        &self,
        hash: u64,
        fingerprint: SolverFingerprint,
        bucket: BucketKey,
        static_cost: f64,
    ) -> f64 {
        let measured = self
            .shard(hash)
            .lock()
            .expect("calibration shard poisoned")
            .entries
            .get(&(hash, fingerprint))
            .map(|entry| entry.seconds);
        if let Some(seconds) = measured {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return seconds;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let base = static_cost * NOMINAL_SECONDS_PER_COST;
        match self.bucket_factor(bucket) {
            Some(factor) => base * factor,
            None => base,
        }
    }

    /// The bucket's geomean `measured / static` correction, if any of its
    /// timings are retained.
    pub(crate) fn bucket_factor(&self, bucket: BucketKey) -> Option<f64> {
        let aggregates = self
            .aggregates
            .lock()
            .expect("calibration aggregates poisoned");
        aggregates
            .get(&bucket)
            .filter(|(_, count)| *count > 0)
            .map(|(sum, count)| (sum / *count as f64).exp())
    }

    /// Installs snapshot entries (latest wins on key conflicts, honouring
    /// the FIFO bound), counted separately from live recordings.
    pub(crate) fn absorb(
        &self,
        entries: impl IntoIterator<Item = (u64, SolverFingerprint, BucketKey, f64, f64)>,
    ) {
        let mut loaded = 0;
        for (hash, fingerprint, bucket, seconds, ln_ratio) in entries {
            self.insert_entry(
                hash,
                fingerprint,
                CalEntry {
                    bucket,
                    seconds,
                    ln_ratio,
                },
            );
            loaded += 1;
        }
        self.loaded.fetch_add(loaded, Ordering::Relaxed);
    }

    /// Removes every retained timing for the given content hashes (all
    /// fingerprints of each), unwinding their bucket-aggregate
    /// contributions exactly like eviction does. Returns the number of
    /// entries dropped. Serves invalidation: timings of a unit whose
    /// content no longer exists must not steer scheduling.
    pub(crate) fn remove_hashes(&self, hashes: &std::collections::HashSet<u64>) -> u64 {
        let mut dropped: Vec<CalEntry> = Vec::new();
        for &hash in hashes {
            let mut shard = self.shard(hash).lock().expect("calibration shard poisoned");
            let keys: Vec<(u64, SolverFingerprint)> = shard
                .entries
                .keys()
                .filter(|&&(h, _)| h == hash)
                .copied()
                .collect();
            if keys.is_empty() {
                continue;
            }
            for key in &keys {
                if let Some(entry) = shard.entries.remove(key) {
                    dropped.push(entry);
                }
            }
            shard.queue.retain(|key| key.0 != hash);
        }
        if dropped.is_empty() {
            return 0;
        }
        let mut aggregates = self
            .aggregates
            .lock()
            .expect("calibration aggregates poisoned");
        for old in &dropped {
            if let Some(slot) = aggregates.get_mut(&old.bucket) {
                slot.0 -= old.ln_ratio;
                slot.1 = slot.1.saturating_sub(1);
                if slot.1 == 0 {
                    aggregates.remove(&old.bucket);
                }
            }
        }
        dropped.len() as u64
    }

    /// Every retained timing, sorted by `(hash, fingerprint)` so snapshots
    /// of equal content are byte-identical.
    pub(crate) fn snapshot(&self) -> Vec<SnapshotEntry> {
        let mut entries: Vec<_> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("calibration shard poisoned")
                    .entries
                    .iter()
                    .map(|(&(hash, fp), e)| (hash, fp, e.bucket, e.seconds, e.ln_ratio))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by_key(|&(hash, fingerprint, ..)| (hash, fingerprint));
        entries
    }

    pub(crate) fn record_saved(&self, entries: u64) {
        self.saved.fetch_add(entries, Ordering::Relaxed);
    }

    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("calibration shard poisoned")
                    .entries
                    .len()
            })
            .sum()
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }
}

/// Magic prefix of a calibration snapshot.
const MAGIC: [u8; 8] = *b"PPDCALIB";
/// Current snapshot format version.
const FORMAT_VERSION: u32 = 1;
/// Header: magic + format version + solver revision + entry count. The
/// solver revision is shared with the marginal cache: a solver change that
/// moves output bits also changes how long solving takes, so stale timings
/// reload from scratch with the stale marginals.
const HEADER_BYTES: usize = 8 + 4 + 4 + 8;
/// One entry: hash + fingerprint (tag + 3 aux) + bucket (class +
/// m_bucket) + seconds bits + ln_ratio bits.
const ENTRY_BYTES: usize = 8 + 1 + 8 + 8 + 8 + 1 + 1 + 8 + 8;

fn invalid(message: String) -> Error {
    Error::new(ErrorKind::InvalidData, message)
}

/// Serializes the store and atomically replaces `path` with it. Returns
/// the number of entries written.
pub(crate) fn save(store: &CalibrationStore, path: &Path) -> io::Result<u64> {
    let entries = store.snapshot();
    let mut bytes = Vec::with_capacity(HEADER_BYTES + entries.len() * ENTRY_BYTES);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&SOLVER_REVISION.to_le_bytes());
    bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for &(hash, fingerprint, bucket, seconds, ln_ratio) in &entries {
        let (tag, aux_a, aux_b, aux_c) = encode_fingerprint(fingerprint);
        bytes.extend_from_slice(&hash.to_le_bytes());
        bytes.push(tag);
        bytes.extend_from_slice(&aux_a.to_le_bytes());
        bytes.extend_from_slice(&aux_b.to_le_bytes());
        bytes.extend_from_slice(&aux_c.to_le_bytes());
        bytes.push(bucket.class);
        bytes.push(bucket.m_bucket);
        bytes.extend_from_slice(&seconds.to_bits().to_le_bytes());
        bytes.extend_from_slice(&ln_ratio.to_bits().to_le_bytes());
    }
    // Unique scratch name per writer, same reasoning as the marginal
    // cache's save path: concurrent saves must not interleave into a
    // corrupt file under a valid name.
    static SAVE_COUNTER: AtomicU64 = AtomicU64::new(0);
    let nonce = SAVE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".{}-{nonce}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written_then_renamed =
        std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written_then_renamed {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    let written = entries.len() as u64;
    store.record_saved(written);
    Ok(written)
}

/// Loads a snapshot into the store. Returns the number of entries read
/// from the file; the file is either understood exactly or rejected whole.
pub(crate) fn load(store: &CalibrationStore, path: &Path) -> io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let entries = parse(&bytes)?;
    let count = entries.len() as u64;
    store.absorb(entries);
    Ok(count)
}

/// Parses and fully validates a snapshot body.
fn parse(bytes: &[u8]) -> io::Result<Vec<SnapshotEntry>> {
    if bytes.len() < HEADER_BYTES {
        return Err(invalid(format!(
            "calibration snapshot is {} bytes, smaller than the {HEADER_BYTES}-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(invalid(
            "not a calibration snapshot (bad magic)".to_string(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "calibration format version {version} is not the supported {FORMAT_VERSION}"
        )));
    }
    let solver_revision = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if solver_revision != SOLVER_REVISION {
        return Err(invalid(format!(
            "calibration snapshot solver revision {solver_revision} is not the current \
             {SOLVER_REVISION}: timings of different solver code are not comparable"
        )));
    }
    let count = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    let expected = HEADER_BYTES + count * ENTRY_BYTES;
    if bytes.len() != expected {
        return Err(invalid(format!(
            "calibration snapshot declares {count} entries ({expected} bytes) but is {} bytes",
            bytes.len()
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for record in bytes[HEADER_BYTES..].chunks_exact(ENTRY_BYTES) {
        let hash = u64::from_le_bytes(record[0..8].try_into().expect("8 bytes"));
        let tag = record[8];
        let aux_a = u64::from_le_bytes(record[9..17].try_into().expect("8 bytes"));
        let aux_b = u64::from_le_bytes(record[17..25].try_into().expect("8 bytes"));
        let aux_c = u64::from_le_bytes(record[25..33].try_into().expect("8 bytes"));
        let class = record[33];
        let m_bucket = record[34];
        let seconds = f64::from_bits(u64::from_le_bytes(record[35..43].try_into().expect("8")));
        let ln_ratio = f64::from_bits(u64::from_le_bytes(record[43..51].try_into().expect("8")));
        let fingerprint = decode_fingerprint(tag, aux_a, aux_b, aux_c)?;
        if class > 2 {
            return Err(invalid(format!("unknown union class tag {class}")));
        }
        if !seconds.is_finite() || seconds < 0.0 || !ln_ratio.is_finite() {
            return Err(invalid(
                "calibration entry carries a non-finite timing".to_string(),
            ));
        }
        let bucket = BucketKey {
            class,
            m_bucket,
            solver: tag,
        };
        entries.push((hash, fingerprint, bucket, seconds, ln_ratio));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const FP: SolverFingerprint = SolverFingerprint::ExactAuto;

    fn bucket(class: u8, m: usize) -> BucketKey {
        BucketKey::from_parts(class, m, FP)
    }

    fn scratch(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ppd-calib-{}-{name}.calib", std::process::id()));
        path
    }

    #[test]
    fn m_buckets_are_ceil_log2() {
        assert_eq!(bucket(0, 0).m_bucket, 0);
        assert_eq!(bucket(0, 1).m_bucket, 0);
        assert_eq!(bucket(0, 2).m_bucket, 1);
        assert_eq!(bucket(0, 3).m_bucket, 2);
        assert_eq!(bucket(0, 4).m_bucket, 2);
        assert_eq!(bucket(0, 5).m_bucket, 3);
        assert_eq!(bucket(0, 8).m_bucket, 3);
        assert_eq!(bucket(0, 9).m_bucket, 4);
    }

    #[test]
    fn exact_hits_beat_buckets_beat_static() {
        let store = CalibrationStore::new(4, 1024);
        let b = bucket(1, 8);
        // Cold: the static fallback is a constant scale of the formula.
        let static_cost = 2_000.0;
        let cold = store.cost_estimate(1, FP, b, static_cost);
        assert_eq!(cold, static_cost * NOMINAL_SECONDS_PER_COST);
        assert_eq!(store.hits(), 0);
        assert_eq!(store.misses(), 1);

        // One measurement 100× over nominal: same-bucket strangers scale.
        store.record(
            1,
            FP,
            b,
            100.0 * static_cost * NOMINAL_SECONDS_PER_COST,
            static_cost,
        );
        assert_eq!(store.recorded(), 1);
        let same_key = store.cost_estimate(1, FP, b, static_cost);
        assert_eq!(same_key, 100.0 * static_cost * NOMINAL_SECONDS_PER_COST);
        assert_eq!(store.hits(), 1);

        let stranger = store.cost_estimate(2, FP, b, 500.0);
        let expect = 500.0 * NOMINAL_SECONDS_PER_COST * 100.0;
        assert!(
            (stranger / expect - 1.0).abs() < 1e-9,
            "bucket factor should be ~100×: got {stranger}, want {expect}"
        );
        // A different bucket is untouched.
        let other = store.cost_estimate(3, FP, bucket(2, 8), 500.0);
        assert_eq!(other, 500.0 * NOMINAL_SECONDS_PER_COST);
    }

    #[test]
    fn bucket_factor_is_a_geomean() {
        let store = CalibrationStore::new(1, 1024);
        let b = bucket(0, 4);
        // Ratios 10× and 1000× → geomean 100×.
        store.record(1, FP, b, 10.0 * NOMINAL_SECONDS_PER_COST, 1.0);
        store.record(2, FP, b, 1000.0 * NOMINAL_SECONDS_PER_COST, 1.0);
        let factor = store.bucket_factor(b).unwrap();
        assert!((factor / 100.0 - 1.0).abs() < 1e-9, "got {factor}");
    }

    #[test]
    fn re_recording_replaces_and_keeps_aggregates_consistent() {
        let store = CalibrationStore::new(2, 1024);
        let b = bucket(0, 4);
        store.record(7, FP, b, 10.0 * NOMINAL_SECONDS_PER_COST, 1.0);
        store.record(7, FP, b, 1000.0 * NOMINAL_SECONDS_PER_COST, 1.0);
        assert_eq!(store.len(), 1);
        // The aggregate must reflect only the latest timing, not both.
        let factor = store.bucket_factor(b).unwrap();
        assert!((factor / 1000.0 - 1.0).abs() < 1e-9, "got {factor}");
        assert_eq!(
            store.cost_estimate(7, FP, b, 1.0),
            1000.0 * NOMINAL_SECONDS_PER_COST
        );
    }

    #[test]
    fn the_store_is_bounded_and_evictions_unwind_aggregates() {
        let store = CalibrationStore::new(1, 4);
        let b = bucket(0, 4);
        for hash in 0..32u64 {
            store.record(hash, FP, b, 10.0 * NOMINAL_SECONDS_PER_COST, 1.0);
        }
        assert!(store.len() <= 4, "len {} over the bound", store.len());
        // All retained entries have ratio 10 — so must the aggregate.
        let factor = store.bucket_factor(b).unwrap();
        assert!((factor / 10.0 - 1.0).abs() < 1e-9, "got {factor}");
    }

    #[test]
    fn remove_hashes_unwinds_aggregates_and_the_fifo_queue() {
        let store = CalibrationStore::new(2, 1024);
        let b = bucket(0, 4);
        store.record(1, FP, b, 10.0 * NOMINAL_SECONDS_PER_COST, 1.0);
        store.record(
            1,
            SolverFingerprint::GeneralExact,
            b,
            10.0 * NOMINAL_SECONDS_PER_COST,
            1.0,
        );
        store.record(2, FP, b, 1000.0 * NOMINAL_SECONDS_PER_COST, 1.0);
        let doomed: std::collections::HashSet<u64> = [2, 99].into_iter().collect();
        assert_eq!(store.remove_hashes(&doomed), 1);
        assert_eq!(store.len(), 2);
        // Only ratio-10 entries remain, so the aggregate must be exactly 10.
        let factor = store.bucket_factor(b).unwrap();
        assert!((factor / 10.0 - 1.0).abs() < 1e-9, "got {factor}");
        // The removed key's estimate falls back to the bucket, not a hit.
        let est = store.cost_estimate(2, FP, b, 1.0);
        assert!((est / (10.0 * NOMINAL_SECONDS_PER_COST) - 1.0).abs() < 1e-9);
        // Removing both fingerprints of a hash in one call.
        let both: std::collections::HashSet<u64> = [1].into_iter().collect();
        assert_eq!(store.remove_hashes(&both), 2);
        assert_eq!(store.len(), 0);
        assert!(store.bucket_factor(b).is_none());
    }

    #[test]
    fn degenerate_timings_are_dropped() {
        let store = CalibrationStore::new(1, 16);
        let b = bucket(0, 4);
        store.record(1, FP, b, f64::NAN, 1.0);
        store.record(2, FP, b, -1.0, 1.0);
        store.record(3, FP, b, 1.0, 0.0);
        store.record(4, FP, b, 1.0, f64::NAN);
        assert_eq!(store.len(), 0);
        // A zero timing is clamped, not dropped — instant solves are real.
        store.record(5, FP, b, 0.0, 1.0);
        assert_eq!(store.len(), 1);
        assert!(store.bucket_factor(b).unwrap().is_finite());
    }

    #[test]
    fn snapshots_round_trip_byte_identically() {
        let store = CalibrationStore::new(4, 1024);
        store.record(0xdead_beef, FP, bucket(0, 6), 1.5e-6, 300.0);
        store.record(
            42,
            SolverFingerprint::Approx {
                samples_per_proposal: 300,
                base_seed: 42,
            },
            BucketKey::from_parts(
                2,
                9,
                SolverFingerprint::Approx {
                    samples_per_proposal: 300,
                    base_seed: 42,
                },
            ),
            3.25e-3,
            1e6,
        );
        store.record(
            7,
            SolverFingerprint::ErrorBudget {
                epsilon_bits: 0.01f64.to_bits(),
                confidence_bits: 0.95f64.to_bits(),
                base_seed: 1,
            },
            BucketKey::from_parts(
                1,
                12,
                SolverFingerprint::ErrorBudget {
                    epsilon_bits: 0.01f64.to_bits(),
                    confidence_bits: 0.95f64.to_bits(),
                    base_seed: 1,
                },
            ),
            0.125,
            1e7,
        );

        let path = scratch("round-trip");
        assert_eq!(save(&store, &path).unwrap(), 3);
        let restored = CalibrationStore::new(16, 1024);
        assert_eq!(load(&restored, &path).unwrap(), 3);
        let (a, b) = (store.snapshot(), restored.snapshot());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.0, x.1, x.2), (y.0, y.1, y.2));
            assert_eq!(x.3.to_bits(), y.3.to_bits());
            assert_eq!(x.4.to_bits(), y.4.to_bits());
        }
        // Rebuilt aggregates must answer like the original's.
        let q = store.cost_estimate(99, FP, bucket(0, 6), 100.0);
        let r = restored.cost_estimate(99, FP, bucket(0, 6), 100.0);
        assert_eq!(q.to_bits(), r.to_bits());

        // Equal content ⇒ byte-identical files (save → load → save).
        let second = scratch("round-trip-2");
        save(&restored, &second).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&second).unwrap()
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&second);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_whole() {
        assert!(parse(b"short").is_err());
        assert!(parse(&[0u8; HEADER_BYTES]).is_err(), "bad magic");

        let header = |version: u32, revision: u32, count: u64| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&revision.to_le_bytes());
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes
        };
        assert!(parse(&header(FORMAT_VERSION + 1, SOLVER_REVISION, 0)).is_err());
        assert!(parse(&header(FORMAT_VERSION, SOLVER_REVISION + 1, 0)).is_err());

        let mut truncated = header(FORMAT_VERSION, SOLVER_REVISION, 2);
        truncated.extend_from_slice(&[0u8; ENTRY_BYTES]);
        assert!(parse(&truncated).is_err());

        let mut bad_tag = header(FORMAT_VERSION, SOLVER_REVISION, 1);
        let mut record = [0u8; ENTRY_BYTES];
        record[8] = 9; // unknown fingerprint tag
        bad_tag.extend_from_slice(&record);
        assert!(parse(&bad_tag).is_err());

        let mut bad_class = header(FORMAT_VERSION, SOLVER_REVISION, 1);
        let mut record = [0u8; ENTRY_BYTES];
        record[33] = 7; // unknown union class
        bad_class.extend_from_slice(&record);
        assert!(parse(&bad_class).is_err());

        let mut bad_float = header(FORMAT_VERSION, SOLVER_REVISION, 1);
        let mut record = [0u8; ENTRY_BYTES];
        record[35..43].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        bad_float.extend_from_slice(&record);
        assert!(parse(&bad_float).is_err());

        // Valid files still load after all that rejection.
        let store = CalibrationStore::new(1, 16);
        store.record(1, FP, bucket(0, 4), 1e-6, 10.0);
        let path = scratch("valid");
        save(&store, &path).unwrap();
        let fresh = CalibrationStore::new(1, 16);
        assert_eq!(load(&fresh, &path).unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
