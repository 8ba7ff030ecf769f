//! Sharded on-disk second tier for the [`EvalCache`](crate::EvalCache).
//!
//! PR 5's service mode showed the warm-cache effect (hundreds of
//! cross-job hits) but the warmth died with the process. The disk tier
//! makes it durable and shareable: evaluations are appended to
//! **segment files** under a shared directory, one subdirectory per
//! cache shard, and every worker process pointed at the directory can
//! consult entries any other worker computed — across daemon restarts.
//!
//! # Layout
//!
//! ```text
//! <dir>/shard-00/seg-<pid>-<instance>-<seq>.trace
//! <dir>/shard-01/...
//! ```
//!
//! Each segment is a complete golden trace in the existing
//! `unico.evaltrace.v1` format (header with entry count, one
//! `<key-hex> <value>` line per entry, floats as IEEE-754 bit
//! patterns), so segment contents are byte-for-byte reproducible and
//! round-trip bit-exactly. Segments are staged as a uniquely named
//! `.tmp` file and atomically renamed into place; readers only ever see
//! complete segments from a well-behaved writer. A torn or truncated
//! segment (crash leftover, manual tampering) fails the header-count or
//! line parse and is **skipped and counted**, never trusted.
//!
//! # Determinism
//!
//! A disk hit returns the exact bits a compute would have produced (the
//! trace encoding is bit-exact), and the in-memory cache counts the
//! lookup as a miss either way — so run reports, traces and Pareto
//! fronts are byte-identical whether the tier is cold, warm or absent.
//! Only the [`DiskTierStats`] counters differ.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::evalcache::{
    parse_trace_entries, push_trace_header, push_trace_line, EvalKey, EvalResult, PassThroughState,
    SHARD_COUNT,
};

/// Entries buffered per shard before an automatic segment flush.
const FLUSH_THRESHOLD: usize = 256;

/// Aggregated disk-tier counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Lookups answered from the on-disk index.
    pub hits: u64,
    /// Lookups the disk tier could not answer.
    pub misses: u64,
    /// Entries currently resident in the index.
    pub entries: u64,
    /// Segment files parsed and merged.
    pub segments_loaded: u64,
    /// Torn / truncated / foreign files skipped (never trusted).
    pub segments_skipped: u64,
    /// Segment files written by this instance.
    pub segments_written: u64,
    /// Entries written into segments by this instance.
    pub entries_written: u64,
    /// Segment writes that failed with an I/O error (entries retained
    /// in memory and retried at the next flush).
    pub write_errors: u64,
}

impl DiskTierStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

#[derive(Debug, Default)]
struct DiskShard {
    index: HashMap<EvalKey, EvalResult, PassThroughState>,
    pending: Vec<(EvalKey, EvalResult)>,
    /// Segment file names already merged (or skipped) — refresh() only
    /// parses files it has not seen.
    seen: HashSet<String>,
}

/// A sharded, append-only on-disk store of PPA evaluations shared by
/// every worker pointed at the same directory. See the module docs.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    /// Distinguishes segment names when several instances share one
    /// process (in-process worker fleets in tests and examples).
    instance: u64,
    seq: AtomicU64,
    shards: Vec<Mutex<DiskShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    segments_loaded: AtomicU64,
    segments_skipped: AtomicU64,
    segments_written: AtomicU64,
    entries_written: AtomicU64,
    write_errors: AtomicU64,
}

fn shard_dir(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:02}"))
}

impl DiskTier {
    /// Opens (creating if absent) a disk tier rooted at `dir` and loads
    /// every readable segment into the in-memory index.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and directory-listing failures.
    /// Unreadable or torn *segment files* are skipped and counted, not
    /// errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskTier> {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let dir = dir.into();
        for s in 0..SHARD_COUNT {
            fs::create_dir_all(shard_dir(&dir, s))?;
        }
        let tier = DiskTier {
            dir,
            instance: INSTANCE.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            segments_loaded: AtomicU64::new(0),
            segments_skipped: AtomicU64::new(0),
            segments_written: AtomicU64::new(0),
            entries_written: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        };
        tier.refresh()?;
        Ok(tier)
    }

    /// The root directory of the tier.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Scans every shard directory for segment files not yet merged and
    /// folds their entries into the index. Returns the number of new
    /// entries. Workers call this at job boundaries to pick up segments
    /// their peers flushed.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures only; torn segments and
    /// files that vanish mid-scan (a peer's staging `.tmp` getting
    /// renamed) are tolerated.
    pub fn refresh(&self) -> io::Result<usize> {
        let mut merged = 0usize;
        for s in 0..SHARD_COUNT {
            let dir = shard_dir(&self.dir, s);
            let mut fresh: Vec<(String, PathBuf)> = Vec::new();
            {
                let shard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
                for entry in fs::read_dir(&dir)? {
                    let entry = entry?;
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if !name.ends_with(".trace") || shard.seen.contains(&name) {
                        continue;
                    }
                    fresh.push((name, entry.path()));
                }
            }
            // Deterministic merge order (writers never rewrite a
            // segment, so order only affects first-writer-wins on
            // duplicate keys — and duplicates hold identical bits).
            fresh.sort();
            for (name, path) in fresh {
                let text = match fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(_) => {
                        self.segments_skipped.fetch_add(1, Ordering::Relaxed);
                        let mut shard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
                        shard.seen.insert(name);
                        continue;
                    }
                };
                let mut shard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
                shard.seen.insert(name);
                match parse_trace_entries(&text) {
                    Ok(entries) => {
                        self.segments_loaded.fetch_add(1, Ordering::Relaxed);
                        for (k, v) in entries {
                            if shard.index.contains_key(&k) {
                                continue;
                            }
                            shard.index.insert(k, v);
                            merged += 1;
                        }
                    }
                    Err(_) => {
                        self.segments_skipped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        Ok(merged)
    }

    /// Looks `key` up in the on-disk index.
    pub fn lookup(&self, key: EvalKey) -> Option<EvalResult> {
        let shard = self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let v = shard.index.get(&key).copied();
        if v.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Records a freshly computed entry for the next segment flush.
    /// Entries already in the index are skipped, so re-recording a
    /// loaded trace (checkpoint resume) writes nothing twice.
    pub fn record(&self, key: EvalKey, value: EvalResult) {
        let s = key.shard();
        let flush_now = {
            let mut shard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
            if shard.index.contains_key(&key) {
                return;
            }
            shard.index.insert(key, value);
            shard.pending.push((key, value));
            shard.pending.len() >= FLUSH_THRESHOLD
        };
        if flush_now {
            self.flush_shard(s);
        }
    }

    /// Writes every shard's pending entries out as new segment files.
    /// Returns the number of entries flushed. I/O failures are counted
    /// in [`DiskTierStats::write_errors`] and the entries are retained
    /// for the next flush — the tier degrades to memory-only rather
    /// than failing the run.
    pub fn flush(&self) -> usize {
        (0..SHARD_COUNT).map(|s| self.flush_shard(s)).sum()
    }

    fn flush_shard(&self, s: usize) -> usize {
        let mut shard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
        if shard.pending.is_empty() {
            return 0;
        }
        let mut entries = std::mem::take(&mut shard.pending);
        entries.sort_by_key(|(k, _)| *k);
        let mut text = String::with_capacity(16 + entries.len() * 120);
        push_trace_header(entries.len(), &mut text);
        for (k, v) in &entries {
            push_trace_line(*k, v, &mut text);
        }
        let name = format!(
            "seg-{}-{}-{:06}.trace",
            std::process::id(),
            self.instance,
            self.seq.fetch_add(1, Ordering::Relaxed)
        );
        let dir = shard_dir(&self.dir, s);
        let path = dir.join(&name);
        let tmp = dir.join(format!("{name}.tmp"));
        let res = (|| -> io::Result<()> {
            fs::write(&tmp, text.as_bytes())?;
            let f = fs::File::open(&tmp)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        match res {
            Ok(()) => {
                shard.seen.insert(name);
                self.segments_written.fetch_add(1, Ordering::Relaxed);
                self.entries_written
                    .fetch_add(entries.len() as u64, Ordering::Relaxed);
                entries.len()
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
                shard.pending = entries;
                0
            }
        }
    }

    /// Entries resident in the index.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).index.len())
            .sum()
    }

    /// `true` when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters.
    pub fn stats(&self) -> DiskTierStats {
        DiskTierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
            segments_loaded: self.segments_loaded.load(Ordering::Relaxed),
            segments_skipped: self.segments_skipped.load(Ordering::Relaxed),
            segments_written: self.segments_written.load(Ordering::Relaxed),
            entries_written: self.entries_written.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppa::Ppa;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "unico-disktier-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn key(n: u128) -> EvalKey {
        EvalKey::from_hex(&format!("{n:032x}")).expect("key")
    }

    fn ppa(lat: f64) -> EvalResult {
        Ok(Ppa {
            latency_s: lat,
            power_mw: 2.0 * lat,
            area_mm2: 1.5,
            energy_pj: 10.0 * lat,
        })
    }

    #[test]
    fn record_flush_reopen_roundtrips() {
        let dir = tmpdir("roundtrip");
        let tier = DiskTier::open(&dir).expect("open");
        for i in 0..40u128 {
            tier.record(key(i << 64 | i), ppa(i as f64 + 0.5));
        }
        assert_eq!(tier.flush(), 40);
        let reopened = DiskTier::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), 40);
        for i in 0..40u128 {
            assert_eq!(reopened.lookup(key(i << 64 | i)), Some(ppa(i as f64 + 0.5)));
        }
        let s = reopened.stats();
        assert_eq!(s.hits, 40);
        assert!(s.segments_loaded > 0);
        assert_eq!(s.segments_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_picks_up_peer_segments() {
        let dir = tmpdir("peers");
        let a = DiskTier::open(&dir).expect("open a");
        let b = DiskTier::open(&dir).expect("open b");
        a.record(key(7), ppa(1.0));
        a.flush();
        assert_eq!(b.lookup(key(7)), None);
        let merged = b.refresh().expect("refresh");
        assert_eq!(merged, 1);
        assert_eq!(b.lookup(key(7)), Some(ppa(1.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_segments_are_skipped_not_trusted() {
        let dir = tmpdir("torn");
        let tier = DiskTier::open(&dir).expect("open");
        tier.record(key(1), ppa(1.0));
        tier.flush();
        // Truncate the only segment of key(1)'s shard mid-line, and
        // drop a garbage file plus a staging .tmp in another shard.
        let sd = shard_dir(&dir, key(1).shard());
        let seg = fs::read_dir(&sd)
            .expect("list")
            .map(|e| e.expect("entry").path())
            .find(|p| p.extension().is_some_and(|e| e == "trace"))
            .expect("segment");
        let text = fs::read_to_string(&seg).expect("read");
        fs::write(&seg, &text[..text.len() - 5]).expect("truncate");
        fs::write(shard_dir(&dir, 3).join("seg-zzz.trace"), "not a trace").expect("garbage");
        fs::write(shard_dir(&dir, 4).join("seg-x.trace.tmp"), "partial").expect("tmp");
        let reopened = DiskTier::open(&dir).expect("reopen");
        assert_eq!(reopened.lookup(key(1)), None, "torn entry must not serve");
        let s = reopened.stats();
        assert_eq!(
            s.segments_skipped, 2,
            "torn + garbage skipped, .tmp ignored"
        );
        assert_eq!(s.entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_records_write_once() {
        let dir = tmpdir("dup");
        let tier = DiskTier::open(&dir).expect("open");
        tier.record(key(9), ppa(2.0));
        tier.record(key(9), ppa(2.0));
        assert_eq!(tier.flush(), 1);
        assert_eq!(tier.flush(), 0);
        assert_eq!(tier.stats().entries_written, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
