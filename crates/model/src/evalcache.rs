//! Sharded, lock-striped memoization cache for PPA evaluations, with
//! deterministic record/replay.
//!
//! UNICO's outer loop prices the same `(hardware, mapping, nest)` points
//! thousands of times across successive-halving rounds, MOBO iterations
//! and the robustness sweep. [`EvalCache`] sits in front of the PPA
//! engines (`AnalyticalModel`, `LoopCentricModel` and the Ascend-like
//! cycle model) and memoizes `Result<Ppa, EvalError>` values under a
//! canonical 128-bit key ([`EvalKey`]) derived with the stable hasher
//! from `unico-mapping`, so keys survive process restarts and can name
//! entries in on-disk golden traces.
//!
//! Keys canonicalize the mapping via
//! [`CanonicalMapping`](unico_mapping::CanonicalMapping): unit loops are
//! dropped and reduction runs sorted, so semantically identical mappings
//! share one entry — which is where most of the hit rate comes from.
//!
//! The cache is striped over [`SHARD_COUNT`] shards, each an independent
//! `Mutex<HashMap>` with its own hit/miss/eviction counters, so
//! concurrent mapping-search workers rarely contend. A miss computes
//! **while holding the shard lock**: the same key is never evaluated
//! twice, which keeps miss counts (and therefore run reports) exactly
//! reproducible regardless of thread interleaving.
//!
//! # Tiers
//!
//! A cache may have one second tier, consulted on a miss before
//! computing: an on-disk [`DiskTier`] ([`EvalCache::with_disk`]) or a
//! shared in-memory cache ([`EvalCache::with_backing`]). `unico-served`
//! gives every job its own cache backed by the daemon-wide one, so a
//! job's counters, checkpoint trace and resume cover its own working
//! set while evaluations are still priced once across jobs. Either way
//! a tier hit counts as a **miss** of this cache, and the shard lock is
//! held across the tier call, so each key is still computed once and
//! counters stay deterministic. Locks are therefore always taken backed
//! cache first, then backing; a backing never has a backing of its own,
//! so the order cannot cycle.
//!
//! # Record / replay
//!
//! [`EvalCache::to_trace`] serializes every entry to a compact,
//! line-oriented golden trace (keys in hex, floats as IEEE-754 bit
//! patterns, entries sorted by key — byte-for-byte reproducible).
//! [`EvalCache::from_trace`] reconstructs a cache in *replay* mode: every
//! lookup must hit, and a miss panics with the offending key. Driving a
//! seeded run against a replayed trace therefore proves bit-for-bit
//! determinism of the whole search stack.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use unico_mapping::{CanonicalMapping, Mapping, StableHasher};
use unico_workloads::LoopNest;

use crate::analytical::MappingObjective;
use crate::disktier::{DiskTier, DiskTierStats};
use crate::hw::{Dataflow, HwConfig};
use crate::ppa::{EvalError, Ppa};

/// A memoized evaluation outcome: infeasibilities are cached too, so
/// repeated probing of an overflowing tile is as cheap as a hit.
pub type EvalResult = Result<Ppa, EvalError>;

/// Number of lock stripes. Power of two; sized for the default 16-worker
/// mapping engine.
pub const SHARD_COUNT: usize = 16;

/// Header line of the golden-trace format.
pub const TRACE_HEADER: &str = "unico.evaltrace.v1";

/// A canonical, platform-stable 128-bit cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EvalKey(u128);

impl EvalKey {
    /// Renders the key as 32 lowercase hex digits (the trace format).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a key from its hex form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(EvalKey)
    }

    pub(crate) fn shard(self) -> usize {
        // High bits come out of the avalanche finisher: uniformly mixed.
        ((self.0 >> 64) as usize) % SHARD_COUNT
    }
}

/// Which PPA engine produced the value. Part of the key: the engines
/// disagree on purpose, and their entries must never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineTag {
    /// `AnalyticalModel` (data-centric traffic accounting).
    DataCentric,
    /// `LoopCentricModel` (per-level loop-centric accounting).
    LoopCentric,
    /// The Ascend-like cycle model in `unico-camodel`.
    Ascend,
    /// Fused-group re-pricing of a member layer (intermediates held
    /// on-chip). Distinct tag: a fused member's PPA differs from its
    /// standalone `DataCentric` value under the same `(hw, mapping,
    /// nest)`, so the entries must never alias.
    FusedGroup,
}

impl EngineTag {
    fn code(self) -> u8 {
        match self {
            EngineTag::DataCentric => 0,
            EngineTag::LoopCentric => 1,
            EngineTag::Ascend => 2,
            EngineTag::FusedGroup => 3,
        }
    }
}

/// Incremental builder for [`EvalKey`]s.
///
/// The spatial platforms use [`spatial_eval_key`]; the Ascend platform
/// assembles its key manually because its hardware type lives in a
/// downstream crate — it feeds `AscendConfig` fields through
/// [`EvalKeyBuilder::word`] and hashes only tile extents
/// ([`EvalKeyBuilder::mapping_tiles`]) since the cycle model is blind to
/// temporal order and spatial placement.
///
/// The builder is `Copy` (the underlying hasher state is two words), so
/// the bound costs hash the shared `(engine, hardware, nest)` prefix
/// once at bind time and copy it per candidate — the byte stream, and
/// therefore the key, is identical to building each key from scratch.
#[derive(Debug, Clone, Copy)]
pub struct EvalKeyBuilder {
    h: StableHasher,
}

impl EvalKeyBuilder {
    /// Starts a key for the given engine.
    pub fn new(tag: EngineTag) -> Self {
        let mut h = StableHasher::new();
        h.write_u8(tag.code());
        EvalKeyBuilder { h }
    }

    /// Feeds one raw machine word (hardware parameters, strides, …).
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.h.write_u64(w);
        self
    }

    /// Feeds the loop nest: the seven extents, strides and the depthwise
    /// flag.
    pub fn nest(&mut self, nest: &LoopNest) -> &mut Self {
        for e in nest.extents() {
            self.h.write_u64(e);
        }
        self.h.write_u64(nest.stride_y());
        self.h.write_u64(nest.stride_x());
        self.h.write_bool(nest.is_depthwise());
        self
    }

    /// Feeds the full canonical mapping (tiles, canonical order,
    /// spatial dims) — for order-sensitive engines. Streams the bytes of
    /// [`CanonicalMapping::hash_into`] without materializing the
    /// canonical form (see [`CanonicalMapping::hash_mapping_into`]).
    pub fn mapping_full(&mut self, mapping: &Mapping, nest: &LoopNest) -> &mut Self {
        CanonicalMapping::hash_mapping_into(mapping, nest, &mut self.h);
        self
    }

    /// Feeds only the tile extents — for engines blind to order and
    /// spatial placement. The bytes of
    /// [`CanonicalMapping::hash_tiles_into`]: canonicalization keeps
    /// tiles verbatim, so they stream straight off the mapping.
    pub fn mapping_tiles(&mut self, mapping: &Mapping) -> &mut Self {
        for t in mapping.l2_tile() {
            self.h.write_u64(t);
        }
        for t in mapping.l1_tile() {
            self.h.write_u64(t);
        }
        self
    }

    /// Feeds the optimization objective.
    pub fn objective(&mut self, objective: MappingObjective) -> &mut Self {
        self.h.write_u8(match objective {
            MappingObjective::Latency => 0,
            MappingObjective::Edp => 1,
        });
        self
    }

    /// Finishes into the 128-bit key.
    pub fn finish(&self) -> EvalKey {
        EvalKey(self.h.finish128())
    }
}

/// The shared `(engine, hardware, nest)` key prefix of
/// [`spatial_eval_key`]. The bound costs build it once at bind time and
/// copy it per candidate, so every key of a binding hashes one byte
/// stream with the reference key by construction.
pub fn spatial_key_prefix(tag: EngineTag, hw: &HwConfig, nest: &LoopNest) -> EvalKeyBuilder {
    let mut b = EvalKeyBuilder::new(tag);
    b.word(u64::from(hw.pe_x()))
        .word(u64::from(hw.pe_y()))
        .word(hw.l1_bytes())
        .word(hw.l2_bytes())
        .word(u64::from(hw.noc_bytes_per_cycle()))
        .word(match hw.dataflow() {
            Dataflow::WeightStationary => 0,
            Dataflow::OutputStationary => 1,
        })
        .nest(nest);
    b
}

/// The canonical key for the 2-D spatial platform engines.
pub fn spatial_eval_key(
    tag: EngineTag,
    hw: &HwConfig,
    mapping: &Mapping,
    nest: &LoopNest,
    objective: MappingObjective,
) -> EvalKey {
    let mut b = spatial_key_prefix(tag, hw, nest);
    b.mapping_full(mapping, nest).objective(objective);
    b.finish()
}

/// Aggregated cache counters (summed over shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by per-shard FIFO eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot (entries reported
    /// as-is: it is a level, not a counter).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Compute on miss (the normal memoization mode; also records).
    Record,
    /// Resolve from pre-loaded entries only; a miss panics.
    Replay,
}

/// Pass-through hasher for the shard maps. An [`EvalKey`] is already a
/// 128-bit avalanched hash (two decorrelated fmix64 lanes), so pushing
/// it through SipHash again is pure per-lookup overhead. The map hash
/// is the key's low 64 bits; shard selection uses the high 64, so
/// bucket and shard indices stay decorrelated.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassThroughHasher(u64);

impl std::hash::Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("EvalKey hashes itself via write_u128 only");
    }
    fn write_u128(&mut self, n: u128) {
        self.0 = n as u64;
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassThroughState;

impl std::hash::BuildHasher for PassThroughState {
    type Hasher = PassThroughHasher;
    fn build_hasher(&self) -> PassThroughHasher {
        PassThroughHasher(0)
    }
}

#[derive(Debug, Default)]
struct ShardMap {
    entries: HashMap<EvalKey, EvalResult, PassThroughState>,
    /// Insertion order for FIFO eviction; kept by capped caches only.
    fifo: VecDeque<EvalKey>,
}

impl ShardMap {
    /// Inserts a fresh entry. Under a capacity the key joins the FIFO
    /// and the oldest entries are evicted down to `cap`; returns the
    /// number evicted. An uncapped shard never evicts, so it keeps no
    /// FIFO at all.
    fn insert(&mut self, key: EvalKey, v: EvalResult, cap: Option<usize>) -> u64 {
        self.entries.insert(key, v);
        let Some(cap) = cap else {
            return 0;
        };
        self.fifo.push_back(key);
        let mut evicted = 0;
        while self.entries.len() > cap {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            self.entries.remove(&old);
            evicted += 1;
        }
        evicted
    }
}

/// One lock stripe. Aligned to 128 bytes (two cache lines, the span the
/// adjacent-line prefetcher pulls together) so neighbouring shards'
/// lock and counter words never share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard {
    map: Mutex<ShardMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The second tier of an [`EvalCache`]: where a miss looks before
/// computing.
#[derive(Debug)]
enum Tier {
    /// On-disk segments, fed with every fresh compute. A disk hit still
    /// counts as an in-memory **miss**, so [`CacheStats`] — and
    /// therefore run reports and traces — are byte-identical with the
    /// tier cold, warm or absent; only [`DiskTier::stats`] differs.
    Disk(Arc<DiskTier>),
    /// A shared cache (itself without a shared backing) that resolves
    /// the miss through its own lookup, so it computes each key at most
    /// once across every cache it backs.
    Shared(Arc<EvalCache>),
}

impl Tier {
    /// Resolves a miss of the cache this tier backs.
    fn resolve(&self, key: EvalKey, compute: impl FnOnce() -> EvalResult) -> EvalResult {
        match self {
            Tier::Disk(d) => d.lookup(key).unwrap_or_else(|| {
                let v = compute();
                d.record(key, v);
                v
            }),
            Tier::Shared(shared) => shared.get_or_compute(key, compute),
        }
    }

    /// Hands an entry loaded from a trace down, without counting a
    /// lookup: the disk tier records it for its next flush, a shared
    /// cache preloads it.
    fn preload(&self, key: EvalKey, v: EvalResult) {
        match self {
            Tier::Disk(d) => d.record(key, v),
            Tier::Shared(shared) => {
                shared.preload(key, v);
            }
        }
    }
}

/// Sharded concurrent memoization cache for PPA evaluations. See the
/// module docs for design and determinism guarantees.
#[derive(Debug)]
pub struct EvalCache {
    shards: Vec<Shard>,
    capacity_per_shard: Option<usize>,
    mode: Mode,
    /// Optional second tier, consulted on a miss (see [`Tier`]).
    tier: Option<Tier>,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

impl EvalCache {
    /// An unbounded cache (the default for search runs: the working set
    /// is a few thousand entries of ~50 bytes).
    pub fn new() -> Self {
        EvalCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            capacity_per_shard: None,
            mode: Mode::Record,
            tier: None,
        }
    }

    /// Attaches an on-disk second tier (see [`DiskTier`]): in-memory
    /// misses consult the tier before computing, and fresh computes are
    /// recorded for its next segment flush. Replay-mode caches never
    /// have a tier — replay resolves from the golden trace only.
    #[must_use]
    pub fn with_disk(mut self, tier: Arc<DiskTier>) -> Self {
        self.tier = Some(Tier::Disk(tier));
        self
    }

    /// Puts `shared` behind this cache as its second tier: a miss here
    /// is resolved through `shared` (and its disk tier, if any) before
    /// anything is computed, and counts as a miss of this cache whether
    /// `shared` hit or not. Entries loaded with
    /// [`EvalCache::load_trace`] are handed on to `shared` too.
    ///
    /// # Panics
    ///
    /// Panics if this cache replays a trace (replay resolves from the
    /// trace only), is capacity-bounded (every evicted key would be
    /// re-asked of `shared`), already has a tier, or if `shared` itself
    /// has a shared backing (backings do not chain).
    #[must_use]
    pub fn with_backing(mut self, shared: Arc<EvalCache>) -> Self {
        assert!(
            self.mode == Mode::Record,
            "a replay-mode evalcache takes no backing"
        );
        assert!(
            self.capacity_per_shard.is_none(),
            "a capped evalcache takes no backing"
        );
        assert!(self.tier.is_none(), "an evalcache has at most one tier");
        assert!(
            !matches!(shared.tier, Some(Tier::Shared(_))),
            "a backing evalcache may not itself have a backing"
        );
        self.tier = Some(Tier::Shared(shared));
        self
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        match &self.tier {
            Some(Tier::Disk(d)) => Some(d),
            _ => None,
        }
    }

    /// Flushes the disk tier's pending entries (no-op without a tier).
    /// Returns the number of entries written.
    pub fn flush_disk(&self) -> usize {
        self.disk().map_or(0, |d| d.flush())
    }

    /// Re-scans the disk tier for segments flushed by peer workers
    /// (no-op without a tier). Returns the number of entries merged.
    pub fn refresh_disk(&self) -> usize {
        self.disk().and_then(|d| d.refresh().ok()).unwrap_or(0)
    }

    /// Disk-tier counters, when a tier is attached.
    pub fn disk_stats(&self) -> Option<DiskTierStats> {
        self.disk().map(|d| d.stats())
    }

    /// The process-wide shared cache, created on first use.
    ///
    /// Keys are engine-tagged and platform-stable, so one cache safely
    /// serves evaluations from every platform in the process — the
    /// spatial analytical engines and the Ascend-like cycle model never
    /// alias. `unico-served` puts this (or its own instance) behind
    /// every job's own cache ([`EvalCache::with_backing`]) so identical
    /// `(hw, mapping)` points submitted by different users are priced
    /// once.
    pub fn process_shared() -> Arc<EvalCache> {
        static SHARED: std::sync::OnceLock<Arc<EvalCache>> = std::sync::OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(EvalCache::new())))
    }

    /// Bounds every shard to `cap` entries with FIFO eviction.
    pub fn with_capacity_per_shard(cap: usize) -> Self {
        EvalCache {
            capacity_per_shard: Some(cap.max(1)),
            ..EvalCache::new()
        }
    }

    /// `true` when the cache was loaded with [`EvalCache::from_trace`]
    /// and resolves lookups from the trace only.
    pub fn is_replay(&self) -> bool {
        self.mode == Mode::Replay
    }

    /// Looks `key` up, computing and memoizing on a miss.
    ///
    /// The compute runs under the shard lock, so each key is evaluated
    /// at most once per cache lifetime and the miss counter equals the
    /// number of distinct keys seen — independent of thread timing. In
    /// replay mode a miss panics: the golden trace does not cover the
    /// requested evaluation.
    pub fn get_or_compute(&self, key: EvalKey, compute: impl FnOnce() -> EvalResult) -> EvalResult {
        let shard = &self.shards[key.shard()];
        let mut map = shard.map.lock().expect("evalcache shard poisoned");
        if let Some(v) = map.entries.get(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return *v;
        }
        assert!(
            self.mode != Mode::Replay,
            "evalcache replay miss: key {} is not in the golden trace \
             (the run diverged from the recorded one)",
            key.to_hex()
        );
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let v = match &self.tier {
            Some(tier) => tier.resolve(key, compute),
            None => compute(),
        };
        let evicted = map.insert(key, v, self.capacity_per_shard);
        if evicted > 0 {
            shard.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        v
    }

    /// Peeks without computing or counting a miss (hits still count).
    pub fn get(&self, key: EvalKey) -> Option<EvalResult> {
        let shard = &self.shards[key.shard()];
        let map = shard.map.lock().expect("evalcache shard poisoned");
        let v = map.entries.get(&key).copied();
        if v.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.map
                    .lock()
                    .expect("evalcache shard poisoned")
                    .entries
                    .len()
            })
            .sum()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for shard in &self.shards {
            s.hits += shard.hits.load(Ordering::Relaxed);
            s.misses += shard.misses.load(Ordering::Relaxed);
            s.evictions += shard.evictions.load(Ordering::Relaxed);
            s.entries += shard
                .map
                .lock()
                .expect("evalcache shard poisoned")
                .entries
                .len() as u64;
        }
        s
    }

    /// Serializes every entry to the golden-trace format: a header line
    /// `unico.evaltrace.v1 <count>`, then one `<key-hex> <value>` line
    /// per entry, sorted by key. Floats are IEEE-754 bit patterns in
    /// hex, so the output is byte-for-byte reproducible.
    pub fn to_trace(&self) -> String {
        let mut entries: Vec<(EvalKey, EvalResult)> = Vec::new();
        for shard in &self.shards {
            let map = shard.map.lock().expect("evalcache shard poisoned");
            entries.extend(map.entries.iter().map(|(k, v)| (*k, *v)));
        }
        entries.sort_by_key(|(k, _)| *k);
        let mut out = String::with_capacity(16 + entries.len() * 120);
        out.push_str(TRACE_HEADER);
        out.push(' ');
        out.push_str(&entries.len().to_string());
        out.push('\n');
        for (k, v) in &entries {
            out.push_str(&k.to_hex());
            out.push(' ');
            encode_result(v, &mut out);
            out.push('\n');
        }
        out
    }

    /// Reconstructs a **replay-mode** cache from a golden trace produced
    /// by [`EvalCache::to_trace`]. Lookups resolve from the trace only;
    /// a miss panics.
    pub fn from_trace(text: &str) -> Result<Self, TraceError> {
        let entries = parse_trace_entries(text)?;
        let mut cache = EvalCache::new();
        cache.mode = Mode::Replay;
        for (key, value) in entries {
            let shard = &cache.shards[key.shard()];
            let mut map = shard.map.lock().expect("evalcache shard poisoned");
            map.insert(key, value, cache.capacity_per_shard);
        }
        Ok(cache)
    }

    /// Pre-populates this cache with every entry of a golden trace,
    /// leaving the mode and all hit/miss/eviction counters untouched
    /// (entries the cache already holds are kept as-is). Checkpoint
    /// resume uses this to rebuild a *record-mode* cache through an
    /// existing `Arc`: the resumed run re-hits exactly the entries the
    /// interrupted run had computed, so its hit/miss deltas line up with
    /// the uninterrupted run's.
    ///
    /// Newly inserted entries are handed on to the tier: the disk tier
    /// records them (entries the interrupted run computed but never
    /// flushed become durable after the resumed run's next flush) and a
    /// shared backing preloads them for other jobs.
    ///
    /// Returns the number of entries inserted.
    pub fn load_trace(&self, text: &str) -> Result<usize, TraceError> {
        let entries = parse_trace_entries(text)?;
        Ok(entries
            .into_iter()
            .filter(|&(k, v)| self.preload(k, v))
            .count())
    }

    /// Inserts `(key, v)` unless `key` is resident, counting no lookup,
    /// and hands a new entry on to the tier. Loading never evicts: a
    /// capped cache may exceed its capacity until its next fresh insert
    /// trims it. Returns whether the entry was new.
    fn preload(&self, key: EvalKey, v: EvalResult) -> bool {
        let mut map = self.shards[key.shard()]
            .map
            .lock()
            .expect("evalcache shard poisoned");
        if map.entries.contains_key(&key) {
            return false;
        }
        map.entries.insert(key, v);
        if self.capacity_per_shard.is_some() {
            map.fifo.push_back(key);
        }
        drop(map);
        if let Some(tier) = &self.tier {
            tier.preload(key, v);
        }
        true
    }
}

/// Parses a full golden trace into `(key, value)` pairs, enforcing the
/// header count. Shared by [`EvalCache::from_trace`] and the disk
/// tier's segment loader — a truncated segment fails the count check
/// here and is skipped by the tier.
pub(crate) fn parse_trace_entries(text: &str) -> Result<Vec<(EvalKey, EvalResult)>, TraceError> {
    if !text.is_empty() && !text.ends_with('\n') {
        // Every writer terminates the last line; a missing newline is a
        // mid-line truncation that per-field parsing cannot always
        // catch (a shortened trailing hex field still parses).
        return Err(TraceError::Truncated);
    }
    let mut lines = text.lines();
    let header = lines.next().ok_or(TraceError::MissingHeader)?;
    let mut parts = header.split(' ');
    if parts.next() != Some(TRACE_HEADER) {
        return Err(TraceError::BadHeader);
    }
    let count: usize = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or(TraceError::BadHeader)?;
    let mut entries = Vec::with_capacity(count);
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let (key_hex, rest) = line.split_once(' ').ok_or(TraceError::BadLine(i + 2))?;
        let key = EvalKey::from_hex(key_hex).ok_or(TraceError::BadLine(i + 2))?;
        let value = decode_result(rest).ok_or(TraceError::BadLine(i + 2))?;
        entries.push((key, value));
    }
    if entries.len() != count {
        return Err(TraceError::CountMismatch {
            declared: count,
            found: entries.len(),
        });
    }
    Ok(entries)
}

pub(crate) fn encode_result(v: &EvalResult, out: &mut String) {
    use std::fmt::Write;
    match v {
        Ok(p) => {
            let _ = write!(
                out,
                "P {:016x} {:016x} {:016x} {:016x}",
                p.latency_s.to_bits(),
                p.power_mw.to_bits(),
                p.area_mm2.to_bits(),
                p.energy_pj.to_bits()
            );
        }
        Err(EvalError::L1Overflow {
            required,
            available,
        }) => {
            let _ = write!(out, "E1 {required} {available}");
        }
        Err(EvalError::L2Overflow {
            required,
            available,
        }) => {
            let _ = write!(out, "E2 {required} {available}");
        }
        Err(EvalError::DegenerateSpatial) => out.push_str("ES"),
    }
}

fn decode_result(s: &str) -> Option<EvalResult> {
    let mut parts = s.split(' ');
    match parts.next()? {
        "P" => {
            let mut next_f64 = || -> Option<f64> {
                let field = parts.next()?;
                // Writers emit exactly 16 hex digits; anything shorter
                // is a torn field.
                if field.len() != 16 {
                    return None;
                }
                u64::from_str_radix(field, 16).ok().map(f64::from_bits)
            };
            let latency_s = next_f64()?;
            let power_mw = next_f64()?;
            let area_mm2 = next_f64()?;
            let energy_pj = next_f64()?;
            Some(Ok(Ppa {
                latency_s,
                power_mw,
                area_mm2,
                energy_pj,
            }))
        }
        "E1" => Some(Err(EvalError::L1Overflow {
            required: parts.next()?.parse().ok()?,
            available: parts.next()?.parse().ok()?,
        })),
        "E2" => Some(Err(EvalError::L2Overflow {
            required: parts.next()?.parse().ok()?,
            available: parts.next()?.parse().ok()?,
        })),
        "ES" => Some(Err(EvalError::DegenerateSpatial)),
        _ => None,
    }
}

/// Golden-trace parse failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The trace is empty.
    MissingHeader,
    /// The header line is not `unico.evaltrace.v1 <count>`.
    BadHeader,
    /// An entry line (1-based) failed to parse.
    BadLine(usize),
    /// The text does not end in a newline: the final line was cut
    /// mid-write (only complete, writer-terminated traces are trusted).
    Truncated,
    /// The header count disagrees with the number of entry lines.
    CountMismatch {
        /// Count declared in the header.
        declared: usize,
        /// Entry lines actually parsed.
        found: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::MissingHeader => write!(f, "golden trace is empty"),
            TraceError::BadHeader => {
                write!(f, "golden trace header is not `{TRACE_HEADER} <count>`")
            }
            TraceError::BadLine(n) => write!(f, "golden trace line {n} failed to parse"),
            TraceError::Truncated => {
                write!(f, "golden trace is truncated (no terminating newline)")
            }
            TraceError::CountMismatch { declared, found } => write!(
                f,
                "golden trace declares {declared} entries but contains {found}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn key(n: u128) -> EvalKey {
        EvalKey(n)
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
    fn process_shared_returns_one_instance() {
        let a = EvalCache::process_shared();
        let b = EvalCache::process_shared();
        assert!(Arc::ptr_eq(&a, &b));
        // Entries inserted through one handle are visible through the
        // other (same underlying cache).
        let probe = key(0x5eed_cafe);
        a.get_or_compute(probe, || ppa(0.25)).unwrap();
        assert_eq!(b.get(probe), Some(ppa(0.25)));
    }

    #[test]
    fn computes_once_per_key_and_counts() {
        let cache = EvalCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = cache.get_or_compute(key(42), || {
                calls.fetch_add(1, Ordering::Relaxed);
                ppa(0.5)
            });
            assert_eq!(v, ppa(0.5));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (4, 1, 1));
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = EvalCache::new();
        let err = Err(EvalError::L1Overflow {
            required: 100,
            available: 64,
        });
        assert_eq!(cache.get_or_compute(key(7), || err), err);
        assert_eq!(cache.get_or_compute(key(7), || panic!("recompute")), err);
    }

    #[test]
    fn fifo_eviction_is_counted() {
        let cache = EvalCache::with_capacity_per_shard(2);
        // Same shard: keys differ only in low 64 bits.
        let base = 5u128 << 64;
        for i in 0..4u128 {
            let _ = cache.get_or_compute(key(base | i), || ppa(i as f64 + 1.0));
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.entries, 2);
        // Oldest two were evicted; newest two still resident.
        assert!(cache.get(key(base)).is_none());
        assert!(cache.get(key(base | 3)).is_some());
    }

    /// A key re-requested after FIFO eviction is a fresh miss, and each
    /// evicted entry counts once: 6 distinct keys through a cap-2 shard,
    /// then key 0 (evicted) and key 5 (still resident) again.
    #[test]
    fn evicted_key_recomputes_and_each_eviction_counts_once() {
        let cache = EvalCache::with_capacity_per_shard(2);
        let base = 5u128 << 64; // all on one shard
        let calls = AtomicUsize::new(0);
        for i in [0u128, 1, 2, 3, 4, 5, 0, 5] {
            let v = cache.get_or_compute(key(base | i), || {
                calls.fetch_add(1, Ordering::Relaxed);
                ppa(2.0)
            });
            assert_eq!(v, ppa(2.0));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 7, 5, 2));
        assert_eq!(calls.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn only_capped_caches_keep_a_fifo() {
        let fifo_len = |c: &EvalCache| -> usize {
            c.shards
                .iter()
                .map(|s| s.map.lock().expect("shard").fifo.len())
                .sum()
        };
        let keys: Vec<EvalKey> = (0..40u128).map(|i| key((i << 64) | i)).collect();
        let trace = {
            let c = EvalCache::new();
            for k in &keys {
                let _ = c.get_or_compute(*k, || ppa(1.0));
            }
            assert_eq!(c.len(), 40);
            assert_eq!(fifo_len(&c), 0, "uncapped cache must keep no FIFO");
            c.to_trace()
        };
        let loaded = EvalCache::new();
        assert_eq!(loaded.load_trace(&trace), Ok(40));
        assert_eq!(fifo_len(&loaded), 0);
        assert_eq!(fifo_len(&EvalCache::from_trace(&trace).expect("parse")), 0);

        let capped = EvalCache::with_capacity_per_shard(64);
        for k in &keys {
            let _ = capped.get_or_compute(*k, || ppa(1.0));
        }
        assert_eq!(fifo_len(&capped), 40);
    }

    #[test]
    fn shards_do_not_share_cache_lines() {
        assert_eq!(std::mem::size_of::<Shard>(), 128);
        assert_eq!(std::mem::align_of::<Shard>(), 128);
    }

    #[test]
    fn streamed_mapping_bytes_match_the_canonical_form() {
        use unico_workloads::{Dim, TensorOp};
        let nests = [
            TensorOp::Conv2d {
                n: 1,
                k: 16,
                c: 8,
                y: 8,
                x: 8,
                r: 3,
                s: 3,
                stride: 1,
            }
            .to_loop_nest(),
            TensorOp::DepthwiseConv2d {
                n: 1,
                c: 16,
                y: 8,
                x: 8,
                r: 3,
                s: 3,
                stride: 1,
            }
            .to_loop_nest(),
        ];
        for n in &nests {
            let mut l1 = [1u64; 7];
            l1[Dim::K.index()] = 4;
            l1[Dim::Y.index()] = 2;
            let order = [Dim::K, Dim::S, Dim::R, Dim::Y, Dim::C, Dim::X, Dim::N];
            for m in [
                Mapping::new(n, n.extents(), l1, order, (Dim::K, Dim::Y)),
                Mapping::new(n, n.extents(), l1, Dim::ALL, (Dim::Y, Dim::K)),
                Mapping::identity(n),
            ] {
                let canon = CanonicalMapping::of(&m, n);
                let mut want = EvalKeyBuilder::new(EngineTag::DataCentric);
                canon.hash_into(&mut want.h);
                let mut got = EvalKeyBuilder::new(EngineTag::DataCentric);
                got.mapping_full(&m, n);
                assert_eq!(got.finish(), want.finish(), "full canonical bytes");
                let mut want = EvalKeyBuilder::new(EngineTag::Ascend);
                canon.hash_tiles_into(&mut want.h);
                let mut got = EvalKeyBuilder::new(EngineTag::Ascend);
                got.mapping_tiles(&m);
                assert_eq!(got.finish(), want.finish(), "tile bytes");
            }
        }
    }

    /// A job cache over a shared one: `keys` resolved through the job
    /// cache, counting computes.
    fn job_over(shared: &Arc<EvalCache>, keys: &[EvalKey], calls: &AtomicUsize) -> EvalCache {
        let job = EvalCache::new().with_backing(Arc::clone(shared));
        for k in keys {
            let _ = job.get_or_compute(*k, || {
                calls.fetch_add(1, Ordering::Relaxed);
                ppa(1.0)
            });
        }
        job
    }

    #[test]
    fn backing_hit_is_a_local_miss() {
        let shared = Arc::new(EvalCache::new());
        let _ = shared.get_or_compute(key(9), || ppa(0.5));
        let job = EvalCache::new().with_backing(Arc::clone(&shared));
        assert_eq!(job.get_or_compute(key(9), || panic!("recompute")), ppa(0.5));
        assert_eq!(job.get_or_compute(key(9), || panic!("recompute")), ppa(0.5));
        let s = job.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // The shared cache saw one lookup: the job cache's miss.
        let s = shared.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn two_job_caches_over_one_shared_cache_compute_a_key_once() {
        let shared = Arc::new(EvalCache::new());
        let calls = AtomicUsize::new(0);
        let keys: Vec<EvalKey> = (0..6u128).map(|i| key((i << 64) | i)).collect();
        let a = job_over(&shared, &keys[..4], &calls);
        let b = job_over(&shared, &keys[2..], &calls);
        assert_eq!(calls.load(Ordering::Relaxed), 6, "keys 2 and 3 priced once");
        // Each job counts its own lookups, whatever ran before it.
        assert_eq!(a.stats(), b.stats());
        assert_eq!((a.stats().hits, a.stats().misses), (0, 4));
        let s = shared.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 6, 6));
    }

    #[test]
    fn job_trace_holds_only_its_own_keys() {
        let shared = Arc::new(EvalCache::new());
        let calls = AtomicUsize::new(0);
        let own: Vec<EvalKey> = (0..3u128).map(|i| key((i << 64) | i)).collect();
        let other: Vec<EvalKey> = (10..20u128).map(|i| key((i << 64) | i)).collect();
        let _ = job_over(&shared, &other, &calls);
        let job = job_over(&shared, &own, &calls);
        let alone = job_over(&Arc::new(EvalCache::new()), &own, &calls);
        assert_eq!(job.to_trace(), alone.to_trace());
        assert!(job.to_trace().starts_with("unico.evaltrace.v1 3\n"));
        assert_eq!(shared.len(), 13);

        // Resume: loading the job's trace into a fresh job cache hands
        // the entries on to its (fresh) shared cache without counting.
        let shared2 = Arc::new(EvalCache::new());
        let resumed = EvalCache::new().with_backing(Arc::clone(&shared2));
        assert_eq!(resumed.load_trace(&job.to_trace()), Ok(3));
        assert_eq!(shared2.to_trace(), job.to_trace());
        assert_eq!(resumed.stats().lookups() + shared2.stats().lookups(), 0);
    }

    #[test]
    #[should_panic(expected = "replay-mode evalcache takes no backing")]
    fn replay_cache_refuses_a_backing() {
        let replay = EvalCache::from_trace("unico.evaltrace.v1 0\n").expect("parse");
        let _ = replay.with_backing(Arc::new(EvalCache::new()));
    }

    #[test]
    #[should_panic(expected = "capped evalcache takes no backing")]
    fn capped_cache_refuses_a_backing() {
        let _ = EvalCache::with_capacity_per_shard(4).with_backing(Arc::new(EvalCache::new()));
    }

    #[test]
    #[should_panic(expected = "may not itself have a backing")]
    fn backings_do_not_chain() {
        let inner = EvalCache::new().with_backing(Arc::new(EvalCache::new()));
        let _ = EvalCache::new().with_backing(Arc::new(inner));
    }

    #[test]
    fn trace_roundtrip_is_exact_and_sorted() {
        let cache = EvalCache::new();
        let _ = cache.get_or_compute(key(3), || ppa(0.25));
        let _ = cache.get_or_compute(key(1), || {
            Err(EvalError::L2Overflow {
                required: 9,
                available: 4,
            })
        });
        let _ = cache.get_or_compute(key(2), || Err(EvalError::DegenerateSpatial));
        let trace = cache.to_trace();
        assert!(trace.starts_with("unico.evaltrace.v1 3\n"));
        // Deterministic output regardless of insertion order.
        assert_eq!(trace, {
            let c2 = EvalCache::new();
            let _ = c2.get_or_compute(key(2), || Err(EvalError::DegenerateSpatial));
            let _ = c2.get_or_compute(key(3), || ppa(0.25));
            let _ = c2.get_or_compute(key(1), || {
                Err(EvalError::L2Overflow {
                    required: 9,
                    available: 4,
                })
            });
            c2.to_trace()
        });
        let replay = EvalCache::from_trace(&trace).expect("parse");
        assert!(replay.is_replay());
        assert_eq!(replay.len(), 3);
        assert_eq!(replay.get_or_compute(key(3), || panic!("miss")), ppa(0.25));
        assert_eq!(
            replay.get_or_compute(key(2), || panic!("miss")),
            Err(EvalError::DegenerateSpatial)
        );
        assert_eq!(replay.to_trace(), trace);
    }

    #[test]
    #[should_panic(expected = "replay miss")]
    fn replay_miss_panics() {
        let replay = EvalCache::from_trace("unico.evaltrace.v1 0\n").expect("parse");
        let _ = replay.get_or_compute(key(99), || ppa(1.0));
    }

    #[test]
    fn trace_errors_are_reported() {
        assert!(matches!(
            EvalCache::from_trace(""),
            Err(TraceError::MissingHeader)
        ));
        assert!(matches!(
            EvalCache::from_trace("bogus 0\n"),
            Err(TraceError::BadHeader)
        ));
        assert!(matches!(
            EvalCache::from_trace("unico.evaltrace.v1 1\nzz bad\n"),
            Err(TraceError::BadLine(2))
        ));
        assert!(matches!(
            EvalCache::from_trace("unico.evaltrace.v1 2\n"),
            Err(TraceError::CountMismatch {
                declared: 2,
                found: 0
            })
        ));
    }

    #[test]
    fn nan_latency_roundtrips_bitwise() {
        let cache = EvalCache::new();
        let _ = cache.get_or_compute(key(1), || ppa(f64::NAN));
        let replay = EvalCache::from_trace(&cache.to_trace()).expect("parse");
        let v = replay
            .get_or_compute(key(1), || panic!("miss"))
            .expect("ok");
        assert!(v.latency_s.is_nan());
        assert_eq!(v.latency_s.to_bits(), f64::NAN.to_bits());
    }
}
