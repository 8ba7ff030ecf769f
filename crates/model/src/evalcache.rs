//! Memoization cache for PPA evaluations, partitioned by binding, with
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
//! # Partitions and shards
//!
//! Every mapping search prices candidates for one `(engine, hardware,
//! nest)` binding, and every key of a binding extends that binding's key
//! prefix. [`EvalCache::bind`] looks up, once per bound cost, the
//! binding's own **partition**: a small table with its own lock and
//! plain-integer counters, which the worker running that search keeps
//! warm in its CPU caches. A run of a few thousand bindings therefore
//! never probes one table of a hundred thousand entries.
//!
//! Entries stored without a binding — full-key
//! [`EvalCache::get_or_compute`], [`EvalCache::from_trace`] and
//! [`EvalCache::load_trace`] — live in [`SHARD_COUNT`] key-striped
//! shards, each an independent locked table, so concurrent full-key
//! callers (the daemon's shared cache) rarely contend. A key is stored
//! once per cache whichever path stored it, and a lookup hits exactly
//! when it is stored: a partition miss looks in the shards (only once
//! any shard holds an entry), and a full-key insert looks in every
//! partition (only once any partition exists). Traces, counters and
//! tiers see full keys only, so where an entry lives never shows.
//!
//! A miss computes **while holding its table's lock**: the same key is
//! never evaluated twice, which keeps miss counts (and therefore run
//! reports) exactly reproducible regardless of thread interleaving.
//!
//! # Tiers
//!
//! A cache may have one second tier, consulted on a miss before
//! computing: an on-disk [`DiskTier`] ([`EvalCache::with_disk`]) or a
//! shared in-memory cache ([`EvalCache::with_backing`]). `unico-served`
//! gives every job its own cache backed by the daemon-wide one, so a
//! job's counters, checkpoint trace and resume cover its own working
//! set while evaluations are still priced once across jobs. Either way
//! a tier hit counts as a **miss** of this cache, and the partition or
//! shard lock is held across the tier call, so each key is still
//! computed once and counters stay deterministic. A tier is always
//! asked by full key: a job cache's partition miss is a full-key lookup
//! of the shared cache. Locks are therefore always taken backed cache
//! first, then backing; a backing never has a backing of its own, so
//! the order cannot cycle.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use unico_mapping::{CanonicalMapping, Mapping, StableHasher};
use unico_workloads::LoopNest;

use crate::analytical::MappingObjective;
use crate::disktier::{DiskTier, DiskTierStats};
use crate::hw::{Dataflow, HwConfig};
use crate::ppa::{EvalError, Ppa};

/// A memoized evaluation outcome: infeasibilities are cached too, so
/// repeated probing of an overflowing tile is as cheap as a hit.
pub type EvalResult = Result<Ppa, EvalError>;

/// Number of key-striped shards for entries stored without a binding.
/// Power of two; sized for the default 16-worker mapping engine.
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

/// Aggregated cache counters (summed over shards and partitions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by FIFO eviction (capped caches only).
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

/// One locked table's entries and counters. The counters are plain
/// integers: every lookup that moves them holds the table's lock.
#[derive(Debug, Default)]
struct Table {
    entries: HashMap<EvalKey, EvalResult, PassThroughState>,
    /// Insertion order per stripe ([`EvalKey::shard`]) for FIFO
    /// eviction; kept by capped caches only, sized on first use.
    fifos: Vec<VecDeque<EvalKey>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Table {
    /// Stores a fresh entry without evicting; under a cap the key joins
    /// its stripe's FIFO. An uncapped table keeps no FIFO at all.
    fn store(&mut self, key: EvalKey, v: EvalResult, capped: bool) {
        self.entries.insert(key, v);
        if capped {
            if self.fifos.is_empty() {
                self.fifos.resize_with(SHARD_COUNT, VecDeque::new);
            }
            self.fifos[key.shard()].push_back(key);
        }
    }

    /// Stores a fresh entry and, under a cap, evicts the oldest entries
    /// of its stripe down to `cap`, counting them.
    fn insert(&mut self, key: EvalKey, v: EvalResult, cap: Option<usize>) {
        self.store(key, v, cap.is_some());
        let Some(cap) = cap else {
            return;
        };
        let fifo = &mut self.fifos[key.shard()];
        while fifo.len() > cap {
            let Some(old) = fifo.pop_front() else {
                break;
            };
            self.entries.remove(&old);
            self.evictions += 1;
        }
    }

    /// The resident value of `key`, counting a hit.
    fn hit(&mut self, key: EvalKey) -> Option<EvalResult> {
        let v = self.entries.get(&key).copied();
        if v.is_some() {
            self.hits += 1;
        }
        v
    }
}

/// A [`Table`] behind its own lock: one of the cache's key-striped
/// shards, or one binding's partition. Aligned to 128 bytes (two cache
/// lines, the span the adjacent-line prefetcher pulls together) so
/// neighbouring shards' and partitions' lock and counter words never
/// share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard {
    map: Mutex<Table>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.map.lock().expect("evalcache shard poisoned")
    }
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

/// Partitions per slab. Partitions outlive the sessions that bind them,
/// so each long-lived allocation pins a hole among the short-lived
/// ones (and an over-aligned one splits off fragments of its own);
/// slabs keep a cache with thousands of bindings to dozens of such
/// allocations, and freeing them leaves the allocator few fragments to
/// sort.
const PARTITION_SLAB: usize = 64;

/// The partitions of an [`EvalCache`], one per binding, in slabs.
#[derive(Debug, Default)]
struct Partitions {
    /// Partition id (the binding's key prefix, finished) → partition
    /// number (creation order).
    index: HashMap<EvalKey, usize, PassThroughState>,
    /// Partition `n` is slot `n % PARTITION_SLAB` of slab
    /// `n / PARTITION_SLAB`. Partitions are never removed, and a slab's
    /// unused slots are empty tables.
    slabs: Vec<Arc<[Shard]>>,
}

/// Partitioned concurrent memoization cache for PPA evaluations. See the
/// module docs for design and determinism guarantees.
#[derive(Debug)]
pub struct EvalCache {
    /// Entries stored by full key ([`EvalCache::get_or_compute`],
    /// [`EvalCache::from_trace`], [`EvalCache::load_trace`]).
    shards: Vec<Shard>,
    /// Entries stored through a binding ([`EvalCache::bind`]).
    partitions: Mutex<Partitions>,
    /// Set, never cleared, before the first entry is stored in
    /// `shards`: until then a partition miss need not look there.
    sharded: AtomicBool,
    /// Set, never cleared, when the first partition is created: until
    /// then a full-key insert need not look in partitions.
    partitioned: AtomicBool,
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
            partitions: Mutex::default(),
            sharded: AtomicBool::new(false),
            partitioned: AtomicBool::new(false),
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

    /// Bounds every shard to `cap` entries with FIFO eviction. A
    /// binding's partition applies the same cap to each stripe of its
    /// keys, so a cache used by one binding evicts exactly what the
    /// shards would.
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

    /// The partition for one binding: every key that extends `prefix`
    /// (one engine, hardware configuration and loop nest) is looked up
    /// and stored there. Bindings with the same prefix share a
    /// partition; the bound costs call this once, at bind time.
    ///
    /// Only keys built on `prefix` may be looked up through the
    /// returned partition: a key then has exactly one partition, which
    /// is what lets a partition lookup skip every other partition.
    pub fn bind(&self, prefix: &EvalKeyBuilder) -> CachePartition<'_> {
        let id = prefix.finish();
        let mut parts = self
            .partitions
            .lock()
            .expect("evalcache partitions poisoned");
        let n = match parts.index.get(&id) {
            Some(&n) => n,
            None => {
                let n = parts.index.len();
                if n.is_multiple_of(PARTITION_SLAB) {
                    let slab = (0..PARTITION_SLAB).map(|_| Shard::default()).collect();
                    parts.slabs.push(slab);
                }
                parts.index.insert(id, n);
                // Pairs with the SeqCst `sharded` store and this load in
                // `lock_for_insert` (see there).
                self.partitioned.store(true, Ordering::SeqCst);
                n
            }
        };
        CachePartition {
            cache: self,
            slab: Arc::clone(&parts.slabs[n / PARTITION_SLAB]),
            slot: n % PARTITION_SLAB,
        }
    }

    /// Every partition slab, in creation order.
    fn partition_slabs(&self) -> Vec<Arc<[Shard]>> {
        self.partitions
            .lock()
            .expect("evalcache partitions poisoned")
            .slabs
            .clone()
    }

    /// Looks `key` up, computing and memoizing on a miss.
    ///
    /// The compute runs under the shard lock, so each key is evaluated
    /// at most once per cache lifetime and the miss counter equals the
    /// number of distinct keys seen — independent of thread timing. In
    /// replay mode a miss panics: the golden trace does not cover the
    /// requested evaluation. A key a binding stored is a hit here too.
    pub fn get_or_compute(&self, key: EvalKey, compute: impl FnOnce() -> EvalResult) -> EvalResult {
        let (mut map, resident) = self.lock_for_insert(key);
        if let Some(v) = resident {
            map.hits += 1;
            return v;
        }
        self.assert_record(key);
        map.misses += 1;
        let v = self.resolve(key, compute);
        map.insert(key, v, self.capacity_per_shard);
        v
    }

    /// Locks the shard of `key` for a full-key lookup that may insert,
    /// returning the value `key` already has in this cache, if any.
    ///
    /// A key is stored once per cache, so before a new entry may enter
    /// the shard every partition must be checked. Partition lookups
    /// take their partition's lock and then, on a miss, a shard's; this
    /// path therefore locks every partition in creation order *before*
    /// relocking the shard, so the two orders cannot deadlock. The
    /// partition locks are released before returning: a binding that
    /// then misses sees `sharded` set and waits on the shard lock held
    /// here, finding the entry this lookup stores.
    ///
    /// `sharded` is stored before `partitioned` is loaded, and `bind`
    /// stores `partitioned` before any partition lookup loads `sharded`
    /// (all `SeqCst`): so either this lookup sees the partitions, or
    /// every binding's later miss sees `sharded` and checks the shards.
    fn lock_for_insert(&self, key: EvalKey) -> (MutexGuard<'_, Table>, Option<EvalResult>) {
        let shard = &self.shards[key.shard()];
        let map = shard.lock();
        if let Some(&v) = map.entries.get(&key) {
            return (map, Some(v));
        }
        if !self.sharded.load(Ordering::SeqCst) {
            self.sharded.store(true, Ordering::SeqCst);
        }
        if !self.partitioned.load(Ordering::SeqCst) {
            return (map, None);
        }
        drop(map);
        let slabs = self.partition_slabs();
        let parts: Vec<MutexGuard<'_, Table>> = slabs
            .iter()
            .flat_map(|s| s.iter())
            .map(Shard::lock)
            .collect();
        let map = shard.lock();
        let resident = map
            .entries
            .get(&key)
            .or_else(|| parts.iter().find_map(|t| t.entries.get(&key)))
            .copied();
        (map, resident)
    }

    /// Panics on a replay miss.
    fn assert_record(&self, key: EvalKey) {
        assert!(
            self.mode != Mode::Replay,
            "evalcache replay miss: key {} is not in the golden trace \
             (the run diverged from the recorded one)",
            key.to_hex()
        );
    }

    /// Resolves a miss through the tier, or computes it.
    fn resolve(&self, key: EvalKey, compute: impl FnOnce() -> EvalResult) -> EvalResult {
        match &self.tier {
            Some(tier) => tier.resolve(key, compute),
            None => compute(),
        }
    }

    /// Peeks without computing or counting a miss (hits still count),
    /// in the shards and then in every partition.
    pub fn get(&self, key: EvalKey) -> Option<EvalResult> {
        if let Some(v) = self.shards[key.shard()].lock().hit(key) {
            return Some(v);
        }
        if !self.partitioned.load(Ordering::SeqCst) {
            return None;
        }
        self.partition_slabs()
            .iter()
            .flat_map(|s| s.iter())
            .find_map(|p| p.lock().hit(key))
    }

    /// Applies `f` to every table, shards first, then partitions.
    fn for_each_table(&self, mut f: impl FnMut(&Table)) {
        for shard in &self.shards {
            f(&shard.lock());
        }
        for part in self.partition_slabs().iter().flat_map(|s| s.iter()) {
            f(&part.lock());
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.for_each_table(|t| n += t.entries.len());
        n
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across all shards and partitions.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        self.for_each_table(|t| {
            s.hits += t.hits;
            s.misses += t.misses;
            s.evictions += t.evictions;
            s.entries += t.entries.len() as u64;
        });
        s
    }

    /// Calls `f` on every resident entry, shards first, then partitions,
    /// in no particular order within a table. `f` runs under the
    /// table's lock, so it must not use this cache.
    pub fn for_each_entry(&self, f: impl FnMut(EvalKey, &EvalResult)) {
        self.for_each_entry_since(&mut EntryCursor::default(), f);
    }

    /// [`EvalCache::for_each_entry`] over only the tables whose entry
    /// count changed since `cursor`'s previous visit, which it records.
    /// Entries are only ever removed by eviction, so in a cache whose
    /// eviction count did not move every entry added since the previous
    /// visit is visited, along with the older entries of the tables
    /// that grew; the tables that did not grow are not read at all.
    pub fn for_each_entry_since(
        &self,
        cursor: &mut EntryCursor,
        mut f: impl FnMut(EvalKey, &EvalResult),
    ) {
        let mut i = 0;
        self.for_each_table(|t| {
            if cursor.lens.len() == i {
                cursor.lens.push(0);
            }
            if t.entries.len() != cursor.lens[i] {
                cursor.lens[i] = t.entries.len();
                for (k, v) in &t.entries {
                    f(*k, v);
                }
            }
            i += 1;
        });
    }

    /// Serializes every entry to the golden-trace format: a header line
    /// `unico.evaltrace.v1 <count>`, then one `<key-hex> <value>` line
    /// per entry, sorted by key. Floats are IEEE-754 bit patterns in
    /// hex, so the output is byte-for-byte reproducible.
    pub fn to_trace(&self) -> String {
        let mut entries: Vec<(EvalKey, EvalResult)> = Vec::new();
        self.for_each_entry(|k, v| entries.push((k, *v)));
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut out = String::with_capacity(32 + entries.len() * TRACE_LINE_BYTES);
        push_trace_header(entries.len(), &mut out);
        for (k, v) in &entries {
            push_trace_line(*k, v, &mut out);
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
            cache.preload(key, value);
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
        let (mut map, resident) = self.lock_for_insert(key);
        if resident.is_some() {
            return false;
        }
        map.store(key, v, self.capacity_per_shard.is_some());
        drop(map);
        if let Some(tier) = &self.tier {
            tier.preload(key, v);
        }
        true
    }
}

/// Where an [`EvalCache::for_each_entry_since`] visit left off: the
/// entry count of each of the cache's tables (shards, then partitions
/// in creation order, neither ever removed). A default cursor has seen
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct EntryCursor {
    lens: Vec<usize>,
}

/// One binding's view of an [`EvalCache`] (see [`EvalCache::bind`]):
/// lookups lock only the binding's own partition, a table of this
/// binding's keys that one mapping search keeps warm. Keys stay full
/// [`EvalKey`]s, so a key stored here is the key a full-key lookup, a
/// trace or a tier sees.
#[derive(Debug, Clone)]
pub struct CachePartition<'a> {
    cache: &'a EvalCache,
    slab: Arc<[Shard]>,
    slot: usize,
}

impl CachePartition<'_> {
    /// [`EvalCache::get_or_compute`] for a key of this binding. The
    /// compute runs under the partition lock, so each key is still
    /// evaluated once; a miss first looks in the shards (entries loaded
    /// from a trace or stored by full key) when any exist, then goes to
    /// the tier by full key.
    pub fn get_or_compute(&self, key: EvalKey, compute: impl FnOnce() -> EvalResult) -> EvalResult {
        let cache = self.cache;
        let mut table = self.slab[self.slot].lock();
        if let Some(v) = table.hit(key) {
            return v;
        }
        // See `EvalCache::lock_for_insert` for the pairing.
        if cache.sharded.load(Ordering::SeqCst) {
            let resident = cache.shards[key.shard()].lock().entries.get(&key).copied();
            if let Some(v) = resident {
                table.hits += 1;
                return v;
            }
        }
        cache.assert_record(key);
        table.misses += 1;
        let v = cache.resolve(key, compute);
        table.insert(key, v, cache.capacity_per_shard);
        v
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

/// Length of a feasible entry's trace line, newline included (most
/// lines are this long; capacity hint only).
const TRACE_LINE_BYTES: usize = 32 + 2 + 4 * 17 + 1;

/// Appends the golden-trace header line for a trace of `count` entries.
pub fn push_trace_header(count: usize, out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(out, "{TRACE_HEADER} {count}");
}

/// Appends one golden-trace entry line, `<key-hex> <value>\n`: the line
/// [`EvalCache::to_trace`] writes for the entry.
pub fn push_trace_line(key: EvalKey, v: &EvalResult, out: &mut String) {
    push_hex(out, (key.0 >> 64) as u64);
    push_hex(out, key.0 as u64);
    out.push(' ');
    encode_result(v, out);
    out.push('\n');
}

/// Appends `v` as 16 lowercase hex digits.
fn push_hex(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[((v >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&digits).expect("hex digits are ascii"));
}

fn encode_result(v: &EvalResult, out: &mut String) {
    use std::fmt::Write;
    match v {
        Ok(p) => {
            out.push('P');
            for f in [p.latency_s, p.power_mw, p.area_mm2, p.energy_pj] {
                out.push(' ');
                push_hex(out, f.to_bits());
            }
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
                .map(|s| s.lock().fifos.iter().map(VecDeque::len).sum::<usize>())
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

    /// A binding prefix: any builder works, the partition id is its
    /// finished key.
    fn prefix(n: u64) -> EvalKeyBuilder {
        let mut b = EvalKeyBuilder::new(EngineTag::DataCentric);
        b.word(n);
        b
    }

    /// A key is stored once, and a lookup hits exactly when it is
    /// stored, whichever path (binding or full key) stored it.
    #[test]
    fn bound_and_full_key_lookups_share_one_residency() {
        let cache = EvalCache::new();
        let part = cache.bind(&prefix(1));
        let (a, b) = (key(1 << 64 | 1), key(2 << 64 | 2));
        assert_eq!(part.get_or_compute(a, || ppa(1.0)), ppa(1.0));
        assert_eq!(cache.get(a), Some(ppa(1.0)));
        assert_eq!(cache.get_or_compute(a, || panic!("recompute")), ppa(1.0));
        assert_eq!(cache.get_or_compute(b, || ppa(2.0)), ppa(2.0));
        assert_eq!(part.get_or_compute(b, || panic!("recompute")), ppa(2.0));
        // A second binding with the same prefix shares the partition.
        let again = cache.bind(&prefix(1));
        assert_eq!(again.get_or_compute(a, || panic!("recompute")), ppa(1.0));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (4, 2, 2));
        assert_eq!(cache.len(), 2);
        assert!(cache.to_trace().starts_with("unico.evaltrace.v1 2\n"));
    }

    /// One binding over a capped cache evicts exactly what the shards
    /// do: the `(1, 7, 5, 2)` sequence of the full-key test above.
    #[test]
    fn capped_partition_evicts_like_the_shards() {
        let cache = EvalCache::with_capacity_per_shard(2);
        let part = cache.bind(&prefix(3));
        let base = 5u128 << 64; // all on one stripe
        for i in [0u128, 1, 2, 3, 4, 5, 0, 5] {
            let _ = part.get_or_compute(key(base | i), || ppa(2.0));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 7, 5, 2));
        // Stripes are capped separately, as shards are.
        let other = key((6u128 << 64) | 9);
        let _ = part.get_or_compute(other, || ppa(3.0));
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn replay_binding_resolves_from_the_trace() {
        let recorded = EvalCache::new();
        let _ = recorded
            .bind(&prefix(1))
            .get_or_compute(key(11), || ppa(0.5));
        let replay = EvalCache::from_trace(&recorded.to_trace()).expect("parse");
        let part = replay.bind(&prefix(1));
        assert_eq!(part.get_or_compute(key(11), || panic!("miss")), ppa(0.5));
        let s = replay.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 0, 1));
        assert_eq!(replay.to_trace(), recorded.to_trace());
    }

    #[test]
    #[should_panic(expected = "replay miss")]
    fn replay_binding_miss_panics() {
        let replay = EvalCache::from_trace("unico.evaltrace.v1 0\n").expect("parse");
        let _ = replay.bind(&prefix(1)).get_or_compute(key(99), || ppa(1.0));
    }

    /// A job cache's partition miss goes to the shared cache by full
    /// key: the shared cache counts and stores exactly what a full-key
    /// job lookup would have made it.
    #[test]
    fn job_partition_miss_resolves_through_the_shared_cache() {
        let keys: Vec<EvalKey> = (0..6u128).map(|i| key((i << 64) | i)).collect();
        let calls = AtomicUsize::new(0);
        let full_shared = Arc::new(EvalCache::new());
        let full_job = job_over(&full_shared, &keys, &calls);
        let _ = job_over(&full_shared, &keys, &calls);

        let shared = Arc::new(EvalCache::new());
        for _ in 0..2 {
            let job = EvalCache::new().with_backing(Arc::clone(&shared));
            let part = job.bind(&prefix(7));
            for k in &keys {
                let _ = part.get_or_compute(*k, || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    ppa(1.0)
                });
            }
            assert_eq!(job.stats(), full_job.stats());
            assert_eq!(job.to_trace(), full_job.to_trace());
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            12,
            "each shared cache prices a key once"
        );
        assert_eq!(shared.stats(), full_shared.stats());
    }

    /// Loading a trace into a cache whose bindings already hold some of
    /// its keys stores only the new ones, and counts no lookup.
    #[test]
    fn load_trace_skips_keys_a_binding_holds() {
        let full = EvalCache::new();
        for i in 0..5u128 {
            let _ = full.get_or_compute(key((i << 64) | i), || ppa(1.0));
        }
        let cache = EvalCache::new();
        let part = cache.bind(&prefix(2));
        for i in 0..3u128 {
            let _ = part.get_or_compute(key((i << 64) | i), || ppa(1.0));
        }
        assert_eq!(cache.load_trace(&full.to_trace()), Ok(2));
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.to_trace(), full.to_trace());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 3));
        // The loaded keys are hits through the binding.
        let _ = part.get_or_compute(key((4u128 << 64) | 4), || panic!("recompute"));
        assert_eq!(cache.stats().hits, 1);
    }

    /// Two workers bound to one prefix and a full-key caller race over
    /// the same keys from one barrier: each key is still computed and
    /// stored once, and every lookup is counted once.
    #[test]
    fn concurrent_bound_and_full_key_lookups_compute_each_key_once() {
        let keys: Vec<EvalKey> = (0..400u128).map(|i| key((i << 64) | (i * 7))).collect();
        let cache = EvalCache::new();
        let calls = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(3);
        let lookup = |k: EvalKey| {
            move || {
                std::thread::yield_now();
                ppa(k.0 as f64)
            }
        };
        std::thread::scope(|s| {
            for p in 0..2u64 {
                let (cache, calls, start, keys) = (&cache, &calls, &start, &keys);
                s.spawn(move || {
                    let part = cache.bind(&prefix(1));
                    start.wait();
                    for k in keys.iter().rev().skip(p as usize) {
                        let v = part.get_or_compute(*k, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            lookup(*k)()
                        });
                        assert_eq!(v, ppa(k.0 as f64));
                    }
                });
            }
            start.wait();
            for k in &keys {
                let v = cache.get_or_compute(*k, || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    lookup(*k)()
                });
                assert_eq!(v, ppa(k.0 as f64));
            }
        });
        let n = keys.len() as u64;
        assert_eq!(calls.load(Ordering::Relaxed) as u64, n);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (n, n));
        assert_eq!(s.lookups(), 3 * n - 1);
        assert_eq!(cache.len() as u64, n);
    }
}
