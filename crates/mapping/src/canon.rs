//! Mapping canonicalization and stable hashing for evaluation-cache keys.
//!
//! The PPA engines price a [`Mapping`] through two ingredients: the tile
//! extents (footprints and trip counts) and the loop-centric traffic rule
//! — a tensor tile is re-fetched once per iteration of every loop it
//! depends on, plus once per iteration of every independent loop wrapped
//! outside its innermost dependent loop, where **loops with trip count 1
//! never contribute**. Two syntactically different mappings can therefore
//! be semantically identical, and an evaluation cache keyed on the raw
//! representation would miss on them. [`CanonicalMapping`] normalizes
//! exactly the two rewrite families that are provably neutral for every
//! engine:
//!
//! 1. **Unit loops** — a dimension whose trip count is 1 at *both* tiling
//!    levels is skipped by the traffic rule at both levels, so its
//!    position in the temporal order is irrelevant. Such dims are dropped
//!    from the canonical order.
//! 2. **Reduction runs** — inside a maximal contiguous run of reduction
//!    dims (`C`, `R`, `S`) every tensor sees a homogeneous dependence
//!    status (output: all independent; weight and input: all dependent),
//!    so permuting the run changes neither the product of dependent trip
//!    counts nor which independent loops sit outside the innermost
//!    dependent loop. Runs are sorted into canonical dim order.
//!    For depthwise nests the input depends on `R`/`S` but not `C`, so
//!    only `R`/`S` participate in run sorting there.
//!
//! Spatial dims are **not** normalized: swapping them changes how tiles
//! land on the `PE_x × PE_y` array. Tile extents are kept verbatim.
//!
//! [`StableHasher`] is a process- and platform-independent 128-bit
//! hasher (two decorrelated FNV-1a-64 lanes with an avalanche finisher)
//! used to derive cache keys that stay valid across runs, which is what
//! the golden-trace record/replay machinery requires. `std`'s `Hasher`
//! is deliberately not used: its output is not guaranteed stable across
//! releases.

use unico_workloads::{Dim, LoopNest, DIM_COUNT};

use crate::mapping::Mapping;

/// A deterministic, platform-stable 128-bit streaming hasher.
///
/// Two FNV-1a-64 lanes consume the same byte stream with different
/// offset bases and per-lane byte tweaks, then each lane is passed
/// through a 64-bit avalanche finisher. The result is stable across
/// processes, architectures and releases, so it can name entries in
/// on-disk golden traces.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        StableHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(byte ^ 0x5c)).wrapping_mul(FNV_PRIME);
    }

    /// Feeds a `u64` in one round per lane (word-wise FNV-1a; roughly
    /// 8× cheaper than byte-wise, and cache keys are built per
    /// evaluation so this is hot).
    pub fn write_u64(&mut self, value: u64) {
        self.a = (self.a ^ value).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ value.rotate_left(17)).wrapping_mul(FNV_PRIME);
    }

    /// Feeds a boolean as one byte.
    pub fn write_bool(&mut self, value: bool) {
        self.write_u8(u8::from(value));
    }

    /// 64-bit avalanche finisher (the murmur3 `fmix64` constants).
    fn fmix64(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x
    }

    /// Finishes into a 128-bit digest.
    pub fn finish128(&self) -> u128 {
        (u128::from(Self::fmix64(self.a)) << 64) | u128::from(Self::fmix64(self.b))
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// The semantic normal form of a [`Mapping`] for a fixed [`LoopNest`]:
/// tiles and spatial dims verbatim, temporal order reduced to the loops
/// that can influence any PPA engine (see the module docs for the
/// invariance argument).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalMapping {
    l2_tile: [u64; DIM_COUNT],
    l1_tile: [u64; DIM_COUNT],
    order: Vec<Dim>,
    spatial: (Dim, Dim),
}

impl CanonicalMapping {
    /// Canonicalizes `mapping` against `nest`.
    pub fn of(mapping: &Mapping, nest: &LoopNest) -> Self {
        let l1_trips = mapping.l1_trip_counts();
        let l2_trips = mapping.l2_trip_counts(nest);
        let mut buf = [Dim::N; DIM_COUNT];
        let len = Self::order_into(
            &mapping.order(),
            &l1_trips,
            &l2_trips,
            nest.is_depthwise(),
            &mut buf,
        );
        CanonicalMapping {
            l2_tile: mapping.l2_tile(),
            l1_tile: mapping.l1_tile(),
            order: buf[..len].to_vec(),
            spatial: mapping.spatial(),
        }
    }

    /// Computes only the canonical temporal order into a caller-provided
    /// stack buffer, returning its length — the allocation-free core of
    /// [`CanonicalMapping::of`], for cache-key building where the trip
    /// counts are already at hand.
    ///
    /// `buf[..len]` holds `order` with unit loops (trip count 1 at both
    /// levels) removed and maximal reduction runs sorted; see the module
    /// docs for why both rewrites are engine-neutral.
    pub fn order_into(
        order: &[Dim; DIM_COUNT],
        l1_trips: &[u64; DIM_COUNT],
        l2_trips: &[u64; DIM_COUNT],
        depthwise: bool,
        buf: &mut [Dim; DIM_COUNT],
    ) -> usize {
        // Unit loops: trip count 1 at both levels contributes to neither
        // the L1- nor the L2-level traffic sweep.
        let mut len = 0usize;
        for &d in order {
            if l1_trips[d.index()] > 1 || l2_trips[d.index()] > 1 {
                buf[len] = d;
                len += 1;
            }
        }
        Self::sort_reduction_runs(&mut buf[..len], depthwise);
        len
    }

    /// Sorts maximal contiguous reduction runs of a unit-loop-free order
    /// into canonical dim order, in place. For depthwise nests the input
    /// tensor depends on R/S but not C, so C is excluded from runs to
    /// keep every run homogeneous per tensor.
    fn sort_reduction_runs(buf: &mut [Dim], depthwise: bool) {
        let sortable = |d: Dim| {
            if depthwise {
                matches!(d, Dim::R | Dim::S)
            } else {
                d.is_reduction()
            }
        };
        let len = buf.len();
        let mut i = 0;
        while i < len {
            if sortable(buf[i]) {
                let mut j = i;
                while j < len && sortable(buf[j]) {
                    j += 1;
                }
                // Runs hold at most three dims (C, R, S), so an in-place
                // insertion sort beats a call into the general sort.
                for k in i + 1..j {
                    let mut m = k;
                    while m > i && buf[m - 1].index() > buf[m].index() {
                        buf.swap(m - 1, m);
                        m -= 1;
                    }
                }
                i = j;
            } else {
                i += 1;
            }
        }
    }

    /// L2-level tile extents (verbatim from the mapping).
    pub fn l2_tile(&self) -> [u64; DIM_COUNT] {
        self.l2_tile
    }

    /// L1-level tile extents (verbatim from the mapping).
    pub fn l1_tile(&self) -> [u64; DIM_COUNT] {
        self.l1_tile
    }

    /// Canonical temporal order: unit loops removed, reduction runs
    /// sorted. May be shorter than [`DIM_COUNT`].
    pub fn order(&self) -> &[Dim] {
        &self.order
    }

    /// Spatially unrolled dims, verbatim.
    pub fn spatial(&self) -> (Dim, Dim) {
        self.spatial
    }

    /// Feeds the full canonical form (tiles, order, spatial) into a
    /// [`StableHasher`].
    pub fn hash_into(&self, h: &mut StableHasher) {
        self.hash_tiles_into(h);
        h.write_u64(self.order.len() as u64);
        for d in &self.order {
            h.write_u8(d.index() as u8);
        }
        h.write_u8(self.spatial.0.index() as u8);
        h.write_u8(self.spatial.1.index() as u8);
    }

    /// Feeds only the tile extents into a [`StableHasher`] — for engines
    /// that are blind to temporal order and spatial placement (the
    /// Ascend-like cycle model reads tiles alone).
    pub fn hash_tiles_into(&self, h: &mut StableHasher) {
        for t in self.l2_tile {
            h.write_u64(t);
        }
        for t in self.l1_tile {
            h.write_u64(t);
        }
    }

    /// Allocation-free equivalent of
    /// `CanonicalMapping::of(mapping, nest).hash_into(h)`: canonicalizes
    /// the temporal order into a stack buffer and streams the identical
    /// bytes. This is the hot path of cache-key building — one call per
    /// assessed candidate — where the `order` vec of
    /// [`CanonicalMapping::of`] would be a per-candidate heap
    /// allocation. Byte-equality with the materialized form is pinned
    /// by a unit test.
    pub fn hash_mapping_into(mapping: &Mapping, nest: &LoopNest, h: &mut StableHasher) {
        let l2_tile = mapping.l2_tile();
        let l1_tile = mapping.l1_tile();
        for t in l2_tile {
            h.write_u64(t);
        }
        for t in l1_tile {
            h.write_u64(t);
        }
        // Unit-loop test without trip-count divisions: for b >= 1,
        // `a.div_ceil(b) > 1` iff `a > b`, so an L1 trip count exceeds 1
        // iff the L2 tile out-sizes the L1 tile, and an L2 trip count
        // exceeds 1 iff the nest extent out-sizes the L2 tile.
        let ext = nest.extents();
        let mut buf = [Dim::N; DIM_COUNT];
        let mut len = 0usize;
        for &d in &mapping.order() {
            let i = d.index();
            if l2_tile[i] > l1_tile[i] || ext[i] > l2_tile[i] {
                buf[len] = d;
                len += 1;
            }
        }
        Self::sort_reduction_runs(&mut buf[..len], nest.is_depthwise());
        h.write_u64(len as u64);
        for d in &buf[..len] {
            h.write_u8(d.index() as u8);
        }
        h.write_u8(mapping.spatial().0.index() as u8);
        h.write_u8(mapping.spatial().1.index() as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::TensorOp;

    fn nest() -> LoopNest {
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
        .to_loop_nest()
    }

    #[test]
    fn stable_hasher_is_deterministic_and_input_sensitive() {
        let mut h1 = StableHasher::new();
        let mut h2 = StableHasher::new();
        for v in [1u64, 2, 3] {
            h1.write_u64(v);
            h2.write_u64(v);
        }
        assert_eq!(h1.finish128(), h2.finish128());
        let mut h3 = StableHasher::new();
        for v in [1u64, 2, 4] {
            h3.write_u64(v);
        }
        assert_ne!(h1.finish128(), h3.finish128());
        // Known-answer: locks the digest across releases so on-disk
        // golden traces stay valid.
        let mut h = StableHasher::new();
        h.write_u64(0);
        assert_eq!(h.finish128(), 0xb903_4ad3_7056_f5fb_232e_6081_017c_ef1b);
    }

    #[test]
    fn byte_boundaries_matter() {
        // (1, 0) and (0, 1) must hash differently even though the raw
        // byte multiset matches.
        let mut h1 = StableHasher::new();
        h1.write_u64(1);
        h1.write_u64(0);
        let mut h2 = StableHasher::new();
        h2.write_u64(0);
        h2.write_u64(1);
        assert_ne!(h1.finish128(), h2.finish128());
    }

    #[test]
    fn allocation_free_hash_matches_materialized_form() {
        use crate::space::MappingSpace;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for n in [
            nest(),
            LoopNest::new([1, 8, 4, 8, 8, 3, 3]).into_depthwise(),
        ] {
            let space = MappingSpace::new(&n);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..64 {
                let m = space.sample(&mut rng);
                let mut ha = StableHasher::new();
                CanonicalMapping::of(&m, &n).hash_into(&mut ha);
                let mut hb = StableHasher::new();
                CanonicalMapping::hash_mapping_into(&m, &n, &mut hb);
                assert_eq!(ha.finish128(), hb.finish128(), "mapping {m:?}");
            }
            // The identity mapping exercises the empty canonical order.
            let m = Mapping::identity(&n);
            let mut ha = StableHasher::new();
            CanonicalMapping::of(&m, &n).hash_into(&mut ha);
            let mut hb = StableHasher::new();
            CanonicalMapping::hash_mapping_into(&m, &n, &mut hb);
            assert_eq!(ha.finish128(), hb.finish128());
        }
    }

    #[test]
    fn unit_dims_dropped_from_order() {
        let n = nest();
        // Whole-nest tiles at both levels: every trip count is 1.
        let m = Mapping::identity(&n);
        let c = CanonicalMapping::of(&m, &n);
        assert!(c.order().is_empty());
        // Tiling K only leaves K in the canonical order.
        let mut l1 = n.extents();
        l1[Dim::K.index()] = 4;
        let m = Mapping::new(&n, n.extents(), l1, Dim::ALL, (Dim::K, Dim::Y));
        let c = CanonicalMapping::of(&m, &n);
        assert_eq!(c.order(), &[Dim::K]);
    }

    #[test]
    fn unit_dim_position_is_irrelevant() {
        let n = nest();
        let mut l1 = [1u64; DIM_COUNT];
        l1[Dim::K.index()] = 4;
        l1[Dim::Y.index()] = 4;
        l1[Dim::X.index()] = 4;
        // N has extent 1: its position never matters.
        let o1 = [Dim::N, Dim::K, Dim::C, Dim::Y, Dim::X, Dim::R, Dim::S];
        let o2 = [Dim::K, Dim::C, Dim::Y, Dim::X, Dim::R, Dim::S, Dim::N];
        let m1 = Mapping::new(&n, n.extents(), l1, o1, (Dim::K, Dim::Y));
        let m2 = Mapping::new(&n, n.extents(), l1, o2, (Dim::K, Dim::Y));
        assert_eq!(CanonicalMapping::of(&m1, &n), CanonicalMapping::of(&m2, &n));
    }

    #[test]
    fn reduction_runs_sorted() {
        let n = nest();
        let l1 = [1u64; DIM_COUNT];
        // C, R, S all have trips > 1 (l1 tile 1 < extent); the runs
        // S-R and R-S canonicalize identically.
        let o1 = [Dim::K, Dim::S, Dim::R, Dim::Y, Dim::C, Dim::X, Dim::N];
        let o2 = [Dim::K, Dim::R, Dim::S, Dim::Y, Dim::C, Dim::X, Dim::N];
        let m1 = Mapping::new(&n, n.extents(), l1, o1, (Dim::K, Dim::Y));
        let m2 = Mapping::new(&n, n.extents(), l1, o2, (Dim::K, Dim::Y));
        assert_eq!(CanonicalMapping::of(&m1, &n), CanonicalMapping::of(&m2, &n));
        // Separated runs do NOT merge across a non-reduction loop with
        // trips > 1: C..Y..R,S keeps C apart from R/S.
        let o3 = [Dim::K, Dim::C, Dim::Y, Dim::S, Dim::R, Dim::X, Dim::N];
        let c3 = CanonicalMapping::of(&Mapping::new(&n, n.extents(), l1, o3, (Dim::K, Dim::Y)), &n);
        assert_eq!(
            c3.order(),
            &[Dim::K, Dim::C, Dim::Y, Dim::R, Dim::S, Dim::X]
        );
    }

    #[test]
    fn spatial_dims_not_normalized() {
        let n = nest();
        let l1 = [1u64; DIM_COUNT];
        let m1 = Mapping::new(&n, n.extents(), l1, Dim::ALL, (Dim::K, Dim::Y));
        let m2 = Mapping::new(&n, n.extents(), l1, Dim::ALL, (Dim::Y, Dim::K));
        assert_ne!(CanonicalMapping::of(&m1, &n), CanonicalMapping::of(&m2, &n));
    }

    #[test]
    fn depthwise_keeps_c_out_of_runs() {
        let n = LoopNest::new([1, 8, 4, 8, 8, 3, 3]).into_depthwise();
        let l1 = [1u64; DIM_COUNT];
        // For a depthwise nest with C > 1 the input depends on R/S but
        // not C, so C must not be re-ordered against R/S.
        let o1 = [Dim::K, Dim::C, Dim::R, Dim::S, Dim::Y, Dim::X, Dim::N];
        let o2 = [Dim::K, Dim::R, Dim::C, Dim::S, Dim::Y, Dim::X, Dim::N];
        let m1 = Mapping::new(&n, n.extents(), l1, o1, (Dim::K, Dim::Y));
        let m2 = Mapping::new(&n, n.extents(), l1, o2, (Dim::K, Dim::Y));
        assert_ne!(CanonicalMapping::of(&m1, &n), CanonicalMapping::of(&m2, &n));
        // R and S still sort against each other.
        let o3 = [Dim::K, Dim::C, Dim::S, Dim::R, Dim::Y, Dim::X, Dim::N];
        let m3 = Mapping::new(&n, n.extents(), l1, o3, (Dim::K, Dim::Y));
        assert_eq!(CanonicalMapping::of(&m1, &n), CanonicalMapping::of(&m3, &n));
    }

    #[test]
    fn hash_distinguishes_tiles() {
        let n = nest();
        let mut l1a = [1u64; DIM_COUNT];
        l1a[Dim::K.index()] = 2;
        let mut l1b = [1u64; DIM_COUNT];
        l1b[Dim::K.index()] = 4;
        let ca = CanonicalMapping::of(
            &Mapping::new(&n, n.extents(), l1a, Dim::ALL, (Dim::K, Dim::Y)),
            &n,
        );
        let cb = CanonicalMapping::of(
            &Mapping::new(&n, n.extents(), l1b, Dim::ALL, (Dim::K, Dim::Y)),
            &n,
        );
        let mut ha = StableHasher::new();
        ca.hash_into(&mut ha);
        let mut hb = StableHasher::new();
        cb.hash_into(&mut hb);
        assert_ne!(ha.finish128(), hb.finish128());
    }
}
