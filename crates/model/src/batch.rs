//! Per-candidate derived quantities for the spatial PPA engines.
//!
//! Every evaluation of a [`Mapping`] against a [`LoopNest`] needs the
//! same handful of quantities derived from it: L1 tile extents, trip
//! counts, tile counts, footprints and the temporal order.
//! [`MappingRow`] holds them for one candidate. It is `Copy` and lives
//! on the stack, so the per-candidate `assess` path derives a row,
//! evaluates it and drops it without touching the heap.
//!
//! The engines' row bodies (`AnalyticalModel::evaluate_row`,
//! `LoopCentricModel::evaluate_row`, and the fused-member pricing built
//! on the former) take a `&MappingRow` plus the nest, so the scored
//! outcome and the detailed breakdown run literally the same body. A
//! batch (`MappingCost::assess_batch`) is a loop of scalar `assess`
//! calls, one stack row at a time. The differential suite in
//! `tests/batch_differential.rs` pins scalar, batch and detailed
//! evaluation to the same bits.
//!
//! Cache keys are not derived from rows: the bound costs hash straight
//! off the mapping (see `EvalKeyBuilder::mapping_full`), so a warm cache
//! hit never derives a row at all.

use unico_mapping::{Footprint, Mapping};
use unico_workloads::{Dim, LoopNest, DIM_COUNT};

/// One candidate's derived quantities against a fixed nest and element
/// width. Derived once by [`MappingRow::derive`]; every field is a pure
/// function of `(mapping, nest, bytes_per_elem)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingRow {
    bytes_per_elem: u64,
    spatial: (Dim, Dim),
    l1_tile: [u64; DIM_COUNT],
    order: [Dim; DIM_COUNT],
    l1_trips: [u64; DIM_COUNT],
    l2_trips: [u64; DIM_COUNT],
    num_l2_tiles: u64,
    num_l1_tiles_per_l2: u64,
    fp1: Footprint,
    fp2: Footprint,
}

impl MappingRow {
    /// Derives `mapping`'s row against `nest`, with footprints in bytes
    /// at `bytes_per_elem` per tensor element.
    pub fn derive(mapping: &Mapping, nest: &LoopNest, bytes_per_elem: u64) -> Self {
        let l1_trips = mapping.l1_trip_counts();
        let l2_trips = mapping.l2_trip_counts(nest);
        MappingRow {
            bytes_per_elem,
            spatial: mapping.spatial(),
            l1_tile: mapping.l1_tile(),
            order: mapping.order(),
            num_l2_tiles: l2_trips.iter().product(),
            num_l1_tiles_per_l2: l1_trips.iter().product(),
            l1_trips,
            l2_trips,
            fp1: mapping.l1_footprint(nest, bytes_per_elem),
            fp2: mapping.l2_footprint(nest, bytes_per_elem),
        }
    }

    /// Bytes per tensor element the footprints were derived with.
    pub fn bytes_per_elem(&self) -> u64 {
        self.bytes_per_elem
    }

    /// Spatially unrolled dims.
    pub fn spatial(&self) -> (Dim, Dim) {
        self.spatial
    }

    /// L1 tile extents.
    pub fn l1_tile(&self) -> &[u64; DIM_COUNT] {
        &self.l1_tile
    }

    /// Temporal loop order (verbatim, not canonicalized).
    pub fn order(&self) -> &[Dim; DIM_COUNT] {
        &self.order
    }

    /// L1-level trip counts.
    pub fn l1_trips(&self) -> &[u64; DIM_COUNT] {
        &self.l1_trips
    }

    /// L2-level trip counts.
    pub fn l2_trips(&self) -> &[u64; DIM_COUNT] {
        &self.l2_trips
    }

    /// Number of L2 tiles.
    pub fn num_l2_tiles(&self) -> u64 {
        self.num_l2_tiles
    }

    /// Number of L1 tiles per L2 tile.
    pub fn num_l1_tiles_per_l2(&self) -> u64 {
        self.num_l1_tiles_per_l2
    }

    /// L1 working-set footprint, in bytes.
    pub fn l1_footprint(&self) -> Footprint {
        self.fp1
    }

    /// L2 working-set footprint, in bytes.
    pub fn l2_footprint(&self) -> Footprint {
        self.fp2
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

    fn mappings(n: &LoopNest) -> Vec<Mapping> {
        let mut l1 = [1u64; DIM_COUNT];
        l1[Dim::K.index()] = 4;
        l1[Dim::Y.index()] = 2;
        let m1 = Mapping::new(n, n.extents(), l1, Dim::ALL, (Dim::K, Dim::Y));
        let order = [Dim::K, Dim::S, Dim::R, Dim::Y, Dim::C, Dim::X, Dim::N];
        let m2 = Mapping::new(n, n.extents(), l1, order, (Dim::K, Dim::Y));
        vec![m1, m2, Mapping::identity(n)]
    }

    #[test]
    fn rows_mirror_per_mapping_derivations() {
        let n = nest();
        for m in &mappings(&n) {
            let r = MappingRow::derive(m, &n, 2);
            assert_eq!(r.bytes_per_elem(), 2);
            assert_eq!(r.spatial(), m.spatial());
            assert_eq!(r.l1_tile(), &m.l1_tile());
            assert_eq!(r.order(), &m.order());
            assert_eq!(r.l1_trips(), &m.l1_trip_counts());
            assert_eq!(r.l2_trips(), &m.l2_trip_counts(&n));
            assert_eq!(r.num_l2_tiles(), m.num_l2_tiles(&n));
            assert_eq!(r.num_l1_tiles_per_l2(), m.num_l1_tiles_per_l2());
            assert_eq!(r.l1_footprint(), m.l1_footprint(&n, 2));
            assert_eq!(r.l2_footprint(), m.l2_footprint(&n, 2));
        }
    }
}
