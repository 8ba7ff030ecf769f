//! The mapping representation: two-level tiling + loop order + spatial dims.

use std::fmt;

use unico_workloads::{Dim, LoopNest, DIM_COUNT};

/// Per-tensor on-chip footprint of a tile, in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// Input activation bytes.
    pub input: u64,
    /// Weight bytes.
    pub weight: u64,
    /// Output (partial-sum) bytes.
    pub output: u64,
}

impl Footprint {
    /// Total bytes across the three tensors.
    pub fn total(&self) -> u64 {
        self.input + self.weight + self.output
    }
}

/// A software mapping of one loop nest onto a two-level memory hierarchy.
///
/// * `l2_tile` — extents of the tile staged in global (L2) memory.
/// * `l1_tile` — extents of the tile staged in PE-local (L1) scratchpads;
///   element-wise `1 ≤ l1 ≤ l2 ≤ nest extent`.
/// * `order` — temporal loop order (outermost first) used at both tiling
///   levels.
/// * `spatial` — the two distinct dimensions unrolled across the PE array
///   (rows, columns).
///
/// A `Mapping` is pure geometry: whether it *fits* a given hardware
/// configuration is decided by the cost model via [`Mapping::l1_footprint`]
/// and [`Mapping::l2_footprint`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    l2_tile: [u64; DIM_COUNT],
    l1_tile: [u64; DIM_COUNT],
    order: [Dim; DIM_COUNT],
    spatial: (Dim, Dim),
}

impl Mapping {
    /// Creates a mapping, clamping tiles into `1 ..= nest extent` and
    /// enforcing `l1 ≤ l2`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of all seven dims, or if the
    /// two spatial dims are equal.
    pub fn new(
        nest: &LoopNest,
        mut l2_tile: [u64; DIM_COUNT],
        mut l1_tile: [u64; DIM_COUNT],
        order: [Dim; DIM_COUNT],
        spatial: (Dim, Dim),
    ) -> Self {
        assert!(spatial.0 != spatial.1, "spatial dims must differ");
        // Seven dims covering all seven bits: a permutation.
        let seen = order.iter().fold(0u8, |m, d| m | 1 << d.index());
        assert!(seen == 0x7f, "order must be a permutation");
        let ext = nest.extents();
        for i in 0..DIM_COUNT {
            l2_tile[i] = l2_tile[i].clamp(1, ext[i]);
            l1_tile[i] = l1_tile[i].clamp(1, l2_tile[i]);
        }
        Mapping {
            l2_tile,
            l1_tile,
            order,
            spatial,
        }
    }

    /// A trivial mapping: whole nest as one tile, canonical order,
    /// spatial on `(K, Y)`. Used as a search starting point.
    pub fn identity(nest: &LoopNest) -> Self {
        Mapping::new(
            nest,
            nest.extents(),
            nest.extents(),
            Dim::ALL,
            (Dim::K, Dim::Y),
        )
    }

    /// L2-level tile extents.
    pub fn l2_tile(&self) -> [u64; DIM_COUNT] {
        self.l2_tile
    }

    /// L1-level tile extents.
    pub fn l1_tile(&self) -> [u64; DIM_COUNT] {
        self.l1_tile
    }

    /// Temporal loop order, outermost first.
    pub fn order(&self) -> [Dim; DIM_COUNT] {
        self.order
    }

    /// Spatially unrolled dimensions `(rows, cols)`.
    pub fn spatial(&self) -> (Dim, Dim) {
        self.spatial
    }

    /// Trip counts of the L2-tile loops (`ceil(extent / l2_tile)` per dim).
    pub fn l2_trip_counts(&self, nest: &LoopNest) -> [u64; DIM_COUNT] {
        let ext = nest.extents();
        std::array::from_fn(|i| ext[i].div_ceil(self.l2_tile[i]))
    }

    /// Trip counts of the L1-tile loops inside one L2 tile.
    pub fn l1_trip_counts(&self) -> [u64; DIM_COUNT] {
        std::array::from_fn(|i| self.l2_tile[i].div_ceil(self.l1_tile[i]))
    }

    /// Number of L2 tiles.
    pub fn num_l2_tiles(&self, nest: &LoopNest) -> u64 {
        self.l2_trip_counts(nest).iter().product()
    }

    /// Number of L1 tiles within one L2 tile.
    pub fn num_l1_tiles_per_l2(&self) -> u64 {
        self.l1_trip_counts().iter().product()
    }

    fn footprint_of(nest: &LoopNest, tile: &[u64; DIM_COUNT], bytes_per_elem: u64) -> Footprint {
        let n = tile[Dim::N.index()];
        let k = tile[Dim::K.index()];
        let c = tile[Dim::C.index()];
        let y = tile[Dim::Y.index()];
        let x = tile[Dim::X.index()];
        let r = tile[Dim::R.index()];
        let s = tile[Dim::S.index()];
        let in_rows = nest.input_rows_for(y, r);
        let in_cols = nest.input_cols_for(x, s);
        let in_ch = if nest.is_depthwise() { k } else { c };
        Footprint {
            input: n * in_ch * in_rows * in_cols * bytes_per_elem,
            weight: k * c * r * s * bytes_per_elem,
            output: n * k * y * x * bytes_per_elem,
        }
    }

    /// Bytes each tensor occupies for one **L1** tile.
    pub fn l1_footprint(&self, nest: &LoopNest, bytes_per_elem: u64) -> Footprint {
        Self::footprint_of(nest, &self.l1_tile, bytes_per_elem)
    }

    /// Bytes each tensor occupies for one **L2** tile.
    pub fn l2_footprint(&self, nest: &LoopNest, bytes_per_elem: u64) -> Footprint {
        Self::footprint_of(nest, &self.l2_tile, bytes_per_elem)
    }

    /// MACs within one L1 tile.
    pub fn l1_tile_macs(&self) -> u64 {
        self.l1_tile.iter().product()
    }

    /// Position (0 = outermost) of a dim in the loop order.
    pub fn order_position(&self, dim: Dim) -> usize {
        self.order
            .iter()
            .position(|&d| d == dim)
            .expect("order is a permutation of all dims")
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L2[")?;
        for (i, t) in self.l2_tile.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "] L1[")?;
        for (i, t) in self.l1_tile.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "] order ")?;
        for d in self.order {
            write!(f, "{d}")?;
        }
        write!(f, " spatial ({},{})", self.spatial.0, self.spatial.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::TensorOp;

    fn nest() -> LoopNest {
        TensorOp::Conv2d {
            n: 1,
            k: 64,
            c: 32,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest()
    }

    #[test]
    fn identity_covers_whole_nest() {
        let n = nest();
        let m = Mapping::identity(&n);
        assert_eq!(m.num_l2_tiles(&n), 1);
        assert_eq!(m.num_l1_tiles_per_l2(), 1);
        assert_eq!(m.l1_tile_macs(), n.macs());
    }

    #[test]
    fn tiles_clamped_to_extents() {
        let n = nest();
        let m = Mapping::new(&n, [100; 7], [200; 7], Dim::ALL, (Dim::K, Dim::Y));
        assert_eq!(m.l2_tile()[1], 64);
        // l1 clamped to l2
        assert!(m.l1_tile().iter().zip(m.l2_tile()).all(|(a, b)| *a <= b));
    }

    #[test]
    fn trip_counts_use_ceiling() {
        let n = nest();
        let mut l2 = n.extents();
        l2[3] = 10; // Y=28 -> ceil(28/10)=3
        let m = Mapping::new(&n, l2, [1; 7], Dim::ALL, (Dim::K, Dim::Y));
        assert_eq!(m.l2_trip_counts(&n)[3], 3);
        assert_eq!(m.l1_trip_counts()[3], 10);
    }

    #[test]
    fn footprint_accounts_halo() {
        let n = nest();
        let mut l1 = [1; 7];
        l1[Dim::Y.index()] = 4;
        l1[Dim::X.index()] = 4;
        l1[Dim::R.index()] = 3;
        l1[Dim::S.index()] = 3;
        let m = Mapping::new(&n, n.extents(), l1, Dim::ALL, (Dim::K, Dim::Y));
        let fp = m.l1_footprint(&n, 2);
        // input patch (4-1)+3 = 6x6, one channel
        assert_eq!(fp.input, 6 * 6 * 2);
        assert_eq!(fp.weight, 9 * 2);
        assert_eq!(fp.output, 16 * 2);
        assert_eq!(fp.total(), fp.input + fp.weight + fp.output);
    }

    #[test]
    fn depthwise_input_channels_follow_k() {
        let n = TensorOp::DepthwiseConv2d {
            n: 1,
            c: 16,
            y: 8,
            x: 8,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        let mut l1 = n.extents();
        l1[Dim::K.index()] = 4;
        let m = Mapping::new(&n, n.extents(), l1, Dim::ALL, (Dim::K, Dim::Y));
        let fp = m.l1_footprint(&n, 1);
        assert_eq!(fp.input, 4 * 10 * 10);
    }

    #[test]
    #[should_panic(expected = "spatial dims must differ")]
    fn equal_spatial_panics() {
        let n = nest();
        let _ = Mapping::new(&n, n.extents(), n.extents(), Dim::ALL, (Dim::K, Dim::K));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_panics() {
        let n = nest();
        let order = [Dim::N, Dim::N, Dim::C, Dim::Y, Dim::X, Dim::R, Dim::S];
        let _ = Mapping::new(&n, n.extents(), n.extents(), order, (Dim::K, Dim::Y));
    }

    #[test]
    fn order_position_roundtrip() {
        let n = nest();
        let m = Mapping::identity(&n);
        for d in Dim::ALL {
            assert_eq!(m.order()[m.order_position(d)], d);
        }
    }
}
