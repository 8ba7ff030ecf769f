//! Per-nest mapping space: legal tile options, random sampling,
//! mutation and crossover.

use rand::seq::SliceRandom;
use rand::Rng;

use unico_workloads::{Dim, LoopNest, DIM_COUNT};

use crate::mapping::Mapping;

/// The space of legal [`Mapping`]s for one loop nest.
///
/// Tile extents are drawn from a per-dimension option list of "smooth"
/// sizes (products of powers of two and three, plus the full extent), the
/// same flavour of pruning deep-learning schedulers apply. Loop orders are
/// arbitrary permutations and spatial dims any distinct pair of the
/// non-trivial dimensions.
#[derive(Debug, Clone)]
pub struct MappingSpace {
    nest: LoopNest,
    tile_options: [Vec<u64>; DIM_COUNT],
    spatial_candidates: Vec<Dim>,
}

/// Calls `f` with every `2^a * 3^b ≤ extent` (each value once).
fn for_each_smooth(extent: u64, mut f: impl FnMut(u64)) {
    let mut p2 = 1u64;
    while p2 <= extent {
        let mut val = p2;
        while val <= extent {
            f(val);
            val *= 3;
        }
        p2 *= 2;
    }
}

/// Generates the ascending list of candidate tile sizes for an extent:
/// all `2^a * 3^b ≤ extent` plus `extent` itself. A counting pass sizes
/// the list exactly, so it is one allocation and never grows.
fn smooth_sizes(extent: u64) -> Vec<u64> {
    let mut count = 0;
    let mut extent_is_smooth = false;
    for_each_smooth(extent, |val| {
        count += 1;
        extent_is_smooth |= val == extent;
    });
    let mut v = Vec::with_capacity(count + usize::from(!extent_is_smooth));
    for_each_smooth(extent, |val| v.push(val));
    if !extent_is_smooth {
        v.push(extent);
    }
    v.sort_unstable();
    v
}

impl MappingSpace {
    /// Builds the mapping space for a loop nest.
    pub fn new(nest: &LoopNest) -> Self {
        let ext = nest.extents();
        let tile_options = std::array::from_fn(|i| smooth_sizes(ext[i]));
        // Spatial unrolling across dimensions with some extent to unroll;
        // reductions R/S are allowed (MAESTRO-style) but N rarely helps
        // at batch 1, so require extent > 1.
        let spatial_candidates: Vec<Dim> = Dim::ALL
            .into_iter()
            .filter(|d| nest.extent(*d) > 1)
            .collect();
        MappingSpace {
            nest: *nest,
            tile_options,
            spatial_candidates,
        }
    }

    /// The loop nest this space maps.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// Dimensions eligible for spatial unrolling (extent > 1), in
    /// [`Dim::ALL`] order. Fewer than two candidates means the space
    /// pins the spatial pair to `(K, Y)`.
    pub fn spatial_candidates(&self) -> &[Dim] {
        &self.spatial_candidates
    }

    /// Candidate tile sizes for one dimension.
    pub fn tile_options(&self, dim: Dim) -> &[u64] {
        &self.tile_options[dim.index()]
    }

    /// Approximate cardinality of the space (log10).
    pub fn log10_size(&self) -> f64 {
        let mut log = 0.0f64;
        for opts in &self.tile_options {
            // l2 choice x l1 choice (ordered pairs).
            let n = opts.len() as f64;
            log += (n * (n + 1.0) / 2.0).log10();
        }
        // 7! orders.
        log += 5040f64.log10();
        let s = self.spatial_candidates.len() as f64;
        if s >= 2.0 {
            log += (s * (s - 1.0)).log10();
        }
        log
    }

    /// Samples a uniformly random legal mapping.
    #[allow(clippy::needless_range_loop)]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Mapping {
        let mut l2 = [1u64; DIM_COUNT];
        let mut l1 = [1u64; DIM_COUNT];
        for i in 0..DIM_COUNT {
            let opts = &self.tile_options[i];
            let a = opts[rng.gen_range(0..opts.len())];
            let b = opts[rng.gen_range(0..opts.len())];
            l2[i] = a.max(b);
            l1[i] = a.min(b);
        }
        let mut order = Dim::ALL;
        order.shuffle(rng);
        let spatial = self.sample_spatial(rng);
        Mapping::new(&self.nest, l2, l1, order, spatial)
    }

    fn sample_spatial<R: Rng + ?Sized>(&self, rng: &mut R) -> (Dim, Dim) {
        if self.spatial_candidates.len() < 2 {
            return (Dim::K, Dim::Y);
        }
        loop {
            let a = self.spatial_candidates[rng.gen_range(0..self.spatial_candidates.len())];
            let b = self.spatial_candidates[rng.gen_range(0..self.spatial_candidates.len())];
            if a != b {
                return (a, b);
            }
        }
    }

    fn step_tile<R: Rng + ?Sized>(&self, rng: &mut R, dim: usize, current: u64) -> u64 {
        let opts = &self.tile_options[dim];
        let pos = opts.partition_point(|&v| v < current).min(opts.len() - 1);
        let dist = rng.gen_range(1..=3i64);
        let delta = if rng.gen_bool(0.5) { dist } else { -dist };
        let new = (pos as i64 + delta).clamp(0, opts.len() as i64 - 1) as usize;
        opts[new]
    }

    /// Produces a neighbour of `m` by perturbing one component (a tile
    /// size, the loop order, or a spatial dim).
    pub fn mutate<R: Rng + ?Sized>(&self, rng: &mut R, m: &Mapping) -> Mapping {
        match rng.gen_range(0..4u8) {
            0 => self.mutate_l2_tile(rng, m),
            1 => self.mutate_l1_tile(rng, m),
            2 => self.mutate_order(rng, m),
            _ => self.mutate_spatial(rng, m),
        }
    }

    /// Steps one random L1 tile a few options up or down.
    pub fn mutate_l1_tile<R: Rng + ?Sized>(&self, rng: &mut R, m: &Mapping) -> Mapping {
        let mut l1 = m.l1_tile();
        let d = rng.gen_range(0..DIM_COUNT);
        l1[d] = self.step_tile(rng, d, l1[d]);
        Mapping::new(&self.nest, m.l2_tile(), l1, m.order(), m.spatial())
    }

    /// Steps one random L2 tile a few options up or down.
    pub fn mutate_l2_tile<R: Rng + ?Sized>(&self, rng: &mut R, m: &Mapping) -> Mapping {
        let mut l2 = m.l2_tile();
        let d = rng.gen_range(0..DIM_COUNT);
        l2[d] = self.step_tile(rng, d, l2[d]);
        Mapping::new(&self.nest, l2, m.l1_tile(), m.order(), m.spatial())
    }

    /// Swaps two positions of the temporal loop order.
    pub fn mutate_order<R: Rng + ?Sized>(&self, rng: &mut R, m: &Mapping) -> Mapping {
        let mut order = m.order();
        let a = rng.gen_range(0..DIM_COUNT);
        let b = rng.gen_range(0..DIM_COUNT);
        order.swap(a, b);
        Mapping::new(&self.nest, m.l2_tile(), m.l1_tile(), order, m.spatial())
    }

    /// Replaces one spatial dimension.
    pub fn mutate_spatial<R: Rng + ?Sized>(&self, rng: &mut R, m: &Mapping) -> Mapping {
        let spatial = m.spatial();
        let s = self.sample_spatial(rng);
        // Replace one side, keep the other when legal.
        let spatial = if rng.gen_bool(0.5) && s.0 != spatial.1 {
            (s.0, spatial.1)
        } else if s.1 != spatial.0 {
            (spatial.0, s.1)
        } else {
            s
        };
        Mapping::new(&self.nest, m.l2_tile(), m.l1_tile(), m.order(), spatial)
    }

    /// Shrinks the mapping's working set: steps the largest L1 tile (or,
    /// when L1 is already minimal, the largest L2 tile) down several
    /// options. Searchers call this after a buffer-overflow rejection to
    /// walk back into the feasible region quickly.
    pub fn shrink<R: Rng + ?Sized>(&self, rng: &mut R, m: &Mapping) -> Mapping {
        let mut l2 = m.l2_tile();
        let mut l1 = m.l1_tile();
        let (sa, sb) = m.spatial();
        let step_down = |opts: &[u64], current: u64, floor: u64| -> u64 {
            let pos = opts.partition_point(|&v| v < current).min(opts.len() - 1);
            opts[pos / 2].max(floor.min(opts[opts.len() - 1]))
        };
        // Spatial tiles keep extent ≥ 2 where possible so shrinking never
        // degenerates the PE-array unrolling.
        let l1_floor = |d: usize| {
            if d == sa.index() || d == sb.index() {
                2
            } else {
                1
            }
        };
        // Largest shrinkable L1 tile first; fall back to L2 when L1 is
        // already minimal.
        let (d1, max1) = (0..l1.len())
            .map(|d| (d, l1[d].saturating_sub(l1_floor(d))))
            .max_by_key(|&(_, slack)| slack)
            .expect("seven dims");
        if max1 > 0 {
            l1[d1] = step_down(&self.tile_options[d1], l1[d1], l1_floor(d1));
            // Half the time also trim the largest L2 tile so the L2
            // working set shrinks too.
            if rng.gen_bool(0.5) {
                let (d2, _) = l2
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| t)
                    .expect("seven dims");
                l2[d2] = step_down(&self.tile_options[d2], l2[d2], 1);
            }
        } else {
            let (d2, _) = l2
                .iter()
                .enumerate()
                .max_by_key(|(_, &t)| t)
                .expect("seven dims");
            l2[d2] = step_down(&self.tile_options[d2], l2[d2], 1);
        }
        Mapping::new(&self.nest, l2, l1, m.order(), m.spatial())
    }

    /// Rounds a continuous tile size to the nearest legal option for
    /// `dim`, measured in log space (ratio distance); ties round down.
    /// Values at or below the smallest option clamp to it, likewise at
    /// the top.
    pub fn nearest_tile(&self, dim: Dim, v: f64) -> u64 {
        let opts = &self.tile_options[dim.index()];
        if v.is_nan() || v <= opts[0] as f64 {
            return opts[0];
        }
        let last = *opts.last().expect("non-empty options");
        if v >= last as f64 {
            return last;
        }
        // First option strictly greater than v; its predecessor exists
        // because v > opts[0].
        let hi_pos = opts.partition_point(|&o| (o as f64) <= v);
        let lo = opts[hi_pos - 1];
        let hi = opts[hi_pos];
        // Log-space distance: compare v/lo against hi/v.
        if v / lo as f64 <= hi as f64 / v {
            lo
        } else {
            hi
        }
    }

    /// Largest legal tile option `<= v` for `dim` (the smallest option
    /// when `v` is below all of them). Rounding down never grows a
    /// footprint, so a capacity-feasible continuous point stays feasible
    /// after discretization — [`nearest_tile`](Self::nearest_tile) can
    /// round a tile *up* across the buffer wall.
    pub fn floor_tile(&self, dim: Dim, v: f64) -> u64 {
        let opts = &self.tile_options[dim.index()];
        if v.is_nan() {
            return opts[0];
        }
        match opts.partition_point(|&o| o as f64 <= v) {
            0 => opts[0],
            p => opts[p - 1],
        }
    }

    /// [`legalize`](Self::legalize) with floor rounding: every tile is
    /// the largest option not exceeding its continuous value. Same
    /// membership and idempotence guarantees.
    pub fn legalize_floor(
        &self,
        l2: &[f64; DIM_COUNT],
        l1: &[f64; DIM_COUNT],
        order: [Dim; DIM_COUNT],
        spatial: (Dim, Dim),
    ) -> Mapping {
        let mut l2t = [1u64; DIM_COUNT];
        let mut l1t = [1u64; DIM_COUNT];
        for d in Dim::ALL {
            let i = d.index();
            l2t[i] = self.floor_tile(d, l2[i]);
            l1t[i] = self.floor_tile(d, l1[i]).min(l2t[i]);
        }
        Mapping::new(&self.nest, l2t, l1t, order, spatial)
    }

    /// Legalizes a continuous tiling: rounds every L2 and L1 tile to the
    /// nearest legal option (log-space nearest, ties down), clamps
    /// `l1 ≤ l2`, and assembles a [`Mapping`] with the given order and
    /// spatial dims.
    ///
    /// The result is always a member of this space ([`MappingSpace::contains`])
    /// and the operation is idempotent: legalizing a legalized mapping's
    /// tiles reproduces it exactly.
    pub fn legalize(
        &self,
        l2: &[f64; DIM_COUNT],
        l1: &[f64; DIM_COUNT],
        order: [Dim; DIM_COUNT],
        spatial: (Dim, Dim),
    ) -> Mapping {
        let mut l2t = [1u64; DIM_COUNT];
        let mut l1t = [1u64; DIM_COUNT];
        for d in Dim::ALL {
            let i = d.index();
            l2t[i] = self.nearest_tile(d, l2[i]);
            // Clamping to the L2 tile keeps membership: every option is
            // itself an option, so min(option, option) is an option.
            l1t[i] = self.nearest_tile(d, l1[i]).min(l2t[i]);
        }
        Mapping::new(&self.nest, l2t, l1t, order, spatial)
    }

    /// Moves one tile of `m` a single option-list step: `level2` selects
    /// the L2 tile (L1 otherwise), `up` the direction. Maintains
    /// `l1 <= l2` by clamping the other level; returns `None` at the
    /// option-list edge, when the move would need `l1 > l2`, or when the
    /// tile is not a legal option (foreign mapping).
    pub fn neighbor_tile(&self, m: &Mapping, dim: Dim, level2: bool, up: bool) -> Option<Mapping> {
        let i = dim.index();
        let opts = &self.tile_options[i];
        let mut l2 = m.l2_tile();
        let mut l1 = m.l1_tile();
        let cur = if level2 { l2[i] } else { l1[i] };
        let pos = opts.iter().position(|&o| o == cur)?;
        let next = if up {
            *opts.get(pos + 1)?
        } else {
            opts[pos.checked_sub(1)?]
        };
        if level2 {
            l2[i] = next;
            l1[i] = l1[i].min(next);
        } else {
            if next > l2[i] {
                return None;
            }
            l1[i] = next;
        }
        Some(Mapping::new(&self.nest, l2, l1, m.order(), m.spatial()))
    }

    /// Whether a mapping is a member of this space: every tile is a
    /// legal option, `l1 ≤ l2` element-wise, and the spatial pair is
    /// drawn from the non-trivial candidates (or is the `(K, Y)`
    /// fallback used when fewer than two candidates exist).
    pub fn contains(&self, m: &Mapping) -> bool {
        for d in Dim::ALL {
            let i = d.index();
            let opts = &self.tile_options[i];
            if opts.binary_search(&m.l2_tile()[i]).is_err()
                || opts.binary_search(&m.l1_tile()[i]).is_err()
                || m.l1_tile()[i] > m.l2_tile()[i]
            {
                return false;
            }
        }
        let (a, b) = m.spatial();
        if a == b {
            return false;
        }
        if self.spatial_candidates.len() < 2 {
            return (a, b) == (Dim::K, Dim::Y);
        }
        self.spatial_candidates.contains(&a) && self.spatial_candidates.contains(&b)
    }

    /// Uniform crossover of two mappings (per-dimension tile inheritance,
    /// order from one parent, spatial from the other).
    pub fn crossover<R: Rng + ?Sized>(&self, rng: &mut R, a: &Mapping, b: &Mapping) -> Mapping {
        let mut l2 = [1u64; DIM_COUNT];
        let mut l1 = [1u64; DIM_COUNT];
        for i in 0..DIM_COUNT {
            let (pa, pb) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            l2[i] = pa.l2_tile()[i];
            l1[i] = pb.l1_tile()[i].min(l2[i]);
        }
        let (order_parent, spatial_parent) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
        Mapping::new(
            &self.nest,
            l2,
            l1,
            order_parent.order(),
            spatial_parent.spatial(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use unico_workloads::TensorOp;

    /// The push/sort/dedup routine `smooth_sizes` replaced.
    fn pushed_smooth_sizes(extent: u64) -> Vec<u64> {
        let mut v = Vec::new();
        let mut p2 = 1u64;
        while p2 <= extent {
            let mut val = p2;
            while val <= extent {
                v.push(val);
                val *= 3;
            }
            p2 *= 2;
        }
        v.push(extent);
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn smooth_sizes_are_exactly_sized_and_unchanged() {
        let extents = (0..=4096).chain([6561, 100_003, 1 << 40, 3u64.pow(30), u64::MAX / 4]);
        for extent in extents {
            let v = smooth_sizes(extent);
            assert_eq!(v, pushed_smooth_sizes(extent), "extent {extent}");
            assert_eq!(v.capacity(), v.len(), "extent {extent}");
        }
    }

    fn space() -> MappingSpace {
        let nest = TensorOp::Conv2d {
            n: 1,
            k: 64,
            c: 32,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        MappingSpace::new(&nest)
    }

    #[test]
    fn smooth_sizes_contains_bounds() {
        let v = smooth_sizes(28);
        assert!(v.contains(&1));
        assert!(v.contains(&28));
        assert!(v.contains(&24)); // 2^3 * 3
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert!(v.iter().all(|&t| t <= 28));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn samples_are_legal() {
        let sp = space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let m = sp.sample(&mut rng);
            let ext = sp.nest().extents();
            for i in 0..DIM_COUNT {
                assert!(m.l1_tile()[i] <= m.l2_tile()[i]);
                assert!(m.l2_tile()[i] <= ext[i]);
                assert!(m.l1_tile()[i] >= 1);
            }
            assert_ne!(m.spatial().0, m.spatial().1);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn mutate_produces_legal_neighbours() {
        let sp = space();
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = sp.sample(&mut rng);
        for _ in 0..300 {
            m = sp.mutate(&mut rng, &m);
            let ext = sp.nest().extents();
            for i in 0..DIM_COUNT {
                assert!(m.l1_tile()[i] <= m.l2_tile()[i]);
                assert!(m.l2_tile()[i] <= ext[i]);
            }
            assert_ne!(m.spatial().0, m.spatial().1);
        }
    }

    #[test]
    fn crossover_is_legal() {
        let sp = space();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = sp.sample(&mut rng);
            let b = sp.sample(&mut rng);
            let c = sp.crossover(&mut rng, &a, &b);
            for i in 0..DIM_COUNT {
                assert!(c.l1_tile()[i] <= c.l2_tile()[i]);
            }
        }
    }

    #[test]
    fn space_size_is_large() {
        // Paper: ~1e6 per layer unconstrained; ours is far larger before
        // feasibility pruning.
        assert!(space().log10_size() > 6.0);
    }

    #[test]
    fn gemm_space_excludes_trivial_spatial_dims() {
        let nest = TensorOp::Gemm {
            m: 128,
            n: 256,
            k: 512,
        }
        .to_loop_nest();
        let sp = MappingSpace::new(&nest);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let m = sp.sample(&mut rng);
            // X, R, S, N have extent 1 in a GEMM nest; they can never be
            // spatial because candidates require extent > 1.
            for d in [m.spatial().0, m.spatial().1] {
                assert!(nest.extent(d) > 1, "trivial spatial dim {d}");
            }
        }
    }
}
