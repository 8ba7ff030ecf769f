//! Loop-order-dependent tile re-fetch counts (the reuse model).

use unico_workloads::{Dim, LoopNest, DIM_COUNT};

/// Which operand tensor of the convolution nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Input activations.
    Input,
    /// Weights.
    Weight,
    /// Output activations / partial sums.
    Output,
}

impl TensorKind {
    /// All three tensors.
    pub const ALL: [TensorKind; 3] = [TensorKind::Input, TensorKind::Weight, TensorKind::Output];

    /// The loop dimensions this tensor's tile depends on.
    pub fn dependent_dims(self, nest: &LoopNest) -> &'static [Dim] {
        match self {
            TensorKind::Input => {
                if nest.is_depthwise() {
                    // Channels ride on K for depthwise nests.
                    &[Dim::N, Dim::K, Dim::Y, Dim::X, Dim::R, Dim::S]
                } else {
                    &[Dim::N, Dim::C, Dim::Y, Dim::X, Dim::R, Dim::S]
                }
            }
            TensorKind::Weight => &[Dim::K, Dim::C, Dim::R, Dim::S],
            TensorKind::Output => &[Dim::N, Dim::K, Dim::Y, Dim::X],
        }
    }

    /// [`TensorKind::dependent_dims`] as a bitmask over `Dim::index()`
    /// — the dependence test runs ~12 times per evaluated candidate, and
    /// a bit probe replaces a linear scan of the dim slice. Purely a
    /// representation change: the load-counting arithmetic is untouched,
    /// so every count stays bit-identical.
    pub fn dependent_mask(self, nest: &LoopNest) -> u8 {
        self.dependent_dims(nest)
            .iter()
            .fold(0u8, |m, d| m | 1 << d.index())
    }
}

/// How many times the tensor's tile is fetched into the inner memory
/// level, given per-dimension trip counts and the temporal loop `order`
/// (outermost first).
///
/// The classic loop-centric rule: the tile is re-fetched once per
/// iteration of every loop the tensor depends on, **and** once per
/// iteration of every independent loop positioned *outside* the
/// tensor's innermost dependent loop (those wrap a dependent loop, so
/// the same tiles are swept repeatedly). Independent loops nested inside
/// all dependent loops permit full reuse.
///
/// Trip counts of 1 never contribute.
pub fn tensor_loads(
    tensor: TensorKind,
    nest: &LoopNest,
    trips: &[u64; DIM_COUNT],
    order: &[Dim; DIM_COUNT],
) -> u64 {
    let mask = tensor.dependent_mask(nest);
    let is_dep = |d: Dim| mask & (1 << d.index()) != 0;
    // Position of the innermost dependent loop with trips > 1.
    let innermost_dep = order
        .iter()
        .rposition(|d| is_dep(*d) && trips[d.index()] > 1);
    let mut loads: u64 = 1;
    for (pos, d) in order.iter().enumerate() {
        let t = trips[d.index()];
        if t <= 1 {
            continue;
        }
        if is_dep(*d) {
            loads = loads.saturating_mul(t);
        } else if let Some(inner) = innermost_dep {
            if pos < inner {
                loads = loads.saturating_mul(t);
            }
        }
    }
    loads
}

/// Minimal possible number of fetches of a tensor: the number of its
/// distinct tiles (product of dependent trip counts).
pub fn tensor_min_loads(tensor: TensorKind, nest: &LoopNest, trips: &[u64; DIM_COUNT]) -> u64 {
    tensor
        .dependent_dims(nest)
        .iter()
        .map(|d| trips[d.index()].max(1))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::TensorOp;

    fn conv_nest() -> LoopNest {
        TensorOp::Conv2d {
            n: 1,
            k: 8,
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
    fn all_trips_one_means_single_load() {
        let n = conv_nest();
        for t in TensorKind::ALL {
            assert_eq!(tensor_loads(t, &n, &[1; 7], &Dim::ALL), 1);
        }
    }

    #[test]
    fn weight_reuse_under_inner_independent_loop() {
        let n = conv_nest();
        // Order ... with Y innermost; weight does not depend on Y, so Y
        // trips don't multiply weight loads.
        let order = [Dim::N, Dim::K, Dim::C, Dim::R, Dim::S, Dim::X, Dim::Y];
        let mut trips = [1u64; 7];
        trips[Dim::K.index()] = 4;
        trips[Dim::Y.index()] = 8;
        assert_eq!(tensor_loads(TensorKind::Weight, &n, &trips, &order), 4);
        // Flip: Y outermost wraps the dependent K loop -> x8 penalty.
        let order2 = [Dim::Y, Dim::K, Dim::C, Dim::R, Dim::S, Dim::X, Dim::N];
        assert_eq!(tensor_loads(TensorKind::Weight, &n, &trips, &order2), 32);
    }

    #[test]
    fn output_spill_when_reduction_outside() {
        let n = conv_nest();
        let mut trips = [1u64; 7];
        trips[Dim::C.index()] = 4;
        trips[Dim::Y.index()] = 2;
        // C outside Y: output tiles revisited for each C iteration.
        let order = [Dim::C, Dim::Y, Dim::N, Dim::K, Dim::X, Dim::R, Dim::S];
        assert_eq!(tensor_loads(TensorKind::Output, &n, &trips, &order), 8);
        // C inside Y: each output tile accumulated before moving on.
        let order2 = [Dim::Y, Dim::C, Dim::N, Dim::K, Dim::X, Dim::R, Dim::S];
        assert_eq!(tensor_loads(TensorKind::Output, &n, &trips, &order2), 2);
        assert_eq!(tensor_min_loads(TensorKind::Output, &n, &trips), 2);
    }

    #[test]
    fn loads_never_below_min() {
        let n = conv_nest();
        let orders = [
            Dim::ALL,
            [Dim::S, Dim::R, Dim::X, Dim::Y, Dim::C, Dim::K, Dim::N],
            [Dim::C, Dim::K, Dim::Y, Dim::N, Dim::S, Dim::X, Dim::R],
        ];
        let trips = [1, 2, 3, 4, 2, 3, 1];
        for order in orders {
            for t in TensorKind::ALL {
                assert!(
                    tensor_loads(t, &n, &trips, &order) >= tensor_min_loads(t, &n, &trips),
                    "{t:?} under {order:?}"
                );
            }
        }
    }

    #[test]
    fn depthwise_input_depends_on_k() {
        let n = TensorOp::DepthwiseConv2d {
            n: 1,
            c: 8,
            y: 4,
            x: 4,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        let mut trips = [1u64; 7];
        trips[Dim::K.index()] = 8;
        let order = Dim::ALL;
        assert_eq!(tensor_loads(TensorKind::Input, &n, &trips, &order), 8);
    }
}
