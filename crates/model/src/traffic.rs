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
        self.dims_for(nest.is_depthwise())
    }

    const fn dims_for(self, depthwise: bool) -> &'static [Dim] {
        match self {
            TensorKind::Input => {
                if depthwise {
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

    /// [`TensorKind::dependent_dims`] as a bitmask over `Dim::index()`,
    /// read from a table built at compile time: the masks depend only on
    /// whether the nest is depthwise.
    pub fn dependent_mask(self, nest: &LoopNest) -> u8 {
        DEPENDENCE_MASKS[usize::from(nest.is_depthwise())][self as usize]
    }
}

/// Dependence masks in [`TensorKind::ALL`] order, dense nests first,
/// then depthwise (`Dim as u8` is `Dim::index()`).
const DEPENDENCE_MASKS: [[u8; 3]; 2] = [dependence_masks(false), dependence_masks(true)];

const fn dependence_masks(depthwise: bool) -> [u8; 3] {
    let mut masks = [0u8; 3];
    let mut t = 0;
    while t < 3 {
        let dims = TensorKind::ALL[t].dims_for(depthwise);
        let mut i = 0;
        while i < dims.len() {
            masks[t] |= 1 << dims[i] as u8;
            i += 1;
        }
        t += 1;
    }
    masks
}

/// Fetch counts of all three tensors into one memory level, as
/// `(loads, min_loads)` pairs in [`TensorKind::ALL`] order, given
/// per-dimension trip counts and the temporal loop `order` (outermost
/// first).
///
/// The classic loop-centric rule: a tensor's tile is re-fetched once per
/// iteration of every loop the tensor depends on, **and** once per
/// iteration of every independent loop positioned *outside* the
/// tensor's innermost dependent loop (those wrap a dependent loop, so
/// the same tiles are swept repeatedly). Independent loops nested inside
/// all dependent loops permit full reuse. `min_loads` is the number of
/// distinct tiles: the product of the dependent trip counts.
///
/// So a tensor's `loads` is the product of every trip count up to and
/// including its innermost dependent loop with trips > 1 (unit loops
/// multiply by 1), and one running product over `order` serves all
/// three tensors: each takes the running value at each of its dependent
/// non-unit loops, and the last one taken is the innermost. Products
/// saturate at `u64::MAX`; since every factor is ≥ 1 that is
/// `min(true product, u64::MAX)` whatever the order of the factors.
///
/// Trip counts of 0 and 1 never contribute.
pub fn level_loads(
    nest: &LoopNest,
    trips: &[u64; DIM_COUNT],
    order: &[Dim; DIM_COUNT],
) -> [(u64, u64); 3] {
    let masks = DEPENDENCE_MASKS[usize::from(nest.is_depthwise())];
    let mut running: u64 = 1;
    let mut out = [(1u64, 1u64); 3];
    for d in order {
        let t = trips[d.index()];
        if t <= 1 {
            continue;
        }
        running = running.saturating_mul(t);
        let bit = 1u8 << d.index();
        for (mask, (loads, min_loads)) in masks.iter().zip(&mut out) {
            if mask & bit != 0 {
                *loads = running;
                *min_loads = min_loads.saturating_mul(t);
            }
        }
    }
    out
}

/// How many times the tensor's tile is fetched into the inner memory
/// level: the `loads` half of [`level_loads`] for one tensor.
pub fn tensor_loads(
    tensor: TensorKind,
    nest: &LoopNest,
    trips: &[u64; DIM_COUNT],
    order: &[Dim; DIM_COUNT],
) -> u64 {
    level_loads(nest, trips, order)[tensor as usize].0
}

/// Minimal possible number of fetches of a tensor: the number of its
/// distinct tiles (product of dependent trip counts), the `min_loads`
/// half of [`level_loads`]. It does not depend on the loop order.
pub fn tensor_min_loads(tensor: TensorKind, nest: &LoopNest, trips: &[u64; DIM_COUNT]) -> u64 {
    level_loads(nest, trips, &Dim::ALL)[tensor as usize].1
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
    fn mask_table_matches_the_dependent_dims() {
        let dense = conv_nest();
        let depthwise = dense.into_depthwise();
        for nest in [dense, depthwise] {
            for t in TensorKind::ALL {
                let folded = t
                    .dependent_dims(&nest)
                    .iter()
                    .fold(0u8, |m, d| m | 1 << d.index());
                assert_eq!(t.dependent_mask(&nest), folded, "{t:?}");
            }
        }
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
