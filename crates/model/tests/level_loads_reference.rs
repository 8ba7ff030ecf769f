//! `level_loads` (one running product per memory level) against the
//! per-tensor reuse loop it replaced, kept here verbatim as the
//! reference: every `(loads, min_loads)` pair, and the NoC loads the
//! engines derive with the stationary tensor's substitution, must be
//! bit-identical for dense and depthwise nests, random loop orders and
//! trip vectors with many unit (and some zero and huge) entries.

use proptest::prelude::*;

use unico_model::{level_loads, TensorKind};
use unico_workloads::{Dim, LoopNest, TensorOp, DIM_COUNT};

/// The per-tensor loop: find the innermost dependent loop with
/// trips > 1, then multiply every dependent trip and every independent
/// trip outside that loop.
fn reference_loads(
    tensor: TensorKind,
    nest: &LoopNest,
    trips: &[u64; DIM_COUNT],
    order: &[Dim; DIM_COUNT],
) -> u64 {
    let mask = tensor
        .dependent_dims(nest)
        .iter()
        .fold(0u8, |m, d| m | 1 << d.index());
    let is_dep = |d: Dim| mask & (1 << d.index()) != 0;
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

/// The per-tensor distinct-tile count: the product of the dependent
/// trips. The old `.product()` wrapped (release) or panicked (debug) on
/// overflow, so overflow is `None` here; `level_loads` saturates there.
fn reference_min_loads(
    tensor: TensorKind,
    nest: &LoopNest,
    trips: &[u64; DIM_COUNT],
) -> Option<u64> {
    tensor
        .dependent_dims(nest)
        .iter()
        .try_fold(1u64, |acc, d| acc.checked_mul(trips[d.index()].max(1)))
}

fn nest(depthwise: bool) -> LoopNest {
    if depthwise {
        TensorOp::DepthwiseConv2d {
            n: 2,
            c: 64,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest()
    } else {
        TensorOp::Conv2d {
            n: 2,
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
}

/// Half of the trips are 1; the rest span 0, small and tile-sized
/// counts, and (rarely) counts large enough to saturate the products.
fn arb_trips() -> impl Strategy<Value = [u64; DIM_COUNT]> {
    proptest::array::uniform7((0u8..16, 0u64..=64, 1u64..=u64::MAX)).prop_map(|draws| {
        draws.map(|(kind, small, huge)| match kind {
            0..=7 => 1,
            8..=14 => small,
            _ => huge,
        })
    })
}

fn arb_order() -> impl Strategy<Value = [Dim; DIM_COUNT]> {
    Just(Dim::ALL).prop_shuffle()
}

fn check(
    depthwise: bool,
    trips: &[u64; DIM_COUNT],
    order: &[Dim; DIM_COUNT],
) -> Result<(), String> {
    let nest = nest(depthwise);
    let level = level_loads(&nest, trips, order);
    for (j, tensor) in TensorKind::ALL.into_iter().enumerate() {
        let (loads, min_loads) = level[j];
        let want_loads = reference_loads(tensor, &nest, trips, order);
        if loads != want_loads {
            return Err(format!("{tensor:?} loads {loads} != {want_loads}"));
        }
        let want_min = reference_min_loads(tensor, &nest, trips).unwrap_or(u64::MAX);
        if min_loads != want_min {
            return Err(format!("{tensor:?} min_loads {min_loads} != {want_min}"));
        }
    }
    // Stationary substitution: the engines price the stationary tensor's
    // NoC traffic at its distinct-tile count.
    for stationary in [TensorKind::Weight, TensorKind::Output] {
        for (j, tensor) in TensorKind::ALL.into_iter().enumerate() {
            let want = if tensor == stationary {
                reference_min_loads(tensor, &nest, trips).unwrap_or(u64::MAX)
            } else {
                reference_loads(tensor, &nest, trips, order)
            };
            let (loads, min_loads) = level[j];
            let got = if tensor == stationary {
                min_loads
            } else {
                loads
            };
            if got != want {
                return Err(format!(
                    "{tensor:?} under {stationary:?}-stationary: {got} != {want}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn level_loads_match_the_per_tensor_loop(
        depthwise in 0u8..2,
        trips in arb_trips(),
        order in arb_order(),
    ) {
        let r = check(depthwise == 1, &trips, &order);
        prop_assert!(r.is_ok(), "{} (depthwise {}, trips {:?}, order {:?})", r.unwrap_err(), depthwise, trips, order);
    }
}

#[test]
fn unit_and_zero_trips_never_contribute() {
    for depthwise in [false, true] {
        for trips in [[1; DIM_COUNT], [0; DIM_COUNT], [0, 1, 0, 1, 0, 1, 0]] {
            check(depthwise, &trips, &Dim::ALL).expect("matches the reference");
            assert_eq!(
                level_loads(&nest(depthwise), &trips, &Dim::ALL),
                [(1, 1); 3]
            );
        }
    }
}

#[test]
fn saturated_products_match_the_reference() {
    let trips = [u64::MAX, 3, u64::MAX / 2, 2, 1, 5, 1];
    for depthwise in [false, true] {
        for order in [
            Dim::ALL,
            [Dim::S, Dim::R, Dim::X, Dim::Y, Dim::C, Dim::K, Dim::N],
            [Dim::K, Dim::Y, Dim::N, Dim::S, Dim::C, Dim::X, Dim::R],
        ] {
            check(depthwise, &trips, &order).expect("matches the reference");
        }
    }
}
