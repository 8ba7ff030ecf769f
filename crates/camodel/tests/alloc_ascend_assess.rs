//! Heap-allocation count of an uncached Ascend-like evaluation.
//!
//! Every uncached `BoundAscendCost::assess` simulates the candidate's
//! tile stream through the five-stage pipeline. A counting global
//! allocator pins the allocations of one such evaluation to a constant
//! — the simulator's fixed per-evaluation set-up — that does not depend
//! on how many tiles the candidate simulates: no per-tile scratch
//! vector, and no history buffer that grows as tiles are pushed.
//!
//! Counts are per thread, so the test harness's own allocations on
//! other threads never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_camodel::{AscendConfig, AscendModel, BoundAscendCost, DepthFirstFusionSearch};
use unico_mapping::{Mapping, MappingCost, MappingSpace};
use unico_workloads::TensorOp;

/// Allocations of one uncached evaluation, all in `PipelineSim::new`:
/// the stage list, the history table and its five pre-sized rows, the
/// per-tile scratch, and the stage-free and stage-busy vectors.
const ALLOCS_PER_EVAL: u64 = 10;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn counting_allocator_sees_heap_allocations() {
    let n = allocations_during(|| {
        std::hint::black_box(vec![0u8; 32]);
    });
    assert_eq!(n, 1);
}

#[test]
fn uncached_assess_allocations_do_not_grow_with_tile_count() {
    let nests = [
        TensorOp::Conv2d {
            n: 1,
            k: 64,
            c: 64,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest(),
        TensorOp::Gemm {
            m: 64,
            n: 64,
            k: 64,
        }
        .to_loop_nest(),
        TensorOp::Gemm {
            m: 16,
            n: 16,
            k: 16,
        }
        .to_loop_nest(),
    ];
    let model = AscendModel::default();
    let mut rng = StdRng::seed_from_u64(17);
    // Two cores (bank counts set the pipeline's buffer depths), each
    // with the depth-first seed mapping plus random samples per nest.
    let mut banked = AscendConfig::expert_default();
    banked.l0a_banks = 1;
    banked.l0c_banks = 4;
    let hws = [AscendConfig::expert_default(), banked];

    // Allocation counts per evaluation, keyed by simulated tile count.
    let mut by_tiles: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for hw in &hws {
        for nest in &nests {
            let cost = BoundAscendCost::new(&model, *hw, *nest);
            let space = MappingSpace::new(nest);
            let mut mappings: Vec<Mapping> = vec![DepthFirstFusionSearch::seed_mapping(hw, nest)];
            mappings.extend((0..40).map(|_| space.sample(&mut rng)));
            for m in &mappings {
                let Ok((_, breakdown)) = model.evaluate_with_breakdown(hw, m, nest) else {
                    continue;
                };
                let mut feasible = false;
                let n = allocations_during(|| {
                    feasible = cost.assess(m).is_some();
                });
                assert!(feasible, "assess must agree with the model");
                by_tiles.entry(breakdown.total_tiles).or_default().push(n);
            }
        }
    }
    let tiles: Vec<u64> = by_tiles.keys().copied().collect();
    assert!(
        tiles.len() >= 4 && tiles[0] < 64 && *tiles.last().expect("non-empty") > 64,
        "candidates must cover short and long tile streams: {tiles:?}"
    );
    for (t, counts) in &by_tiles {
        for &n in counts {
            assert_eq!(
                n, ALLOCS_PER_EVAL,
                "uncached assess over {t} tiles allocated {n} times"
            );
        }
    }
}
