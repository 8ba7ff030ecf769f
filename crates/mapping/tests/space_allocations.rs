//! Heap-allocation count of building a `MappingSpace`.
//!
//! Every co-design session rebuilds the mapping space of every layer, so
//! its construction is paid once per (session, layer). A counting
//! global allocator pins it at one allocation per tile-option list plus
//! one for the spatial candidates, and **no** reallocation: the option
//! lists are sized by a counting pass instead of grown by `push`.
//!
//! Counts are per thread, so the test harness's own allocations on
//! other threads never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unico_mapping::MappingSpace;
use unico_workloads::{Dim, LoopNest, TensorOp, DIM_COUNT};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, reallocations)` this thread makes while running `f`.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a, r) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - a,
        REALLOCS.with(Cell::get) - r,
    )
}

fn nests() -> Vec<LoopNest> {
    vec![
        // Smooth and non-smooth extents (224 = 2⁵·7, 7, 3).
        TensorOp::Conv2d {
            n: 1,
            k: 64,
            c: 3,
            y: 224,
            x: 224,
            r: 7,
            s: 7,
            stride: 1,
        }
        .to_loop_nest(),
        TensorOp::DepthwiseConv2d {
            n: 1,
            c: 96,
            y: 56,
            x: 56,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest(),
        // Large GEMM extents with many options, and unit dims.
        TensorOp::Gemm {
            m: 384,
            n: 3072,
            k: 768,
        }
        .to_loop_nest(),
    ]
}

#[test]
fn building_a_space_allocates_each_list_once() {
    for nest in nests() {
        let (space, allocs, reallocs) = allocations_during(|| MappingSpace::new(&nest));
        assert_eq!(reallocs, 0, "{nest:?}: no list may grow");
        // One per tile-option list, one for the spatial candidates.
        assert_eq!(allocs, DIM_COUNT as u64 + 1, "{nest:?}");
        for d in Dim::ALL {
            let opts = space.tile_options(d);
            assert_eq!(opts.last(), Some(&nest.extent(d)), "{d:?}");
        }
        assert!(space.spatial_candidates().len() >= 2);
    }
}
