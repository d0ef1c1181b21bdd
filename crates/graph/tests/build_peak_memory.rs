//! Peak heap memory of a CSR build, counted by a global allocator.
//!
//! The file holds one test, so nothing else in its binary allocates while
//! the test counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bo3_graph::generators::GraphSpec;
use bo3_graph::{CsrGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Heap bytes live now, and the most live at once since the test reset it.
/// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// The system allocator, counting live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // A moving realloc holds both blocks for a moment.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn grouped_build_peak_is_the_edge_queue_and_three_vertex_arrays() {
    let (n, alpha) = (2000, 0.6);
    let graph = GraphSpec::DenseForAlpha { n, alpha }
        .generate(&mut StdRng::seed_from_u64(21))
        .unwrap();
    // Grouped by first endpoint (the smaller one), so the build turns the
    // queue into the rows in place.
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    drop(graph);
    let m = edges.len();

    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let mut builder = GraphBuilder::with_capacity(n, m);
    for &(u, v) in &edges {
        builder.push_edge(u, v).unwrap();
    }
    let built = builder.build().unwrap();
    let peak = PEAK.load(Relaxed) - start;

    assert_eq!(built.num_edges(), m);
    // The arrays the build returns are live at its end, so the counter
    // must have seen them.
    let arrays = built.memory_bytes() - std::mem::size_of::<CsrGraph>();
    assert!(peak >= arrays, "peak {peak} B below the CSR's {arrays} B");
    // The queue (two `u32` per edge), which becomes the rows, plus the
    // offsets, the run counts and the cursors, and nothing else of size n
    // or m: no second copy of the rows.
    let bound = 8 * m + 3 * (n + 1) * std::mem::size_of::<usize>() + 64 * 1024;
    assert!(
        peak <= bound,
        "peak {peak} B above {bound} B for n = {n}, m = {m}"
    );
}
