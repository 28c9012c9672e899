//! Proves the zero-copy claim of [`EmbeddingIr::compose`] with a counting
//! allocator: splicing two embeddings allocates a small constant number of
//! vectors (the composed node map, the shared path arena, and the offset
//! table — sized exactly in a pre-pass), never one per guest edge.
//!
//! This file holds a single test because the counting `#[global_allocator]`
//! is process-wide — unrelated concurrent tests would perturb the counter.
//!
//! [`EmbeddingIr::compose`]: supercayley::embed::EmbeddingIr::compose

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use supercayley::core::{CayleyNetwork, SuperCayleyGraph, TranspositionNetwork, SMALL_NET_CAP};
use supercayley::embed::{factorial_mesh_into_tn, CayleyEmbedding};

/// Passes through to [`System`], counting every allocation and
/// reallocation (frees are not counted — the claim is about acquiring
/// heap memory on the compose path).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn compose_allocates_a_small_constant_not_per_edge() {
    // The Corollary 7 composition: the 2x3x4x5 factorial mesh (120 nodes,
    // 426 directed edges) through the 5-TN into MS(2,2). Everything that
    // may allocate freely is built first.
    let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
    let k = net.degree_k();
    let mesh = factorial_mesh_into_tn(k, SMALL_NET_CAP).unwrap();
    let tn = TranspositionNetwork::new(k).unwrap();
    let outer = CayleyEmbedding::build(&tn, &net, SMALL_NET_CAP)
        .unwrap()
        .into_embedding();
    let edges = mesh.num_program_edges();
    assert!(edges > 100, "the mesh guest must be non-trivial");

    // One warm-up compose, then the counted one.
    let warm = mesh.compose(&outer).unwrap();
    assert_eq!(warm.load(), 1);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let composed = mesh.compose(&outer).unwrap();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    let allocs = after - before;

    assert!(
        allocs <= 8,
        "compose of {edges} guest edges performed {allocs} allocations; \
         expected the constant handful (map + arena + offsets)"
    );
    assert!(
        (allocs as usize) < edges / 10,
        "allocation count {allocs} scales with the {edges} guest edges"
    );
    assert!(composed.dilation() >= 1);
    assert_eq!(composed.num_program_edges(), edges);
}
