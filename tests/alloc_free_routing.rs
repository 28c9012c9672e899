//! Proves the planner's zero-allocation claim with a counting allocator:
//! once a network's plan is compiled and a [`RouteBuf`] is warmed, any
//! number of `route_into` calls touch the heap exactly zero times.
//!
//! The same holds one layer up: a warmed [`ShardCore`] answers `ROUTE`
//! frames without allocating, and `ROUTE_BATCH` frames with exactly one
//! allocation, the decoded pair vector.
//!
//! The counting `#[global_allocator]` is process-wide, so the counter only
//! ticks on the armed test thread: libtest's own helper threads and the
//! other test in this file cannot perturb a measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(feature = "obs"))]
use supercayley::core::ScgClass;
use supercayley::core::{route_plan, CayleyNetwork, SuperCayleyGraph};
use supercayley::perm::{Perm, XorShift64};
#[cfg(not(feature = "obs"))]
use supercayley::serve::{
    wire::{encode_request, peek_frame, FrameStatus},
    FaultJournal, NetId, Request, ServeMetrics, ShardCore,
};

/// Passes through to [`System`], counting every allocation and
/// reallocation made by the armed test thread (frees are not counted —
/// the claim is about acquiring heap memory on the steady-state path).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread counts while armed: libtest's own helper
    /// threads (the slow-test monitor, output capture) may allocate at
    /// any moment and must not perturb the measurement window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Const-initialized `Cell<bool>` TLS never allocates or runs
/// destructors, so reading it inside the allocator cannot recurse;
/// `try_with` covers access during thread teardown.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_route_into_performs_zero_heap_allocations() {
    // Warm everything that is allowed to allocate: the compiled plan, the
    // route buffer, and the sample pairs.
    // MS(6,2) (k = 13) exercises the packed u64 kernel near its widest
    // in-repo use; IS(17) (k = 17 > MAX_PACKED_DEGREE) exercises the
    // byte-array fallback — both single-pair paths must stay heap-free.
    let nets = [
        SuperCayleyGraph::macro_star(3, 2).unwrap(),
        SuperCayleyGraph::insertion_selection(7).unwrap(),
        SuperCayleyGraph::complete_rotation_rotator(3, 2).unwrap(),
        SuperCayleyGraph::macro_star(6, 2).unwrap(),
        SuperCayleyGraph::insertion_selection(17).unwrap(),
    ];
    let mut rng = XorShift64::new(0xA110C);
    for net in &nets {
        let plan = route_plan(net).unwrap();
        let mut buf = plan.new_buf();
        let k = net.degree_k();
        let pairs: Vec<(Perm, Perm)> = (0..256)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        // One warm-up pass, then the counted passes.
        let mut total_hops = 0usize;
        plan.route_into(&pairs[0].0, &pairs[0].1, &mut buf).unwrap();

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        ARMED.with(|a| a.set(true));
        for (from, to) in &pairs {
            plan.route_into(from, to, &mut buf).unwrap();
            total_hops += buf.len();
        }
        ARMED.with(|a| a.set(false));
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{}: routing {} pairs ({total_hops} hops) touched the allocator",
            net.name(),
            pairs.len()
        );
        assert!(total_hops > 0, "sample routed no hops");
    }
}

/// Allocations the armed thread makes while running `f`.
#[cfg(not(feature = "obs"))]
fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// A warmed shard reuses its per-network route buffer and the caller's
/// reply buffer: `ROUTE` frames allocate nothing, `ROUTE_BATCH` frames
/// only the decoded pair vector. (The `obs` leg mirrors each request into
/// the global registry, which allocates by design.)
#[cfg(not(feature = "obs"))]
#[test]
fn warmed_shard_routes_frames_without_per_pair_allocation() {
    let mut core = ShardCore::new(
        std::sync::Arc::new(ServeMetrics::new()),
        std::sync::Arc::new(FaultJournal::new()),
    );
    let mut rng = XorShift64::new(0x5AA4D);
    let mut singles = Vec::new();
    let mut batches = Vec::new();
    for levels in [2, 4] {
        let net = NetId {
            class: ScgClass::MacroStar,
            levels,
            box_size: 2,
        };
        let k = net.to_net().unwrap().degree_k();
        let mut pair = || (Perm::random(k, &mut rng), Perm::random(k, &mut rng));
        for _ in 0..64 {
            let (from, to) = pair();
            singles.push(encode_request(&Request::Route { net, from, to }));
        }
        for _ in 0..4 {
            let pairs = (0..512).map(|_| pair()).collect();
            batches.push(encode_request(&Request::RouteBatch { net, pairs }));
        }
    }
    let mut out = Vec::new();
    let mut handle = |frames: &[Vec<u8>]| {
        for frame in frames {
            let FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } = peek_frame(frame)
            else {
                panic!("request did not frame");
            };
            core.handle_frame(ver, ftype, &frame[start..end], &mut out);
            assert_eq!(out[5], ftype | 0x80, "reply is not the route OK frame");
            out.clear();
        }
    };
    // Warm-up: resolves both networks and grows the reply buffer.
    handle(&singles);
    handle(&batches);

    assert_eq!(count_allocations(|| handle(&singles)), 0, "ROUTE frames");
    assert_eq!(
        count_allocations(|| handle(&batches)),
        batches.len() as u64,
        "ROUTE_BATCH frames: one decoded pair vector each"
    );
}
