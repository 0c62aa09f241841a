//! Heap allocations per pardo iteration on a put/get-bound program.
//!
//! The SIP takes its blocks from "stacks of preallocated blocks per size
//! class" and spends its time in super instructions, so at fine block
//! granularity a pardo iteration must cost next to nothing in bookkeeping.
//! This binary counts every heap allocation in the process (it holds this
//! one test, so nothing else allocates beside the run) and pins the
//! marginal count per iteration: the difference between a run with more
//! outer repetitions and one with fewer, over the difference in
//! iterations, so set-up, thread spawn and teardown cancel out.

use sia_bytecode::ConstBindings;
use sia_runtime::{Sip, SipConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations (a `realloc` is one too: it
/// may move the block, which is the cost counted here).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which hands
        // out `System`'s blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `putget_fine`'s shape: fill `A`, then per repetition a transposed get,
/// permuting copy and put of every block, a barrier, a get and block dot of
/// every block, a barrier.
const PUTGET: &str = "sial putget
aoindex i = 1, n
aoindex j = 1, n
index r = 1, reps
distributed A(i,j)
distributed B(i,j)
temp t(i,j)
temp u(i,j)
scalar total
pardo i, j
  t(i,j) = 0.5 * i + 0.25 * j
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
do r
  pardo i, j
    get A(j,i)
    u(i,j) = A(j,i)
    put B(i,j) = u(i,j)
  endpardo i, j
  sip_barrier
  pardo i, j
    get B(i,j)
    total += B(i,j) * B(i,j)
  endpardo i, j
  sip_barrier
enddo r
execute sip_allreduce total
endsial
";

/// Allocations and pardo iterations of one run with `reps` repetitions.
fn run(workers: usize, reps: i64) -> (u64, u64) {
    let program = sial_frontend::compile(PUTGET).unwrap();
    let bindings: ConstBindings = [("n".to_string(), 32), ("reps".to_string(), reps)].into();
    let config = SipConfig::builder()
        .workers(workers)
        .io_servers(0)
        .segment_size(4)
        .build()
        .unwrap();
    let sip = Sip::new(config);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = sip.run(program, &bindings).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations, out.profile.iterations)
}

#[test]
fn a_pardo_iteration_allocates_at_most_twice() {
    for workers in [2, 1] {
        let (few_allocs, few_iters) = run(workers, 2);
        let (many_allocs, many_iters) = run(workers, 8);
        assert_eq!(many_iters - few_iters, 6 * 2 * 32 * 32, "iterations");
        let per_iteration =
            (many_allocs as f64 - few_allocs as f64) / (many_iters - few_iters) as f64;
        eprintln!("{workers} worker(s): {per_iteration:.2} allocations per pardo iteration");
        // One worker reads 1.53 on every run. Two workers read 1.72–1.73
        // on an idle 2-CPU x86-64 host: only how envelopes batch between
        // the ranks varies, and a loaded host batches more, not less.
        assert!(
            per_iteration <= 2.0,
            "{workers} worker(s): {per_iteration:.2} allocations per pardo iteration"
        );
    }
}
