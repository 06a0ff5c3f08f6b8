//! Concurrent-spawn stress for the dependence tracker.
//!
//! Many OS threads spawn into one runtime at once, over overlapping
//! allocations, so registrations, completions and retirements genuinely race
//! on the tracker lock. The invariants checked:
//!
//! * **no lost edges** — every per-thread `inout` chain counts exactly its
//!   own tasks (a lost edge lets two chain tasks race on the same cell and
//!   lose an increment), and the shared `concurrent` accumulators add up to
//!   exactly the number of contributions;
//! * **no double-ready** — every task body runs exactly once
//!   (`tasks_executed == tasks_spawned`, the bodies' own counter agrees, and
//!   a re-executed body would panic in the runtime and be reported);
//! * **clean drain** — after the final `taskwait` the tracker maps are
//!   empty (the completion retire path plus GC reclaimed all history,
//!   including the `by_alloc` overlap index).
//!
//! CI runs this under `cargo test --release` with both default test
//! threading and `RUST_TEST_THREADS=1`, so the contention is real.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ompss::{Data, Runtime, RuntimeConfig};

const SPAWNERS: usize = 8;

/// Per-spawner task count: 8 × 1500 = 12k tasks in release mode (the CI
/// configuration); debug builds use a lighter load so plain `cargo test`
/// stays quick.
fn tasks_per_spawner() -> usize {
    if cfg!(debug_assertions) {
        400
    } else {
        1500
    }
}

/// Spawn `SPAWNERS × per_thread` tasks from separate OS threads and check
/// every invariant.
fn run_stress(config: RuntimeConfig) {
    let per_thread = tasks_per_spawner();
    let total = (SPAWNERS * per_thread) as u64;
    let rt = Runtime::new(config);

    // Shared state every spawner touches: commutative accumulators
    // (`concurrent`) and a read-only constant (`input`), so cross-thread
    // registrations overlap on the same allocations.
    let shared: Vec<Data<u64>> = (0..4).map(|_| rt.data(0u64)).collect();
    let boost = rt.data(1u64);
    let bodies_run = Arc::new(AtomicU64::new(0));

    let chains: Vec<Data<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SPAWNERS)
            .map(|t| {
                let rt = &rt;
                let shared = &shared;
                let boost = boost.clone();
                let bodies_run = bodies_run.clone();
                scope.spawn(move || {
                    // The chain cell serialises this spawner's tasks through
                    // real RAW/WAW edges; its final value counts them.
                    let chain = rt.data(0u64);
                    for i in 0..per_thread {
                        let c = chain.clone();
                        let acc = shared[(t + i) % shared.len()].clone();
                        let b = boost.clone();
                        let bodies_run = bodies_run.clone();
                        rt.task()
                            .inout(&c)
                            .concurrent(&acc)
                            .input(&b)
                            .spawn(move |ctx| {
                                bodies_run.fetch_add(1, Ordering::Relaxed);
                                let step = *ctx.read(&b);
                                {
                                    let mut c = ctx.write(&c);
                                    *c = c.wrapping_add(step);
                                }
                                // `concurrent` accesses may run in parallel
                                // with each other; the update itself must be
                                // protected, as the access kind documents.
                                ctx.critical("stress-acc", || {
                                    let mut a = ctx.write(&acc);
                                    *a = a.wrapping_add(step);
                                });
                            });
                    }
                    chain
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    rt.taskwait();

    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned, total, "spawn count");
    assert_eq!(stats.tasks_executed, total, "every task ran exactly once");
    assert_eq!(bodies_run.load(Ordering::Relaxed), total, "bodies ran once");
    assert_eq!(stats.tasks_panicked, 0, "no body panicked (double execution panics)");
    assert!(rt.take_panics().is_empty());

    // No lost edges: each chain counted its own tasks, the shared
    // accumulators counted every contribution.
    for chain in &chains {
        assert_eq!(rt.fetch(chain), per_thread as u64, "per-spawner chain");
    }
    let shared_sum: u64 = shared.iter().map(|s| rt.fetch(s)).sum();
    assert_eq!(shared_sum, total, "shared concurrent accumulators");

    // Clean drain: the retire path plus the quiescent-taskwait GC leave the
    // tracker empty — entries *and* the by_alloc overlap index.
    rt.taskwait();
    let diag = rt.tracker_diagnostics();
    assert_eq!(diag.total_regions(), 0, "tracked regions leak after drain");
    assert_eq!(diag.total_allocs(), 0, "by_alloc leaks after drain");
    rt.shutdown();
}

/// The 8-spawner hammer against the tracker's single lock, with 4 workers
/// retiring concurrently.
#[test]
fn concurrent_spawn_stress_single_shard() {
    run_stress(RuntimeConfig::default().with_workers(4));
}

/// Regression test for the retire path of the `by_alloc` overlap index:
/// short-lived allocations (versioned handles mint a fresh allocation id per
/// renamed version) must leave *both* tracker maps once their tasks retire —
/// before this retire path existed, history (entries **and** stale
/// `by_alloc` region ids) survived until the next 512-spawn GC, i.e.
/// forever for programs spawning less than that.
#[test]
fn retired_allocations_leave_by_alloc() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    // Far fewer than the periodic-GC threshold, so only the retire path and
    // the explicit / quiescent GC can clean up.
    let v = rt.versioned_data(0u64);
    for i in 0..40u64 {
        let d = v.clone();
        rt.task().output(&d).spawn(move |ctx| *ctx.write(&d) = i);
        let d = v.clone();
        rt.task().input(&d).spawn(move |ctx| {
            let _ = *ctx.read(&d);
        });
    }
    let plain = rt.data(0u64);
    for _ in 0..10 {
        let d = plain.clone();
        rt.task().inout(&d).spawn(move |ctx| {
            let mut d = ctx.write(&d);
            *d += 1;
        });
    }
    rt.barrier();
    // Everything completed and retired; the quiescent barrier ran a GC.
    let diag = rt.tracker_diagnostics();
    assert_eq!(
        (diag.total_regions(), diag.total_allocs()),
        (0, 0),
        "fully-retired allocations must leave entries and by_alloc: {diag:?}"
    );
    // The explicit entry point is idempotent on an empty tracker.
    rt.tracker_gc();
    assert_eq!(rt.tracker_diagnostics().total_allocs(), 0);
    rt.shutdown();
}
