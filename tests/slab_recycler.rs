//! Stress test for the task-node slab recycler.
//!
//! Several OS threads spawn into one runtime while its workers complete,
//! retire and *recycle* nodes concurrently, so acquisitions genuinely race
//! with resets. The invariants checked:
//!
//! * **No stale-generation reuse** — every body observes, mid-execution,
//!   exactly the `TaskId` its spawn returned (a node re-initialised while
//!   its task was still running, or handed to two tasks at once, would show
//!   a duplicate or unknown id), and every spawned id is observed exactly
//!   once.
//! * **Values** — per-thread `inout` chains count exactly their own tasks;
//!   a lost wakeup or double execution would change the count.
//! * **No node leak** — after a drained `taskwait`,
//!   [`Runtime::task_slab_diagnostics`] reports zero outstanding nodes
//!   (every node is either parked in the free list or deallocated), the
//!   tracker maps are empty, and the recycler was actually exercised.
//! * **Drain ordering** — the moment `in_flight_tasks()` reads zero, the
//!   slab has no node outstanding and the runtime audits clean, with no
//!   `taskwait` in between.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ompss::{Data, Runtime, RuntimeConfig, TaskId};

const SPAWNERS: usize = 6;

fn tasks_per_spawner() -> usize {
    if cfg!(debug_assertions) {
        400
    } else {
        2000
    }
}

fn run_churn(config: RuntimeConfig) -> (Runtime, u64) {
    let per_thread = tasks_per_spawner();
    let total = (SPAWNERS * per_thread) as u64;
    let rt = Runtime::new(config);
    let observed: Arc<Mutex<Vec<TaskId>>> = Arc::new(Mutex::new(Vec::new()));
    let bodies = Arc::new(AtomicU64::new(0));

    let spawned_ids: Vec<Vec<TaskId>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SPAWNERS)
            .map(|_t| {
                let rt = &rt;
                let observed = observed.clone();
                let bodies = bodies.clone();
                scope.spawn(move || {
                    let chain = rt.data(0u64);
                    let side = rt.data(1u64);
                    let mut ids = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let c = chain.clone();
                        let observed = observed.clone();
                        let bodies = bodies.clone();
                        // Every 16th task declares a second access so both
                        // inline shapes (1 and 2 accesses) churn through the
                        // recycled nodes; every 64th spills (3 accesses).
                        let id = if i % 64 == 63 {
                            let s = side.clone();
                            let s2 = side.clone();
                            let extra = rt.data(0u64);
                            rt.task().inout(&c).input(&s).output(&extra).spawn(move |ctx| {
                                bodies.fetch_add(1, Ordering::Relaxed);
                                observed.lock().unwrap().push(ctx.task_id());
                                let step = *ctx.read(&s2);
                                *ctx.write(&c) += step;
                            })
                        } else if i % 16 == 15 {
                            let s = side.clone();
                            let s2 = side.clone();
                            rt.task().inout(&c).input(&s).spawn(move |ctx| {
                                bodies.fetch_add(1, Ordering::Relaxed);
                                observed.lock().unwrap().push(ctx.task_id());
                                let step = *ctx.read(&s2);
                                *ctx.write(&c) += step;
                            })
                        } else {
                            rt.task().inout(&c).spawn(move |ctx| {
                                bodies.fetch_add(1, Ordering::Relaxed);
                                observed.lock().unwrap().push(ctx.task_id());
                                *ctx.write(&c) += 1;
                            })
                        };
                        ids.push(id);
                        // Periodic quiescence so nodes cycle through the
                        // free list many times instead of only at the end
                        // (and so the first-fill flood stays well below the
                        // task total — the recycle-rate assert depends on
                        // recycling dominating).
                        if i % 100 == 99 {
                            rt.taskwait_on(&chain);
                        }
                    }
                    assert_eq!(rt.fetch(&chain), per_thread as u64, "chain lost a task");
                    ids
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    rt.taskwait();
    assert_eq!(bodies.load(Ordering::Relaxed), total, "every body ran once");

    // Stale-generation / double-hand-out detection: the ids observed from
    // inside running bodies are exactly the ids spawn returned — each one
    // exactly once.
    let observed = observed.lock().unwrap();
    assert_eq!(observed.len() as u64, total);
    let unique: HashSet<TaskId> = observed.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "a task id was observed twice");
    let spawned: HashSet<TaskId> = spawned_ids.iter().flatten().copied().collect();
    assert_eq!(
        unique, spawned,
        "bodies observed ids that were never spawned (stale node reuse)"
    );
    (rt, total)
}

#[test]
fn recycler_churn_keeps_ids_unique_and_leaks_no_node() {
    let (rt, total) = run_churn(RuntimeConfig::default().with_workers(4));
    // The fetch tasks of the per-thread asserts also went through the slab;
    // only the drained end state has to balance.
    let diag = rt.task_slab_diagnostics();
    assert_eq!(
        diag.outstanding, 0,
        "nodes leaked after a drained taskwait: {diag:?}"
    );
    // Fresh allocations happen only while the first flood fills the slab
    // (bounded by the peak in-flight count, which the periodic per-chain
    // quiescence keeps far below the task total); everything after runs
    // recycled. A third is a loose floor that holds even when a loaded
    // 1-core host lets every spawner run its full inter-quiescence window
    // ahead of the workers.
    assert!(
        diag.recycled >= total / 3,
        "the churn barely exercised the recycler: {diag:?}"
    );
    assert!(diag.allocated + diag.recycled >= total);
    let tracker = rt.tracker_diagnostics();
    assert_eq!((tracker.total_regions(), tracker.total_allocs()), (0, 0));
    let stats = rt.stats();
    assert_eq!(stats.task_nodes_recycled, diag.recycled);
    assert!(stats.access_inline_spills > 0, "3-access tasks spilled");
    assert!(stats.access_inline_hits > stats.access_inline_spills);
    rt.shutdown();
}

#[test]
fn recycler_disabled_behaves_identically_with_zero_recycles() {
    let (rt, total) = run_churn(
        RuntimeConfig::default()
            .with_workers(4)
            .with_task_recycler(false),
    );
    let diag = rt.task_slab_diagnostics();
    assert_eq!(diag.outstanding, 0, "nodes leaked: {diag:?}");
    assert_eq!(diag.recycled, 0, "recycler off must never reuse");
    assert_eq!(diag.free, 0);
    assert!(diag.allocated >= total);
    rt.shutdown();
}

/// Workers retire a task's history and recycle its node *before* they
/// decrement the in-flight count, so a runtime whose `in_flight_tasks()`
/// just reached zero is already settled: no node outstanding, and a clean
/// audit (ledger, tracker lock, history residue, slab, tickets). Checked
/// right after a busy-wait drain — no `taskwait`, which would give the
/// workers time to settle — over many batches of the one-allocation
/// (`output(cell)`) and two-allocation (`input(prev).output(cell)`)
/// shapes, so a retire tail that decremented first fails here.
#[test]
fn drained_runtime_is_settled_the_moment_in_flight_reaches_zero() {
    const CELLS: usize = 16;
    const BATCH: usize = 64;
    let rounds = if cfg!(debug_assertions) { 60 } else { 300 };
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
    for round in 0..rounds {
        let two_allocations = round % 2 == 1;
        for i in 0..BATCH {
            let c = cells[i % CELLS].clone();
            if two_allocations {
                let prev = cells[(i + CELLS - 1) % CELLS].clone();
                rt.task().input(&prev).output(&c).spawn(move |ctx| {
                    let v = ctx.read(&prev).wrapping_add(1);
                    *ctx.write(&c) = v;
                });
            } else {
                rt.task()
                    .output(&c)
                    .spawn(move |ctx| *ctx.write(&c) = i as u64);
            }
        }
        while rt.in_flight_tasks() > 0 {
            std::thread::yield_now();
        }
        let slab = rt.task_slab_diagnostics();
        assert_eq!(
            slab.outstanding, 0,
            "round {round}: nodes outstanding at drain: {slab:?}"
        );
        if let Err(violation) = rt.audit() {
            panic!("round {round}: audit at drain: {violation}");
        }
    }
    rt.shutdown();
}
