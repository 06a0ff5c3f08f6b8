//! The task-insertion hot path: first-write rename elision, concurrent
//! registration under adversarial GC, and shard-affinity scheduling.
//!
//! Three angles:
//!
//! 1. **Elision semantics.** Random chunk-write/read programs over versioned
//!    partitions must produce exactly the sequential final values with
//!    elision on, off, and "mixed" (on, but under a version/budget squeeze
//!    that forces renames, elisions and serialising fallbacks to interleave).
//! 2. **Elision determinism.** A single-pass workload (rotate-shaped: every
//!    chunk written exactly once) must elide *every* rename — zero versions
//!    allocated, zero WAR/WAW edges — deterministically, because workers
//!    release version bindings only after tracker retirement.
//! 3. **Registration under GC.** With the GC cadence forced to every spawn,
//!    sweeps keep taking the tracker lock mid-storm between concurrent
//!    registrations and retirements; no edge may be lost and the tracker
//!    must drain clean.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{Runtime, RuntimeConfig, SchedulerPolicy};

// ---------------------------------------------------------------------------
// 1. Elision on/off/mixed keeps sequential-value semantics
// ---------------------------------------------------------------------------

/// One step over a versioned partition plus a scalar accumulator per chunk.
#[derive(Debug, Clone)]
enum ChunkOp {
    /// Overwrite chunk `c` with `value` in every element (`output`).
    Fill { c: usize, value: u64 },
    /// Add chunk `c`'s first element into accumulator `c` (`input` chunk,
    /// `inout` accumulator).
    Drain { c: usize },
    /// Bump every element of chunk `c` in place (`inout`).
    Bump { c: usize },
}

fn chunk_op_strategy(chunks: usize) -> impl Strategy<Value = ChunkOp> {
    prop_oneof![
        (0..chunks, 1u64..100).prop_map(|(c, value)| ChunkOp::Fill { c, value }),
        (0..chunks).prop_map(|c| ChunkOp::Drain { c }),
        (0..chunks).prop_map(|c| ChunkOp::Bump { c }),
    ]
}

const CHUNKS: usize = 3;
const CHUNK_LEN: usize = 4;

/// Reference: run the ops sequentially over a plain vector.
fn run_sequential(ops: &[ChunkOp]) -> (Vec<u64>, Vec<u64>) {
    let mut v = vec![0u64; CHUNKS * CHUNK_LEN];
    let mut accs = vec![0u64; CHUNKS];
    for op in ops {
        match *op {
            ChunkOp::Fill { c, value } => v[c * CHUNK_LEN..(c + 1) * CHUNK_LEN].fill(value),
            ChunkOp::Drain { c } => accs[c] = accs[c].wrapping_add(v[c * CHUNK_LEN]),
            ChunkOp::Bump { c } => {
                for x in &mut v[c * CHUNK_LEN..(c + 1) * CHUNK_LEN] {
                    *x = x.wrapping_add(1);
                }
            }
        }
    }
    (v, accs)
}

fn run_tasked(config: RuntimeConfig, ops: &[ChunkOp]) -> (Vec<u64>, Vec<u64>) {
    let rt = Runtime::new(config);
    let part = rt.versioned_partitioned(vec![0u64; CHUNKS * CHUNK_LEN], CHUNK_LEN);
    let accs: Vec<_> = (0..CHUNKS).map(|_| rt.data(0u64)).collect();
    for op in ops {
        match *op {
            ChunkOp::Fill { c, value } => {
                let chunk = part.chunk(c);
                rt.task().output(&chunk).spawn(move |ctx| {
                    ctx.write_chunk(&chunk).fill(value);
                });
            }
            ChunkOp::Drain { c } => {
                let chunk = part.chunk(c);
                let acc = accs[c].clone();
                rt.task().input(&chunk).inout(&acc).spawn(move |ctx| {
                    let first = ctx.read_chunk(&chunk)[0];
                    let mut a = ctx.write(&acc);
                    *a = a.wrapping_add(first);
                });
            }
            ChunkOp::Bump { c } => {
                let chunk = part.chunk(c);
                rt.task().inout(&chunk).spawn(move |ctx| {
                    for x in ctx.write_chunk(&chunk).iter_mut() {
                        *x = x.wrapping_add(1);
                    }
                });
            }
        }
    }
    rt.taskwait();
    let accs_out = accs.iter().map(|a| rt.fetch(a)).collect();
    let out = rt.into_vec(part);
    rt.shutdown();
    (out, accs_out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sequential-value semantics hold with elision on, off, and mixed with
    /// renames/fallbacks (tight version window and recycle pool).
    #[test]
    fn elision_on_off_mixed_keeps_sequential_semantics(
        ops in proptest::collection::vec(chunk_op_strategy(CHUNKS), 1..40),
    ) {
        let expected = run_sequential(&ops);
        let base = RuntimeConfig::default().with_workers(3);
        let on = run_tasked(base.clone().with_rename_elision(true), &ops);
        prop_assert_eq!(&on, &expected, "elision on");
        let off = run_tasked(base.clone().with_rename_elision(false), &ops);
        prop_assert_eq!(&off, &expected, "elision off");
        // "Mixed": elision enabled but squeezed — at most 2 live versions
        // per chunk and no recycle pool, so outputs alternate between
        // eliding, renaming and serialising fallbacks depending on timing.
        let mixed = run_tasked(
            base.with_rename_elision(true)
                .with_rename_max_versions(2)
                .with_rename_pool_depth(0),
            &ops,
        );
        prop_assert_eq!(&mixed, &expected, "elision mixed with fallbacks");
    }
}

// ---------------------------------------------------------------------------
// 2. Single-pass workloads elide every rename, deterministically
// ---------------------------------------------------------------------------

#[test]
fn single_pass_chunk_writes_elide_every_rename() {
    // Rotate-shaped: every output band is written exactly once, then read.
    // Nothing ever holds a band's version when its writer resolves, so every
    // rename is elided — zero allocations, zero WAR/WAW — deterministically.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(4));
    let src = rt.data(vec![7u64; 64]);
    let dst = rt.versioned_partitioned(vec![0u64; 64], 8);
    let sum = rt.data(0u64);
    for chunk in dst.chunk_handles() {
        let src = src.clone();
        rt.task().input(&src).output(&chunk).spawn(move |ctx| {
            let base = chunk.elem_range().start as u64;
            let s = ctx.read(&src);
            for (i, v) in ctx.write_chunk(&chunk).iter_mut().enumerate() {
                *v = s[0] + base + i as u64;
            }
        });
    }
    for chunk in dst.chunk_handles() {
        let sum = sum.clone();
        rt.task().input(&chunk).inout(&sum).spawn(move |ctx| {
            let s: u64 = ctx.read_chunk(&chunk).iter().sum();
            *ctx.write(&sum) += s;
        });
    }
    rt.taskwait();
    let stats = rt.stats();
    assert_eq!(stats.renames, 0, "single-pass writes allocate no versions");
    assert_eq!(stats.renames_elided, 8, "every chunk write elided its rename");
    assert_eq!(stats.war_edges + stats.waw_edges, 0, "elision adds no false dependence");
    assert_eq!(stats.rename_bytes_held, 0);
    let expected: u64 = (0..64).map(|i| 7 + i).sum();
    assert_eq!(rt.into_inner(sum), expected);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// 2b. The output-before-input aliasing corner is un-elided at bind time
// ---------------------------------------------------------------------------

#[test]
fn output_before_input_unelides_instead_of_aliasing() {
    // Regression test for the elision corner PR 4 documented: with the
    // current version unreferenced, `output(&x)` elides its rename in place;
    // an `input(&x)` declared *afterwards* on the same task would then read
    // the very storage the task overwrites. The builder must detect the
    // pattern and un-elide the write, so the read observes the pre-task
    // value whatever the clause order.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let x = rt.versioned_data(42u64);
    let (w, r) = (x.clone(), x.clone());
    rt.task().output(&w).input(&r).spawn(move |ctx| {
        // Write first, then read: under the old aliasing behaviour the read
        // would see 100 (inout-like in-place semantics).
        *ctx.write(&w) = 100;
        assert_eq!(*ctx.read(&r), 42, "input must observe the pre-task value");
    });
    rt.taskwait();
    assert!(rt.take_panics().is_empty(), "body assertions all held");
    let stats = rt.stats();
    assert_eq!(stats.renames, 1, "the elided output was converted to a rename");
    assert_eq!(stats.renames_elided, 0, "the elision was un-counted");
    assert_eq!(stats.tasks_panicked, 0);
    assert_eq!(rt.into_inner(x), 100, "the fresh version was committed");
    rt.shutdown();
}

#[test]
fn chunk_output_before_whole_input_unelides_just_that_chunk() {
    // The same corner at region granularity: an elided chunk `output`
    // followed by a whole-array `input` on the same partition.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let part = rt.versioned_partitioned(vec![1u64; 12], 4);
    let chunk0 = part.chunk(0);
    let whole = part.whole();
    rt.task()
        .output(&chunk0)
        .input(&whole)
        .spawn(move |ctx| {
            ctx.write_chunk(&chunk0).fill(9);
            let snapshot = ctx.gather_whole(&whole);
            assert_eq!(
                snapshot,
                vec![1u64; 12],
                "the whole-array read sees every pre-task chunk value"
            );
        });
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    let stats = rt.stats();
    assert_eq!(stats.chunk_renames, 1, "only the written chunk renamed");
    assert_eq!(stats.renames_elided, 0);
    let out = rt.into_vec(part);
    assert_eq!(out[..4], [9, 9, 9, 9]);
    assert_eq!(out[4..], [1; 8][..]);
    rt.shutdown();
}

#[test]
fn replay_reruns_unelision_instead_of_baking_in_the_aliased_write() {
    // The same corner through graph capture/replay. A template records
    // *clauses*, not resolved version bindings — so even though the capture
    // iteration's `output(&x)` initially elided (and was then un-elided by
    // the trailing `input(&x)`), every replay pass must re-run that same
    // bind-time analysis against the live version state. If capture instead
    // baked in the momentary aliased binding, every replayed read would see
    // the task's own write.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let x = rt.versioned_data(42u64);
    let mut scope = rt.capture();
    {
        let (w, r) = (x.clone(), x.clone());
        scope.task().output(&w).input(&r).spawn(move |ctx| {
            let pass = ctx.replay_pass();
            *ctx.write(&w) = 100 + pass;
            let expected = if pass == 0 { 42 } else { 100 + pass - 1 };
            assert_eq!(
                *ctx.read(&r),
                expected,
                "input must observe the pre-pass value on every replay"
            );
        });
    }
    let template = scope.finish();
    rt.taskwait();
    for _ in 0..3 {
        rt.replay(&template, &ompss::ReplayBindings::new());
        rt.taskwait();
    }
    assert!(rt.take_panics().is_empty(), "body assertions held on every pass");
    let stats = rt.stats();
    assert_eq!(
        stats.renames, 4,
        "capture + each of the 3 replays un-elided its output into a rename"
    );
    assert_eq!(stats.renames_elided, 0, "no pass left the aliasing elision in place");
    assert_eq!(stats.tasks_panicked, 0);
    // The template holds clause/body clones of `x`; release them first so
    // the handle can be unwrapped.
    drop(template);
    assert_eq!(rt.into_inner(x), 103, "the last pass's fresh version was committed");
    rt.shutdown();
}

#[test]
fn unelide_under_exhausted_budget_keeps_documented_fallback_aliasing() {
    // With a zero rename budget the un-elide cannot allocate a version, so
    // the in-place binding — and the documented inout-like degradation —
    // remain, counted as a fallback.
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_rename_memory_cap(0),
    );
    let x = rt.versioned_data(7u64);
    let (w, r) = (x.clone(), x.clone());
    rt.task().output(&w).input(&r).spawn(move |ctx| {
        *ctx.write(&w) = 50;
        assert_eq!(*ctx.read(&r), 50, "budget fallback aliases in place");
    });
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    let stats = rt.stats();
    assert_eq!(stats.renames, 0);
    assert_eq!(stats.renames_elided, 1, "the elision stays counted");
    assert!(stats.rename_fallbacks >= 1, "the refused un-elide is a fallback");
    assert_eq!(rt.into_inner(x), 50);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// 3. Concurrent registration under a GC storm
// ---------------------------------------------------------------------------

fn gc_storm(config: RuntimeConfig, spawners: usize, per_thread: usize) {
    let rt = Runtime::new(config);
    let bodies = Arc::new(AtomicU64::new(0));
    let chains: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawners)
            .map(|_| {
                let rt = &rt;
                let bodies = bodies.clone();
                scope.spawn(move || {
                    // A single-access inout chain: every edge is
                    // load-bearing (a lost edge loses an increment).
                    let chain = rt.data(0u64);
                    for _ in 0..per_thread {
                        let c = chain.clone();
                        let bodies = bodies.clone();
                        rt.task().inout(&c).spawn(move |ctx| {
                            bodies.fetch_add(1, Ordering::Relaxed);
                            let mut c = ctx.write(&c);
                            *c += 1;
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
    let total = (spawners * per_thread) as u64;
    assert_eq!(stats.tasks_spawned, total);
    assert_eq!(stats.tasks_executed, total);
    assert_eq!(bodies.load(Ordering::Relaxed), total);
    for chain in &chains {
        assert_eq!(rt.fetch(chain), per_thread as u64, "no chain edge was lost");
    }
    rt.taskwait();
    let diag = rt.tracker_diagnostics();
    assert_eq!(
        (diag.total_regions(), diag.total_allocs()),
        (0, 0),
        "clean drain"
    );
    rt.shutdown();
}

fn storm_tasks() -> usize {
    if cfg!(debug_assertions) {
        300
    } else {
        1200
    }
}

#[test]
fn spawn_storm_survives_gc_every_spawn() {
    // GC after every single spawn: each sweep takes the tracker lock, so
    // registrations and retirements keep queueing behind sweeps mid-storm.
    // Nothing may be lost.
    gc_storm(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_gc_interval(1),
        4,
        storm_tasks(),
    );
}

#[test]
fn spawn_storm_with_periodic_gc_and_disabled_gc() {
    // Default cadence, and the cadence knob's edge case: interval 0
    // disables the periodic sweep entirely (quiescent taskwait still
    // collects, so the drain check inside gc_storm stays valid).
    gc_storm(RuntimeConfig::default().with_workers(4), 4, storm_tasks());
    gc_storm(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_gc_interval(0),
        2,
        storm_tasks(),
    );
}

// ---------------------------------------------------------------------------
// Shard-affinity scheduling
// ---------------------------------------------------------------------------

#[test]
fn shard_affinity_policy_preserves_semantics() {
    // A producer→consumer mesh over several allocations under the
    // ShardAffinity policy: values must match, and the affinity router must
    // actually have been exercised alongside the plain locality path.
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(4)
            .with_policy(SchedulerPolicy::ShardAffinity),
    );
    assert_eq!(rt.policy(), SchedulerPolicy::ShardAffinity);
    let cells: Vec<_> = (0..16).map(|_| rt.data(0u64)).collect();
    for round in 0..50u64 {
        for (i, cell) in cells.iter().enumerate() {
            let c = cell.clone();
            let next = cells[(i + 1) % cells.len()].clone();
            rt.task().input(&c).inout(&next).spawn(move |ctx| {
                let v = *ctx.read(&c);
                let mut n = ctx.write(&next);
                *n = n.wrapping_add(v).wrapping_add(round);
            });
        }
    }
    rt.taskwait();
    let stats = rt.stats();
    let routed = stats.sched_affinity_wakeups + stats.sched_local_wakeups + stats.sched_global_wakeups;
    assert!(routed > 0, "the chain produced dependent wakeups");
    // Semantics: replay sequentially.
    let mut expected = vec![0u64; 16];
    for round in 0..50u64 {
        for i in 0..16 {
            let v = expected[i];
            let n = (i + 1) % 16;
            expected[n] = expected[n].wrapping_add(v).wrapping_add(round);
        }
    }
    let got: Vec<u64> = cells.iter().map(|c| rt.fetch(c)).collect();
    assert_eq!(got, expected);
    rt.shutdown();
}
