//! Equivalence of template replay with fresh spawning.
//!
//! A [`GraphTemplate`] replay must be invisible except in insertion cost:
//! for any captured program, every replay pass must discover exactly the
//! dependence structure that spawning the same tasks freshly through
//! `TaskBuilder` discovers, and execution must produce exactly the values of
//! repeating the program sequentially — with the task-node recycler on and
//! off.
//!
//! The measurement idiom mirrors `tests/tracker_equivalence.rs`: task bodies
//! are *gated* on a shared flag, so nothing completes (and nothing retires)
//! while an iteration is being inserted — insertion is then deterministic,
//! and the edge multiset (from tracing `Edge` events), the per-task
//! dependence counts (`Spawned { deps }`), and the edge-class counter deltas
//! of the final fresh iteration must be byte-identical to those of the final
//! replay pass. Both sides drain (`taskwait`) between iterations, so each
//! measured segment starts from an empty dependence history.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{Data, GraphTemplate, PartitionedData, ReplayBindings, Runtime, RuntimeConfig, TraceEvent};

/// One step of a random program over a fixed set of cells.
#[derive(Debug, Clone)]
enum Op {
    /// cells[dst] = value (`output`)
    Set { dst: usize, value: u64 },
    /// cells[dst] += cells[src] (`inout` dst, `input` src)
    AddFrom { dst: usize, src: usize },
    /// cells[dst] = cells[dst] * 3 + 1 (`inout`)
    Scale { dst: usize },
    /// cells[dst] += k, commutatively (`concurrent`)
    Accumulate { dst: usize, k: u64 },
}

fn op_strategy(cells: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..cells, 0u64..100).prop_map(|(dst, value)| Op::Set { dst, value }),
        (0..cells, 0..cells).prop_map(|(dst, src)| Op::AddFrom { dst, src }),
        (0..cells).prop_map(|dst| Op::Scale { dst }),
        (0..cells, 1u64..9).prop_map(|(dst, k)| Op::Accumulate { dst, k }),
    ]
}

/// Reference semantics: the ops run sequentially, `rounds` times over the
/// same persistent cells (one round per fresh iteration / replay pass).
fn run_sequential_rounds(cells: usize, ops: &[Op], rounds: usize) -> Vec<u64> {
    let mut v = vec![0u64; cells];
    for _ in 0..rounds {
        for op in ops {
            match *op {
                Op::Set { dst, value } => v[dst] = value,
                Op::AddFrom { dst, src } if dst != src => {
                    v[dst] = v[dst].wrapping_add(v[src])
                }
                Op::AddFrom { dst, .. } => v[dst] = v[dst].wrapping_add(v[dst]),
                Op::Scale { dst } => v[dst] = v[dst].wrapping_mul(3).wrapping_add(1),
                Op::Accumulate { dst, k } => v[dst] = v[dst].wrapping_add(k),
            }
        }
    }
    v
}

/// Spawn one task per op through the plain builder. Bodies spin on `gate`
/// before doing their work, so nothing completes until the caller releases
/// the gate.
fn spawn_program(rt: &Runtime, handles: &[Data<u64>], ops: &[Op], gate: &Arc<AtomicBool>) {
    for op in ops {
        let gate = gate.clone();
        let wait = move || {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        match *op {
            Op::Set { dst, value } => {
                let d = handles[dst].clone();
                rt.task().output(&d).spawn(move |ctx| {
                    wait();
                    *ctx.write(&d) = value;
                });
            }
            Op::AddFrom { dst, src } if dst != src => {
                let d = handles[dst].clone();
                let s = handles[src].clone();
                rt.task().inout(&d).input(&s).spawn(move |ctx| {
                    wait();
                    let add = *ctx.read(&s);
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(add);
                });
            }
            Op::AddFrom { dst, .. } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(*d);
                });
            }
            Op::Scale { dst } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_mul(3).wrapping_add(1);
                });
            }
            Op::Accumulate { dst, k } => {
                let d = handles[dst].clone();
                rt.task().concurrent(&d).spawn(move |ctx| {
                    wait();
                    ctx.critical("replay-equivalence-acc", || {
                        let mut d = ctx.write(&d);
                        *d = d.wrapping_add(k);
                    });
                });
            }
        }
    }
}

/// The same program spawned through a capture scope: the capture iteration
/// runs now, and the recipes land in the scope's template.
fn capture_program(
    rt: &Runtime,
    handles: &[Data<u64>],
    ops: &[Op],
    gate: &Arc<AtomicBool>,
) -> GraphTemplate {
    let mut scope = rt.capture();
    for op in ops {
        let gate = gate.clone();
        let wait = move || {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        match *op {
            Op::Set { dst, value } => {
                let d = handles[dst].clone();
                scope.task().output(&d).spawn(move |ctx| {
                    wait();
                    *ctx.write(&d) = value;
                });
            }
            Op::AddFrom { dst, src } if dst != src => {
                let d = handles[dst].clone();
                let s = handles[src].clone();
                scope.task().inout(&d).input(&s).spawn(move |ctx| {
                    wait();
                    let add = *ctx.read(&s);
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(add);
                });
            }
            Op::AddFrom { dst, .. } => {
                let d = handles[dst].clone();
                scope.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(*d);
                });
            }
            Op::Scale { dst } => {
                let d = handles[dst].clone();
                scope.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_mul(3).wrapping_add(1);
                });
            }
            Op::Accumulate { dst, k } => {
                let d = handles[dst].clone();
                scope.task().concurrent(&d).spawn(move |ctx| {
                    wait();
                    ctx.critical("replay-equivalence-acc", || {
                        let mut d = ctx.write(&d);
                        *d = d.wrapping_add(k);
                    });
                });
            }
        }
    }
    scope.finish()
}

/// Everything that must be identical between the final fresh iteration and
/// the final replay pass, when no task can complete during insertion.
#[derive(Debug, PartialEq, Eq)]
struct InsertionStructure {
    /// Dependence edges as (pred insertion index, succ insertion index),
    /// sorted — indices are positions in the segment's `Spawned` order.
    edges: Vec<(usize, usize)>,
    /// Per-task dependence count in insertion order (`Spawned { deps }`).
    deps: Vec<usize>,
    /// Deltas over the measured segment:
    /// (tasks_spawned, edges_added, raw, war, waw, dependences_seen).
    counters: (u64, u64, u64, u64, u64, u64),
}

fn runtime_for(recycler: bool) -> Runtime {
    Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_task_recycler(recycler)
            .with_tracing(true),
    )
}

/// Build the structure of one trace segment (events recorded between the
/// previous drain and the end of this iteration's insertion).
fn segment_structure(
    seg: &[TraceEvent],
    expected_tasks: usize,
    before: &ompss::RuntimeStats,
    after: &ompss::RuntimeStats,
) -> InsertionStructure {
    let mut order: Vec<ompss::TaskId> = Vec::new();
    let mut deps = Vec::new();
    for ev in seg {
        if let TraceEvent::Spawned { task, deps: d, .. } = ev {
            order.push(*task);
            deps.push(*d);
        }
    }
    assert_eq!(order.len(), expected_tasks, "one Spawned event per task");
    let index_of = |id: ompss::TaskId| order.iter().position(|t| *t == id);
    let mut edges = Vec::new();
    for ev in seg {
        if let TraceEvent::Edge { task, from, .. } = ev {
            let (Some(f), Some(t)) = (index_of(*from), index_of(*task)) else {
                // The previous iteration fully drained, so its (retired)
                // tasks must take no edges from this one.
                panic!("edge references a task outside the measured iteration");
            };
            edges.push((f, t));
        }
    }
    edges.sort_unstable();
    InsertionStructure {
        edges,
        deps,
        counters: (
            after.tasks_spawned - before.tasks_spawned,
            after.edges_added - before.edges_added,
            after.raw_edges - before.raw_edges,
            after.war_edges - before.war_edges,
            after.waw_edges - before.waw_edges,
            after.dependences_seen - before.dependences_seen,
        ),
    }
}

/// Run `rounds` gated fresh iterations of the program; return the structure
/// of the final iteration and the final cell values.
fn fresh(
    recycler: bool,
    cells: usize,
    ops: &[Op],
    rounds: usize,
) -> (InsertionStructure, Vec<u64>) {
    let rt = runtime_for(recycler);
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let mut structure = None;
    for round in 0..rounds {
        gate.store(false, Ordering::Release);
        let skip = rt.trace().len();
        let before = rt.stats();
        spawn_program(&rt, &handles, ops, &gate);
        if round == rounds - 1 {
            let after = rt.stats();
            let trace = rt.trace();
            structure = Some(segment_structure(
                &trace[skip..],
                ops.len(),
                &before,
                &after,
            ));
        }
        gate.store(true, Ordering::Release);
        rt.taskwait();
    }
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    (structure.expect("at least one round"), values)
}

/// Capture one gated iteration, then run `replays` gated replay passes;
/// return the structure of the final pass and the final cell values.
fn replayed(
    recycler: bool,
    cells: usize,
    ops: &[Op],
    replays: usize,
) -> (InsertionStructure, Vec<u64>) {
    let rt = runtime_for(recycler);
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let template = capture_program(&rt, &handles, ops, &gate);
    assert_eq!(template.len(), ops.len());
    gate.store(true, Ordering::Release);
    rt.taskwait();

    let bindings = ReplayBindings::new();
    let mut structure = None;
    for pass in 0..replays {
        gate.store(false, Ordering::Release);
        let skip = rt.trace().len();
        let before = rt.stats();
        let stamped = rt.replay(&template, &bindings);
        assert_eq!(stamped, pass as u64 + 1, "passes number from 1");
        if pass == replays - 1 {
            let after = rt.stats();
            let trace = rt.trace();
            structure = Some(segment_structure(
                &trace[skip..],
                ops.len(),
                &before,
                &after,
            ));
        }
        gate.store(true, Ordering::Release);
        rt.taskwait();
    }
    assert_eq!(template.passes(), replays as u64);
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    (structure.expect("at least one pass"), values)
}

/// A fixed workload exercising every access kind and every edge class:
/// RAW (AddFrom after Set), WAR (Set after a read), WAW (Set after Set),
/// inout chains (Scale) and commutative clusters (Accumulate).
fn demo_ops() -> Vec<Op> {
    vec![
        Op::Set { dst: 0, value: 5 },
        Op::Set { dst: 1, value: 7 },
        Op::AddFrom { dst: 2, src: 0 },
        Op::AddFrom { dst: 2, src: 1 },
        Op::Scale { dst: 2 },
        Op::Accumulate { dst: 3, k: 2 },
        Op::Accumulate { dst: 3, k: 3 },
        Op::AddFrom { dst: 0, src: 2 },
        Op::Set { dst: 1, value: 1 },
        Op::AddFrom { dst: 1, src: 3 },
        Op::Scale { dst: 0 },
        Op::AddFrom { dst: 3, src: 3 },
    ]
}

/// The configuration grid: recycler {on, off}. The final replay pass must discover byte-identical edge
/// multisets, per-task dependence counts, and counter deltas as the final
/// fresh iteration, and both must end in the sequential values.
#[test]
fn replay_structure_and_values_match_fresh_across_grid() {
    let ops = demo_ops();
    let rounds = 3; // capture + 2 replays on the replay side
    let expected = run_sequential_rounds(4, &ops, rounds);
    for recycler in [true, false] {
        let (fresh_structure, fresh_values) = fresh(recycler, 4, &ops, rounds);
        let (replay_structure, replay_values) = replayed(recycler, 4, &ops, rounds - 1);
        assert_eq!(replay_structure, fresh_structure, "recycler = {recycler}");
        assert_eq!(
            fresh_values, expected,
            "fresh values, recycler = {recycler}"
        );
        assert_eq!(
            replay_values, expected,
            "replay values, recycler = {recycler}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random programs: the final replay pass matches the final fresh
    /// iteration structurally, and both match sequential semantics.
    #[test]
    fn prop_replay_equals_fresh(
        ops in proptest::collection::vec(op_strategy(4), 1..24),
    ) {
        let expected = run_sequential_rounds(4, &ops, 3);
        let (fresh_structure, fresh_values) = fresh(true, 4, &ops, 3);
        let (replay_structure, replay_values) = replayed(true, 4, &ops, 2);
        prop_assert_eq!(&replay_structure, &fresh_structure);
        prop_assert_eq!(&fresh_values, &expected, "fresh");
        prop_assert_eq!(&replay_values, &expected, "replay");
    }
}

/// `Captured` and `Replayed` trace events carry the batch size and the pass
/// number, and there is exactly one `Replayed` per replay call.
#[test]
fn capture_and_replay_trace_events() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let a = rt.data(0u64);
    let gate = Arc::new(AtomicBool::new(true));
    let ops = vec![Op::Set { dst: 0, value: 3 }, Op::Scale { dst: 0 }];
    let template = capture_program(&rt, std::slice::from_ref(&a), &ops, &gate);
    rt.taskwait();
    for _ in 0..3 {
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
    }
    let trace = rt.trace();
    let captured: Vec<usize> = trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Captured { tasks, .. } => Some(*tasks),
            _ => None,
        })
        .collect();
    assert_eq!(captured, vec![2]);
    let replayed: Vec<(usize, u64)> = trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { tasks, pass, .. } => Some((*tasks, *pass)),
            _ => None,
        })
        .collect();
    assert_eq!(replayed, vec![(2, 1), (2, 2), (2, 3)]);
    // Plain handles: pass 1 resolves (and freezes the template), passes
    // 2 and 3 stamp through the pre-wired plan.
    assert!(template.is_frozen());
    let prewired: Vec<bool> = trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { prewired, .. } => Some(*prewired),
            _ => None,
        })
        .collect();
    assert_eq!(prewired, vec![false, true, true]);
    rt.shutdown();
}

/// Replaying a template on a runtime other than the one that captured it is
/// a programming error and must panic, not silently stamp into the wrong
/// tracker.
#[test]
#[should_panic(expected = "different Runtime")]
fn replaying_on_another_runtime_panics() {
    let rt1 = Runtime::new(RuntimeConfig::default().with_workers(1));
    let rt2 = Runtime::new(RuntimeConfig::default().with_workers(1));
    let a = rt1.data(0u64);
    let mut scope = rt1.capture();
    {
        let a = a.clone();
        scope.task().inout(&a).spawn(move |ctx| *ctx.write(&a) += 1);
    }
    let template = scope.finish();
    rt1.taskwait();
    rt2.replay(&template, &ReplayBindings::new());
}

/// Listing 1's circular-buffer pipeline, captured once and replayed with
/// [`RenameRing::rebind`] bindings: clause substitution rotates the slot the
/// dependences bind to, and the bodies pick their slot from the pass number,
/// so `passes` replays of a one-iteration template compute the same result
/// as writing the pipeline out iteration by iteration.
#[test]
fn rename_ring_rebind_rotates_replayed_slots() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let ring = ompss::RenameRing::new(3, |_| 0u64);
    let slots: Vec<Data<u64>> = ring.iter().cloned().collect();
    let sum = rt.data(0u64);

    // Capture iteration 0: a producer fills slot 0, a consumer folds it
    // into `sum`. Bodies address slot `pass % depth` — iteration 0 is the
    // capture itself (`replay_pass() == 0`), pass k is iteration k.
    let mut scope = rt.capture();
    {
        let slots = slots.clone();
        scope
            .task()
            .output(ring.slot(0))
            .spawn(move |ctx| {
                let k = ctx.replay_pass() as usize;
                *ctx.write(&slots[k % 3]) = k as u64 * 10;
            });
    }
    {
        let slots = slots.clone();
        let sum = sum.clone();
        scope
            .task()
            .input(ring.slot(0))
            .inout(&sum)
            .spawn(move |ctx| {
                let k = ctx.replay_pass() as usize;
                let v = *ctx.read(&slots[k % 3]);
                *ctx.write(&sum) += v;
            });
    }
    let template = scope.finish();
    rt.taskwait();

    let mut bindings = ReplayBindings::new();
    for iteration in 1..=5usize {
        bindings.clear();
        ring.rebind(&mut bindings, 0, iteration);
        let pass = rt.replay(&template, &bindings);
        assert_eq!(pass as usize, iteration);
        // Bound passes must never freeze the template (and the versioned
        // slots would forbid it anyway — see
        // `versioned_template_never_freezes`).
        assert!(!template.is_frozen(), "bound replay froze the template");
    }
    rt.taskwait();
    // Iteration k contributes 10k: 0 + 10 + 20 + 30 + 40 + 50.
    assert_eq!(rt.fetch(&sum), 150);
    rt.shutdown();
}

/// Capture the program, optionally run one warm (drained) replay so the
/// template freezes, then stamp `k` more passes gated as one measured
/// segment — either one [`Runtime::replay_fused`] super-batch or `k`
/// sequential [`Runtime::replay`] calls with no drain between them — and
/// return the segment's structure plus the final cell values.
fn replayed_multi(
    recycler: bool,
    cells: usize,
    ops: &[Op],
    k: usize,
    fused: bool,
    warm: bool,
) -> (InsertionStructure, Vec<u64>) {
    let rt = runtime_for(recycler);
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let template = capture_program(&rt, &handles, ops, &gate);
    gate.store(true, Ordering::Release);
    rt.taskwait();
    assert!(!template.is_frozen(), "capture alone must not freeze");
    if warm {
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
        assert!(
            template.is_frozen(),
            "a pure empty-bindings pass freezes a plain-handle template"
        );
    }

    gate.store(false, Ordering::Release);
    let skip = rt.trace().len();
    let before = rt.stats();
    if fused {
        let last = rt.replay_fused(&template, k);
        assert_eq!(last, warm as u64 + k as u64, "fused passes number from 1");
    } else {
        let bindings = ReplayBindings::new();
        for _ in 0..k {
            rt.replay(&template, &bindings);
        }
    }
    let after = rt.stats();
    let trace = rt.trace();
    let structure = segment_structure(&trace[skip..], ops.len() * k, &before, &after);
    gate.store(true, Ordering::Release);
    rt.taskwait();
    assert_eq!(template.passes(), warm as u64 + k as u64);
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    (structure, values)
}

/// One `replay_fused(k)` super-batch must discover byte-identical structure
/// (edge multiset over all k·n tasks, per-task dependence counts, counter
/// deltas) to `k` sequential `replay` calls with no drain between them —
/// including the carried inter-iteration dependences — across the full
/// recycler grid, both before the template freezes (fused resolved
/// insertion) and after (fused pre-wired insertion).
#[test]
fn fused_replay_matches_sequential_replays_across_grid() {
    let ops = demo_ops();
    let k = 2;
    for warm in [false, true] {
        let rounds = 1 + usize::from(warm) + k; // capture + warm + measured
        let expected = run_sequential_rounds(4, &ops, rounds);
        for recycler in [true, false] {
            let (seq_structure, seq_values) = replayed_multi(recycler, 4, &ops, k, false, warm);
            let (fused_structure, fused_values) = replayed_multi(recycler, 4, &ops, k, true, warm);
            assert_eq!(
                fused_structure, seq_structure,
                "recycler = {recycler}, warm = {warm}"
            );
            assert_eq!(
                seq_values, expected,
                "sequential values, recycler = {recycler}, warm = {warm}"
            );
            assert_eq!(
                fused_values, expected,
                "fused values, recycler = {recycler}, warm = {warm}"
            );
        }
    }
}

/// A template over **versioned** handles must never freeze, even across
/// empty-bindings passes: every pass produces version tickets, so clause
/// resolution is not pass-invariant and every `Replayed` event reports the
/// resolved (non-pre-wired) path.
#[test]
fn versioned_template_never_freezes() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let v = rt.versioned_data(0u64);
    let out = rt.data(0u64);
    let mut scope = rt.capture();
    {
        let v = v.clone();
        scope.task().output(&v).spawn(move |ctx| *ctx.write(&v) = 7);
    }
    {
        let v = v.clone();
        let out = out.clone();
        scope.task().input(&v).inout(&out).spawn(move |ctx| {
            let add = *ctx.read(&v);
            *ctx.write(&out) += add;
        });
    }
    let template = scope.finish();
    rt.taskwait();
    for _ in 0..3 {
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
        assert!(!template.is_frozen(), "versioned template froze");
    }
    let prewired: Vec<bool> = rt
        .trace()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { prewired, .. } => Some(*prewired),
            _ => None,
        })
        .collect();
    assert_eq!(prewired, vec![false, false, false]);
    // Capture + 3 passes, each writing 7 then folding it in.
    assert_eq!(rt.fetch(&out), 28);
    rt.shutdown();
}

/// Spawn a gated no-op task on `chunk`, minting its region id in the live
/// history while the gate is closed.
fn spawn_chunk_disturbance(rt: &Runtime, chunk: &ompss::Chunk<u64>, gate: &Arc<AtomicBool>) {
    let gate = gate.clone();
    rt.task().inout(chunk).spawn(move |_ctx| {
        while !gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
}

/// A frozen template whose allocation gains a second live region id mid-run
/// — here a gated task on a sibling chunk of the same allocation, the same
/// live-state change a rename would make — must fail plan validation for
/// that pass and fall back to resolved-per-pass insertion, keep the plan,
/// and recover the pre-wired path once the disturbance drains (the
/// quiescent `taskwait` garbage-collects the stale region id).
#[test]
fn sibling_chunk_mid_run_forces_fallback_then_recovers() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let part = PartitionedData::new(vec![0u64, 0], 1);
    let c0 = part.chunk(0);
    let acc = rt.data(0u64);
    let gate = Arc::new(AtomicBool::new(false));

    let mut scope = rt.capture();
    {
        let c0 = c0.clone();
        let gate = gate.clone();
        scope.task().inout(&c0).spawn(move |ctx| {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            ctx.write_chunk(&c0)[0] += 1;
        });
    }
    {
        let c0 = c0.clone();
        let acc = acc.clone();
        let gate = gate.clone();
        scope.task().input(&c0).inout(&acc).spawn(move |ctx| {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let add = ctx.read_chunk(&c0)[0];
            *ctx.write(&acc) += add;
        });
    }
    let template = scope.finish();
    gate.store(true, Ordering::Release);
    rt.taskwait();

    // Pass 1 resolves (and freezes); pass 2 stamps pre-wired.
    rt.replay(&template, &ReplayBindings::new());
    rt.taskwait();
    assert!(template.is_frozen());
    rt.replay(&template, &ReplayBindings::new());
    rt.taskwait();

    // Pass 3: while a gated task holds chunk 1 live, the template's
    // allocation carries a region id the plan does not know — validation
    // must reject the pre-wired path for this pass only.
    gate.store(false, Ordering::Release);
    spawn_chunk_disturbance(&rt, &part.chunk(1), &gate);
    rt.replay(&template, &ReplayBindings::new());
    gate.store(true, Ordering::Release);
    rt.taskwait();
    assert!(template.is_frozen(), "fallback must keep the plan");

    // Pass 4: disturbance drained and garbage-collected; pre-wired again.
    rt.replay(&template, &ReplayBindings::new());
    rt.taskwait();

    let prewired: Vec<bool> = rt
        .trace()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { prewired, .. } => Some(*prewired),
            _ => None,
        })
        .collect();
    assert_eq!(prewired, vec![false, true, false, true]);
    // chunk 0 increments once per round (capture + 4 passes) and each
    // round folds the running value into `acc`: 1 + 2 + 3 + 4 + 5.
    assert_eq!(rt.fetch(&acc), 15);
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings of clean passes, passes with a live
    /// sibling-chunk disturbance on a frozen allocation (the mid-run
    /// invalidation), and passes with non-empty bindings: every pass that
    /// cannot use the plan must fall back to resolved-per-pass insertion
    /// (pinned through `Replayed.prewired`), the plan must survive, and
    /// every pass must compute the sequential values.
    #[test]
    fn prop_invalidated_passes_fall_back_with_correct_values(
        actions in proptest::collection::vec(0u8..3, 1..8),
    ) {
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_tracing(true),
        );
        let part = PartitionedData::new(vec![0u64, 0], 1);
        let c0 = part.chunk(0);
        let acc = rt.data(0u64);
        let spare = rt.data(0u64);
        let gate = Arc::new(AtomicBool::new(false));

        let mut scope = rt.capture();
        {
            let c0 = c0.clone();
            let gate = gate.clone();
            scope.task().inout(&c0).spawn(move |ctx| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ctx.write_chunk(&c0)[0] += 1;
            });
        }
        // Passes with a binding redirect the `inout(acc)` clause to
        // `spare`; the body follows the driver-set flag so it writes
        // through the handle whose access the pass actually declared
        // (bindings substitute the dependence, not the body's storage —
        // passes are drained, so the flag cannot race).
        let bound_now = Arc::new(AtomicBool::new(false));
        {
            let c0 = c0.clone();
            let acc = acc.clone();
            let spare = spare.clone();
            let gate = gate.clone();
            let bound_now = bound_now.clone();
            scope.task().input(&c0).inout(&acc).spawn(move |ctx| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let add = ctx.read_chunk(&c0)[0];
                let target = if bound_now.load(Ordering::Acquire) {
                    &spare
                } else {
                    &acc
                };
                *ctx.write(target) += add;
            });
        }
        let template = scope.finish();
        gate.store(true, Ordering::Release);
        rt.taskwait();

        // Warm pass: resolved, freezes the template.
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
        prop_assert!(template.is_frozen());

        // Oracle: chunk 0 increments once per round; each round folds the
        // running value into the pass's accumulator (`spare` on bound
        // passes, `acc` otherwise).
        let mut expect_c0 = 2u64; // capture + warm pass
        let mut expect_acc = 3u64; // 1 + 2
        let mut expect_spare = 0u64;
        let mut expected_prewired = vec![false]; // the warm pass

        for &action in &actions {
            gate.store(false, Ordering::Release);
            bound_now.store(action == 2, Ordering::Release);
            if action == 1 {
                spawn_chunk_disturbance(&rt, &part.chunk(1), &gate);
            }
            let mut bindings = ReplayBindings::new();
            if action == 2 {
                bindings.bind(&acc, &spare);
            }
            rt.replay(&template, &bindings);
            gate.store(true, Ordering::Release);
            rt.taskwait();
            expect_c0 += 1;
            if action == 2 {
                expect_spare += expect_c0;
            } else {
                expect_acc += expect_c0;
            }
            expected_prewired.push(action == 0);
            prop_assert!(template.is_frozen(), "plan lost after action {}", action);
        }

        let prewired: Vec<bool> = rt
            .trace()
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Replayed { prewired, .. } => Some(*prewired),
                _ => None,
            })
            .collect();
        prop_assert_eq!(prewired, expected_prewired);
        prop_assert_eq!(rt.fetch(&acc), expect_acc);
        prop_assert_eq!(rt.fetch(&spare), expect_spare);
        rt.shutdown();
    }
}
