//! Equivalence of the dependence tracker across task-node reuse, and with
//! sequential execution.
//!
//! The task-node recycler must be invisible except in allocation counts:
//! for any program, the tracker must discover exactly the same dependence
//! structure with recycled nodes as with fresh ones, and execution must
//! produce exactly the values of sequential (spawn-order) execution.
//!
//! Three angles, all over randomly generated access programs (mixed
//! `input` / `output` / `inout` / `concurrent` accesses over many handles):
//!
//! 1. **Edge-structure equivalence.** Task bodies are *gated* on a shared
//!    flag, so no task completes (and nothing retires) while the program is
//!    being spawned — registration is then fully deterministic, and the edge
//!    multiset (recorded by the tracing `Edge` events), the per-task
//!    dependence counts, and every edge counter must be identical with the
//!    recycler on and off.
//! 2. **Value equivalence.** The same programs run ungated, recycler on and
//!    off, and must end with exactly the sequential final values.
//! 3. **Race freedom.** The same matrix under the `dcheck` race oracle
//!    reports no race and audits clean.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{Data, Runtime, RuntimeConfig, TraceEvent};

/// One step of a random program over a fixed set of cells.
#[derive(Debug, Clone)]
enum Op {
    /// cells[dst] = value (`output`)
    Set { dst: usize, value: u64 },
    /// cells[dst] += cells[src] (`inout` dst, `input` src)
    AddFrom { dst: usize, src: usize },
    /// cells[dst] = cells[dst] * 3 + 1 (`inout`)
    Scale { dst: usize },
    /// cells[dst] += k, commutatively (`concurrent`, update under a
    /// critical section as the access kind requires)
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

/// Reference semantics: execute the ops sequentially in spawn order.
fn run_sequential(cells: usize, ops: &[Op]) -> Vec<u64> {
    let mut v = vec![0u64; cells];
    for op in ops {
        match *op {
            Op::Set { dst, value } => v[dst] = value,
            Op::AddFrom { dst, src } => v[dst] = v[dst].wrapping_add(v[src]),
            Op::Scale { dst } => v[dst] = v[dst].wrapping_mul(3).wrapping_add(1),
            Op::Accumulate { dst, k } => v[dst] = v[dst].wrapping_add(k),
        }
    }
    v
}

/// Spawn one task per op. When `gate` is given, the body spins on it before
/// doing its work, so nothing completes until the caller releases the gate.
fn spawn_program(
    rt: &Runtime,
    handles: &[Data<u64>],
    ops: &[Op],
    gate: Option<&Arc<AtomicBool>>,
) -> Vec<ompss::TaskId> {
    let mut ids = Vec::with_capacity(ops.len());
    for op in ops {
        let gate = gate.cloned();
        let wait = move || {
            if let Some(g) = &gate {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        };
        let id = match *op {
            Op::Set { dst, value } => {
                let d = handles[dst].clone();
                rt.task().output(&d).spawn(move |ctx| {
                    wait();
                    *ctx.write(&d) = value;
                })
            }
            Op::AddFrom { dst, src } if dst != src => {
                let d = handles[dst].clone();
                let s = handles[src].clone();
                rt.task().inout(&d).input(&s).spawn(move |ctx| {
                    wait();
                    let add = *ctx.read(&s);
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(add);
                })
            }
            Op::AddFrom { dst, .. } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(*d);
                })
            }
            Op::Scale { dst } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_mul(3).wrapping_add(1);
                })
            }
            Op::Accumulate { dst, k } => {
                let d = handles[dst].clone();
                rt.task().concurrent(&d).spawn(move |ctx| {
                    wait();
                    ctx.critical("equivalence-acc", || {
                        let mut d = ctx.write(&d);
                        *d = d.wrapping_add(k);
                    });
                })
            }
        };
        ids.push(id);
    }
    ids
}

/// Sequential semantics of `Op::AddFrom { dst == src }` differs from the
/// tasked doubling only if the program-order value differs — keep the
/// reference model in sync with the task body.
fn run_sequential_matching_tasks(cells: usize, ops: &[Op]) -> Vec<u64> {
    // `AddFrom { dst == src }` doubles the cell in both models, so the plain
    // sequential interpreter is already exact.
    run_sequential(cells, ops)
}

/// Everything that must be identical across recycler settings when no task
/// can complete during registration.
#[derive(Debug, PartialEq, Eq)]
struct EdgeStructure {
    /// Dependence edges as (pred spawn index, succ spawn index), sorted.
    edges: Vec<(usize, usize)>,
    /// Per-task edge count in spawn order (the `deps` of `Spawned`).
    deps: Vec<usize>,
    /// (edges_added, raw, war, waw, dependences_seen).
    counters: (u64, u64, u64, u64, u64),
}

fn edge_structure(recycler: bool, cells: usize, ops: &[Op]) -> EdgeStructure {
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_task_recycler(recycler)
            .with_tracing(true),
    );
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let ids = spawn_program(&rt, &handles, ops, Some(&gate));
    // All registrations done, nothing has completed: snapshot the
    // deterministic structure, then release the tasks and drain.
    let stats = rt.stats();
    let trace = rt.trace();
    gate.store(true, Ordering::Release);
    rt.taskwait();
    rt.shutdown();

    let index_of = |id: ompss::TaskId| ids.iter().position(|t| *t == id);
    let mut edges = Vec::new();
    let mut deps = vec![usize::MAX; ids.len()];
    for ev in &trace {
        match ev {
            TraceEvent::Edge { task, from, .. } => {
                let (Some(f), Some(t)) = (index_of(*from), index_of(*task)) else {
                    panic!("edge references an unknown task");
                };
                edges.push((f, t));
            }
            TraceEvent::Spawned { task, deps: d, .. } => {
                if let Some(i) = index_of(*task) {
                    deps[i] = *d;
                }
            }
            _ => {}
        }
    }
    edges.sort_unstable();
    assert!(deps.iter().all(|&d| d != usize::MAX), "missing Spawned events");
    EdgeStructure {
        edges,
        deps,
        counters: (
            stats.edges_added,
            stats.raw_edges,
            stats.war_edges,
            stats.waw_edges,
            stats.dependences_seen,
        ),
    }
}

fn final_values(recycler: bool, cells: usize, ops: &[Op]) -> Vec<u64> {
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(3)
            .with_task_recycler(recycler),
    );
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    spawn_program(&rt, &handles, ops, None);
    rt.taskwait();
    let out = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With task completion gated off during spawning, the tracker
    /// discovers exactly the same edge multiset, per-task dependence counts
    /// and edge-class counters with recycled task nodes as with fresh ones.
    #[test]
    fn recycled_edge_structure_equals_fresh_nodes(
        ops in proptest::collection::vec(op_strategy(4), 1..32),
    ) {
        // Reference: recycler on (the default).
        let reference = edge_structure(true, 4, &ops);
        prop_assert_eq!(reference.edges.len() as u64, reference.counters.0);
        let no_recycler = edge_structure(false, 4, &ops);
        prop_assert_eq!(&no_recycler, &reference, "recycler off");
    }

    /// Ungated execution, recycler on and off, ends in exactly the
    /// sequential final values.
    #[test]
    fn execution_matches_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(5), 1..48),
    ) {
        let expected = run_sequential_matching_tasks(5, &ops);
        for recycler in [true, false] {
            let got = final_values(recycler, 5, &ops);
            prop_assert_eq!(&got, &expected, "recycler = {}", recycler);
        }
    }
}

/// Run one program under the dcheck race oracle on a given tracker
/// configuration and return (final values, race reports, audit verdict).
fn final_values_dcheck(
    recycler: bool,
    cells: usize,
    ops: &[Op],
) -> (Vec<u64>, Vec<ompss::RaceReport>, bool) {
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(3)
            .with_task_recycler(recycler)
            .with_dcheck(true),
    );
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    spawn_program(&rt, &handles, ops, None);
    rt.taskwait();
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    let races = rt.take_dcheck_reports();
    let audit_ok =
        rt.audit().is_ok() && rt.take_dcheck_audit_violations().is_empty();
    rt.shutdown();
    (values, races, audit_ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tracker matrix under the dcheck race oracle: {recycler on, off}
    /// runs random programs with zero race reports and a clean audit — the
    /// tracker orders every conflicting pair whichever node-reuse policy is
    /// active, and the oracle agrees.
    #[test]
    fn tracker_matrix_is_race_free_under_dcheck(
        ops in proptest::collection::vec(op_strategy(4), 1..32),
    ) {
        let expected = run_sequential_matching_tasks(4, &ops);
        for recycler in [true, false] {
            let (got, races, audit_ok) = final_values_dcheck(recycler, 4, &ops);
            prop_assert_eq!(&got, &expected, "values diverged: recycler = {}", recycler);
            prop_assert!(races.is_empty(), "races under recycler = {}: {:?}", recycler, races);
            prop_assert!(audit_ok, "audit violation under recycler = {}", recycler);
        }
    }
}

/// A fixed two-stage pipeline whose structure is easy to reason about:
/// `n` producer→consumer pairs over disjoint handles, each consumer also
/// folding into one shared sum. With completion gated off during spawning,
/// the edges are exactly the `n` RAW producer→consumer edges plus the
/// `n - 1` edges of the `inout` chain through the sum.
#[test]
fn pipeline_edges_match_the_expected_structure() {
    let n = 8;
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let cells: Vec<Data<u64>> = (0..n).map(|_| rt.data(0u64)).collect();
    let sum = rt.data(0u64);
    let gate = Arc::new(AtomicBool::new(false));
    let mut ids = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let d = c.clone();
        let g = gate.clone();
        ids.push(rt.task().output(&d).spawn(move |ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            *ctx.write(&d) = i as u64 + 1;
        }));
    }
    for c in &cells {
        let d = c.clone();
        let s = sum.clone();
        let g = gate.clone();
        ids.push(rt.task().input(&d).inout(&s).spawn(move |ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let v = *ctx.read(&d);
            let mut s = ctx.write(&s);
            *s = s.wrapping_add(v);
        }));
    }
    let trace = rt.trace();
    gate.store(true, Ordering::Release);
    rt.taskwait();
    assert_eq!(rt.fetch(&sum), (1..=n as u64).sum::<u64>());
    rt.shutdown();
    let index_of = |id: ompss::TaskId| ids.iter().position(|t| *t == id).unwrap();
    let mut edges = Vec::new();
    for ev in &trace {
        if let TraceEvent::Edge { task, from, .. } = ev {
            edges.push((index_of(*from), index_of(*task)));
        }
    }
    edges.sort_unstable();
    let mut expected: Vec<(usize, usize)> = (0..n).map(|i| (i, n + i)).collect();
    expected.extend((n..2 * n - 1).map(|i| (i, i + 1)));
    expected.sort_unstable();
    assert_eq!(edges, expected);
}
