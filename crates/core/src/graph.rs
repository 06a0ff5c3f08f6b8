//! Runtime dependence analysis and the task graph.
//!
//! This module is the OmpSs "superscalar" piece: just like an out-of-order
//! processor renames and tracks register dependences between in-flight
//! instructions, the tracker here records, per memory region, which in-flight
//! tasks last wrote it and which have read it since, and derives the
//! dependence edges of every newly spawned task from its declared accesses.
//!
//! The rules implemented (for a *later* task L registering after an *earlier*
//! task E, on overlapping regions):
//!
//! * L reads (`input`): L depends on E if E writes (RAW) — including
//!   `concurrent` writers.
//! * L writes (`output`/`inout`): L depends on every earlier reader (WAR) and
//!   writer (WAW).
//! * L is `concurrent`: L depends on earlier plain writers and readers, but
//!   **not** on earlier `concurrent` accesses (commutative updates may
//!   reorder among themselves).
//!
//! WAR/WAW edges serialise tasks on a given data *version* — the behaviour
//! the paper works around with circular buffers in the H.264 pipeline
//! (Listing 1). With automatic renaming (see [`crate::rename`]), `output`
//! accesses on versioned handles resolve to a **fresh version** (a fresh
//! allocation identity) *before* they reach this tracker, so the WAR/WAW
//! edges that would serialise them simply never arise here: the renamed
//! writer overlaps nothing in flight. The tracker itself needs no renaming
//! special-case; it classifies every edge it does insert (RAW / WAR / WAW)
//! so the effect of renaming is visible in the statistics.
//!
//! ## One lock
//!
//! The whole history — the `entries` map, the `by_alloc` overlap index and
//! the scratch buffers — is one `TrackerState` behind one mutex. Every
//! tracker operation takes that lock exactly once: a registration (all
//! three passes, whatever allocations its accesses span), a retirement (a
//! walk over the task's accesses), a whole replay batch (resolved or
//! pre-wired), a garbage-collection sweep and a `taskwait on` lookup. The
//! lock is tried before it blocks, so contended acquisitions are counted
//! ([`RuntimeStats::tracker_lock_contention`](crate::RuntimeStats::tracker_lock_contention)).
//!
//! A registration is therefore trivially atomic with respect to every other
//! registration and retirement (its linearisation point is the lock), and
//! the steady state allocates nothing: the predecessor and dedup buffers are
//! scratch fields of the locked state, left empty after each use. A single
//! lock also keeps the protocol small enough to model-check.
//!
//! One lock rather than one per allocation group: the tasks that dominate
//! fine-grained work read one allocation and write another (`input(prev)`
//! plus `output(cur)`), so any split of the history by allocation would
//! make them pay two acquisitions per registration and per retirement. The
//! README ("Dependence tracker") has the measurement.
//!
//! ## Retirement
//!
//! When a task completes, the worker retires it: each of its history
//! references is replaced, under the lock, by a lightweight *tombstone* (its
//! [`TaskId`]). Tombstones keep `predecessors_seen` deterministic (a
//! completed-but-conflicting predecessor is still *seen*, exactly as before
//! the retire path existed) while releasing the task node itself — closures,
//! successor lists, version tickets — as soon as the task finishes.
//! Garbage collection then drops tombstoned entries and scrubs
//! `by_alloc`, so fully retired allocations leave both maps; it runs
//! periodically from the spawn path and at every quiescent `taskwait`.
//!
//! [`crate::rename`]: crate::rename

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::access::{Access, AccessKind, AccessVec, Dependence};
use crate::region::{AllocId, Region, RegionId};
use crate::task::{TaskId, TaskNode, TaskState};

/// A cheap multiply–xorshift hasher for the tracker's id-keyed maps.
/// Allocation and region ids are small sequential counters minted by the
/// runtime itself (never attacker-controlled), so SipHash's DoS resistance
/// buys nothing here while its latency sits directly on the task-insertion
/// hot path — every registration performs several map operations per access.
#[derive(Default, Clone)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the id key types, which are u64/u32).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Golden-ratio multiply + xorshift: sequential ids spread over the
        // whole table.
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

/// One in-flight (or retired) access recorded in a region's history.
enum HistoryRef {
    /// The task is still live: edges can be added to it and `taskwait on`
    /// must wait for it.
    Live(Arc<TaskNode>),
    /// The task completed and was retired: only its identity is kept, so
    /// that `predecessors_seen` stays deterministic until the next garbage
    /// collection (see [`Registration::predecessors_seen`]).
    Retired(TaskId),
}

impl HistoryRef {
    fn id(&self) -> TaskId {
        match self {
            HistoryRef::Live(t) => t.id,
            HistoryRef::Retired(id) => *id,
        }
    }

    fn live(&self) -> Option<&Arc<TaskNode>> {
        match self {
            HistoryRef::Live(t) => Some(t),
            HistoryRef::Retired(_) => None,
        }
    }

    /// Whether the reference still pins a live, incomplete task (everything
    /// else is garbage-collectable).
    fn is_live_incomplete(&self) -> bool {
        match self {
            HistoryRef::Live(t) => !t.is_completed(),
            HistoryRef::Retired(_) => false,
        }
    }
}

/// Per-region bookkeeping of in-flight accesses.
#[derive(Default)]
struct RegionEntry {
    /// The byte range this region id refers to (recorded on first sight).
    region: Option<Region>,
    /// Tasks forming the last "writer generation".
    writers: Vec<HistoryRef>,
    /// Tasks that have read the region since the last writer generation.
    readers: Vec<HistoryRef>,
    /// Tasks with `concurrent` access since the last plain writer.
    concurrent: Vec<HistoryRef>,
}

impl RegionEntry {
    fn lists_mut(&mut self) -> [&mut Vec<HistoryRef>; 3] {
        [&mut self.writers, &mut self.readers, &mut self.concurrent]
    }
}

/// A predecessor discovered during registration: its identity, the live node
/// (when an edge can still be added), and the dependence class of the first
/// conflict that introduced it.
struct PredRef {
    id: TaskId,
    live: Option<Arc<TaskNode>>,
    dependence: Dependence,
}

/// Result of registering a task with the tracker.
#[derive(Default)]
pub(crate) struct Registration {
    /// Number of predecessor edges actually added (predecessors that had not
    /// yet completed).
    pub edges: usize,
    /// Added edges that are true (read-after-write) dependences.
    pub raw_edges: usize,
    /// Added edges that are anti (write-after-read) dependences.
    pub war_edges: usize,
    /// Added edges that are output (write-after-write) dependences.
    pub waw_edges: usize,
    /// Number of distinct conflicting predecessors discovered at
    /// registration, whether or not they had already completed (retired
    /// predecessors are counted through their tombstones). Unlike `edges`
    /// this does not depend on execution timing (until history is
    /// garbage-collected), which makes it the right counter for tests and
    /// comparisons that must be deterministic under load.
    pub predecessors_seen: usize,
    /// The predecessors of the added edges, for trace recording. Populated
    /// only when the caller asked for it (tracing enabled).
    pub edge_list: Vec<TaskId>,
}

/// Result of registering a whole template-replay batch with the tracker
/// under a single lock acquisition: the [`Registration`] counters summed
/// over the batch, plus optional per-task edge records for tracing.
#[derive(Default)]
pub(crate) struct BatchRegistration {
    /// Predecessor edges actually added, summed over the batch
    /// (intra-batch edges included).
    pub edges: usize,
    /// Added true (read-after-write) dependences, summed.
    pub raw_edges: usize,
    /// Added anti (write-after-read) dependences, summed.
    pub war_edges: usize,
    /// Added output (write-after-write) dependences, summed.
    pub waw_edges: usize,
    /// Distinct conflicting predecessors seen, summed (see
    /// [`Registration::predecessors_seen`]).
    pub predecessors_seen: usize,
    /// `(batch index, edge predecessors)` per task, in batch order.
    /// Populated only when the caller asked for edge records (tracing
    /// enabled); empty — and allocation-free — otherwise. The pre-wired path
    /// records only the *frontier* tasks here (interior edges come from the
    /// plan), so entries are sparse: index by the stored batch position, not
    /// by vector offset.
    pub per_task: Vec<(usize, Vec<TaskId>)>,
}

impl BatchRegistration {
    /// Fold one task's registration (at batch position `i`) into the sums.
    fn add(&mut self, i: usize, reg: Registration, record_edges: bool) {
        self.edges += reg.edges;
        self.raw_edges += reg.raw_edges;
        self.war_edges += reg.war_edges;
        self.waw_edges += reg.waw_edges;
        self.predecessors_seen += reg.predecessors_seen;
        if record_edges {
            self.per_task.push((i, reg.edge_list));
        }
    }
}

/// One pre-resolved intra-batch dependence edge of a [`FrozenPlan`]: both
/// endpoints are batch positions (stable across passes — task ids are not).
/// The dependence *class* is not stored per edge — the per-pass RAW/WAR/WAW
/// contributions are pre-summed into the plan's counters at freeze time.
pub(crate) struct FrozenEdge {
    pub pred: usize,
    pub succ: usize,
}

/// A replay batch frozen into pre-wired form by [`build_frozen_plan`]: the
/// per-task resolved accesses (pass-invariant — freezing requires a pass
/// with zero renames, tickets or binding substitutions, so every clause
/// resolves to the same plain region every time), the intra-batch edges and
/// dep counts of every *interior* task baked in, and the validation keys
/// that let [`Tracker::register_batch_prewired`] prove, under the lock, that
/// the baked edges are still the edges a live scan would derive.
///
/// A task is **interior** when every one of its accesses lands on a region
/// some earlier in-batch task fully overwrote (`output`/`inout` clears the
/// region's history and installs itself as the sole writer): from that point
/// the region's history is a pure function of the batch prefix, so the
/// task's predecessors — found by shadow-registering the batch against an
/// *empty* history — are its real predecessors on every pass. Every other
/// task is **frontier**: its history scan can see pre-batch state (the
/// previous iteration's tasks still in flight), so it is registered live
/// under the lock each pass. In an iterative workload the frontier is the
/// first write per region — a small fixed fringe of the batch.
pub(crate) struct FrozenPlan {
    /// Resolved accesses per task, cloned into each pass's nodes.
    pub accesses: Vec<AccessVec>,
    /// The region ids the batch uses on each allocation it touches —
    /// pairwise **disjoint** by construction (chunked partitions qualify,
    /// sub-region mixes do not: an overlapping pair would let one region's
    /// pre-batch history reach an interior task through the other's scan).
    pub allocs: Vec<(AllocId, Vec<RegionId>)>,
    /// Whether each task (by batch position) must be registered live.
    pub frontier: Vec<bool>,
    /// Position after the last frontier task. Tasks before it register
    /// their history live (a later frontier scan may need the prefix);
    /// tasks at and after it — the interior tail — never touch the history
    /// maps per task at all: their net effect is applied by the per-region
    /// bulk [`FrozenInstall`]s below, after each iteration's live prefix.
    pub scan_upto: usize,
    /// Per-region bulk history installs (one per region the batch touches,
    /// when there is anything the live prefix did not already record).
    pub installs: Vec<FrozenInstall>,
    /// Baked intra-batch edges into interior tasks.
    pub edges: Vec<FrozenEdge>,
    /// Baked in-edge count per task (zero for frontier tasks).
    pub baked_in: Vec<usize>,
    /// Baked per-pass counter contributions (interior tasks only).
    pub baked_raw: usize,
    pub baked_war: usize,
    pub baked_waw: usize,
    pub baked_preds: usize,
}

// SAFETY: `FrozenPlan` stops being auto-Send/Sync only because the resolved
// per-task `Access`es carry the raw storage pointer of the version each
// clause bound (see `crate::access::BoundPtr`). Freezing requires a pass
// with zero renames or binding substitutions, so those pointers target the
// sole, address-stable version of each handle, kept alive by the owning
// `GraphTemplate`'s recorded clauses for as long as the plan exists; the
// plan itself is immutable after construction, and the accesses are only
// *cloned* into pass nodes, where `TaskNode`'s own Send/Sync argument
// governs dereferencing. Sharing the plan across threads (templates are
// replayed concurrently) is therefore sound.
unsafe impl Send for FrozenPlan {}
unsafe impl Sync for FrozenPlan {}

impl FrozenPlan {
    /// Number of tasks one pass of the plan stamps.
    pub fn len(&self) -> usize {
        self.frontier.len()
    }
}

/// The net history effect of one batch pass on one region, baked at freeze
/// time so the interior tail can be published in O(regions + final refs)
/// instead of O(accesses) per-task `record_access` calls. Only regions an
/// in-batch `output`/`inout` overwrote get an install (interior tasks touch
/// no other kind — a task on a never-overwritten region is frontier by
/// definition, hence inside the live prefix), and an overwrite rebuilds the
/// region's history from scratch, so every install *replaces* the entry's
/// lists with the batch's final state. Positions index into the iteration's
/// node slice.
pub(crate) struct FrozenInstall {
    /// The region (carries the id; the range seeds a fresh entry).
    pub region: Region,
    /// Final writer generation (a single position: the last overwriter).
    pub writers: Vec<usize>,
    /// Readers since the last writer generation, in batch order.
    pub readers: Vec<usize>,
    /// Concurrent accessors since the last plain writer, in batch order.
    pub concurrent: Vec<usize>,
}

/// Try to freeze a replay batch into a [`FrozenPlan`]. `nodes` are the
/// freshly resolved nodes of a pass that performed **zero** renames, version
/// tickets or binding substitutions (the caller checks — that is what makes
/// clause resolution pass-invariant). Returns `None` when the batch cannot
/// be frozen: two *overlapping* regions on one allocation (a sub-region mix
/// would let the live overlap scan reach history through one region that
/// the other's baked edges cannot see). Disjoint region ids on one
/// allocation — the chunks of a partition — freeze fine: no scan of one
/// chunk ever reaches another's history.
///
/// The plan is built by *shadow registration*: the batch runs the very same
/// `collect_preds`/`record_access` passes a live registration runs, against
/// a throwaway empty [`TrackerState`]. For interior tasks the shadow history
/// at their position equals the live history (both were rebuilt from
/// scratch by the same in-batch writes), so the shadow edges are the real
/// edges — the classification logic is shared with the live path, not
/// re-implemented.
pub(crate) fn build_frozen_plan(nodes: &[Arc<TaskNode>]) -> Option<FrozenPlan> {
    let n = nodes.len();
    if n == 0 {
        return None;
    }
    let mut regions: Vec<(AllocId, Vec<Region>)> = Vec::new();
    for node in nodes {
        for access in node.accesses.iter() {
            let rid = access.region.id;
            match regions.iter_mut().find(|(a, _)| *a == rid.alloc) {
                Some((_, seen)) => {
                    if !seen.iter().any(|r| r.id == rid) {
                        if seen.iter().any(|r| r.overlaps(&access.region)) {
                            return None;
                        }
                        seen.push(access.region.clone());
                    }
                }
                None => regions.push((rid.alloc, vec![access.region.clone()])),
            }
        }
    }
    let allocs = regions
        .into_iter()
        .map(|(a, rs)| (a, rs.into_iter().map(|r| r.id).collect()))
        .collect();
    let mut shadow = TrackerState::default();
    // Regions fully overwritten by an earlier in-batch `output`/`inout`.
    let mut cleared: Vec<RegionId> = Vec::new();
    let mut index_of: HashMap<TaskId, usize, IdBuildHasher> = HashMap::default();
    let mut plan = FrozenPlan {
        accesses: Vec::with_capacity(n),
        allocs,
        frontier: vec![false; n],
        scan_upto: 0,
        installs: Vec::new(),
        edges: Vec::new(),
        baked_in: vec![0; n],
        baked_raw: 0,
        baked_war: 0,
        baked_waw: 0,
        baked_preds: 0,
    };
    let mut preds: Vec<PredRef> = Vec::new();
    let mut seen: Vec<TaskId> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        index_of.insert(node.id, i);
        let is_frontier = node
            .accesses
            .iter()
            .any(|a| !cleared.contains(&a.region.id));
        plan.frontier[i] = is_frontier;
        preds.clear();
        seen.clear();
        for access in node.accesses.iter() {
            shadow.collect_preds(access, &mut preds, &mut seen);
        }
        if !is_frontier {
            for pred in &preds {
                if pred.id == node.id {
                    continue;
                }
                let p = *index_of
                    .get(&pred.id)
                    .expect("shadow history only ever holds in-batch tasks");
                plan.edges.push(FrozenEdge { pred: p, succ: i });
                plan.baked_in[i] += 1;
                match pred.dependence {
                    Dependence::ReadAfterWrite => plan.baked_raw += 1,
                    Dependence::WriteAfterRead => plan.baked_war += 1,
                    Dependence::WriteAfterWrite => plan.baked_waw += 1,
                    Dependence::None => {}
                }
            }
            plan.baked_preds += preds.len();
        }
        for access in node.accesses.iter() {
            shadow.record_access(access, node);
            if matches!(access.kind, AccessKind::Output | AccessKind::InOut)
                && !cleared.contains(&access.region.id)
            {
                cleared.push(access.region.id);
            }
        }
        plan.accesses.push(node.accesses.clone());
    }
    plan.scan_upto = plan.frontier.iter().rposition(|&f| f).map_or(0, |p| p + 1);
    // Bake the batch's net history effect per overwritten region from the
    // shadow's final state. `cleared` (first-overwrite order) keeps the
    // install list deterministic across freezes.
    let to_positions = |refs: &[HistoryRef]| -> Vec<usize> {
        refs.iter()
            .map(|r| *index_of.get(&r.id()).expect("shadow refs are in-batch"))
            .collect()
    };
    for &rid in &cleared {
        let entry = shadow
            .entries
            .get(&rid)
            .expect("an overwritten region has a shadow entry");
        plan.installs.push(FrozenInstall {
            region: entry.region.clone().expect("recorded regions carry bytes"),
            writers: to_positions(&entry.writers),
            readers: to_positions(&entry.readers),
            concurrent: to_positions(&entry.concurrent),
        });
    }
    // Never-overwritten regions need no install: every task touching one is
    // frontier, so all their refs land inside the live prefix.
    debug_assert!(shadow.entries.iter().all(|(rid, entry)| {
        cleared.contains(rid)
            || entry
                .writers
                .iter()
                .chain(entry.readers.iter())
                .chain(entry.concurrent.iter())
                .all(|r| index_of[&r.id()] < plan.scan_upto)
    }));
    Some(plan)
}

/// Wire the baked edges of `plan` into `iterations` consecutive copies of
/// the batch **before** the tracker lock is taken: push each interior
/// successor onto its predecessor's link list, bump its `pending`, and store
/// the baked in-edge counts. Nothing here touches tracker state — the nodes
/// are unpublished (their registration sentinel is still up), so no
/// predecessor can complete out from under the wiring and `add_edge`
/// semantics are preserved exactly.
pub(crate) fn prewire_batch(nodes: &[Arc<TaskNode>], plan: &FrozenPlan, iterations: usize) {
    let per = plan.len();
    debug_assert_eq!(nodes.len(), per * iterations);
    for m in 0..iterations {
        let base = m * per;
        for e in &plan.edges {
            let succ = &nodes[base + e.succ];
            nodes[base + e.pred]
                .links
                .lock()
                .successors
                .push(succ.clone());
            succ.pending.fetch_add(1, Ordering::SeqCst);
        }
        for (t, &baked) in plan.baked_in.iter().enumerate() {
            if !plan.frontier[t] {
                nodes[base + t].in_edges.store(baked, Ordering::Relaxed);
            }
        }
    }
}

/// Undo [`prewire_batch`] after the plan failed live validation: drop the
/// baked successor links and reset every node's registration sentinel so an
/// ordinary [`Tracker::register_batch`] can start from scratch.
pub(crate) fn unwire_batch(nodes: &[Arc<TaskNode>]) {
    for node in nodes {
        node.links.lock().successors.clear();
        node.pending.store(1, Ordering::SeqCst);
        node.in_edges.store(0, Ordering::Relaxed);
    }
}

/// Diagnostics of the dependence tracker, from
/// [`Runtime::tracker_diagnostics`](crate::Runtime::tracker_diagnostics).
/// Counts *currently tracked* state — after a quiescent `taskwait` (which
/// garbage-collects) everything should read zero; a monotonically growing
/// count across quiescent points is a leak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerDiagnostics {
    regions: usize,
    allocs: usize,
}

impl TrackerDiagnostics {
    /// Regions currently tracked.
    pub fn total_regions(&self) -> usize {
        self.regions
    }

    /// Allocations currently indexed in the overlap index.
    pub fn total_allocs(&self) -> usize {
        self.allocs
    }
}

/// The dependence tracker's history: the region entries and per-allocation
/// overlap index, plus scratch buffers. Only ever reached through the
/// [`Tracker`]'s lock (or owned outright, as the shadow of
/// [`build_frozen_plan`]).
#[derive(Default)]
pub(crate) struct TrackerState {
    entries: HashMap<RegionId, RegionEntry, IdBuildHasher>,
    /// All region ids currently tracked per allocation, used for overlap
    /// scans.
    by_alloc: HashMap<AllocId, Vec<RegionId>, IdBuildHasher>,
    /// Scratch buffers reused by every registration, so the steady-state
    /// registration allocates nothing. Always left empty.
    scratch_preds: Vec<PredRef>,
    scratch_seen: Vec<TaskId>,
    /// Scratch set reused by [`TrackerState::garbage_collect`], so periodic
    /// and quiescent sweeps stay allocation-free in steady state too.
    scratch_gc: HashSet<RegionId, IdBuildHasher>,
}

/// The dependence tracker: one [`TrackerState`] behind one lock, plus the
/// contention counter. See the module docs.
#[derive(Default)]
pub(crate) struct Tracker {
    state: Mutex<TrackerState>,
    /// Acquisitions that found the lock held and had to block.
    contention: AtomicU64,
}

// lint: hot-path-begin — the tracker lock and completion tier: every task
// registration and completion passes through here; no panicking calls
// allowed (see `cargo xtask lint`).
impl TrackerState {
    /// Pass 1 of registration: collect the predecessors `access` conflicts
    /// with, deduplicated across `seen`.
    fn collect_preds(&self, access: &Access, preds: &mut Vec<PredRef>, seen: &mut Vec<TaskId>) {
        // Iterate the allocation's region ids in place (without
        // materialising the id list — this runs once per access on the
        // insertion hot path).
        let Some(ids) = self.by_alloc.get(&access.region.id.alloc) else {
            return;
        };
        for rid in ids {
            let entry = match self.entries.get(rid) {
                Some(e) => e,
                None => continue,
            };
            match &entry.region {
                Some(r) if r.overlaps(&access.region) => {}
                _ => continue,
            }
            let later = access.kind;
            // Statistics classification. This deliberately diverges from
            // `access::classify` for read-modify-writes: an `inout` (or
            // `concurrent`) after a writer *reads* the written data, so
            // the edge carries a genuine data flow and is counted RAW —
            // it is not serialisation that renaming could remove. WAR and
            // WAW are reserved for edges where the successor overwrites
            // without reading (the renameable false dependences).
            let vs_writer = if later.reads() {
                Dependence::ReadAfterWrite
            } else {
                Dependence::WriteAfterWrite
            };
            // Earlier writers always order later readers and writers.
            for w in &entry.writers {
                push_pred(preds, seen, w, vs_writer);
            }
            match later {
                AccessKind::Input => {
                    // RAW only; concurrent accumulators count as writers.
                    for c in &entry.concurrent {
                        push_pred(preds, seen, c, Dependence::ReadAfterWrite);
                    }
                }
                AccessKind::Output | AccessKind::InOut => {
                    for r in &entry.readers {
                        push_pred(preds, seen, r, Dependence::WriteAfterRead);
                    }
                    for c in &entry.concurrent {
                        push_pred(preds, seen, c, vs_writer);
                    }
                }
                AccessKind::Concurrent => {
                    // Order against plain readers, not against other
                    // concurrent accesses.
                    for r in &entry.readers {
                        push_pred(preds, seen, r, Dependence::WriteAfterRead);
                    }
                }
            }
        }
    }

    /// Pass 3 of registration: record `access` of `node` in the history so
    /// that future tasks depend on `node` where required.
    fn record_access(&mut self, access: &Access, node: &Arc<TaskNode>) {
        let rid = access.region.id;
        let ids = self.by_alloc.entry(rid.alloc).or_default();
        ids.retain(|r| *r != rid);
        ids.push(rid);
        let entry = self.entries.entry(rid).or_default();
        if entry.region.is_none() {
            entry.region = Some(access.region.clone());
        }
        match access.kind {
            AccessKind::Input => entry.readers.push(HistoryRef::Live(node.clone())),
            AccessKind::Output | AccessKind::InOut => {
                entry.writers.clear();
                entry.writers.push(HistoryRef::Live(node.clone()));
                entry.readers.clear();
                entry.concurrent.clear();
            }
            AccessKind::Concurrent => entry.concurrent.push(HistoryRef::Live(node.clone())),
        }
    }

    /// The three registration passes for one node, through the scratch
    /// buffers so the steady state allocates nothing: collect predecessors
    /// across every access, add the edges, then record the accesses.
    fn register_node(&mut self, node: &Arc<TaskNode>, record_edges: bool) -> Registration {
        let mut preds = std::mem::take(&mut self.scratch_preds);
        let mut seen = std::mem::take(&mut self.scratch_seen);
        debug_assert!(preds.is_empty() && seen.is_empty());
        // Pass 1: predecessors from every overlapping region entry, in
        // access-declaration order, each with the dependence class of the
        // (first) conflict that introduced it.
        for access in node.accesses.iter() {
            self.collect_preds(access, &mut preds, &mut seen);
        }
        // Pass 2: add the edges (only live predecessors can take one).
        let registration = add_pred_edges(&preds, node, record_edges);
        node.in_edges.store(registration.edges, Ordering::Relaxed);
        // Pass 3: update the history on the *exact* region entries.
        for access in node.accesses.iter() {
            self.record_access(access, node);
        }
        preds.clear();
        seen.clear();
        self.scratch_preds = preds;
        self.scratch_seen = seen;
        registration
    }

    /// Bulk-publish one [`FrozenInstall`]: replace the region's history with
    /// the batch's baked net effect — exactly the state the per-task
    /// `record_access` interleave of a resolved registration would have left
    /// (an in-batch overwrite rebuilds the lists from scratch, so the final
    /// state is a pure function of the batch). `nodes` is the current
    /// iteration's node slice; the install's positions index into it. In the
    /// warm steady state this allocates nothing: the entry, its list
    /// capacities and the `by_alloc` slot all survive from the previous
    /// pass.
    fn apply_install(&mut self, inst: &FrozenInstall, nodes: &[Arc<TaskNode>]) {
        let rid = inst.region.id;
        let ids = self.by_alloc.entry(rid.alloc).or_default();
        ids.retain(|r| *r != rid);
        ids.push(rid);
        let entry = self.entries.entry(rid).or_default();
        if entry.region.is_none() {
            entry.region = Some(inst.region.clone());
        }
        entry.writers.clear();
        entry.readers.clear();
        entry.concurrent.clear();
        for &p in &inst.writers {
            entry.writers.push(HistoryRef::Live(nodes[p].clone()));
        }
        for &p in &inst.readers {
            entry.readers.push(HistoryRef::Live(nodes[p].clone()));
        }
        for &p in &inst.concurrent {
            entry.concurrent.push(HistoryRef::Live(nodes[p].clone()));
        }
    }

    /// Replace every live history reference of task `id` under region `rid`
    /// with a tombstone (the retire path). A reference already cleared by a
    /// later writer generation is silently gone — that is fine.
    fn retire_region(&mut self, rid: RegionId, id: TaskId) {
        if let Some(entry) = self.entries.get_mut(&rid) {
            for list in entry.lists_mut() {
                for r in list.iter_mut() {
                    if r.id() == id && r.live().is_some() {
                        *r = HistoryRef::Retired(id);
                    }
                }
            }
        }
    }

    /// All in-flight tasks currently accessing a region overlapping
    /// `region` (used by `taskwait on`).
    fn tasks_touching(&self, region: &Region) -> Vec<Arc<TaskNode>> {
        let mut out: Vec<Arc<TaskNode>> = Vec::new();
        let Some(ids) = self.by_alloc.get(&region.id.alloc) else {
            // No history on the allocation means nothing to wait for.
            return out;
        };
        for rid in ids {
            let Some(entry) = self.entries.get(rid) else {
                continue;
            };
            if !entry.region.as_ref().is_some_and(|r| r.overlaps(region)) {
                continue;
            }
            for t in entry
                .writers
                .iter()
                .chain(entry.readers.iter())
                .chain(entry.concurrent.iter())
                .filter_map(HistoryRef::live)
            {
                if !t.is_completed() && !out.iter().any(|o| o.id == t.id) {
                    out.push(t.clone());
                }
            }
        }
        out
    }

    /// Drop history references that no longer pin anything (tombstones and
    /// completed tasks), then entries left empty, then the `by_alloc` ids of
    /// dropped entries — so a fully retired allocation leaves **both** maps
    /// (`tests` pin this; `by_alloc` held stale region ids otherwise).
    fn garbage_collect(&mut self) {
        self.entries.retain(|_, e| {
            e.writers.retain(HistoryRef::is_live_incomplete);
            e.readers.retain(HistoryRef::is_live_incomplete);
            e.concurrent.retain(HistoryRef::is_live_incomplete);
            !(e.writers.is_empty() && e.readers.is_empty() && e.concurrent.is_empty())
        });
        let mut live = std::mem::take(&mut self.scratch_gc);
        debug_assert!(live.is_empty());
        live.extend(self.entries.keys().copied());
        self.by_alloc.retain(|_, ids| {
            ids.retain(|r| live.contains(r));
            !ids.is_empty()
        });
        live.clear();
        self.scratch_gc = live;
    }
}

impl Tracker {
    /// Take the lock, trying first so that an acquisition which has to block
    /// is counted as contended.
    fn lock(&self) -> MutexGuard<'_, TrackerState> {
        match self.state.try_lock() {
            Some(guard) => guard,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.state.lock()
            }
        }
    }

    /// Acquisitions that found the lock held by another thread.
    pub(crate) fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// Register the declared accesses of `node`, adding dependence edges from
    /// every conflicting in-flight task, and updating the per-region history
    /// so that future tasks depend on `node` where required. One lock
    /// acquisition covers all three passes, which makes the registration
    /// atomic with respect to concurrent registrations and retirements.
    /// `record_edges` asks for the edge predecessors (only the tracing path
    /// wants them).
    pub(crate) fn register(&self, node: &Arc<TaskNode>, record_edges: bool) -> Registration {
        if node.accesses.is_empty() {
            node.in_edges.store(0, Ordering::Relaxed);
            return Registration::default();
        }
        self.lock().register_node(node, record_edges)
    }

    /// Register a whole template-replay batch under **one** lock
    /// acquisition: the three registration passes run per node in batch
    /// order. Because pass 3 (history update) of node *i* runs before pass 1
    /// (predecessor collection) of node *i+1*, intra-batch dependences fall
    /// out of the ordinary history scan — the edges are re-derived, not
    /// copied from the template, so they stay correct when per-replay
    /// renaming resolves clauses to different versions than the captured
    /// iteration did. The batch is one legal linearization of the same
    /// per-node pass sequence, made atomic by the lock.
    pub(crate) fn register_batch(
        &self,
        nodes: &[Arc<TaskNode>],
        record_edges: bool,
    ) -> BatchRegistration {
        let mut batch = BatchRegistration::default();
        let mut state = self.lock();
        for (i, node) in nodes.iter().enumerate() {
            let reg = state.register_node(node, record_edges);
            batch.add(i, reg, record_edges);
        }
        batch
    }

    /// Register `iterations` consecutive copies of a [`FrozenPlan`] batch
    /// whose interior edges were already wired by [`prewire_batch`]: under
    /// one lock acquisition, **validate** the plan against live state, then
    /// stamp each iteration in two steps. The *live prefix* — batch
    /// positions up to the last frontier task — runs the ordinary
    /// scan/record interleave (frontier tasks scan live history; every
    /// prefix task records its accesses, since a later frontier scan may
    /// need them). The *interior tail* after it never touches the history
    /// maps per task: the plan's baked [`FrozenInstall`]s publish the
    /// iteration's net per-region effect in one pass, so the next
    /// iteration's frontier scan picks up this iteration's final writers —
    /// exactly the carried inter-iteration dependence of a fused replay.
    /// Interior tasks' edges and counters come pre-summed from the plan.
    ///
    /// Validation: for each allocation the plan touches, the live
    /// `by_alloc` index must hold no region id outside the plan's (pairwise
    /// disjoint) set. Any other id — a sub-region access or a rename minted
    /// elsewhere since the freeze — would be visible to a live overlap scan
    /// but not to the baked edges, so the batch returns `None` (having
    /// touched nothing) and the caller unwires and falls back to
    /// [`Tracker::register_batch`].
    pub(crate) fn register_batch_prewired(
        &self,
        nodes: &[Arc<TaskNode>],
        plan: &FrozenPlan,
        iterations: usize,
        record_edges: bool,
    ) -> Option<BatchRegistration> {
        let per = plan.len();
        debug_assert_eq!(nodes.len(), per * iterations);
        let mut batch = BatchRegistration {
            edges: plan.edges.len() * iterations,
            raw_edges: plan.baked_raw * iterations,
            war_edges: plan.baked_war * iterations,
            waw_edges: plan.baked_waw * iterations,
            predecessors_seen: plan.baked_preds * iterations,
            per_task: Vec::new(),
        };
        let mut state = self.lock();
        for (alloc, rids) in &plan.allocs {
            if let Some(ids) = state.by_alloc.get(alloc) {
                if ids.iter().any(|r| !rids.contains(r)) {
                    return None;
                }
            }
        }
        for m in 0..iterations {
            let base = m * per;
            // Live prefix: up to (and including) the last frontier task,
            // scan and record in batch order — a frontier task's scan may
            // need any earlier prefix task's history entry.
            for t in 0..plan.scan_upto {
                let node = &nodes[base + t];
                if plan.frontier[t] {
                    let reg = state.register_node(node, record_edges);
                    batch.add(base + t, reg, record_edges);
                } else {
                    for access in node.accesses.iter() {
                        state.record_access(access, node);
                    }
                }
            }
            // Interior tail: no per-task history work at all — the baked
            // installs publish the iteration's net effect per region, so the
            // next iteration's frontier (and post-batch registrations) see
            // exactly the state a full per-task interleave would have left.
            for inst in &plan.installs {
                state.apply_install(inst, &nodes[base..base + per]);
            }
        }
        Some(batch)
    }

    /// Retire a completed task from the history: every live reference it
    /// still holds is replaced by a tombstone, releasing the node. One lock
    /// acquisition, a walk over the task's accesses, no allocation.
    /// Idempotent per task.
    pub(crate) fn retire(&self, node: &Arc<TaskNode>) {
        if node.accesses.is_empty() || !node.mark_retired() {
            return;
        }
        let mut state = self.lock();
        for access in node.accesses.iter() {
            state.retire_region(access.region.id, node.id);
        }
    }

    /// All in-flight tasks that currently access a region overlapping
    /// `region` (used by `taskwait on`).
    pub(crate) fn tasks_touching(&self, region: &Region) -> Vec<Arc<TaskNode>> {
        self.lock().tasks_touching(region)
    }

    /// Garbage-collect the history: drop tombstones, completed tasks,
    /// emptied entries and their `by_alloc` ids. Called periodically from
    /// the spawn path (cadence:
    /// [`RuntimeConfig::with_tracker_gc_interval`](crate::RuntimeConfig::with_tracker_gc_interval))
    /// and from quiescent `taskwait`s to bound memory on long-running
    /// programs. Bypasses the contention counter, which attributes lock
    /// traffic to the registration, retire and `taskwait on` paths only.
    pub(crate) fn garbage_collect(&self) {
        self.state.lock().garbage_collect();
    }

    /// Whether some thread holds the lock right now. At runtime quiescence
    /// no registration or retirement can be in progress, so a held lock is
    /// an invariant violation (see [`crate::Runtime::audit`]).
    pub(crate) fn is_locked(&self) -> bool {
        self.state.try_lock().is_none()
    }

    /// Current history map sizes. Bypasses the contention counter (see
    /// [`Tracker::garbage_collect`]).
    pub(crate) fn diagnostics(&self) -> TrackerDiagnostics {
        let state = self.state.lock();
        TrackerDiagnostics {
            regions: state.entries.len(),
            allocs: state.by_alloc.len(),
        }
    }
}

/// Pass 2 of registration: add an edge from every live predecessor,
/// classifying it RAW / WAR / WAW.
fn add_pred_edges(preds: &[PredRef], node: &Arc<TaskNode>, record_edges: bool) -> Registration {
    let mut reg = Registration {
        predecessors_seen: preds.len(),
        ..Registration::default()
    };
    for pred in preds {
        if pred.id == node.id {
            continue;
        }
        let Some(live) = &pred.live else { continue };
        if add_edge(live, node) {
            reg.edges += 1;
            match pred.dependence {
                Dependence::ReadAfterWrite => reg.raw_edges += 1,
                Dependence::WriteAfterRead => reg.war_edges += 1,
                Dependence::WriteAfterWrite => reg.waw_edges += 1,
                Dependence::None => {}
            }
            if record_edges {
                reg.edge_list.push(pred.id);
            }
        }
    }
    reg
}

fn push_pred(
    preds: &mut Vec<PredRef>,
    seen: &mut Vec<TaskId>,
    t: &HistoryRef,
    dependence: Dependence,
) {
    let id = t.id();
    if !seen.contains(&id) {
        seen.push(id);
        preds.push(PredRef {
            id,
            live: t.live().cloned(),
            dependence,
        });
    }
}

/// Add a dependence edge `pred -> succ`. Returns `false` (and adds nothing)
/// if `pred` already completed.
pub(crate) fn add_edge(pred: &Arc<TaskNode>, succ: &Arc<TaskNode>) -> bool {
    let mut links = pred.links.lock();
    if links.completed {
        return false;
    }
    links.successors.push(succ.clone());
    succ.pending.fetch_add(1, Ordering::SeqCst);
    true
}

/// Release the registration sentinel of a freshly registered task. Returns
/// `true` if the task became ready (no unresolved predecessors).
pub(crate) fn finish_registration(node: &Arc<TaskNode>) -> bool {
    let prev = node.pending.fetch_sub(1, Ordering::SeqCst);
    debug_assert!(prev >= 1);
    let ready = prev == 1;
    if ready {
        node.set_state(TaskState::Ready);
    }
    ready
}

/// Mark `node` completed and notify its successors, appending those that
/// became ready onto `ready`. The successor list is drained **in place** —
/// its capacity stays with the node for its next (recycled) life, and the
/// caller's `ready` buffer is reused across completions, so the steady-state
/// wakeup path allocates nothing. Decrementing `pending` under the
/// predecessor's links lock is the same single-lock+atomic pattern
/// [`add_edge`] uses, so no lock ordering is introduced.
pub(crate) fn complete_into(
    node: &Arc<TaskNode>,
    ready: &mut Vec<Arc<TaskNode>>,
    dcheck: Option<&crate::dcheck::DcheckState>,
) {
    node.set_state(TaskState::Completed);
    // Publish completion to the race oracle's snapshot *before* the
    // successor list closes: a registration racing with this completion then
    // either gets a live edge (merged below) or observes `links.completed`
    // and inherits the ordering from the snapshot instead.
    if let Some(d) = dcheck {
        d.mark_completed(node);
    }
    let mut links = node.links.lock();
    links.completed = true;
    for succ in links.successors.drain(..) {
        if let Some(d) = dcheck {
            d.merge_edge(node, &succ);
        }
        let prev = succ.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev >= 1);
        if prev == 1 {
            succ.set_state(TaskState::Ready);
            ready.push(succ);
        }
    }
}

/// The poisoning counterpart of [`complete_into`]: mark `node` completed,
/// poison every still-linked successor with `origin`, and release them
/// exactly as a normal completion would. Poisoning under the predecessor's
/// links lock before the `pending` decrement is race-free: a successor
/// cannot become ready (and so cannot start running) until every
/// predecessor has completed, so the poison mark is always visible to the
/// worker that eventually dequeues it. Transitive propagation is inductive —
/// each poisoned node passes the *same* origin to its own successors when it
/// is retired without running (see `worker::retire_without_run`).
pub(crate) fn complete_into_poison(
    node: &Arc<TaskNode>,
    ready: &mut Vec<Arc<TaskNode>>,
    origin: TaskId,
    dcheck: Option<&crate::dcheck::DcheckState>,
) {
    node.set_state(TaskState::Completed);
    // Same snapshot-before-close ordering as `complete_into`: poisoned
    // completions participate in happens-before like any other (their
    // bodies never ran, so they log no accesses — but their successors
    // still inherit the ordering).
    if let Some(d) = dcheck {
        d.mark_completed(node);
    }
    let mut links = node.links.lock();
    links.completed = true;
    for succ in links.successors.drain(..) {
        if let Some(d) = dcheck {
            d.merge_edge(node, &succ);
        }
        succ.poison_with(origin);
        let prev = succ.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev >= 1);
        if prev == 1 {
            succ.set_state(TaskState::Ready);
            ready.push(succ);
        }
    }
}
// lint: hot-path-end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessKind};
    use crate::region::AllocId;
    use crate::task::{ChildTracker, TaskPriority};
    use proptest::prelude::*;

    fn node_with(accesses: Vec<Access>) -> Arc<TaskNode> {
        Arc::new(TaskNode::build(
            None,
            TaskPriority::default(),
            accesses.into_iter().collect(),
            |_ctx| {},
            ChildTracker::new(),
            crate::task::INLINE_BODY_BYTES,
            &mut false,
        ))
    }

    fn region(alloc: u64, chunk: u32, range: std::ops::Range<usize>) -> Region {
        Region::new(AllocId(alloc), chunk, range)
    }

    fn acc(alloc: u64, chunk: u32, range: std::ops::Range<usize>, kind: AccessKind) -> Access {
        Access::new(region(alloc, chunk, range), kind)
    }

    fn tracker() -> Tracker {
        Tracker::default()
    }

    /// Drain a node as if it executed (without a runtime).
    fn finish(node: &Arc<TaskNode>) -> Vec<Arc<TaskNode>> {
        let mut ready = Vec::new();
        complete_into(node, &mut ready, None);
        ready
    }

    #[test]
    fn raw_dependence_creates_edge() {
        let tr = tracker();
        let producer = node_with(vec![acc(1, 0, 0..100, AccessKind::Output)]);
        let consumer = node_with(vec![acc(1, 0, 0..100, AccessKind::Input)]);

        let r1 = tr.register(&producer, false);
        assert_eq!(r1.edges, 0);
        assert!(finish_registration(&producer));

        let r2 = tr.register(&consumer, false);
        assert_eq!(r2.edges, 1);
        assert!(!finish_registration(&consumer));
        assert_eq!(consumer.task_state(), TaskState::WaitingDeps);

        let ready = finish(&producer);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].id, consumer.id);
        assert_eq!(consumer.task_state(), TaskState::Ready);
    }

    #[test]
    fn war_and_waw_serialise_without_renaming() {
        let tr = tracker();
        let reader = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let writer1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let writer2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);

        tr.register(&reader, false);
        finish_registration(&reader);
        let r_w1 = tr.register(&writer1, false);
        // WAR edge from reader.
        assert_eq!(r_w1.edges, 1);
        finish_registration(&writer1);
        let r_w2 = tr.register(&writer2, false);
        // WAW edge from writer1 only (reader history cleared by writer1).
        assert_eq!(r_w2.edges, 1);
        finish_registration(&writer2);

        assert!(finish(&reader).iter().any(|t| t.id == writer1.id));
        assert!(finish(&writer1).iter().any(|t| t.id == writer2.id));
    }

    #[test]
    fn independent_regions_do_not_serialise() {
        let tr = tracker();
        let a = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let b = node_with(vec![acc(1, 1, 10..20, AccessKind::Output)]);
        let c = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&a, false);
        tr.register(&b, false);
        tr.register(&c, false);
        assert!(finish_registration(&a));
        assert!(finish_registration(&b));
        assert!(finish_registration(&c));
    }

    #[test]
    fn readers_do_not_serialise_with_each_other() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let r1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let r2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        tr.register(&w, false);
        finish_registration(&w);
        let e1 = tr.register(&r1, false);
        let e2 = tr.register(&r2, false);
        assert_eq!(e1.edges, 1);
        assert_eq!(e2.edges, 1);
        finish_registration(&r1);
        finish_registration(&r2);
        let ready = finish(&w);
        assert_eq!(ready.len(), 2, "both readers become ready together");
    }

    #[test]
    fn concurrent_accesses_commute_but_order_against_writers() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let c1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Concurrent)]);
        let c2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Concurrent)]);
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);

        tr.register(&w, false);
        finish_registration(&w);
        let e1 = tr.register(&c1, false);
        let e2 = tr.register(&c2, false);
        assert_eq!(e1.edges, 1, "concurrent waits for plain writer");
        assert_eq!(e2.edges, 1, "concurrent does not wait for other concurrent");
        let er = tr.register(&r, false);
        assert_eq!(er.edges, 3, "reader waits for writer and both accumulators");
        finish_registration(&c1);
        finish_registration(&c2);
        finish_registration(&r);
    }

    #[test]
    fn overlapping_chunk_and_whole_regions_serialise() {
        let tr = tracker();
        // Whole-array write, then chunk write, then whole read.
        let whole_w = node_with(vec![acc(1, 0, 0..100, AccessKind::Output)]);
        let chunk_w = node_with(vec![acc(1, 3, 20..30, AccessKind::Output)]);
        let whole_r = node_with(vec![acc(1, 0, 0..100, AccessKind::Input)]);
        tr.register(&whole_w, false);
        finish_registration(&whole_w);
        let e_chunk = tr.register(&chunk_w, false);
        assert_eq!(e_chunk.edges, 1, "chunk write depends on whole write (WAW)");
        finish_registration(&chunk_w);
        let e_read = tr.register(&whole_r, false);
        assert_eq!(
            e_read.edges, 2,
            "whole read depends on both the whole write and the chunk write"
        );
        finish_registration(&whole_r);
    }

    #[test]
    fn disjoint_chunk_writes_to_same_alloc_run_in_parallel() {
        let tr = tracker();
        let chunks: Vec<_> = (0..8u32)
            .map(|i| {
                node_with(vec![acc(
                    5,
                    i + 1,
                    (i as usize) * 10..(i as usize + 1) * 10,
                    AccessKind::Output,
                )])
            })
            .collect();
        for c in &chunks {
            tr.register(c, false);
            assert!(finish_registration(c), "chunk writes must be independent");
        }
    }

    #[test]
    fn completed_predecessors_do_not_create_edges() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w); // completes before the consumer is spawned
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r, false);
        assert_eq!(reg.edges, 0);
        assert_eq!(reg.predecessors_seen, 1);
        assert!(finish_registration(&r));
    }

    #[test]
    fn retired_predecessors_are_still_seen_until_gc() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w);
        // The retire path replaces the live reference with a tombstone …
        tr.retire(&w);
        let r1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r1, false);
        assert_eq!(reg.edges, 0, "a tombstone can take no edge");
        assert_eq!(
            reg.predecessors_seen, 1,
            "a retired conflicting predecessor still counts as seen"
        );
        finish_registration(&r1);
        finish(&r1);
        tr.retire(&r1);
        // … and garbage collection drops the tombstones.
        tr.garbage_collect();
        let r2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r2, false);
        assert_eq!(reg.predecessors_seen, 0);
        finish_registration(&r2);
    }

    #[test]
    fn retire_is_idempotent_and_skips_access_free_tasks() {
        let tr = tracker();
        let free = node_with(vec![]);
        finish_registration(&free);
        finish(&free);
        tr.retire(&free); // no accesses: nothing to do, must not panic
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w);
        tr.retire(&w);
        tr.retire(&w); // second retire is a no-op
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        assert_eq!(tr.register(&r, false).predecessors_seen, 1);
        finish_registration(&r);
    }

    #[test]
    fn fully_retired_allocations_leave_by_alloc() {
        // Regression test for the retire path: once every task of an
        // allocation has retired and a GC ran, the allocation must be gone
        // from `entries` *and* from the `by_alloc` overlap index — a stale
        // `by_alloc` region id is a leak that also slows every future
        // overlap scan on that allocation.
        let tr = tracker();
        let nodes: Vec<_> = (0..6u64)
            .map(|a| {
                let w = node_with(vec![acc(100 + a, 0, 0..10, AccessKind::Output)]);
                tr.register(&w, false);
                finish_registration(&w);
                w
            })
            .collect();
        let diag = tr.diagnostics();
        assert_eq!(diag.total_regions(), 6);
        assert_eq!(diag.total_allocs(), 6);
        for n in &nodes {
            finish(n);
            tr.retire(n);
        }
        // Tombstones keep the maps populated (deterministic counting) …
        assert_eq!(tr.diagnostics().total_regions(), 6);
        tr.garbage_collect();
        // … and GC must empty both maps.
        let diag = tr.diagnostics();
        assert_eq!(diag.total_regions(), 0, "entries leak after full retire");
        assert_eq!(
            diag.total_allocs(),
            0,
            "by_alloc holds stale region ids after full retire"
        );
    }

    #[test]
    fn writer_clear_plus_gc_cleans_by_alloc_of_superseded_history() {
        let tr = tracker();
        let w1 = node_with(vec![acc(7, 0, 0..10, AccessKind::Output)]);
        tr.register(&w1, false);
        finish_registration(&w1);
        finish(&w1);
        tr.retire(&w1);
        // A later writer generation clears the tombstoned history in place.
        let w2 = node_with(vec![acc(7, 0, 0..10, AccessKind::Output)]);
        tr.register(&w2, false);
        finish_registration(&w2);
        finish(&w2);
        tr.retire(&w2);
        tr.garbage_collect();
        let diag = tr.diagnostics();
        assert_eq!((diag.total_regions(), diag.total_allocs()), (0, 0));
    }

    #[test]
    fn multi_alloc_registration_collects_from_every_allocation() {
        let tr = tracker();
        // A task reading two allocations collects its predecessors from
        // both in one registration, in access-declaration order.
        let w1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let w2 = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&w1, false);
        tr.register(&w2, false);
        finish_registration(&w1);
        finish_registration(&w2);
        let r = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(2, 0, 0..10, AccessKind::Input),
        ]);
        let reg = tr.register(&r, true);
        assert_eq!(reg.edges, 2);
        assert_eq!(reg.edge_list, vec![w1.id, w2.id]);
        assert_eq!(reg.raw_edges, 2);
        assert!(!finish_registration(&r));
        assert!(finish(&w1).is_empty());
        assert_eq!(finish(&w2).len(), 1, "the reader waits for both writers");
        // Retiring the two-allocation reader tombstones both of its refs.
        finish(&r);
        tr.retire(&w1);
        tr.retire(&w2);
        tr.retire(&r);
        tr.garbage_collect();
        let diag = tr.diagnostics();
        assert_eq!((diag.total_regions(), diag.total_allocs()), (0, 0));
    }

    #[test]
    fn blocked_acquisitions_count_as_contention() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        // Single-threaded use never contends.
        tr.register(&w, false);
        finish_registration(&w);
        assert_eq!(tr.contention(), 0);
        assert!(!tr.is_locked());
        let held = tr.state.lock();
        assert!(tr.is_locked());
        std::thread::scope(|scope| {
            let r = scope.spawn(|| {
                let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
                tr.register(&r, false).edges
            });
            // The registering thread counts the contention before it
            // blocks, so the lock can be released once the count moves.
            while tr.contention() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert_eq!(r.join().unwrap(), 1);
        });
        assert_eq!(tr.contention(), 1);
        // Diagnostics and GC sweeps are not counted.
        tr.garbage_collect();
        tr.diagnostics();
        assert_eq!(tr.contention(), 1);
    }

    #[test]
    fn taskwait_on_lists_only_incomplete_tasks() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        tr.register(&w, false);
        finish_registration(&w);
        tr.register(&r, false);
        finish_registration(&r);
        let touching = tr.tasks_touching(&region(1, 9, 0..5));
        assert_eq!(touching.len(), 2);
        finish(&w);
        tr.retire(&w);
        let touching = tr.tasks_touching(&region(1, 9, 0..5));
        assert_eq!(touching.len(), 1);
        assert_eq!(touching[0].id, r.id);
        // A non-overlapping range sees nothing.
        assert!(tr.tasks_touching(&region(1, 9, 50..60)).is_empty());
        assert!(tr.tasks_touching(&region(2, 0, 0..10)).is_empty());
    }

    #[test]
    fn garbage_collect_drops_dead_entries() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let w2 = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        tr.register(&w2, false);
        finish_registration(&w);
        finish_registration(&w2);
        assert_eq!(tr.diagnostics().total_regions(), 2);
        finish(&w);
        tr.garbage_collect();
        assert_eq!(tr.diagnostics().total_regions(), 1);
        finish(&w2);
        tr.garbage_collect();
        assert_eq!(tr.diagnostics().total_regions(), 0);
    }

    #[test]
    fn self_dependence_is_ignored() {
        let tr = tracker();
        // A task that both reads and writes the same region through two
        // accesses must not depend on itself.
        let n = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(1, 0, 0..10, AccessKind::Output),
        ]);
        let reg = tr.register(&n, false);
        assert_eq!(reg.edges, 0);
        assert!(finish_registration(&n));
    }

    #[test]
    fn add_edge_refuses_completed_pred() {
        let a = node_with(vec![]);
        let b = node_with(vec![]);
        finish_registration(&a);
        finish(&a);
        assert!(!add_edge(&a, &b));
        assert!(finish_registration(&b));
    }

    /// Simulate executing every registered task in dependence order and check
    /// liveness: every task eventually becomes ready and runs exactly once.
    fn run_to_completion(nodes: Vec<Arc<TaskNode>>, initially_ready: Vec<Arc<TaskNode>>) {
        use std::collections::VecDeque;
        let mut ready: VecDeque<_> = initially_ready.into();
        let mut executed = 0usize;
        while let Some(n) = ready.pop_front() {
            executed += 1;
            for r in finish(&n) {
                ready.push_back(r);
            }
        }
        assert_eq!(executed, nodes.len(), "every task must execute exactly once");
        for n in &nodes {
            assert!(n.is_completed());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random access patterns over a handful of regions always produce an
        /// acyclic graph in which every task eventually runs (liveness), and
        /// tasks writing the same region are totally ordered.
        #[test]
        fn prop_random_graphs_are_live(
            specs in proptest::collection::vec(
                (0u32..4, prop_oneof![
                    Just(AccessKind::Input),
                    Just(AccessKind::Output),
                    Just(AccessKind::InOut),
                    Just(AccessKind::Concurrent),
                ]),
                1..40,
            ),
        ) {
            let tr = tracker();
            let mut nodes = Vec::new();
            let mut ready = Vec::new();
            for (chunk, kind) in specs {
                let n = node_with(vec![acc(9, chunk, (chunk as usize) * 10..(chunk as usize + 1) * 10, kind)]);
                tr.register(&n, false);
                if finish_registration(&n) {
                    ready.push(n.clone());
                }
                nodes.push(n);
            }
            run_to_completion(nodes, ready);
        }

        /// Multi-access tasks over overlapping regions of several
        /// allocations also stay live.
        #[test]
        fn prop_multi_access_graphs_are_live(
            specs in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..50, 1usize..30, prop_oneof![
                        Just(AccessKind::Input),
                        Just(AccessKind::Output),
                        Just(AccessKind::InOut),
                    ]),
                    1..3,
                ),
                1..25,
            ),
        ) {
            let tr = tracker();
            let mut nodes = Vec::new();
            let mut ready = Vec::new();
            for (i, accesses) in specs.into_iter().enumerate() {
                // Spread tasks over several allocations.
                let alloc = 7 + (i % 3) as u64;
                let accs: Vec<Access> = accesses
                    .into_iter()
                    .enumerate()
                    .map(|(j, (start, len, kind))| acc(alloc, (i * 4 + j) as u32 + 1, start..start + len, kind))
                    .collect();
                let n = node_with(accs);
                tr.register(&n, false);
                if finish_registration(&n) {
                    ready.push(n.clone());
                }
                nodes.push(n);
            }
            run_to_completion(nodes, ready);
        }
    }
}
