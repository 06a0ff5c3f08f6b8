//! Aggregated runtime statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters, updated by workers and the spawn path.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub tasks_spawned: AtomicU64,
    pub tasks_executed: AtomicU64,
    pub tasks_panicked: AtomicU64,
    pub edges_added: AtomicU64,
    pub edges_raw: AtomicU64,
    pub edges_war: AtomicU64,
    pub edges_waw: AtomicU64,
    pub dependences_seen: AtomicU64,
    pub taskwaits: AtomicU64,
    pub taskwait_ons: AtomicU64,
    pub immediately_ready: AtomicU64,
    /// Spawns whose access list spilled past the inline capacity. Only the
    /// rare spill is counted on the hot path; inline hits are derived as
    /// `tasks_spawned - spills` when stats are snapshotted.
    pub access_inline_spills: AtomicU64,
    /// Spawns whose body closure spilled past the node's inline body buffer
    /// (the [`RuntimeConfig::with_inline_body_bytes`](crate::RuntimeConfig::with_inline_body_bytes)
    /// threshold) into a `Box`.
    pub spawn_body_spills: AtomicU64,
    /// Template passes stamped through `Runtime::replay` / `replay_fused`
    /// (a fused super-batch counts each of its iterations).
    pub replay_passes: AtomicU64,
    /// Tasks stamped by template replay, a subset of `tasks_spawned`.
    pub replay_tasks: AtomicU64,
    /// Tasks retired without running because a failing predecessor (panic or
    /// cancellation) poisoned them. Disjoint from `tasks_executed`.
    pub tasks_poisoned: AtomicU64,
    /// Tasks retired without running because their cancel scope was
    /// cancelled before they started. Disjoint from `tasks_executed` and
    /// `tasks_poisoned`.
    pub tasks_cancelled: AtomicU64,
}

impl StatCounters {
    pub(crate) fn add(&self, field: StatField, n: u64) {
        self.counter(field).fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, field: StatField) -> u64 {
        self.counter(field).load(Ordering::Relaxed)
    }

    fn counter(&self, field: StatField) -> &AtomicU64 {
        match field {
            StatField::TasksSpawned => &self.tasks_spawned,
            StatField::TasksExecuted => &self.tasks_executed,
            StatField::TasksPanicked => &self.tasks_panicked,
            StatField::EdgesAdded => &self.edges_added,
            StatField::EdgesRaw => &self.edges_raw,
            StatField::EdgesWar => &self.edges_war,
            StatField::EdgesWaw => &self.edges_waw,
            StatField::DependencesSeen => &self.dependences_seen,
            StatField::Taskwaits => &self.taskwaits,
            StatField::TaskwaitOns => &self.taskwait_ons,
            StatField::ImmediatelyReady => &self.immediately_ready,
            StatField::AccessInlineSpills => &self.access_inline_spills,
            StatField::SpawnBodySpills => &self.spawn_body_spills,
            StatField::ReplayPasses => &self.replay_passes,
            StatField::ReplayTasks => &self.replay_tasks,
            StatField::TasksPoisoned => &self.tasks_poisoned,
            StatField::TasksCancelled => &self.tasks_cancelled,
        }
    }
}

/// Names of the counters tracked by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatField {
    TasksSpawned,
    TasksExecuted,
    TasksPanicked,
    EdgesAdded,
    EdgesRaw,
    EdgesWar,
    EdgesWaw,
    DependencesSeen,
    Taskwaits,
    TaskwaitOns,
    ImmediatelyReady,
    AccessInlineSpills,
    SpawnBodySpills,
    ReplayPasses,
    ReplayTasks,
    TasksPoisoned,
    TasksCancelled,
}

/// A point-in-time snapshot of runtime statistics, obtained from
/// [`Runtime::stats`](crate::Runtime::stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Tasks spawned since the runtime was created.
    pub tasks_spawned: u64,
    /// Tasks that finished executing.
    pub tasks_executed: u64,
    /// Tasks whose body panicked.
    pub tasks_panicked: u64,
    /// Dependence edges inserted into the task graph. Only predecessors
    /// still in flight at registration produce an edge, so this count (and
    /// its RAW/WAR/WAW split) depends on execution timing; use
    /// [`RuntimeStats::dependences_seen`] for a timing-independent count.
    pub edges_added: u64,
    /// Edges carrying a true data flow: the successor reads data the
    /// predecessor wrote, including read-modify-write (`inout` /
    /// `concurrent`) chains. Renaming preserves these.
    pub raw_edges: u64,
    /// Edges that are anti (write-after-read) dependences: an `output`
    /// overwrites data an earlier task reads — false dependences that
    /// automatic renaming removes.
    pub war_edges: u64,
    /// Edges that are output (write-after-write) dependences: an `output`
    /// overwrites data an earlier task wrote, without reading it — false
    /// dependences that automatic renaming removes.
    pub waw_edges: u64,
    /// Conflicting predecessor accesses discovered at registration, whether
    /// or not the predecessor had already completed. Independent of
    /// execution timing (deterministic for a fixed program, until history is
    /// garbage-collected), unlike `edges_added`.
    pub dependences_seen: u64,
    /// Versions allocated by automatic renaming (`output` accesses on
    /// versioned handles), whole-handle and per-chunk combined.
    pub renames: u64,
    /// Renames performed at sub-region granularity — `output` accesses on
    /// chunks of a versioned partition. A subset of
    /// [`RuntimeStats::renames`].
    pub chunk_renames: u64,
    /// Renames that reused pooled storage instead of allocating.
    pub renames_recycled: u64,
    /// `output` accesses that wanted to rename but serialised instead,
    /// either because the rename memory budget was exhausted or because the
    /// handle already had `rename_max_versions` live versions.
    pub rename_fallbacks: u64,
    /// Bytes currently held by renamed versions (live and pooled).
    pub rename_bytes_held: u64,
    /// Tasks that were ready at spawn time (no unresolved dependences).
    pub immediately_ready: u64,
    /// Number of `taskwait` calls.
    pub taskwaits: u64,
    /// Number of `taskwait_on` calls.
    pub taskwait_ons: u64,
    /// Tasks popped from a worker's own deque.
    pub sched_local_pops: u64,
    /// Tasks popped from the global queue.
    pub sched_global_pops: u64,
    /// Tasks stolen from another worker.
    pub sched_steals: u64,
    /// Successor tasks pushed onto the waking worker's deque (locality hits).
    pub sched_local_wakeups: u64,
    /// Successor tasks pushed onto the global queue.
    pub sched_global_wakeups: u64,
    /// Tasks that went through the priority heap.
    pub sched_priority_pops: u64,
    /// Tracker lock acquisitions (registration, completion retirement and
    /// `taskwait on` lookups) that found the lock held by another thread:
    /// the try-lock failed and the caller blocked.
    pub tracker_lock_contention: u64,
    /// Always 0. Counted registrations through the optimistic tracker tier,
    /// which was removed (the tracker is one lock, see [`crate::graph`]);
    /// kept so that readers of the field keep compiling.
    pub tracker_fast_path_hits: u64,
    /// Always 0, like [`RuntimeStats::tracker_fast_path_hits`].
    pub tracker_fast_path_fallbacks: u64,
    /// `output` accesses on versioned handles whose rename was **elided**:
    /// the current version had no in-flight bindings (every earlier bound
    /// task had completed and retired), so the access bound it in place
    /// instead of allocating a fresh version. Disjoint from
    /// [`RuntimeStats::renames`].
    pub renames_elided: u64,
    /// Successor tasks routed to the deque inbox of the worker that last
    /// completed work on the successor's shard
    /// ([`SchedulerPolicy::ShardAffinity`](crate::SchedulerPolicy::ShardAffinity)).
    pub sched_affinity_wakeups: u64,
    /// Steals served from a *preferred* victim inbox — one whose most
    /// recently routed wakeup belongs to a shard the stealing worker itself
    /// recently completed work on, probed before the plain round-robin
    /// steal order ([`SchedulerPolicy::ShardAffinity`](crate::SchedulerPolicy::ShardAffinity)).
    /// A subset of [`RuntimeStats::sched_steals`].
    pub sched_affinity_steals: u64,
    /// Task-node acquisitions served from the runtime's slab free list
    /// instead of the heap (the spawn-side allocation diet; see
    /// [`RuntimeConfig::with_task_recycler`](crate::RuntimeConfig::with_task_recycler)).
    pub task_nodes_recycled: u64,
    /// Task nodes allocated fresh from the heap.
    pub task_nodes_allocated: u64,
    /// Spawned tasks whose declared accesses fit the node's inline access
    /// storage (≤2 accesses — no access-list heap allocation).
    pub access_inline_hits: u64,
    /// Spawned tasks whose access list spilled to the heap (more than 2
    /// declared accesses).
    pub access_inline_spills: u64,
    /// Spawned tasks whose body closure was too large (or too aligned) for
    /// the node's inline body buffer and was boxed instead. Tune with
    /// [`RuntimeConfig::with_inline_body_bytes`](crate::RuntimeConfig::with_inline_body_bytes).
    pub spawn_body_spills: u64,
    /// Template passes stamped through
    /// [`Runtime::replay`](crate::Runtime::replay) /
    /// [`Runtime::replay_fused`](crate::Runtime::replay_fused) (a fused
    /// super-batch counts each of its iterations as one pass).
    pub replay_passes: u64,
    /// Tasks stamped by template replay — a subset of
    /// [`RuntimeStats::tasks_spawned`], which counts them too.
    pub replay_tasks: u64,
    /// Tasks retired without running because a failing predecessor (panic
    /// or cancellation) poisoned them — see the README's "Failure
    /// semantics". Disjoint from [`RuntimeStats::tasks_executed`]; a drained
    /// runtime satisfies `spawned == executed + poisoned + cancelled`.
    pub tasks_poisoned: u64,
    /// Tasks retired without running because their
    /// [`CancelToken`](crate::CancelToken) scope was cancelled before they
    /// started. Disjoint from [`RuntimeStats::tasks_executed`] and
    /// [`RuntimeStats::tasks_poisoned`].
    pub tasks_cancelled: u64,
}

impl RuntimeStats {
    /// Fraction of dependent-task wakeups that stayed on the waking worker
    /// (the locality mechanism the paper credits for `ray-rot`). Returns
    /// `None` when no wakeups happened.
    pub fn locality_hit_rate(&self) -> Option<f64> {
        let total = self.sched_local_wakeups + self.sched_global_wakeups;
        if total == 0 {
            None
        } else {
            Some(self.sched_local_wakeups as f64 / total as f64)
        }
    }

    /// Average number of dependence edges per spawned task.
    pub fn mean_edges_per_task(&self) -> f64 {
        if self.tasks_spawned == 0 {
            0.0
        } else {
            self.edges_added as f64 / self.tasks_spawned as f64
        }
    }

    /// Fraction of added graph edges that are false (WAR + WAW)
    /// dependences — overwrites that do not read the data they replace, the
    /// serialisation automatic renaming targets. `None` when no edges were
    /// added.
    pub fn false_dependence_fraction(&self) -> Option<f64> {
        if self.edges_added == 0 {
            None
        } else {
            Some((self.war_edges + self.waw_edges) as f64 / self.edges_added as f64)
        }
    }

    /// Tasks still in flight (spawned but not yet executed, poisoned or
    /// cancelled).
    pub fn tasks_in_flight(&self) -> u64 {
        self.tasks_spawned
            .saturating_sub(self.tasks_executed)
            .saturating_sub(self.tasks_poisoned)
            .saturating_sub(self.tasks_cancelled)
    }

    /// Fold another runtime's snapshot into this one — the aggregation a
    /// multi-runtime pool (one tenant of the service frontend, say) uses to
    /// report a single per-tenant figure. Every counter is summed, and so are
    /// the worker counts.
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.workers += other.workers;
        self.tasks_spawned += other.tasks_spawned;
        self.tasks_executed += other.tasks_executed;
        self.tasks_panicked += other.tasks_panicked;
        self.edges_added += other.edges_added;
        self.raw_edges += other.raw_edges;
        self.war_edges += other.war_edges;
        self.waw_edges += other.waw_edges;
        self.dependences_seen += other.dependences_seen;
        self.renames += other.renames;
        self.chunk_renames += other.chunk_renames;
        self.renames_recycled += other.renames_recycled;
        self.rename_fallbacks += other.rename_fallbacks;
        self.renames_elided += other.renames_elided;
        self.rename_bytes_held += other.rename_bytes_held;
        self.immediately_ready += other.immediately_ready;
        self.taskwaits += other.taskwaits;
        self.taskwait_ons += other.taskwait_ons;
        self.sched_local_pops += other.sched_local_pops;
        self.sched_global_pops += other.sched_global_pops;
        self.sched_steals += other.sched_steals;
        self.sched_local_wakeups += other.sched_local_wakeups;
        self.sched_global_wakeups += other.sched_global_wakeups;
        self.sched_priority_pops += other.sched_priority_pops;
        self.sched_affinity_wakeups += other.sched_affinity_wakeups;
        self.sched_affinity_steals += other.sched_affinity_steals;
        self.task_nodes_recycled += other.task_nodes_recycled;
        self.task_nodes_allocated += other.task_nodes_allocated;
        self.access_inline_hits += other.access_inline_hits;
        self.access_inline_spills += other.access_inline_spills;
        self.spawn_body_spills += other.spawn_body_spills;
        self.replay_passes += other.replay_passes;
        self.replay_tasks += other.replay_tasks;
        self.tasks_poisoned += other.tasks_poisoned;
        self.tasks_cancelled += other.tasks_cancelled;
        self.tracker_lock_contention += other.tracker_lock_contention;
        self.tracker_fast_path_hits += other.tracker_fast_path_hits;
        self.tracker_fast_path_fallbacks += other.tracker_fast_path_fallbacks;
    }

    /// Fraction of task-node acquisitions served from the slab free list —
    /// the recycler hit rate the allocation diet drives toward 1 in steady
    /// state. `None` before the first spawn.
    pub fn task_recycle_rate(&self) -> Option<f64> {
        let total = self.task_nodes_recycled + self.task_nodes_allocated;
        if total == 0 {
            None
        } else {
            Some(self.task_nodes_recycled as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_get() {
        let c = StatCounters::default();
        c.add(StatField::TasksSpawned, 3);
        c.add(StatField::TasksSpawned, 2);
        c.add(StatField::EdgesAdded, 7);
        assert_eq!(c.get(StatField::TasksSpawned), 5);
        assert_eq!(c.get(StatField::EdgesAdded), 7);
        assert_eq!(c.get(StatField::TasksExecuted), 0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = RuntimeStats {
            workers: 2,
            tasks_spawned: 10,
            replay_passes: 3,
            tracker_lock_contention: 4,
            ..Default::default()
        };
        let b = RuntimeStats {
            workers: 1,
            tasks_spawned: 5,
            replay_passes: 1,
            tracker_lock_contention: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.workers, 3);
        assert_eq!(a.tasks_spawned, 15);
        assert_eq!(a.replay_passes, 4);
        assert_eq!(a.tracker_lock_contention, 5);
    }

    #[test]
    fn locality_hit_rate() {
        let mut s = RuntimeStats::default();
        assert_eq!(s.locality_hit_rate(), None);
        s.sched_local_wakeups = 3;
        s.sched_global_wakeups = 1;
        assert!((s.locality_hit_rate().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn derived_metrics() {
        let s = RuntimeStats {
            tasks_spawned: 10,
            tasks_executed: 7,
            edges_added: 25,
            ..Default::default()
        };
        assert_eq!(s.tasks_in_flight(), 3);
        assert!((s.mean_edges_per_task() - 2.5).abs() < 1e-12);
        let empty = RuntimeStats::default();
        assert_eq!(empty.mean_edges_per_task(), 0.0);
        assert_eq!(empty.tasks_in_flight(), 0);
    }
}
