//! Ready-task scheduling policies.
//!
//! Once the dependence graph marks a task *ready* it is handed to the
//! scheduler. The policy determines **where** ready tasks are queued and
//! therefore which worker picks them up:
//!
//! * [`SchedulerPolicy::Fifo`] — one global FIFO queue (breadth-first).
//! * [`SchedulerPolicy::Lifo`] — one global LIFO stack (depth-first).
//! * [`SchedulerPolicy::WorkStealing`] — per-worker deques with stealing;
//!   successor tasks woken by a completing task are pushed to the *global*
//!   queue (no locality preference).
//! * [`SchedulerPolicy::LocalityWorkStealing`] — like `WorkStealing`, but a
//!   successor woken by a completing task is pushed onto the completing
//!   worker's own deque and is typically executed next, back-to-back with its
//!   producer. This is the behaviour the paper credits for the `ray-rot`
//!   speedups ("the runtime scheduler places dependent tasks on the same
//!   core", Section 4) and it is the default.
//! * [`SchedulerPolicy::ShardAffinity`] — like `LocalityWorkStealing`, but
//!   when the completing worker is *not* the last worker to have completed
//!   work on the woken task's *shard*, the successor is routed to that
//!   worker's **inbox** instead. A task's shard is the allocation id of its
//!   first access modulo `2 × workers`, a cheap locality key (allocations
//!   — and renamed versions — map to shards round-robin): the worker that
//!   last retired a task on a shard probably still holds that allocation's
//!   data warm, and biasing wakeups toward it pairs data locality with the
//!   locality wakeup path (what Nanos++ does with socket-aware wakeups).
//!
//! Independently of the policy, tasks with a non-zero priority go to a global
//! priority heap that every worker checks first (the OmpSs `priority`
//! clause).

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

use crate::region::AllocId;
use crate::task::TaskNode;

/// Scheduling policy for ready tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Single global FIFO queue.
    Fifo,
    /// Single global LIFO stack.
    Lifo,
    /// Per-worker deques + work stealing, no locality hint for wakeups.
    WorkStealing,
    /// Per-worker deques + work stealing; dependent (woken) tasks are placed
    /// on the waking worker's deque for producer→consumer cache locality.
    #[default]
    LocalityWorkStealing,
    /// `LocalityWorkStealing` plus shard-aware placement: a woken task whose
    /// shard (allocation bucket) was last worked on by a *different* worker
    /// is routed to that worker's inbox (see the module docs).
    ShardAffinity,
}

/// What idle workers do while no task is ready.
///
/// It governs the pool's worker threads only. A thread waiting in
/// `taskwait`, `taskwait_on`, `barrier` or `fetch` runs ready tasks itself,
/// as the Nanos++ master thread does at a `taskwait`, and spins (with
/// `yield_now` backoff) whenever none is ready, under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdlePolicy {
    /// Spin (with `yield_now` backoff). This is what the Nanos++ runtime of
    /// the paper does: "all used cores are always fully loaded even if there
    /// is insufficient work".
    #[default]
    Polling,
    /// Block on a condition variable until work is pushed. Cheaper for the
    /// system, slower to react — used by the barrier ablation experiment.
    Blocking,
}

/// Scheduler statistics counters (all monotonically increasing).
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Tasks popped from the worker's own deque.
    pub local_pops: AtomicU64,
    /// Tasks obtained from the global injector / queue.
    pub global_pops: AtomicU64,
    /// Tasks stolen from another worker's deque.
    pub steals: AtomicU64,
    /// Wakeups pushed to a local deque (locality hits at scheduling time).
    pub local_wakeups: AtomicU64,
    /// Wakeups pushed to the global queue.
    pub global_wakeups: AtomicU64,
    /// Wakeups routed to another worker's inbox because that worker last
    /// completed work on the woken task's shard
    /// ([`SchedulerPolicy::ShardAffinity`]).
    pub affinity_wakeups: AtomicU64,
    /// Steals served from a *preferred* victim inbox: one whose most
    /// recently routed work belongs to a shard the stealing worker itself
    /// recently completed work on ([`SchedulerPolicy::ShardAffinity`]).
    pub affinity_steals: AtomicU64,
    /// Tasks scheduled through the priority heap.
    pub priority_pops: AtomicU64,
}

struct PrioEntry {
    priority: i32,
    seq: u64,
    node: Arc<TaskNode>,
}

impl PartialEq for PrioEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for PrioEntry {}
impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher priority first; for equal priorities, earlier submissions
        // first (smaller seq => greater in the max-heap).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The shared scheduler state.
pub(crate) struct SchedState {
    policy: SchedulerPolicy,
    idle: IdlePolicy,
    injector: Injector<Arc<TaskNode>>,
    lifo: Mutex<Vec<Arc<TaskNode>>>,
    prio: Mutex<BinaryHeap<PrioEntry>>,
    stealers: Vec<Stealer<Arc<TaskNode>>>,
    /// One MPMC inbox per worker: [`SchedulerPolicy::ShardAffinity`] routes
    /// cross-worker wakeups here (a worker's deque can only be pushed by its
    /// owner). Each worker drains its own inbox right after its deque; idle
    /// workers steal from other inboxes last, so routed work never strands.
    inboxes: Vec<Injector<Arc<TaskNode>>>,
    /// Last worker to complete a task on each shard (relaxed;
    /// `usize::MAX` = never). Indexed by shard id; `2 × workers` entries.
    shard_homes: Box<[AtomicUsize]>,
    /// Per worker: the shard of the task it most recently completed
    /// (`usize::MAX` = none yet). The thief-side half of the affinity
    /// signal: an idle worker prefers stealing inbox work tagged with its
    /// own recent shard.
    recent_shard: Box<[AtomicUsize]>,
    /// Per worker inbox: the shard of the wakeup most recently routed to it
    /// (`usize::MAX` = never). A cheap single-slot tag — enough to bias the
    /// steal order without inspecting queue contents.
    inbox_last_shard: Box<[AtomicUsize]>,
    prio_seq: AtomicU64,
    /// Number of ready-but-not-yet-executing tasks.
    ready_count: AtomicUsize,
    /// Number of workers currently parked in [`SchedState::idle_wait`]
    /// (always zero under [`IdlePolicy::Polling`]). Pushers consult it
    /// *before* touching `sleep_lock`, so the spawn/replay hot path pays no
    /// mutex round-trip while every worker is busy. The store-buffer race
    /// (pusher misses a just-parking sleeper) is closed by `SeqCst` on both
    /// sides: if the pusher reads no sleepers, the parking worker's
    /// ready-count re-check under the lock sees the pushed work and skips
    /// the wait.
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    /// Counters for statistics.
    pub(crate) counters: SchedCounters,
}

impl SchedState {
    /// Create scheduler state for `stealers.len()` workers.
    pub(crate) fn new(
        policy: SchedulerPolicy,
        idle: IdlePolicy,
        stealers: Vec<Stealer<Arc<TaskNode>>>,
    ) -> Self {
        let workers = stealers.len();
        SchedState {
            policy,
            idle,
            injector: Injector::new(),
            lifo: Mutex::new(Vec::new()),
            prio: Mutex::new(BinaryHeap::new()),
            stealers,
            inboxes: (0..workers).map(|_| Injector::new()).collect(),
            shard_homes: (0..2 * workers.max(1))
                .map(|_| AtomicUsize::new(usize::MAX))
                .collect(),
            recent_shard: (0..workers).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            inbox_last_shard: (0..workers).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            prio_seq: AtomicU64::new(0),
            ready_count: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            counters: SchedCounters::default(),
        }
    }

    /// The [`SchedulerPolicy::ShardAffinity`] locality key of an allocation:
    /// its id modulo `2 × workers`.
    pub(crate) fn shard_of(&self, alloc: AllocId) -> usize {
        (alloc.raw() % self.shard_homes.len() as u64) as usize
    }

    /// Record that `worker` just completed a task whose dominant allocation
    /// lives on shard `shard` (the shard-affinity locality key, on
    /// both sides: the shard remembers its home worker for wakeup routing,
    /// and the worker remembers its recent shard for steal preference).
    pub(crate) fn note_shard_completion(&self, shard: usize, worker: usize) {
        if let Some(home) = self.shard_homes.get(shard) {
            home.store(worker, Ordering::Relaxed);
        }
        if let Some(recent) = self.recent_shard.get(worker) {
            recent.store(shard, Ordering::Relaxed);
        }
    }

    /// The configured policy (diagnostics; exercised by unit tests).
    #[allow(dead_code)]
    pub(crate) fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// The configured idle behaviour (diagnostics; exercised by unit tests).
    #[allow(dead_code)]
    pub(crate) fn idle_policy(&self) -> IdlePolicy {
        self.idle
    }

    /// Number of ready tasks currently queued (diagnostics; exercised by
    /// unit tests).
    #[allow(dead_code)]
    pub(crate) fn ready_tasks(&self) -> usize {
        self.ready_count.load(Ordering::SeqCst)
    }

    fn note_push(&self) {
        self.ready_count.fetch_add(1, Ordering::SeqCst);
        if self.idle == IdlePolicy::Blocking && self.sleepers.load(Ordering::SeqCst) != 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_one();
        }
    }

    fn note_pop(&self) {
        self.ready_count.fetch_sub(1, Ordering::SeqCst);
    }

    fn push_priority(&self, node: Arc<TaskNode>) {
        let seq = self.prio_seq.fetch_add(1, Ordering::Relaxed);
        self.prio.lock().push(PrioEntry {
            priority: node.priority.0,
            seq,
            node,
        });
    }

    /// Queue a freshly spawned (already ready) task. `local` is the deque of
    /// the worker doing the spawning, when spawning from inside a task.
    pub(crate) fn push_spawn(&self, node: Arc<TaskNode>, local: Option<&WorkerDeque<Arc<TaskNode>>>) {
        self.note_push();
        if node.priority.0 != 0 {
            self.push_priority(node);
            return;
        }
        match self.policy {
            SchedulerPolicy::Fifo => self.injector.push(node),
            SchedulerPolicy::Lifo => self.lifo.lock().push(node),
            SchedulerPolicy::WorkStealing
            | SchedulerPolicy::LocalityWorkStealing
            | SchedulerPolicy::ShardAffinity => match local {
                Some(dq) => dq.push(node),
                None => self.injector.push(node),
            },
        }
    }

    /// Queue a whole batch of freshly stamped, already-ready tasks (the
    /// roots of a template replay) with batched bookkeeping: one
    /// `ready_count` bump for the whole batch and — under
    /// [`IdlePolicy::Blocking`] — a single `notify_all` after every node is
    /// queued, instead of a lock/notify round trip per task. The buffer is
    /// drained in place so its capacity stays with the caller's reusable
    /// replay scratch. Replays run from non-worker threads, so there is no
    /// local deque: non-priority nodes go to the shared injector (or the
    /// LIFO stack under [`SchedulerPolicy::Lifo`]).
    pub(crate) fn push_spawn_batch(&self, nodes: &mut Vec<Arc<TaskNode>>) {
        if nodes.is_empty() {
            return;
        }
        self.ready_count.fetch_add(nodes.len(), Ordering::SeqCst);
        for node in nodes.drain(..) {
            if node.priority.0 != 0 {
                self.push_priority(node);
                continue;
            }
            match self.policy {
                SchedulerPolicy::Lifo => self.lifo.lock().push(node),
                SchedulerPolicy::Fifo
                | SchedulerPolicy::WorkStealing
                | SchedulerPolicy::LocalityWorkStealing
                | SchedulerPolicy::ShardAffinity => self.injector.push(node),
            }
        }
        if self.idle == IdlePolicy::Blocking && self.sleepers.load(Ordering::SeqCst) != 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_all();
        }
    }

    /// Queue a task that became ready because one of its predecessors
    /// completed. `local` is the deque (and `worker` the index) of the
    /// worker that completed the predecessor; `shard` is the woken task's
    /// dominant shard, used by [`SchedulerPolicy::ShardAffinity`].
    pub(crate) fn push_wakeup(
        &self,
        node: Arc<TaskNode>,
        local: Option<&WorkerDeque<Arc<TaskNode>>>,
        worker: Option<usize>,
        shard: Option<usize>,
    ) {
        self.note_push();
        if node.priority.0 != 0 {
            self.push_priority(node);
            return;
        }
        match self.policy {
            SchedulerPolicy::Fifo => {
                self.counters.global_wakeups.fetch_add(1, Ordering::Relaxed);
                self.injector.push(node);
            }
            SchedulerPolicy::Lifo => {
                self.counters.global_wakeups.fetch_add(1, Ordering::Relaxed);
                self.lifo.lock().push(node);
            }
            SchedulerPolicy::WorkStealing => {
                self.counters.global_wakeups.fetch_add(1, Ordering::Relaxed);
                self.injector.push(node);
            }
            SchedulerPolicy::LocalityWorkStealing => match local {
                Some(dq) => {
                    self.counters.local_wakeups.fetch_add(1, Ordering::Relaxed);
                    dq.push(node);
                }
                None => {
                    self.counters.global_wakeups.fetch_add(1, Ordering::Relaxed);
                    self.injector.push(node);
                }
            },
            SchedulerPolicy::ShardAffinity => {
                // Bias toward the worker that last completed work on the
                // woken task's shard; when that is the completing worker (or
                // unknown) keep the plain producer→consumer locality push.
                let home = shard
                    .and_then(|s| self.shard_homes.get(s))
                    .map(|h| h.load(Ordering::Relaxed))
                    .filter(|&h| h < self.inboxes.len());
                match (home, worker, local) {
                    // The shard's home is another worker — or the waker is a
                    // helper thread with no deque of its own: route to the
                    // home worker's inbox, tagging it with the shard so
                    // affinity-aware thieves can find the work.
                    (Some(h), w, _) if w != Some(h) => {
                        self.counters.affinity_wakeups.fetch_add(1, Ordering::Relaxed);
                        if let (Some(s), Some(tag)) = (shard, self.inbox_last_shard.get(h)) {
                            tag.store(s, Ordering::Relaxed);
                        }
                        self.inboxes[h].push(node);
                    }
                    (_, _, Some(dq)) => {
                        self.counters.local_wakeups.fetch_add(1, Ordering::Relaxed);
                        dq.push(node);
                    }
                    (_, _, None) => {
                        self.counters.global_wakeups.fetch_add(1, Ordering::Relaxed);
                        self.injector.push(node);
                    }
                }
            }
        }
    }

    /// Try to obtain a ready task for worker `worker_id`. `local` is the
    /// worker's own deque when called from a worker loop; helpers (nested
    /// `taskwait`, the main thread) pass `None`.
    pub(crate) fn pop(
        &self,
        worker_id: usize,
        local: Option<&WorkerDeque<Arc<TaskNode>>>,
    ) -> Option<Arc<TaskNode>> {
        // 1. Priority heap first.
        {
            let mut heap = self.prio.lock();
            if let Some(entry) = heap.pop() {
                drop(heap);
                self.counters.priority_pops.fetch_add(1, Ordering::Relaxed);
                self.note_pop();
                return Some(entry.node);
            }
        }
        // 2. Own inbox (shard-affinity routed wakeups), then own deque. Only
        // the ShardAffinity policy ever pushes to an inbox, so the other
        // policies skip the probe entirely (this is the dispatch hot path).
        let affinity = self.policy == SchedulerPolicy::ShardAffinity;
        if affinity && local.is_some() {
            if let Some(inbox) = self.inboxes.get(worker_id) {
                loop {
                    match inbox.steal() {
                        Steal::Success(node) => {
                            self.counters.local_pops.fetch_add(1, Ordering::Relaxed);
                            self.note_pop();
                            return Some(node);
                        }
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
            }
        }
        if let Some(dq) = local {
            if let Some(node) = dq.pop() {
                self.counters.local_pops.fetch_add(1, Ordering::Relaxed);
                self.note_pop();
                return Some(node);
            }
        }
        // 3. Global queue.
        match self.policy {
            SchedulerPolicy::Lifo => {
                if let Some(node) = self.lifo.lock().pop() {
                    self.counters.global_pops.fetch_add(1, Ordering::Relaxed);
                    self.note_pop();
                    return Some(node);
                }
            }
            _ => loop {
                match self.injector.steal() {
                    Steal::Success(node) => {
                        self.counters.global_pops.fetch_add(1, Ordering::Relaxed);
                        self.note_pop();
                        return Some(node);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            },
        }
        // 4. Steal from another worker. Under shard affinity, first probe
        // *preferred* inboxes — victims whose most recently routed wakeup
        // belongs to the shard this worker itself last completed work on
        // (the data is warm here; plain round-robin would discard the
        // affinity signal exactly when it matters, at steal time). Then the
        // usual round-robin over deques, then the remaining inboxes (so
        // shard-affinity-routed work never strands on a busy worker).
        let n = self.stealers.len();
        if n > 0 {
            if affinity {
                let recent = self
                    .recent_shard
                    .get(worker_id)
                    .map(|r| r.load(Ordering::Relaxed))
                    .unwrap_or(usize::MAX);
                if recent != usize::MAX {
                    for offset in 1..=n {
                        let victim = (worker_id + offset) % n;
                        if victim == worker_id
                            || self.inbox_last_shard[victim].load(Ordering::Relaxed) != recent
                        {
                            continue;
                        }
                        loop {
                            match self.inboxes[victim].steal() {
                                Steal::Success(node) => {
                                    self.counters.affinity_steals.fetch_add(1, Ordering::Relaxed);
                                    self.counters.steals.fetch_add(1, Ordering::Relaxed);
                                    self.note_pop();
                                    return Some(node);
                                }
                                Steal::Empty => {
                                    // Drop the stale tag (only if it is
                                    // still the one we matched — a racing
                                    // router may have re-tagged the inbox),
                                    // so idle spins stop probing an empty
                                    // inbox ahead of the deque sweep.
                                    let _ = self.inbox_last_shard[victim].compare_exchange(
                                        recent,
                                        usize::MAX,
                                        Ordering::Relaxed,
                                        Ordering::Relaxed,
                                    );
                                    break;
                                }
                                Steal::Retry => continue,
                            }
                        }
                    }
                }
            }
            for offset in 1..=n {
                let victim = (worker_id + offset) % n;
                if victim == worker_id && local.is_some() {
                    continue;
                }
                loop {
                    match self.stealers[victim].steal() {
                        Steal::Success(node) => {
                            self.counters.steals.fetch_add(1, Ordering::Relaxed);
                            self.note_pop();
                            return Some(node);
                        }
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
            }
            if affinity {
                for offset in 1..=n {
                    let victim = (worker_id + offset) % n;
                    if victim == worker_id && local.is_some() {
                        continue;
                    }
                    loop {
                        match self.inboxes[victim].steal() {
                            Steal::Success(node) => {
                                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                                self.note_pop();
                                return Some(node);
                            }
                            Steal::Empty => break,
                            Steal::Retry => continue,
                        }
                    }
                }
            }
        }
        None
    }

    /// Called by an idle worker after `pop` returned `None`. Under
    /// [`IdlePolicy::Polling`] this spins briefly; under
    /// [`IdlePolicy::Blocking`] it parks until new work is pushed (or a
    /// short timeout elapses so shutdown is always noticed).
    pub(crate) fn idle_wait(&self) {
        match self.idle {
            IdlePolicy::Polling => {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
            IdlePolicy::Blocking => {
                let mut guard = self.sleep_lock.lock();
                // Announce the park *before* re-checking for work (see the
                // `sleepers` field docs); the short timeout bounds any
                // missed wakeup and keeps shutdown responsive.
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                if self.ready_count.load(Ordering::SeqCst) == 0 {
                    self.sleep_cv
                        .wait_for(&mut guard, Duration::from_millis(1));
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Wake every parked worker (used at shutdown).
    pub(crate) fn wake_all(&self) {
        let _g = self.sleep_lock.lock();
        self.sleep_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessVec;
    use crate::task::{ChildTracker, TaskPriority};

    fn node(priority: i32) -> Arc<TaskNode> {
        Arc::new(TaskNode::build(
            None,
            TaskPriority(priority),
            AccessVec::new(),
            |_| {},
            ChildTracker::new(),
            crate::task::INLINE_BODY_BYTES,
            &mut false,
        ))
    }

    fn sched(policy: SchedulerPolicy, workers: usize) -> (SchedState, Vec<WorkerDeque<Arc<TaskNode>>>) {
        let deques: Vec<WorkerDeque<Arc<TaskNode>>> =
            (0..workers).map(|_| WorkerDeque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        (
            SchedState::new(policy, IdlePolicy::Polling, stealers),
            deques,
        )
    }

    #[test]
    fn fifo_policy_preserves_order() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (a, b, c) = (node(0), node(0), node(0));
        s.push_spawn(a.clone(), None);
        s.push_spawn(b.clone(), None);
        s.push_wakeup(c.clone(), None, None, None);
        assert_eq!(s.ready_tasks(), 3);
        assert_eq!(s.pop(0, None).unwrap().id, a.id);
        assert_eq!(s.pop(0, None).unwrap().id, b.id);
        assert_eq!(s.pop(0, None).unwrap().id, c.id);
        assert!(s.pop(0, None).is_none());
        assert_eq!(s.ready_tasks(), 0);
    }

    #[test]
    fn lifo_policy_reverses_order() {
        let (s, _d) = sched(SchedulerPolicy::Lifo, 1);
        let (a, b) = (node(0), node(0));
        s.push_spawn(a.clone(), None);
        s.push_spawn(b.clone(), None);
        assert_eq!(s.pop(0, None).unwrap().id, b.id);
        assert_eq!(s.pop(0, None).unwrap().id, a.id);
    }

    #[test]
    fn priority_tasks_jump_the_queue() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (a, hi, b) = (node(0), node(5), node(0));
        s.push_spawn(a.clone(), None);
        s.push_spawn(hi.clone(), None);
        s.push_spawn(b.clone(), None);
        assert_eq!(s.pop(0, None).unwrap().id, hi.id);
        assert_eq!(s.pop(0, None).unwrap().id, a.id);
        assert_eq!(s.pop(0, None).unwrap().id, b.id);
    }

    #[test]
    fn equal_priority_is_fifo_among_priority_tasks() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (p1, p2) = (node(3), node(3));
        s.push_spawn(p1.clone(), None);
        s.push_spawn(p2.clone(), None);
        assert_eq!(s.pop(0, None).unwrap().id, p1.id);
        assert_eq!(s.pop(0, None).unwrap().id, p2.id);
    }

    #[test]
    fn locality_wakeups_go_to_local_deque() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        s.push_wakeup(w.clone(), Some(&deques[0]), Some(0), None);
        assert_eq!(s.counters.local_wakeups.load(Ordering::Relaxed), 1);
        // Worker 0 finds it in its own deque.
        let got = s.pop(0, Some(&deques[0])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.local_pops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn plain_work_stealing_wakeups_go_global() {
        let (s, deques) = sched(SchedulerPolicy::WorkStealing, 2);
        let w = node(0);
        s.push_wakeup(w.clone(), Some(&deques[0]), Some(0), None);
        assert_eq!(s.counters.global_wakeups.load(Ordering::Relaxed), 1);
        // Worker 1 can grab it from the injector without stealing.
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
    }

    #[test]
    fn shard_affinity_routes_wakeups_to_the_shard_home() {
        let (s, deques) = sched(SchedulerPolicy::ShardAffinity, 2);
        // Worker 1 last completed work on shard 3.
        s.note_shard_completion(3, 1);
        let w = node(0);
        // Worker 0 completes the predecessor: the wakeup goes to worker 1's
        // inbox, not worker 0's deque.
        s.push_wakeup(w.clone(), Some(&deques[0]), Some(0), Some(3));
        assert_eq!(s.counters.affinity_wakeups.load(Ordering::Relaxed), 1);
        assert_eq!(s.counters.local_wakeups.load(Ordering::Relaxed), 0);
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.local_pops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shard_affinity_keeps_local_push_when_home_matches_or_is_unknown() {
        let (s, deques) = sched(SchedulerPolicy::ShardAffinity, 2);
        // Unknown home: plain locality push onto the waking worker's deque.
        let a = node(0);
        s.push_wakeup(a.clone(), Some(&deques[0]), Some(0), Some(2));
        assert_eq!(s.counters.local_wakeups.load(Ordering::Relaxed), 1);
        assert_eq!(s.pop(0, Some(&deques[0])).unwrap().id, a.id);
        // Home == waking worker: also a local push.
        s.note_shard_completion(2, 0);
        let b = node(0);
        s.push_wakeup(b.clone(), Some(&deques[0]), Some(0), Some(2));
        assert_eq!(s.counters.local_wakeups.load(Ordering::Relaxed), 2);
        assert_eq!(s.counters.affinity_wakeups.load(Ordering::Relaxed), 0);
        assert_eq!(s.pop(0, Some(&deques[0])).unwrap().id, b.id);
    }

    #[test]
    fn thief_prefers_inboxes_holding_its_recent_shard() {
        let (s, deques) = sched(SchedulerPolicy::ShardAffinity, 3);
        // Worker 0 once completed shard-3 work; shard 3's home then moved to
        // worker 1 (it completed shard 3 last), so a shard-3 wakeup from
        // worker 2 is routed to worker 1's inbox.
        s.note_shard_completion(3, 0);
        s.note_shard_completion(3, 1);
        let w = node(0);
        s.push_wakeup(w.clone(), Some(&deques[2]), Some(2), Some(3));
        assert_eq!(s.counters.affinity_wakeups.load(Ordering::Relaxed), 1);
        // Worker 0 is idle: its recent shard (3) matches worker 1's inbox
        // tag, so the steal comes from the preferred inbox — before any
        // round-robin deque steal — and is counted.
        let got = s.pop(0, Some(&deques[0])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.affinity_steals.load(Ordering::Relaxed), 1);
        assert_eq!(s.counters.steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn thief_without_matching_recent_shard_steals_round_robin() {
        let (s, deques) = sched(SchedulerPolicy::ShardAffinity, 2);
        s.note_shard_completion(1, 1);
        let w = node(0);
        // Routed to worker 1's inbox with tag 1; worker 0 never completed
        // anything, so no preferred probe happens — the last-resort inbox
        // steal still finds the task, but the affinity-steal counter stays 0.
        s.push_wakeup(w.clone(), Some(&deques[0]), Some(0), Some(1));
        let got = s.pop(0, Some(&deques[0])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.affinity_steals.load(Ordering::Relaxed), 0);
        assert_eq!(s.counters.steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn idle_worker_steals_from_a_busy_workers_inbox() {
        let (s, deques) = sched(SchedulerPolicy::ShardAffinity, 2);
        s.note_shard_completion(1, 0);
        let w = node(0);
        // Routed to worker 0's inbox, but worker 0 never polls: worker 1
        // must still find it (last-resort inbox steal).
        s.push_wakeup(w.clone(), Some(&deques[1]), Some(1), Some(1));
        assert_eq!(s.counters.affinity_wakeups.load(Ordering::Relaxed), 1);
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stealing_from_other_worker() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        // Task sits in worker 0's deque; worker 1 must steal it.
        s.push_spawn(w.clone(), Some(&deques[0]));
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn helper_without_local_deque_can_still_pop() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 1);
        let w = node(0);
        s.push_spawn(w.clone(), Some(&deques[0]));
        // A helper (None local) steals from worker 0.
        let got = s.pop(0, None).unwrap();
        assert_eq!(got.id, w.id);
    }

    #[test]
    fn idle_wait_polling_returns_quickly() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let start = std::time::Instant::now();
        s.idle_wait();
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn idle_wait_blocking_wakes_on_push() {
        let deques: Vec<WorkerDeque<Arc<TaskNode>>> = vec![WorkerDeque::new_lifo()];
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let s = Arc::new(SchedState::new(
            SchedulerPolicy::Fifo,
            IdlePolicy::Blocking,
            stealers,
        ));
        let s2 = s.clone();
        let handle = std::thread::spawn(move || {
            // Either wakes on notify or on the internal timeout; both fine.
            s2.idle_wait();
        });
        std::thread::sleep(Duration::from_millis(2));
        s.push_spawn(node(0), None);
        s.wake_all();
        handle.join().unwrap();
        assert_eq!(s.ready_tasks(), 1);
    }
}
