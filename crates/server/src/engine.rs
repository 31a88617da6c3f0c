//! The concurrent execution engine: a supervised fixed-size worker pool
//! fed through a bounded queue, fronted by the solution cache and the
//! metrics, with admission control for interactive callers.
//!
//! # Completion
//!
//! [`Engine::submit`] is the engine's one request path, and it never
//! blocks. A cache hit, a full queue and a shutting-down engine are
//! answered inline; anything else is queued together with its completion
//! callback. The worker that finishes the task does all the
//! after-the-fact work itself — the wrong-net integrity check, a retry
//! or failure after a death, the outcome metrics, the cache insert and
//! the sampled re-audit — and then calls the completion. Each request
//! gets exactly one answer: a shared once-flag (the [`Ticket`]) decides
//! whether the worker or a deadline expiry delivers it. The blocking
//! entry points ([`Engine::optimize`], [`Engine::try_optimize`],
//! [`Engine::run_jobs`]) are thin wrappers that wait on their own
//! completions.
//!
//! # Determinism
//!
//! [`Engine::run_jobs`] tags every job with its input index, lets workers
//! complete in whatever order the scheduler produces, and reassembles the
//! records by index — so a parallel batch emits records in exactly the
//! input order, and the content of each record is independent of which
//! worker computed it (per-net optimization is single-threaded and
//! deterministic). The only field that varies between runs is the
//! measured `wall_ms`, exactly as it already does between two serial
//! runs.
//!
//! # Supervision
//!
//! Per-net panics are contained inside the worker's panic boundary and
//! become `failed` records. A worker that dies *outside* that boundary
//! (a panic in the dequeue/bookkeeping path, or an injected
//! [`FaultAction::KillWorker`]) is detected immediately: every dequeued
//! task is held by a drop guard that, if the worker unwinds or exits
//! without completing it, decrements the live-worker count, joins dead
//! threads and spawns a replacement (counting the death and the respawn
//! in the metrics), and retries the request up to
//! [`EngineOptions::max_retries`] times before failing **only that
//! request**. A completed record whose net name does not match the
//! submitted job is treated the same way (a corrupt worker is a dead
//! worker as far as the caller is concerned). Retries re-enter the queue
//! through a lane that bypasses the admission bound, so a worker never
//! waits on its own full queue.
//!
//! # Admission control
//!
//! The task queue is bounded. [`Engine::submit`] **sheds** instead of
//! blocking when the queue is at its high-watermark
//! ([`Rejection::Overloaded`]), arms the per-request deadline at
//! admission (queue wait counts against it) and refuses new work with
//! [`Rejection::ShuttingDown`] once [`Engine::begin_shutdown`] has been
//! called. The deadline itself is kept by the caller: when it passes,
//! the caller calls [`Ticket::expire`], which answers
//! [`Rejection::DeadlineExceeded`] unless a worker already answered.
//! An expiry spawns a surplus replacement worker so the stalled slot
//! does not shrink the pool; the stalled worker retires itself once it
//! finishes and finds its ticket already answered. Workers additionally
//! drop queued tasks whose deadline expired while waiting ("stale"), so
//! an overloaded queue drains at memcpy speed instead of computing
//! answers nobody is waiting for. The blocking wrappers
//! ([`Engine::optimize`], [`Engine::run_jobs`]) wait for queue room
//! instead of shedding and carry no deadline.
//!
//! # Cancellation
//!
//! Every task carries a [`CancelToken`] checked by the optimizer at
//! merge-row stride granularity. A deadline expiry trips it before the
//! surplus worker is spawned, so the stalled run aborts within
//! microseconds and the slot retires against the surplus credit instead
//! of grinding to completion for nobody; the TCP service trips the same
//! token when it sees the client disconnect mid-request. Injected
//! resource faults resolve into the run rather than the machinery:
//! `MemPressure` forces one run under a tiny arena cap with
//! degrade-in-place on, and `CancelRun` trips the token with the
//! supervisor reason. Shutdown deliberately does NOT cancel in-flight
//! work — the drain contract ("every admitted request gets its
//! response") stays intact.
//!
//! [`FaultAction::KillWorker`]: buffopt_pipeline::fault::FaultAction::KillWorker

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use buffopt::{CancelReason, CancelToken, Hasher64};
use buffopt_integrity::VerifiedLru;
use buffopt_pipeline::fault::{FaultAction, FaultPlan, Seam};
use buffopt_pipeline::{
    hush_panics, optimize_input, optimize_input_with_cancel, reverify_outcome, BatchReport,
    NetInput, NetOutcome, Outcome, PanicHush, PipelineConfig, Reverify,
};

use crate::cache::{CachedRecord, CACHE_SHARDS};
use crate::metrics::{Metrics, MetricsSnapshot};

/// One unit of work: a net plus an optional cache key. Jobs without a
/// key bypass the cache entirely (both lookup and fill).
#[derive(Debug, Clone)]
pub struct Job {
    /// The net to optimize (or the parse failure to record).
    pub input: NetInput,
    /// Content digest over `(net, scenario, library, budget)`; see
    /// [`Engine::key_for`].
    pub cache_key: Option<u64>,
}

/// Whether a request was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache without re-optimizing.
    Hit,
    /// Computed by a worker (and cached if the job carried a key).
    Miss,
}

impl CacheStatus {
    /// Stable lowercase identifier used in service responses.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// A served request: the record plus serving provenance.
#[derive(Debug, Clone)]
pub struct Served {
    /// The per-net outcome record.
    pub outcome: NetOutcome,
    /// Cache hit or miss.
    pub cache: CacheStatus,
    /// Index of the worker that computed the record (for a hit, the
    /// worker that computed it originally).
    pub worker: usize,
}

/// Why an interactive request was refused without a record. Each variant
/// maps to one structured `{"error":...}` response of the TCP service
/// and one admission counter in the metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The queue is at its high-watermark; retry later.
    Overloaded,
    /// The per-request deadline passed before a worker finished.
    DeadlineExceeded,
    /// [`Engine::begin_shutdown`] was called; no new work is admitted.
    ShuttingDown,
}

impl Rejection {
    /// Stable lowercase identifier used in service error responses and
    /// the metrics snapshot.
    pub fn as_str(self) -> &'static str {
        match self {
            Rejection::Overloaded => "overloaded",
            Rejection::DeadlineExceeded => "deadline_exceeded",
            Rejection::ShuttingDown => "shutting_down",
        }
    }
}

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads in the pool (≥ 1; clamped).
    pub jobs: usize,
    /// Total solution-cache capacity in records; 0 disables caching.
    pub cache_capacity: usize,
    /// Queue high-watermark for [`Engine::submit`] admission; 0 means
    /// `2 × jobs` (the default backpressure depth).
    pub queue_depth: usize,
    /// Per-request deadline for [`Engine::submit`], armed at admission
    /// (queue wait counts) and enforced by the caller through
    /// [`Ticket::expire`]; `None` disables it. Distinct from
    /// the pipeline's per-net compute budget, which arms at dequeue.
    pub request_deadline: Option<Duration>,
    /// How many times a request whose worker died (or returned a record
    /// for the wrong net) is retried before it fails.
    pub max_retries: u32,
    /// Deterministic fault-injection plan for chaos tests; `None` in
    /// production.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Fraction of served responses (cache hits included) handed to the
    /// process's one off-critical-path audit thread (shared by every
    /// engine) that independently re-derives the record's slack and noise
    /// headroom
    /// ([`buffopt_pipeline::reverify_outcome`]). `0.0` (the default)
    /// disables the auditor entirely; `1.0` audits every response.
    /// Sampling is deterministic (every ⌈1/rate⌉-th response), never
    /// random. A failed audit counts `integrity.verify_failures` and
    /// evicts the record's cache entry so the lie is never served again.
    pub verify_sample_rate: f64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: default_jobs(),
            cache_capacity: 1024,
            queue_depth: 0,
            request_deadline: None,
            max_retries: 1,
            fault_plan: None,
            verify_sample_rate: 0.0,
        }
    }
}

/// The machine's available parallelism (≥ 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What a request's completion receives: the served record, or why the
/// request was refused without one.
pub type Answer = Result<Served, Rejection>;

/// A request's completion callback, called exactly once with its
/// [`Answer`] — inline from [`Engine::submit`] or later on a worker
/// thread.
type Completion = Box<dyn FnOnce(Answer) + Send>;

/// The once-flag shared by a queued task and its [`Ticket`]: whichever
/// side takes the completion first answers the request.
struct TicketState {
    on_done: Mutex<Option<Completion>>,
    cancel: CancelToken,
    deadline: Option<Instant>,
}

impl TicketState {
    fn new(on_done: Option<Completion>, cancel: CancelToken, deadline: Option<Instant>) -> Self {
        TicketState {
            on_done: Mutex::new(on_done),
            cancel,
            deadline,
        }
    }

    fn completion(&self) -> MutexGuard<'_, Option<Completion>> {
        self.on_done.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the right to answer; `None` once someone else has.
    fn claim(&self) -> Option<Completion> {
        self.completion().take()
    }

    /// Whether the request still awaits its answer.
    fn is_open(&self) -> bool {
        self.completion().is_some()
    }
}

/// A submitted request's handle, returned by [`Engine::submit`]. The
/// caller keeps it to enforce the request deadline: the engine arms the
/// deadline at admission, the caller times it and calls
/// [`Ticket::expire`] when it passes.
pub struct Ticket {
    state: Arc<TicketState>,
    core: Arc<Core>,
}

impl Ticket {
    /// The request's deadline, armed at admission; `None` when the engine
    /// runs without [`EngineOptions::request_deadline`] or the request
    /// was already answered inline.
    pub fn deadline(&self) -> Option<Instant> {
        self.state.deadline
    }

    /// Declares the deadline passed. Unless a worker already answered,
    /// this trips the request's cancel token, answers
    /// [`Rejection::DeadlineExceeded`] and spawns a surplus worker to
    /// stand in for the one still grinding on the request (it retires
    /// when it finishes). A no-op after the request was answered.
    pub fn expire(&self) {
        let Some(done) = self.state.claim() else {
            return;
        };
        // Trip the token first: the worker grinding on this request
        // aborts at its next stride checkpoint and retires against the
        // surplus credit, instead of computing to completion for nobody.
        if self.state.cancel.cancel(CancelReason::Deadline) {
            self.core.metrics.record_cancelled(CancelReason::Deadline);
        }
        self.core
            .metrics
            .record_rejection(Rejection::DeadlineExceeded);
        self.core.add_surplus_worker();
        done(Err(Rejection::DeadlineExceeded));
    }
}

struct Task {
    attempt: u32,
    job: Job,
    ticket: Arc<TicketState>,
}

/// The bounded task queue. Admission ([`TaskQueue::try_push`],
/// [`TaskQueue::push_wait`]) respects `depth`; retries do not.
struct TaskQueue {
    state: Mutex<QueueState>,
    /// Signalled when a task is queued or the queue closes.
    ready: Condvar,
    /// Signalled when a worker takes a task.
    room: Condvar,
    depth: usize,
}

struct QueueState {
    tasks: VecDeque<Task>,
    /// Set when the engine drops: workers exit once the queue is empty.
    closed: bool,
}

impl TaskQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn enqueue(&self, mut q: MutexGuard<'_, QueueState>, task: Task, front: bool) {
        if front {
            q.tasks.push_front(task);
        } else {
            q.tasks.push_back(task);
        }
        drop(q);
        self.ready.notify_one();
    }

    /// Queues `task` if the queue is below its high-watermark; `false`
    /// (dropping the task) otherwise.
    fn try_push(&self, task: Task) -> bool {
        let q = self.lock();
        if q.tasks.len() >= self.depth {
            return false;
        }
        self.enqueue(q, task, false);
        true
    }

    /// Queues `task`, waiting for room first.
    fn push_wait(&self, task: Task) {
        let mut q = self.lock();
        while q.tasks.len() >= self.depth {
            q = self.room.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        self.enqueue(q, task, false);
    }

    /// The retry lane: re-queues at the front, past the admission bound.
    /// Only workers retry, and a worker waiting for room in its own full
    /// queue would deadlock a one-worker pool.
    fn push_retry(&self, task: Task) {
        let q = self.lock();
        self.enqueue(q, task, true);
    }

    /// Takes the next task, waiting while the queue is empty; `None` once
    /// the queue is closed and drained.
    fn pop(&self) -> Option<Task> {
        let mut q = self.lock();
        loop {
            if let Some(task) = q.tasks.pop_front() {
                drop(q);
                self.room.notify_one();
                return Some(task);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// One response handed to the audit thread: everything needed to
/// independently re-derive the record's figures, and the engine it came
/// from.
struct VerifyTask {
    core: Arc<Core>,
    cache_key: Option<u64>,
    input: NetInput,
    outcome: NetOutcome,
}

/// State shared by the engine handle, every worker thread and every
/// [`Ticket`]: the queue, the supervisor, and everything a worker needs
/// to finish a request on its own.
struct Core {
    queue: TaskQueue,
    cfg: PipelineConfig,
    plan: Option<Arc<FaultPlan>>,
    cache: VerifiedLru<u64, CachedRecord>,
    metrics: Metrics,
    max_retries: u32,
    /// Worker thread handles, reaped by [`Core::supervise`] and joined
    /// when the engine drops.
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_worker_id: AtomicUsize,
    /// Worker threads alive right now — incremented when a thread is
    /// promised (at spawn), decremented by the death guard and by
    /// surplus retirement, so supervisors never over-spawn.
    live: AtomicUsize,
    /// Outstanding stalled-slot replacements: incremented when a
    /// deadline expiry spawns an extra worker, consumed when the stalled
    /// worker finds its request answered and retires.
    surplus: AtomicUsize,
    /// Nominal pool size.
    target: usize,
    /// Sampled re-verification (see [`EngineOptions::verify_sample_rate`]).
    verify_rate: f64,
    verify_seen: AtomicU64,
    /// Cleared by [`Engine::drain_verification`]: sampling stops.
    sampling: AtomicBool,
    /// Samples handed to the auditor and not yet audited.
    audits_pending: Mutex<usize>,
    /// Signalled when `audits_pending` reaches zero.
    audited: Condvar,
}

impl Core {
    fn spawn_worker(self: &Arc<Self>) -> JoinHandle<()> {
        let wid = self.next_worker_id.fetch_add(1, Ordering::SeqCst);
        let core = Arc::clone(self);
        // Count the worker as live from the moment it is promised, so
        // concurrent supervisors never over-spawn.
        self.live.fetch_add(1, Ordering::SeqCst);
        std::thread::Builder::new()
            .name(format!("buffopt-worker-{wid}"))
            .spawn(move || worker_loop(wid, &core))
            .expect("spawn worker thread")
    }

    fn workers(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.workers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reaps dead worker threads and spawns replacements until the pool
    /// is back at target strength. Called whenever a death is detected;
    /// idempotent and safe to call concurrently.
    fn supervise(self: &Arc<Self>) {
        let mut workers = self.workers();
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let _ = workers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        // The death guard decrements `live` before calling this, so the
        // count already reflects the death being reacted to.
        while self.live.load(Ordering::SeqCst) < self.target {
            workers.push(self.spawn_worker());
            self.metrics.record_respawn();
        }
    }

    /// Restores pool capacity around a stalled worker: one surplus
    /// credit plus one extra thread. The stalled worker retires itself
    /// against the credit when it eventually finishes.
    fn add_surplus_worker(self: &Arc<Self>) {
        self.surplus.fetch_add(1, Ordering::SeqCst);
        self.metrics.record_respawn();
        let handle = self.spawn_worker();
        self.workers().push(handle);
    }

    /// Consumes one surplus credit if any is outstanding; the calling
    /// worker retires on `true`.
    fn try_retire(&self) -> bool {
        let won = self
            .surplus
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| s.checked_sub(1))
            .is_ok();
        if won {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
        won
    }

    /// Finishes a task a worker completed (`Some` record) or died holding
    /// (`None`): integrity check, retry or failure, then — if this side
    /// wins the ticket — metrics, cache insert, sampled audit and the
    /// completion. Returns `false` when the request had already been
    /// answered (a deadline expiry), so the worker can retire against
    /// the surplus credit that expiry left behind.
    fn finish(
        self: &Arc<Self>,
        mut task: Task,
        outcome: Option<NetOutcome>,
        worker: usize,
    ) -> bool {
        let checked = match outcome {
            None => {
                self.metrics.record_worker_death();
                self.supervise();
                Err("worker died while holding the request")
            }
            Some(o) if o.name != task.job.input.name() => {
                // Integrity check: a record for the wrong net means the
                // worker (or an injected fault) corrupted its output.
                self.metrics.record_bad_output();
                Err("worker returned a record for the wrong net")
            }
            Some(o) => Ok(o),
        };
        let (outcome, fresh) = match checked {
            Ok(outcome) => (outcome, true),
            Err(failure) => {
                if task.attempt < self.max_retries {
                    // Nobody waits for an expired request; let it go.
                    if !task.ticket.is_open() {
                        return false;
                    }
                    self.metrics.record_retry();
                    task.attempt += 1;
                    self.queue.push_retry(task);
                    return true;
                }
                let attempts = task.attempt + 1;
                let name = task.job.input.name().to_string();
                let failed = failed_record(name, &format!("{failure} ({attempts} attempts)"));
                (failed, false)
            }
        };
        let Some(done) = task.ticket.claim() else {
            return false;
        };
        self.metrics.record_outcome(&outcome);
        // Never cache or audit a synthesized failure: the next request
        // for this net deserves a fresh computation, and there is
        // nothing to re-derive.
        let cache_key = task.job.cache_key.filter(|_| fresh);
        if let Some(key) = cache_key {
            self.cache.insert(
                key,
                CachedRecord {
                    outcome: outcome.clone(),
                    worker,
                },
            );
            self.fire_store_fault(key);
        }
        if fresh {
            self.maybe_verify(cache_key, &task.job.input, &outcome);
        }
        done(Ok(Served {
            outcome,
            cache: CacheStatus::Miss,
            worker,
        }));
        true
    }

    /// Arms the [`Seam::Store`] fault seam right after a cache insert and
    /// applies any state-corruption fault to the state just committed —
    /// modelling bit rot between the write and the next read, which the
    /// verify-on-hit checks must turn into a detected eviction instead of
    /// a served lie.
    fn fire_store_fault(&self, key: u64) {
        let Some(plan) = self.plan.as_deref() else {
            return;
        };
        match plan.fire(Seam::Store) {
            Some(FaultAction::BitFlipCacheEntry) => {
                self.cache
                    .corrupt(Some(key), false, CachedRecord::flip_slack);
            }
            Some(FaultAction::BitFlipMemoEntry) => {
                if let Some(memo) = self.cfg.memo.as_ref() {
                    memo.corrupt_any();
                }
            }
            _ => {}
        }
    }

    /// Deterministic sampler for the audit thread: response `n` is
    /// sampled iff `⌊n·rate⌋` advances, which spaces samples evenly at
    /// any rate and samples everything at 1.0.
    fn should_sample(&self) -> bool {
        if self.verify_rate <= 0.0 {
            return false;
        }
        let n = self.verify_seen.fetch_add(1, Ordering::Relaxed) + 1;
        let scaled = |k: u64| (k as f64 * self.verify_rate).floor();
        scaled(n) > scaled(n - 1)
    }

    /// Hands this response to the audit thread if it wins the sample.
    /// Called on every serving path — fresh computations AND cache hits —
    /// so replayed corruption is as auditable as fresh corruption.
    fn maybe_verify(
        self: &Arc<Self>,
        cache_key: Option<u64>,
        input: &NetInput,
        outcome: &NetOutcome,
    ) {
        if !self.sampling.load(Ordering::SeqCst) || !self.should_sample() {
            return;
        }
        *self.audits_pending() += 1;
        let task = VerifyTask {
            core: Arc::clone(self),
            cache_key,
            input: input.clone(),
            outcome: outcome.clone(),
        };
        if auditor().send(task).is_err() {
            self.audit_done();
        }
    }

    fn audits_pending(&self) -> MutexGuard<'_, usize> {
        self.audits_pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Marks one sample audited.
    fn audit_done(&self) {
        let mut pending = self.audits_pending();
        *pending -= 1;
        if *pending == 0 {
            self.audited.notify_all();
        }
    }

    /// Waits until every sample taken so far has been audited.
    fn wait_for_audits(&self) {
        let mut pending = self.audits_pending();
        while *pending > 0 {
            pending = self
                .audited
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Holds a dequeued task and, if the worker unwinds or exits without
/// completing it, reports the death: the live count drops first, then
/// [`Core::finish`] respawns the pool and retries or fails the request.
struct TaskGuard<'a> {
    core: &'a Arc<Core>,
    task: Option<Task>,
    worker: usize,
}

impl TaskGuard<'_> {
    fn input(&self) -> &NetInput {
        &self.task.as_ref().expect("task in hand").job.input
    }

    /// Finishes the task with a record; `false` means the request had
    /// already been answered.
    fn complete(&mut self, outcome: NetOutcome) -> bool {
        let task = self.task.take().expect("task in hand");
        self.core.finish(task, Some(outcome), self.worker)
    }
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        if let Some(task) = self.task.take() {
            // Dying with the task in hand: account the death first, so
            // the supervisor's respawn math is never early.
            self.core.live.fetch_sub(1, Ordering::SeqCst);
            self.core.finish(task, None, self.worker);
        }
    }
}

/// The worker-pool execution engine. Create once, submit requests
/// ([`Engine::submit`]) or use the blocking wrappers
/// ([`Engine::run_jobs`], [`Engine::optimize`], [`Engine::try_optimize`])
/// from any number of threads; drop to shut the pool down.
pub struct Engine {
    core: Arc<Core>,
    cfg_digest: u64,
    request_deadline: Option<Duration>,
    shutting_down: AtomicBool,
    started: Instant,
    _hush: PanicHush,
}

impl Engine {
    /// Spawns the worker pool and takes ownership of the pipeline
    /// configuration every net will run under.
    pub fn new(cfg: PipelineConfig, opts: EngineOptions) -> Self {
        let jobs = opts.jobs.max(1);
        let queue_depth = if opts.queue_depth == 0 {
            jobs * 2
        } else {
            opts.queue_depth
        };
        // The config fingerprint folds the library, budget, and every
        // optimizer flag into the cache key, so two engines with
        // different configs never alias records. `Debug` output is
        // stable within a process, which is all an in-memory cache needs.
        let cfg_digest = Hasher64::of(&[format!("{cfg:?}").as_bytes()]);
        let verify_rate = opts.verify_sample_rate.clamp(0.0, 1.0);
        if verify_rate > 0.0 {
            auditor();
        }
        let core = Arc::new(Core {
            // Bounded queue: submitters shed (or, in the blocking
            // wrappers, wait) once the pool is saturated instead of
            // buffering an unbounded batch.
            queue: TaskQueue {
                state: Mutex::new(QueueState {
                    tasks: VecDeque::with_capacity(queue_depth),
                    closed: false,
                }),
                ready: Condvar::new(),
                room: Condvar::new(),
                depth: queue_depth,
            },
            cfg,
            plan: opts.fault_plan,
            cache: VerifiedLru::new(opts.cache_capacity, CACHE_SHARDS),
            metrics: Metrics::default(),
            max_retries: opts.max_retries,
            workers: Mutex::new(Vec::with_capacity(jobs)),
            next_worker_id: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            surplus: AtomicUsize::new(0),
            target: jobs,
            verify_rate,
            verify_seen: AtomicU64::new(0),
            sampling: AtomicBool::new(verify_rate > 0.0),
            audits_pending: Mutex::new(0),
            audited: Condvar::new(),
        });
        for _ in 0..jobs {
            let handle = core.spawn_worker();
            core.workers().push(handle);
        }
        Engine {
            core,
            cfg_digest,
            request_deadline: opts.request_deadline,
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
            _hush: hush_panics(),
        }
    }

    /// Worker threads the pool targets (its nominal size).
    pub fn jobs(&self) -> usize {
        self.core.target
    }

    /// Tasks submitted but not yet picked up by a worker right now — a
    /// racy instantaneous gauge, suitable for stats reporting only.
    pub fn queue_len(&self) -> usize {
        self.core.queue.lock().tasks.len()
    }

    /// Worker threads alive right now (may briefly exceed
    /// [`Engine::jobs`] while a stalled worker's surplus replacement is
    /// active).
    pub fn live_workers(&self) -> usize {
        self.core.live.load(Ordering::SeqCst)
    }

    /// The configuration every net runs under.
    pub fn config(&self) -> &PipelineConfig {
        &self.core.cfg
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.plan.as_deref()
    }

    /// The cache key for a net identified by `name` with raw content
    /// `body` (the `.net` text, or any canonical byte form): a digest of
    /// the content *and* this engine's full configuration, so records
    /// computed under different libraries, budgets, or flags never alias.
    pub fn key_for(&self, name: &str, body: &str) -> u64 {
        Hasher64::of(&[
            &self.cfg_digest.to_le_bytes(),
            name.as_bytes(),
            body.as_bytes(),
        ])
    }

    /// A point-in-time metrics snapshot (counters + cache + subtree memo
    /// table + pool size).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let memo = self
            .core
            .cfg
            .memo
            .as_ref()
            .map(|t| t.stats())
            .unwrap_or_default();
        self.core.metrics.snapshot(
            self.core.cache.stats(),
            memo,
            self.core.target,
            self.started.elapsed(),
        )
    }

    /// Stops sampling, waits for the auditor to finish this engine's
    /// backlog, and returns the final `(samples, failures)` tally. For
    /// batch runs that want a complete audit before printing their
    /// summary. `(0, 0)` when sampling was off.
    pub fn drain_verification(&mut self) -> (u64, u64) {
        self.core.sampling.store(false, Ordering::SeqCst);
        self.core.wait_for_audits();
        self.core.metrics.verify_tally()
    }

    /// Test-only: corrupts the cached record for `key` in place (see
    /// [`VerifiedLru::corrupt`]). `rehash` recomputes the stored checksum
    /// over the corrupted bytes, modelling corruption that *predates*
    /// checksumming — invisible to verify-on-hit, catchable only by the
    /// sampled audit.
    #[doc(hidden)]
    pub fn corrupt_cache_entry(&self, key: u64, rehash: bool) -> bool {
        self.core
            .cache
            .corrupt(Some(key), rehash, CachedRecord::flip_slack)
    }

    /// Stops admitting new requests: every subsequent submission is
    /// answered [`Rejection::ShuttingDown`]. Work already admitted
    /// (queued or in flight) still completes — dropping the engine joins
    /// the workers after the queue drains.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Whether [`Engine::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Submits one request without blocking: cache lookup, then a
    /// shed-don't-block admission that arms the request deadline. A hit,
    /// a full queue ([`Rejection::Overloaded`]) and a shutting-down
    /// engine call `on_done` inline, before this returns; otherwise a
    /// worker calls it once the record is final (after any retries).
    /// `cancel` is the caller's handle on the run: trip it (client
    /// disconnect, watchdog) to abort at the next stride checkpoint — a
    /// cancelled run is answered as a `failed` record carrying
    /// `cancelled: <reason>`, not as a rejection. The caller enforces
    /// the deadline through the returned [`Ticket`].
    pub fn submit(
        &self,
        job: Job,
        cancel: CancelToken,
        on_done: impl FnOnce(Answer) + Send + 'static,
    ) -> Ticket {
        let on_done: Completion = Box::new(on_done);
        let Some((job, on_done)) = self.answer_inline(job, on_done) else {
            return self.answered(cancel);
        };
        // The deadline arms here — at admission — so time spent queued
        // behind other requests counts against it.
        let deadline = self.request_deadline.map(|d| Instant::now() + d);
        let state = Arc::new(TicketState::new(Some(on_done), cancel, deadline));
        let task = Task {
            attempt: 0,
            job,
            ticket: Arc::clone(&state),
        };
        if !self.core.queue.try_push(task) {
            self.core.metrics.record_rejection(Rejection::Overloaded);
            let done = state.claim().expect("an unqueued ticket is unanswered");
            done(Err(Rejection::Overloaded));
            return self.answered(state.cancel.clone());
        }
        Ticket {
            state,
            core: Arc::clone(&self.core),
        }
    }

    /// The admission step every request path shares: refuses work during
    /// shutdown and answers cache hits, calling `on_done` inline. Hands
    /// the job back when it needs a worker.
    fn answer_inline(&self, job: Job, on_done: Completion) -> Option<(Job, Completion)> {
        if self.is_shutting_down() {
            self.core.metrics.record_rejection(Rejection::ShuttingDown);
            on_done(Err(Rejection::ShuttingDown));
            return None;
        }
        self.core.metrics.record_request();
        if let Some(key) = job.cache_key {
            if let Some(CachedRecord { outcome, worker }) = self.core.cache.get(key, |_| true) {
                self.core.maybe_verify(Some(key), &job.input, &outcome);
                on_done(Ok(Served {
                    outcome,
                    cache: CacheStatus::Hit,
                    worker,
                }));
                return None;
            }
        }
        Some((job, on_done))
    }

    /// The ticket of a request answered inline: nothing left to expire.
    fn answered(&self, cancel: CancelToken) -> Ticket {
        Ticket {
            state: Arc::new(TicketState::new(None, cancel, None)),
            core: Arc::clone(&self.core),
        }
    }

    /// Queues a job for the blocking wrappers: no deadline, and waits for
    /// queue room instead of shedding.
    fn queue_wait(&self, job: Job, on_done: Completion) {
        self.core.queue.push_wait(Task {
            attempt: 0,
            job,
            ticket: Arc::new(TicketState::new(Some(on_done), CancelToken::new(), None)),
        });
    }

    /// Serves one request with admission control and waits for the
    /// answer: [`Engine::submit`] plus a deadline-bounded wait.
    pub fn try_optimize(&self, job: Job) -> Result<Served, Rejection> {
        self.try_optimize_with(job, CancelToken::new())
    }

    /// [`Engine::try_optimize`] with a caller-held [`CancelToken`]: the
    /// caller (a watchdog, a disconnect monitor) trips the token to abort
    /// the run at its next stride checkpoint — microseconds, not the next
    /// per-net boundary — and the worker slot frees immediately. A
    /// cancelled run comes back as a `failed` record carrying
    /// `cancelled: <reason>`, not as a rejection.
    pub fn try_optimize_with(&self, job: Job, cancel: CancelToken) -> Result<Served, Rejection> {
        let (tx, rx) = mpsc::sync_channel(1);
        let ticket = self.submit(job, cancel, move |answer| {
            let _ = tx.send(answer);
        });
        if let Some(deadline) = ticket.deadline() {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(answer) => return answer,
                // Expiring answers the ticket unless a worker just did;
                // either way exactly one answer is on its way.
                Err(_) => ticket.expire(),
            }
        }
        rx.recv().unwrap_or(Err(Rejection::ShuttingDown))
    }

    /// Serves one request, waiting for queue room and without a request
    /// deadline (for in-process callers that prefer backpressure over
    /// shedding). Worker-death supervision and retries still apply; the
    /// only rejection left — submitting during shutdown — surfaces as a
    /// `failed` record.
    pub fn optimize(&self, job: Job) -> Served {
        let name = job.input.name().to_string();
        let (tx, rx) = mpsc::sync_channel(1);
        let on_done: Completion = Box::new(move |answer| {
            let _ = tx.send(answer);
        });
        if let Some((job, on_done)) = self.answer_inline(job, on_done) {
            self.queue_wait(job, on_done);
        }
        match rx.recv().unwrap_or(Err(Rejection::ShuttingDown)) {
            Ok(served) => served,
            Err(r) => Served {
                outcome: failed_record(name, &format!("engine is {}", r.as_str())),
                cache: CacheStatus::Miss,
                worker: 0,
            },
        }
    }

    /// Runs a whole batch through the pool and reassembles the records
    /// in input order. Cache hits are resolved inline; misses are fanned
    /// out. The report is the same type the serial pipeline produces, so
    /// summaries and exit codes are unchanged.
    pub fn run_jobs(&self, jobs: Vec<Job>) -> BatchReport {
        self.run_jobs_with(jobs, |_, _| {})
    }

    /// [`Engine::run_jobs`], invoking `on_done(idx, record)` the moment
    /// each record is final (in completion order, not input order; cache
    /// hits first). Batch drivers use the callback to checkpoint
    /// completed records before the run finishes. The calling thread
    /// answers the hits, then feeds the misses to the queue, waiting for
    /// room, and settles completions between submissions.
    pub fn run_jobs_with(
        &self,
        jobs: Vec<Job>,
        mut on_done: impl FnMut(usize, &NetOutcome),
    ) -> BatchReport {
        let start = Instant::now();
        let n = jobs.len();
        let mut results: Vec<Option<NetOutcome>> = (0..n).map(|_| None).collect();
        let mut names: Vec<String> = jobs.iter().map(|j| j.input.name().to_string()).collect();
        let mut settle = |idx: usize, answer: Answer| {
            let outcome = answer.map(|s| s.outcome).unwrap_or_else(|_| {
                failed_record(
                    std::mem::take(&mut names[idx]),
                    "engine shut down before this net was computed",
                )
            });
            on_done(idx, &outcome);
            results[idx] = Some(outcome);
        };
        let (tx, rx) = mpsc::channel::<(usize, Answer)>();
        // Every hit is answered before any miss is queued, so no hit
        // waits behind computation.
        let misses: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .filter_map(|(idx, job)| {
                let tx = tx.clone();
                let on_done: Completion = Box::new(move |answer| {
                    let _ = tx.send((idx, answer));
                });
                self.answer_inline(job, on_done)
            })
            .collect();
        for (job, on_done) in misses {
            while let Ok((idx, answer)) = rx.try_recv() {
                settle(idx, answer);
            }
            self.queue_wait(job, on_done);
        }
        // Every completion holds a sender clone until it is called, so
        // the channel disconnects exactly when the last record is in.
        drop(tx);
        while let Ok((idx, answer)) = rx.recv() {
            settle(idx, answer);
        }
        BatchReport {
            outcomes: results
                .into_iter()
                .map(|slot| slot.expect("every job is answered"))
                .collect(),
            wall: start.elapsed(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Closing the queue lets workers exit once it drains. A worker
        // dying during the drain may respawn a replacement, so join until
        // no handles are left.
        self.core.queue.close();
        loop {
            let workers = std::mem::take(&mut *self.core.workers());
            if workers.is_empty() {
                break;
            }
            for w in workers {
                let _ = w.join();
            }
        }
        // Then wait out the audit backlog, so every sample taken before
        // shutdown is actually audited.
        self.core.wait_for_audits();
    }
}

/// The process's one audit thread (see
/// [`EngineOptions::verify_sample_rate`]), shared by every engine and
/// started by the first engine that samples.
fn auditor() -> &'static mpsc::Sender<VerifyTask> {
    static AUDITOR: OnceLock<mpsc::Sender<VerifyTask>> = OnceLock::new();
    AUDITOR.get_or_init(|| {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("buffopt-auditor".into())
            .spawn(move || verifier_loop(rx))
            .expect("spawn auditor thread");
        tx
    })
}

/// The audit thread's loop: drains sampled responses and independently
/// re-derives each record's audited figures, off the serving path. Every
/// received sample counts `integrity.verify_samples` on its engine; a
/// mismatch counts `integrity.verify_failures` and evicts the record's
/// cache entry so a corrupted record is never served again.
fn verifier_loop(rx: mpsc::Receiver<VerifyTask>) {
    let mut ws = buffopt::DpWorkspace::new();
    while let Ok(task) = rx.recv() {
        let core = &task.core;
        core.metrics.record_verify_sample();
        // A panicking audit costs its sample, not the shared thread.
        let verdict = panic::catch_unwind(AssertUnwindSafe(|| {
            reverify_outcome(&mut ws, &task.input, &core.cfg, &task.outcome)
        }));
        if let Ok(Reverify::Mismatch(_why)) = verdict {
            // Evict first, then count: anyone who observes the failure
            // counter is guaranteed the lie is already gone.
            if let Some(key) = task.cache_key {
                core.cache.remove(key);
            }
            core.metrics.record_verify_failure();
        }
        core.audit_done();
    }
}

fn failed_record(name: String, why: &str) -> NetOutcome {
    let mut o = optimize_input(
        &NetInput::Failed {
            name,
            error: String::new(),
        },
        // The config is irrelevant for the Failed variant; build the
        // cheapest possible one.
        &PipelineConfig::new(buffopt_buffers::BufferLibrary::new()),
    );
    o.outcome = Outcome::Failed;
    o.error = Some(why.to_string());
    o
}

fn worker_loop(wid: usize, core: &Arc<Core>) {
    // One DP workspace per worker thread, reused across every net this
    // worker serves. A run fully resets the scratch on entry, so reuse
    // after a caught panic is safe.
    let mut ws = buffopt::DpWorkspace::new();
    loop {
        // Surplus capacity bleeds off only through the stalled worker, when
        // it finds its request already answered by the expiry that spawned
        // its replacement: a retirement check here would let the fresh
        // replacement retire at once and leave the pool behind the stall.
        let Some(task) = core.queue.pop() else {
            return; // the engine dropped and the queue drained: shut down
        };
        // Drop tasks whose deadline expired while queued: the requester
        // is gone (or about to be), so computing would only stall the
        // pool for nobody. Trip the token too, so any racing retry of
        // the same request aborts instead of recomputing.
        if task.ticket.deadline.is_some_and(|d| Instant::now() >= d) {
            if task.ticket.cancel.cancel(CancelReason::Deadline) {
                core.metrics.record_cancelled(CancelReason::Deadline);
            }
            match task.ticket.claim() {
                Some(done) => {
                    core.metrics.record_stale_drop();
                    core.metrics.record_rejection(Rejection::DeadlineExceeded);
                    done(Err(Rejection::DeadlineExceeded));
                }
                // The expiry already answered and left a surplus credit.
                None if core.try_retire() => return,
                None => {}
            }
            continue;
        }
        let cancel = task.ticket.cancel.clone();
        let mut guard = TaskGuard {
            core,
            task: Some(task),
            worker: wid,
        };
        // Worker-seam faults fire OUTSIDE the panic boundary: they model
        // defects in the worker machinery itself, which is exactly what
        // the supervisor exists to repair. Resource faults are the
        // exception — they resolve into this run's budget or token
        // rather than into worker death.
        let mut corrupt_output = false;
        let mut forced_cap: Option<usize> = None;
        match core.plan.as_deref().and_then(|p| p.fire(Seam::Worker)) {
            Some(FaultAction::Panic) => panic!("injected worker panic"),
            // Exiting with the task in hand: the guard's drop reports
            // the death.
            Some(FaultAction::KillWorker) => return,
            Some(FaultAction::StallMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::WrongOutput) => corrupt_output = true,
            Some(FaultAction::IoError) => {
                let name = guard.input().name().to_string();
                let answered = guard.complete(failed_record(name, "injected worker I/O error"));
                if !answered && core.try_retire() {
                    return;
                }
                continue;
            }
            Some(FaultAction::MemPressure { at_bytes }) => forced_cap = Some(at_bytes as usize),
            Some(FaultAction::CancelRun) => {
                let won = cancel.cancel(CancelReason::Supervisor);
                if won {
                    core.metrics.record_cancelled(CancelReason::Supervisor);
                }
            }
            // State-corruption faults belong to the Store and Decode
            // seams; armed here they are plan misconfigurations and do
            // nothing.
            Some(FaultAction::CorruptJournalLine)
            | Some(FaultAction::BitFlipCacheEntry)
            | Some(FaultAction::BitFlipMemoEntry)
            | Some(FaultAction::TruncateFrame)
            | None => {}
        }
        let mut outcome = {
            let input = guard.input();
            // Optimize-seam faults fire INSIDE the panic boundary: they
            // model defects in per-net computation, which must stay
            // contained to one record.
            let mut fault = core.plan.as_deref().and_then(|p| p.fire(Seam::Optimize));
            // Resolve resource faults at this seam the same way: into
            // the run's budget/token, then optimize normally under them.
            match fault {
                Some(FaultAction::MemPressure { at_bytes }) => {
                    forced_cap = Some(at_bytes as usize);
                    fault = None;
                }
                Some(FaultAction::CancelRun) => {
                    if cancel.cancel(CancelReason::Supervisor) {
                        core.metrics.record_cancelled(CancelReason::Supervisor);
                    }
                    fault = None;
                }
                _ => {}
            }
            // An injected memory-pressure fault forces this one run under
            // a tiny arena cap (degrade-in-place turns on with it); the
            // shared config is untouched.
            let cfg_override = forced_cap.map(|cap| {
                let mut c = core.cfg.clone();
                c.max_arena_bytes = Some(cap);
                c
            });
            let run_cfg: &PipelineConfig = cfg_override.as_ref().unwrap_or(&core.cfg);
            // `optimize_input` contains per-rung panic boundaries
            // already; this outer guard turns even a bookkeeping panic
            // into a record, so no request waits on a dead slot.
            panic::catch_unwind(AssertUnwindSafe(|| match fault {
                Some(FaultAction::Panic) | Some(FaultAction::KillWorker) => {
                    panic!("injected optimizer panic")
                }
                Some(FaultAction::IoError) => failed_record(
                    input.name().to_string(),
                    "injected I/O error while optimizing",
                ),
                Some(FaultAction::StallMs(ms)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    optimize_input_with_cancel(&mut ws, input, run_cfg, &cancel)
                }
                Some(FaultAction::WrongOutput) => {
                    let mut r = optimize_input_with_cancel(&mut ws, input, run_cfg, &cancel);
                    r.name = format!("__fault__{}", r.name);
                    r
                }
                // Resource faults were folded into `run_cfg`/`cancel`
                // above; state-corruption faults belong to other seams.
                // Both take the normal path.
                Some(FaultAction::MemPressure { .. })
                | Some(FaultAction::CancelRun)
                | Some(FaultAction::CorruptJournalLine)
                | Some(FaultAction::BitFlipCacheEntry)
                | Some(FaultAction::BitFlipMemoEntry)
                | Some(FaultAction::TruncateFrame)
                | None => optimize_input_with_cancel(&mut ws, input, run_cfg, &cancel),
            }))
            .unwrap_or_else(|_| {
                failed_record(
                    input.name().to_string(),
                    "worker panicked outside the net boundary",
                )
            })
        };
        if corrupt_output {
            outcome.name = format!("__fault__{}", outcome.name);
        }
        if !guard.complete(outcome) && core.try_retire() {
            // The request was answered by a deadline expiry, which spawned
            // a replacement; shrink the pool back to target.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_send_and_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Engine>();
        ok::<Job>();
        ok::<Served>();
    }

    #[test]
    fn key_for_separates_name_content_and_config() {
        let lib = buffopt_buffers::catalog::single_buffer();
        let e1 = Engine::new(
            PipelineConfig::new(lib.clone()),
            EngineOptions {
                jobs: 1,
                ..EngineOptions::default()
            },
        );
        let k = e1.key_for("a", "body");
        assert_eq!(k, e1.key_for("a", "body"), "stable");
        assert_ne!(k, e1.key_for("b", "body"), "name matters");
        assert_ne!(k, e1.key_for("a", "other"), "content matters");
        let mut cfg2 = PipelineConfig::new(lib);
        cfg2.conservative = true;
        let e2 = Engine::new(
            cfg2,
            EngineOptions {
                jobs: 1,
                ..EngineOptions::default()
            },
        );
        assert_ne!(k, e2.key_for("a", "body"), "config matters");
    }

    #[test]
    fn key_for_golden_values() {
        // Pinned cache keys: a moved key silently cold-starts every
        // cache, so changes to the digest plumbing must keep them.
        let e = Engine::new(
            PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
            EngineOptions {
                jobs: 1,
                ..EngineOptions::default()
            },
        );
        assert_eq!(e.key_for("a", "body"), 0xa9cf_538f_653b_0a3f);
        assert_eq!(e.key_for("", ""), 0xa798_9252_34a7_8251);
        assert_eq!(
            e.key_for("bus7", "driver d 300\nsink s 2e-14 1e-9 0.8\n"),
            0x9003_0846_0372_35d3
        );
    }

    #[test]
    fn empty_batch_returns_empty_report() {
        let e = Engine::new(
            PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
            EngineOptions {
                jobs: 2,
                ..EngineOptions::default()
            },
        );
        let report = e.run_jobs(Vec::new());
        assert!(report.outcomes.is_empty());
        assert_eq!(e.metrics_snapshot().requests, 0);
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let e = Engine::new(
            PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
            EngineOptions {
                jobs: 1,
                ..EngineOptions::default()
            },
        );
        e.begin_shutdown();
        let r = e.try_optimize(Job {
            input: NetInput::Failed {
                name: "n".into(),
                error: "x".into(),
            },
            cache_key: None,
        });
        assert_eq!(r.unwrap_err(), Rejection::ShuttingDown);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.rejections[2], 1, "shutdown rejection counted");
    }
}
