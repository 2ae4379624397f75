//! The deterministic execution engine: a policy knob selecting sequential or
//! multi-threaded execution, plus order-preserving parallel primitives whose
//! results are bit-identical across policies and thread counts.
//!
//! Two properties make this safe for the simulator's numerics:
//!
//! 1. **Order-preserving fan-out.** [`map_range`] always returns results in
//!    index order, and every work item must derive its randomness from its
//!    *index* (see `fedmath::SeedTree`), never from a shared sequential RNG
//!    — so scheduling cannot leak into the output.
//! 2. **Fixed-shape reduction.** [`map_chunks`] partitions work over fixed
//!    chunk boundaries ([`REDUCE_CHUNK`]) that depend only on the problem
//!    size; folding within chunks and combining the partials left-to-right
//!    performs the same sequence of float operations — and therefore yields
//!    the same bits — no matter how many threads computed the chunk partials.
//!
//! Parallelism is implemented with `std::thread::scope` rather than `rayon`:
//! the build environment vendors all dependencies offline, and scoped threads
//! with contiguous chunking are sufficient for the simulator's uniform
//! workloads while keeping the reduction shape trivially deterministic.
//!
//! For long-lived fan-out — the event-driven executor submitting one task per
//! dispatched trial, hundreds of times per campaign — per-call spawning pays
//! thread-creation cost on every round trip. [`with_thread_pool`] amortizes
//! it: a campaign-scoped pool of persistent workers drains a FIFO injector
//! queue, so task *start* order always equals submission order, and the
//! caller decides (deterministically) how results are committed. Because the
//! crates in this workspace forbid `unsafe`, the pool is scoped rather than
//! global: jobs may borrow anything that outlives the [`with_thread_pool`]
//! call, which is exactly the shape of the concurrent trial executor (shared
//! evaluation core by reference, per-trial state by value) but *not* of
//! [`map_range`]'s arbitrary call-site borrows — the per-call scoped spawns
//! remain there, where fan-outs are wide and infrequent.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Default chunk width for deterministic [`map_chunks`] reductions.
///
/// Chosen so that chunk partials parallelize usefully at ≥ 50 clients per
/// round while keeping the combine step cheap and aggregation memory bounded
/// by the number of chunks rather than the number of clients.
pub const REDUCE_CHUNK: usize = 8;

/// How a fan-out (client training, trial execution, evaluation) is executed.
///
/// Both policies produce **bit-identical** results; `Parallel` only changes
/// wall-clock time. This is asserted by the cross-policy determinism tests in
/// `tests/determinism.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExecutionPolicy {
    /// Execute work items one after another on the calling thread.
    #[default]
    Sequential,
    /// Fan work items out over OS threads.
    Parallel {
        /// Worker-thread count; `0` means "use all available cores".
        threads: usize,
    },
}

impl ExecutionPolicy {
    /// A parallel policy using all available cores.
    pub fn parallel() -> Self {
        ExecutionPolicy::Parallel { threads: 0 }
    }

    /// A parallel policy with an explicit worker count.
    pub fn parallel_with(threads: usize) -> Self {
        ExecutionPolicy::Parallel { threads }
    }

    /// The policy selected by the `FEDTUNE_THREADS` environment variable:
    /// `1` means sequential, any other number is a parallel worker count
    /// (`0` = all cores). Unset, empty, or unparsable values fall back to
    /// [`parallel`](Self::parallel). The variable is read once per process
    /// and the answer cached, so every pool and policy in a run agrees on
    /// one thread count; a malformed value (e.g. `FEDTUNE_THREADS=lots`)
    /// warns on stderr that one time.
    ///
    /// This is for the edge of a process — a `main`, a bench, a test.
    /// Library code takes the policy (or a runner built from it) as an
    /// argument.
    pub fn from_env() -> Self {
        static PARSED: std::sync::OnceLock<ExecutionPolicy> = std::sync::OnceLock::new();
        *PARSED.get_or_init(|| {
            parse_threads(std::env::var("FEDTUNE_THREADS").ok().as_deref()).unwrap_or_else(|raw| {
                eprintln!(
                    "warning: FEDTUNE_THREADS={raw:?} is not a thread count; \
                     falling back to the parallel default (all cores)"
                );
                ExecutionPolicy::parallel()
            })
        })
    }

    /// The real worker-thread count this policy implies for a long-lived
    /// pool with no per-call item bound: `Sequential` → 1, `Parallel { 0 }`
    /// → all available cores, `Parallel { n }` → `n`.
    pub fn pool_threads(&self) -> usize {
        self.effective_threads(usize::MAX)
    }

    /// The number of worker threads this policy would use for `items` work
    /// items (never more threads than items, never zero).
    pub fn effective_threads(&self, items: usize) -> usize {
        match self {
            ExecutionPolicy::Sequential => 1,
            ExecutionPolicy::Parallel { threads } => {
                let requested = if *threads == 0 {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                } else {
                    *threads
                };
                requested.clamp(1, items.max(1))
            }
        }
    }
}

/// The one parse of a raw `FEDTUNE_THREADS` value, behind
/// [`ExecutionPolicy::from_env`]: unset or empty is the parallel default,
/// `1` is sequential, any other count is that many workers, and a value
/// that is not a `usize` comes back trimmed as the error so the caller can
/// name it in its warning.
fn parse_threads(value: Option<&str>) -> std::result::Result<ExecutionPolicy, String> {
    let raw = value.map_or("", str::trim);
    if raw.is_empty() {
        return Ok(ExecutionPolicy::parallel());
    }
    match raw.parse::<usize>() {
        Ok(1) => Ok(ExecutionPolicy::Sequential),
        Ok(threads) => Ok(ExecutionPolicy::Parallel { threads }),
        Err(_) => Err(raw.to_string()),
    }
}

/// Applies `f` to every index in `0..len`, returning results in index order.
///
/// Under [`ExecutionPolicy::Parallel`] the index range is split into
/// contiguous chunks, one scoped thread per chunk; results are stitched back
/// together in chunk order, so the output is identical to the sequential
/// policy whenever `f` is a pure function of its index. A panic in `f`
/// reaches the caller with its own payload under every policy (the
/// lowest-index chunk's, when several workers panic).
pub fn map_range<O, F>(policy: &ExecutionPolicy, len: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let threads = policy.effective_threads(len);
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(len);
                scope.spawn(move || (start..end).map(f).collect::<Vec<O>>())
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            out.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        out
    })
}

/// Applies `f` to fixed contiguous `chunk_size`-sized index chunks of
/// `0..len`, returning one result per chunk in chunk order.
///
/// This is the deterministic map-reduce primitive: chunk boundaries depend
/// only on `len` and `chunk_size` — never on the policy or thread count — so
/// a caller that folds within each chunk and then combines the returned
/// partials left-to-right performs the exact same sequence of floating-point
/// operations under every policy. The chunk computations are what
/// parallelize.
pub fn map_chunks<O, F>(policy: &ExecutionPolicy, len: usize, chunk_size: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(std::ops::Range<usize>) -> O + Sync,
{
    let chunk_size = chunk_size.max(1);
    let chunks = len.div_ceil(chunk_size);
    map_range(policy, chunks, |c| {
        let start = c * chunk_size;
        f(start..(start + chunk_size).min(len))
    })
}

/// A unit of work queued on a pool.
type PoolJob<'env> = Box<dyn FnOnce() + Send + 'env>;

struct QueueState<'env> {
    jobs: VecDeque<PoolJob<'env>>,
    shutdown: bool,
}

/// The one FIFO injector queue behind both pool handles: jobs *start* in
/// exactly the order they were pushed (there is no per-worker deque and
/// hence no stealing), which keeps pool scheduling out of any determinism
/// argument.
struct JobQueue<'env> {
    state: Mutex<QueueState<'env>>,
    work_ready: Condvar,
}

/// Pool accounting on the global [`fedtrace`] registry. Write-only — the
/// pool never reads these back, so tracing cannot change scheduling.
struct PoolMetrics {
    tasks: fedtrace::Counter,
    steals_avoided: fedtrace::Counter,
    task_panics: fedtrace::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        PoolMetrics {
            tasks: registry.counter("exec.pool.tasks"),
            steals_avoided: registry.counter("exec.pool.steals_avoided"),
            task_panics: registry.counter("exec.pool.task_panics"),
        }
    })
}

impl<'env> JobQueue<'env> {
    fn new() -> Arc<Self> {
        Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        })
    }

    /// The queue state, poisoned or not: jobs run outside the lock, and the
    /// two fields of `QueueState` are valid at every step of what runs
    /// inside it, so there is nothing a panicking holder could leave half
    /// done. Never panics, which `shut_down` (called from `drop`s, possibly
    /// during an unwind) relies on.
    fn lock(&self) -> MutexGuard<'_, QueueState<'env>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` behind everything pushed before it and wakes a worker.
    fn push(&self, job: PoolJob<'env>, chained: bool) {
        let metrics = pool_metrics();
        metrics.tasks.incr();
        if chained {
            metrics.steals_avoided.incr();
        }
        self.lock().jobs.push_back(job);
        self.work_ready.notify_one();
    }

    /// Tells the workers to return once the queue is drained.
    fn shut_down(&self) {
        self.lock().shutdown = true;
        self.work_ready.notify_all();
    }

    /// A worker's life: run queued jobs in order until shut down and
    /// drained. With `isolate`, a panicking job is contained at the job
    /// boundary (counted as `exec.pool.task_panics`) and the worker keeps
    /// serving the queue; without it the panic takes the worker with it.
    fn work(&self, isolate: bool) {
        loop {
            let job = {
                let mut state = self.lock();
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = self
                        .work_ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Run outside the lock so a panicking job cannot poison the queue.
            if !isolate {
                job();
            } else if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                pool_metrics().task_panics.incr();
            }
        }
    }
}

/// Handle to a persistent, order-preserving worker pool created by
/// [`with_thread_pool`].
///
/// Workers are long-lived threads draining one shared FIFO queue: tasks
/// *start* in exactly the order they were submitted, so a caller that
/// commits results in submission order gets bit-identical output at every
/// worker count.
///
/// The counter `exec.pool.tasks` records every submission and
/// `exec.pool.steals_avoided` every [chained](Self::submit_chained) one.
/// Accounting, never semantics.
pub struct ThreadPool<'env> {
    queue: Arc<JobQueue<'env>>,
}

impl<'env> ThreadPool<'env> {
    /// Queues `job` for execution on the next idle worker. Jobs start in
    /// submission order; all submitted jobs complete before
    /// [`with_thread_pool`] returns.
    pub fn submit<F: FnOnce() + Send + 'env>(&self, job: F) {
        self.queue.push(Box::new(job), false);
    }

    /// [`submit`](Self::submit) for a task that inherits its predecessor's
    /// warm per-task state (the pump chaining a trial's next dispatch onto
    /// the state its completed dispatch just freed). Counted as
    /// `exec.pool.steals_avoided`: the state handoff bypasses the shared
    /// parked-state round trip a work-stealing pool would pay.
    pub fn submit_chained<F: FnOnce() + Send + 'env>(&self, job: F) {
        self.queue.push(Box::new(job), true);
    }
}

/// Runs `f` with a persistent pool of `threads.max(1)` workers, shutting the
/// pool down (after draining every submitted job) when `f` returns.
///
/// The `'env` lifetime is the borrow horizon for jobs: anything a job borrows
/// must outlive the `with_thread_pool` call itself. Built on
/// `std::thread::scope`, so a panicking job propagates to the caller once the
/// scope joins — and so does a panic in `f` itself: the workers are told to
/// shut down on unwind too, drain the queue, and let the join finish.
pub fn with_thread_pool<'env, R, F>(threads: usize, f: F) -> R
where
    F: FnOnce(&ThreadPool<'env>) -> R,
{
    let queue = JobQueue::<'env>::new();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let queue = Arc::clone(&queue);
            scope.spawn(move || queue.work(false));
        }
        f(&ThreadPool { queue })
    })
}

/// Ends the workers when [`with_thread_pool`]'s handle goes, whether the
/// driver returned or is unwinding — without it a panicking driver leaves
/// them waiting and the scope's join never returns.
impl Drop for ThreadPool<'_> {
    fn drop(&mut self) {
        self.queue.shut_down();
    }
}

/// A process-lifetime worker pool shared by many independent drivers — the
/// multiplexing substrate of the tuning service daemon.
///
/// Differences from the scoped [`ThreadPool`] (the queue is the same one):
///
/// - **Owned, `'static` jobs.** Campaign drivers come and go while the pool
///   persists, so jobs must own their captures (typically `Arc` clones of a
///   shared evaluation core plus per-trial state by value).
/// - **Panic isolation.** Each job runs under `catch_unwind`: one tenant's
///   panicking evaluation is swallowed at the job boundary (counted as
///   `exec.pool.task_panics`) and the worker thread survives to serve other
///   tenants. The panicking tenant learns of the death through its own
///   channel-guard protocol — the pool stays policy-free.
/// - **Explicit shutdown.** Dropping the pool sets the shutdown flag and
///   joins every worker after the queue drains.
///
/// Tasks *start* in submission order, so fair-share admission decisions made
/// upstream are not reordered by the pool itself.
pub struct SharedPool {
    queue: Arc<JobQueue<'static>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SharedPool {
    /// Starts a pool of `threads.max(1)` persistent workers.
    pub fn new(threads: usize) -> Self {
        let queue = JobQueue::new();
        let handles = (0..threads.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.work(true))
            })
            .collect();
        SharedPool { queue, handles }
    }

    /// Queues `job` for execution on the next idle worker. Jobs start in
    /// submission order.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.queue.push(Box::new(job), false);
    }

    /// [`submit`](Self::submit) for a task chained onto its predecessor's
    /// warm per-trial state; counted as `exec.pool.steals_avoided` exactly
    /// like the scoped pool's chained submissions.
    pub fn submit_chained<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.queue.push(Box::new(job), true);
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        self.queue.shut_down();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors_and_threads() {
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::Sequential);
        assert_eq!(
            ExecutionPolicy::parallel_with(3),
            ExecutionPolicy::Parallel { threads: 3 }
        );
        assert_eq!(ExecutionPolicy::Sequential.effective_threads(100), 1);
        assert_eq!(ExecutionPolicy::parallel_with(4).effective_threads(2), 2);
        assert_eq!(ExecutionPolicy::parallel_with(4).effective_threads(0), 1);
        assert!(ExecutionPolicy::parallel().effective_threads(64) >= 1);
    }

    #[test]
    fn threads_override_parses_to_a_policy_or_names_the_malformed_value() {
        // 1 = sequential, n = parallel with n workers, 0 = all cores, unset
        // or blank = the parallel default.
        assert_eq!(parse_threads(Some("1")), Ok(ExecutionPolicy::Sequential));
        assert_eq!(
            parse_threads(Some(" 4 ")),
            Ok(ExecutionPolicy::Parallel { threads: 4 })
        );
        assert_eq!(parse_threads(Some("0")), Ok(ExecutionPolicy::parallel()));
        for unset in [None, Some(""), Some("  ")] {
            assert_eq!(parse_threads(unset), Ok(ExecutionPolicy::parallel()));
        }
        // Malformed values come back trimmed, for `from_env`'s one warning.
        assert_eq!(parse_threads(Some(" lots ")), Err("lots".into()));
        assert_eq!(parse_threads(Some("-3")), Err("-3".into()));
    }

    #[test]
    fn shared_pool_runs_static_jobs_in_submission_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;
        let pool = SharedPool::new(1);
        let (tx, rx) = mpsc::channel::<usize>();
        let ran = Arc::new(AtomicUsize::new(0));
        for i in 0..50 {
            let tx = tx.clone();
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(i);
            });
        }
        // One worker + FIFO queue: completion order equals submission order.
        let order: Vec<usize> = (0..50).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn shared_pool_survives_a_panicking_job() {
        use std::sync::mpsc;
        let pool = SharedPool::new(2);
        let panics_before = pool_metrics().task_panics.value();
        pool.submit(|| panic!("tenant bug"));
        let (tx, rx) = mpsc::channel::<u32>();
        pool.submit(move || {
            let _ = tx.send(7);
        });
        // The worker that ran the panicking job is still alive to run this.
        assert_eq!(rx.recv().unwrap(), 7);
        // Drop joins the workers; none of them died to the panic.
        drop(pool);
        assert!(pool_metrics().task_panics.value() > panics_before);
    }

    #[test]
    fn map_range_preserves_order_across_policies() {
        let sequential = map_range(&ExecutionPolicy::Sequential, 100, |i| i * i);
        for threads in [1, 2, 3, 7, 16] {
            let parallel = map_range(&ExecutionPolicy::parallel_with(threads), 100, |i| i * i);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
        let empty: Vec<usize> = map_range(&ExecutionPolicy::parallel(), 0, |i| i);
        assert!(empty.is_empty());
    }

    /// A chunk-fold + ordered combine, as `run_round`'s aggregation does it.
    fn chunked_sum(policy: &ExecutionPolicy, terms: &[f64]) -> f64 {
        let partials = map_chunks(policy, terms.len(), REDUCE_CHUNK, |slots| {
            slots.fold(0.0, |acc, i| acc + terms[i])
        });
        partials.into_iter().fold(0.0, |acc, p| acc + p)
    }

    #[test]
    fn chunked_fold_is_bit_identical_across_policies() {
        // Pathological magnitudes so naive reassociation would change bits.
        let terms: Vec<f64> = (0..37)
            .map(|i| {
                10f64.powi((i % 13) - 6)
                    * if i % 2 == 0 {
                        1.000000001
                    } else {
                        -0.999999999
                    }
            })
            .collect();
        let sequential = chunked_sum(&ExecutionPolicy::Sequential, &terms);
        for threads in [1, 2, 5, 8] {
            let parallel = chunked_sum(&ExecutionPolicy::parallel_with(threads), &terms);
            assert_eq!(
                sequential.to_bits(),
                parallel.to_bits(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn thread_pool_runs_every_submitted_job_before_returning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        with_thread_pool(4, |pool| {
            for _ in 0..100 {
                pool.submit(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // with_thread_pool only returns once the scope has joined, i.e. after
        // the workers drained the queue.
        assert_eq!(ran.load(Ordering::SeqCst), 100);
    }

    /// Runs `driver` inside a one-worker pool on a helper thread and then
    /// panics there, dropping what `driver` returned only as the frame
    /// unwinds. Reports whether the panic unwound out of `with_thread_pool`;
    /// a hang fails the `recv_timeout` instead of the whole suite.
    fn driver_panic_unwinds<T>(driver: impl FnOnce(&ThreadPool<'_>) -> T + Send + 'static) -> bool {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_thread_pool(1, |pool| {
                    let _held_until_unwind = driver(pool);
                    panic!("driver failed");
                })
            }));
            let _ = done_tx.send(outcome.is_err());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a panicking driver must not hang the pool's scope")
    }

    #[test]
    fn thread_pool_driver_panic_unwinds_past_idle_workers() {
        assert!(driver_panic_unwinds(|_| {}));
    }

    #[test]
    fn thread_pool_driver_panic_still_drains_a_queued_job() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc::channel;
        let ran = Arc::new(AtomicBool::new(false));
        let queued_ran = Arc::clone(&ran);
        assert!(driver_panic_unwinds(move |pool| {
            let (started_tx, started_rx) = channel();
            // The driver's frame owns `release_tx`, so the only worker stays
            // inside the first job, with the second one queued behind it,
            // until that frame unwinds.
            let (release_tx, release_rx) = channel::<()>();
            pool.submit(move || {
                started_tx.send(()).expect("driver is waiting");
                let _ = release_rx.recv();
            });
            pool.submit(move || queued_ran.store(true, Ordering::SeqCst));
            started_rx.recv().expect("first job starts");
            release_tx
        }));
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn a_poisoned_queue_still_pushes_runs_and_shuts_down() {
        let queue = JobQueue::<'static>::new();
        let poisoner = Arc::clone(&queue);
        let poisoned = std::thread::spawn(move || {
            let _held = poisoner.state.lock().expect("first holder");
            panic!("poison the pool queue");
        });
        assert!(poisoned.join().is_err());
        assert!(queue.state.is_poisoned());

        let worker = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.work(true)
        });
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 1..=3 {
            let tx = tx.clone();
            queue.push(Box::new(move || tx.send(i).expect("receiver alive")), false);
        }
        queue.shut_down();
        worker.join().expect("the worker returns normally");
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn thread_pool_jobs_may_borrow_pre_pool_data() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let data: Vec<u64> = (0..64).collect();
        let summed = AtomicU64::new(0);
        with_thread_pool(3, |pool| {
            for value in &data {
                pool.submit(|| {
                    summed.fetch_add(*value, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(summed.into_inner(), data.iter().sum::<u64>());
    }

    #[test]
    fn thread_pool_counts_tasks_on_the_global_registry() {
        let start = pool_metrics().tasks.value();
        with_thread_pool(2, |pool| {
            for _ in 0..5 {
                pool.submit(|| {});
            }
        });
        assert!(pool_metrics().tasks.value() >= start + 5);
    }

    #[test]
    fn thread_pool_clamps_zero_workers_to_one() {
        let (tx, rx) = std::sync::mpsc::channel();
        with_thread_pool(0, |pool| {
            for i in 1..=5 {
                let tx = tx.clone();
                pool.submit(move || tx.send(i).expect("receiver outlives the pool"));
            }
        });
        // One worker, one FIFO queue: completion order is submission order.
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn map_chunks_covers_the_range_exactly_once() {
        let covered: Vec<usize> = map_chunks(&ExecutionPolicy::parallel_with(3), 23, 8, |slots| {
            slots.collect::<Vec<usize>>()
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(covered, (0..23).collect::<Vec<_>>());
        let empty: Vec<Vec<usize>> =
            map_chunks(&ExecutionPolicy::parallel(), 0, 8, |slots| slots.collect());
        assert!(empty.is_empty());
        // A zero chunk size is clamped rather than dividing by zero.
        let clamped = map_chunks(&ExecutionPolicy::Sequential, 2, 0, |slots| slots.len());
        assert_eq!(clamped, vec![1, 1]);
    }
}
