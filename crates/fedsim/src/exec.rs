//! The deterministic execution engine: a policy knob selecting sequential or
//! multi-threaded execution of independent trials, and the one worker pool.
//!
//! There is one level of parallelism: trials fan out, and each trial's
//! federated rounds and validation passes run on the thread that owns it.
//! A `fedtune_core::TrialRunner` fans its trials out through
//! [`fedmath::par::map_range`] at
//! [`ExecutionPolicy::effective_threads`]; that fan-out returns results in
//! index order, and every trial derives its randomness from its *index*
//! (see `fedmath::SeedTree`), so scheduling cannot leak into the output.
//!
//! For long-lived fan-out — a campaign driver submitting one job per
//! dispatched evaluation, hundreds of times per campaign — per-call spawning
//! pays thread-creation cost on every round trip. One pool type,
//! [`ThreadPool`], amortizes it: persistent workers drain a FIFO queue, so
//! job *start* order equals submission order, and the caller decides
//! (deterministically) how results are committed. It is scoped
//! ([`with_thread_pool`], jobs borrow the caller's data) or owned
//! ([`SharedPool`], `'static` jobs, the daemon's), with one worker loop and
//! one panic policy.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How the independent trials of an experiment fan out (the policy of a
/// `fedtune_core::TrialRunner`; [`pool_threads`](Self::pool_threads) sizes a
/// campaign driver's pool). A federated round and a validation pass have no
/// policy: they run on the thread that owns their trial.
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
                    fedmath::par::available_threads()
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

/// A unit of work queued on a pool.
type PoolJob<'env> = Box<dyn FnOnce() + Send + 'env>;

struct QueueState<'env> {
    jobs: VecDeque<PoolJob<'env>>,
    shutdown: bool,
}

/// The FIFO injector queue behind a [`ThreadPool`]: jobs *start* in exactly
/// the order they were pushed (there is no per-worker deque and hence no
/// stealing), which keeps pool scheduling out of any determinism argument.
struct JobQueue<'env> {
    state: Mutex<QueueState<'env>>,
    work_ready: Condvar,
}

/// Pool accounting on the global [`fedtrace`] registry. Write-only — the
/// pool never reads these back, so tracing cannot change scheduling.
struct PoolMetrics {
    tasks: fedtrace::Counter,
    task_panics: fedtrace::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        PoolMetrics {
            tasks: registry.counter("exec.pool.tasks"),
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
    fn push(&self, job: PoolJob<'env>) {
        pool_metrics().tasks.incr();
        self.lock().jobs.push_back(job);
        self.work_ready.notify_one();
    }

    /// Tells the workers to return once the queue is drained.
    fn shut_down(&self) {
        self.lock().shutdown = true;
        self.work_ready.notify_all();
    }

    /// A worker's life: run queued jobs in order until shut down and
    /// drained. A panicking job stops at the job boundary (counted as
    /// `exec.pool.task_panics`) and the worker keeps serving the queue; the
    /// job's owner hears of it through its own channel (the pump's panic
    /// guard), so the pool stays policy-free.
    fn work(&self) {
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
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                pool_metrics().task_panics.incr();
            }
        }
    }
}

/// A persistent, order-preserving worker pool: long-lived threads draining
/// one shared FIFO queue, so tasks *start* in exactly the order they were
/// submitted and a caller that commits results in submission order gets
/// bit-identical output at every worker count.
///
/// Two constructors, one pool:
///
/// - [`with_thread_pool`] is **scoped**: jobs may borrow anything that
///   outlives the call (`'env`), and the workers are joined by the scope.
/// - [`SharedPool::new`](ThreadPool::new) is **owned**: `'static` jobs, for
///   a process-lifetime pool many drivers share (the tuning daemon's
///   campaigns come and go while it persists). Dropping it joins the
///   workers after the queue drains.
///
/// Both run every job under the same policy: a panic stops at the job
/// boundary and is counted as `exec.pool.task_panics`; the worker survives
/// to run what is queued behind it. The counter `exec.pool.tasks` records
/// every submission. Accounting, never semantics.
pub struct ThreadPool<'env> {
    queue: Arc<JobQueue<'env>>,
    /// The owned pool's workers; empty for a scoped pool, whose scope joins
    /// them.
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The owned, `'static` form of [`ThreadPool`].
pub type SharedPool = ThreadPool<'static>;

impl<'env> ThreadPool<'env> {
    /// Queues `job` for execution on the next idle worker. Jobs start in
    /// submission order; every submitted job runs before the pool's workers
    /// return.
    pub fn submit<F: FnOnce() + Send + 'env>(&self, job: F) {
        self.queue.push(Box::new(job));
    }
}

impl ThreadPool<'static> {
    /// Starts an owned pool of `threads.max(1)` persistent workers.
    pub fn new(threads: usize) -> Self {
        let queue = JobQueue::new();
        let handles = (0..threads.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.work())
            })
            .collect();
        ThreadPool { queue, handles }
    }
}

/// Runs `f` with a scoped pool of `threads.max(1)` workers, shutting the pool
/// down (after draining every submitted job) when `f` returns.
///
/// The `'env` lifetime is the borrow horizon for jobs: anything a job borrows
/// must outlive the `with_thread_pool` call itself. A panic in `f` unwinds to
/// the caller once the scope joins: the workers are told to shut down on
/// unwind too, drain the queue, and let the join finish.
pub fn with_thread_pool<'env, R, F>(threads: usize, f: F) -> R
where
    F: FnOnce(&ThreadPool<'env>) -> R,
{
    let queue = JobQueue::<'env>::new();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let queue = Arc::clone(&queue);
            scope.spawn(move || queue.work());
        }
        f(&ThreadPool {
            queue,
            handles: Vec::new(),
        })
    })
}

/// Ends the workers when the pool goes, whether its owner returned or is
/// unwinding — without it a panicking driver leaves them waiting and a
/// scope's join never returns — and joins an owned pool's workers.
impl Drop for ThreadPool<'_> {
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

    /// Queues a panicking job and then a healthy one on `pool` (one worker),
    /// and waits for the healthy one.
    fn queue_behind_a_panic(pool: &ThreadPool<'_>) -> std::sync::mpsc::Receiver<u32> {
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        pool.submit(|| panic!("evaluation bug"));
        pool.submit(move || {
            let _ = tx.send(7);
        });
        rx
    }

    #[test]
    fn a_job_queued_behind_a_panicking_job_runs_on_either_pool() {
        let counted = |before: u64| pool_metrics().task_panics.value() > before;
        // Owned: the only worker survives the panic to run the next job.
        let before = pool_metrics().task_panics.value();
        let pool = SharedPool::new(1);
        let rx = queue_behind_a_panic(&pool);
        assert_eq!(rx.recv().unwrap(), 7);
        drop(pool);
        assert!(counted(before));
        // Scoped: the same, and the scope joins without a panic of its own.
        let before = pool_metrics().task_panics.value();
        let rx = with_thread_pool(1, queue_behind_a_panic);
        assert_eq!(rx.try_recv(), Ok(7));
        assert!(counted(before));
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
            move || queue.work()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 1..=3 {
            let tx = tx.clone();
            queue.push(Box::new(move || tx.send(i).expect("receiver alive")));
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
}
