//! The scoped thread pool.
//!
//! Workers are spawned once and live for the pool's lifetime, pulling boxed
//! jobs from a shared queue. [`ThreadPool::scope`] lets callers submit
//! closures that borrow stack data: the scope blocks until every submitted
//! job has finished before returning (the caller *helps execute* queued jobs
//! while it waits, so a pool of `n` threads applies `n` threads of compute —
//! `n-1` workers plus the caller), which is what makes the lifetime erasure
//! in [`Scope::spawn`] sound. Panics inside jobs are caught, and the first
//! one is re-raised on the scope's caller once all jobs have settled; the
//! workers themselves survive.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Process-wide pool execution counters, filled only while `obs` recording
/// is enabled (one `obs::enabled()` check per job otherwise).
static JOBS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of pool work done so far: `(jobs_executed, busy_secs)`. Busy time
/// sums the wall time of every executed job across all compute threads
/// (workers and scope callers); both are zero unless `obs` was enabled while
/// the work ran.
pub fn pool_stats() -> (u64, f64) {
    (
        JOBS_EXECUTED.load(Ordering::Relaxed),
        BUSY_NANOS.load(Ordering::Relaxed) as f64 / 1e9,
    )
}

/// Runs one queued job, tracking execution counters when `obs` is enabled.
fn run_job(job: Job) {
    if obs::enabled() {
        let t = Instant::now();
        job();
        BUSY_NANOS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        JOBS_EXECUTED.fetch_add(1, Ordering::Relaxed);
    } else {
        job();
    }
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_available: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size pool of worker threads with a scoped-task API.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// A pool applying `threads` threads of compute (minimum 1). Spawns
    /// `threads - 1` workers; the scope caller is the remaining thread.
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// The process-wide pool, sized by `SERD_THREADS` /
    /// `available_parallelism` on first use.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| ThreadPool::new(threads_from_env()))
    }

    /// Number of compute threads (workers + participating caller).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowing tasks, then blocks
    /// until every spawned task has completed. The first panic raised inside
    /// a task is re-raised here.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            settled: Mutex::new(()),
            settled_cond: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&state),
            _marker: std::marker::PhantomData,
        };
        let result = f(&scope);

        // Help-first drain: execute queued jobs (any scope's — progress is
        // progress) until this scope's pending count hits zero.
        loop {
            let job = self.shared.queue.lock().unwrap().pop_front();
            match job {
                Some(job) => run_job(job),
                None => {
                    if state.pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    // A job of ours is still running on a worker. Sleep on
                    // the scope condvar; the timeout guards the benign race
                    // where a *different* scope's job lands in the queue.
                    let guard = state.settled.lock().unwrap();
                    let _ = state
                        .settled_cond
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap();
                }
            }
        }

        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        result
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it and then
        // waits while holding that lock, so an unlocked store + notify could
        // land between its check and its wait and never wake it, leaving
        // the join below blocked forever.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

struct ScopeState {
    pending: AtomicUsize,
    settled: Mutex<()>,
    settled_cond: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Handle for spawning tasks that may borrow data outliving the scope call.
pub struct Scope<'env> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    _marker: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Submits `f` to the pool. The closure may borrow from the environment
    /// of the enclosing [`ThreadPool::scope`] call; the scope will not
    /// return until `f` has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let wrapped = move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.pending.fetch_sub(1, Ordering::AcqRel);
            // Wake the scope owner if it is parked waiting for us.
            let _guard = state.settled.lock().unwrap();
            state.settled_cond.notify_all();
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: `scope` blocks until `pending == 0`, i.e. until this job
        // has run to completion, so every borrow with lifetime 'env inside
        // the job is live for as long as the job can possibly execute. The
        // lifetime is erased only to pass through the 'static job queue.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job)
        };
        self.shared.queue.lock().unwrap().push_back(job);
        self.shared.work_available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.work_available.wait(queue).unwrap();
            }
        };
        // Job wrappers catch panics themselves; nothing to do here.
        run_job(job);
    }
}

/// How `SERD_THREADS` resolved: an explicit count, the machine's available
/// parallelism (unset, or the explicit `0` convention), or a misparse that
/// falls back to available parallelism with a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadsRequest {
    Explicit(usize),
    Available,
    Invalid,
}

/// Pure parse of a `SERD_THREADS` value. `0` explicitly means "use available
/// parallelism"; anything that is not a non-negative integer is `Invalid`.
fn parse_threads(v: Option<&str>) -> ThreadsRequest {
    match v {
        None => ThreadsRequest::Available,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => ThreadsRequest::Available,
            Ok(n) => ThreadsRequest::Explicit(n),
            Err(_) => ThreadsRequest::Invalid,
        },
    }
}

fn threads_from_env() -> usize {
    let var = std::env::var("SERD_THREADS").ok();
    match parse_threads(var.as_deref()) {
        ThreadsRequest::Explicit(n) => n,
        ThreadsRequest::Available => available(),
        ThreadsRequest::Invalid => {
            obs::diag(&format!(
                "SERD_THREADS={:?} is not a non-negative integer; using available parallelism",
                var.unwrap_or_default()
            ));
            available()
        }
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    static POOL_OVERRIDE: std::cell::RefCell<Vec<Arc<ThreadPool>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with every `par_*` primitive *called from this thread* routed
/// through `pool` instead of the global pool. Intended for tests that
/// compare thread counts within one process; nested parallel stages running
/// on `pool`'s workers fall back to the global pool (harmless: results do
/// not depend on which pool executes).
pub fn with_pool<R>(pool: Arc<ThreadPool>, f: impl FnOnce() -> R) -> R {
    POOL_OVERRIDE.with(|s| s.borrow_mut().push(pool));
    // Pop the override even if `f` panics so the thread-local stays balanced.
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// Invokes `f` with the pool the current thread should use.
pub(crate) fn current_pool<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    let over = POOL_OVERRIDE.with(|s| s.borrow().last().cloned());
    match over {
        Some(pool) => f(&pool),
        None => f(ThreadPool::global()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serd_threads_parse() {
        assert_eq!(parse_threads(None), ThreadsRequest::Available);
        assert_eq!(parse_threads(Some("0")), ThreadsRequest::Available);
        assert_eq!(parse_threads(Some(" 0 ")), ThreadsRequest::Available);
        assert_eq!(parse_threads(Some("1")), ThreadsRequest::Explicit(1));
        assert_eq!(parse_threads(Some(" 8\n")), ThreadsRequest::Explicit(8));
        assert_eq!(parse_threads(Some("")), ThreadsRequest::Invalid);
        assert_eq!(parse_threads(Some("-2")), ThreadsRequest::Invalid);
        assert_eq!(parse_threads(Some("four")), ThreadsRequest::Invalid);
        assert_eq!(parse_threads(Some("3.5")), ThreadsRequest::Invalid);
    }

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(3);
        let data = vec![1u64, 2, 3, 4, 5];
        let slots: Vec<AtomicUsize> = (0..data.len()).map(|_| AtomicUsize::new(0)).collect();
        pool.scope(|s| {
            for (i, slot) in slots.iter().enumerate() {
                let data = &data;
                s.spawn(move || {
                    slot.store(data[i] as usize * 10, Ordering::Relaxed);
                });
            }
        });
        let out: Vec<usize> = slots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn single_thread_pool_runs_on_caller() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let caller = std::thread::current().id();
        let mut ran_on = None;
        pool.scope(|s| {
            s.spawn(|| {
                // With zero workers the caller drains the queue itself.
            });
        });
        pool.scope(|_| {
            ran_on = Some(std::thread::current().id());
        });
        assert_eq!(ran_on, Some(caller));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom from worker"));
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("boom"), "unexpected payload {msg:?}");

        // The pool must remain fully usable after a task panicked.
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    // Nested scope on the same pool from a worker thread.
                    ThreadPool::global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| std::thread::sleep(Duration::from_millis(1)));
            }
        });
        drop(pool); // must not hang
    }

    #[test]
    fn dropping_fresh_pools_never_hangs() {
        // A worker checks `shutdown` and then waits for work; a shutdown
        // signal that lands between the two must still wake it. Pools with
        // more workers than cores, dropped while those workers are still
        // starting, hit that window within a few thousand drops when the
        // flag is not set under the queue lock.
        let (tx, rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            for _ in 0..20_000 {
                drop(ThreadPool::new(8));
            }
            tx.send(()).expect("test thread is waiting");
        });
        rx.recv_timeout(Duration::from_secs(120)).expect("dropping a pool hung");
        dropper.join().expect("dropper thread panicked");
    }
}
