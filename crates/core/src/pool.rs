//! The persistent fork-join worker pool behind the slice engine and the
//! cluster's host sharding.
//!
//! A dispatch fills one job slot per worker and bumps an epoch counter;
//! each worker notices the new epoch, takes its slot's job, runs it and
//! counts it off.  How an idle thread waits — for a new epoch (worker) or
//! for the last job (caller) — depends on whether the pool is *armed*:
//!
//! * **armed** (for the span of a burst of back-to-back fork-joins, see
//!   [`WorkerPool::arm`]): it spins on the counter with
//!   [`std::hint::spin_loop`], yielding the CPU every few dozen spins, so
//!   the next handoff costs a cache-line transfer instead of a wakeup;
//! * **disarmed** (the rest of the time): it parks, costing no CPU.
//!
//! A pool only ever arms when it runs no more threads than the machine
//! has CPUs ([`spins_when_armed`]): with fewer CPUs than threads a spinner
//! would steal the CPU of the very thread it waits for.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// A job dispatched to a pool worker (lifetime-erased borrowed closure).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Spin hints an armed waiter issues between two `yield_now` calls.  The
/// yield keeps a spinner from starving runnable threads when the machine
/// is busier than the pool knows; on an idle CPU it returns at once.
const SPINS_PER_YIELD: u32 = 64;

/// Whether a pool running `threads` threads (workers plus the caller) may
/// spin while armed on a machine with `available` CPUs.
fn spins_when_armed(threads: usize, available: usize) -> bool {
    threads <= available
}

/// State shared by the pool owner, its workers and its arm guards.
struct Shared {
    /// Bumped once per dispatch and once at shutdown; idle workers wait
    /// for it to move.
    epoch: AtomicU64,
    /// One job slot per worker.
    slots: Vec<Mutex<Option<Job>>>,
    /// Jobs stored in slots and not yet finished.
    pending: AtomicUsize,
    /// Whether a job of the current dispatch panicked.
    panicked: AtomicBool,
    /// Idle threads spin instead of parking while set.
    armed: AtomicBool,
    shutdown: AtomicBool,
    /// The thread blocked in the current dispatch; the job that brings
    /// `pending` to zero unparks it.
    caller: Mutex<Option<Thread>>,
}

/// Locks a mutex that no code panics under (jobs run outside every lock),
/// so poisoning cannot occur; shrugging it off keeps workers panic-free.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Blocks until `ready()` holds: spinning while the pool is armed,
    /// parking otherwise.  Every state change a waiter waits for is
    /// followed by an `unpark` of that waiter, so a park never sleeps
    /// through it (an early unpark leaves a token that ends the park).
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let mut spins = 0u32;
        while !ready() {
            if self.armed.load(Ordering::Relaxed) {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(SPINS_PER_YIELD) {
                    thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            } else {
                thread::park();
            }
        }
    }

    fn worker_loop(&self, index: usize) {
        let mut seen = 0u64;
        loop {
            self.wait_until(|| self.epoch.load(Ordering::Acquire) != seen);
            seen = self.epoch.load(Ordering::Acquire);
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // A worker without a job this epoch finds its slot empty.  A
            // slow worker may find the *next* dispatch's job before that
            // epoch is published; it runs it now and sees an empty slot
            // when it catches up — either way each job runs exactly once.
            let Some(job) = lock(&self.slots[index]).take() else {
                continue;
            };
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(caller) = &*lock(&self.caller) {
                    caller.unpark();
                }
            }
        }
    }
}

/// A minimal persistent fork-join pool.
///
/// `std::thread::scope` spawns OS threads on every call; at one simulate
/// scope plus one commit scope per slice, thread-creation latency swamps
/// the parallel work (slices are ~1 ms).  This pool keeps its workers
/// alive across slices: [`WorkerPool::run_with_local`] dispatches one
/// borrowed closure per worker and blocks until all of them finish — the
/// same fork-join contract as a scope, without the per-slice spawns.
///
/// Public because the cluster tier reuses it to shard whole hosts across
/// threads with the exact same fork-join discipline the slice engine uses
/// for units.  Not `Sync`: one dispatch at a time.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// [`spins_when_armed`] for this pool on this machine.
    spin: bool,
    _not_sync: PhantomData<Cell<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("spin", &self.spin)
            .finish()
    }
}

/// Keeps a pool armed until dropped (see [`WorkerPool::arm`]).
#[derive(Default)]
#[must_use = "the pool disarms when the guard is dropped"]
pub struct ArmGuard(Option<Arc<Shared>>);

impl std::fmt::Debug for ArmGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmGuard")
            .field("armed", &self.0.is_some())
            .finish()
    }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        if let Some(shared) = &self.0 {
            shared.armed.store(false, Ordering::Relaxed);
        }
    }
}

impl WorkerPool {
    /// Spawns `workers` long-lived threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            armed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            caller: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || shared.worker_loop(index))
            })
            .collect();
        let available = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            shared,
            handles,
            spin: spins_when_armed(workers + 1, available),
            _not_sync: PhantomData,
        }
    }

    /// Number of pool workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Arms the pool until the returned guard drops: between dispatches,
    /// idle workers (and a caller waiting for its jobs) spin instead of
    /// parking.  Arm around a run of back-to-back fork-joins, never
    /// indefinitely.  A no-op when the pool runs more threads than the
    /// machine has CPUs.
    pub fn arm(&self) -> ArmGuard {
        if !self.spin {
            return ArmGuard::default();
        }
        self.shared.armed.store(true, Ordering::Relaxed);
        ArmGuard(Some(Arc::clone(&self.shared)))
    }

    /// Runs the borrowed jobs — one per pool worker, in order — plus
    /// `local` on the calling thread, and blocks until every job
    /// completed.
    ///
    /// Jobs may borrow caller stack data: this function does not return
    /// until every job has run to completion, so the borrows outlive their
    /// use (the `std::thread::scope` guarantee, amortized across calls).
    ///
    /// # Panics
    ///
    /// Panics if more jobs than workers are submitted, or — after every
    /// job finished — if any job panicked.
    pub fn run_with_local<'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        local: impl FnOnce(),
    ) {
        /// Blocks until every stored job has finished — **also on
        /// unwind**.  The lifetime-erased jobs borrow the caller's stack,
        /// so returning (or unwinding past) this frame while a worker
        /// still runs one would be a use-after-free.
        struct DrainGuard<'a>(&'a Shared);
        impl Drop for DrainGuard<'_> {
            fn drop(&mut self) {
                let shared = self.0;
                shared.wait_until(|| shared.pending.load(Ordering::Acquire) == 0);
            }
        }

        assert!(jobs.len() <= self.workers(), "one job per worker");
        let shared = &*self.shared;
        shared.panicked.store(false, Ordering::Relaxed);
        *lock(&shared.caller) = Some(thread::current());
        let drain = DrainGuard(shared);
        let dispatched = jobs.len();
        for (slot, job) in shared.slots.iter().zip(jobs) {
            // SAFETY: `Job` erases the closure's `'env` lifetime to
            // `'static`.  The borrows inside stay valid because this
            // function — via `DrainGuard`, on return or on any unwind —
            // blocks until every stored job has finished executing; a
            // worker can never touch the closure after this frame is gone.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            // Counted before it becomes visible, so no worker can finish
            // it before it is counted.
            shared.pending.fetch_add(1, Ordering::Relaxed);
            *lock(slot) = Some(job);
        }
        shared.epoch.fetch_add(1, Ordering::Release);
        for handle in &self.handles[..dispatched] {
            handle.thread().unpark();
        }
        local();
        drop(drain);
        assert!(
            !shared.panicked.load(Ordering::Relaxed),
            "a slice-engine worker panicked"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for handle in self.handles.drain(..) {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_job_runs_exactly_once_across_back_to_back_fork_joins() {
        const ROUNDS: usize = 10_000;
        let pool = WorkerPool::new(2);
        let runs: Vec<AtomicU32> = (0..3 * ROUNDS).map(|_| AtomicU32::new(0)).collect();
        // Half the rounds armed (spin handoff), half disarmed (park).
        for round in 0..ROUNDS {
            let _armed = (round % 2 == 0).then(|| pool.arm());
            // Every third round leaves a worker jobless.
            let job_count = if round % 3 == 0 { 1 } else { 2 };
            let runs = &runs;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..job_count)
                .map(|j| {
                    let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        runs[3 * round + j].fetch_add(1, Ordering::Relaxed);
                    });
                    job
                })
                .collect();
            pool.run_with_local(jobs, || {
                runs[3 * round + 2].fetch_add(1, Ordering::Relaxed);
            });
            // Every job of this round is done when the dispatch returns.
            for (j, count) in runs[3 * round..3 * round + 3].iter().enumerate() {
                let want = u32::from(j == 2 || j < job_count);
                assert_eq!(count.load(Ordering::Relaxed), want, "round {round} job {j}");
            }
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller_only_after_the_others_finished() {
        let pool = WorkerPool::new(2);
        let slow_done = AtomicBool::new(false);
        let local_done = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("job 0 fails")),
                Box::new(|| {
                    thread::sleep(std::time::Duration::from_millis(50));
                    slow_done.store(true, Ordering::Relaxed);
                }),
            ];
            pool.run_with_local(jobs, || local_done.store(true, Ordering::Relaxed));
        }));
        assert!(result.is_err(), "the job's panic reaches the caller");
        assert!(
            slow_done.load(Ordering::Relaxed),
            "the slow job finished first"
        );
        assert!(local_done.load(Ordering::Relaxed));
        // The pool survives a panicked job.
        let ran = AtomicBool::new(false);
        pool.run_with_local(vec![Box::new(|| ran.store(true, Ordering::Relaxed))], || {});
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn dropping_the_pool_joins_its_workers() {
        thread_local! {
            static HELD: std::cell::RefCell<Option<Arc<()>>> = const { std::cell::RefCell::new(None) };
        }
        let token = Arc::new(());
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
            .map(|_| {
                let token = Arc::clone(&token);
                let job: Box<dyn FnOnce() + Send + '_> =
                    Box::new(move || HELD.with(|held| *held.borrow_mut() = Some(token)));
                job
            })
            .collect();
        pool.run_with_local(jobs, || {});
        assert_eq!(Arc::strong_count(&token), 3, "each worker holds a clone");
        // The clones live in worker thread-locals, released only when the
        // worker threads exit.
        drop(pool);
        assert_eq!(Arc::strong_count(&token), 1, "drop joined both workers");
    }

    #[test]
    fn arming_is_off_when_threads_exceed_the_cpus() {
        assert!(spins_when_armed(1, 1));
        assert!(spins_when_armed(2, 2));
        assert!(spins_when_armed(2, 8));
        assert!(!spins_when_armed(3, 2));
        assert!(!spins_when_armed(4, 2));
        assert!(!spins_when_armed(2, 1));
    }

    #[test]
    fn an_arm_guard_disarms_on_drop() {
        let pool = WorkerPool::new(1);
        let guard = pool.arm();
        assert_eq!(pool.shared.armed.load(Ordering::Relaxed), pool.spin);
        drop(guard);
        assert!(!pool.shared.armed.load(Ordering::Relaxed));
    }
}
