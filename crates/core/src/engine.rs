//! The one engine under both front ends: [`FlowServer`] batches and flowd's
//! socket submits run on this queue, this worker loop, this thread-budget
//! split and this shared store.
//!
//! An [`Engine`] owns a [`Scheduler`] — a bounded, priority-first,
//! admission-stable queue plus a `closed` flag under one mutex and one
//! condvar — and the workers that pop it. Jobs are whole flows — 10^5–10^6 µs
//! each, a few tens per queue — so a mutex-guarded pop costs nothing
//! measurable and per-worker queues that rebalance among themselves buy
//! nothing (DESIGN.md §10). Draining is [`Engine::close`] followed by joining
//! the workers: quiescence is "the workers have returned", so there is no
//! running count to keep in step and a job that panics cannot wedge a drain.
//!
//! A job is a closure: the front end decides what a request is and where its
//! answer goes; the engine decides when it runs, on which worker, with how
//! many kernel threads, against which store, and how much of its deadline is
//! left ([`Engine::run_flow`]).
//!
//! [`FlowServer`]: crate::server::FlowServer

use crate::config::FlowConfig;
use crate::flow::{run_flow_shared, FlowError};
use crate::report::FlowReport;
use crate::store::{FlowStore, StoreConfig};
use crate::telemetry::ProgressFn;
use eda_netlist::Netlist;
use eda_par::resolve_threads;
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a job was refused admission.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The queue already holds `high_water` jobs.
    Full,
    /// The queue has been closed.
    Closed,
}

struct State<T> {
    /// Priority descending, admission order within a priority.
    queue: VecDeque<(i64, T)>,
    closed: bool,
}

struct Scheduler<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    high_water: usize,
}

impl<T> Scheduler<T> {
    /// An open, empty queue that admits at most `high_water` waiting jobs.
    fn new(high_water: usize) -> Scheduler<T> {
        let state = State { queue: VecDeque::new(), closed: false };
        Scheduler { state: Mutex::new(state), ready: Condvar::new(), high_water }
    }

    /// Every update below leaves the state valid at each step, so a peer
    /// that panicked while holding the lock cannot have broken it.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `job` behind every waiting job of the same or higher
    /// priority and returns the queue depth including it.
    fn push(&self, priority: i64, job: T) -> Result<usize, Refused> {
        let mut st = self.lock();
        if st.closed {
            return Err(Refused::Closed);
        }
        if st.queue.len() >= self.high_water {
            return Err(Refused::Full);
        }
        let at = st.queue.iter().position(|(p, _)| *p < priority).unwrap_or(st.queue.len());
        st.queue.insert(at, (priority, job));
        let depth = st.queue.len();
        drop(st);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks for the next job and returns it with the depth it leaves
    /// behind; `None` once the queue is closed *and* empty.
    fn pop(&self) -> Option<(T, usize)> {
        let mut st = self.lock();
        loop {
            if let Some((_, job)) = st.queue.pop_front() {
                return Some((job, st.queue.len()));
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuses every later push; waiting jobs still run.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Splits one global budget of `threads` (`0` = all cores) into
/// `(workers, kernel_threads)`: concurrent requests, and the threads each
/// request's kernels get. `workers == 0` spends half the budget on workers;
/// `cap` bounds them (a batch has no use for more workers than requests).
fn split_budget(threads: usize, workers: usize, cap: usize) -> (usize, usize) {
    let budget = resolve_threads(threads);
    let workers = if workers == 0 { budget / 2 } else { workers }.clamp(1, cap.max(1));
    (workers, (budget / workers).max(1))
}

/// What a worker knows about the job it just popped.
pub(crate) struct Popped {
    /// The worker running the job.
    pub(crate) worker: usize,
    /// Jobs still queued when this one was popped.
    pub(crate) queue_depth: usize,
    /// When [`Engine::submit`] admitted the job.
    pub(crate) admitted: Instant,
}

/// A queued request: what its worker does once it pops it.
type Job = Box<dyn FnOnce(&Engine, Popped) + Send>;

pub(crate) struct Engine {
    queue: Scheduler<(Instant, Job)>,
    workers: usize,
    kernel_threads: usize,
    store_cfg: Option<StoreConfig>,
    /// `store_cfg` opened once for every worker, so concurrent requests
    /// share one in-memory index instead of each re-scanning the file. `None`
    /// when the open failed: each run then opens `store_cfg` itself, which
    /// counts `cache.open_errors` and runs uncached.
    store: Option<Arc<FlowStore>>,
}

impl Engine {
    /// An open, empty engine with no workers yet. `threads`, `workers` and
    /// `cap` are split as [`split_budget`] says; the queue admits at most
    /// `high_water` waiting jobs.
    pub(crate) fn new(
        threads: usize,
        workers: usize,
        cap: usize,
        high_water: usize,
        store: Option<StoreConfig>,
    ) -> Arc<Engine> {
        let (workers, kernel_threads) = split_budget(threads, workers, cap);
        Arc::new(Engine {
            queue: Scheduler::new(high_water),
            workers,
            kernel_threads,
            store: store.as_ref().and_then(|sc| FlowStore::open(sc).ok().map(Arc::new)),
            store_cfg: store,
        })
    }

    /// Spawns the workers: the one request-worker loop in the crate. Each
    /// pops the next job until the queue is closed and empty, so joining the
    /// handles is the drain. A batch submitted before this call runs in
    /// exact (priority, submission) order.
    pub(crate) fn start(self: &Arc<Self>) -> io::Result<Vec<JoinHandle<()>>> {
        let spawned: io::Result<Vec<_>> = (0..self.workers)
            .map(|worker| {
                let engine = Arc::clone(self);
                std::thread::Builder::new().name(format!("flow-worker-{worker}")).spawn(move || {
                    while let Some(((admitted, job), queue_depth)) = engine.queue.pop() {
                        job(&engine, Popped { worker, queue_depth, admitted });
                    }
                })
            })
            .collect();
        // Workers already running would otherwise wait on an open queue forever.
        spawned.inspect_err(|_| self.close())
    }

    /// Admits `job` behind every waiting job of the same or higher priority
    /// and returns the queue depth including it.
    pub(crate) fn submit(
        &self,
        priority: i64,
        job: impl FnOnce(&Engine, Popped) + Send + 'static,
    ) -> Result<usize, Refused> {
        self.queue.push(priority, (Instant::now(), Box::new(job)))
    }

    /// Refuses every later submit; queued jobs still run.
    pub(crate) fn close(&self) {
        self.queue.close();
    }

    /// Whether [`close`](Self::close) has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.queue.is_closed()
    }

    /// Concurrent requests.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Kernel threads each request runs with.
    pub(crate) fn kernel_threads(&self) -> usize {
        self.kernel_threads
    }

    /// The shared store, when one is configured and opened.
    pub(crate) fn store(&self) -> Option<&FlowStore> {
        self.store.as_deref()
    }

    /// Runs a popped request's flow with the engine's kernel-thread share and
    /// shared store. `deadline` is measured from admission: queue wait counts
    /// against it, and what is left (possibly zero) goes to the supervisor,
    /// which trips at the next stage boundary with a typed error. Every
    /// QoR-relevant knob of `config` is taken as-is.
    pub(crate) fn run_flow(
        &self,
        popped: &Popped,
        design: &Netlist,
        mut config: FlowConfig,
        observer: Option<ProgressFn>,
        deadline: Option<Duration>,
    ) -> Result<FlowReport, FlowError> {
        config.threads = self.kernel_threads;
        if let Some(sc) = &self.store_cfg {
            config.store = Some(sc.clone());
        }
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_sub(popped.admitted.elapsed());
            config.deadline_s = Some(remaining.as_secs_f64());
        }
        run_flow_shared(design, &config, observer, self.store.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn pops_priority_first_and_admission_stable_within_a_class() {
        let q = Scheduler::new(8);
        for (depth, (priority, job)) in [(0, 'a'), (5, 'b'), (5, 'c'), (9, 'd'), (0, 'e')]
            .into_iter()
            .enumerate()
        {
            assert_eq!(q.push(priority, job).expect("below high water"), depth + 1);
        }
        q.close();
        let order: Vec<(char, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [('d', 4), ('b', 3), ('c', 2), ('a', 1), ('e', 0)]);
    }

    #[test]
    fn a_refused_job_comes_back_with_the_reason() {
        let q = Scheduler::new(2);
        assert_eq!(q.push(0, "a").expect("admitted"), 1);
        assert_eq!(q.push(0, "b").expect("admitted"), 2);
        assert_eq!(q.push(9, "c"), Err(Refused::Full), "priority buys no slot");
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.push(0, "c").expect("a pop frees a slot"), 2);
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(0, "d"), Err(Refused::Closed));
        assert_eq!(q.pop(), Some(("b", 1)), "closing drops nothing already admitted");
        assert_eq!(q.pop(), Some(("c", 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_for_a_push_and_ends_only_when_closed_and_empty() {
        let q = Scheduler::new(4);
        let (popped, seen) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some((job, _)) = q.pop() {
                    popped.send(Some(job)).expect("receiver outlives the scope");
                }
                popped.send(None).expect("receiver outlives the scope");
            });
            // Each push is made only after the previous job came back, so
            // the popper is blocked in `pop` on an empty, open queue when it
            // lands; a `pop` that gave up early would send `None` here.
            for job in 0..3 {
                q.push(0, job).expect("open and below high water");
                assert_eq!(seen.recv().expect("popper alive"), Some(job));
            }
            q.close();
            assert_eq!(seen.recv().expect("popper alive"), None);
        });
    }

    #[test]
    fn workers_run_every_job_exactly_once_and_a_panicking_job_cannot_wedge_the_join() {
        const JOBS: usize = 32;
        let engine = Engine::new(4, 4, JOBS, JOBS, None);
        let (done, ran) = mpsc::channel();
        for job in 0..JOBS {
            let done = done.clone();
            let run = move |_: &Engine, _: Popped| {
                assert_ne!(job, 5, "job 5 takes its worker down");
                done.send(job).expect("receiver outlives the workers");
            };
            engine.submit(0, run).expect("bound is the batch");
        }
        drop(done);
        engine.close();
        let workers = engine.start().expect("spawn workers");
        assert_eq!(workers.len(), 4);
        // Join-based quiescence: this returns although one worker died
        // mid-job, because nothing waits on a count it failed to lower.
        let panicked = workers.into_iter().filter_map(|w| w.join().err()).count();
        assert_eq!(panicked, 1);
        let mut ran: Vec<usize> = ran.iter().collect();
        ran.sort_unstable();
        let expected: Vec<usize> = (0..JOBS).filter(|&j| j != 5).collect();
        assert_eq!(ran, expected, "the surviving workers drained the rest, once each");
    }

    #[test]
    fn budget_splits_between_workers_and_kernels() {
        assert_eq!(split_budget(8, 0, 4), (4, 2), "auto split spends half the budget on workers");
        assert_eq!(split_budget(8, 0, 1), (1, 8), "workers never exceed the cap");
        assert_eq!(split_budget(4, 3, 8), (3, 1));
        assert_eq!(split_budget(1, 0, usize::MAX), (1, 1), "never zero workers");
        assert_eq!(split_budget(2, 2, 0), (1, 2), "an empty batch still plans one worker");
    }
}
