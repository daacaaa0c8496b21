//! The one request scheduler under both front ends: [`FlowServer`] batches
//! and flowd's socket submits share this queue, this worker loop
//! (`while let Some((job, depth)) = queue.pop()`), this thread-budget split.
//!
//! A [`Scheduler`] is a bounded, priority-first, admission-stable queue plus
//! a `closed` flag under one mutex and one condvar. Jobs are whole flows —
//! 10^5–10^6 µs each, a few tens per queue — so a mutex-guarded pop costs
//! nothing measurable and per-worker queues that rebalance among themselves
//! buy nothing (DESIGN.md §10). Draining is [`Scheduler::close`] followed by
//! joining the workers: quiescence is "the workers have returned", so there
//! is no running count to keep in step and a job that panics cannot wedge a
//! drain.
//!
//! [`FlowServer`]: crate::server::FlowServer

use eda_par::resolve_threads;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why [`Scheduler::push`] refused a job. The job is handed back.
#[derive(Debug)]
pub(crate) enum Refused<T> {
    /// The queue already holds `high_water` jobs.
    Full(T),
    /// [`Scheduler::close`] has been called.
    Closed(T),
}

struct State<T> {
    /// Priority descending, admission order within a priority.
    queue: VecDeque<(i64, T)>,
    closed: bool,
}

pub(crate) struct Scheduler<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    high_water: usize,
}

impl<T> Scheduler<T> {
    /// An open, empty queue that admits at most `high_water` waiting jobs.
    pub(crate) fn new(high_water: usize) -> Scheduler<T> {
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
    pub(crate) fn push(&self, priority: i64, job: T) -> Result<usize, Refused<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(Refused::Closed(job));
        }
        if st.queue.len() >= self.high_water {
            return Err(Refused::Full(job));
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
    pub(crate) fn pop(&self) -> Option<(T, usize)> {
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
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Splits one global budget of `threads` (`0` = all cores) into
/// `(workers, kernel_threads)`: concurrent requests, and the threads each
/// request's kernels get. `workers == 0` spends half the budget on workers;
/// `cap` bounds them (a batch has no use for more workers than requests).
pub(crate) fn split_budget(threads: usize, workers: usize, cap: usize) -> (usize, usize) {
    let budget = resolve_threads(threads);
    let workers = if workers == 0 { budget / 2 } else { workers }.clamp(1, cap.max(1));
    (workers, (budget / workers).max(1))
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
    fn a_refused_job_is_handed_back_with_the_reason() {
        let q = Scheduler::new(2);
        assert_eq!(q.push(0, "a").expect("admitted"), 1);
        assert_eq!(q.push(0, "b").expect("admitted"), 2);
        assert!(matches!(q.push(9, "c"), Err(Refused::Full("c"))), "priority buys no slot");
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.push(0, "c").expect("a pop frees a slot"), 2);
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert!(matches!(q.push(0, "d"), Err(Refused::Closed("d"))));
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
        let q = Scheduler::new(JOBS);
        for job in 0..JOBS {
            q.push(0, job).expect("bound is the batch");
        }
        q.close();
        let (done, ran) = mpsc::channel();
        let panicked = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let (q, done) = (&q, done.clone());
                    scope.spawn(move || {
                        while let Some((job, _)) = q.pop() {
                            assert_ne!(job, 5, "job 5 takes its worker down");
                            done.send(job).expect("receiver outlives the scope");
                        }
                    })
                })
                .collect();
            // Join-based quiescence: this returns although one worker died
            // mid-job, because nothing waits on a count it failed to lower.
            workers.into_iter().filter_map(|w| w.join().err()).count()
        });
        drop(done);
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
