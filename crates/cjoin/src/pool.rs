//! The **filter pool**: one set of CJOIN filter workers serving the fact
//! pages of *every* stage that runs on it.
//!
//! The paper's CJOIN runs its shared filters in a horizontal configuration:
//! the Global Query Plan speeds up as filter threads are added. Giving each
//! fact stage a fixed private crew instead leaves cores idle on a machine
//! with few live stages and over-subscribes one with many. The pool sizes
//! one crew to the machine and lets every stage draw from it, the way
//! morsel-driven engines share one worker pool across pipelines.
//!
//! * A stage's preprocessor takes one of the stage's **credits**
//!   ([`CjoinConfig::pipeline_depth`](crate::CjoinConfig::pipeline_depth)
//!   of them), then queues `(stage, page)` on the pool. A worker filters the
//!   page against that stage's epoch, hands the result to that stage's
//!   distributor queue and returns the credit. A stage therefore holds at
//!   most `pipeline_depth` pages in the pool — queued, filtering, or
//!   blocked on its own distributors — so one stage cannot crowd another
//!   out of the workers.
//! * The governed engine's stage registry owns one shared pool for all its
//!   stages, sized by [`FilterPool::machine_sized`]. A standalone
//!   [`CjoinStage::new`](crate::CjoinStage::new) owns a private pool of
//!   exactly `CjoinConfig::n_workers`, which reproduces the per-stage crew
//!   of the paper figures.
//! * Workers spawn with the first stage that registers, not when the pool
//!   is built, so an engine that never shares costs no threads.
//! * A worker never exits on a stage's behalf. A page of a torn-down stage
//!   is dropped (its distributor queue is closed) and the worker goes on
//!   serving the others; only [`FilterPool::shutdown`] stops it.

use std::collections::VecDeque;
use std::sync::Weak;

use workshare_common::sync::{Arc, AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};
use workshare_sim::{Machine, WaitSet};

use crate::epoch::EpochReader;
use crate::filter::FilterScratch;
use crate::stage::{FilterEpoch, StageInner, WorkBatch};

/// One fact page of one stage, queued on the pool.
pub(crate) struct PoolJob {
    pub(crate) stage: Arc<StageInner>,
    pub(crate) batch: WorkBatch,
}

/// The pool's job queue. Unbounded: each stage's credits bound its share.
/// A push wakes **one** idle worker, not the whole crew: idle workers
/// register under the queue lock after finding it empty, and a pusher
/// takes one of them under the same lock, so no wakeup is lost and a
/// machine-sized crew does not stampede on every page.
struct JobQueue {
    state: Mutex<JobState>,
    /// Per-worker wakeup: the raised flag plus the wait set it parks on.
    wakers: Vec<(AtomicBool, WaitSet)>,
}

struct JobState {
    jobs: VecDeque<PoolJob>,
    /// Workers parked on an empty queue, most recently idle last.
    idle: Vec<usize>,
    closed: bool,
}

impl JobQueue {
    fn new(machine: &Machine, n_workers: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(JobState {
                jobs: VecDeque::new(),
                idle: Vec::new(),
                closed: false,
            }),
            wakers: (0..n_workers)
                .map(|_| (AtomicBool::new(false), WaitSet::new(machine)))
                .collect(),
        }
    }

    fn wake(&self, w: usize) {
        let (flag, ws) = &self.wakers[w];
        flag.store(true, Ordering::Release);
        ws.notify_all();
    }

    fn push(&self, job: PoolJob) -> Result<(), PoolJob> {
        let idle = {
            let mut s = self.state.lock();
            if s.closed {
                return Err(job);
            }
            s.jobs.push_back(job);
            s.idle.pop()
        };
        if let Some(w) = idle {
            self.wake(w);
        }
        Ok(())
    }

    /// Worker `w`'s blocking pop: `None` once closed and drained.
    fn pop(&self, w: usize) -> Option<PoolJob> {
        loop {
            {
                let mut s = self.state.lock();
                if let Some(job) = s.jobs.pop_front() {
                    return Some(job);
                }
                if s.closed {
                    return None;
                }
                s.idle.push(w);
            }
            let (flag, ws) = &self.wakers[w];
            ws.wait_until(|| flag.swap(false, Ordering::AcqRel));
        }
    }

    fn close(&self) {
        let idle = {
            let mut s = self.state.lock();
            s.closed = true;
            std::mem::take(&mut s.idle)
        };
        for w in idle {
            self.wake(w);
        }
    }
}

struct PoolInner {
    machine: Machine,
    n_workers: usize,
    queue: JobQueue,
    /// Raised by the first [`FilterPool::register`], which spawns the
    /// workers.
    started: AtomicBool,
    /// Source of per-incarnation stage ids (see [`FilterPool::register`]).
    next_stage_id: AtomicU64,
}

/// A crew of CJOIN filter workers shared by the stages registered on it.
/// Cheap to clone.
#[derive(Clone)]
pub struct FilterPool {
    inner: Arc<PoolInner>,
}

impl FilterPool {
    /// A pool of `n_workers` filter workers (at least one) on `machine`.
    /// No worker runs until the first stage registers.
    pub fn new(machine: &Machine, n_workers: usize) -> FilterPool {
        let n_workers = n_workers.max(1);
        FilterPool {
            inner: Arc::new(PoolInner {
                machine: machine.clone(),
                n_workers,
                queue: JobQueue::new(machine, n_workers),
                started: AtomicBool::new(false),
                next_stage_id: AtomicU64::new(0),
            }),
        }
    }

    /// Size of an engine-wide pool: every core but one for a circular scan
    /// and one per admission-fabric worker, and never fewer than the
    /// per-stage crew (`n_workers`) a standalone stage would get.
    pub fn machine_sized(n_workers: usize, cores: usize, fabric_workers: usize) -> usize {
        n_workers.max(cores.saturating_sub(1 + fabric_workers))
    }

    /// Number of filter workers.
    pub fn n_workers(&self) -> usize {
        self.inner.n_workers
    }

    /// Stop every worker once the queued pages are drained (engine or
    /// private-owner shutdown).
    pub fn shutdown(&self) {
        self.inner.queue.close();
    }

    /// Register a stage incarnation: spawns the workers on first use and
    /// returns an id no other incarnation on this pool shares. Workers key
    /// their cached epoch readers by this id, never by the stage's address:
    /// a torn-down stage's allocation can be reused by its successor, and a
    /// reader keyed by address would then serve the successor the old
    /// stage's filters whenever the two epoch versions happen to coincide.
    pub(crate) fn register(&self) -> u64 {
        if !self.inner.started.swap(true, Ordering::AcqRel) {
            for w in 0..self.inner.n_workers {
                self.spawn_worker(w);
            }
        }
        self.inner.next_stage_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Queue one stamped page. The caller holds one of the stage's credits;
    /// on `Err` (pool shut down) the job comes back and the credit is the
    /// caller's to return.
    pub(crate) fn submit(&self, job: PoolJob) -> Result<(), PoolJob> {
        self.inner.queue.push(job)
    }

    fn spawn_worker(&self, idx: usize) {
        let inner = Arc::clone(&self.inner);
        self.inner
            .machine
            .clone()
            .spawn(&format!("cjoin-filter-{idx}"), move |ctx| {
                // Reusable per-worker scratch, shared by every stage: in
                // steady state the vectorized kernel performs zero heap
                // allocations per tuple.
                let mut scratch = FilterScratch::default();
                // Per-stage epoch readers: one `Acquire` version load per
                // page at steady state.
                let mut readers: Vec<(u64, Weak<StageInner>, EpochReader<FilterEpoch>)> =
                    Vec::new();
                while let Some(PoolJob { stage, batch }) = inner.queue.pop(idx) {
                    if !stage.is_shut_down() {
                        let at = match readers.iter().position(|r| r.0 == stage.pool_id) {
                            Some(i) => i,
                            None => {
                                // A new stage: drop the readers of torn-down
                                // ones, so they stop pinning their last epochs.
                                readers
                                    .retain(|r| r.1.upgrade().is_some_and(|s| !s.is_shut_down()));
                                readers.push((
                                    stage.pool_id,
                                    Arc::downgrade(&stage),
                                    stage.epoch.reader(),
                                ));
                                readers.len() - 1
                            }
                        };
                        let reader = &mut readers[at].2;
                        let dist = stage.filter_batch(ctx, batch, reader, &mut scratch);
                        // A stage torn down meanwhile has closed its
                        // distributor queue: the page is dropped and the
                        // worker serves the next stage.
                        let _ = stage.dist_q.push(Arc::new(dist));
                    }
                    stage.credits.release();
                }
            });
    }
}

/// A stage's pool credits: a counting semaphore in virtual time. The
/// preprocessor is the only acquirer; pool workers release.
pub(crate) struct Credits {
    free: AtomicUsize,
    ws: WaitSet,
}

impl Credits {
    pub(crate) fn new(machine: &Machine, n: usize) -> Credits {
        Credits {
            free: AtomicUsize::new(n.max(1)),
            ws: WaitSet::new(machine),
        }
    }

    /// Take one credit, blocking in virtual time while none is free.
    /// Returns `false` instead once `stop` is raised (stage shutdown, which
    /// calls [`Credits::wake`]).
    pub(crate) fn acquire(&self, stop: &AtomicBool) -> bool {
        self.ws.wait_for(|| {
            if stop.load(Ordering::Acquire) {
                return Some(false);
            }
            self.free
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .ok()
                .map(|_| true)
        })
    }

    /// Return one credit. Only the 0 → 1 step can unblock the acquirer: it
    /// parks only after seeing 0 and re-checks after registering, so a
    /// release that finds credits already free has nobody to wake.
    pub(crate) fn release(&self) {
        if self.free.fetch_add(1, Ordering::AcqRel) == 0 {
            self.ws.notify_all();
        }
    }

    /// Wake a blocked acquirer so it re-checks its stop flag.
    pub(crate) fn wake(&self) {
        self.ws.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_sized_leaves_a_scan_core_and_the_fabric_cores() {
        // 24 / 8 / 4 cores with the default crew of 6 and one fabric
        // worker: the storm, farm and stream machines of the benchmark.
        assert_eq!(FilterPool::machine_sized(6, 24, 1), 22);
        assert_eq!(FilterPool::machine_sized(6, 8, 1), 6);
        assert_eq!(FilterPool::machine_sized(6, 4, 1), 6);
        assert_eq!(FilterPool::machine_sized(6, 24, 3), 20);
        // Degenerate machines keep the per-stage floor.
        assert_eq!(FilterPool::machine_sized(6, 1, 1), 6);
    }
}
