//! # shapefrag-sched
//!
//! A dependency-free work-stealing scheduler for the parallel validation
//! and extraction engines (DESIGN.md §12).
//!
//! Work units carry a static **cost** (the analyze crate's per-shape cost
//! class scaled by chunk size). A run starts with all units in one global
//! pool sorted by cost; workers pull batches off the expensive end, execute
//! the dearest unit immediately, stash the rest in a per-worker local
//! deque, and — when both their deque and the pool run dry — steal the
//! *cheapest* unit from a pseudo-randomly chosen victim. Expensive shapes
//! therefore launch first and cheap ones backfill idle workers, which keeps
//! the makespan close to the critical path without any dynamic profiling.
//!
//! Threads come from `std::thread::scope`; locks come from the vendored
//! `parking_lot` shim (non-poisoning, so a panicking unit cannot wedge its
//! siblings' queues). With `threads <= 1`
//! (or a single unit) the scheduler degenerates to an inline loop with no
//! spawns and no locks, so the single-threaded overhead over a plain
//! `for` loop is a sort.
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// One schedulable unit: an opaque item plus its static cost estimate.
/// Higher cost ⇒ dispatched earlier.
#[derive(Debug)]
pub struct WorkUnit<T> {
    /// Static priority; units are dispatched in descending cost order.
    pub cost: u64,
    /// The payload handed to the worker callback.
    pub item: T,
}

/// Aggregate counters for one scheduler run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Worker threads actually used (after clamping to the unit count).
    pub threads: usize,
    /// Total work units executed.
    pub units: usize,
    /// Successful steals from another worker's local deque.
    pub steals: u64,
    /// Batch refills from the global pool.
    pub refills: u64,
    /// Summed wall-clock nanoseconds workers spent executing units.
    pub busy_nanos: u64,
    /// Summed wall-clock nanoseconds workers spent looking for work.
    pub idle_nanos: u64,
    /// Shape definitions the planner settled without evaluation (answers
    /// derived from an equivalent definition's memo bits). Filled by the
    /// containment-aware drivers; the scheduler itself leaves it 0.
    pub shapes_skipped: u64,
    /// `(shape, node)` conformance answers derived through containment
    /// edges instead of evaluation. Filled by the drivers.
    pub checks_derived: u64,
    /// Containment lookups that found no derivable answer, so the pair
    /// was evaluated. Filled by the drivers.
    pub derive_misses: u64,
    /// Target lists reused from an earlier definition with a syntactically
    /// identical target shape, instead of re-resolving. Filled by the
    /// drivers.
    pub targets_deduped: u64,
}

impl RunStats {
    /// Fraction of total worker wall-clock spent idle (0.0 when the run
    /// never left the inline fast path).
    pub fn idle_fraction(&self) -> f64 {
        let total = self.busy_nanos + self.idle_nanos;
        if total == 0 {
            0.0
        } else {
            self.idle_nanos as f64 / total as f64
        }
    }
}

/// Deterministic xorshift64* stream for victim selection; seeded per
/// worker so runs are reproducible under `RUST_TEST_THREADS=1` stress.
struct XorShift(u64);

impl XorShift {
    fn new(worker: usize) -> XorShift {
        XorShift((worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Per-worker counters folded into [`RunStats`] after the join.
#[derive(Default)]
struct WorkerStats {
    steals: u64,
    refills: u64,
    busy_nanos: u64,
    idle_nanos: u64,
}

/// Runs `units` across `threads` workers with cost-ordered work stealing.
///
/// - `init(worker)` builds the worker-local state (a validation `Context`
///   with its own path cache and frontier scratch, say) on the worker's
///   own thread.
/// - `work(state, item)` executes one unit; units may run in any order and
///   on any worker, so `work` must not depend on execution order.
/// - `finish(worker, state)` converts the final state into the worker's
///   result; the returned `Vec` is indexed by worker.
///
/// The scheduler never reorders *results* — callers that need determinism
/// tag items with a planning-order sequence number and merge on it.
pub fn run<T, S, R>(
    units: Vec<WorkUnit<T>>,
    threads: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, T) + Sync,
    finish: impl Fn(usize, S) -> R + Sync,
) -> (Vec<R>, RunStats)
where
    T: Send,
    R: Send,
{
    let n_units = units.len();
    let threads = threads.max(1).min(n_units.max(1));
    // Ascending sort: popping from the tail yields the most expensive
    // remaining unit. The sort is stable so equal-cost units keep planning
    // order, which makes single-threaded runs bit-for-bit reproducible.
    let mut pool = units;
    pool.sort_by_key(|u| u.cost);

    if threads <= 1 {
        // Inline fast path: no spawns, no locks, no atomics.
        let start = Instant::now();
        let mut state = init(0);
        let executed = pool.len();
        while let Some(unit) = pool.pop() {
            work(&mut state, unit.item);
        }
        let busy = start.elapsed().as_nanos() as u64;
        let results = vec![finish(0, state)];
        return (
            results,
            RunStats {
                threads: 1,
                units: executed,
                busy_nanos: busy,
                ..RunStats::default()
            },
        );
    }

    let remaining = AtomicUsize::new(n_units);
    let global: Mutex<Vec<WorkUnit<T>>> = Mutex::new(pool);
    let locals: Vec<Mutex<VecDeque<WorkUnit<T>>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();

    let worker_loop = |me: usize| -> (R, WorkerStats) {
        let mut rng = XorShift::new(me);
        let mut stats = WorkerStats::default();
        let mut state = init(me);
        loop {
            // 1. Own deque, expensive end first.
            let mut unit = locals[me].lock().pop_front();
            // 2. Refill a batch from the global pool's expensive end.
            if unit.is_none() {
                let mut pool = global.lock();
                if !pool.is_empty() {
                    stats.refills += 1;
                    let batch = (pool.len().div_ceil(threads)).clamp(1, 8);
                    unit = pool.pop();
                    if batch > 1 {
                        let mut local = locals[me].lock();
                        // Tail pops arrive in descending cost order, so
                        // push_back keeps the deque's front the dearest.
                        for _ in 1..batch {
                            match pool.pop() {
                                Some(u) => local.push_back(u),
                                None => break,
                            }
                        }
                    }
                }
            }
            // 3. Steal the *cheapest* unit from a random victim, leaving
            //    the victim its expensive work (locality + less contention).
            if unit.is_none() {
                for _ in 0..2 * threads {
                    let victim = (rng.next() % threads as u64) as usize;
                    if victim == me {
                        continue;
                    }
                    if let Some(stolen) = locals[victim].lock().pop_back() {
                        stats.steals += 1;
                        unit = Some(stolen);
                        break;
                    }
                }
            }
            match unit {
                Some(unit) => {
                    let t0 = Instant::now();
                    work(&mut state, unit.item);
                    stats.busy_nanos += t0.elapsed().as_nanos() as u64;
                    remaining.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    // All queues looked empty; either we are done or a
                    // peer is still executing (and may repopulate queues
                    // it drained into its local). Spin politely.
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    let t0 = Instant::now();
                    std::thread::yield_now();
                    stats.idle_nanos += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        (finish(me, state), stats)
    };

    let per_worker: Vec<(R, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|me| scope.spawn(move || worker_loop(me)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheduler worker panicked"))
            .collect()
    });

    let mut stats = RunStats {
        threads,
        units: n_units,
        ..RunStats::default()
    };
    let mut results = Vec::with_capacity(threads);
    for (r, w) in per_worker {
        stats.steals += w.steals;
        stats.refills += w.refills;
        stats.busy_nanos += w.busy_nanos;
        stats.idle_nanos += w.idle_nanos;
        results.push(r);
    }
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(costs: &[u64]) -> Vec<WorkUnit<u64>> {
        costs
            .iter()
            .map(|&c| WorkUnit { cost: c, item: c })
            .collect()
    }

    #[test]
    fn executes_every_unit_exactly_once_inline() {
        let (results, stats) = run(
            units(&[3, 1, 4, 1, 5, 9, 2, 6]),
            1,
            |_| 0u64,
            |acc, item| *acc += item,
            |_, acc| acc,
        );
        assert_eq!(results.iter().sum::<u64>(), 31);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.units, 8);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn inline_path_runs_expensive_units_first() {
        let (results, _) = run(
            units(&[2, 9, 4]),
            1,
            |_| Vec::new(),
            |order: &mut Vec<u64>, item| order.push(item),
            |_, order| order,
        );
        assert_eq!(results[0], vec![9, 4, 2]);
    }

    #[test]
    fn executes_every_unit_exactly_once_parallel() {
        let costs: Vec<u64> = (1..=100).collect();
        let expected: u64 = costs.iter().sum();
        for threads in [2, 4, 8] {
            let (results, stats) = run(
                units(&costs),
                threads,
                |_| 0u64,
                |acc, item| *acc += item,
                |_, acc| acc,
            );
            assert_eq!(results.iter().sum::<u64>(), expected, "{threads} threads");
            assert_eq!(stats.units, 100);
            assert_eq!(stats.threads, threads);
        }
    }

    #[test]
    fn clamps_workers_to_unit_count() {
        let (results, stats) = run(
            units(&[7, 7]),
            8,
            |_| 0u64,
            |acc, item| *acc += item,
            |_, acc| acc,
        );
        assert_eq!(stats.threads, 2);
        assert_eq!(results.len(), 2);
        assert_eq!(results.iter().sum::<u64>(), 14);
    }

    #[test]
    fn empty_run_is_fine() {
        let (results, stats) = run(
            Vec::<WorkUnit<u64>>::new(),
            4,
            |_| (),
            |_, _| {},
            |me, _| me,
        );
        assert_eq!(results, vec![0]);
        assert_eq!(stats.units, 0);
    }

    #[test]
    fn worker_state_is_private_until_finish() {
        // Each worker counts its own units; the totals must cover all
        // units with no double execution.
        let costs: Vec<u64> = (0..257).map(|i| i % 13).collect();
        let (counts, stats) = run(units(&costs), 4, |_| 0usize, |n, _| *n += 1, |_, n| n);
        assert_eq!(counts.iter().sum::<usize>(), 257);
        assert_eq!(stats.units, 257);
    }

    #[test]
    fn idle_fraction_is_bounded() {
        let (_, stats) = run(
            units(&(0..64).collect::<Vec<u64>>()),
            4,
            |_| (),
            |_, item| {
                std::hint::black_box((0..item * 10).sum::<u64>());
            },
            |_, _| (),
        );
        let f = stats.idle_fraction();
        assert!((0.0..=1.0).contains(&f), "idle fraction {f} out of range");
    }
}
