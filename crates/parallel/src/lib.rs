//! Std-only data parallelism with deterministic merge order.
//!
//! The batch drivers in this workspace — all-pairs distance, graph
//! eccentricities, bulk route computation, simulator route precomputation —
//! are embarrassingly parallel, but the workspace builds fully offline with
//! no external dependencies, so rayon is out. This crate provides the small
//! slice of it the drivers need, on `std::thread::scope` alone:
//!
//! * a **chunked dynamic work queue**: workers claim fixed-size index
//!   chunks from an atomic counter, so uneven per-item cost (BFS from a
//!   high-eccentricity vertex, a long route) load-balances instead of
//!   stalling a static partition;
//! * **deterministic merge order**: each chunk remembers its start index
//!   and results are reassembled in index order, so the output is
//!   *byte-identical* regardless of thread count or scheduling — `--threads
//!   8` must equal `--threads 1` exactly (and tests assert it);
//! * **per-worker scratch**: [`map_range_with`] gives every worker one
//!   lazily-created scratch value, the hook the zero-allocation routing and
//!   matching kernels need.
//!
//! Worker panics propagate to the caller (via `std::thread::scope`), so a
//! panicking item behaves the same single- or multi-threaded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested thread count: `0` means "use the machine's
/// available parallelism", anything else is taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Maps `f` over `0..n` on up to `threads` scoped workers, returning the
/// results in index order.
///
/// With `threads <= 1` (or `n <= 1`) the map runs inline on the calling
/// thread — no spawn, no queue. `threads == 0` resolves to the machine's
/// available parallelism.
///
/// # Examples
///
/// ```
/// let squares = debruijn_parallel::map_range(4, 10, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
pub fn map_range<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_range_with(threads, n, || (), |(), i| f(i))
}

/// Maps `f` over the items of a slice on up to `threads` scoped workers,
/// returning the results in slice order.
pub fn map_slice<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_range(threads, items.len(), |i| f(&items[i]))
}

/// Like [`map_range`], with one `init()`-created scratch value per worker
/// threaded through its calls (workers see disjoint index subsets; the
/// inline path uses a single scratch for all of `0..n`).
///
/// This is the entry point for kernels with reusable buffers: the scratch
/// must not influence results, only amortize allocations.
pub fn map_range_with<S, R, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let threads = effective_threads(threads);
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    // Small chunks load-balance uneven items; the clamp keeps queue
    // traffic negligible. Chunking affects only scheduling, never results.
    let chunk = (n / (threads * 8)).clamp(1, 1024);
    let nchunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(nchunks));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(nchunks) {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(n);
                    let out: Vec<R> = (start..end).map(|i| f(&mut scratch, i)).collect();
                    done.lock().unwrap().push((start, out));
                }
            });
        }
    });
    let mut chunks = done.into_inner().unwrap();
    // Reassembly by chunk start index makes the merge order — and thus
    // the caller-visible output — independent of thread scheduling.
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut v) in chunks {
        out.append(&mut v);
    }
    out
}

/// Maps `f` over `0..n` split into contiguous chunks of (at most)
/// `chunk` indices, returning one result per chunk in chunk order.
///
/// Unlike [`map_range`], the *caller* fixes the chunk geometry, so the
/// partition itself is part of the contract: callers that fold each
/// chunk into a partial aggregate (a metrics shard, a partial sum) get
/// the same partition — and therefore the same per-chunk results —
/// for every thread count. Workers still claim chunks dynamically, and
/// results are reassembled in chunk order.
///
/// # Panics
///
/// Panics if `chunk == 0` and `n > 0`.
///
/// # Examples
///
/// ```
/// let sums = debruijn_parallel::map_chunks(4, 10, 4, |r| r.sum::<usize>());
/// assert_eq!(sums, vec![0 + 1 + 2 + 3, 4 + 5 + 6 + 7, 8 + 9]);
/// ```
pub fn map_chunks<R, F>(threads: usize, n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    assert!(chunk > 0, "chunk size must be positive");
    let nchunks = n.div_ceil(chunk);
    let range_of = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    let threads = effective_threads(threads);
    if threads <= 1 || nchunks <= 1 {
        return (0..nchunks).map(|c| f(range_of(c))).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(nchunks));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(nchunks) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= nchunks {
                    break;
                }
                let out = f(range_of(c));
                done.lock().unwrap().push((c, out));
            });
        }
    });
    let mut chunks = done.into_inner().unwrap();
    chunks.sort_unstable_by_key(|&(c, _)| c);
    chunks.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f(worker)` for `workers` scoped workers, ids `0..workers`.
///
/// Worker 0 runs on the calling thread (so `workers <= 1` spawns
/// nothing); the rest run on scoped threads, and panics propagate. This
/// is the spawn layer of time-stepped drivers: callers pair it with a
/// [`TickBarrier`] and keep the same worker ids across every tick, so
/// per-worker state stays thread-local for the whole run instead of
/// being re-distributed per tick.
pub fn run_workers<F>(workers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        f(0);
        return;
    }
    std::thread::scope(|scope| {
        for w in 1..workers {
            let f = &f;
            scope.spawn(move || f(w));
        }
        f(0);
    });
}

/// A reusable rendezvous for lockstep (time-stepped) parallel drivers:
/// all workers finish tick `T`, publish the next tick they each need,
/// and every worker learns the global minimum before anyone proceeds.
///
/// This is the conservative-simulation barrier: with a known lookahead
/// `L = service + latency`, a worker may process every event in the
/// window `[T, T + L)` without coordination, then
/// [`TickBarrier::sync_min`] both separates the phases and elects the
/// next tick. `u64::MAX` means "nothing left"; when every worker says
/// so, the returned minimum signals termination.
///
/// The implementation is a spinning min-reduction with per-worker
/// generation counters and parity-indexed value slots — no mutex, no
/// condvar, no syscall on the fast path. A `std::sync::Barrier` round
/// costs two mutex/condvar waits (microseconds when workers park);
/// simulator windows are often shorter than that, which is how the
/// PR 5 engine lost its parallelism (`speedup_vs_1_thread = 1.0` in
/// BENCH_results.json — see docs/SCALING.md). Spins yield to the
/// scheduler after a short busy phase, so oversubscribed boxes (more
/// workers than cores) still make progress.
///
/// # Examples
///
/// ```
/// use debruijn_parallel::TickBarrier;
///
/// let barrier = TickBarrier::new(2);
/// debruijn_parallel::run_workers(2, |w| {
///     // Worker 0 next needs tick 7, worker 1 tick 3: both learn 3.
///     let next = barrier.sync_min(w, if w == 0 { 7 } else { 3 });
///     assert_eq!(next, 3);
/// });
/// ```
pub struct TickBarrier {
    /// `gens[w]`: rounds worker `w` has completed publishing. Padded to
    /// a cache line so spinning on one worker's counter does not
    /// false-share with its neighbors.
    gens: Vec<CachePadded<std::sync::atomic::AtomicU64>>,
    /// `vals[r & 1][w]`: worker `w`'s published tick for round `r`.
    /// Two parity slots suffice: a worker can only start publishing
    /// round `r + 2` after every worker finished *reading* round `r`
    /// (it must first observe everyone at generation `r + 1`).
    vals: [Vec<CachePadded<std::sync::atomic::AtomicU64>>; 2],
}

/// Pads a value to its own cache line(s) to prevent false sharing
/// between per-worker atomics. 128 bytes covers the adjacent-line
/// prefetcher on common x86 parts.
#[repr(align(128))]
struct CachePadded<T>(T);

impl TickBarrier {
    /// A barrier for `workers` participants (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let column = |value: u64| {
            (0..workers)
                .map(|_| CachePadded(std::sync::atomic::AtomicU64::new(value)))
                .collect::<Vec<_>>()
        };
        Self {
            gens: column(0),
            vals: [column(u64::MAX), column(u64::MAX)],
        }
    }

    /// Number of participating workers.
    pub fn workers(&self) -> usize {
        self.gens.len()
    }

    /// Publishes this worker's next-needed tick and returns the minimum
    /// over all workers. Blocks (spinning, then yielding) until every
    /// worker has called in; all workers observe the same minimum for
    /// the same round.
    ///
    /// The release store of the generation counter orders each worker's
    /// pre-call writes before every other worker's post-call reads — the
    /// same happens-before edge a `std::sync::Barrier` provides — so
    /// callers may hand off arbitrary data (e.g. mailbox contents)
    /// across the rendezvous.
    pub fn sync_min(&self, worker: usize, local: u64) -> u64 {
        let mut wait = BarrierWait::default();
        self.sync_inner::<false>(worker, local, &mut wait)
    }

    /// [`TickBarrier::sync_min`] with wait accounting: wall-clock time,
    /// spin iterations, and yields spent inside the rendezvous are
    /// added to `wait`. The synchronization protocol is identical; the
    /// untimed entry point compiles with every accounting branch
    /// removed (`TIMED` is a const), so instrumentation is zero-cost
    /// when unused.
    pub fn sync_min_timed(&self, worker: usize, local: u64, wait: &mut BarrierWait) -> u64 {
        self.sync_inner::<true>(worker, local, wait)
    }

    fn sync_inner<const TIMED: bool>(
        &self,
        worker: usize,
        local: u64,
        wait: &mut BarrierWait,
    ) -> u64 {
        use std::sync::atomic::Ordering;
        if TIMED {
            wait.rounds += 1;
        }
        if self.gens.len() == 1 {
            return local;
        }
        let started = TIMED.then(std::time::Instant::now);
        let round = self.gens[worker].0.load(Ordering::Relaxed) + 1;
        let slot = &self.vals[(round & 1) as usize];
        slot[worker].0.store(local, Ordering::Relaxed);
        self.gens[worker].0.store(round, Ordering::Release);
        let mut min = local;
        for (peer, gen) in self.gens.iter().enumerate() {
            if peer == worker {
                continue;
            }
            let mut spins = 0u32;
            while gen.0.load(Ordering::Acquire) < round {
                if spins < 128 {
                    spins += 1;
                    if TIMED {
                        wait.spins += 1;
                    }
                    std::hint::spin_loop();
                } else {
                    if TIMED {
                        wait.yields += 1;
                    }
                    std::thread::yield_now();
                }
            }
            // The acquire above synchronized with the peer's release of
            // generation >= round, which happens after its round-value
            // store — a relaxed read suffices (and a peer one round
            // ahead writes the *other* parity slot, never this one).
            min = min.min(slot[peer].0.load(Ordering::Relaxed));
        }
        if let Some(started) = started {
            wait.nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        min
    }
}

/// Accumulated barrier-wait accounting for one worker, filled by
/// [`TickBarrier::sync_min_timed`]: how long (and how busily) the
/// worker sat at the rendezvous waiting for its slowest peer. This is
/// the number that explains a flat `speedup_vs_1_thread` — compute
/// imbalance shows up here, not in the compute timers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BarrierWait {
    /// Wall-clock nanoseconds inside the rendezvous (publish to fold).
    pub nanos: u64,
    /// Busy-spin iterations while waiting for peers.
    pub spins: u64,
    /// `yield_now` calls after the spin budget ran out.
    pub yields: u64,
    /// Rendezvous rounds crossed (windows + the seeding round).
    pub rounds: u64,
}

impl BarrierWait {
    /// Folds another worker's accounting into this one.
    pub fn merge(&mut self, other: &BarrierWait) {
        self.nanos += other.nanos;
        self.spins += other.spins;
        self.yields += other.yields;
        self.rounds += other.rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 17] {
            let got = map_range(threads, 1000, |i| i * 3);
            assert_eq!(got, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn multithreaded_output_is_identical_to_single_threaded() {
        // Uneven per-item cost provokes out-of-order chunk completion.
        let work = |i: usize| -> u64 {
            let spins = if i.is_multiple_of(97) { 10_000 } else { 10 };
            (0..spins).fold(i as u64, |acc, s| {
                acc.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(s as u64)
            })
        };
        let serial = map_range(1, 5000, work);
        let parallel = map_range(8, 5000, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_slice_preserves_order() {
        let items: Vec<String> = (0..257).map(|i| format!("item-{i}")).collect();
        let got = map_slice(4, &items, |s| s.len());
        let want: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn per_worker_scratch_is_reused_not_shared() {
        // Each worker's scratch counts its own items; totals must add up
        // to n even though workers race for chunks.
        let counted = map_range_with(
            4,
            1000,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(counted.len(), 1000);
        // Index order is preserved regardless of which worker ran what.
        assert!(counted.iter().enumerate().all(|(idx, &(i, _))| idx == i));
        // No worker saw more items than exist.
        assert!(counted.iter().all(|&(_, seen)| seen <= 1000));
    }

    #[test]
    fn empty_and_singleton_ranges_run_inline() {
        assert_eq!(map_range(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_range(8, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(5), 5);
        // And the mapping still works with the resolved count.
        assert_eq!(map_range(0, 10, |i| i).len(), 10);
    }

    #[test]
    fn map_chunks_partition_is_independent_of_thread_count() {
        let serial = map_chunks(1, 1003, 17, |r| (r.start, r.end, r.sum::<usize>()));
        for threads in [2, 4, 16] {
            let parallel = map_chunks(threads, 1003, 17, |r| (r.start, r.end, r.sum::<usize>()));
            assert_eq!(serial, parallel);
        }
        // The chunks tile 0..n exactly.
        let mut expect = 0;
        for &(start, end, _) in &serial {
            assert_eq!(start, expect);
            assert!(end - start <= 17);
            expect = end;
        }
        assert_eq!(expect, 1003);
    }

    #[test]
    fn map_chunks_handles_empty_and_oversized_chunks() {
        assert_eq!(map_chunks(4, 0, 8, |r| r.len()), Vec::<usize>::new());
        // One chunk covers everything when chunk >= n.
        assert_eq!(map_chunks(4, 5, 100, |r| (r.start, r.end)), vec![(0, 5)]);
    }

    #[test]
    fn run_workers_covers_every_id_once() {
        for workers in [1, 2, 5] {
            let seen: Vec<std::sync::atomic::AtomicUsize> = (0..workers)
                .map(|_| std::sync::atomic::AtomicUsize::new(0))
                .collect();
            run_workers(workers, |w| {
                seen[w].fetch_add(1, Ordering::Relaxed);
            });
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn sync_min_agrees_across_rounds_and_workers() {
        for workers in [1, 2, 4] {
            let barrier = TickBarrier::new(workers);
            let mins: Mutex<Vec<Vec<u64>>> = Mutex::new(vec![Vec::new(); workers]);
            run_workers(workers, |w| {
                // Round r: worker w publishes r * 10 + w; the global
                // minimum is r * 10 (worker 0's value) every round.
                for r in 0..50u64 {
                    let got = barrier.sync_min(w, r * 10 + w as u64);
                    mins.lock().unwrap()[w].push(got);
                }
            });
            let mins = mins.into_inner().unwrap();
            for per_worker in mins {
                let want: Vec<u64> = (0..50).map(|r| r * 10).collect();
                assert_eq!(per_worker, want);
            }
        }
    }

    #[test]
    fn sync_min_terminates_on_unanimous_max() {
        let barrier = TickBarrier::new(3);
        run_workers(3, |w| {
            assert_eq!(barrier.sync_min(w, u64::MAX), u64::MAX);
        });
    }

    #[test]
    fn sync_min_timed_returns_the_same_minima_and_counts_rounds() {
        for workers in [1, 2, 4] {
            let barrier = TickBarrier::new(workers);
            let waits: Mutex<Vec<BarrierWait>> = Mutex::new(vec![BarrierWait::default(); workers]);
            let mins: Mutex<Vec<Vec<u64>>> = Mutex::new(vec![Vec::new(); workers]);
            run_workers(workers, |w| {
                let mut wait = BarrierWait::default();
                for r in 0..20u64 {
                    let got = barrier.sync_min_timed(w, r * 10 + w as u64, &mut wait);
                    mins.lock().unwrap()[w].push(got);
                }
                waits.lock().unwrap()[w] = wait;
            });
            for per_worker in mins.into_inner().unwrap() {
                let want: Vec<u64> = (0..20).map(|r| r * 10).collect();
                assert_eq!(per_worker, want, "workers {workers}");
            }
            for wait in waits.into_inner().unwrap() {
                assert_eq!(wait.rounds, 20, "workers {workers}");
                // A single worker never waits; with peers the timer may
                // legitimately read 0 ns on a fast rendezvous, so only
                // the round count is asserted exactly.
                if workers == 1 {
                    assert_eq!(
                        wait,
                        BarrierWait {
                            rounds: 20,
                            ..BarrierWait::default()
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn barrier_wait_merge_adds_fields() {
        let mut a = BarrierWait {
            nanos: 5,
            spins: 2,
            yields: 1,
            rounds: 3,
        };
        a.merge(&BarrierWait {
            nanos: 10,
            spins: 4,
            yields: 0,
            rounds: 7,
        });
        assert_eq!(
            a,
            BarrierWait {
                nanos: 15,
                spins: 6,
                yields: 1,
                rounds: 10,
            }
        );
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            map_range(4, 100, |i| {
                assert!(i != 57, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
