//! [`ShardPool`]: a shared scoped-thread pool for intra-solve
//! parallelism.
//!
//! The pool separates two notions that are usually conflated:
//!
//! * **workers** — the number of logical chunks a job is split into.
//!   Each chunk owns its own scratch state (e.g. one slot of a
//!   `ShortcutWorkspace` arena), and chunk results are merged in chunk
//!   order, so the *output* of a pooled computation depends only on the
//!   worker count's chunk boundaries being deterministic — never on
//!   thread scheduling.
//! * **threads** — the number of OS threads actually spawned, capped at
//!   [`std::thread::available_parallelism`] so an oversubscribed request
//!   (say `shards=64` on a 1-core container) degrades to fewer threads
//!   instead of panicking or thrashing.
//!
//! Because results are concatenated in chunk-index order and chunk
//! boundaries depend only on `(tasks, workers)`, a pooled computation is
//! **bit-identical** across any thread count — including `threads = 1`,
//! where chunks run inline on the calling thread with no spawn at all.
//! The `DECSS_POOL_THREADS` environment variable overrides the detected
//! core count (it may *raise* it past `available_parallelism`; the
//! oversubscribed run is slower but still correct), which is how CI
//! exercises real multi-threaded execution on small containers.

use std::ops::Range;

/// Reads the thread cap: `DECSS_POOL_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
pub(crate) fn thread_cap() -> usize {
    if let Ok(v) = std::env::var("DECSS_POOL_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A scoped-thread pool with deterministic chunked fan-out.
///
/// Construction is cheap (no threads are kept alive between calls);
/// threads are spawned per [`ShardPool::run_chunks`] call via
/// [`std::thread::scope`], so borrowed data flows in without `Arc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPool {
    workers: usize,
    threads: usize,
}

impl ShardPool {
    /// Upper bound on logical workers: bounds per-worker scratch
    /// duplication (each worker may own a full workspace arena slot).
    pub const MAX_WORKERS: usize = 16;

    /// A pool honouring the `shards` hint: `hint` logical workers
    /// (clamped to `1..=MAX_WORKERS`; `0` means 1), threads capped at
    /// the detected core count (see [`thread cap`](ShardPool)).
    pub fn new(hint: usize) -> Self {
        Self::with_thread_cap(hint, usize::MAX)
    }

    /// Like [`ShardPool::new`] with an additional thread cap, used by
    /// the batch service so K queue workers × P pool threads never
    /// oversubscribes the host.
    pub fn with_thread_cap(hint: usize, cap: usize) -> Self {
        let workers = hint.clamp(1, Self::MAX_WORKERS);
        let threads = workers.min(thread_cap()).min(cap.max(1));
        ShardPool { workers, threads }
    }

    /// An exact `(workers, threads)` pool, bypassing the core-count cap
    /// — the determinism suites use this to force real multi-threaded
    /// execution on single-core containers. `threads` is clamped to
    /// `1..=workers`.
    pub fn with_threads(workers: usize, threads: usize) -> Self {
        let workers = workers.clamp(1, Self::MAX_WORKERS);
        ShardPool { workers, threads: threads.clamp(1, workers) }
    }

    /// The single-chunk, single-thread pool (pure sequential).
    pub fn sequential() -> Self {
        ShardPool { workers: 1, threads: 1 }
    }

    /// Logical chunk count jobs are split into.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// OS threads actually spawned per call.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool runs everything inline in one chunk.
    pub fn is_sequential(&self) -> bool {
        self.workers == 1
    }

    /// Number of chunks a job of `tasks` items splits into: capped by
    /// the worker count and the task count (no empty chunks).
    pub fn chunks(&self, tasks: usize) -> usize {
        self.workers.min(tasks)
    }

    /// Splits `0..tasks` into `min(states.len(), workers, tasks)`
    /// contiguous chunks, runs `f(state, range)` once per chunk (chunk
    /// `c` gets `states[c]`), and returns the chunk results **in chunk
    /// order**. Chunk boundaries are `c * tasks / k`, a pure function of
    /// `(tasks, k)` — never of scheduling — so any merge that folds the
    /// returned vector in order is deterministic.
    ///
    /// With one chunk or one thread the closure runs inline on the
    /// calling thread; otherwise chunks are distributed round-robin
    /// over scoped threads (a panicking chunk propagates on scope exit,
    /// like the sequential path).
    pub fn run_chunks<S, T>(
        &self,
        states: &mut [S],
        tasks: usize,
        f: impl Fn(&mut S, Range<usize>) -> T + Sync,
    ) -> Vec<T>
    where
        S: Send,
        T: Send,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let k = states.len().min(self.workers).min(tasks).max(1);
        let bounds: Vec<usize> = (0..=k).map(|c| c * tasks / k).collect();
        let threads = self.threads.min(k);
        if threads <= 1 {
            return states[..k]
                .iter_mut()
                .enumerate()
                .map(|(c, s)| f(s, bounds[c]..bounds[c + 1]))
                .collect();
        }
        let mut results: Vec<Option<T>> = Vec::new();
        results.resize_with(k, || None);
        std::thread::scope(|scope| {
            let f = &f;
            let bounds = &bounds[..];
            let mut batches: Vec<Vec<(usize, &mut S, &mut Option<T>)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (c, (state, slot)) in states[..k].iter_mut().zip(results.iter_mut()).enumerate() {
                batches[c % threads].push((c, state, slot));
            }
            for batch in batches {
                scope.spawn(move || {
                    for (c, state, slot) in batch {
                        *slot = Some(f(state, bounds[c]..bounds[c + 1]));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("pool chunk completed"))
            .collect()
    }
}

impl Default for ShardPool {
    /// Detected-parallelism pool: as many workers as the thread cap.
    fn default() -> Self {
        ShardPool::new(thread_cap())
    }
}

impl std::fmt::Display for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}w/{}t", self.workers, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every task index, gathered chunk by chunk in chunk order.
    fn indices(pool: &ShardPool, tasks: usize) -> Vec<usize> {
        let mut states = vec![(); pool.workers()];
        pool.run_chunks(&mut states, tasks, |_, range| range.collect::<Vec<_>>())
            .concat()
    }

    #[test]
    fn oversubscribed_hint_degrades_instead_of_panicking() {
        // Satellite: shards=64 on this 1-core container must clamp, not
        // panic — workers bounded by MAX_WORKERS, threads by the cores.
        let pool = ShardPool::new(64);
        assert_eq!(pool.workers(), ShardPool::MAX_WORKERS);
        assert!(pool.threads() >= 1);
        assert!(pool.threads() <= 64);
        assert_eq!(indices(&pool, 100), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_hint_means_sequential() {
        let pool = ShardPool::new(0);
        assert_eq!((pool.workers(), pool.threads()), (1, 1));
        assert!(pool.is_sequential());
        assert_eq!(ShardPool::sequential(), pool);
    }

    #[test]
    fn forced_threads_oversubscribe_correctly() {
        // with_threads bypasses the core cap: 4 real threads on any
        // host, results still in task order.
        let pool = ShardPool::with_threads(4, 4);
        assert_eq!((pool.workers(), pool.threads()), (4, 4));
        assert_eq!(indices(&pool, 37), (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_states_are_assigned_in_chunk_order() {
        let pool = ShardPool::with_threads(3, 2);
        let mut tags = vec![0u32, 0, 0];
        let ranges = pool.run_chunks(&mut tags, 10, |tag, range| {
            *tag += 1;
            (range.start, range.end)
        });
        // Chunk boundaries are c * tasks / k and cover 0..tasks exactly.
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(tags, vec![1, 1, 1]);
    }

    #[test]
    fn more_chunks_than_tasks_collapses() {
        let pool = ShardPool::with_threads(8, 8);
        assert_eq!(pool.chunks(3), 3);
        assert_eq!(indices(&pool, 3), vec![0, 1, 2]);
        assert!(indices(&pool, 0).is_empty());
    }

    #[test]
    fn thread_cap_env_override_is_clamped_to_workers() {
        // Can't set the env var here (process-global, tests run in
        // parallel) — but the workers bound always applies.
        let pool = ShardPool::with_threads(2, 64);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn labels() {
        assert_eq!(ShardPool::with_threads(4, 2).to_string(), "4w/2t");
    }
}
