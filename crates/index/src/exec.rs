//! The chunked parallel executor.
//!
//! Queries split their candidate lists into fixed-size chunks and map a
//! worker function over them with `std::thread::scope` — no extra
//! dependencies, no thread pool to manage. Chunk boundaries depend only on
//! the chunk size, and results are re-assembled in chunk order, so the
//! output is identical for any thread count (including 1, which bypasses
//! the threads entirely).
//!
//! Workers that verify candidates need scratch memory: [`map_chunks_with`]
//! gives every worker thread one state value for its whole lifetime, and a
//! [`WorkspacePool`] recycles [`Workspace`]s across those workers — and
//! across queries — so candidate verification stops allocating once the
//! pool is warm.
//!
//! The executor itself is threshold-agnostic: the verification budget a
//! query carries (range/join `tau`, the top-k batch radius) is threaded
//! through the per-chunk closures in `striped.rs`, which hand it to
//! `rted_core::ted_within` alongside a pooled workspace.

use rted_core::Workspace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a query distributes work across threads.
#[derive(Debug, Clone, Copy)]
pub struct ExecPolicy {
    /// Worker threads (1 = run everything on the calling thread).
    pub threads: usize,
    /// Candidates per chunk; smaller chunks balance better, larger chunks
    /// amortize dispatch.
    pub chunk: usize,
}

impl ExecPolicy {
    /// A serial policy.
    pub fn serial() -> Self {
        ExecPolicy {
            threads: 1,
            chunk: 64,
        }
    }

    /// A policy with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads: threads.max(1),
            chunk: 64,
        }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        ExecPolicy { threads, chunk: 64 }
    }
}

/// Maps `f` over fixed-size chunks of `items`, in parallel when the policy
/// allows, returning per-chunk results in chunk order. `f` receives the
/// chunk's start offset within `items` and the chunk slice.
pub fn map_chunks<T, R, F>(items: &[T], policy: &ExecPolicy, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    map_chunks_with(items, policy, || (), |(), start, chunk| f(start, chunk))
}

/// [`map_chunks`] with per-worker state: `init` runs once per worker
/// thread (once total in the serial path), and the state is passed by
/// `&mut` to every chunk that worker processes, then dropped when the
/// worker finishes. Chunk boundaries and result order are identical to
/// [`map_chunks`] for any thread count — the state only carries scratch
/// (e.g. a [`Workspace`]), never data that influences results.
pub fn map_chunks_with<T, R, S, I, F>(items: &[T], policy: &ExecPolicy, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &[T]) -> R + Sync,
{
    let chunk = policy.chunk.max(1);
    let n_chunks = items.len().div_ceil(chunk);
    let threads = policy.threads.clamp(1, n_chunks.max(1));
    if threads <= 1 {
        let mut state = init();
        return (0..n_chunks)
            .map(|c| {
                let start = c * chunk;
                let end = (start + chunk).min(items.len());
                f(&mut state, start, &items[start..end])
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(items.len());
                    let r = f(&mut state, start, &items[start..end]);
                    slots.lock().unwrap().push((c, r));
                }
            });
        }
    });
    let mut collected = slots.into_inner().unwrap();
    collected.sort_by_key(|&(c, _)| c);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// A lock-protected stash of [`Workspace`]s shared by all queries of an
/// index: workers borrow one for their lifetime and return it on drop, so
/// verification scratch is allocated once per concurrency level and then
/// reused for every candidate of every subsequent query.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    pool: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Borrows a workspace (recycled if available, fresh otherwise); it
    /// returns to the pool when the guard drops.
    pub fn take(&self) -> PooledWorkspace<'_> {
        let ws = self.pool.lock().unwrap().pop().unwrap_or_default();
        PooledWorkspace {
            ws: Some(ws),
            pool: self,
        }
    }
}

/// RAII guard of a pooled [`Workspace`].
#[derive(Debug)]
pub struct PooledWorkspace<'p> {
    ws: Option<Workspace>,
    pool: &'p WorkspacePool,
}

impl PooledWorkspace<'_> {
    /// The borrowed workspace.
    pub fn get(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.pool.lock().unwrap().push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_pool_recycles() {
        let pool = WorkspacePool::new();
        {
            let mut guard = pool.take();
            let _ = guard.get();
        }
        assert_eq!(pool.pool.lock().unwrap().len(), 1);
        {
            let _a = pool.take();
            let _b = pool.take(); // concurrent takes get distinct workspaces
            assert_eq!(pool.pool.lock().unwrap().len(), 0);
        }
        assert_eq!(pool.pool.lock().unwrap().len(), 2);
    }

    #[test]
    fn map_chunks_with_state_per_worker() {
        // The per-worker state must not affect results: sum with a scratch
        // accumulator reset per chunk.
        let items: Vec<u64> = (0..500).collect();
        let stateful = map_chunks_with(
            &items,
            &ExecPolicy {
                threads: 4,
                chunk: 9,
            },
            Vec::<u64>::new,
            |buf, start, chunk| {
                buf.clear();
                buf.extend_from_slice(chunk);
                (start, buf.iter().sum::<u64>())
            },
        );
        let plain = map_chunks(
            &items,
            &ExecPolicy {
                threads: 1,
                chunk: 9,
            },
            |start, chunk| (start, chunk.iter().sum::<u64>()),
        );
        assert_eq!(stateful, plain);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = map_chunks(&items, &ExecPolicy::serial(), |start, chunk| {
            (start, chunk.iter().sum::<u64>())
        });
        let parallel = map_chunks(
            &items,
            &ExecPolicy {
                threads: 4,
                chunk: 7,
            },
            |start, chunk| (start, chunk.iter().sum::<u64>()),
        );
        let serial_small = map_chunks(
            &items,
            &ExecPolicy {
                threads: 1,
                chunk: 7,
            },
            |start, chunk| (start, chunk.iter().sum::<u64>()),
        );
        assert_eq!(parallel, serial_small);
        let total: u64 = serial.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        let out = map_chunks(&items, &ExecPolicy::default(), |_, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn covers_every_item_once() {
        let items: Vec<usize> = (0..503).collect();
        let chunks = map_chunks(
            &items,
            &ExecPolicy {
                threads: 3,
                chunk: 10,
            },
            |start, c| (start, c.to_vec()),
        );
        let mut flat = Vec::new();
        for (start, c) in chunks {
            assert_eq!(start, flat.len());
            flat.extend(c);
        }
        assert_eq!(flat, items);
    }
}
