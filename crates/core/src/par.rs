//! Parallel-execution helpers built on scoped threads.
//!
//! The matching engines fan work out in *waves* of independent rows (see
//! DESIGN.md); this module provides the small, dependency-free map primitive
//! they share. The caller passes the worker count — a session's thread count
//! (see [`crate::session::MatchSession::set_threads`]) — and a count of 1
//! degenerates to a plain loop on the calling thread. Every worker runs
//! exactly the same per-cell arithmetic over contiguous index chunks, so
//! results are bit-identical for every thread count by construction.

/// The default worker count of a new session: the `QMATCH_THREADS`
/// environment variable when set (clamped to at least 1), otherwise the
/// machine's available parallelism.
pub fn num_threads() -> usize {
    // The variable is checked first: querying the machine costs a syscall
    // and cgroup reads, paid only when the variable does not decide.
    parse_threads(std::env::var("QMATCH_THREADS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The `QMATCH_THREADS` parse rules behind [`num_threads`]: a number is
/// clamped to at least 1; junk or an unset variable gives `None` (use the
/// available parallelism).
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

/// Minimum number of similarity cells (`rows × cols`) before an engine
/// bothers spawning threads. Below this, thread startup dominates the work
/// of a whole match — the weight-sweep drivers run thousands of matches on
/// 6-node trees and must not pay a fork/join per wave.
pub const PAR_CELL_THRESHOLD: usize = 256;

/// Maps `f` over `0..n` on up to `threads` workers, preserving index order.
/// `f` must be a pure function of its index for every thread count to agree
/// — every caller in this crate satisfies that by writing rows out-of-place.
pub(crate) fn map_rows<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads.min(n) <= 1 {
        return (0..n).map(f).collect();
    }
    // Each worker collects its contiguous chunk; chunks come back in order.
    for_rows_with(n, threads, Vec::new, |out: &mut Vec<T>, i| out.push(f(i)))
        .into_iter()
        .flatten()
        .collect()
}

/// Runs `f` over `0..n` for side effects on up to `threads` workers, giving
/// each worker one state value built by `init` (scratch buffers, per-thread
/// counters). The per-worker states are returned after the join so the
/// caller can fold counters and recycle buffers — no atomics in the row
/// loop.
///
/// `f` must write its results out-of-band (e.g. into disjoint matrix rows):
/// unlike [`map_rows`] nothing is collected per index, which is what lets
/// the wavefront kernels write rows in place without a per-row `Vec`.
pub(crate) fn for_rows_with<S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        let mut state = init();
        for i in 0..n {
            f(&mut state, i);
        }
        return vec![state];
    }
    // Contiguous chunks, one per worker; states are returned in chunk
    // order, so per-index results fold back deterministically.
    let chunk = n.div_ceil(threads);
    let (init, f) = (&init, &f);
    let mut states = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                scope.spawn(move || {
                    let mut state = init();
                    for i in lo..hi {
                        f(&mut state, i);
                    }
                    state
                })
            })
            .collect();
        for handle in handles {
            states.push(handle.join().expect("qmatch worker thread panicked"));
        }
    });
    states
}

/// Calls `f(r, row)` for every `cols`-wide row `r` of `data` on up to
/// `threads` workers. Each worker owns one contiguous block of rows, cut
/// with `chunks_mut` in the same chunking as [`for_rows_with`], so rows are
/// written in place through plain `&mut` slices.
pub(crate) fn for_each_row_mut<T, F>(data: &mut [T], cols: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if cols == 0 {
        return;
    }
    let n = data.len() / cols;
    let threads = threads.min(n);
    if threads <= 1 {
        for (r, row) in data.chunks_mut(cols).enumerate() {
            f(r, row);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (w, block) in data.chunks_mut(chunk * cols).enumerate() {
            scope.spawn(move || {
                for (k, row) in block.chunks_mut(cols).enumerate() {
                    f(w * chunk + k, row);
                }
            });
        }
    });
}

/// Sets `out[idx[k] - idx[0]]` to `f(k)` for every `k` on up to `threads`
/// workers, in place: `idx` is strictly ascending and `out` covers
/// `idx[0]..=idx[last]`, so each worker's contiguous run of `idx` writes a
/// disjoint range of `out` and no per-index result is collected.
pub(crate) fn scatter_ascending<T, F>(idx: &[usize], out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let Some(&first) = idx.first() else {
        return;
    };
    let threads = threads.min(idx.len());
    if threads <= 1 {
        for (k, &i) in idx.iter().enumerate() {
            out[i - first] = f(k);
        }
        return;
    }
    let chunk = idx.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut start = first;
        for (w, run) in idx.chunks(chunk).enumerate() {
            // This run owns `out` from its first index up to the next run's.
            let end = idx
                .get((w + 1) * chunk)
                .map_or(start + rest.len(), |&next| next);
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            rest = tail;
            let (base, lo) = (start, w * chunk);
            start = end;
            scope.spawn(move || {
                for (k, &i) in run.iter().enumerate() {
                    mine[i - base] = f(lo + k);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rows_preserves_order_on_one_thread() {
        let out = map_rows(10, 1, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }

    #[test]
    fn map_rows_preserves_order_on_four_threads() {
        let out = map_rows(1000, 4, |i| i as u64 * 3);
        assert_eq!(out, (0..1000u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_rows_handles_empty_and_single() {
        assert_eq!(map_rows(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_rows(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn qmatch_threads_parse_rules() {
        assert_eq!(parse_threads(Some("0")), Some(1), "zero clamps to one");
        assert_eq!(parse_threads(Some("3")), Some(3));
        assert_eq!(parse_threads(Some(" 5 ")), Some(5), "whitespace is trimmed");
        assert_eq!(parse_threads(Some("many")), None, "junk falls back");
        assert_eq!(parse_threads(Some("-2")), None, "negative is junk");
        assert_eq!(parse_threads(None), None, "unset falls back");
    }

    #[test]
    fn for_rows_with_covers_every_index_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let states = for_rows_with(
            1000,
            4,
            || 0u64,
            |count, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                *count += i as u64;
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // The per-worker counters together saw every index exactly once.
        assert_eq!(states.iter().sum::<u64>(), (0..1000u64).sum());
        assert_eq!(states.len(), 4, "one state per worker");
    }

    #[test]
    fn scatter_ascending_writes_each_index_once_on_any_thread_count() {
        let idx: Vec<usize> = (0..500).map(|k| 7 + 3 * k + k % 2).collect();
        let width = idx[idx.len() - 1] - idx[0] + 1;
        for threads in [1, 2, 3, 4, 1000] {
            let mut out = vec![usize::MAX; width];
            scatter_ascending(&idx, &mut out, threads, |k| k);
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(out[i - idx[0]], k, "threads {threads}");
            }
            let written = out.iter().filter(|&&v| v != usize::MAX).count();
            assert_eq!(
                written,
                idx.len(),
                "threads {threads}: nothing else touched"
            );
        }
        scatter_ascending(&[], &mut [0u8; 0], 4, |_| 1u8);
    }

    #[test]
    fn for_each_row_mut_writes_every_row_once_on_any_thread_count() {
        for threads in [1, 2, 3, 4, 1000] {
            let mut data = vec![usize::MAX; 7 * 5];
            for_each_row_mut(&mut data, 5, threads, |r, row| {
                for (c, cell) in row.iter_mut().enumerate() {
                    *cell = r * 10 + c;
                }
            });
            let want: Vec<usize> = (0..7)
                .flat_map(|r| (0..5).map(move |c| r * 10 + c))
                .collect();
            assert_eq!(data, want, "threads {threads}");
        }
        for_each_row_mut(&mut [0u8; 0], 3, 4, |_, _| unreachable!());
    }

    #[test]
    fn for_rows_with_one_thread_returns_single_state() {
        let states = for_rows_with(5, 1, Vec::new, |v: &mut Vec<usize>, i| v.push(i));
        assert_eq!(states, vec![vec![0, 1, 2, 3, 4]]);
    }
}
