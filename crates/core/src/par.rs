//! Parallel-execution helpers built on scoped threads.
//!
//! The matching engines fan work out in *waves* of independent rows (see
//! DESIGN.md §9). [`WaveRows`] is the one driver that writes matrix rows in
//! place, wave by wave; [`map_rows`] maps an index range to a `Vec`. The
//! caller passes the worker count — a session's thread count (see
//! [`crate::session::MatchSession::set_threads`]) — and a count of 1
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
/// `f` must be a pure function of its index for every thread count to agree.
pub(crate) fn map_rows<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Each worker collects its contiguous chunk; chunks come back in order.
    let chunk = n.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| scope.spawn(move || (lo..(lo + chunk).min(n)).map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("qmatch worker thread panicked"))
            .collect()
    })
}

/// The rows of one `rows × cols` matrix buffer, written in place wave by
/// wave.
///
/// [`WaveRows::new`] cuts the buffer once into `cols`-wide rows with
/// `chunks_mut`. Each [`WaveRows::run`] moves the rows of one wave out to
/// the workers as disjoint `&mut` slices and shares the rows earlier waves
/// finished as `done: &[&[T]]`. After the join the wave's rows move into
/// `done`. So "a row is written by one worker in one wave and read only
/// after the join" is checked by the borrow checker: a row no wave has
/// finished reads as an empty slice in `done`, and a row listed in two
/// waves panics.
pub(crate) struct WaveRows<'a, T> {
    /// Rows not yet handed to a wave (an empty slice once taken).
    pending: Vec<&'a mut [T]>,
    /// Rows finished by earlier waves (an empty slice until then).
    done: Vec<&'a [T]>,
    /// The current wave's `(row, slice)` pairs, reused across waves.
    wave: Vec<(usize, &'a mut [T])>,
    cols: usize,
}

impl<'a, T: Send + Sync> WaveRows<'a, T> {
    /// Cuts `data` into `rows` rows of `cols` cells each (`cols` ≥ 1 unless
    /// `rows` is 0).
    pub(crate) fn new(data: &'a mut [T], rows: usize, cols: usize) -> WaveRows<'a, T> {
        assert_eq!(data.len(), rows * cols, "storage length must be rows*cols");
        WaveRows {
            pending: data.chunks_mut(cols.max(1)).collect(),
            done: vec![&[]; rows],
            wave: Vec::new(),
            cols,
        }
    }

    /// Runs `f(state, r, row, done)` for every row `r` of `wave` on up to
    /// `threads` workers and returns one state per worker, built by `init`
    /// (scratch buffers, per-worker counters), in chunk order. Each worker
    /// owns one contiguous chunk of the wave; a count of 1 runs on the
    /// calling thread. The chunking depends only on the wave length and
    /// `threads`, and `f` sees the same `done` rows on every worker, so
    /// every thread count writes bit-identical rows.
    pub(crate) fn run<S, I, F>(
        &mut self,
        wave: impl IntoIterator<Item = usize>,
        threads: usize,
        init: I,
        f: F,
    ) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut [T], &[&[T]]) + Sync,
    {
        let WaveRows {
            pending,
            done,
            wave: mine,
            cols,
        } = self;
        mine.extend(wave.into_iter().map(|r| {
            let row = std::mem::take(&mut pending[r]);
            assert_eq!(row.len(), *cols, "row {r} is in two waves");
            (r, row)
        }));
        let threads = threads.min(mine.len());
        let done_ref: &[&[T]] = done;
        let work = |block: &mut [(usize, &'a mut [T])]| {
            let mut state = init();
            for (r, row) in block {
                f(&mut state, *r, row, done_ref);
            }
            state
        };
        let states = if threads <= 1 {
            vec![work(mine)]
        } else {
            let chunk = mine.len().div_ceil(threads);
            let work = &work;
            std::thread::scope(|scope| {
                let mut rest = &mut mine[..];
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let all = std::mem::take(&mut rest);
                        let (block, tail) = all.split_at_mut(chunk.min(all.len()));
                        rest = tail;
                        scope.spawn(move || work(block))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("qmatch worker thread panicked"))
                    .collect()
            })
        };
        for (r, row) in mine.drain(..) {
            done[r] = row;
        }
        states
    }
}

/// Calls `f(r, row)` for every `cols`-wide row `r` of `data` on up to
/// `threads` workers: a flat fill is one wave of every row.
pub(crate) fn for_each_row_mut<T, F>(data: &mut [T], cols: usize, threads: usize, f: F)
where
    T: Send + Sync,
    F: Fn(usize, &mut [T]) + Sync,
{
    let rows = data.len().checked_div(cols).unwrap_or(0);
    WaveRows::new(data, rows, cols).run(0..rows, threads, || (), |_, r, row, _| f(r, row));
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

    /// Runs `waves` over a `rows × cols` buffer on `threads` workers. Each
    /// cell gets `r * 100 + c` plus the sum of the first cell of every row
    /// in `done`, and each worker's state lists the rows it wrote.
    fn run_waves(
        rows: usize,
        cols: usize,
        waves: &[Vec<usize>],
        threads: usize,
    ) -> (Vec<u64>, Vec<Vec<Vec<usize>>>) {
        let mut data = vec![u64::MAX; rows * cols];
        let mut driver = WaveRows::new(&mut data, rows, cols);
        let states = waves
            .iter()
            .map(|wave| {
                driver.run(
                    wave.iter().copied(),
                    threads,
                    Vec::new,
                    |seen: &mut Vec<usize>, r, row, done| {
                        let below: u64 = done.iter().filter_map(|d| d.first()).sum();
                        for (c, cell) in row.iter_mut().enumerate() {
                            *cell = (r * 100 + c) as u64 + below;
                        }
                        seen.push(r);
                    },
                )
            })
            .collect();
        (data, states)
    }

    #[test]
    fn wave_rows_agree_bit_for_bit_on_any_worker_count() {
        let waves = vec![vec![0, 3, 5, 6, 9], vec![1, 2, 8], vec![4], vec![7]];
        let (one, one_states) = run_waves(10, 3, &waves, 1);
        assert!(one.iter().all(|&v| v != u64::MAX), "every cell written");
        // 1000 workers: more than any wave has rows.
        for threads in [4, 1000] {
            let (many, states) = run_waves(10, 3, &waves, threads);
            assert_eq!(many, one, "threads {threads}");
            for ((wave, one), many) in waves.iter().zip(&one_states).zip(&states) {
                assert_eq!(one, &vec![wave.clone()], "one worker, one state");
                assert_eq!(many.len(), threads.min(wave.len()), "a state per worker");
                // The workers' states, in chunk order, list the wave in order.
                assert_eq!(&many.concat(), wave);
            }
        }
    }

    #[test]
    fn wave_rows_one_row_waves_and_one_wave_of_every_row() {
        let single: Vec<Vec<usize>> = (0..6).map(|r| vec![r]).collect();
        let (rows, _) = run_waves(6, 2, &single, 4);
        // Row r sees the finished first cells of rows 0..r.
        let mut below = 0;
        for r in 0..6 {
            assert_eq!(rows[r * 2], r as u64 * 100 + below);
            below += rows[r * 2];
        }
        let (flat, states) = run_waves(6, 2, &[(0..6).collect()], 4);
        let want: Vec<u64> = (0..6).flat_map(|r| [r * 100, r * 100 + 1]).collect();
        assert_eq!(flat, want, "a flat fill sees no finished rows");
        // Four workers over six rows: chunks of two, the last one idle.
        assert_eq!(states[0], vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![]]);
    }

    #[test]
    fn a_row_no_wave_has_written_reads_as_empty() {
        let mut data = vec![0u8; 4 * 2];
        let mut driver = WaveRows::new(&mut data, 4, 2);
        driver.run(
            [1, 3],
            2,
            || (),
            |_, _, row, done| {
                row.fill(7);
                assert!(done.iter().all(|d| d.is_empty()), "nothing finished yet");
            },
        );
        driver.run(
            [0],
            1,
            || (),
            |_, _, _, done| {
                let lens: Vec<usize> = done.iter().map(|d| d.len()).collect();
                assert_eq!(lens, [0, 2, 0, 2], "only the first wave's rows are done");
                assert_eq!(done[1], [7, 7]);
            },
        );
    }

    #[test]
    #[should_panic(expected = "row 1 is in two waves")]
    fn a_row_in_two_waves_panics() {
        let mut data = vec![0u8; 2 * 2];
        let mut driver = WaveRows::new(&mut data, 2, 2);
        driver.run([1], 1, || (), |_, _, _, _| {});
        driver.run([0, 1], 1, || (), |_, _, _, _| {});
    }
}
