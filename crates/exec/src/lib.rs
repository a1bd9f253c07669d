//! Deterministic parallel execution for the EDDIE reproduction.
//!
//! EDDIE's evaluation is embarrassingly parallel: training averages many
//! independently-seeded instrumented runs per benchmark, monitoring
//! replays dozens of attacked runs, and the §5.3 sweeps repeat the whole
//! pipeline across core configurations. Every one of those runs is fully
//! determined by its seed, so they can execute on any thread in any
//! order — as long as the *results* are assembled by index, never by
//! completion order.
//!
//! This crate provides that execution layer:
//!
//! * [`par_map`] / [`par_map_indexed`] — map a pure function over a
//!   work list on a scoped worker pool. Output order always equals
//!   input order, so the result is byte-identical to the serial loop.
//! * [`par_map_mut`] — the same contract over exclusively-owned items
//!   (`&mut T` handed to one worker each); this is how the streaming
//!   runtime (`eddie-stream`) shards per-device monitor sessions.
//! * [`num_threads`] — the pool width: the `EDDIE_THREADS` environment
//!   variable when set, otherwise the machine's available parallelism.
//! * [`with_threads`] — scoped programmatic override of the pool width
//!   (used by the determinism tests and the benchmarks).
//!
//! The crate is std-only. A call at width `w` spawns `w − 1` scoped
//! workers and the calling thread takes a share itself, so a fan-out
//! over two items starts one thread, not two, and the caller never
//! idles in the join. Workers claim items one at a time — from a
//! shared atomic cursor, or from a mutex-guarded `iter_mut` for
//! [`par_map_mut`] — and results land in per-index `Mutex` slots;
//! workers never share mutable state beyond those slots, and nested
//! `par_map` calls from inside a share (the caller's included) fall
//! back to the serial loop so one fan-out level never oversubscribes
//! the machine.
//!
//! # Determinism contract
//!
//! For any `f` without side effects across items,
//! `par_map_indexed(n, f)` returns exactly `(0..n).map(f).collect()` —
//! for every thread count, including 1. This is the guarantee the CI
//! determinism gate enforces (see `tests/determinism.rs`).
//!
//! # Examples
//!
//! ```
//! let squares = eddie_exec::par_map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let doubled = eddie_exec::par_map(&[1, 2, 3], |&x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment variable overriding the worker-pool width.
pub const THREADS_ENV: &str = "EDDIE_THREADS";

thread_local! {
    /// Set inside pool workers: nested `par_map` calls run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped programmatic override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parses a thread-count override such as the value of `EDDIE_THREADS`.
/// Returns `None` for anything that is not a positive integer.
pub fn parse_thread_count(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker-pool width used by the next [`par_map`] call on this
/// thread: a [`with_threads`] override if one is active, else a valid
/// `EDDIE_THREADS` environment value, else the machine's available
/// parallelism (1 when that cannot be determined).
///
/// The environment and the machine parallelism are read **once per
/// process** and cached: long-lived services (`eddie-serve`) call this
/// once per fleet drain on their serving thread, millions of times,
/// and an env lookup plus parse per drain is measurable noise there.
/// Processes that want a different width mid-run use [`with_threads`];
/// changing the environment variable after the first pool use has no
/// effect.
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.get() {
        return n;
    }
    static AMBIENT: OnceLock<usize> = OnceLock::new();
    *AMBIENT.get_or_init(|| {
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Some(n) = parse_thread_count(&v) {
                return n;
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f` with the pool width pinned to `threads` (minimum 1) on the
/// current thread, restoring the previous setting afterwards — also on
/// panic. Overrides nest; the innermost wins.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.replace(Some(threads.max(1))));
    f()
}

/// `true` when called from inside a [`par_map`] share: on a worker
/// thread, or on the calling thread while it runs its own share.
pub fn in_worker() -> bool {
    IN_WORKER.get()
}

/// Runs `share` on `threads` threads: `threads − 1` scoped workers plus
/// the calling thread, each marked as a worker so nested calls run
/// serially. The caller's mark is restored on return and on unwind; a
/// panic in any share propagates once every worker has joined.
fn fan_out(threads: usize, share: impl Fn() + Sync) {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.set(self.0);
        }
    }
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                IN_WORKER.set(true);
                share();
            });
        }
        let _restore = Restore(IN_WORKER.replace(true));
        share();
    });
}

/// Locks `m`, recovering the guard if a panicking worker poisoned it:
/// every value behind these locks is written whole, so a poisoned lock
/// never holds torn state (the panic itself still propagates from the
/// scope join).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drains per-index result slots in index order.
fn collect_slots<U>(slots: Vec<Mutex<Option<U>>>) -> Vec<U> {
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index was processed")
        })
        .collect()
}

/// Maps `f` over `0..n` on a scoped worker pool, returning the results
/// in index order. The calling thread runs one share of the items.
///
/// The output is byte-identical to `(0..n).map(f).collect()` for every
/// pool width: items may *run* in any order on any thread, but each
/// result is stored in its item's slot and the slots are drained in
/// order. Calls from inside a share (nested fan-out) and calls with an
/// effective width of 1 take the serial path directly.
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated once the
/// pool has joined).
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = num_threads().min(n);
    if threads <= 1 || in_worker() {
        return (0..n).map(f).collect();
    }

    // Workers race on a shared cursor to claim indices, but each
    // result lands in its own slot, so completion order never leaks
    // into the output. `Relaxed` suffices: the cursor publishes no
    // data (results travel through the slot mutexes and the join).
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    fan_out(threads, || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let value = f(i);
        *lock(&slots[i]) = Some(value);
    });
    collect_slots(slots)
}

/// Maps `f` over a slice on the worker pool, preserving input order.
/// See [`par_map_indexed`] for the determinism contract.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Maps `f` over a mutable slice on the worker pool, giving each item
/// exclusively to one thread and preserving input order in the output.
/// The calling thread runs one share of the items.
///
/// This is the scheduling primitive of the streaming runtime
/// (`eddie-stream`): each monitored device's session is mutated in
/// place by exactly one thread per drain, items are handed out one at
/// a time from a shared `iter_mut`, and results land in per-index
/// slots — so the output (and every per-item mutation sequence) is
/// byte-identical to the serial `iter_mut` loop for every pool width.
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated once the
/// pool has joined).
pub fn par_map_mut<T, U, F>(items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let n = items.len();
    let threads = num_threads().min(n);
    if threads <= 1 || in_worker() {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Hand each `&mut T` to exactly one worker by sharing the iterator
    // itself; the borrow checker guarantees disjointness because
    // `iter_mut` yields non-overlapping exclusive references.
    let work = Mutex::new(items.iter_mut().enumerate());
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    fan_out(threads, || loop {
        // The guard is a temporary: released before `f` runs.
        let Some((i, item)) = lock(&work).next() else {
            break;
        };
        let value = f(i, item);
        *lock(&slots[i]) = Some(value);
    });
    collect_slots(slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_input_order() {
        // Make early items slow so later items finish first; the output
        // must still be index-ordered.
        let out = with_threads(4, || {
            par_map_indexed(16, |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * 10
            })
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let work = |i: usize| -> f64 { (i as f64).sin().powi(3) + i as f64 };
        let serial = with_threads(1, || par_map_indexed(64, work));
        let parallel = with_threads(4, || par_map_indexed(64, work));
        // Byte-identical, not approximately equal.
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn slice_variant_preserves_order() {
        let items: Vec<String> = (0..10).map(|i| format!("item{i}")).collect();
        let out = with_threads(3, || par_map(&items, |s| s.len()));
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 1), vec![1]);
        assert_eq!(par_map::<u8, u8, _>(&[], |&x| x), Vec::<u8>::new());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = with_threads(4, || {
            par_map_indexed(100, |i| {
                hits.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn par_map_mut_mutates_every_item_and_orders_results() {
        let mut items: Vec<usize> = (0..32).collect();
        let out = with_threads(4, || {
            par_map_mut(&mut items, |i, item| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                *item += 100;
                *item
            })
        });
        assert_eq!(out, (100..132).collect::<Vec<_>>());
        assert_eq!(items, (100..132).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_parallel_equals_serial() {
        let run = |threads: usize| {
            let mut state: Vec<u64> = (0..48).map(|i| i * 3 + 1).collect();
            let out = with_threads(threads, || {
                par_map_mut(&mut state, |i, s| {
                    *s = s.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                    *s
                })
            });
            (state, out)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn par_map_mut_nested_falls_back_to_serial() {
        let mut outer: Vec<Vec<usize>> = (0..4).map(|i| vec![i; 4]).collect();
        let out = with_threads(4, || {
            par_map_mut(&mut outer, |_, inner| {
                assert!(in_worker());
                par_map_mut(inner, |j, v| *v * 10 + j)
            })
        });
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat.len(), 16);
    }

    #[test]
    fn par_map_mut_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        assert_eq!(par_map_mut(&mut empty, |_, x| *x), Vec::<u8>::new());
        let mut one = vec![7u8];
        assert_eq!(par_map_mut(&mut one, |_, x| *x + 1), vec![8]);
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        let out = with_threads(4, || {
            par_map_indexed(4, |i| {
                assert!(in_worker());
                // Nested call must not spawn a second pool level.
                par_map_indexed(4, |j| i * 4 + j)
            })
        });
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn with_threads_restores_previous_width() {
        let outer = num_threads();
        with_threads(2, || {
            assert_eq!(num_threads(), 2);
            with_threads(7, || assert_eq!(num_threads(), 7));
            assert_eq!(num_threads(), 2);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 8 "), Some(8));
        assert_eq!(parse_thread_count("0"), None);
        assert_eq!(parse_thread_count("-2"), None);
        assert_eq!(parse_thread_count("many"), None);
        assert_eq!(parse_thread_count(""), None);
    }

    /// Two items at width 2 that wait for each other must run at once:
    /// one on the caller, one on the single worker. The caller's item is
    /// a worker share, so a nested call there stays on the caller.
    #[test]
    fn caller_runs_a_share_and_nests_serially() {
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        let item = || {
            both.wait();
            let me = std::thread::current().id();
            if me != caller {
                return vec![me];
            }
            assert!(in_worker(), "the caller's share counts as a worker");
            par_map_indexed(4, |_| std::thread::current().id())
        };
        let ran = with_threads(2, || par_map_indexed(2, |_| item()));
        assert!(ran.contains(&vec![caller; 4]), "{ran:?}");
        let mut two = [0u8; 2];
        let ran = with_threads(2, || par_map_mut(&mut two, |_, _| item()));
        assert!(ran.contains(&vec![caller; 4]), "{ran:?}");
        assert!(!in_worker(), "the caller's worker mark is restored");
    }

    #[test]
    fn callers_mark_is_restored_when_its_share_panics() {
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_threads(2, || {
                par_map_indexed(2, |i| {
                    both.wait();
                    assert_ne!(
                        std::thread::current().id(),
                        caller,
                        "the caller's item panics"
                    );
                    i
                })
            })
        }));
        assert!(result.is_err(), "the caller's panic propagates");
        assert!(!in_worker(), "the mark is restored on unwind");
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(8, |i| {
                    if i == 5 {
                        panic!("boom");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
