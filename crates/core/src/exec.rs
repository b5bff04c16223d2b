//! Deterministic parallel map over an index space.
//!
//! See the [crate-level docs](crate) for the determinism contract. The
//! scheduler is a self-balancing atomic work queue: workers claim *chunks*
//! of contiguous indices with a `fetch_add` and write `(index, value)`
//! pairs into worker-local buffers that are merged by index after the
//! join, so load imbalance between items (orderings from different seeds
//! can differ in cost by orders of magnitude) never idles a thread, and
//! scheduling never leaks into the results.
//!
//! One scheduler sits behind three entry points: [`run_map`], the
//! general map (per-worker scratch, explicit [`Granularity`], optional
//! [`CancelToken`]); [`parallel_map_chunked_with`], the same without a
//! token and therefore infallible; and [`parallel_map`], the
//! scratch-free per-item shorthand.
//!
//! # Scheduling granularity
//!
//! Every map claims the index space in contiguous chunks.
//! [`parallel_map`] claims one item at a time ([`Granularity::Items`]`(1)`
//! — maximum load-balancing slack); the other two take an explicit
//! [`Granularity`] so large maps can amortize claim traffic, per-chunk
//! cancellation polling and per-worker cache churn over many items. Two
//! invariants make chunk size a pure tuning knob:
//!
//! * chunk boundaries are a pure function of `(len, chunk_size)` — chunk
//!   `k` always covers `[k·c, min(len, (k+1)·c))` — never of the worker
//!   count or the machine;
//! * per-item work is unchanged: item `i` computes `f(scratch, i)` with
//!   its RNG still derived as `derive_stream(master_seed, i)`.
//!
//! Together with the merge-by-index join, the output is byte-identical
//! for **any** `(threads, chunk_size)` pair — property-tested in this
//! module across threads × chunk sizes × token presence.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::cancel::{CancelToken, Cancelled};

/// Environment variable forcing the [`Granularity::Auto`] chunk size, for
/// CI determinism runs that re-execute the identity suites at a
/// non-default grain. Explicit [`Granularity::Items`] requests are never
/// overridden. Chunk size cannot affect results (see the
/// [module docs](self)), so this is a scheduling knob, not a correctness
/// one.
pub const CHUNK_ENV: &str = "GTL_EXEC_CHUNK";

/// How a map partitions its index space into scheduler claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Chunk size picked by [`auto_chunk`] from the item count (honoring
    /// the [`CHUNK_ENV`] override). The right default for every call
    /// site that has no measured reason to override.
    #[default]
    Auto,
    /// Fixed chunk size in items (clamped to at least 1).
    Items(usize),
}

/// The auto-chunk heuristic: the chunk size [`Granularity::Auto`]
/// resolves to for an `len`-item map.
///
/// A pure function of `len` alone — **never** of the worker count or the
/// machine — so the decomposition it induces is part of the deterministic
/// schedule shape, not of the hardware. It aims at ~128 claims per map:
/// small maps (the finder's per-seed searches, tile stripes) keep
/// per-item claims and maximum load-balancing slack, while maps with
/// thousands of cheap items get chunks that amortize the atomic claim
/// and the per-chunk cancellation poll.
///
/// # Example
///
/// ```
/// use gtl_core::exec::auto_chunk;
///
/// assert_eq!(auto_chunk(64), 1); // small maps: per-item claims
/// assert_eq!(auto_chunk(1_280), 10); // large maps: ~128 claims
/// ```
pub fn auto_chunk(len: usize) -> usize {
    (len / 128).max(1)
}

/// Cached [`CHUNK_ENV`] override (`None` when unset or unparseable).
fn chunk_override() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var(CHUNK_ENV).ok().and_then(|s| s.parse::<usize>().ok()).filter(|&c| c >= 1)
    })
}

/// Resolves a [`Granularity`] to a concrete chunk size for `len` items.
fn resolve_chunk(granularity: Granularity, len: usize) -> usize {
    match granularity {
        Granularity::Items(c) => c.max(1),
        Granularity::Auto => chunk_override().unwrap_or_else(|| auto_chunk(len)),
    }
}

/// Resolves a requested worker count against the machine and item count.
///
/// `0` means "all available cores"; any request is capped at the
/// machine's available parallelism (a thread-count knob is an upper
/// bound on concurrency, never a demand to oversubscribe — two workers
/// timesharing one core only add switching and cache-thrash overhead)
/// and the result is clamped to `[1, len]` (never more workers than
/// claims, never zero). Worker count cannot affect results, so the cap
/// is invisible in the output.
pub fn effective_threads(requested: usize, len: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let req = if requested == 0 { hw } else { requested.min(hw) };
    req.min(len).max(1)
}

/// SplitMix64 stream derivation: maps `(master_seed, index)` to an
/// independent, well-mixed 64-bit seed.
///
/// All randomized item functions running under [`run_map`] must
/// derive their per-item RNG through this function so that the stream an
/// index sees is a pure function of the master seed and the index — the
/// third leg of the determinism contract.
///
/// # Example
///
/// ```
/// use gtl_core::exec::derive_stream;
///
/// // Stable per (seed, index)…
/// assert_eq!(derive_stream(42, 7), derive_stream(42, 7));
/// // …and decorrelated across indices and seeds.
/// assert_ne!(derive_stream(42, 7), derive_stream(42, 8));
/// assert_ne!(derive_stream(42, 7), derive_stream(43, 7));
/// ```
pub fn derive_stream(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The general deterministic parallel map: per-worker scratch, an
/// explicit scheduling [`Granularity`] and optional cooperative
/// cancellation, in one entry point.
///
/// Computes `f(&mut scratch, index)` for every `index in 0..len` across
/// `threads` workers (`0` = all cores, capped at the machine — see
/// [`effective_threads`]) and returns the results in index order.
/// `init(worker)` builds each worker's scratch exactly once; the worker
/// id is provided for diagnostics only and must not influence results.
/// Workers claim contiguous chunks of the index space; the chunk
/// decomposition is a pure function of `(len, chunk_size)` — never of
/// the worker count — so the output is byte-identical for every
/// `(threads, granularity)` pair.
///
/// `token` is polled **between claims**: workers finish the chunk they
/// are on, then stop claiming, so the call returns within one claim's
/// compute of the token firing. `None` and a token that never fires
/// take the same code path and yield identical bytes (property-tested
/// in this module).
///
/// # Determinism
///
/// The output is identical for every thread count provided `f` is a pure
/// function of `(index, scratch-after-reset)` — see the
/// [crate-level contract](crate).
///
/// # Errors
///
/// [`Cancelled`] (with the firing [`CancelReason`](crate::cancel::CancelReason))
/// once the token fires — even when it fires after the last item
/// completed, so the outcome never depends on a race between completion
/// and cancellation observed elsewhere. Never fails without a token.
///
/// # Panics
///
/// Propagates panics from `f` (the first panicking worker aborts the map).
///
/// # Example
///
/// ```
/// use gtl_core::cancel::CancelToken;
/// use gtl_core::exec::{run_map, Granularity};
///
/// // Each worker reuses one scratch buffer across the items it claims;
/// // the item function re-initializes it, so reuse never leaks out.
/// let init = |_worker: usize| Vec::new();
/// let sum_to = |scratch: &mut Vec<usize>, i: usize| {
///     scratch.clear();
///     scratch.extend(0..=i);
///     scratch.iter().sum::<usize>()
/// };
/// let plain = run_map(4, 6, Granularity::Auto, None, init, sum_to).unwrap();
/// assert_eq!(plain, vec![0, 1, 3, 6, 10, 15]);
///
/// // A live token is invisible; a fired one stops the map.
/// let live = CancelToken::new();
/// let chunked = run_map(2, 6, Granularity::Items(4), Some(&live), init, sum_to);
/// assert_eq!(chunked.unwrap(), plain);
/// live.cancel();
/// assert!(run_map(2, 6, Granularity::Auto, Some(&live), init, sum_to).is_err());
/// ```
pub fn run_map<S, T, I, F>(
    threads: usize,
    len: usize,
    granularity: Granularity,
    token: Option<&CancelToken>,
    init: I,
    f: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let checkpoint = crate::cancel::checkpoint;
    if len == 0 {
        checkpoint(token)?;
        return Ok(Vec::new());
    }
    let chunk = resolve_chunk(granularity, len);
    let num_chunks = len.div_ceil(chunk);
    let workers = effective_threads(threads, num_chunks);
    map_impl(workers, len, chunk, token, init, f)
}

/// [`run_map`] without a cancellation token, which therefore cannot
/// fail.
///
/// # Panics
///
/// Propagates panics from `f`, like [`run_map`].
///
/// # Example
///
/// ```
/// use gtl_core::exec::{parallel_map_chunked_with, Granularity};
///
/// let out = parallel_map_chunked_with(
///     2,
///     10,
///     Granularity::Items(4), // claims: [0..4), [4..8), [8..10)
///     |_worker| (),
///     |(), i| i * 3,
/// );
/// assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
/// ```
pub fn parallel_map_chunked_with<S, T, I, F>(
    threads: usize,
    len: usize,
    granularity: Granularity,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    match run_map(threads, len, granularity, None, init, f) {
        Ok(out) => out,
        Err(_) => unreachable!("a map without a token cannot be cancelled"),
    }
}

/// Deterministic parallel map without scratch state or token, claiming
/// one item at a time ([`Granularity::Items`]`(1)` — maximum
/// load-balancing slack); same determinism contract and panic behavior
/// as [`run_map`].
///
/// # Example
///
/// ```
/// use gtl_core::exec::parallel_map;
///
/// // Results come back in index order for any worker count.
/// assert_eq!(parallel_map(8, 5, |i| i * i), vec![0, 1, 4, 9, 16]);
/// assert_eq!(parallel_map(1, 5, |i| i * i), parallel_map(3, 5, |i| i * i));
/// ```
pub fn parallel_map<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_chunked_with(threads, len, Granularity::Items(1), |_| (), |(), i| f(i))
}

/// The scheduler core. `workers` is the already-resolved worker count
/// (≥ 1), `chunk` the already-resolved chunk size (≥ 1), and `len > 0`.
/// Kept separate from [`run_map`] so the in-module tests can force
/// worker counts beyond the machine's cores and still exercise the
/// multi-worker claim/merge path on any box.
fn map_impl<S, T, I, F>(
    workers: usize,
    len: usize,
    chunk: usize,
    token: Option<&CancelToken>,
    init: I,
    f: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let checkpoint = crate::cancel::checkpoint;
    let num_chunks = len.div_ceil(chunk);
    if workers == 1 {
        let mut scratch = init(0);
        let mut out = Vec::with_capacity(len);
        for c in 0..num_chunks {
            // Same polling cadence as a parallel worker: once per claim.
            checkpoint(token)?;
            for i in c * chunk..((c + 1) * chunk).min(len) {
                out.push(f(&mut scratch, i));
            }
        }
        checkpoint(token)?;
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut scratch = init(worker);
                    let mut out = Vec::new();
                    loop {
                        // Poll between claims: a fired token stops this
                        // worker from claiming, never from finishing
                        // the chunk it is on.
                        if token.is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        for i in c * chunk..((c + 1) * chunk).min(len) {
                            out.push((i, f(&mut scratch, i)));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            // Re-raise the worker's own panic payload so the message a
            // caller observes does not depend on the resolved worker
            // count (the serial path propagates `f`'s panic directly).
            parts.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
    });

    // A worker only ever leaves a chunk unclaimed after its token fired,
    // and the flag is monotonic — so this probe failing is exactly the
    // condition under which the slots below might be incomplete.
    checkpoint(token)?;

    // Merge worker-local buffers back into input order.
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for part in parts {
        for (index, value) in part {
            debug_assert!(slots[index].is_none(), "index {index} computed twice");
            slots[index] = Some(value);
        }
    }
    Ok(slots.into_iter().map(|slot| slot.expect("every index is claimed exactly once")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(4, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    /// Uneven per-item cost to force different schedules.
    fn uneven(seed: u64) -> impl Fn(usize) -> u64 + Sync + Copy {
        move |i: usize| {
            let mut acc = derive_stream(seed, i as u64);
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let work = uneven(42);
        let baseline = parallel_map(1, 200, work);
        for threads in [2, 4, 8] {
            assert_eq!(parallel_map(threads, 200, work), baseline, "threads={threads}");
        }
        // The public entry points cap workers at the machine; force the
        // multi-worker claim/merge path directly so this holds even on a
        // single-core box.
        for workers in [2, 3, 5] {
            let forced =
                map_impl(workers, 200, 1, None, |_| (), |(), i| work(i)).expect("no token");
            assert_eq!(forced, baseline, "workers={workers}");
        }
    }

    #[test]
    fn chunk_size_does_not_change_output() {
        let work = uneven(7);
        let baseline = parallel_map(1, 150, work);
        for chunk in [1, 2, 3, 7, 64, 150, 1000] {
            for workers in [1, 2, 4] {
                let out =
                    map_impl(workers, 150, chunk, None, |_| (), |(), i| work(i)).expect("no token");
                assert_eq!(out, baseline, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn chunked_public_entry_points_match_per_item() {
        let work = uneven(3);
        let baseline = parallel_map(2, 90, work);
        for granularity in [Granularity::Auto, Granularity::Items(4), Granularity::Items(0)] {
            let chunked = parallel_map_chunked_with(2, 90, granularity, |_| (), |(), i| work(i));
            assert_eq!(chunked, baseline, "{granularity:?}");
            let token = CancelToken::new();
            let cancellable =
                run_map(2, 90, granularity, Some(&token), |_| (), |(), i| work(i)).unwrap();
            assert_eq!(cancellable, baseline, "{granularity:?} cancellable");
        }
    }

    #[test]
    fn auto_chunk_is_a_pure_function_of_len() {
        // Pinned heuristic: ~128 claims, at least one item per chunk.
        for (len, expected) in [
            (0, 1),
            (1, 1),
            (64, 1),
            (127, 1),
            (128, 1),
            (129, 1),
            (256, 2),
            (1_280, 10),
            (1_000_000, 7_812),
        ] {
            assert_eq!(auto_chunk(len), expected, "len={len}");
            // Same len, same answer — no hidden machine/worker input.
            assert_eq!(auto_chunk(len), auto_chunk(len));
        }
        // The induced decomposition covers the index space exactly.
        for len in [1usize, 5, 127, 128, 129, 1_000] {
            let c = auto_chunk(len);
            let covered: usize = (0..len.div_ceil(c)).map(|k| ((k + 1) * c).min(len) - k * c).sum();
            assert_eq!(covered, len, "len={len} chunk={c}");
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker() {
        let builds = AtomicUsize::new(0);
        let out = parallel_map_chunked_with(
            3,
            50,
            Granularity::Items(1),
            |_worker| {
                builds.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |scratch, i| {
                *scratch += 1; // scratch persists across items…
                i as u64 // …but must not influence results.
            },
        );
        assert_eq!(out, (0..50).map(|i| i as u64).collect::<Vec<_>>());
        assert!(builds.load(Ordering::Relaxed) <= 3);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map(64, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn effective_threads_clamps() {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Requests are capped at the machine: never oversubscribe.
        assert_eq!(effective_threads(4, 2), 4.min(hw).min(2));
        assert_eq!(effective_threads(4, 100), 4.min(hw));
        assert_eq!(effective_threads(usize::MAX, 100), hw.min(100));
        assert_eq!(effective_threads(1, 0), 1);
        assert!(effective_threads(0, 1_000_000) >= 1);
        assert!(effective_threads(0, 1_000_000) <= hw);
    }

    #[test]
    fn derive_stream_separates_indices_and_seeds() {
        assert_ne!(derive_stream(1, 0), derive_stream(1, 1));
        assert_ne!(derive_stream(1, 0), derive_stream(2, 0));
        assert_eq!(derive_stream(7, 9), derive_stream(7, 9));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        // The original payload must survive the join on the multi-worker
        // path (forced, so the test is meaningful on single-core boxes).
        let _ = map_impl(
            2,
            10,
            1,
            None,
            |_| (),
            |(), i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            },
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn serial_panic_propagates() {
        let _ = parallel_map(1, 10, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn pre_cancelled_token_errors_without_computing() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        for threads in [1, 4] {
            let result = run_map(
                threads,
                100,
                Granularity::Items(1),
                Some(&token),
                |_| (),
                |(), i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(
                result.unwrap_err().reason,
                crate::cancel::CancelReason::Cancelled,
                "threads={threads}"
            );
        }
        // Serial and parallel workers both poll before every claim — a
        // pre-tripped token admits no work at all.
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cancelling_mid_map_stops_claiming() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let result = map_impl(
            2,
            1_000,
            1,
            Some(&token),
            |_| (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    token.cancel();
                }
                i
            },
        );
        assert!(result.is_err());
        // Workers finish their in-flight claim but take nothing new:
        // far fewer than all items run (each worker can overshoot by at
        // most the one chunk it was on when the flag tripped).
        assert!(ran.load(Ordering::Relaxed) < 1_000, "cancellation did not stop the map");
    }

    #[test]
    fn cancelling_mid_chunk_finishes_the_claimed_chunk() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let result = map_impl(
            2,
            1_000,
            10,
            Some(&token),
            |_| (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    token.cancel();
                }
                i
            },
        );
        assert!(result.is_err());
        let ran = ran.load(Ordering::Relaxed);
        // The worker that tripped the token still finishes its 10-item
        // chunk; nothing claims a fresh chunk afterwards, so the overshoot
        // is bounded by one chunk per worker.
        assert!((10..=40).contains(&ran), "ran {ran} items");
    }

    #[test]
    fn cancelled_empty_map_still_reports_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let err: Result<Vec<u32>, _> =
            run_map(4, 0, Granularity::Auto, Some(&token), |_| (), |(), _| unreachable!());
        assert!(err.is_err());
    }

    #[test]
    fn deadline_token_trips_the_map() {
        let token =
            CancelToken::with_deadline(crate::cancel::Deadline::at(std::time::Instant::now()));
        let err = run_map(3, 50, Granularity::Auto, Some(&token), |_| (), |(), i| i).unwrap_err();
        assert_eq!(err.reason, crate::cancel::CancelReason::DeadlineExceeded);
    }

    #[test]
    fn live_token_leaves_results_identical_with_scratch() {
        let token = CancelToken::new();
        let init = |_worker: usize| Vec::<usize>::new();
        let item = |scratch: &mut Vec<usize>, i: usize| {
            scratch.clear();
            scratch.extend(0..=i);
            scratch.iter().sum::<usize>()
        };
        let plain = run_map(4, 64, Granularity::Items(1), None, init, item).unwrap();
        let cancellable = run_map(4, 64, Granularity::Items(1), Some(&token), init, item).unwrap();
        assert_eq!(plain, cancellable);
        let chunked = parallel_map_chunked_with(4, 64, Granularity::Items(5), init, item);
        assert_eq!(plain, chunked);
    }
}

#[cfg(test)]
mod cancellable_props {
    use super::*;
    use proptest::prelude::*;

    /// Uneven per-item cost so schedules actually differ.
    fn work(seed: u64) -> impl Fn(usize) -> u64 + Sync + Copy {
        move |i: usize| {
            let mut acc = derive_stream(seed, i as u64);
            for _ in 0..(acc % 512) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        }
    }

    /// `0` stands for [`Granularity::Auto`], anything else for that many
    /// items per claim.
    fn granularity(chunk: usize) -> Granularity {
        if chunk == 0 {
            Granularity::Auto
        } else {
            Granularity::Items(chunk)
        }
    }

    proptest! {
        /// The tentpole determinism property: through the general map, a
        /// token that never fires is byte-identical to no token at all,
        /// for any worker count, granularity and input size.
        #[test]
        fn never_firing_token_is_invisible(
            threads in 0usize..9,
            chunk in 0usize..70,
            len in 0usize..80,
            seed in 0u64..=u64::MAX,
        ) {
            let work = work(seed);
            let g = granularity(chunk);
            let token = CancelToken::new();
            let plain = run_map(threads, len, g, None, |_| (), |(), i| work(i)).unwrap();
            let live = run_map(threads, len, g, Some(&token), |_| (), |(), i| work(i)).unwrap();
            prop_assert_eq!(plain, live);
        }

        /// The chunked-scheduling extension of the property above:
        /// byte-identity with the serial per-item map across worker
        /// counts × chunk sizes × token presence, through the general
        /// map and — because the general map caps workers at the
        /// hardware — through `map_impl` with the worker count forced,
        /// so the multi-worker path runs even on single-core machines.
        #[test]
        fn chunking_is_invisible_for_any_worker_count(
            workers in 1usize..5,
            chunk in 1usize..70,
            len in 0usize..80,
            with_token in 0u8..2,
            seed in 0u64..=u64::MAX,
        ) {
            let work = work(seed);
            let baseline = parallel_map(1, len, work);
            let token = CancelToken::new();
            let tok = (with_token == 1).then_some(&token);
            let g = Granularity::Items(chunk);
            let out = run_map(workers, len, g, tok, |_| (), |(), i| work(i)).unwrap();
            prop_assert_eq!(&out, &baseline);
            if len > 0 {
                let forced = map_impl(workers, len, chunk, tok, |_| (), |(), i| work(i)).unwrap();
                prop_assert_eq!(forced, baseline);
            }
        }
    }
}
