//! Deterministic parallel fan-out for the evaluation harness.
//!
//! The harness's hot loops (running both detectors over a test set,
//! folding a training set into calibration sums, regenerating independent
//! experiments, driving fleet shards) are maps of a pure function over an
//! index range. [`ordered_blocks`] cuts the range into contiguous blocks
//! that [`std::thread::scope`] workers **claim** off one atomic cursor: a
//! worker keeps the blocks it computed, hands them back when it is joined,
//! and the caller — itself one of the workers — puts them **in index
//! order**. Nothing crosses threads per item: no channel, no lock, one
//! `fetch_add` per block. [`ordered_map`] is the same fan-out with one
//! output per index, its blocks flattened.
//!
//! Output is bit-identical to the sequential loop no matter how many
//! workers run or how they interleave — parallelism changes wall-clock
//! time only. A panic inside the mapped function reaches the caller with
//! its own payload, whatever the worker count.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks per worker when there are jobs enough: a worker that loses its
/// core mid-map leaves the others at most 1/64 of a share to wait for,
/// while a claim stays thousands of images long on the big training sets.
/// Maps with fewer jobs than `workers × 64` — the fleet's shard drives,
/// `eval all`'s experiments — claim one job at a time.
const BLOCKS_PER_WORKER: usize = 64;

/// Number of harness worker threads for `jobs` independent jobs.
///
/// Defaults to [`std::thread::available_parallelism`], capped by the job
/// count. The `SMALLBIG_HARNESS_WORKERS` environment variable overrides the
/// default (values `0` or unparsable fall back to it); `1` forces the exact
/// sequential code path, which the benchmarks use to measure parallel
/// speedup.
pub fn harness_workers(jobs: usize) -> usize {
    harness_workers_from(
        std::env::var("SMALLBIG_HARNESS_WORKERS").ok().as_deref(),
        jobs,
    )
}

/// [`harness_workers`] with the environment override supplied by the caller
/// (kept pure so it can be tested without mutating process-global state).
fn harness_workers_from(env_override: Option<&str>, jobs: usize) -> usize {
    let configured = env_override
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    configured.min(jobs).max(1)
}

/// Applies `f` to every index in `0..jobs` and returns the outputs in index
/// order.
///
/// With more than one worker (see [`harness_workers`]) the indices fan out
/// over scoped threads; `f` must therefore be pure for the merged output to
/// be deterministic — which every harness job (deterministic detectors,
/// pure labelling) is. With one worker this is exactly a sequential loop,
/// with no threads spawned.
///
/// # Examples
///
/// ```
/// use smallbig_core::par::ordered_map;
///
/// let squares = ordered_map(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn ordered_map<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    ordered_map_with(harness_workers(jobs), jobs, f)
}

/// [`ordered_map`] with an explicit worker count. Crate-visible so the
/// fleet engine can fan its shard drives out over the same scoped-worker
/// machinery with its own thread knob ([`crate::fleet::FleetSpec::threads`])
/// instead of the harness default.
pub(crate) fn ordered_map_with<T, F>(workers: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    concat(ordered_blocks_with(workers, jobs, |range| {
        range.map(&f).collect()
    }))
}

/// Joins per-block output lists end to end. The first block takes the
/// rest: with one worker it already is the whole output, collected by the
/// sequential loop.
pub(crate) fn concat<T>(blocks: Vec<Vec<T>>) -> Vec<T> {
    let total = blocks.iter().map(Vec::len).sum::<usize>();
    let mut blocks = blocks.into_iter();
    let mut outputs = blocks.next().unwrap_or_default();
    outputs.reserve_exact(total - outputs.len());
    for block in blocks {
        outputs.extend(block);
    }
    outputs
}

/// Cuts `0..jobs` into contiguous blocks, applies `f` to each and returns
/// the block outputs in index order — the fan-out for work that reduces or
/// reuses a buffer across neighbouring indices (one `B` per block instead
/// of one output per index).
///
/// The blocks partition `0..jobs` exactly; where they are cut depends on
/// the worker count, so `f`'s outputs must combine to the same result
/// under any partition (concatenation, exact integer sums). With one
/// worker there is one block, `0..jobs`, computed on the caller's thread;
/// with no jobs there are no blocks.
///
/// # Examples
///
/// ```
/// use smallbig_core::par::ordered_blocks;
///
/// let sums = ordered_blocks(1_000, |range| range.sum::<usize>());
/// assert_eq!(sums.iter().sum::<usize>(), 499_500);
/// ```
pub fn ordered_blocks<B, F>(jobs: usize, f: F) -> Vec<B>
where
    B: Send,
    F: Fn(Range<usize>) -> B + Sync,
{
    ordered_blocks_with(harness_workers(jobs), jobs, f)
}

/// [`ordered_blocks`] with an explicit worker count.
pub(crate) fn ordered_blocks_with<B, F>(workers: usize, jobs: usize, f: F) -> Vec<B>
where
    B: Send,
    F: Fn(Range<usize>) -> B + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = workers.min(jobs);
    if workers <= 1 {
        return vec![f(0..jobs)];
    }

    let block = (jobs / (workers * BLOCKS_PER_WORKER)).max(1);
    // The cursor only hands out indices; block outputs travel through the
    // join, so `Relaxed` publishes nothing that needs ordering.
    let cursor = AtomicUsize::new(0);
    let claim_until_done = || {
        let mut mine = Vec::new();
        loop {
            let start = cursor.fetch_add(block, Ordering::Relaxed);
            if start >= jobs {
                return mine;
            }
            mine.push((start, f(start..jobs.min(start + block))));
        }
    };
    let mut claimed: Vec<(usize, B)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(claim_until_done))
            .collect();
        let mut claimed = claim_until_done();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => claimed.extend(theirs),
                // The scope would replace an unjoined panic with its own
                // message; the caller gets `f`'s.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        claimed
    });
    claimed.sort_unstable_by_key(|&(start, _)| start);
    claimed.into_iter().map(|(_, output)| output).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_is_in_index_order() {
        let out = ordered_map(100, |i| i as u64 * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn ordered_map_handles_empty_and_single() {
        assert_eq!(ordered_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(ordered_map(1, |i| i + 7), vec![7]);
    }

    // Worker-count selection and the worker-count invariance of the output
    // are tested through the pure internals — mutating the process-global
    // environment from a test would race with concurrently running tests
    // that read it.

    /// Every `workers × jobs` shape the properties below run over.
    fn shapes() -> impl Iterator<Item = (usize, usize)> {
        [1usize, 2, 3, 8].into_iter().flat_map(|workers| {
            [0, 1, 2, 7, 8 * workers - 1, 8 * workers + 1, 1_000]
                .into_iter()
                .map(move |jobs| (workers, jobs))
        })
    }

    #[test]
    fn map_equals_the_sequential_loop_for_owned_outputs() {
        for (workers, jobs) in shapes() {
            let visits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            let f = |i: usize| {
                visits[i].fetch_add(1, Ordering::Relaxed);
                (format!("job {i}"), vec![i as u8; i % 5])
            };
            let got = ordered_map_with(workers, jobs, f);
            let visited: Vec<usize> = visits.iter().map(|v| v.load(Ordering::Relaxed)).collect();
            assert_eq!(visited, vec![1; jobs], "{workers} workers, {jobs} jobs");
            let want: Vec<_> = (0..jobs).map(f).collect();
            assert_eq!(got, want, "{workers} workers, {jobs} jobs");
        }
    }

    #[test]
    fn blocks_are_contiguous_in_order_and_cover_every_index_once() {
        for (workers, jobs) in shapes() {
            let blocks = ordered_blocks_with(workers, jobs, |range| {
                assert!(!range.is_empty(), "no empty claims");
                (
                    range.clone(),
                    range.map(|i| i.to_string()).collect::<Vec<_>>(),
                )
            });
            let mut next = 0;
            for (range, names) in &blocks {
                assert_eq!(range.start, next, "{workers} workers, {jobs} jobs");
                let want: Vec<String> = range.clone().map(|i| i.to_string()).collect();
                assert_eq!(names, &want);
                next = range.end;
            }
            assert_eq!(next, jobs, "{workers} workers, {jobs} jobs");
            if workers == 1 && jobs > 0 {
                assert_eq!(blocks.len(), 1, "one worker is one sequential block");
            }
        }
    }

    #[test]
    fn few_heavy_jobs_are_claimed_one_at_a_time() {
        // The fleet's 192 shard drives on up to 4 threads, eval's ~30
        // experiments: a claim of several would leave the tail unbalanced.
        for (workers, jobs) in [(2, 192), (4, 192), (2, 30), (8, 9)] {
            let blocks = ordered_blocks_with(workers, jobs, |range| range.len());
            assert_eq!(blocks, vec![1; jobs], "{workers} workers, {jobs} jobs");
        }
    }

    #[test]
    fn panic_payload_survives_any_worker_count() {
        for workers in [1, 3] {
            let payload = std::panic::catch_unwind(|| {
                ordered_map_with(workers, 40, |i| {
                    assert!(i != 29, "job {i} failed");
                    i
                })
            })
            .expect_err("job 29 panics");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("job 29 failed"),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn worker_count_override_and_job_cap() {
        assert_eq!(harness_workers_from(Some("8"), 3), 3);
        assert_eq!(harness_workers_from(Some("8"), 100), 8);
        assert_eq!(harness_workers_from(Some("1"), 100), 1);
        // Zero or garbage falls back to the host default (at least 1).
        assert!(harness_workers_from(Some("0"), 100) >= 1);
        assert!(harness_workers_from(Some("lots"), 100) >= 1);
        assert!(harness_workers_from(None, 100) >= 1);
    }
}
