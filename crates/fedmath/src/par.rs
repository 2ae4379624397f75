//! The workspace's one scoped, chunked fan-out: [`map_range`] applies a
//! function to every index of a range over a given number of threads and
//! returns the results in index order.
//!
//! What makes it safe for the simulator's numerics is **order
//! preservation**: every work item derives its randomness from its *index*
//! (see [`SeedTree`](crate::SeedTree)), never from a shared sequential RNG,
//! and the results are stitched back in index order — so the thread count
//! cannot leak into the output.
//!
//! Parallelism is implemented with `std::thread::scope` rather than `rayon`:
//! the build environment vendors all dependencies offline, and scoped threads
//! with contiguous chunking are sufficient for uniform workloads. Each call
//! spawns its own threads: its fan-outs are wide and infrequent, and its
//! items borrow arbitrary call-site data.

/// The number of threads the machine offers (`1` when it cannot tell).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every index in `0..len` over `threads` scoped threads,
/// returning results in index order.
///
/// The range is split into at most `threads` contiguous chunks, one thread
/// per chunk, and the chunks' results are joined in chunk order, so the
/// output equals `(0..len).map(f).collect()` whenever `f` is a pure function
/// of its index. At `threads <= 1` or `len <= 1` that plain loop runs on the
/// calling thread. A panic in `f` reaches the caller with its own payload
/// (the lowest-index chunk's, when several threads panic).
pub fn map_range<O, F>(threads: usize, len: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(len);
                scope.spawn(move || (start..end).map(f).collect::<Vec<O>>())
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            out.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_every_thread_count() {
        let sequential: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 7, 16] {
            assert_eq!(
                map_range(threads, 100, |i| i * i),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn more_threads_than_items_still_covers_every_index_once() {
        for len in [2, 3, 5] {
            assert_eq!(map_range(64, len, |i| i), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_ranges() {
        let empty: Vec<usize> = map_range(8, 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(map_range(8, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn one_thread_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = map_range(1, 5, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // Above one thread the items run on spawned threads.
        let ids = map_range(2, 5, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn the_lowest_chunks_panic_payload_reaches_the_caller() {
        // Four chunks of two; items 1 (chunk 0) and 7 (chunk 3) both panic.
        let payload = std::panic::catch_unwind(|| {
            map_range(4, 8, |i| {
                if i == 1 || i == 7 {
                    panic!("item {i} exploded");
                }
                i
            })
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 1 exploded");
    }
}
