//! Process-wide worker-count defaults, shared by every parallel
//! subsystem (the granule-parallel executor, the parallel join probe,
//! the column-parallel projection loader, and the sharded buffer pool),
//! and [`fan_out`], the one primitive every query-path fan-out spawns
//! through.

use crate::query_io::QueryIo;

/// Parse a worker-count setting: `0` means "all available cores",
/// unparsable or absent values fall back to `fallback` rather than
/// failing.
fn parse_worker_count(value: Option<&str>, fallback: usize) -> usize {
    match value {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(fallback),
            Ok(n) => n,
            Err(_) => fallback,
        },
        None => fallback,
    }
}

/// Read a worker-count environment variable through
/// `parse_worker_count`'s rules. Callers cache the result once per
/// process (queries must not change behavior because something mutated
/// the environment mid-flight); this helper itself reads the
/// environment on every call.
pub fn env_worker_count(var: &str, fallback: usize) -> usize {
    parse_worker_count(std::env::var(var).ok().as_deref(), fallback)
}

/// The worker-count default: `MATSTRAT_THREADS` when set (`0` means "all
/// available cores"), otherwise 1 (serial, the paper's configuration).
/// Read once per process.
pub fn default_parallelism() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| env_worker_count("MATSTRAT_THREADS", 1))
}

/// Join a scoped worker, re-raising its panic on the calling thread —
/// the one subtle line every scoped fan-out must get right, kept in one
/// place.
pub fn join_unwinding<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Run `f` over `inputs` — the first on the calling thread, each of the
/// rest on a scoped thread of its own — and return the results in input
/// order. Every spawned worker runs under the [`QueryIo`] ledger
/// installed on the calling thread (if any), so the reads and code
/// operations it makes are charged to the caller's statement and folded
/// in when the worker finishes. A worker's panic is re-raised on the
/// caller once every worker has joined.
///
/// This is the engine's one spawn site: the fragment pipeline, the
/// claim-counter fan-out below and the join build all run on it.
pub fn fan_out<I, T>(inputs: impl IntoIterator<Item = I>, f: impl Fn(I) -> T + Sync) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    let ledger = QueryIo::current();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = inputs
            .map(|input| {
                let ledger = ledger.clone();
                scope.spawn(move || match ledger {
                    Some(ledger) => ledger.run(|| f(input)),
                    None => f(input),
                })
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        out.extend(handles.into_iter().map(join_unwinding));
        out
    })
}

/// Run `f` over indices `0..n` on up to `workers` [`fan_out`] workers,
/// each claiming indices from a shared counter (independent items vary
/// wildly in cost — column encodings, decode fallbacks — so striding
/// would skew), and reassemble the results **by index**, so the output
/// is identical to a serial pass. The first error in index order wins;
/// worker panics propagate to the caller.
///
/// This is the claim-counter fan-out shared by the column-parallel
/// projection loader and the join build.
pub fn par_map_indexed<T, E>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> std::result::Result<T, E> + Sync,
) -> std::result::Result<Vec<T>, E>
where
    T: Send,
    E: Send,
{
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let per_worker = fan_out(0..workers, |_| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            mine.push((i, f(i)));
        }
        mine
    });
    let mut slots: Vec<Option<std::result::Result<T, E>>> = Vec::new();
    slots.resize_with(n, || None);
    for (i, out) in per_worker.into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parallelism_is_stable_and_positive() {
        let first = default_parallelism();
        assert!(first >= 1);
        // OnceLock: the value never changes within a process, even if the
        // environment does.
        assert_eq!(default_parallelism(), first);
    }

    #[test]
    fn par_map_indexed_matches_serial_at_any_worker_count() {
        let f = |i: usize| Ok::<_, ()>(i * i);
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 4, 8, 64] {
            assert_eq!(par_map_indexed(37, workers, f).unwrap(), expect);
        }
        assert_eq!(par_map_indexed(0, 4, f).unwrap(), Vec::new());
    }

    #[test]
    fn par_map_indexed_first_error_in_index_order_wins() {
        let f = |i: usize| if i >= 3 { Err(i) } else { Ok(i) };
        for workers in [1, 2, 4] {
            assert_eq!(par_map_indexed(8, workers, f).unwrap_err(), 3);
        }
    }

    #[test]
    fn fan_out_returns_results_in_input_order_and_runs_input_0_on_the_caller() {
        let caller = std::thread::current().id();
        let out = fan_out(0..5, |i| (i * 10, std::thread::current().id()));
        assert_eq!(
            out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            vec![0, 10, 20, 30, 40]
        );
        assert_eq!(out[0].1, caller, "input 0 runs on the caller");
        assert!(out[1..].iter().all(|&(_, id)| id != caller));
        assert!(fan_out(Vec::<usize>::new(), |i| i).is_empty());
    }

    #[test]
    fn fan_out_reraises_a_worker_panic_after_every_worker_joined() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let failed = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(0..4, |i| {
                if i == 1 {
                    failed.store(true, Ordering::SeqCst);
                    panic!("worker 1 failed");
                }
                // The others finish only after the failure, so an
                // early re-raise would leave them unfinished.
                while !failed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 1 failed"));
        assert_eq!(finished.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn fan_out_charges_spawned_reads_to_the_callers_ledger_once() {
        use crate::query_io::charge_read;
        let io = QueryIo::new();
        io.run(|| {
            fan_out(0..4u64, |i| {
                // Each worker has a stream of its own: four seeks.
                charge_read(1, "f", i * 100, 10);
                crate::codeops::add(i + 1);
            })
        });
        assert_eq!((io.block_reads(), io.seeks(), io.code_ops()), (4, 4, 10));
        // Without a ledger the workers charge nobody.
        fan_out(0..4u64, |i| charge_read(1, "f", i * 100, 10));
        assert_eq!(io.block_reads(), 4, "folded exactly once");
    }

    #[test]
    fn fan_out_leaves_no_ledger_installed_after_return_or_unwind() {
        let io = QueryIo::new();
        let installed = io.run(|| fan_out(0..3, |_| QueryIo::current().is_some()));
        assert_eq!(
            installed,
            vec![true; 3],
            "every worker runs under the ledger"
        );
        assert!(QueryIo::current().is_none(), "after a normal return");
        let unwound = std::panic::catch_unwind(|| {
            io.run(|| {
                fan_out(0..3, |i| {
                    if i == 2 {
                        panic!("unwind");
                    }
                })
            })
        });
        assert!(unwound.is_err());
        assert!(QueryIo::current().is_none(), "after an unwind");
    }

    #[test]
    fn worker_count_parses_and_falls_back() {
        // Pure parsing — no environment mutation (set_var races getenv
        // in the multi-threaded test harness).
        assert_eq!(parse_worker_count(None, 7), 7);
        assert_eq!(parse_worker_count(Some("not-a-number"), 3), 3);
        assert_eq!(parse_worker_count(Some(" 12 "), 3), 12);
        assert!(parse_worker_count(Some("0"), 3) >= 1);
        assert_eq!(env_worker_count("MATSTRAT_NO_SUCH_VAR", 5), 5);
    }
}
