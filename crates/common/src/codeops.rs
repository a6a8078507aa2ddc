//! The compressed-execution work counter.
//!
//! Operators that act directly on the encoded representation — code
//! compares in dictionary scans, one-comparison-per-run RLE evaluation,
//! run-granular aggregation, code-keyed hash builds and probes — record
//! how many such operations they performed with [`add`]. The count goes
//! to the statement's [`QueryIo`](crate::query_io::QueryIo) ledger
//! installed on the calling thread, which sums it over every worker the
//! statement ran on; with no ledger installed it is charged to nobody.
//! Counts depend only on the data a worker processes, not on
//! scheduling, so a statement's total is the same at any worker count.

/// Record `n` operations performed directly on encoded data.
#[inline]
pub fn add(n: u64) {
    crate::query_io::charge_code_ops(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_io::QueryIo;

    #[test]
    fn ledger_accumulates_per_thread() {
        let io = QueryIo::new();
        io.run(|| {
            add(3);
            add(4);
            // A thread the ledger was not installed on charges nobody.
            std::thread::scope(|s| {
                s.spawn(|| add(1));
            });
        });
        add(100);
        assert_eq!(io.code_ops(), 7, "other threads don't bleed in");
    }
}
