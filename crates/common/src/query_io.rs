//! The per-query ledger: who pays for a block read, a seek, or a
//! code-domain operation.
//!
//! The paper prices a plan by one query's seeks and block reads (§3), so
//! every statement needs those counts for itself alone while other
//! statements share the store. An executor opens one [`QueryIo`] for the
//! statement ([`QueryIo::run`]) and [`crate::par::fan_out`] installs it
//! on every worker it spawns. Charges go to thread-local cells and fold
//! into the ledger once, when a worker's tenure ends. A worker also owns
//! its read streams (see [`charge_read`]); a thread with no ledger
//! installed (the loader, the compactor, deletes, kernel probes) keeps
//! one stream set for its lifetime and charges only the meter's
//! store-wide counters.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One statement's block reads, seeks and code-domain operations,
/// summed over every thread that ran for it.
#[derive(Debug, Default)]
pub struct QueryIo {
    block_reads: AtomicU64,
    seeks: AtomicU64,
    code_ops: AtomicU64,
}

/// Where one file's read stream stands on one worker: the byte after
/// its last read, valid for one meter epoch (a meter's identity and its
/// last reset — see `IoMeter::reset`).
#[derive(Debug, Clone, Copy)]
struct Stream {
    epoch: u64,
    end: u64,
}

/// The current worker's charges not yet folded into its ledger, and its
/// read streams.
#[derive(Debug, Default)]
struct Worker {
    ledger: Option<Arc<QueryIo>>,
    block_reads: u64,
    seeks: u64,
    streams: HashMap<Box<str>, Stream>,
}

thread_local! {
    /// Code-domain operations since the current worker's tenure began.
    /// Kept apart from [`WORKER`] so the kernels' charge is one add.
    static CODE_OPS: Cell<u64> = const { Cell::new(0) };
    static WORKER: RefCell<Worker> = RefCell::new(Worker::default());
}

impl QueryIo {
    /// A zeroed ledger.
    pub fn new() -> Arc<QueryIo> {
        Arc::default()
    }

    /// Run `f` on the calling thread with this ledger installed, starting
    /// from fresh read streams. The thread's charges fold in exactly once
    /// when `f` returns or unwinds, and whatever was installed before is
    /// restored.
    pub fn run<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let _tenure = Tenure::begin(Arc::clone(self));
        f()
    }

    /// The ledger installed on the calling thread, if any.
    pub fn current() -> Option<Arc<QueryIo>> {
        WORKER.with(|w| w.borrow().ledger.clone())
    }

    /// Blocks read from the simulated disk.
    pub fn block_reads(&self) -> u64 {
        self.block_reads.load(Ordering::Relaxed)
    }

    /// Reads that did not continue their worker's stream on that file.
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Ordering::Relaxed)
    }

    /// Operations executed directly on encoded data.
    pub fn code_ops(&self) -> u64 {
        self.code_ops.load(Ordering::Relaxed)
    }
}

/// One ledger's stay on one thread: swaps a fresh [`Worker`] in, and on
/// drop folds it into the ledger and puts the outer worker back.
struct Tenure {
    outer: Worker,
    outer_code_ops: u64,
}

impl Tenure {
    fn begin(ledger: Arc<QueryIo>) -> Tenure {
        let fresh = Worker {
            ledger: Some(ledger),
            ..Worker::default()
        };
        Tenure {
            outer: WORKER.with(|w| w.replace(fresh)),
            outer_code_ops: CODE_OPS.with(|c| c.replace(0)),
        }
    }
}

impl Drop for Tenure {
    fn drop(&mut self) {
        // No borrow of WORKER is live here: the only borrows are inside
        // `charge_read`, which calls nothing that can unwind into us.
        let mine = WORKER.with(|w| w.replace(std::mem::take(&mut self.outer)));
        let code_ops = CODE_OPS.with(|c| c.replace(self.outer_code_ops));
        if let Some(ledger) = mine.ledger {
            ledger
                .block_reads
                .fetch_add(mine.block_reads, Ordering::Relaxed);
            ledger.seeks.fetch_add(mine.seeks, Ordering::Relaxed);
            ledger.code_ops.fetch_add(code_ops, Ordering::Relaxed);
        }
    }
}

/// Charge one read of `len` bytes at `offset` of `file` to the calling
/// worker and return whether it was a seek: a read is sequential only
/// when it starts where this worker's last read of `file` under the same
/// meter `epoch` ended.
pub fn charge_read(epoch: u64, file: &str, offset: u64, len: u64) -> bool {
    WORKER.with(|w| {
        let mut w = w.borrow_mut();
        let next = Stream {
            epoch,
            end: offset + len,
        };
        let seek = match w.streams.get_mut(file) {
            Some(s) => {
                let seek = s.epoch != epoch || s.end != offset;
                *s = next;
                seek
            }
            None => {
                w.streams.insert(file.into(), next);
                true
            }
        };
        w.block_reads = w.block_reads.wrapping_add(1);
        w.seeks = w.seeks.wrapping_add(u64::from(seek));
        seek
    })
}

/// Charge `n` code-domain operations to the calling worker.
#[inline]
pub(crate) fn charge_code_ops(n: u64) {
    CODE_OPS.with(|c| c.set(c.get().wrapping_add(n)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tenure_charges_its_ledger_once_and_restores_the_outer_state() {
        let outer = QueryIo::new();
        let inner = QueryIo::new();
        outer.run(|| {
            charge_read(1, "f", 0, 10);
            inner.run(|| {
                // Fresh streams: the outer worker's position is not ours.
                assert!(charge_read(1, "f", 10, 10), "a new tenure seeks");
                charge_code_ops(5);
                assert!(Arc::ptr_eq(&QueryIo::current().unwrap(), &inner));
            });
            // The outer stream survived the inner tenure.
            assert!(!charge_read(1, "f", 10, 10));
            charge_code_ops(2);
            assert!(Arc::ptr_eq(&QueryIo::current().unwrap(), &outer));
        });
        assert_eq!(
            (inner.block_reads(), inner.seeks(), inner.code_ops()),
            (1, 1, 5)
        );
        assert_eq!(
            (outer.block_reads(), outer.seeks(), outer.code_ops()),
            (2, 1, 2)
        );
        assert!(QueryIo::current().is_none());
    }
}
