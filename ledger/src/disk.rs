//! The benchmark's counting [`Disk`]: every store the ledger builds
//! sits on one, so device traffic is measured from outside the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use matstrat_common::Result;
use matstrat_storage::{Disk, MemDisk};

/// Device counters since the disk was created. Statistics only, so the
/// atomics behind them are `Relaxed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    pub writes: u64,
    pub write_bytes: u64,
    pub reads: u64,
    pub read_bytes: u64,
    pub syncs: u64,
    /// Bytes written to write-ahead log files (`wal_*`).
    pub wal_bytes: u64,
}

impl DiskCounts {
    /// Counter deltas (`self` after, `earlier` before).
    pub fn since(&self, earlier: &DiskCounts) -> DiskCounts {
        DiskCounts {
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            syncs: self.syncs - earlier.syncs,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
        }
    }
}

/// A [`MemDisk`] that counts what crosses it. Flush policy: `sync` is
/// counted and forwarded, and `MemDisk::sync` is a no-op — WAL
/// encode/CRC/append are measured, the sandbox's device is not.
#[derive(Debug, Default)]
pub struct CountingDisk {
    inner: MemDisk,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    syncs: AtomicU64,
    wal_bytes: AtomicU64,
}

impl CountingDisk {
    pub fn new() -> Arc<CountingDisk> {
        Arc::new(CountingDisk::default())
    }

    pub fn counts(&self) -> DiskCounts {
        DiskCounts {
            writes: self.writes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
        }
    }

    /// Bytes held by every file on the disk: column files (superseded
    /// epochs included), catalog and logs.
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .list()
            .iter()
            .map(|f| self.inner.len(f).unwrap_or(0))
            .sum()
    }
}

impl Disk for CountingDisk {
    fn create(&self, name: &str) -> Result<()> {
        self.inner.create(name)
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        if name.starts_with("wal_") {
            self.wal_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.inner.write_at(name, offset, data)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.inner.read_at(name, offset, len)
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.inner.len(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn sync(&self, name: &str) -> Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_up_and_bytes_pass_through() {
        let disk = CountingDisk::new();
        disk.create("t0_c0.col").unwrap();
        disk.create("wal_t0.log").unwrap();
        disk.write_at("t0_c0.col", 0, &[1, 2, 3, 4]).unwrap();
        disk.write_at("wal_t0.log", 0, &[9; 128]).unwrap();
        disk.write_at("wal_t0.log", 128, &[9; 128]).unwrap();
        disk.sync("wal_t0.log").unwrap();
        let before = disk.counts();
        assert_eq!(disk.read_at("t0_c0.col", 1, 2).unwrap(), vec![2, 3]);
        assert!(disk.read_at("t0_c0.col", 3, 2).is_err(), "short read");
        let after = disk.counts();
        assert_eq!(
            after,
            DiskCounts {
                writes: 3,
                write_bytes: 260,
                reads: 2,
                read_bytes: 4,
                syncs: 1,
                wal_bytes: 256,
            }
        );
        assert_eq!(after.since(&before).reads, 2);
        assert_eq!(after.since(&before).writes, 0);
        assert_eq!(disk.total_bytes(), 260);
        assert!(disk.exists("wal_t0.log") && !disk.exists("nope"));
        assert_eq!(disk.list().len(), 2);
        assert_eq!(disk.len("wal_t0.log").unwrap(), 256);
    }
}
