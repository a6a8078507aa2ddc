//! One generation of a projection's column files, and the pin that
//! keeps it readable.
//!
//! Compaction never edits a column file: it writes a new generation
//! under new names and swaps the catalog entry. Whoever could still
//! issue a read against the old files — a [`ProjectionInfo`] handed out
//! before the swap, a [`ColumnReader`] opened from one — holds an
//! `Arc<Generation>`, and that `Arc` is the pin. Compaction *retires*
//! the old generation once the new catalog is durable; when the last
//! pin drops after that, the files are removed from the disk and their
//! blocks from the pool, at that moment and by whichever thread dropped
//! it. No pin left means no reader left, so nothing can fault a retired
//! block back into the pool afterwards.
//!
//! A generation that is never retired (the current one when the store
//! closes) is simply forgotten: its files are the data.
//!
//! [`ProjectionInfo`]: crate::catalog::ProjectionInfo
//! [`ColumnReader`]: crate::store::ColumnReader

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use matstrat_common::{Error, Result};

use crate::disk::Disk;
use crate::file::ColumnFileReader;
use crate::pool::BufferPool;

/// The column files of one projection at one compaction epoch. See the
/// module docs; the type is opaque outside the crate — holding one (in
/// a `ProjectionInfo` or a `ColumnReader`) is all a caller does with it.
pub struct Generation {
    disk: Arc<dyn Disk>,
    pool: Arc<BufferPool>,
    /// One file per column, in schema order: its name, and its opened
    /// header and block index — filled on first use, freed with the
    /// generation.
    files: Vec<(String, OnceLock<Arc<ColumnFileReader>>)>,
    /// Set by compaction once the catalog that no longer names these
    /// files is durable.
    retired: AtomicBool,
}

impl Generation {
    pub(crate) fn new(
        disk: Arc<dyn Disk>,
        pool: Arc<BufferPool>,
        files: Vec<String>,
    ) -> Arc<Generation> {
        Arc::new(Generation {
            disk,
            pool,
            files: files.into_iter().map(|f| (f, OnceLock::new())).collect(),
            retired: AtomicBool::new(false),
        })
    }

    /// The opened file of column `col`, read from disk the first time.
    pub(crate) fn file(&self, col: usize) -> Result<Arc<ColumnFileReader>> {
        let (name, cell) = self
            .files
            .get(col)
            .ok_or_else(|| Error::invalid(format!("column index {col} out of range")))?;
        if let Some(f) = cell.get() {
            return Ok(Arc::clone(f));
        }
        // Two first users may both read the header; one copy is kept.
        let opened = Arc::new(ColumnFileReader::open(self.disk.as_ref(), name.as_str())?);
        Ok(Arc::clone(cell.get_or_init(|| opened)))
    }

    /// Mark the generation superseded: its files go when the last pin
    /// does. Call only after the catalog that replaced it is durable —
    /// until then a crash must still find these files.
    pub(crate) fn retire(&self) {
        // Whoever drops the last pin reads this in `drop`, after the
        // acquire fence `Arc` runs before dropping its contents; the
        // retiring thread's own pin release orders the store before it.
        self.retired.store(true, Ordering::Release);
    }
}

impl Drop for Generation {
    fn drop(&mut self) {
        if !*self.retired.get_mut() {
            return;
        }
        for (file, _) in &self.files {
            self.pool.invalidate_file(file);
            // A file that will not go away is an orphan for the next
            // open's sweep; there is nobody to report it to from here.
            let _ = self.disk.remove(file);
        }
    }
}

impl fmt::Debug for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Generation")
            .field(
                "files",
                &self.files.iter().map(|(f, _)| f).collect::<Vec<_>>(),
            )
            .field("retired", &self.retired.load(Ordering::Relaxed))
            .finish()
    }
}
