//! Disk abstraction: real files or an in-memory image.
//!
//! Both implementations expose the same random-access API, so the whole
//! stack (block fetch → buffer pool → operators) exercises one code path.
//! The in-memory disk is the laptop-scale stand-in for the paper's 2006
//! spinning disk: actual transfer time is negligible either way once the
//! OS page cache is warm, and the *cost* of cold I/O is accounted
//! separately by the [`IoMeter`](crate::meter::IoMeter).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use matstrat_common::{Error, Result};
use parking_lot::Mutex;

/// Random-access storage for column files, keyed by file name.
pub trait Disk: Send + Sync {
    /// Create (or truncate) a file.
    fn create(&self, name: &str) -> Result<()>;

    /// Write `data` at `offset`, extending the file as needed.
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()>;

    /// Read exactly `len` bytes at `offset`.
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// Current length of the file in bytes.
    fn len(&self, name: &str) -> Result<u64>;

    /// Whether the file exists.
    fn exists(&self, name: &str) -> bool;

    /// List all file names (unordered).
    fn list(&self) -> Vec<String>;

    /// Durability barrier: flush `name` so everything written so far
    /// survives a crash. The write-ahead log batches appends behind a
    /// single `sync` per group commit. Default is a no-op — correct for
    /// [`MemDisk`] (a crash loses the process and the "disk" with it);
    /// [`FileDisk`] overrides with a real fsync.
    fn sync(&self, _name: &str) -> Result<()> {
        Ok(())
    }

    /// Give back the space of a file nothing will read again (a column
    /// file a compaction superseded, an orphan a crash left behind).
    /// Afterwards the file is gone or empty; removing a file that does
    /// not exist is not an error. The default frees the bytes by
    /// truncating through [`Self::create`] and leaves a zero-length
    /// name behind — all a wrapper that forwards the required methods
    /// one by one can do; [`MemDisk`] and [`FileDisk`] unlink.
    fn remove(&self, name: &str) -> Result<()> {
        if self.exists(name) {
            self.create(name)?;
        }
        Ok(())
    }

    /// Give file `from` the name `to`, replacing any file there, so that
    /// `to` is never seen half written: the catalog swap. The default
    /// copies `from` to `to`, syncs the copy and removes `from` — all a
    /// wrapper that forwards the required methods one by one can do, and
    /// not atomic: a crash mid-copy tears `to`. A disk that must survive
    /// crashes overrides it; [`MemDisk`] and [`FileDisk`] rename in one
    /// step.
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let bytes = self.read_at(from, 0, self.len(from)? as usize)?;
        self.create(to)?;
        self.write_at(to, 0, &bytes)?;
        self.sync(to)?;
        self.remove(from)
    }
}

/// An in-memory disk image: `HashMap<name, Vec<u8>>` behind a mutex.
#[derive(Debug, Default)]
pub struct MemDisk {
    files: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemDisk {
    /// Empty in-memory disk.
    pub fn new() -> MemDisk {
        MemDisk::default()
    }
}

impl Disk for MemDisk {
    fn create(&self, name: &str) -> Result<()> {
        self.files.lock().insert(name.to_string(), Vec::new());
        Ok(())
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(name)
            .ok_or_else(|| Error::not_found(format!("file {name}")))?;
        let end = offset as usize + data.len();
        if f.len() < end {
            f.resize(end, 0);
        }
        f[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let files = self.files.lock();
        let f = files
            .get(name)
            .ok_or_else(|| Error::not_found(format!("file {name}")))?;
        let end = offset as usize + len;
        if f.len() < end {
            return Err(Error::corrupt(format!(
                "short read: {name} has {} bytes, wanted [{offset}, {end})",
                f.len()
            )));
        }
        Ok(f[offset as usize..end].to_vec())
    }

    fn len(&self, name: &str) -> Result<u64> {
        let files = self.files.lock();
        files
            .get(name)
            .map(|f| f.len() as u64)
            .ok_or_else(|| Error::not_found(format!("file {name}")))
    }

    fn exists(&self, name: &str) -> bool {
        self.files.lock().contains_key(name)
    }

    fn list(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.files.lock().remove(name);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.lock();
        let f = files
            .remove(from)
            .ok_or_else(|| Error::not_found(format!("file {from}")))?;
        files.insert(to.to_string(), f);
        Ok(())
    }
}

/// A directory of real files on the local file system.
#[derive(Debug)]
pub struct FileDisk {
    dir: PathBuf,
}

impl FileDisk {
    /// Open (creating if necessary) a directory as a disk.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileDisk> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(FileDisk { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        // Column names are catalog-generated (`t{t}_c{c}.col`), never raw
        // user input, but reject separators defensively.
        assert!(
            !name.contains('/') && !name.contains('\\'),
            "file name must not contain path separators"
        );
        self.dir.join(name)
    }
}

impl Disk for FileDisk {
    fn create(&self, name: &str) -> Result<()> {
        File::create(self.path(name))?;
        Ok(())
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        let mut f = OpenOptions::new().write(true).open(self.path(name))?;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)?;
        Ok(())
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut f = File::open(self.path(name))?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn len(&self, name: &str) -> Result<u64> {
        Ok(std::fs::metadata(self.path(name))?.len())
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn list(&self) -> Vec<String> {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn sync(&self, name: &str) -> Result<()> {
        File::open(self.path(name))?.sync_all()?;
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// `rename(2)`, then a sync of the directory, which makes the new
    /// name durable.
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(self.path(from), self.path(to))?;
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        disk.create("a.col").unwrap();
        assert!(disk.exists("a.col"));
        assert!(!disk.exists("b.col"));
        disk.write_at("a.col", 0, b"hello").unwrap();
        disk.write_at("a.col", 10, b"world").unwrap();
        assert_eq!(disk.len("a.col").unwrap(), 15);
        assert_eq!(disk.read_at("a.col", 0, 5).unwrap(), b"hello");
        assert_eq!(disk.read_at("a.col", 10, 5).unwrap(), b"world");
        // Gap is zero-filled.
        assert_eq!(disk.read_at("a.col", 5, 5).unwrap(), vec![0u8; 5]);
        // Reading past EOF fails.
        assert!(disk.read_at("a.col", 12, 10).is_err());
        // Missing file fails.
        assert!(disk.read_at("nope", 0, 1).is_err());
        assert!(disk.len("nope").is_err());
        assert!(disk.list().contains(&"a.col".to_string()));
        // Removal unlinks, and is idempotent.
        disk.remove("a.col").unwrap();
        assert!(!disk.exists("a.col"));
        assert!(disk.list().is_empty());
        disk.remove("a.col").unwrap();
    }

    #[test]
    fn memdisk_contract() {
        exercise(&MemDisk::new());
    }

    #[test]
    fn filedisk_contract() {
        let dir = std::env::temp_dir().join(format!("matstrat-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&FileDisk::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memdisk_create_truncates() {
        let d = MemDisk::new();
        d.create("f").unwrap();
        d.write_at("f", 0, b"data").unwrap();
        d.create("f").unwrap();
        assert_eq!(d.len("f").unwrap(), 0);
    }

    /// Forwards the required methods only, like the disks other
    /// packages wrap around ours.
    struct Forwarding(MemDisk);

    impl Disk for Forwarding {
        fn create(&self, name: &str) -> Result<()> {
            self.0.create(name)
        }
        fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
            self.0.write_at(name, offset, data)
        }
        fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.0.read_at(name, offset, len)
        }
        fn len(&self, name: &str) -> Result<u64> {
            self.0.len(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.0.exists(name)
        }
        fn list(&self) -> Vec<String> {
            self.0.list()
        }
    }

    #[test]
    fn rename_replaces_the_target_whole() {
        let dir = std::env::temp_dir().join(format!("matstrat-disk-mv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = FileDisk::open(&dir).unwrap();
        let (mem, fwd) = (MemDisk::new(), Forwarding(MemDisk::new()));
        for disk in [&mem as &dyn Disk, &file, &fwd] {
            disk.create("old").unwrap();
            disk.write_at("old", 0, b"a longer old body").unwrap();
            disk.create("new").unwrap();
            disk.write_at("new", 0, b"new").unwrap();
            disk.rename("new", "old").unwrap();
            assert_eq!(disk.read_at("old", 0, 3).unwrap(), b"new");
            assert_eq!(disk.len("old").unwrap(), 3, "no tail of the old body");
            // The default leaves an empty stub where `from` was.
            assert_eq!(disk.len("new").unwrap_or(0), 0);
            assert!(disk.rename("missing", "old").is_err());
            assert_eq!(disk.read_at("old", 0, 3).unwrap(), b"new");
        }
        assert!(
            !mem.exists("new") && !file.exists("new"),
            "moved, not copied"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_remove_frees_the_bytes_through_create() {
        let d = Forwarding(MemDisk::new());
        d.create("f").unwrap();
        d.write_at("f", 0, b"data").unwrap();
        d.remove("f").unwrap();
        assert_eq!(d.len("f").unwrap(), 0, "a stub, but an empty one");
        d.remove("never-existed").unwrap();
        assert!(!d.exists("never-existed"), "removal creates nothing");
    }

    #[test]
    #[should_panic(expected = "path separators")]
    fn filedisk_rejects_separators() {
        let dir = std::env::temp_dir().join(format!("matstrat-disk-sep-{}", std::process::id()));
        let d = FileDisk::open(&dir).unwrap();
        let _ = d.exists("../evil");
    }
}
