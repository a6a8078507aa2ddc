//! Column files: a stats header, a sequence of encoded blocks, and a
//! block index.
//!
//! Layout:
//!
//! ```text
//! [ header (80 bytes): magic, version, encoding, width,
//!   num_rows, num_blocks, index_offset, min, max, distinct, num_runs ]
//! [ block 0 ][ block 1 ] ... [ block n-1 ]
//! [ index: n entries of (offset, len, start_pos, count) ]
//! ```
//!
//! The index is loaded into memory when a column is opened, so locating
//! the block containing a position is a binary search with no I/O —
//! the "jump to pos" of the DS3/DS4 pseudocode.

use matstrat_common::{Error, Pos, Predicate, Result, Value, Width};

use crate::block::{BitVecBlock, DictBlock, EncodedBlock, PlainBlock, RleBlock};
use crate::disk::Disk;
use crate::encoding::EncodingKind;
use crate::wire::{put_u16, put_u32, put_u64, put_u8, Reader};
use crate::BLOCK_SIZE;

const MAGIC: &[u8; 4] = b"MSCF";
// Version history: 2 added a per-block min/max zone map to the index.
const VERSION: u32 = 2;
const HEADER_SIZE: u64 = 80;
const INDEX_ENTRY_SIZE_V1: usize = 24;
const INDEX_ENTRY_SIZE: usize = 40;

/// Location, position coverage, and value zone of one block inside a
/// column file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIndexEntry {
    /// Byte offset of the serialized block.
    pub offset: u64,
    /// Serialized length in bytes.
    pub len: u32,
    /// Absolute position of the block's first row.
    pub start_pos: Pos,
    /// Number of rows in the block.
    pub count: u32,
    /// Smallest value in the block (`Value::MIN` for pre-zone files:
    /// an unknown zone never prunes).
    pub min: Value,
    /// Largest value in the block (`Value::MAX` for pre-zone files).
    pub max: Value,
}

impl BlockIndexEntry {
    /// Zone-map test: can this block contain a row matching `pred`?
    /// `false` means the block is provably predicate-free and a filtered
    /// scan may skip it without reading it.
    pub fn zone_overlaps(&self, pred: &Predicate) -> bool {
        pred.overlaps_range(self.min, self.max)
    }
}

/// Statistics gathered while writing a column, persisted in the header.
///
/// These are exactly the quantities the analytical model consumes:
/// `|C|` (blocks), `||C||` (rows), and `RL` (average run length =
/// `num_rows / num_runs`), plus min/max/distinct for selectivity
/// estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Total rows (`||C||`).
    pub num_rows: u64,
    /// Total blocks (`|C|`).
    pub num_blocks: u64,
    /// Minimum value (0 when the column is empty).
    pub min: Value,
    /// Maximum value (0 when the column is empty).
    pub max: Value,
    /// Number of distinct values.
    pub distinct: u64,
    /// Number of maximal equal-value runs (`num_rows / RL`).
    pub num_runs: u64,
}

impl ColumnStats {
    /// Average sorted-run length `RL` (1.0 for an empty column).
    pub fn avg_run_len(&self) -> f64 {
        if self.num_runs == 0 {
            1.0
        } else {
            self.num_rows as f64 / self.num_runs as f64
        }
    }
}

/// Streaming writer: push values, blocks split themselves per codec.
pub struct ColumnFileWriter<'a> {
    disk: &'a dyn Disk,
    name: String,
    encoding: EncodingKind,
    width: Width,
    buffer: Vec<Value>,
    /// Distinct values in the *current block* (BitVec/Dict size control).
    block_distinct: Vec<Value>,
    /// Runs in the current block (RLE size control).
    block_runs: usize,
    /// Dict only: a column-wide dictionary every block encodes against
    /// (instead of per-block first-appearance dictionaries).
    shared_dict: Option<Vec<Value>>,
    /// Zone map of the current block.
    block_min: Value,
    block_max: Value,
    next_start: Pos,
    write_offset: u64,
    index: Vec<BlockIndexEntry>,
    // Column-wide stats.
    min: Value,
    max: Value,
    /// Run starts, folded to the distinct values among them by
    /// [`fold_distinct`] whenever they reach `fold_at`, and once more
    /// when the column is finished: their length is `distinct` then.
    run_starts: Vec<Value>,
    fold_at: usize,
    num_runs: u64,
    last_value: Option<Value>,
}

/// The fewest run starts a writer collects before folding them: 64 Ki
/// values (512 KiB). Between folds it collects as many again as the
/// fold left, so a column of many short runs over few values holds
/// about this many, and one of many values about twice its distinct
/// count, however many rows it has.
const FOLD_MIN_RUN_STARTS: usize = 1 << 16;

/// [`fold_distinct`] takes a bitmap over `[min, max]` when that span is
/// at most this many bits per collected value: the bitmap is then no
/// larger than the `Vec` of 64-bit values it folds, and one pass over it
/// replaces a sort.
const DISTINCT_BITMAP_BITS_PER_VALUE: i128 = 64;

/// Reduce `values`, every one in `[min, max]`, to its distinct values in
/// ascending order: one pass through a bitmap of the span when the
/// values are dense in it, otherwise a sort and dedup. Nothing is
/// hashed; the span is taken in `i128`, so values at `i64::MIN` and
/// `i64::MAX` cannot wrap into a small one.
fn fold_distinct(values: &mut Vec<Value>, min: Value, max: Value) {
    if values.is_empty() {
        return;
    }
    let span = i128::from(max) - i128::from(min) + 1;
    if span <= values.len() as i128 * DISTINCT_BITMAP_BITS_PER_VALUE {
        let mut bits = vec![0u64; (span as usize).div_ceil(64)];
        for &v in values.iter() {
            let off = (i128::from(v) - i128::from(min)) as usize;
            bits[off / 64] |= 1 << (off % 64);
        }
        values.clear();
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let off = w * 64 + word.trailing_zeros() as usize;
                values.push((i128::from(min) + off as i128) as Value);
                word &= word - 1;
            }
        }
    } else {
        values.sort_unstable();
        values.dedup();
    }
}

impl<'a> ColumnFileWriter<'a> {
    /// Create `name` on `disk` and start writing a column with the given
    /// encoding. `width` is the packed width for `Plain` (ignored by the
    /// other codecs).
    pub fn create(
        disk: &'a dyn Disk,
        name: impl Into<String>,
        encoding: EncodingKind,
        width: Width,
    ) -> Result<ColumnFileWriter<'a>> {
        let name = name.into();
        disk.create(&name)?;
        Ok(ColumnFileWriter {
            disk,
            name,
            encoding,
            width,
            buffer: Vec::new(),
            block_distinct: Vec::new(),
            block_runs: 0,
            shared_dict: None,
            block_min: Value::MAX,
            block_max: Value::MIN,
            next_start: 0,
            write_offset: HEADER_SIZE,
            index: Vec::new(),
            min: Value::MAX,
            max: Value::MIN,
            run_starts: Vec::new(),
            fold_at: FOLD_MIN_RUN_STARTS,
            num_runs: 0,
            last_value: None,
        })
    }

    /// Create a dict-encoded column whose blocks all share `dict`
    /// (must be sorted ascending distinct values; every pushed value
    /// must be present in it or `finish`/`flush` will error).
    pub fn create_shared_dict(
        disk: &'a dyn Disk,
        name: impl Into<String>,
        dict: Vec<Value>,
    ) -> Result<ColumnFileWriter<'a>> {
        if !dict.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::invalid(
                "shared dictionary must be sorted ascending with distinct values",
            ));
        }
        let mut w = Self::create(disk, name, EncodingKind::Dict, Width::W8)?;
        w.shared_dict = Some(dict);
        Ok(w)
    }

    /// Whether appending `v` to the current block would overflow 64 KB.
    fn would_overflow(&self, v: Value) -> bool {
        let n = self.buffer.len();
        if let Some(dict) = &self.shared_dict {
            // The dictionary is fixed, so only the packed codes grow.
            return DictBlock::encoded_size(dict.len(), n + 1) > BLOCK_SIZE;
        }
        match self.encoding {
            EncodingKind::Plain => n >= PlainBlock::capacity(self.width),
            EncodingKind::Rle => {
                let new_run = self.buffer.last() != Some(&v);
                self.block_runs + usize::from(new_run) > RleBlock::capacity_runs()
            }
            EncodingKind::BitVec => {
                let k = self.block_distinct.len() + usize::from(!self.block_distinct.contains(&v));
                BitVecBlock::encoded_size(k, n + 1) > BLOCK_SIZE
            }
            EncodingKind::Dict => {
                let k = self.block_distinct.len() + usize::from(!self.block_distinct.contains(&v));
                DictBlock::encoded_size(k, n + 1) > BLOCK_SIZE
            }
        }
    }

    /// Append one value.
    pub fn push(&mut self, v: Value) -> Result<()> {
        if self.encoding == EncodingKind::Plain && !self.width.fits(v) {
            return Err(Error::invalid(format!(
                "value {v} does not fit plain width {}",
                self.width
            )));
        }
        if self.would_overflow(v) {
            self.flush_block()?;
        }
        // Per-block bookkeeping.
        match self.encoding {
            EncodingKind::Rle => {
                if self.buffer.last() != Some(&v) {
                    self.block_runs += 1;
                }
            }
            EncodingKind::BitVec | EncodingKind::Dict => {
                // With a shared dictionary the block's cardinality is
                // fixed, so per-block distinct tracking is unnecessary.
                if self.shared_dict.is_none() && !self.block_distinct.contains(&v) {
                    self.block_distinct.push(v);
                }
            }
            EncodingKind::Plain => {}
        }
        self.buffer.push(v);
        self.block_min = self.block_min.min(v);
        self.block_max = self.block_max.max(v);
        // Column-wide stats.
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        // A value equal to its predecessor opens no run and is already
        // collected: keep only run starts.
        if self.last_value != Some(v) {
            self.run_starts.push(v);
            if self.run_starts.len() >= self.fold_at {
                fold_distinct(&mut self.run_starts, self.min, self.max);
                self.fold_at = (2 * self.run_starts.len()).max(FOLD_MIN_RUN_STARTS);
            }
            self.num_runs += 1;
            self.last_value = Some(v);
        }
        Ok(())
    }

    /// Append a slice of values.
    pub fn push_all(&mut self, values: &[Value]) -> Result<()> {
        for &v in values {
            self.push(v)?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let block = match self.encoding {
            EncodingKind::Plain => EncodedBlock::Plain(PlainBlock::from_values(
                self.next_start,
                self.width,
                &self.buffer,
            )),
            EncodingKind::Rle => {
                EncodedBlock::Rle(RleBlock::from_values(self.next_start, &self.buffer))
            }
            EncodingKind::BitVec => {
                EncodedBlock::BitVec(BitVecBlock::from_values(self.next_start, &self.buffer))
            }
            EncodingKind::Dict => match &self.shared_dict {
                Some(dict) => EncodedBlock::Dict(DictBlock::from_values_shared(
                    self.next_start,
                    &self.buffer,
                    dict,
                )?),
                None => EncodedBlock::Dict(DictBlock::from_values(self.next_start, &self.buffer)),
            },
        };
        let bytes = block.serialize();
        self.disk.write_at(&self.name, self.write_offset, &bytes)?;
        self.index.push(BlockIndexEntry {
            offset: self.write_offset,
            len: bytes.len() as u32,
            start_pos: self.next_start,
            count: self.buffer.len() as u32,
            min: self.block_min,
            max: self.block_max,
        });
        self.write_offset += bytes.len() as u64;
        self.next_start += self.buffer.len() as u64;
        self.buffer.clear();
        self.block_distinct.clear();
        self.block_runs = 0;
        self.block_min = Value::MAX;
        self.block_max = Value::MIN;
        Ok(())
    }

    /// Flush the final block, write the index and header, and return the
    /// column statistics.
    pub fn finish(mut self) -> Result<ColumnStats> {
        self.flush_block()?;
        let index_offset = self.write_offset;
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_SIZE);
        for e in &self.index {
            put_u64(&mut index_bytes, e.offset);
            put_u32(&mut index_bytes, e.len);
            put_u64(&mut index_bytes, e.start_pos);
            put_u32(&mut index_bytes, e.count);
            index_bytes.extend_from_slice(&e.min.to_le_bytes());
            index_bytes.extend_from_slice(&e.max.to_le_bytes());
        }
        self.disk.write_at(&self.name, index_offset, &index_bytes)?;

        fold_distinct(&mut self.run_starts, self.min, self.max);
        let empty = self.run_starts.is_empty();
        let stats = ColumnStats {
            num_rows: self.next_start,
            num_blocks: self.index.len() as u64,
            min: if empty { 0 } else { self.min },
            max: if empty { 0 } else { self.max },
            distinct: self.run_starts.len() as u64,
            num_runs: self.num_runs,
        };

        let mut header = Vec::with_capacity(HEADER_SIZE as usize);
        header.extend_from_slice(MAGIC);
        put_u32(&mut header, VERSION);
        put_u8(&mut header, self.encoding.tag());
        put_u8(&mut header, self.width.bytes() as u8);
        put_u16(&mut header, 0);
        put_u32(&mut header, 0); // padding to 16
        put_u64(&mut header, stats.num_rows);
        put_u64(&mut header, stats.num_blocks);
        put_u64(&mut header, index_offset);
        header.extend_from_slice(&stats.min.to_le_bytes());
        header.extend_from_slice(&stats.max.to_le_bytes());
        put_u64(&mut header, stats.distinct);
        put_u64(&mut header, stats.num_runs);
        put_u64(&mut header, 0); // tail padding to HEADER_SIZE
        debug_assert_eq!(header.len() as u64, HEADER_SIZE);
        self.disk.write_at(&self.name, 0, &header)?;
        Ok(stats)
    }
}

/// An opened column file: header stats plus the in-memory block index.
#[derive(Debug, Clone)]
pub struct ColumnFileReader {
    name: String,
    encoding: EncodingKind,
    width: Width,
    stats: ColumnStats,
    index: Vec<BlockIndexEntry>,
}

impl ColumnFileReader {
    /// Open `name` on `disk`, reading the header and block index.
    pub fn open(disk: &dyn Disk, name: impl Into<String>) -> Result<ColumnFileReader> {
        let name = name.into();
        let header = disk.read_at(&name, 0, HEADER_SIZE as usize)?;
        let mut r = Reader::new(&header);
        if r.bytes(4)? != MAGIC {
            return Err(Error::corrupt(format!("{name}: bad magic")));
        }
        let version = r.u32()?;
        if !(1..=VERSION).contains(&version) {
            return Err(Error::corrupt(format!("{name}: unknown version {version}")));
        }
        let encoding = EncodingKind::from_tag(r.u8()?)?;
        let width = match r.u8()? {
            1 => Width::W1,
            2 => Width::W2,
            4 => Width::W4,
            8 => Width::W8,
            w => return Err(Error::corrupt(format!("{name}: bad width {w}"))),
        };
        let _ = r.u16()?;
        let _ = r.u32()?;
        let num_rows = r.u64()?;
        let num_blocks = r.u64()?;
        let index_offset = r.u64()?;
        let min = r.i64()?;
        let max = r.i64()?;
        let distinct = r.u64()?;
        let num_runs = r.u64()?;

        let entry_size = if version >= 2 {
            INDEX_ENTRY_SIZE
        } else {
            INDEX_ENTRY_SIZE_V1
        };
        // Header counts are untrusted: the index must lie inside the file
        // before its size sizes a read or an allocation.
        let file_len = disk.len(&name)?;
        let index_len = usize::try_from(num_blocks)
            .ok()
            .and_then(|n| n.checked_mul(entry_size))
            .filter(|&len| {
                index_offset
                    .checked_add(len as u64)
                    .is_some_and(|end| end <= file_len)
            })
            .ok_or_else(|| {
                Error::corrupt(format!(
                    "{name}: {num_blocks} index entries at offset {index_offset} \
                     overrun the {file_len}-byte file"
                ))
            })?;
        let index_bytes = disk.read_at(&name, index_offset, index_len)?;
        let mut ir = Reader::new(&index_bytes);
        let mut index = Vec::with_capacity(num_blocks as usize);
        for _ in 0..num_blocks {
            let (offset, len, start_pos, count) = (ir.u64()?, ir.u32()?, ir.u64()?, ir.u32()?);
            // Version 1 predates zone maps: an unbounded zone never prunes.
            let (bmin, bmax) = if version >= 2 {
                (ir.i64()?, ir.i64()?)
            } else {
                (Value::MIN, Value::MAX)
            };
            index.push(BlockIndexEntry {
                offset,
                len,
                start_pos,
                count,
                min: bmin,
                max: bmax,
            });
        }
        Ok(ColumnFileReader {
            name,
            encoding,
            width,
            stats: ColumnStats {
                num_rows,
                num_blocks,
                min,
                max,
                distinct,
                num_runs,
            },
            index,
        })
    }

    /// File name on the disk.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column encoding.
    pub fn encoding(&self) -> EncodingKind {
        self.encoding
    }

    /// Packed width (meaningful for `Plain`).
    pub fn width(&self) -> Width {
        self.width
    }

    /// Header statistics.
    pub fn stats(&self) -> ColumnStats {
        self.stats
    }

    /// The block index.
    pub fn index(&self) -> &[BlockIndexEntry] {
        &self.index
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// Index of the block containing absolute position `pos`.
    pub fn block_for_pos(&self, pos: Pos) -> Result<usize> {
        if pos >= self.stats.num_rows {
            return Err(Error::invalid(format!(
                "position {pos} beyond column {} ({} rows)",
                self.name, self.stats.num_rows
            )));
        }
        let idx = self
            .index
            .partition_point(|e| e.start_pos + e.count as u64 <= pos);
        Ok(idx)
    }

    /// Read and parse block `idx` from `disk` (no caching — the store's
    /// buffer pool sits above this).
    pub fn fetch_block(&self, disk: &dyn Disk, idx: usize) -> Result<EncodedBlock> {
        let e = self
            .index
            .get(idx)
            .ok_or_else(|| Error::invalid(format!("block {idx} out of range for {}", self.name)))?;
        let bytes = disk.read_at(&self.name, e.offset, e.len as usize)?;
        EncodedBlock::parse(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use matstrat_common::Predicate;

    fn write_column(
        disk: &MemDisk,
        name: &str,
        encoding: EncodingKind,
        width: Width,
        values: &[Value],
    ) -> ColumnStats {
        let mut w = ColumnFileWriter::create(disk, name, encoding, width).unwrap();
        w.push_all(values).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_small_column_all_codecs() {
        let values: Vec<Value> = (0..1000).map(|i| (i / 37) % 11).collect();
        let disk = MemDisk::new();
        for (enc, name) in [
            (EncodingKind::Plain, "p.col"),
            (EncodingKind::Rle, "r.col"),
            (EncodingKind::BitVec, "b.col"),
            (EncodingKind::Dict, "d.col"),
        ] {
            let stats = write_column(&disk, name, enc, Width::W2, &values);
            assert_eq!(stats.num_rows, 1000);
            assert_eq!(stats.min, 0);
            assert_eq!(stats.max, 10);
            assert_eq!(stats.distinct, 11);
            let r = ColumnFileReader::open(&disk, name).unwrap();
            assert_eq!(r.encoding(), enc);
            assert_eq!(r.stats(), stats);
            let mut decoded = Vec::new();
            for i in 0..r.num_blocks() {
                r.fetch_block(&disk, i).unwrap().decode_all(&mut decoded);
            }
            assert_eq!(decoded, values, "{enc}");
        }
    }

    #[test]
    fn plain_splits_at_capacity() {
        let n = PlainBlock::capacity(Width::W1) + 10;
        let values: Vec<Value> = (0..n).map(|i| (i % 7) as Value).collect();
        let disk = MemDisk::new();
        let stats = write_column(&disk, "c", EncodingKind::Plain, Width::W1, &values);
        assert_eq!(stats.num_blocks, 2);
        let r = ColumnFileReader::open(&disk, "c").unwrap();
        assert_eq!(r.index()[0].count as usize, PlainBlock::capacity(Width::W1));
        assert_eq!(r.index()[1].count, 10);
        assert_eq!(
            r.index()[1].start_pos,
            PlainBlock::capacity(Width::W1) as u64
        );
    }

    #[test]
    fn block_for_pos_binary_search() {
        let n = PlainBlock::capacity(Width::W1) * 2 + 5;
        let values: Vec<Value> = vec![1; n];
        let disk = MemDisk::new();
        write_column(&disk, "c", EncodingKind::Plain, Width::W1, &values);
        let r = ColumnFileReader::open(&disk, "c").unwrap();
        assert_eq!(r.block_for_pos(0).unwrap(), 0);
        assert_eq!(
            r.block_for_pos(PlainBlock::capacity(Width::W1) as u64)
                .unwrap(),
            1
        );
        assert_eq!(r.block_for_pos(n as u64 - 1).unwrap(), 2);
        assert!(r.block_for_pos(n as u64).is_err());
    }

    #[test]
    fn rle_compression_ratio_on_sorted_data() {
        // 100k rows, 10 distinct values, sorted: 10 runs → 1 block.
        let mut values = Vec::new();
        for v in 0..10 {
            values.extend(std::iter::repeat_n(v, 10_000));
        }
        let disk = MemDisk::new();
        let stats = write_column(&disk, "c", EncodingKind::Rle, Width::W8, &values);
        assert_eq!(stats.num_blocks, 1);
        assert_eq!(stats.num_runs, 10);
        assert!((stats.avg_run_len() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn index_carries_per_block_zone_maps() {
        // Clustered data: each block's zone is a narrow value band, so a
        // point predicate prunes all but one block.
        let n = PlainBlock::capacity(Width::W1) * 3;
        let values: Vec<Value> = (0..n)
            .map(|i| (i / PlainBlock::capacity(Width::W1)) as Value)
            .collect();
        let disk = MemDisk::new();
        write_column(&disk, "c", EncodingKind::Plain, Width::W1, &values);
        let r = ColumnFileReader::open(&disk, "c").unwrap();
        assert_eq!(r.num_blocks(), 3);
        for (b, e) in r.index().iter().enumerate() {
            assert_eq!((e.min, e.max), (b as Value, b as Value));
        }
        let hits: Vec<usize> = (0..3)
            .filter(|&b| r.index()[b].zone_overlaps(&Predicate::eq(1)))
            .collect();
        assert_eq!(hits, vec![1]);
        // Range and Ne predicates stay conservative.
        assert!(r.index()[0].zone_overlaps(&Predicate::lt(1)));
        assert!(!r.index()[2].zone_overlaps(&Predicate::lt(1)));
        assert!(r.index()[0].zone_overlaps(&Predicate::ne(1)));
        assert!(
            !r.index()[1].zone_overlaps(&Predicate::ne(1)),
            "all-1 block"
        );
    }

    #[test]
    fn open_accepts_version_1_index_without_zones() {
        // Serialize a column, then rewrite it as a v1 file: header version
        // 1 and 24-byte index entries (zones spliced out).
        let values: Vec<Value> = (0..100).collect();
        let disk = MemDisk::new();
        write_column(&disk, "c", EncodingKind::Plain, Width::W1, &values);
        let len = disk.len("c").unwrap() as usize;
        let mut bytes = disk.read_at("c", 0, len).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let index_offset = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
        // One block: drop its 16 zone bytes from the index tail.
        bytes.truncate(index_offset + INDEX_ENTRY_SIZE_V1);
        disk.create("v1").unwrap();
        disk.write_at("v1", 0, &bytes).unwrap();
        let r = ColumnFileReader::open(&disk, "v1").unwrap();
        let e = r.index()[0];
        assert_eq!((e.min, e.max), (Value::MIN, Value::MAX));
        assert!(
            e.zone_overlaps(&Predicate::eq(12345)),
            "unknown zones never prune"
        );
    }

    #[test]
    fn width_violation_is_error() {
        let disk = MemDisk::new();
        let mut w = ColumnFileWriter::create(&disk, "c", EncodingKind::Plain, Width::W1).unwrap();
        assert!(w.push(128).is_err());
    }

    #[test]
    fn empty_column() {
        let disk = MemDisk::new();
        let stats = write_column(&disk, "c", EncodingKind::Rle, Width::W8, &[]);
        assert_eq!(stats.num_rows, 0);
        assert_eq!(stats.num_blocks, 0);
        let r = ColumnFileReader::open(&disk, "c").unwrap();
        assert_eq!(r.num_blocks(), 0);
        assert!(r.block_for_pos(0).is_err());
    }

    #[test]
    fn open_rejects_bad_magic() {
        let disk = MemDisk::new();
        disk.create("junk").unwrap();
        disk.write_at("junk", 0, &[0u8; 80]).unwrap();
        assert!(ColumnFileReader::open(&disk, "junk").is_err());
    }

    #[test]
    fn shared_dict_writer_gives_every_block_the_same_fingerprint() {
        // Enough rows to split into several blocks; values drawn from a
        // small domain so per-block first-appearance dicts would differ.
        // 1-byte codes pack ~65k rows per 64 KB block, so 150k rows
        // forces a split.
        let values: Vec<Value> = (0..150_000).map(|i| ((i * 7919) % 13) * 100).collect();
        let mut dict: Vec<Value> = (0..13).map(|v| v * 100).collect();
        dict.sort_unstable();
        let disk = MemDisk::new();
        let mut w = ColumnFileWriter::create_shared_dict(&disk, "c", dict.clone()).unwrap();
        w.push_all(&values).unwrap();
        let stats = w.finish().unwrap();
        assert!(stats.num_blocks > 1, "want a multi-block column");
        let r = ColumnFileReader::open(&disk, "c").unwrap();
        let mut decoded = Vec::new();
        let mut fps = std::collections::HashSet::new();
        for i in 0..r.num_blocks() {
            let b = r.fetch_block(&disk, i).unwrap();
            if let EncodedBlock::Dict(d) = &b {
                assert_eq!(
                    d.dictionary(),
                    &dict[..],
                    "block {i} must store the shared dict"
                );
                fps.insert(d.fingerprint());
            } else {
                panic!("expected dict block");
            }
            b.decode_all(&mut decoded);
        }
        assert_eq!(fps.len(), 1, "all blocks share one fingerprint");
        assert_eq!(decoded, values);
    }

    #[test]
    fn shared_dict_writer_rejects_unsorted_dict_and_absent_values() {
        let disk = MemDisk::new();
        assert!(ColumnFileWriter::create_shared_dict(&disk, "bad", vec![3, 1, 2]).is_err());
        assert!(ColumnFileWriter::create_shared_dict(&disk, "dup", vec![1, 1]).is_err());
        let mut w = ColumnFileWriter::create_shared_dict(&disk, "c", vec![1, 2, 3]).unwrap();
        w.push(99).unwrap(); // caught when the block encodes
        assert!(w.finish().is_err());
    }

    #[test]
    fn bitvec_blocks_hold_many_rows_at_low_cardinality() {
        // 7 distinct values (like LINENUM): blocks should be large.
        let values: Vec<Value> = (0..200_000).map(|i| (i % 7) as Value + 1).collect();
        let disk = MemDisk::new();
        let stats = write_column(&disk, "c", EncodingKind::BitVec, Width::W8, &values);
        // encoded_size(7, n) <= 64KB → n ≈ 74k rows/block → 3 blocks.
        assert_eq!(stats.num_blocks, 3);
        let r = ColumnFileReader::open(&disk, "c").unwrap();
        let b = r.fetch_block(&disk, 0).unwrap();
        let pl = b.scan_positions(&Predicate::lt(3));
        let expected = b.covering().iter().filter(|&p| (p % 7) + 1 < 3).count() as u64;
        assert_eq!(pl.count(), expected);
    }

    #[test]
    fn hostile_block_count_is_corrupt_not_a_panic() {
        let disk = MemDisk::new();
        let values: Vec<Value> = (0..100).collect();
        // 2^63 entries overflow `usize` arithmetic; 2^40 do not, but
        // still overrun the file by terabytes.
        for hostile in [1u64 << 63, 1 << 40] {
            write_column(&disk, "h.col", EncodingKind::Plain, Width::W8, &values);
            // num_blocks sits at header bytes 24..32.
            disk.write_at("h.col", 24, &hostile.to_le_bytes()).unwrap();
            let err = ColumnFileReader::open(&disk, "h.col").unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{hostile}: {err}");
        }
    }
}
