//! The segmented write-ahead log.
//!
//! Effects of committed transactions and block-seal markers are appended
//! as checksummed frames (`[len][crc32][payload]`, see DESIGN.md §9) to
//! numbered segment files `wal/seg-NNNNNNNN.log`. Appends are
//! group-committed: the active
//! segment is fsynced once `flush_interval` records accumulate, and
//! unconditionally when a block seals. Opening a WAL replays every
//! intact record and truncates the torn tail a crash may have left.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use parblock_ledger::Version;
use parblock_types::wire::{encode_writes, Reader, Wire};
use parblock_types::{BlockNumber, Hash32, Key, SeqNo, Value};

use crate::frame;

/// One durable WAL entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The committed write-set of the transaction at `version`. Logged
    /// before any COMMIT message carrying the result leaves the node.
    Effects {
        /// The writer's log position `(block, seq)`.
        version: Version,
        /// The record updates the transaction produced.
        writes: Vec<(Key, Value)>,
    },
    /// Block `number` fully committed; `head` is the ledger head hash
    /// after it. This record is the durable commit point of the block.
    Seal {
        /// The sealed block.
        number: BlockNumber,
        /// Ledger head hash after the block.
        head: Hash32,
    },
}

impl WalRecord {
    /// The block this record pertains to (drives WAL truncation: a
    /// segment may be deleted once a checkpoint covers every record's
    /// block).
    #[must_use]
    pub fn block(&self) -> u64 {
        match self {
            WalRecord::Effects { version, .. } => version.block.0,
            WalRecord::Seal { number, .. } => number.0,
        }
    }

    /// Appends the canonical encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Effects { version, writes } => {
                1u8.encode(out);
                version.block.0.encode(out);
                version.seq.0.encode(out);
                encode_writes(writes, out);
            }
            WalRecord::Seal { number, head } => {
                2u8.encode(out);
                number.0.encode(out);
                out.extend_from_slice(&head.0);
            }
        }
    }

    /// Decodes a record from exactly these bytes (one frame payload).
    /// Returns `None` on malformed input.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut reader = Reader::new(bytes);
        let record = match reader.u8()? {
            1 => {
                let block = BlockNumber(reader.u64()?);
                let seq = SeqNo(reader.u32()?);
                WalRecord::Effects {
                    version: Version::new(block, seq),
                    writes: reader.writes()?,
                }
            }
            2 => {
                let number = BlockNumber(reader.u64()?);
                let mut head = [0u8; 32];
                for byte in &mut head {
                    *byte = reader.u8()?;
                }
                WalRecord::Seal {
                    number,
                    head: Hash32(head),
                }
            }
            _ => return None,
        };
        reader.is_exhausted().then_some(record)
    }
}

/// A closed (no longer written) segment, kept until a checkpoint covers
/// every block it mentions.
#[derive(Debug)]
struct ClosedSegment {
    path: PathBuf,
    /// Highest block number any record in the segment pertains to
    /// (`0` for an empty segment).
    max_block: u64,
}

/// The write-ahead log over one node's `wal/` directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    active: File,
    active_path: PathBuf,
    active_index: u64,
    active_max_block: u64,
    /// Records appended since the last fsync (group commit).
    pending: usize,
    flush_interval: usize,
    closed: Vec<ClosedSegment>,
    bytes_written: u64,
    fsyncs: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.log"))
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Fault injection for the deterministic simulator: truncates up to
/// `bytes` from the end of the **newest** WAL segment under
/// `wal_dir`, modelling writes that sat in the page cache when the
/// machine died (everything after the last completed fsync may vanish;
/// the kernel drops it from the tail backwards on a single segment).
///
/// This is only sound as a *tail* tear: WAL records are appended in
/// effect→seal order, so any surviving prefix is a consistent earlier
/// watermark, and [`Wal::open`] already truncates a torn trailing frame.
/// Returns the number of bytes removed (zero when the directory has no
/// segments).
///
/// # Errors
///
/// Any I/O failure listing or truncating segment files.
pub fn tear_wal_tail(wal_dir: &Path, bytes: u64) -> io::Result<u64> {
    let entries = match fs::read_dir(wal_dir) {
        Ok(entries) => entries,
        // No WAL directory: nothing to tear. Anything else (permissions,
        // transient I/O) must surface — a silently skipped tear would
        // make a fault schedule weaker than its seed claims.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let newest = entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            segment_index(&path).map(|index| (index, path))
        })
        .max_by_key(|(index, _)| *index);
    let Some((_, path)) = newest else {
        return Ok(0);
    };
    let len = fs::metadata(&path)?.len();
    let torn = bytes.min(len);
    if torn > 0 {
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(len - torn)?;
        file.sync_all()?;
    }
    Ok(torn)
}

/// Fsyncs a directory so file creations/renames/removals inside it are
/// durable (best-effort: not all platforms support syncing directories).
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(handle) => match handle.sync_all() {
            Ok(()) => Ok(()),
            // Directory fsync is unsupported on some filesystems.
            Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    }
}

impl Wal {
    /// Opens (or creates) the WAL under `dir`, replaying every intact
    /// record in segment order. The torn tail a crash may have left is
    /// physically truncated; recovery is a clean prefix — if a torn
    /// frame is found in a non-final segment (which group-commit
    /// ordering makes impossible without filesystem reordering), the
    /// later segments are discarded too.
    ///
    /// # Errors
    ///
    /// Any I/O failure reading, truncating, or creating segment files.
    pub fn open(dir: &Path, flush_interval: usize) -> io::Result<(Self, Vec<WalRecord>)> {
        fs::create_dir_all(dir)?;
        let mut paths: Vec<(u64, PathBuf)> = fs::read_dir(dir)?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                segment_index(&path).map(|index| (index, path))
            })
            .collect();
        paths.sort_unstable_by_key(|(index, _)| *index);

        let mut records = Vec::new();
        let mut closed = Vec::new();
        let mut tail: Option<(u64, PathBuf, u64)> = None; // (index, path, max_block)
        let mut torn_at: Option<usize> = None;
        for (position, (index, path)) in paths.iter().enumerate() {
            let bytes = read_file(path)?;
            let (frames, clean_len) = frame::scan(&bytes);
            let mut max_block = 0u64;
            for &(start, end) in &frames {
                let record = WalRecord::decode(&bytes[start..end]).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("undecodable WAL record in {}", path.display()),
                    )
                })?;
                max_block = max_block.max(record.block());
                records.push(record);
            }
            if clean_len < bytes.len() {
                // Torn tail: truncate it away and stop at this segment.
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(clean_len as u64)?;
                file.sync_all()?;
                tail = Some((*index, path.clone(), max_block));
                torn_at = Some(position);
                break;
            }
            if position + 1 == paths.len() {
                tail = Some((*index, path.clone(), max_block));
            } else {
                closed.push(ClosedSegment {
                    path: path.clone(),
                    max_block,
                });
            }
        }
        if let Some(position) = torn_at {
            // Conservative prefix recovery: segments after a hole are
            // unusable (appends there were never acknowledged).
            for (_, path) in &paths[position + 1..] {
                fs::remove_file(path)?;
            }
        }

        let (active_index, active_path, active_max_block) = match tail {
            Some(t) => t,
            None => {
                let path = segment_path(dir, 0);
                (0, path, 0)
            }
        };
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        sync_dir(dir)?;
        let wal = Wal {
            dir: dir.to_path_buf(),
            active,
            active_path,
            active_index,
            active_max_block,
            pending: 0,
            flush_interval: flush_interval.max(1),
            closed,
            bytes_written: 0,
            fsyncs: 0,
        };
        Ok((wal, records))
    }

    /// Appends one record, fsyncing if the group-commit interval is
    /// reached.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing the active segment.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let mut payload = Vec::new();
        record.encode(&mut payload);
        let mut framed = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        frame::append_frame(&mut framed, &payload);
        self.active.write_all(&framed)?;
        self.bytes_written += framed.len() as u64;
        self.active_max_block = self.active_max_block.max(record.block());
        self.pending += 1;
        if self.pending >= self.flush_interval {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an fsync of the active segment (a no-op when no record is
    /// pending).
    ///
    /// # Errors
    ///
    /// Any I/O failure syncing the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        self.active.sync_data()?;
        self.fsyncs += 1;
        self.pending = 0;
        Ok(())
    }

    /// Closes the active segment (fsyncing it) and starts a new one.
    /// Called at checkpoint creation so whole segments become eligible
    /// for truncation.
    ///
    /// # Errors
    ///
    /// Any I/O failure syncing the old segment or creating the new one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.active.sync_data()?;
        self.fsyncs += 1;
        self.pending = 0;
        let next_index = self.active_index + 1;
        let next_path = segment_path(&self.dir, next_index);
        let next = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&next_path)?;
        sync_dir(&self.dir)?;
        self.fsyncs += 1;
        let old_path = std::mem::replace(&mut self.active_path, next_path);
        self.closed.push(ClosedSegment {
            path: old_path,
            max_block: self.active_max_block,
        });
        self.active = next;
        self.active_index = next_index;
        self.active_max_block = 0;
        Ok(())
    }

    /// Deletes closed segments whose every record pertains to a block at
    /// or below `watermark` (i.e. fully covered by a checkpoint).
    /// Returns how many segments were deleted.
    ///
    /// # Errors
    ///
    /// Any I/O failure removing files.
    pub fn truncate_below(&mut self, watermark: u64) -> io::Result<usize> {
        let mut deleted = 0;
        let mut keep = Vec::new();
        for segment in self.closed.drain(..) {
            if segment.max_block <= watermark {
                fs::remove_file(&segment.path)?;
                deleted += 1;
            } else {
                keep.push(segment);
            }
        }
        self.closed = keep;
        if deleted > 0 {
            sync_dir(&self.dir)?;
            self.fsyncs += 1;
        }
        Ok(deleted)
    }

    /// Number of segment files currently on disk (closed + active).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.closed.len() + 1
    }

    /// Total bytes appended through this handle (framing included).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Fsync barriers issued through this handle.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn effects(block: u64, seq: u32, val: i64) -> WalRecord {
        WalRecord::Effects {
            version: Version::new(BlockNumber(block), SeqNo(seq)),
            writes: vec![(Key(1), Value::Int(val))],
        }
    }

    fn seal(block: u64) -> WalRecord {
        WalRecord::Seal {
            number: BlockNumber(block),
            head: Hash32([block as u8; 32]),
        }
    }

    #[test]
    fn append_close_reopen_replays_records() {
        let tmp = TempDir::new("wal-reopen");
        let (mut wal, recovered) = Wal::open(tmp.path(), 2).expect("open");
        assert!(recovered.is_empty());
        wal.append(&effects(1, 0, 10)).expect("append");
        wal.append(&seal(1)).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        let (_, recovered) = Wal::open(tmp.path(), 2).expect("reopen");
        assert_eq!(recovered, vec![effects(1, 0, 10), seal(1)]);
    }

    #[test]
    fn torn_tail_loses_a_suffix_and_recovery_stays_a_clean_prefix() {
        let tmp = TempDir::new("wal-tear");
        let (mut wal, _) = Wal::open(tmp.path(), 1).expect("open");
        for i in 0..4 {
            wal.append(&effects(1, i, i64::from(i))).expect("append");
        }
        drop(wal);
        // Tear a few bytes: the final frame becomes torn and is dropped;
        // everything before it replays intact.
        let torn = tear_wal_tail(tmp.path(), 3).expect("tear");
        assert_eq!(torn, 3);
        let (_, recovered) = Wal::open(tmp.path(), 1).expect("reopen");
        assert_eq!(recovered.len(), 3, "exactly the torn record is lost");
        assert_eq!(recovered[2], effects(1, 2, 2));
        // Tearing more than the file holds empties it without error.
        let torn = tear_wal_tail(tmp.path(), u64::MAX).expect("tear all");
        assert!(torn > 0);
        let (_, recovered) = Wal::open(tmp.path(), 1).expect("reopen empty");
        assert!(recovered.is_empty());
        // A directory without segments tears zero bytes.
        let empty = TempDir::new("wal-tear-empty");
        assert_eq!(tear_wal_tail(empty.path(), 100).expect("no-op"), 0);
        assert_eq!(
            tear_wal_tail(&empty.path().join("missing"), 100).expect("no dir"),
            0
        );
    }

    #[test]
    fn group_commit_counts_fsyncs() {
        let tmp = TempDir::new("wal-group");
        let (mut wal, _) = Wal::open(tmp.path(), 3).expect("open");
        for i in 0..6 {
            wal.append(&effects(1, i, 0)).expect("append");
        }
        assert_eq!(wal.fsyncs(), 2, "6 records at interval 3");
        wal.sync().expect("sync");
        assert_eq!(wal.fsyncs(), 2, "nothing pending: no extra fsync");
        wal.append(&effects(1, 9, 0)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(wal.fsyncs(), 3);
        assert!(wal.bytes_written() > 0);
    }

    #[test]
    fn rotation_and_truncation_drop_covered_segments() {
        let tmp = TempDir::new("wal-rotate");
        let (mut wal, _) = Wal::open(tmp.path(), 100).expect("open");
        wal.append(&effects(1, 0, 1)).expect("append");
        wal.append(&seal(1)).expect("append");
        wal.rotate().expect("rotate");
        // Segment 0 covers blocks ≤ 1; segment 1 holds block 2 effects.
        wal.append(&effects(2, 0, 2)).expect("append");
        wal.rotate().expect("rotate");
        assert_eq!(wal.segment_count(), 3);
        assert_eq!(wal.truncate_below(1).expect("truncate"), 1);
        assert_eq!(wal.segment_count(), 2, "block-2 segment survives");
        assert_eq!(wal.truncate_below(2).expect("truncate"), 1);
        drop(wal);
        let (_, recovered) = Wal::open(tmp.path(), 100).expect("reopen");
        assert!(recovered.is_empty(), "all segments truncated: {recovered:?}");
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let tmp = TempDir::new("wal-torn");
        let (mut wal, _) = Wal::open(tmp.path(), 100).expect("open");
        wal.append(&effects(1, 0, 1)).expect("append");
        wal.append(&effects(1, 1, 2)).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        // Tear the last record mid-frame.
        let seg = segment_path(tmp.path(), 0);
        let len = fs::metadata(&seg).expect("meta").len();
        let file = OpenOptions::new().write(true).open(&seg).expect("open");
        file.set_len(len - 3).expect("truncate");
        drop(file);
        let (mut wal, recovered) = Wal::open(tmp.path(), 100).expect("reopen");
        assert_eq!(recovered, vec![effects(1, 0, 1)]);
        wal.append(&effects(1, 2, 3)).expect("append resumes");
        wal.sync().expect("sync");
        drop(wal);
        let (_, recovered) = Wal::open(tmp.path(), 100).expect("reopen 2");
        assert_eq!(recovered, vec![effects(1, 0, 1), effects(1, 2, 3)]);
    }

    #[test]
    fn record_decode_rejects_garbage() {
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[9, 0, 0]), None);
        let mut bytes = Vec::new();
        seal(3).encode(&mut bytes);
        bytes.push(0); // trailing garbage
        assert_eq!(WalRecord::decode(&bytes), None);
    }
}
