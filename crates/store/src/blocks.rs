//! The block store: sealed blocks (and their dependency graphs) in
//! commit order.
//!
//! One append-only file `blocks.log` per node, holding one checksummed
//! frame per sealed block: the block's wire bytes followed by an
//! optional dependency-graph encoding. The chain itself is never
//! truncated by checkpoints — it is the ledger — but a crash between a
//! body append and its WAL seal record can leave an *orphan tail*,
//! which recovery trims back to the sealed watermark.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use parblock_depgraph::DependencyGraph;
use parblock_types::wire::{Reader, Wire};
use parblock_types::Block;

use crate::frame;

/// One decoded block-store entry: the sealed block and, in OXII, its
/// dependency graph.
pub(crate) type BlockEntry = (Block, Option<DependencyGraph>);

/// Encodes one block-store entry payload.
fn encode_entry(block: &Block, graph: Option<&DependencyGraph>) -> Vec<u8> {
    let mut payload = Vec::new();
    block.encode(&mut payload);
    match graph {
        None => 0u8.encode(&mut payload),
        Some(graph) => {
            1u8.encode(&mut payload);
            graph.encode(&mut payload);
        }
    }
    payload
}

fn decode_entry(bytes: &[u8]) -> Option<BlockEntry> {
    let mut reader = Reader::new(bytes);
    let block = Block::decode(&mut reader)?;
    let graph = match reader.u8()? {
        0 => None,
        1 => Some(DependencyGraph::decode_wire(&mut reader)?),
        _ => return None,
    };
    reader.is_exhausted().then_some((block, graph))
}

/// The append-only block file of one node.
#[derive(Debug)]
pub(crate) struct BlockFile {
    file: File,
    /// Byte offset where the entry for each block *ends*:
    /// `ends[i]` = end of block `i + 1`'s frame.
    ends: Vec<u64>,
    fsyncs: u64,
}

/// The block file's path under a node directory.
pub(crate) fn block_file_path(dir: &Path) -> PathBuf {
    dir.join("blocks.log")
}

impl BlockFile {
    /// Opens (or creates) `blocks.log` under `dir`, decoding every
    /// intact entry. The torn tail, if any, is truncated.
    pub(crate) fn open(dir: &Path) -> io::Result<(Self, Vec<BlockEntry>)> {
        let path = block_file_path(dir);
        let mut bytes = Vec::new();
        if path.exists() {
            File::open(&path)?.read_to_end(&mut bytes)?;
        }
        let (frames, clean_len) = frame::scan(&bytes);
        let mut entries = Vec::with_capacity(frames.len());
        let mut ends = Vec::with_capacity(frames.len());
        for &(start, end) in &frames {
            let entry = decode_entry(&bytes[start..end]).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("undecodable block entry in {}", path.display()),
                )
            })?;
            let expected = entries.len() as u64 + 1;
            if entry.0.number().0 != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "block store out of order: expected block {expected}, found {}",
                        entry.0.number()
                    ),
                ));
            }
            entries.push(entry);
            ends.push(end as u64);
        }
        // Existing contents are kept: this is an append-only log (the
        // explicit seek below positions at the clean end).
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        if clean_len < bytes.len() {
            file.set_len(clean_len as u64)?;
            file.sync_all()?;
        }
        // Position at the clean end for appends (`append` mode would
        // also work, but an explicit seek keeps set_len + write sane).
        let mut file = file;
        use std::io::Seek;
        file.seek(io::SeekFrom::Start(clean_len as u64))?;
        Ok((
            BlockFile {
                file,
                ends,
                fsyncs: 0,
            },
            entries,
        ))
    }

    /// Number of block entries currently durable.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends block `count + 1` and fsyncs (the body barrier that must
    /// precede the WAL seal record).
    pub(crate) fn append(
        &mut self,
        block: &Block,
        graph: Option<&DependencyGraph>,
    ) -> io::Result<u64> {
        let expected = self.ends.len() as u64 + 1;
        if block.number().0 != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "non-contiguous block append: expected {expected}, got {}",
                    block.number()
                ),
            ));
        }
        let payload = encode_entry(block, graph);
        let mut framed = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        let written = frame::append_frame(&mut framed, &payload) as u64;
        self.file.write_all(&framed)?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        let end = self.ends.last().copied().unwrap_or(0) + written;
        self.ends.push(end);
        Ok(written)
    }

    /// Truncates the file so exactly `keep` blocks remain — recovery
    /// trims orphan bodies beyond the sealed watermark with this.
    pub(crate) fn truncate_to(&mut self, keep: usize) -> io::Result<()> {
        if keep >= self.ends.len() {
            return Ok(());
        }
        let new_len = if keep == 0 { 0 } else { self.ends[keep - 1] };
        self.file.set_len(new_len)?;
        self.file.sync_all()?;
        self.fsyncs += 1;
        use std::io::Seek;
        self.file.seek(io::SeekFrom::Start(new_len))?;
        self.ends.truncate(keep);
        Ok(())
    }

    pub(crate) fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, BlockNumber, ClientId, Hash32, RwSet, Transaction};

    use super::*;
    use crate::testutil::TempDir;

    fn tx(ts: u64) -> Transaction {
        Transaction::new(AppId(0), ClientId(1), ts, RwSet::default(), vec![7])
    }

    fn chain_of(n: u64) -> Vec<(Block, Option<DependencyGraph>)> {
        let mut prev = Hash32::ZERO;
        (1..=n)
            .map(|i| {
                let block = Block::new(BlockNumber(i), prev, vec![tx(i)]);
                prev = Hash32([i as u8; 32]);
                let graph = (i % 2 == 0).then(|| DependencyGraph::from_edges(1, &[]));
                (block, graph)
            })
            .collect()
    }

    #[test]
    fn append_reopen_round_trips_blocks_and_graphs() {
        let tmp = TempDir::new("blocks-roundtrip");
        let entries = chain_of(3);
        {
            let (mut file, existing) = BlockFile::open(tmp.path()).expect("open");
            assert!(existing.is_empty());
            for (block, graph) in &entries {
                file.append(block, graph.as_ref()).expect("append");
            }
            assert_eq!(file.len(), 3);
        }
        let (file, recovered) = BlockFile::open(tmp.path()).expect("reopen");
        assert_eq!(recovered, entries);
        assert_eq!(file.len(), 3);
    }

    #[test]
    fn rejects_non_contiguous_appends() {
        let tmp = TempDir::new("blocks-contig");
        let (mut file, _) = BlockFile::open(tmp.path()).expect("open");
        let wrong = Block::new(BlockNumber(5), Hash32::ZERO, vec![]);
        assert!(file.append(&wrong, None).is_err());
    }

    #[test]
    fn truncate_to_trims_orphan_tail() {
        let tmp = TempDir::new("blocks-trim");
        let entries = chain_of(3);
        let (mut file, _) = BlockFile::open(tmp.path()).expect("open");
        for (block, graph) in &entries {
            file.append(block, graph.as_ref()).expect("append");
        }
        file.truncate_to(2).expect("truncate");
        assert_eq!(file.len(), 2);
        // Appending block 3 again continues the chain.
        file.append(&entries[2].0, entries[2].1.as_ref())
            .expect("re-append");
        drop(file);
        let (_, recovered) = BlockFile::open(tmp.path()).expect("reopen");
        assert_eq!(recovered, entries);
    }

    #[test]
    fn torn_tail_is_dropped_on_open() {
        let tmp = TempDir::new("blocks-torn");
        let entries = chain_of(2);
        let (mut file, _) = BlockFile::open(tmp.path()).expect("open");
        for (block, graph) in &entries {
            file.append(block, graph.as_ref()).expect("append");
        }
        let path = block_file_path(tmp.path());
        drop(file);
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 1).expect("truncate");
        drop(f);
        let (file, recovered) = BlockFile::open(tmp.path()).expect("reopen");
        assert_eq!(recovered.len(), 1);
        assert_eq!(file.len(), 1);
    }
}
