//! READ-stage support: streaming a raw file as line-aligned chunks.
//!
//! "The file is logically split into horizontal portions containing a
//! sequence of lines, i.e., chunks. Chunks represent the reading and
//! processing unit." (paper §3.1)
//!
//! [`ChunkReader`] streams a file the *first* time it is accessed, when no
//! layout information exists: it reads fixed-size blocks from the device,
//! scans for newlines, and emits chunks of exactly `chunk_rows` lines (the
//! final chunk may be shorter). While doing so it records a [`ChunkLayout`] —
//! byte offset, byte length, and row range per chunk — which ScanRaw stores in
//! the catalog so later queries can read any chunk directly, out of order, or
//! skip it altogether (paper §3.2.1, READ thread optimizations).

use crate::swar::find_byte;
use bytes::Bytes;
use scanraw_simio::SimDisk;
use scanraw_types::{ChunkId, ChunkLayout, ChunkMeta, Error, Result, TextChunk};

/// Streaming chunker over a [`SimDisk`] file.
pub struct ChunkReader {
    disk: SimDisk,
    file: String,
    file_len: u64,
    chunk_rows: u32,
    /// Device read granularity.
    block_bytes: usize,
    /// Bytes fetched from the device but not yet emitted.
    carry: Vec<u8>,
    /// File offset of `carry[0]`.
    carry_offset: u64,
    /// Next file offset to fetch from the device.
    fetch_pos: u64,
    next_row: u64,
    next_id: u32,
    finished: bool,
}

impl ChunkReader {
    /// Default device read size. Large enough to amortize per-op overhead,
    /// small enough to overlap reading with conversion.
    pub const DEFAULT_BLOCK: usize = 1 << 20;

    pub fn new(disk: SimDisk, file: impl Into<String>, chunk_rows: u32) -> Result<Self> {
        if chunk_rows == 0 {
            return Err(Error::Config("chunk_rows must be positive".into()));
        }
        let file = file.into();
        let file_len = disk.len(&file)?;
        Ok(ChunkReader {
            disk,
            file,
            file_len,
            chunk_rows,
            block_bytes: Self::DEFAULT_BLOCK,
            carry: Vec::new(),
            carry_offset: 0,
            fetch_pos: 0,
            next_row: 0,
            next_id: 0,
            finished: false,
        })
    }

    /// Overrides the device read granularity (mostly for tests).
    pub fn with_block_bytes(mut self, block: usize) -> Self {
        assert!(block > 0);
        self.block_bytes = block;
        self
    }

    /// Produces the next chunk, or `None` at end of file.
    pub fn next_chunk(&mut self) -> Result<Option<TextChunk>> {
        if self.finished {
            return Ok(None);
        }
        // Count the lines of `carry`, fetching more of the file whenever it
        // runs out, until there are chunk_rows of them or the file ends.
        let mut rows = 0u32;
        // End of the last complete line, and how far the search has come.
        let (mut chunk_bytes, mut searched) = (0usize, 0usize);
        while rows < self.chunk_rows {
            if let Some(newline) = find_byte(&self.carry, searched, b'\n', b'\n') {
                rows += 1;
                chunk_bytes = newline + 1;
                searched = chunk_bytes;
                continue;
            }
            searched = self.carry.len();
            if self.fetch_pos >= self.file_len {
                // EOF: emit whatever is left. A final line without trailing
                // newline still counts as a row.
                self.finished = true;
                if chunk_bytes < searched {
                    rows += 1;
                    chunk_bytes = searched;
                }
                break;
            }
            let want = self
                .block_bytes
                .min((self.file_len - self.fetch_pos) as usize);
            // The one production caller is
            // `Operator::io_retry(.. || reader.next_chunk())` in core; the
            // name-based resolver also wires `ChunkStream::next_chunk` call
            // sites to this fn, which makes coverage look broken when it is
            // not.
            // lint-ok: L016 retried via Operator::io_retry; other edges are resolver aliasing
            let block = self.disk.read(&self.file, self.fetch_pos, want)?;
            self.fetch_pos += want as u64;
            self.carry.extend_from_slice(&block);
        }
        if rows == 0 {
            return Ok(None);
        }

        // The chunk is copied out once, into a buffer of exactly its size;
        // the carry keeps its allocation and the short tail moves to its
        // front.
        let chunk = TextChunk {
            id: ChunkId(self.next_id),
            file_offset: self.carry_offset,
            first_row: self.next_row,
            rows,
            data: Bytes::copy_from_slice(&self.carry[..chunk_bytes]),
        };
        self.carry.drain(..chunk_bytes);
        self.carry_offset += chunk_bytes as u64;
        self.next_row += rows as u64;
        self.next_id += 1;
        Ok(Some(chunk))
    }

    /// Drains the whole file, returning all chunks and the recorded layout.
    pub fn read_all(mut self) -> Result<(Vec<TextChunk>, ChunkLayout)> {
        let mut chunks = Vec::new();
        let mut layout = ChunkLayout::default();
        while let Some(c) = self.next_chunk()? {
            layout.push(ChunkMeta {
                id: c.id,
                file_offset: c.file_offset,
                byte_len: c.len_bytes() as u64,
                first_row: c.first_row,
                rows: c.rows,
            });
            chunks.push(c);
        }
        Ok((chunks, layout))
    }
}

/// Reads one chunk directly using catalog metadata (a repeat scan that knows
/// the layout: "chunks can be read in other order than sequential", §3.2.1).
pub fn read_chunk_at(disk: &SimDisk, file: &str, meta: &ChunkMeta) -> Result<TextChunk> {
    let data = disk.read(file, meta.file_offset, meta.byte_len as usize)?;
    Ok(TextChunk {
        id: meta.id,
        file_offset: meta.file_offset,
        first_row: meta.first_row,
        rows: meta.rows,
        data: Bytes::from(data),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk_with(content: &str) -> SimDisk {
        let d = SimDisk::instant();
        d.storage().put("f", content.as_bytes().to_vec());
        d
    }

    #[test]
    fn splits_into_exact_row_chunks() {
        let d = disk_with("a\nb\nc\nd\ne\n");
        let (chunks, layout) = ChunkReader::new(d, "f", 2).unwrap().read_all().unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].rows, 2);
        assert_eq!(chunks[1].rows, 2);
        assert_eq!(chunks[2].rows, 1);
        assert_eq!(&chunks[0].data[..], b"a\nb\n");
        assert_eq!(&chunks[2].data[..], b"e\n");
        assert_eq!(layout.total_rows(), 5);
    }

    #[test]
    fn handles_missing_trailing_newline() {
        let d = disk_with("a\nb\nc");
        let (chunks, layout) = ChunkReader::new(d, "f", 2).unwrap().read_all().unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].rows, 1);
        assert_eq!(&chunks[1].data[..], b"c");
        assert_eq!(layout.total_rows(), 3);
    }

    #[test]
    fn chunk_offsets_partition_the_file() {
        let content = "one\ntwo\nthree\nfour\nfive\nsix\n";
        let d = disk_with(content);
        let (chunks, _) = ChunkReader::new(d, "f", 2)
            .unwrap()
            .with_block_bytes(4) // force many device reads
            .read_all()
            .unwrap();
        let mut pos = 0u64;
        let mut row = 0u64;
        for c in &chunks {
            assert_eq!(c.file_offset, pos);
            assert_eq!(c.first_row, row);
            pos += c.len_bytes() as u64;
            row += c.rows as u64;
        }
        assert_eq!(pos, content.len() as u64);
    }

    #[test]
    fn empty_file_yields_no_chunks() {
        let d = disk_with("");
        let (chunks, layout) = ChunkReader::new(d, "f", 4).unwrap().read_all().unwrap();
        assert!(chunks.is_empty());
        assert!(layout.is_empty());
    }

    #[test]
    fn single_unterminated_line() {
        let d = disk_with("lonely");
        let (chunks, _) = ChunkReader::new(d, "f", 8).unwrap().read_all().unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].rows, 1);
        assert_eq!(&chunks[0].data[..], b"lonely");
    }

    #[test]
    fn layout_enables_direct_reads() {
        let d = disk_with("aa\nbb\ncc\ndd\n");
        let (chunks, layout) = ChunkReader::new(d.clone(), "f", 1)
            .unwrap()
            .read_all()
            .unwrap();
        for c in &chunks {
            let again = read_chunk_at(&d, "f", layout.get(c.id).unwrap()).unwrap();
            assert_eq!(again.data, c.data);
            assert_eq!(again.first_row, c.first_row);
        }
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        let d = disk_with("x\n");
        assert!(ChunkReader::new(d, "f", 0).is_err());
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let d = disk_with("1\n2\n3\n4\n5\n6\n7\n");
        let (chunks, _) = ChunkReader::new(d, "f", 3).unwrap().read_all().unwrap();
        let ids: Vec<u32> = chunks.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
