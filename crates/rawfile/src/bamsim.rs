//! A compressed binary container standing in for BAM + BAMTools (Table 1).
//!
//! Real BAM files are BGZF-compressed binary encodings of SAM records, and
//! BAMTools — the access library the paper measures — decompresses and
//! decodes them *sequentially in the calling thread* ("for BAM, file data
//! access and decompression are sequential and handled inside BAMTools. The
//! process is heavily CPU-bound", §5.2). This module reproduces both
//! properties:
//!
//! * records are varint/zigzag encoded with 4-bit-packed sequences, then each
//!   block is LZSS-compressed — a real compressor with real decode cost;
//! * [`BamReader`] exposes only a one-record-at-a-time sequential iterator;
//!   there is no random access and no parallel decode, by design.
//!
//! ScanRaw's BAM path therefore implements only MAP (converting the reader's
//! record into the columnar representation), exactly like the paper's
//! integration with BAMTools.

use crate::sam::SamRead;
use scanraw_simio::SimDisk;
use scanraw_types::{Error, Result};

/// File magic.
const MAGIC: &[u8; 4] = b"BSIM";
/// Records per compressed block.
pub const BLOCK_RECORDS: usize = 4096;

// ---------------------------------------------------------------------------
// Varint / zigzag codec
// ---------------------------------------------------------------------------

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_uvarint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *data
            .get(*pos)
            .ok_or_else(|| Error::io("truncated varint"))?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(Error::io("varint too long"));
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

fn get_ivarint(data: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(get_uvarint(data, pos)?))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(data: &[u8], pos: &mut usize) -> Result<String> {
    let len = get_uvarint(data, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| Error::io("string length overflow"))?;
    let bytes = data
        .get(*pos..end)
        .ok_or_else(|| Error::io("truncated string"))?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::io("invalid utf-8 in record"))
}

// ---------------------------------------------------------------------------
// 4-bit base packing (like BAM's SEQ encoding)
// ---------------------------------------------------------------------------

fn base_code(b: u8) -> u8 {
    match b {
        b'A' => 1,
        b'C' => 2,
        b'G' => 4,
        b'T' => 8,
        b'N' => 15,
        _ => 0,
    }
}

fn code_base(c: u8) -> u8 {
    match c {
        1 => b'A',
        2 => b'C',
        4 => b'G',
        8 => b'T',
        15 => b'N',
        _ => b'=',
    }
}

fn pack_seq(out: &mut Vec<u8>, seq: &str) {
    put_uvarint(out, seq.len() as u64);
    let bytes = seq.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = base_code(pair[0]);
        let lo = if pair.len() > 1 {
            base_code(pair[1])
        } else {
            0
        };
        out.push((hi << 4) | lo);
    }
}

fn unpack_seq(data: &[u8], pos: &mut usize) -> Result<String> {
    let len = get_uvarint(data, pos)? as usize;
    let packed = len.div_ceil(2);
    let end = *pos + packed;
    let bytes = data
        .get(*pos..end)
        .ok_or_else(|| Error::io("truncated sequence"))?;
    *pos = end;
    let mut s = String::with_capacity(len);
    for (i, &b) in bytes.iter().enumerate() {
        s.push(code_base(b >> 4) as char);
        if i * 2 + 1 < len {
            s.push(code_base(b & 0xf) as char);
        }
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// LZSS block compressor
// ---------------------------------------------------------------------------

/// Simple LZSS: literals and (distance, length) matches, 64 KiB window,
/// greedy longest-match via a 3-byte hash chain. Not competitive with zlib,
/// but a genuine compressor whose decode loop costs CPU per byte — the
/// property Table 1 depends on.
pub mod lzss {
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 255 + MIN_MATCH;
    /// The farthest match a `u16` distance can name.
    const WINDOW: usize = u16::MAX as usize;
    const HASH_BITS: usize = 15;

    fn hash3(data: &[u8], i: usize) -> usize {
        let h = (data[i] as u32)
            .wrapping_mul(506832829)
            .wrapping_add((data[i + 1] as u32).wrapping_mul(2654435761))
            .wrapping_add((data[i + 2] as u32).wrapping_mul(2246822519));
        (h >> (32 - HASH_BITS as u32)) as usize
    }

    /// Compresses `data`. Output layout: sequences of a control byte holding
    /// 8 flags (LSB first; 0 = literal byte, 1 = match of `[len u8][dist u16]`).
    pub fn compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len().max(1)];

        let mut flags_at = usize::MAX;
        let mut flag_bit = 8;
        let mut push_flag = |out: &mut Vec<u8>, bit: bool| {
            if flag_bit == 8 {
                out.push(0);
                flags_at = out.len() - 1;
                flag_bit = 0;
            }
            if bit {
                out[flags_at] |= 1 << flag_bit;
            }
            flag_bit += 1;
        };

        let mut i = 0usize;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() && i + 2 < data.len() {
                let h = hash3(data, i);
                let mut cand = head[h];
                let mut probes = 0;
                while cand != usize::MAX && i - cand <= WINDOW && probes < 16 {
                    let limit = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                    }
                    cand = prev[cand];
                    probes += 1;
                }
                head[h] = i;
                prev[i] = if head[h] == i { usize::MAX } else { head[h] };
                // Re-link properly: prev chain points at the previous head.
            }
            if best_len >= MIN_MATCH {
                push_flag(&mut out, true);
                out.push((best_len - MIN_MATCH) as u8);
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                // Insert hash entries for the skipped positions.
                let end = i + best_len;
                let mut j = i + 1;
                while j < end && j + 2 < data.len() {
                    let h = hash3(data, j);
                    prev[j] = head[h];
                    head[h] = j;
                    j += 1;
                }
                i = end;
            } else {
                push_flag(&mut out, false);
                out.push(data[i]);
                if i + 2 < data.len() {
                    let h = hash3(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        out
    }

    /// Decompresses into a buffer of exactly `expected_len` bytes.
    pub fn decompress(data: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
        let mut out = Vec::with_capacity(expected_len);
        let mut i = 0usize;
        while out.len() < expected_len {
            let flags = *data.get(i).ok_or("truncated flags")?;
            i += 1;
            for bit in 0..8 {
                if out.len() >= expected_len {
                    break;
                }
                if flags & (1 << bit) != 0 {
                    let len = *data.get(i).ok_or("truncated match len")? as usize + MIN_MATCH;
                    let dist = u16::from_le_bytes([
                        *data.get(i + 1).ok_or("truncated dist")?,
                        *data.get(i + 2).ok_or("truncated dist")?,
                    ]) as usize;
                    i += 3;
                    if dist == 0 || dist > out.len() {
                        return Err(format!("bad match distance {dist}"));
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                } else {
                    out.push(*data.get(i).ok_or("truncated literal")?);
                    i += 1;
                }
            }
        }
        if out.len() != expected_len {
            return Err(format!(
                "decompressed {} bytes, expected {expected_len}",
                out.len()
            ));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Record encode/decode
// ---------------------------------------------------------------------------

fn encode_read(out: &mut Vec<u8>, r: &SamRead) {
    put_str(out, &r.qname);
    put_ivarint(out, r.flag);
    put_str(out, &r.rname);
    put_ivarint(out, r.pos);
    put_ivarint(out, r.mapq);
    put_str(out, &r.cigar);
    put_str(out, &r.rnext);
    put_ivarint(out, r.pnext);
    put_ivarint(out, r.tlen);
    pack_seq(out, &r.seq);
    put_str(out, &r.qual);
}

fn decode_read(data: &[u8], pos: &mut usize) -> Result<SamRead> {
    Ok(SamRead {
        qname: get_str(data, pos)?,
        flag: get_ivarint(data, pos)?,
        rname: get_str(data, pos)?,
        pos: get_ivarint(data, pos)?,
        mapq: get_ivarint(data, pos)?,
        cigar: get_str(data, pos)?,
        rnext: get_str(data, pos)?,
        pnext: get_ivarint(data, pos)?,
        tlen: get_ivarint(data, pos)?,
        seq: unpack_seq(data, pos)?,
        qual: get_str(data, pos)?,
    })
}

// ---------------------------------------------------------------------------
// Container writer / reader
// ---------------------------------------------------------------------------

/// Writes reads into the BAM-sim container layout:
/// `MAGIC, then per block: [u32 comp_len][u32 raw_len][u32 records][lzss payload]`.
pub fn bam_bytes(reads: &[SamRead]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    for block in reads.chunks(BLOCK_RECORDS) {
        let mut raw = Vec::with_capacity(block.len() * 128);
        for r in block {
            encode_read(&mut raw, r);
        }
        let comp = lzss::compress(&raw);
        out.extend_from_slice(&(comp.len() as u32).to_le_bytes());
        out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&comp);
    }
    out
}

/// Stages a BAM-sim file on the device; returns its byte length.
pub fn stage_bam(disk: &SimDisk, name: &str, reads: &[SamRead]) -> u64 {
    let bytes = bam_bytes(reads);
    let len = bytes.len() as u64;
    disk.storage().put(name, bytes);
    len
}

/// Sequential reader — the "BAMTools" of this reproduction.
///
/// Yields one record at a time; each block is fetched from the device (paying
/// I/O cost) and LZSS-decompressed *in the calling thread* (paying CPU cost).
/// There is deliberately no API for parallel or random access.
pub struct BamReader {
    disk: SimDisk,
    file: String,
    file_len: u64,
    pos: u64,
    block: Vec<u8>,
    block_pos: usize,
    block_remaining: u32,
}

impl BamReader {
    pub fn open(disk: SimDisk, file: impl Into<String>) -> Result<Self> {
        let file = file.into();
        let file_len = disk.len(&file)?;
        if file_len < MAGIC.len() as u64 {
            return Err(Error::io("bam-sim file too short"));
        }
        // The bam-sim scan is a format demo outside the retried persistence
        // contract; an injected fault fails the whole query loudly and the
        // caller re-issues the scan (there is no partial state to heal).
        // lint-ok: L016 bam-sim reads fail the query, not the pipeline
        let magic = disk.read(&file, 0, MAGIC.len())?;
        if magic != MAGIC {
            return Err(Error::io("bad bam-sim magic"));
        }
        Ok(BamReader {
            disk,
            file,
            file_len,
            pos: MAGIC.len() as u64,
            block: Vec::new(),
            block_pos: 0,
            block_remaining: 0,
        })
    }

    /// Reads the next record, or `None` at end of file.
    pub fn next_read(&mut self) -> Result<Option<SamRead>> {
        if self.block_remaining == 0 && !self.load_next_block()? {
            return Ok(None);
        }
        let r = decode_read(&self.block, &mut self.block_pos)?;
        self.block_remaining -= 1;
        Ok(Some(r))
    }

    fn load_next_block(&mut self) -> Result<bool> {
        if self.pos >= self.file_len {
            return Ok(false);
        }
        // lint-ok: L016 see `open`: bam-sim reads fail the query, not the pipeline
        let header = self.disk.read(&self.file, self.pos, 12)?;
        let comp_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let raw_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let records = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        self.pos += 12;
        // lint-ok: L016 same contract as the header read above
        let comp = self.disk.read(&self.file, self.pos, comp_len)?;
        self.pos += comp_len as u64;
        self.block = lzss::decompress(&comp, raw_len)
            .map_err(|m| Error::io_corrupt(self.file.clone(), m))?;
        self.block_pos = 0;
        self.block_remaining = records;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam::{generate_reads, sam_bytes, SamSpec};

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn seq_packing_roundtrip() {
        for seq in ["", "A", "ACGT", "ACGTN", "TTTTTTTTT"] {
            let mut buf = Vec::new();
            pack_seq(&mut buf, seq);
            let mut pos = 0;
            assert_eq!(unpack_seq(&buf, &mut pos).unwrap(), seq);
        }
    }

    #[test]
    fn lzss_roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcxyzxyzxyz".repeat(100);
        let comp = lzss::compress(&data);
        assert!(comp.len() < data.len() / 2, "repetitive data must compress");
        assert_eq!(lzss::decompress(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn lzss_roundtrip_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let data: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        let comp = lzss::compress(&data);
        assert_eq!(lzss::decompress(&comp, data.len()).unwrap(), data);
    }

    /// Blocks past the 64 KiB window with a seeded marker repeated exactly
    /// 65,535, 65,536 and 65,537 bytes after its first copy, in zeros, so the
    /// match finder meets the marker at that distance and nowhere nearer.
    #[test]
    fn lzss_roundtrip_repeats_at_the_window_edge() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for distance in [65_535usize, 65_536, 65_537] {
            let marker: Vec<u8> = (0..32).map(|_| rng.gen_range(1..=255u8)).collect();
            let mut data = vec![0u8; 200_000];
            for at in [1_000, 1_000 + distance] {
                data[at..at + marker.len()].copy_from_slice(&marker);
            }
            let comp = lzss::compress(&data);
            let back = lzss::decompress(&comp, data.len());
            let error = back.as_ref().err();
            assert!(
                back.as_ref() == Ok(&data),
                "repeat {distance} back: {error:?}"
            );
        }
    }

    #[test]
    fn lzss_empty() {
        let comp = lzss::compress(&[]);
        assert_eq!(lzss::decompress(&comp, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn record_roundtrip() {
        let reads = generate_reads(&SamSpec {
            reads: 8,
            ..Default::default()
        });
        let mut buf = Vec::new();
        for r in &reads {
            encode_read(&mut buf, r);
        }
        let mut pos = 0;
        for r in &reads {
            assert_eq!(&decode_read(&buf, &mut pos).unwrap(), r);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn container_roundtrip_multiple_blocks() {
        let reads = generate_reads(&SamSpec {
            reads: BLOCK_RECORDS as u64 + 37,
            read_len: 20,
            ..Default::default()
        });
        let d = SimDisk::instant();
        stage_bam(&d, "x.bam", &reads);
        let mut rd = BamReader::open(d, "x.bam").unwrap();
        let mut got = Vec::new();
        while let Some(r) = rd.next_read().unwrap() {
            got.push(r);
        }
        assert_eq!(got, reads);
    }

    #[test]
    fn bam_is_smaller_than_sam() {
        let reads = generate_reads(&SamSpec {
            reads: 2000,
            ..Default::default()
        });
        let sam = sam_bytes(&reads).len();
        let bam = bam_bytes(&reads).len();
        assert!(
            (bam as f64) < sam as f64 * 0.8,
            "bam-sim {bam} should be well below sam {sam}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let d = SimDisk::instant();
        d.storage().put("junk", b"NOPEetc".to_vec());
        assert!(BamReader::open(d, "junk").is_err());
    }

    #[test]
    fn empty_container_yields_nothing() {
        let d = SimDisk::instant();
        stage_bam(&d, "e.bam", &[]);
        let mut rd = BamReader::open(d, "e.bam").unwrap();
        assert!(rd.next_read().unwrap().is_none());
    }
}
