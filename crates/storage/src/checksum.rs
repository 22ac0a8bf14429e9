//! CRC-32 (IEEE 802.3 polynomial) for stored column runs.
//!
//! Every run appended to the column store is checksummed at write time; the
//! checksum travels in the run's commit record and is re-verified on every
//! cache-miss read and during crash recovery (DESIGN.md §10). A `cold_full`
//! benchmark round checksums ~38 MB of runs, so the CRC sits on the store,
//! load and recovery paths at full scan volume. It is slice-by-16: sixteen
//! 256-entry tables, built at compile time, fold sixteen input bytes per
//! step. On 64 KiB runs (x86-64, release build) that is 1.5–2.0 GB/s, against
//! 1.0–1.15 GB/s for slice-by-8 and 120–140 MB/s for the one-shift-per-bit
//! loop it replaced. The output is bit-identical to that bitwise definition,
//! so stored runs and commit records are unchanged; `tests/crc_reference.rs`
//! checks the two against each other.

/// Reflected CRC-32 polynomial.
const POLY: u32 = 0xedb8_8320;

/// Input bytes folded per table step.
const SLICES: usize = 16;

/// `TABLES[0][b]` is the CRC register after feeding byte `b` into a zero
/// register; `TABLES[k][b]` is that value advanced by `k` further zero
/// bytes, so one step can fold byte `i` of a block with `TABLES[15 - i]`.
static TABLES: [[u32; 256]; SLICES] = tables();

const fn tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (reflected, polynomial 0xEDB88320, init/xorout all-ones
/// — the common `cksum`/zlib variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(SLICES);
    for b in &mut blocks {
        // The register overlaps the block's first four bytes; the other
        // twelve enter their tables unmixed.
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let mut next = t[15][usize::from(head as u8)]
            ^ t[14][usize::from((head >> 8) as u8)]
            ^ t[13][usize::from((head >> 16) as u8)]
            ^ t[12][usize::from((head >> 24) as u8)];
        for (i, &byte) in b.iter().enumerate().skip(4) {
            next ^= t[SLICES - 1 - i][usize::from(byte)];
        }
        crc = next;
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ byte)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for the zlib/IEEE CRC-32.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_a686);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = vec![0u8; 64];
        let reference = crc32(&base);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn truncation_changes_crc() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_ne!(crc32(&data), crc32(&data[..255]));
    }
}
