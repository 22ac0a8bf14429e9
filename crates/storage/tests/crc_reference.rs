//! The table-driven `crc32` against the bitwise definition of CRC-32.
//!
//! The oracle below is the textbook loop (one shift/xor round per bit,
//! reflected polynomial 0xEDB88320, init and xorout all-ones). It was the
//! shipped implementation before the table version; every stored run's
//! commit record carries its output, so the two must agree on every input.

use scanraw_storage::crc32;

/// Bitwise CRC-32: the reference the shipped table version must equal.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Seeded SplitMix64 byte stream, so a failure names a reproducible input.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

#[test]
fn oracle_matches_known_vectors() {
    assert_eq!(crc32_bitwise(b""), 0);
    assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
    assert_eq!(crc32_bitwise(b"hello"), 0x3610_a686);
}

/// Every length 0..=1,100 at every start offset 0..16: every tail length
/// after the 16-byte blocks, at every alignment of the first block.
#[test]
fn table_crc_equals_bitwise_on_every_length_and_offset() {
    const MAX_LEN: usize = 1_100;
    const OFFSETS: usize = 16;
    let buf = random_bytes(0x5ca9_2a77, MAX_LEN + OFFSETS);
    for offset in 0..OFFSETS {
        for len in 0..=MAX_LEN {
            let run = &buf[offset..offset + len];
            assert_eq!(
                crc32(run),
                crc32_bitwise(run),
                "offset {offset} length {len}"
            );
        }
    }
}

/// Runs of the sizes the column store writes (a 8,192-row Int64 column is
/// 64 KiB), plus the all-zero and all-ones patterns that make a table slot
/// off by one show.
#[test]
fn table_crc_equals_bitwise_on_run_sized_inputs() {
    for len in [4_095, 4_096, 65_536, 65_543] {
        let run = random_bytes(len as u64, len);
        assert_eq!(crc32(&run), crc32_bitwise(&run), "random, length {len}");
        for fill in [0x00u8, 0xff] {
            let run = vec![fill; len];
            assert_eq!(
                crc32(&run),
                crc32_bitwise(&run),
                "{fill:#04x}, length {len}"
            );
        }
    }
}
