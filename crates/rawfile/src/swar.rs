//! Word-at-a-time byte search: the one primitive delimiter and newline
//! discovery is built on, in the chunker, in TOKENIZE and in PARSE's forward
//! scan. Safe Rust: eight bytes are loaded with `u64::from_le_bytes` and
//! compared in one go (SIMD within a register).

/// `byte` in every lane of a word.
const fn splat(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// Bit 7 of the first byte of `word` (lowest address of the little-endian
/// load) that equals its byte of `pattern`, zero when none does. Bits above
/// that one may be set for lanes that do not match — the subtraction borrows
/// out of a matching lane — so only the lowest set bit may be read.
fn first_match(word: u64, pattern: u64) -> u64 {
    let diff = word ^ pattern;
    diff.wrapping_sub(splat(0x01)) & !diff & splat(0x80)
}

/// Index of the first byte at or after `from` that equals `a` or `b` (pass
/// the same byte twice to look for one): eight bytes per step, the last
/// seven of the slice one at a time. The one search primitive of the
/// chunker, the tokenizer and PARSE's forward scan.
pub fn find_byte(data: &[u8], from: usize, a: u8, b: u8) -> Option<usize> {
    let (words, tail) = data.get(from..)?.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let hits = first_match(word, splat(a)) | first_match(word, splat(b));
        if hits != 0 {
            return Some(from + 8 * i + hits.trailing_zeros() as usize / 8);
        }
    }
    let at = tail.iter().position(|&c| c == a || c == b)?;
    Some(from + 8 * words.len() + at)
}
