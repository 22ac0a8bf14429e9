//! TOKENIZE: locate attribute boundaries within a text chunk.
//!
//! "Taking a text line corresponding to a tuple as input, TOKENIZE is
//! responsible for identifying the attributes of the tuple. The output is a
//! vector containing the starting position for every attribute" (paper §2).
//!
//! [`ConversionPlan::tokenize`] maps the first `cols_mapped` attributes of
//! every line: all of them for a full map, a prefix for *selective
//! tokenizing* (paper §2, citing NoDB), in which case PARSE scans forward
//! from the last mapped attribute for anything beyond it. Both are one loop
//! over [`find_byte`](crate::swar::find_byte): it looks for delimiters while a line's prefix is
//! unmapped and for the newline alone after that.

use crate::dialect::TextDialect;
use crate::plan::ConversionPlan;
use crate::swar::find_byte;
use scanraw_types::{Error, PositionalMap, Result, TextChunk};

impl ConversionPlan {
    /// Builds the positional map of `chunk`: per line, the start of each of
    /// the first [`cols_mapped`](Self::cols_mapped) attributes.
    ///
    /// # Errors
    ///
    /// `Error::Tokenize` when a line holds fewer attributes than that, and
    /// when the chunk holds more or fewer lines than it declares.
    pub fn tokenize(&self, chunk: &TextChunk) -> Result<PositionalMap> {
        let data = &chunk.data[..];
        let rows = chunk.rows as usize;
        let mismatch = |row: usize, message: String| Error::Tokenize {
            line: chunk.first_row + row as u64,
            message,
        };
        if u32::try_from(data.len()).is_err() {
            let message = format!("chunk of {} bytes exceeds 32-bit offsets", data.len());
            return Err(mismatch(0, message));
        }
        // Every line takes a byte at least, which also bounds the map.
        if rows > data.len() {
            let message = format!("chunk declares {rows} rows in {} bytes", data.len());
            return Err(mismatch(data.len(), message));
        }
        let mut line_starts: Vec<u32> = Vec::with_capacity(rows + 1);
        let mut attr_starts: Vec<u32> = Vec::with_capacity(rows * self.cols_mapped);
        let mut pos = 0usize;
        for row in 0..rows {
            if pos == data.len() {
                let message = format!("chunk declares {rows} rows but holds {row}");
                return Err(mismatch(row, message));
            }
            line_starts.push(pos as u32);
            // Attribute 0 starts at the line start.
            attr_starts.push(pos as u32);
            for found in 1..self.cols_mapped {
                match find_byte(data, pos, self.delimiter, b'\n') {
                    Some(at) if data[at] == self.delimiter => pos = at + 1,
                    _ => {
                        let expected = self.cols_mapped;
                        let message =
                            format!("expected at least {expected} attributes, found {found}");
                        return Err(mismatch(row, message));
                    }
                }
                attr_starts.push(pos as u32);
            }
            // The prefix is mapped: only the newline matters from here on. A
            // last line may end the chunk without one.
            pos = find_byte(data, pos, b'\n', b'\n').map_or(data.len(), |nl| nl + 1);
        }
        line_starts.push(pos as u32);
        if pos != data.len() {
            let left = data.len() - pos;
            let message = format!("chunk declares {rows} rows but {left} bytes remain");
            return Err(mismatch(rows, message));
        }
        PositionalMap::new(
            chunk.rows,
            self.cols_mapped as u32,
            line_starts,
            attr_starts,
        )
    }
}

/// Full positional map of `n_cols` attributes per line: a one-chunk
/// [`ConversionPlan::prefix`] for callers that convert a chunk or two.
pub fn tokenize_chunk(
    chunk: &TextChunk,
    dialect: TextDialect,
    n_cols: usize,
) -> Result<PositionalMap> {
    tokenize_chunk_selective(chunk, dialect, n_cols, n_cols)
}

/// Partial positional map of the first `cols_mapped` of `n_cols` attributes
/// per line (`1 <= cols_mapped <= n_cols`).
pub fn tokenize_chunk_selective(
    chunk: &TextChunk,
    dialect: TextDialect,
    n_cols: usize,
    cols_mapped: usize,
) -> Result<PositionalMap> {
    ConversionPlan::prefix(dialect, n_cols, cols_mapped)?.tokenize(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scanraw_types::ChunkId;

    fn chunk(text: &str, rows: u32) -> TextChunk {
        TextChunk {
            id: ChunkId(0),
            file_offset: 0,
            first_row: 0,
            rows,
            data: Bytes::from(text.as_bytes().to_vec()),
        }
    }

    #[test]
    fn full_map_positions() {
        let c = chunk("10,200,3\n4,55,666\n", 2);
        let m = tokenize_chunk(&c, TextDialect::CSV, 3).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols_mapped(), 3);
        // Line 0: "10,200,3\n" → starts 0, 3, 7.
        assert_eq!(m.attr_start(0, 0), Some(0));
        assert_eq!(m.attr_start(0, 1), Some(3));
        assert_eq!(m.attr_start(0, 2), Some(7));
        // Line 1 begins at byte 9: "4,55,666\n" → 9, 11, 14.
        assert_eq!(m.attr_start(1, 0), Some(9));
        assert_eq!(m.attr_start(1, 1), Some(11));
        assert_eq!(m.attr_start(1, 2), Some(14));
        assert_eq!(m.line_span(0), (0, 9));
        assert_eq!(m.line_span(1), (9, 18));
    }

    #[test]
    fn selective_map_stops_early() {
        let c = chunk("1,2,3,4,5\n6,7,8,9,10\n", 2);
        let m = tokenize_chunk_selective(&c, TextDialect::CSV, 5, 2).unwrap();
        assert_eq!(m.cols_mapped(), 2);
        assert_eq!(m.attr_start(0, 0), Some(0));
        assert_eq!(m.attr_start(0, 1), Some(2));
        assert_eq!(m.attr_start(0, 2), None);
        // Line spans are still complete.
        assert_eq!(m.line_span(1), (10, 21));
    }

    #[test]
    fn too_few_attributes_is_error() {
        let c = chunk("1,2\n", 1);
        let err = tokenize_chunk(&c, TextDialect::CSV, 3).unwrap_err();
        assert!(matches!(err, Error::Tokenize { .. }));
    }

    #[test]
    fn row_count_mismatch_detected() {
        // Three lines of three attributes, declared as more and as fewer,
        // for a one-attribute prefix, a partial one and the full map.
        let c = |rows| chunk("1,2,3\n4,5,6\n7,8,9\n", rows);
        for cols_mapped in [1, 2, 3] {
            let tokenize =
                |rows| tokenize_chunk_selective(&c(rows), TextDialect::CSV, 3, cols_mapped);
            assert!(tokenize(3).is_ok());
            for declared in [2, 4, 6] {
                let err = tokenize(declared).unwrap_err();
                assert!(
                    matches!(err, Error::Tokenize { .. }),
                    "{declared} rows declared, {cols_mapped} mapped: {err}"
                );
            }
        }
        // The phantom rows of a one-attribute prefix: `a` is one row.
        let err = tokenize_chunk(&chunk("a\n", 3), TextDialect::CSV, 1).unwrap_err();
        assert!(matches!(err, Error::Tokenize { .. }), "{err}");
        let err = tokenize_chunk(&chunk("alpha\n", 3), TextDialect::CSV, 1).unwrap_err();
        assert!(matches!(err, Error::Tokenize { line: 1, .. }), "{err}");
    }

    #[test]
    fn unterminated_last_line() {
        let c = chunk("1,2\n3,4", 2);
        let m = tokenize_chunk(&c, TextDialect::CSV, 2).unwrap();
        assert_eq!(m.line_span(1), (4, 7));
        assert_eq!(m.attr_start(1, 1), Some(6));
    }

    #[test]
    fn tab_dialect() {
        let c = chunk("a\tb\nc\td\n", 2);
        let m = tokenize_chunk(&c, TextDialect::TSV, 2).unwrap();
        assert_eq!(m.attr_start(0, 1), Some(2));
        assert_eq!(m.attr_start(1, 1), Some(6));
    }

    #[test]
    fn cols_mapped_bounds_checked() {
        let c = chunk("1,2\n", 1);
        assert!(tokenize_chunk_selective(&c, TextDialect::CSV, 2, 0).is_err());
        assert!(tokenize_chunk_selective(&c, TextDialect::CSV, 2, 3).is_err());
    }

    #[test]
    fn single_column_lines() {
        let c = chunk("alpha\nbeta\n", 2);
        let m = tokenize_chunk(&c, TextDialect::CSV, 1).unwrap();
        assert_eq!(m.attr_start(0, 0), Some(0));
        assert_eq!(m.attr_start(1, 0), Some(6));
    }

    #[test]
    fn empty_fields_are_positions_too() {
        let c = chunk(",,\n", 1);
        let m = tokenize_chunk(&c, TextDialect::CSV, 3).unwrap();
        assert_eq!(m.attr_start(0, 0), Some(0));
        assert_eq!(m.attr_start(0, 1), Some(1));
        assert_eq!(m.attr_start(0, 2), Some(2));
    }
}
