//! PARSE (+MAP): convert attributes from text to the binary columnar
//! representation.
//!
//! "In PARSE, attributes are converted from text format into the binary
//! representation corresponding to their type" (paper §2). MAP — assembling
//! the converted values into per-column arrays — is folded into this stage,
//! exactly as in the ScanRaw architecture ("MAP is not an independent stage
//! anymore … it is contained in PARSE", §3.1).
//!
//! [`ConversionPlan::parse`] is the one conversion loop. What the paper
//! lists as separate optimizations are properties of its plan and its map:
//!
//! * **selective parsing** — only the plan's columns are converted;
//! * **partial positional maps** — a column beyond the map's prefix is found
//!   by scanning forward from the last mapped attribute;
//! * **push-down selection** — the predicate's columns are converted first,
//!   the plan's columns only for the rows it keeps.
//!
//! An `Int64` field takes a word-at-a-time path when it is an optional sign
//! and at most sixteen digits; every other spelling, valid or not, goes to
//! the checked [`parse_i64`], so what is accepted and every error are its.

use crate::dialect::TextDialect;
use crate::plan::{ConversionPlan, PlanColumn};
use crate::swar::find_byte;
use scanraw_types::{
    BinaryChunk, ColumnData, DataType, Error, PositionalMap, Result, Schema, TextChunk, Value,
};

impl ConversionPlan {
    /// Converts the plan's columns of `chunk`, whose attributes `map` (from
    /// [`tokenize`](Self::tokenize) under this or any other plan) locates;
    /// the other column slots of the produced chunk stay `None`. Under a
    /// push-down selection the chunk holds the qualifying rows only.
    ///
    /// # Errors
    ///
    /// `Error::Parse` for the first field, in row then column order, that
    /// is not a value of its column's type; `Error::Tokenize` for a line
    /// that ends before a column beyond the map's prefix; `Error::Schema`
    /// when `map` was not made for `chunk`.
    pub fn parse(&self, chunk: &TextChunk, map: &PositionalMap) -> Result<BinaryChunk> {
        let data = &chunk.data[..];
        let mapped = map.cols_mapped() as usize;
        let covers = map.line_starts().last().map(|&end| end as usize);
        if map.rows() != chunk.rows || mapped == 0 || covers != Some(data.len()) {
            return Err(Error::Schema(format!(
                "positional map ({} rows x {mapped}, {covers:?} bytes) is not of {} ({} rows, {} bytes)",
                map.rows(),
                chunk.id,
                chunk.rows,
                data.len()
            )));
        }
        let capacity = match self.pushdown {
            Some(_) => 0,
            None => chunk.rows as usize,
        };
        let mut builders: Vec<ColumnBuilder> = (self.columns.iter())
            .map(|c| ColumnBuilder::new(c.data_type, capacity))
            .collect();
        let mut pred_values: Vec<Value> = Vec::new();
        let mut selected = 0u32;

        let rows = (map.attr_starts().chunks_exact(mapped)).zip(map.line_starts().windows(2));
        for (row, (starts, line)) in rows.enumerate() {
            let fields = LineFields {
                data,
                delimiter: self.delimiter,
                starts,
                line_end: line[1] as usize,
                line: chunk.first_row + row as u64,
            };
            if let Some(pd) = &self.pushdown {
                pred_values.clear();
                let mut cursor = fields.cursor();
                for col in &pd.columns {
                    let (s, e) = fields.span(col.index, &mut cursor)?;
                    pred_values.push(fields.value(col, s, e)?);
                }
                if !(pd.predicate)(&pred_values) {
                    continue;
                }
            }
            selected += 1;
            let mut cursor = fields.cursor();
            for (col, builder) in self.columns.iter().zip(&mut builders) {
                let (s, e) = fields.span(col.index, &mut cursor)?;
                builder.push(&fields, col, s, e)?;
            }
        }

        let mut out = BinaryChunk::empty(chunk.id, chunk.first_row, selected, self.width);
        for (col, builder) in self.columns.iter().zip(builders) {
            out.columns[col.index] = Some(builder.finish());
        }
        Ok(out)
    }
}

/// One line of a chunk with its row of the positional map.
struct LineFields<'a> {
    data: &'a [u8],
    delimiter: u8,
    /// Starts of the line's mapped attributes (never empty).
    starts: &'a [u32],
    /// End of the line, terminator included.
    line_end: usize,
    /// File-wide line number, for errors.
    line: u64,
}

impl LineFields<'_> {
    /// Where a forward scan starts: the last mapped attribute and its start.
    fn cursor(&self) -> (usize, usize) {
        let last = self.starts.len() - 1;
        (last, self.starts[last] as usize)
    }

    /// Byte span of attribute `col`, which the map gives for all but the
    /// last attribute of its prefix.
    #[inline]
    fn span(&self, col: usize, cursor: &mut (usize, usize)) -> Result<(usize, usize)> {
        match self.starts.get(col..col + 2) {
            Some(&[start, next]) => Ok((start as usize, next as usize - 1)),
            _ => self.scan_to(col, cursor),
        }
    }

    /// Span of attribute `col`, the last mapped one or one beyond it, by a
    /// delimiter scan forward from `cursor`: the closest attribute whose
    /// start is known (the partial positional-map strategy of §2).
    fn scan_to(&self, col: usize, cursor: &mut (usize, usize)) -> Result<(usize, usize)> {
        let data = self.data;
        // The content ends before the terminator (and a carriage return).
        let line_start = self.starts[0] as usize;
        let mut end = self.line_end;
        if end > line_start && data[end - 1] == b'\n' {
            end -= 1;
        }
        if end > line_start && data[end - 1] == b'\r' {
            end -= 1;
        }
        // The next delimiter, or the content end: the first newline from
        // inside a line is the line's own.
        let stop = |from| match find_byte(data, from, self.delimiter, b'\n') {
            Some(at) => at.min(end),
            None => end,
        };
        if col < cursor.0 {
            *cursor = self.cursor();
        }
        while cursor.0 < col {
            let at = stop(cursor.1);
            if at == end {
                return Err(Error::Tokenize {
                    line: self.line,
                    message: format!(
                        "expected at least {} attributes, found {}",
                        col + 1,
                        cursor.0 + 1
                    ),
                });
            }
            *cursor = (cursor.0 + 1, at + 1);
        }
        Ok((cursor.1, stop(cursor.1)))
    }

    #[inline]
    fn int(&self, col: &PlanColumn, s: usize, e: usize) -> Result<i64> {
        match swar_i64(self.data, s, e) {
            Some(value) => Ok(value),
            None => parse_i64(&self.data[s..e], self.line, col.index),
        }
    }

    /// One attribute as a dynamic value (push-down selection).
    fn value(&self, col: &PlanColumn, s: usize, e: usize) -> Result<Value> {
        let bytes = &self.data[s..e];
        Ok(match col.data_type {
            DataType::Int64 => Value::Int(self.int(col, s, e)?),
            DataType::Float64 => Value::Float(parse_f64(bytes, self.line, col.index)?),
            DataType::Utf8 => Value::Str(parse_str(bytes, self.line, col.index)?),
        })
    }
}

/// Typed column accumulator (the MAP organization step): the converter of a
/// column is the variant its type selected when the plan was made.
enum ColumnBuilder {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<String>),
}

impl ColumnBuilder {
    fn new(dt: DataType, capacity: usize) -> Self {
        match dt {
            DataType::Int64 => ColumnBuilder::Int64(Vec::with_capacity(capacity)),
            DataType::Float64 => ColumnBuilder::Float64(Vec::with_capacity(capacity)),
            DataType::Utf8 => ColumnBuilder::Utf8(Vec::with_capacity(capacity)),
        }
    }

    #[inline]
    fn push(
        &mut self,
        fields: &LineFields<'_>,
        col: &PlanColumn,
        s: usize,
        e: usize,
    ) -> Result<()> {
        let (data, line) = (fields.data, fields.line);
        match self {
            ColumnBuilder::Int64(v) => v.push(fields.int(col, s, e)?),
            ColumnBuilder::Float64(v) => v.push(parse_f64(&data[s..e], line, col.index)?),
            ColumnBuilder::Utf8(v) => v.push(parse_str(&data[s..e], line, col.index)?),
        }
        Ok(())
    }

    fn finish(self) -> ColumnData {
        match self {
            ColumnBuilder::Int64(v) => ColumnData::Int64(v),
            ColumnBuilder::Float64(v) => ColumnData::Float64(v),
            ColumnBuilder::Utf8(v) => ColumnData::Utf8(v),
        }
    }
}

/// `byte` in every lane of two words.
const fn splat(byte: u8) -> u128 {
    u128::from_ne_bytes([byte; 16])
}

/// Folds eight decimal digit lanes (values 0–9, most significant in the
/// lowest byte) into their number: pairs, then fours, then all eight.
fn fold_digits(lanes: u64) -> u64 {
    let pairs = (lanes.wrapping_mul(10) + (lanes >> 8)) & 0x00ff_00ff_00ff_00ff;
    let fours = (pairs.wrapping_mul(100) + (pairs >> 16)) & 0x0000_ffff_0000_ffff;
    (fours.wrapping_mul(10_000) + (fours >> 32)) & 0xffff_ffff
}

/// The integer spelled by `data[s..e]` when that is an optional sign and one
/// to sixteen decimal digits, read as the sixteen bytes that end at `e`.
/// `None` — not that shape, or closer than sixteen bytes to the chunk start
/// — leaves the field to [`parse_i64`]; sixteen digits cannot overflow, so
/// the two agree wherever this answers.
#[inline]
fn swar_i64(data: &[u8], s: usize, e: usize) -> Option<i64> {
    let window: &[u8; 16] = data.get(e.checked_sub(16)?..e)?.first_chunk()?;
    let digits_from = |from: usize| -> Option<i64> {
        let digits = e.checked_sub(from).filter(|n| (1..=16).contains(n))?;
        // Lanes hold byte ^ '0': 0–9 for a digit. Those before the first
        // digit count as leading zeros.
        let lanes = u128::from_le_bytes(*window) ^ splat(b'0');
        let lanes = lanes & (u128::MAX << (8 * (16 - digits)));
        // A lane above 9 carries into its bit 7 when 0x76 is added, or has
        // it set.
        if (lanes.wrapping_add(splat(0x76)) | lanes) & splat(0x80) != 0 {
            return None;
        }
        let (high, low) = (fold_digits(lanes as u64), fold_digits((lanes >> 64) as u64));
        Some((high * 100_000_000 + low) as i64)
    };
    // All digits is the common case; a sign is looked for when it is not.
    match digits_from(s) {
        Some(value) => Some(value),
        None => match data.get(s)? {
            b'-' => digits_from(s + 1).map(|magnitude| -magnitude),
            b'+' => digits_from(s + 1),
            _ => None,
        },
    }
}

/// Checked decimal integer parser (the `atoi` of paper §2): an optional
/// sign and digits, surrounded by whitespace as `str::trim` sees it — the
/// rule of [`reference::parse_rows`].
fn parse_i64(bytes: &[u8], line: u64, column: usize) -> Result<i64> {
    let err = |m: &str| Error::Parse {
        line,
        column,
        message: format!("{m}: {:?}", String::from_utf8_lossy(bytes)),
    };
    let trimmed = std::str::from_utf8(bytes).map_or(bytes, |s| s.trim().as_bytes());
    let (neg, digits) = match trimmed {
        [] => return Err(err("empty integer")),
        [b'-', digits @ ..] => (true, digits),
        [b'+', digits @ ..] => (false, digits),
        digits => (false, digits),
    };
    if digits.is_empty() {
        return Err(err("sign without digits"));
    }
    // The magnitude is accumulated unsigned: `i64::MIN`'s does not fit a
    // positive `i64`.
    let mut acc: u64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(err("invalid digit"));
        }
        acc = acc
            .checked_mul(10)
            .and_then(|a| a.checked_add((b - b'0') as u64))
            .ok_or_else(|| err("integer overflow"))?;
    }
    let value = if neg {
        0i64.checked_sub_unsigned(acc)
    } else {
        i64::try_from(acc).ok()
    };
    value.ok_or_else(|| err("integer overflow"))
}

fn parse_f64(bytes: &[u8], line: u64, column: usize) -> Result<f64> {
    let s = std::str::from_utf8(bytes).map_err(|_| Error::Parse {
        line,
        column,
        message: "invalid utf-8 in float".into(),
    })?;
    s.trim().parse::<f64>().map_err(|e| Error::Parse {
        line,
        column,
        message: format!("invalid float {s:?}: {e}"),
    })
}

fn parse_str(bytes: &[u8], line: u64, column: usize) -> Result<String> {
    std::str::from_utf8(bytes)
        .map(|s| s.to_string())
        .map_err(|_| Error::Parse {
            line,
            column,
            message: "invalid utf-8 in string".into(),
        })
}

/// Converts every column of the schema: a one-chunk [`ConversionPlan`] for
/// callers that convert a chunk or two.
pub fn parse_chunk(
    chunk: &TextChunk,
    map: &PositionalMap,
    dialect: TextDialect,
    schema: &Schema,
) -> Result<BinaryChunk> {
    let all: Vec<usize> = (0..schema.len()).collect();
    parse_chunk_projected(chunk, map, dialect, schema, &all)
}

/// Selective parsing: converts only the `projection` columns, leaving the
/// rest absent (`None`) in the produced [`BinaryChunk`].
pub fn parse_chunk_projected(
    chunk: &TextChunk,
    map: &PositionalMap,
    dialect: TextDialect,
    schema: &Schema,
    projection: &[usize],
) -> Result<BinaryChunk> {
    ConversionPlan::new(schema, dialect, projection, None)?.parse(chunk, map)
}

/// Reference row-wise implementation used by tests and property checks: split
/// with the standard library, parse with `str::parse`. Slow but obviously
/// correct.
pub mod reference {
    use super::*;

    /// Parses a whole chunk the naive way, returning rows of values for the
    /// given projection.
    pub fn parse_rows(
        text: &str,
        dialect: TextDialect,
        schema: &Schema,
        projection: &[usize],
    ) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split(dialect.delimiter as char).collect();
            let mut row = Vec::with_capacity(projection.len());
            for &c in projection {
                let raw = fields.get(c).ok_or(Error::Tokenize {
                    line: i as u64,
                    message: "short line".into(),
                })?;
                let dt = schema
                    .field(c)
                    .ok_or_else(|| Error::Schema("bad projection".into()))?
                    .data_type;
                let v = match dt {
                    DataType::Int64 => {
                        Value::Int(raw.trim().parse().map_err(|e| Error::Parse {
                            line: i as u64,
                            column: c,
                            message: format!("{e}"),
                        })?)
                    }
                    DataType::Float64 => {
                        Value::Float(raw.trim().parse().map_err(|e| Error::Parse {
                            line: i as u64,
                            column: c,
                            message: format!("{e}"),
                        })?)
                    }
                    DataType::Utf8 => Value::Str(raw.to_string()),
                };
                row.push(v);
            }
            out.push(row);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RowPredicate;
    use crate::tokenize::{tokenize_chunk, tokenize_chunk_selective};
    use bytes::Bytes;
    use scanraw_types::ChunkId;
    use std::sync::Arc;

    fn chunk(text: &str, rows: u32) -> TextChunk {
        TextChunk {
            id: ChunkId(0),
            file_offset: 0,
            first_row: 0,
            rows,
            data: Bytes::from(text.as_bytes().to_vec()),
        }
    }

    fn ints(chunk: &BinaryChunk, col: usize) -> Vec<i64> {
        match chunk.column(col).unwrap() {
            ColumnData::Int64(v) => v.clone(),
            other => panic!("expected ints, got {other:?}"),
        }
    }

    #[test]
    fn parse_all_columns() {
        let c = chunk("1,2,3\n40,50,60\n", 2);
        let schema = Schema::uniform_ints(3);
        let m = tokenize_chunk(&c, TextDialect::CSV, 3).unwrap();
        let b = parse_chunk(&c, &m, TextDialect::CSV, &schema).unwrap();
        b.validate(&schema).unwrap();
        assert_eq!(ints(&b, 0), vec![1, 40]);
        assert_eq!(ints(&b, 1), vec![2, 50]);
        assert_eq!(ints(&b, 2), vec![3, 60]);
    }

    #[test]
    fn integer_edges_match_the_reference() {
        // A second column keeps the empty field a row of its own for
        // `str::lines`.
        let schema = Schema::uniform_ints(2);
        for field in [
            "-9223372036854775808",
            "9223372036854775807",
            "-9223372036854775809",
            "9223372036854775808",
            "-0",
            "+5",
            "-",
            "+",
            "",
            // The oracle trims whitespace around an integer.
            " 5",
            "5 ",
            "\t-7 ",
            " ",
            "- 5",
            "1 2",
            "\u{a0}5",
        ] {
            let kernel = parse_i64(field.as_bytes(), 0, 0).ok();
            // The same field through the plan, far enough into the chunk
            // for the word-at-a-time path to look at it first.
            let padded = chunk(&format!("{:016},0\n{field},0\n", 0), 2);
            let m = tokenize_chunk(&padded, TextDialect::CSV, 2).unwrap();
            let planned = parse_chunk_projected(&padded, &m, TextDialect::CSV, &schema, &[0]);
            assert_eq!(planned.ok().map(|b| ints(&b, 0)[1]), kernel, "{field:?}");
            let text = format!("{field},0");
            let reference = reference::parse_rows(&text, TextDialect::CSV, &schema, &[0])
                .ok()
                .map(|rows| match rows[0][0] {
                    Value::Int(v) => v,
                    ref other => panic!("expected an int, got {other:?}"),
                });
            assert_eq!(kernel, reference, "field {field:?}");
        }
        assert_eq!(parse_i64(b"-9223372036854775808", 0, 0).unwrap(), i64::MIN);
        let overflow = parse_i64(b"-9223372036854775809", 0, 0).unwrap_err();
        assert!(
            overflow.to_string().contains("integer overflow"),
            "{overflow}"
        );
    }

    #[test]
    fn selective_parsing_leaves_columns_absent() {
        let c = chunk("1,2,3\n4,5,6\n", 2);
        let schema = Schema::uniform_ints(3);
        let m = tokenize_chunk(&c, TextDialect::CSV, 3).unwrap();
        let b = parse_chunk_projected(&c, &m, TextDialect::CSV, &schema, &[2]).unwrap();
        assert!(b.column(0).is_none());
        assert!(b.column(1).is_none());
        assert_eq!(ints(&b, 2), vec![3, 6]);
    }

    #[test]
    fn partial_map_scans_forward() {
        let c = chunk("1,2,3,4\n5,6,7,8\n", 2);
        let schema = Schema::uniform_ints(4);
        // Map only the first column; parse requires the last.
        let m = tokenize_chunk_selective(&c, TextDialect::CSV, 4, 1).unwrap();
        let b = parse_chunk_projected(&c, &m, TextDialect::CSV, &schema, &[0, 3]).unwrap();
        assert_eq!(ints(&b, 0), vec![1, 5]);
        assert_eq!(ints(&b, 3), vec![4, 8]);
    }

    #[test]
    fn crlf_is_stripped() {
        let c = chunk("7,8\r\n9,10\r\n", 2);
        let schema = Schema::uniform_ints(2);
        let m = tokenize_chunk(&c, TextDialect::CSV, 2).unwrap();
        let b = parse_chunk(&c, &m, TextDialect::CSV, &schema).unwrap();
        assert_eq!(ints(&b, 1), vec![8, 10]);
    }

    #[test]
    fn negative_and_signed_integers() {
        let c = chunk("-5,+7\n0,-0\n", 2);
        let schema = Schema::uniform_ints(2);
        let m = tokenize_chunk(&c, TextDialect::CSV, 2).unwrap();
        let b = parse_chunk(&c, &m, TextDialect::CSV, &schema).unwrap();
        assert_eq!(ints(&b, 0), vec![-5, 0]);
        assert_eq!(ints(&b, 1), vec![7, 0]);
    }

    #[test]
    fn integer_overflow_detected() {
        let c = chunk("99999999999999999999\n", 1);
        let schema = Schema::uniform_ints(1);
        let m = tokenize_chunk(&c, TextDialect::CSV, 1).unwrap();
        let err = parse_chunk(&c, &m, TextDialect::CSV, &schema).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn garbage_integer_is_parse_error() {
        let c = chunk("12x\n", 1);
        let schema = Schema::uniform_ints(1);
        let m = tokenize_chunk(&c, TextDialect::CSV, 1).unwrap();
        assert!(parse_chunk(&c, &m, TextDialect::CSV, &schema).is_err());
    }

    #[test]
    fn mixed_types() {
        use scanraw_types::Field;
        let schema = Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("score", DataType::Float64),
            Field::new("n", DataType::Int64),
        ])
        .unwrap();
        let c = chunk("alice,1.5,3\nbob,-0.25,4\n", 2);
        let m = tokenize_chunk(&c, TextDialect::CSV, 3).unwrap();
        let b = parse_chunk(&c, &m, TextDialect::CSV, &schema).unwrap();
        assert_eq!(
            b.column(0).unwrap(),
            &ColumnData::Utf8(vec!["alice".into(), "bob".into()])
        );
        assert_eq!(b.column(1).unwrap(), &ColumnData::Float64(vec![1.5, -0.25]));
        assert_eq!(ints(&b, 2), vec![3, 4]);
    }

    #[test]
    fn pushdown_selection_filters_rows() {
        let c = chunk("1,10\n2,20\n3,30\n4,40\n", 4);
        let schema = Schema::uniform_ints(2);
        let even: RowPredicate = Arc::new(|vals: &[Value]| vals[0].as_i64().unwrap() % 2 == 0);
        let plan =
            ConversionPlan::new(&schema, TextDialect::CSV, &[0, 1], Some((&[0], even))).unwrap();
        let b = plan.parse(&c, &plan.tokenize(&c).unwrap()).unwrap();
        assert_eq!(b.rows, 2);
        assert_eq!(ints(&b, 0), vec![2, 4]);
        assert_eq!(ints(&b, 1), vec![20, 40]);
    }

    #[test]
    fn pushdown_with_predicate_column_not_projected() {
        let c = chunk("1,10\n2,20\n", 2);
        let schema = Schema::uniform_ints(2);
        // The predicate's columns arrive in its own order, here descending.
        let above: RowPredicate = Arc::new(|vals: &[Value]| {
            assert_eq!(vals.len(), 2);
            vals[0].as_i64().unwrap() > 10 && vals[1].as_i64().unwrap() > 1
        });
        let plan =
            ConversionPlan::new(&schema, TextDialect::CSV, &[1], Some((&[1, 0], above))).unwrap();
        // A one-column map: the predicate's columns are found by scanning.
        let m = tokenize_chunk_selective(&c, TextDialect::CSV, 2, 1).unwrap();
        let b = plan.parse(&c, &m).unwrap();
        assert_eq!(b.rows, 1);
        assert!(b.column(0).is_none(), "predicate col not projected");
        assert_eq!(ints(&b, 1), vec![20]);
    }

    #[test]
    fn a_map_of_another_chunk_is_rejected() {
        let schema = Schema::uniform_ints(2);
        let m = tokenize_chunk(&chunk("1,2\n3,4\n", 2), TextDialect::CSV, 2).unwrap();
        for other in [chunk("1,2\n", 1), chunk("1,2\n3,45\n", 2)] {
            let err = parse_chunk(&other, &m, TextDialect::CSV, &schema).unwrap_err();
            assert!(matches!(err, Error::Schema(_)), "{err}");
        }
    }

    #[test]
    fn matches_reference_parser() {
        let text = "10,20,30\n-1,0,1\n7,8,9\n";
        let c = chunk(text, 3);
        let schema = Schema::uniform_ints(3);
        let m = tokenize_chunk(&c, TextDialect::CSV, 3).unwrap();
        let fast = parse_chunk(&c, &m, TextDialect::CSV, &schema).unwrap();
        let slow = reference::parse_rows(text, TextDialect::CSV, &schema, &[0, 1, 2]).unwrap();
        for (row, slow_row) in slow.iter().enumerate() {
            for (col, expected) in slow_row.iter().enumerate() {
                assert_eq!(&fast.column(col).unwrap().value(row).unwrap(), expected);
            }
        }
    }

    #[test]
    fn projection_out_of_range_rejected() {
        let c = chunk("1\n", 1);
        let schema = Schema::uniform_ints(1);
        let m = tokenize_chunk(&c, TextDialect::CSV, 1).unwrap();
        assert!(parse_chunk_projected(&c, &m, TextDialect::CSV, &schema, &[1]).is_err());
    }

    #[test]
    fn forward_scan_detects_short_lines() {
        let c = chunk("1,2\n", 1);
        let schema = Schema::uniform_ints(4);
        let m = tokenize_chunk_selective(&c, TextDialect::CSV, 4, 1).unwrap();
        let err = parse_chunk_projected(&c, &m, TextDialect::CSV, &schema, &[3]).unwrap_err();
        assert!(matches!(err, Error::Tokenize { .. }));
    }
}
