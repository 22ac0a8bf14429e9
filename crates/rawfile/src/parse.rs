//! PARSE (+MAP): convert attributes from text to the binary columnar
//! representation.
//!
//! "In PARSE, attributes are converted from text format into the binary
//! representation corresponding to their type" (paper §2). MAP — assembling
//! the converted values into per-column arrays — is folded into this stage,
//! exactly as in the ScanRaw architecture ("MAP is not an independent stage
//! anymore … it is contained in PARSE", §3.1).
//!
//! Optimizations implemented from the paper:
//!
//! * **selective parsing** — only projected columns are converted
//!   ([`parse_chunk_projected`]);
//! * **partial positional maps** — columns beyond the tokenized prefix are
//!   located by scanning forward from the closest mapped attribute;
//! * **push-down selection** — predicate columns parsed first, remaining
//!   columns parsed only for qualifying rows ([`parse_chunk_filtered`]).

use crate::dialect::TextDialect;
use scanraw_types::{
    BinaryChunk, ColumnData, DataType, Error, PositionalMap, Result, Schema, TextChunk, Value,
};

/// Push-down selection: a predicate over a set of columns evaluated during
/// parsing, before the remaining columns are converted (paper §2, PARSE).
pub struct RowFilter<'a> {
    /// Columns the predicate needs (parsed first).
    pub columns: &'a [usize],
    /// Returns true when the row qualifies; receives the values of
    /// `columns`, in the same order.
    pub predicate: &'a (dyn Fn(&[Value]) -> bool + Sync),
}

/// Parses every column of the schema. Equivalent to
/// [`parse_chunk_projected`] with the full projection.
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
    for &c in projection {
        if c >= schema.len() {
            return Err(Error::Schema(format!(
                "projection column {c} out of range for schema of {}",
                schema.len()
            )));
        }
    }
    let mut builders: Vec<(usize, ColumnBuilder)> = projection
        .iter()
        .map(|&c| {
            (
                c,
                ColumnBuilder::new(
                    schema.field(c).expect("checked").data_type,
                    chunk.rows as usize,
                ),
            )
        })
        .collect();

    let mut sorted: Vec<usize> = projection.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let mut spans: Vec<(u32, u32)> = vec![(0, 0); schema.len()];
    for row in 0..chunk.rows {
        locate_row(chunk, map, dialect, row, &sorted, &mut spans)?;
        for (c, b) in builders.iter_mut() {
            let (s, e) = spans[*c];
            b.push(
                &chunk.data[s as usize..e as usize],
                chunk.first_row + row as u64,
                *c,
            )?;
        }
    }

    let mut out = BinaryChunk::empty(chunk.id, chunk.first_row, chunk.rows, schema.len());
    for (c, b) in builders {
        out.columns[c] = Some(b.finish());
    }
    Ok(out)
}

/// Push-down selection: parses `filter.columns`, evaluates the predicate per
/// row, and parses the remaining projected columns only for qualifying rows.
///
/// Returns the filtered chunk (only qualifying rows) and the per-chunk
/// qualifying row count. The returned chunk keeps the source `ChunkId` but
/// its `rows` is the selected count; it is intended for immediate query
/// consumption, not for loading (the paper explains the bookkeeping cost of
/// loading filtered chunks is prohibitive, §2 WRITE).
pub fn parse_chunk_filtered(
    chunk: &TextChunk,
    map: &PositionalMap,
    dialect: TextDialect,
    schema: &Schema,
    projection: &[usize],
    filter: &RowFilter<'_>,
) -> Result<BinaryChunk> {
    // Columns needed at predicate time.
    let mut pred_sorted: Vec<usize> = filter.columns.to_vec();
    pred_sorted.sort_unstable();
    pred_sorted.dedup();
    // Columns parsed only for qualifying rows.
    let rest: Vec<usize> = projection
        .iter()
        .copied()
        .filter(|c| !filter.columns.contains(c))
        .collect();
    let mut rest_sorted = rest.clone();
    rest_sorted.sort_unstable();
    rest_sorted.dedup();

    for &c in projection.iter().chain(filter.columns) {
        if c >= schema.len() {
            return Err(Error::Schema(format!("column {c} out of range")));
        }
    }

    let mut pred_builders: Vec<(usize, ColumnBuilder)> = filter
        .columns
        .iter()
        .filter(|c| projection.contains(c))
        .map(|&c| {
            (
                c,
                ColumnBuilder::new(schema.field(c).expect("checked").data_type, 0),
            )
        })
        .collect();
    let mut rest_builders: Vec<(usize, ColumnBuilder)> = rest
        .iter()
        .map(|&c| {
            (
                c,
                ColumnBuilder::new(schema.field(c).expect("checked").data_type, 0),
            )
        })
        .collect();

    let mut spans: Vec<(u32, u32)> = vec![(0, 0); schema.len()];
    let mut pred_values: Vec<Value> = Vec::with_capacity(filter.columns.len());
    let mut selected = 0u32;

    for row in 0..chunk.rows {
        locate_row(chunk, map, dialect, row, &pred_sorted, &mut spans)?;
        pred_values.clear();
        for &c in filter.columns {
            let (s, e) = spans[c];
            let dt = schema.field(c).expect("checked").data_type;
            pred_values.push(parse_value(
                &chunk.data[s as usize..e as usize],
                dt,
                chunk.first_row + row as u64,
                c,
            )?);
        }
        if !(filter.predicate)(&pred_values) {
            continue;
        }
        selected += 1;
        for (i, &c) in filter.columns.iter().enumerate() {
            if let Some((_, b)) = pred_builders.iter_mut().find(|(bc, _)| *bc == c) {
                b.push_value(pred_values[i].clone());
            }
        }
        if !rest_sorted.is_empty() {
            locate_row(chunk, map, dialect, row, &rest_sorted, &mut spans)?;
            for (c, b) in rest_builders.iter_mut() {
                let (s, e) = spans[*c];
                b.push(
                    &chunk.data[s as usize..e as usize],
                    chunk.first_row + row as u64,
                    *c,
                )?;
            }
        }
    }

    let mut out = BinaryChunk::empty(chunk.id, chunk.first_row, selected, schema.len());
    for (c, b) in pred_builders.into_iter().chain(rest_builders) {
        out.columns[c] = Some(b.finish());
    }
    Ok(out)
}

/// Computes the byte span (start, end) of each column in `wanted` (ascending)
/// for `row`, writing into `spans`. Uses the positional map for the mapped
/// prefix and forward delimiter scanning beyond it.
fn locate_row(
    chunk: &TextChunk,
    map: &PositionalMap,
    dialect: TextDialect,
    row: u32,
    wanted_sorted: &[usize],
    spans: &mut [(u32, u32)],
) -> Result<()> {
    let data = &chunk.data[..];
    let (line_start, line_end) = map.line_span(row);
    // Trim the line terminator (and a possible carriage return).
    let mut content_end = line_end;
    if content_end > line_start && data[content_end as usize - 1] == b'\n' {
        content_end -= 1;
    }
    if content_end > line_start && data[content_end as usize - 1] == b'\r' {
        content_end -= 1;
    }
    let delim = dialect.delimiter;
    let mapped = map.cols_mapped() as usize;

    for &col in wanted_sorted {
        let start = if col < mapped {
            map.attr_start(row, col as u32).expect("within prefix")
        } else {
            // Scan forward from the closest mapped attribute (the partial
            // positional-map strategy of §2).
            let anchor_col = mapped - 1;
            let mut pos = map.attr_start(row, anchor_col as u32).expect("prefix");
            let mut cur = anchor_col;
            while cur < col {
                let mut p = pos as usize;
                while p < content_end as usize && data[p] != delim {
                    p += 1;
                }
                if p >= content_end as usize {
                    return Err(Error::Tokenize {
                        line: chunk.first_row + row as u64,
                        message: format!(
                            "expected at least {} attributes, found {}",
                            col + 1,
                            cur + 1
                        ),
                    });
                }
                pos = (p + 1) as u32;
                cur += 1;
            }
            pos
        };
        // The attribute ends at the next delimiter or the content end.
        let end = if col + 1 < mapped {
            map.attr_start(row, col as u32 + 1).expect("prefix") - 1
        } else {
            let mut p = start as usize;
            while p < content_end as usize && data[p] != delim {
                p += 1;
            }
            p as u32
        };
        spans[col] = (start, end);
    }
    Ok(())
}

/// Typed column accumulator (the MAP organization step).
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

    fn push(&mut self, bytes: &[u8], line: u64, column: usize) -> Result<()> {
        match self {
            ColumnBuilder::Int64(v) => v.push(parse_i64(bytes, line, column)?),
            ColumnBuilder::Float64(v) => v.push(parse_f64(bytes, line, column)?),
            ColumnBuilder::Utf8(v) => v.push(parse_str(bytes, line, column)?),
        }
        Ok(())
    }

    fn push_value(&mut self, value: Value) {
        match (self, value) {
            (ColumnBuilder::Int64(v), Value::Int(x)) => v.push(x),
            (ColumnBuilder::Float64(v), Value::Float(x)) => v.push(x),
            (ColumnBuilder::Utf8(v), Value::Str(x)) => v.push(x),
            _ => unreachable!("builder/value type mismatch is prevented by construction"),
        }
    }

    fn finish(self) -> ColumnData {
        match self {
            ColumnBuilder::Int64(v) => ColumnData::Int64(v),
            ColumnBuilder::Float64(v) => ColumnData::Float64(v),
            ColumnBuilder::Utf8(v) => ColumnData::Utf8(v),
        }
    }
}

/// Parses one attribute as a dynamic value (used by push-down selection).
fn parse_value(bytes: &[u8], dt: DataType, line: u64, column: usize) -> Result<Value> {
    Ok(match dt {
        DataType::Int64 => Value::Int(parse_i64(bytes, line, column)?),
        DataType::Float64 => Value::Float(parse_f64(bytes, line, column)?),
        DataType::Utf8 => Value::Str(parse_str(bytes, line, column)?),
    })
}

/// Fast decimal integer parser (the `atoi` of paper §2) with overflow checks.
fn parse_i64(bytes: &[u8], line: u64, column: usize) -> Result<i64> {
    let err = |m: &str| Error::Parse {
        line,
        column,
        message: format!("{m}: {:?}", String::from_utf8_lossy(bytes)),
    };
    if bytes.is_empty() {
        return Err(err("empty integer"));
    }
    let (neg, digits) = match bytes[0] {
        b'-' => (true, &bytes[1..]),
        b'+' => (false, &bytes[1..]),
        _ => (false, bytes),
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
    use crate::tokenize::{tokenize_chunk, tokenize_chunk_selective};
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
        ] {
            let kernel = parse_i64(field.as_bytes(), 0, 0).ok();
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
        let m = tokenize_chunk(&c, TextDialect::CSV, 2).unwrap();
        let filter = RowFilter {
            columns: &[0],
            predicate: &|vals: &[Value]| vals[0].as_i64().unwrap() % 2 == 0,
        };
        let b = parse_chunk_filtered(&c, &m, TextDialect::CSV, &schema, &[0, 1], &filter).unwrap();
        assert_eq!(b.rows, 2);
        assert_eq!(ints(&b, 0), vec![2, 4]);
        assert_eq!(ints(&b, 1), vec![20, 40]);
    }

    #[test]
    fn pushdown_with_predicate_column_not_projected() {
        let c = chunk("1,10\n2,20\n", 2);
        let schema = Schema::uniform_ints(2);
        let m = tokenize_chunk(&c, TextDialect::CSV, 2).unwrap();
        let filter = RowFilter {
            columns: &[0],
            predicate: &|vals: &[Value]| vals[0].as_i64().unwrap() > 1,
        };
        let b = parse_chunk_filtered(&c, &m, TextDialect::CSV, &schema, &[1], &filter).unwrap();
        assert_eq!(b.rows, 1);
        assert!(b.column(0).is_none(), "predicate col not projected");
        assert_eq!(ints(&b, 1), vec![20]);
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
