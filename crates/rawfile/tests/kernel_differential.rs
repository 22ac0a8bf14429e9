//! The conversion kernel against `reference::parse_rows`, on values and on
//! errors, over hostile text.
//!
//! The reference decides what every single field is worth; this file only
//! assembles its verdicts in the order the kernel must report them — the
//! whole chunk is tokenized before anything is parsed, then rows in file
//! order, a push-down predicate's columns before the plan's, columns in
//! plan order — and demands the same values or the same error variant, line
//! and column from [`ConversionPlan`], for every width of the mapped prefix
//! and every projection, never a panic. Seeded `StdRng`, deterministic.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scanraw_rawfile::parse::reference;
use scanraw_rawfile::swar::find_byte;
use scanraw_rawfile::{ConversionPlan, RowPredicate, TextDialect};
use scanraw_types::{ChunkId, DataType, Error, Field, Schema, TextChunk, Value};
use std::sync::Arc;

/// A chunk's first line is not the file's first: errors must say so.
const FIRST_ROW: u64 = 1_000;

/// What converting a chunk comes to, as far as the two sides must agree.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<Vec<Value>>),
    Tokenize { line: u64 },
    Parse { line: u64, column: usize },
}

fn schema_of(types: &[DataType]) -> Schema {
    let fields = types.iter().enumerate();
    Schema::new(
        fields
            .map(|(i, &dt)| Field::new(format!("c{i}"), dt))
            .collect(),
    )
    .unwrap()
}

/// Lines as `str::lines` splits them, on bytes: at `\n`, minus one trailing
/// `\r`, no empty line after a final terminator.
fn lines_of(text: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|last| last.is_empty()) {
        lines.pop();
    }
    let strip = |line| <[u8]>::strip_suffix(line, b"\r").unwrap_or(line);
    lines.into_iter().map(strip).collect()
}

/// The reference's verdict on one field. A second column keeps an empty
/// field a line of its own for `str::lines`. Text that is not UTF-8 cannot
/// reach the reference: it is no string and no float, and no integer either
/// once the reference sees the replacement character.
fn reference_field(field: &[u8], dt: DataType, dialect: TextDialect) -> Option<Value> {
    if dt != DataType::Int64 && std::str::from_utf8(field).is_err() {
        return None;
    }
    let text = String::from_utf8_lossy(field);
    let line = format!("{text}{}0", dialect.delimiter as char);
    let schema = schema_of(&[dt, DataType::Int64]);
    let rows = reference::parse_rows(&line, dialect, &schema, &[0]).ok()?;
    Some(rows[0][0].clone())
}

/// The predicate every push-down case uses: a parity per value, all of them.
fn keeps(values: &[Value]) -> bool {
    values.iter().all(|v| match v {
        Value::Int(i) => i % 2 == 0,
        Value::Float(f) => f.is_sign_positive(),
        Value::Str(s) => s.len() % 2 == 0,
    })
}

/// The reference's verdict on every field of every line of `text` (`None`:
/// not a value of its column's type). A line's entry is as long as the line
/// has fields, up to the schema's width.
fn verdicts(text: &[u8], types: &[DataType], dialect: TextDialect) -> Vec<Vec<Option<Value>>> {
    let verdict = |line: &[u8]| {
        let fields = line.split(|&b| b == dialect.delimiter);
        let typed = fields.zip(types);
        typed
            .map(|(field, &dt)| reference_field(field, dt, dialect))
            .collect()
    };
    lines_of(text).into_iter().map(verdict).collect()
}

/// What the verdicts come to under a map of `cols_mapped` attributes, a
/// projection (ascending) and an optional predicate.
fn expected(
    rows: &[Vec<Option<Value>>],
    cols_mapped: usize,
    projection: &[usize],
    pushdown: Option<&[usize]>,
) -> Outcome {
    // TOKENIZE sees the whole chunk first.
    if let Some(short) = rows.iter().position(|fields| fields.len() < cols_mapped) {
        return Outcome::Tokenize {
            line: FIRST_ROW + short as u64,
        };
    }
    let mut out = Vec::new();
    for (row, fields) in rows.iter().enumerate() {
        let line = FIRST_ROW + row as u64;
        let convert = |columns: &[usize]| -> Result<Vec<Value>, Outcome> {
            let field = |&column: &usize| {
                let verdict = fields.get(column).ok_or(Outcome::Tokenize { line })?;
                verdict.clone().ok_or(Outcome::Parse { line, column })
            };
            columns.iter().map(field).collect()
        };
        if let Some(columns) = pushdown {
            match convert(columns) {
                Ok(values) if !keeps(&values) => continue,
                Ok(_) => {}
                Err(outcome) => return outcome,
            }
        }
        match convert(projection) {
            Ok(values) => out.push(values),
            Err(outcome) => return outcome,
        }
    }
    Outcome::Rows(out)
}

fn kernel(
    text: &[u8],
    types: &[DataType],
    dialect: TextDialect,
    cols_mapped: usize,
    projection: &[usize],
    pushdown: Option<&[usize]>,
) -> Outcome {
    let declared = text.iter().filter(|&&b| b == b'\n').count()
        + usize::from(text.last().is_some_and(|&b| b != b'\n'));
    let chunk = TextChunk {
        id: ChunkId(7),
        file_offset: 0,
        first_row: FIRST_ROW,
        rows: declared as u32,
        data: Bytes::from(text.to_vec()),
    };
    let schema = schema_of(types);
    let predicate: RowPredicate = Arc::new(keeps);
    let pushdown = pushdown.map(|columns| (columns, predicate));
    let converted = ConversionPlan::prefix(dialect, types.len(), cols_mapped)
        .and_then(|prefix| prefix.tokenize(&chunk))
        .and_then(|map| {
            ConversionPlan::new(&schema, dialect, projection, pushdown)?.parse(&chunk, &map)
        });
    match converted {
        Ok(bin) => {
            bin.validate(&schema).unwrap();
            let value = |row, &c: &usize| bin.column(c).unwrap().value(row).unwrap();
            let row = |row| projection.iter().map(|c| value(row, c)).collect();
            Outcome::Rows((0..bin.rows as usize).map(row).collect())
        }
        Err(Error::Tokenize { line, .. }) => Outcome::Tokenize { line },
        Err(Error::Parse { line, column, .. }) => Outcome::Parse { line, column },
        Err(other) => panic!(
            "unexpected error {other} for {:?}",
            String::from_utf8_lossy(text)
        ),
    }
}

/// Compares the two sides for every width of the mapped prefix and each of
/// `projections`, without and with a push-down predicate over `pred`.
fn check(
    text: &[u8],
    types: &[DataType],
    dialect: TextDialect,
    projections: &[Vec<usize>],
    pred: &[usize],
) {
    let rows = verdicts(text, types, dialect);
    for cols_mapped in 1..=types.len() {
        for projection in projections {
            for pushdown in [None, Some(pred)] {
                let want = expected(&rows, cols_mapped, projection, pushdown);
                let got = kernel(text, types, dialect, cols_mapped, projection, pushdown);
                assert_eq!(
                    got,
                    want,
                    "{:?} as {types:?}, {cols_mapped} mapped, projection {projection:?}, pushdown {pushdown:?}",
                    String::from_utf8_lossy(text)
                );
            }
        }
    }
}

/// Every non-empty ascending subset of `0..n`.
fn all_projections(n: usize) -> Vec<Vec<usize>> {
    let subset = |bits: usize| (0..n).filter(|c| bits >> c & 1 == 1).collect();
    (1..1usize << n).map(subset).collect()
}

/// Integer spellings around every limit of the word-at-a-time path and of
/// `i64`: one to twenty digits, signs, leading zeros, whitespace, garbage.
fn integer_edges() -> Vec<Vec<u8>> {
    let mut edges: Vec<Vec<u8>> = Vec::new();
    for digits in 1..=20 {
        for sign in ["", "+", "-"] {
            edges.push(format!("{sign}{}", &"12345678901234567890"[..digits]).into());
            edges.push(format!("{sign}{}", "9".repeat(digits)).into());
            edges.push(format!("{sign}{}7", "0".repeat(digits - 1)).into());
        }
    }
    for text in [
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "+9223372036854775807",
        "00000000000000000000009223372036854775807",
        "",
        "-",
        "+",
        "+-1",
        "--1",
        "1-",
        "1+1",
        " 5",
        "5 ",
        " -5\t",
        "1 2",
        "- 5",
        "12x",
        "x12",
        "1.0",
        "1e3",
        "１２",
        "\u{a0}7",
        "/0",
        ":0",
        "12345678:",
        "1234567/90123456",
    ] {
        edges.push(text.into());
    }
    edges.push(b"1\x002".to_vec());
    edges.push(b"\x00".to_vec());
    edges.push(b"12\xff".to_vec());
    edges.push(b"\xc3".to_vec());
    edges.push(b"\xb0123".to_vec());
    edges
}

/// Every edge at every offset 0..=17 from the chunk start (so at every
/// phase of a word, and on both sides of the sixteen bytes the fast path
/// wants before a field's end), in the middle and at the end of its line,
/// under every terminator, with the chunk's last bytes in and out of the
/// byte-wise tail.
#[test]
fn every_integer_edge_at_every_alignment() {
    use DataType::{Int64, Utf8};
    for edge in integer_edges() {
        for offset in 0..=17usize {
            for ending in ["\n", "\r\n", ""] {
                for tail_digits in [0usize, 9] {
                    let tail = &"123456789"[..tail_digits];
                    // The edge first or behind a pad column, then a tail
                    // column, then the edge once more as the last field of a
                    // second line.
                    let (mut text, types) = match offset {
                        0 => (Vec::new(), vec![Int64, Int64]),
                        _ => (
                            format!("{},", "p".repeat(offset - 1)).into_bytes(),
                            vec![Utf8, Int64, Int64],
                        ),
                    };
                    let second_pad = if offset == 0 { "" } else { "q," };
                    text.extend_from_slice(&edge);
                    text.extend_from_slice(format!(",{tail}{ending}").as_bytes());
                    if !ending.is_empty() {
                        text.extend_from_slice(format!("{second_pad}{tail},").as_bytes());
                        text.extend_from_slice(&edge);
                        text.extend_from_slice(ending.as_bytes());
                    }
                    let n = types.len();
                    check(
                        &text,
                        &types,
                        TextDialect::CSV,
                        &[vec![n - 2], vec![n - 1], (0..n).collect()],
                        &[n - 2],
                    );
                }
            }
        }
    }
}

fn random_field(rng: &mut StdRng, edges: &[Vec<u8>], dt: DataType, delimiter: u8) -> Vec<u8> {
    let mut field: Vec<u8> = match (dt, rng.gen_range(0..10)) {
        (_, 0) => Vec::new(),
        (_, 1) => edges[rng.gen_range(0..edges.len())].clone(),
        (DataType::Int64, 2) => rng.gen::<i64>().to_string().into(),
        (DataType::Int64, _) => {
            let digits = rng.gen_range(1..=17);
            let number: String = (0..digits)
                .map(|_| rng.gen_range(b'0'..=b'9') as char)
                .collect();
            let sign = ["", "", "", "-", "+"][rng.gen_range(0..5usize)];
            format!("{sign}{number}").into()
        }
        (DataType::Float64, 2) => b"inf".to_vec(),
        (DataType::Float64, _) => {
            let value = rng.gen_range(-1_000_000i64..1_000_000) as f64 / 64.0;
            let pad = ["", "", " "][rng.gen_range(0..3usize)];
            format!("{pad}{value}{pad}").into()
        }
        (DataType::Utf8, 2) => b"caf\xc3\xa9 \x00 \xe2\x82\xac".to_vec(),
        (DataType::Utf8, 3) => b"broken \xe2\x82".to_vec(),
        (DataType::Utf8, _) => {
            let len = rng.gen_range(0..=24);
            (0..len).map(|_| rng.gen_range(b' '..=b'~')).collect()
        }
    };
    // NaN is not equal to itself, and a field cannot hold what ends it.
    if field.eq_ignore_ascii_case(b"nan") {
        field.clear();
    }
    field.retain(|&b| b != delimiter && b != b'\n');
    field
}

/// Random chunks — mixed types, ragged rows, empty lines, either terminator
/// or none at the end — under every prefix width, random projections
/// (columns beyond the prefix included) and a push-down predicate.
#[test]
fn random_chunks_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x5CA9_0016);
    let edges = integer_edges();
    for case in 0..300 {
        let dialect = [TextDialect::CSV, TextDialect::TSV][case % 2];
        let n = rng.gen_range(1..=6);
        let types: Vec<DataType> = (0..n)
            .map(|_| {
                [
                    DataType::Int64,
                    DataType::Int64,
                    DataType::Utf8,
                    DataType::Float64,
                ][rng.gen_range(0..4usize)]
            })
            .collect();
        let crlf = rng.gen_bool(0.3);
        let ragged = rng.gen_bool(0.3);
        let mut text = Vec::new();
        for _ in 0..rng.gen_range(0..=12) {
            let fields = match rng.gen_range(0..6) {
                0 if ragged => rng.gen_range(1..=n + 2),
                _ => n,
            };
            for c in 0..fields {
                if c > 0 {
                    text.push(dialect.delimiter);
                }
                text.extend(random_field(
                    &mut rng,
                    &edges,
                    types[c.min(n - 1)],
                    dialect.delimiter,
                ));
            }
            text.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        }
        if rng.gen_bool(0.3) {
            // No final newline — unless that would make the last line empty.
            text.truncate(text.len().saturating_sub(if crlf { 2 } else { 1 }));
            if text.last() == Some(&b'\n') {
                text.push(b'x');
            }
        }
        let all = all_projections(n);
        let projections: Vec<Vec<usize>> = (0..4)
            .map(|_| all[rng.gen_range(0..all.len())].clone())
            .collect();
        // Predicate columns in an order of their own, possibly repeated.
        let pred: Vec<usize> = (0..rng.gen_range(1..=2))
            .map(|_| rng.gen_range(0..n))
            .collect();
        check(&text, &types, dialect, &projections, &pred);
    }
}

/// The search primitive against `position`, for each of the 256 needles
/// alone and paired: buffers dense in the needle and in its near misses (one
/// bit off, the high bit included), every start, lengths through three words
/// and a tail.
#[test]
fn find_byte_matches_position_for_every_needle() {
    let mut rng = StdRng::seed_from_u64(0xF1ED);
    for needle in 0..=255u8 {
        let other: u8 = rng.gen();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31] {
            let data: Vec<u8> = (0..len)
                .map(|_| match rng.gen_range(0..8) {
                    0 => needle,
                    1 => needle ^ 0x80,
                    2 => needle ^ (1u8 << rng.gen_range(0..8u32)),
                    3 => needle.wrapping_sub(1),
                    4 => other,
                    _ => rng.gen(),
                })
                .collect();
            for from in 0..=len + 1 {
                for (a, b) in [(needle, needle), (needle, other), (other, needle)] {
                    let naive = (data.iter().enumerate().skip(from))
                        .position(|(_, &c)| c == a || c == b)
                        .map(|i| from + i);
                    assert_eq!(
                        find_byte(&data, from, a, b),
                        naive,
                        "{a} or {b} in {data:?} from {from}"
                    );
                }
            }
        }
    }
}
