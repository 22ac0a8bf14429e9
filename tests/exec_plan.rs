//! Kernel-level differential suite for [`ExecPlan`]: seeded random queries
//! over hand-built [`BinaryChunk`]s, the plan against the row-wise
//! `Expr::eval` / `Predicate::eval` / `Accumulator::update` fold.
//!
//! The chunks hold what CSV input never produces: integers at `i64::MIN` and
//! `i64::MAX`, NaN, `-0.0` and ±inf, empty and multi-byte strings. Each case
//! is checked in the two shapes the engine folds in: one partial per chunk
//! merged in ascending chunk order (parallel execution, mirrored by an
//! oracle that folds each chunk row-wise and merges the same way), and one
//! partial consuming every chunk (mirrored by one row-wise fold, which is the
//! serial executor). Results must agree bit for bit, or both sides must fail
//! with the same message.
//!
//! Group keys are integer and string columns only: `Value` hashes a float by
//! its bits but compares it with IEEE equality, so NaN and ±0.0 keys group
//! differently from run to run in either fold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scanraw_repro::engine::aggregate::{Accumulator, AggExpr, AggFunc};
use scanraw_repro::engine::predicate::CmpOp;
use scanraw_repro::engine::query::ResultRow;
use scanraw_repro::engine::{Col, ExecPlan, Expr, Partial, Predicate, Query};
use scanraw_repro::types::{BinaryChunk, ChunkId, ColumnData, DataType, Field, Schema, Value};

const CASES: usize = 4000;

/// Columns: 0 extreme ints, 1 small ints, 2 special floats, 3 plain floats,
/// 4 strings, 5 a small-cardinality int key.
fn schema() -> Schema {
    let types = [
        DataType::Int64,
        DataType::Int64,
        DataType::Float64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Int64,
    ];
    let fields = types.iter().enumerate();
    Schema::new(
        fields
            .map(|(i, t)| Field::new(format!("c{i}"), *t))
            .collect(),
    )
    .unwrap()
}

const EXTREME_INTS: [i64; 8] = [
    i64::MIN,
    i64::MIN + 1,
    -1,
    0,
    1,
    i64::MAX / 2 + 1,
    i64::MAX - 1,
    i64::MAX,
];
const SPECIAL_FLOATS: [f64; 8] = [
    f64::NAN,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -2.25,
    1e308,
];
const STRINGS: [&str; 8] = ["", "a", "ab", "é", "日本語", "a_c", "%", "ß"];

fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
    pool[rng.gen_range(0..pool.len())]
}

fn chunk(rng: &mut StdRng, id: u32, rows: usize) -> BinaryChunk {
    let ints =
        |rng: &mut StdRng, lo: i64, hi: i64| (0..rows).map(|_| rng.gen_range(lo..=hi)).collect();
    let extreme = (0..rows)
        .map(|_| match rng.gen_range(0..3) {
            0 => pick(rng, &EXTREME_INTS),
            1 => rng.gen::<i64>(),
            _ => rng.gen_range(-1000..=1000),
        })
        .collect();
    let special = (0..rows)
        .map(|_| match rng.gen_range(0..2) {
            0 => pick(rng, &SPECIAL_FLOATS),
            _ => rng.gen::<f64>() * 200.0 - 100.0,
        })
        .collect();
    let plain = (0..rows).map(|_| rng.gen::<f64>() * 16.0 - 8.0).collect();
    let strs = (0..rows).map(|_| pick(rng, &STRINGS).to_string()).collect();
    BinaryChunk {
        id: ChunkId(id),
        first_row: 0,
        rows: rows as u32,
        columns: vec![
            Some(ColumnData::Int64(extreme)),
            Some(ColumnData::Int64(ints(rng, -5, 5))),
            Some(ColumnData::Float64(special)),
            Some(ColumnData::Float64(plain)),
            Some(ColumnData::Utf8(strs)),
            Some(ColumnData::Int64(ints(rng, 0, 3))),
        ],
    }
}

fn literal(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..10) {
        0..=4 => Expr::lit(pick(rng, &[0i64, 1, -1, 2, 3, 1 << 40, i64::MAX, i64::MIN])),
        5..=8 => Expr::lit(pick(rng, &[0.5, -0.0, f64::NAN, f64::INFINITY, -3.0])),
        _ => Expr::lit(pick(rng, &STRINGS)),
    }
}

/// A random expression tree of depth at most `depth`.
fn expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        return match rng.gen_range(0..10) {
            0..=2 => literal(rng),
            // Strings are rarer, so most trees evaluate.
            3 if rng.gen_bool(0.5) => Expr::col(4),
            _ => Expr::col(pick(rng, &[0usize, 1, 1, 2, 3, 5])),
        };
    }
    let (a, b) = (
        Box::new(expr(rng, depth - 1)),
        Box::new(expr(rng, depth - 1)),
    );
    match rng.gen_range(0..3) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        _ => Expr::Mul(a, b),
    }
}

/// A random predicate tree of depth at most `depth`.
fn predicate(rng: &mut StdRng, depth: u32) -> Predicate {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        if rng.gen_range(0..5) == 0 {
            let pattern = pick(rng, &["%", "a%", "%b", "_", "", "%é%", "日%", "a_c"]);
            return Predicate::like(pick(rng, &[4usize, 4, 1]), pattern);
        }
        let op = pick(
            rng,
            &[
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ],
        );
        return Predicate::Cmp(expr(rng, 2), op, expr(rng, 1));
    }
    let sub = |rng: &mut StdRng| Box::new(predicate(rng, depth - 1));
    match rng.gen_range(0..3) {
        0 => Predicate::And(sub(rng), sub(rng)),
        1 => Predicate::Or(sub(rng), sub(rng)),
        _ => Predicate::Not(sub(rng)),
    }
}

fn query(rng: &mut StdRng) -> Query {
    let funcs = [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let aggregates = (0..rng.gen_range(1..=4))
        .map(|_| match pick(rng, &funcs) {
            AggFunc::Count if rng.gen_bool(0.5) => AggExpr::count(),
            func => AggExpr {
                func,
                expr: expr(rng, 3),
            },
        })
        .collect();
    let group_by = match rng.gen_range(0..4) {
        0 => vec![Col(5)],
        1 => vec![Col(4)],
        2 => vec![Col(5), Col(4)],
        _ => vec![],
    };
    Query {
        table: "t".into(),
        filter: rng.gen_bool(0.8).then(|| predicate(rng, 3)),
        group_by,
        aggregates,
        pushdown: false,
        projection: None,
    }
}

/// One bit-exact rendering of an outcome (every NaN alike): rows scanned
/// and result rows, or the error message.
type Outcome = Result<(u64, Vec<String>), String>;

fn render(rows: u64, result: Vec<ResultRow>) -> (u64, Vec<String>) {
    let value = |v: &Value| match v {
        Value::Int(x) => format!("i{x}"),
        // Rust leaves the sign and payload of a computed NaN unspecified.
        Value::Float(x) if x.is_nan() => "NaN".to_string(),
        Value::Float(x) => format!("f{:016x}", x.to_bits()),
        Value::Str(s) => format!("s{s:?}"),
    };
    let row = |r: &ResultRow| {
        let keys: Vec<String> = r.keys.iter().map(value).collect();
        let aggs: Vec<String> = r.aggregates.iter().map(value).collect();
        format!("{keys:?} -> {aggs:?}")
    };
    (rows, result.iter().map(row).collect())
}

/// The row-wise fold: filter, group key, then each aggregate's expression
/// and accumulator, row by row — the serial executor's order of evaluation.
struct RowWise<'q> {
    query: &'q Query,
    rows: u64,
    groups: Vec<(Vec<Value>, Vec<Accumulator>)>,
}

impl<'q> RowWise<'q> {
    fn new(query: &'q Query) -> Self {
        let mut fold = RowWise {
            query,
            rows: 0,
            groups: Vec::new(),
        };
        if query.group_by.is_empty() {
            fold.group(Vec::new());
        }
        fold
    }

    fn group(&mut self, key: Vec<Value>) -> usize {
        if let Some(g) = self.groups.iter().position(|(k, _)| *k == key) {
            return g;
        }
        let fresh = self
            .query
            .aggregates
            .iter()
            .map(|a| Accumulator::new(a.func));
        self.groups.push((key, fresh.collect()));
        self.groups.len() - 1
    }

    fn consume(&mut self, chunk: &BinaryChunk) -> Result<(), String> {
        let q = self.query;
        for row in 0..chunk.rows as usize {
            if let Some(p) = &q.filter {
                if !p.eval(chunk, row).map_err(|e| e.to_string())? {
                    continue;
                }
            }
            self.rows += 1;
            let key = q
                .group_by
                .iter()
                .map(|c| chunk.column(c.index()).unwrap().value(row));
            let g = self.group(key.map(Option::unwrap).collect());
            for (acc, a) in self.groups[g].1.iter_mut().zip(&q.aggregates) {
                let v = a.expr.eval(chunk, row).map_err(|e| e.to_string())?;
                acc.update(v).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: RowWise<'_>) {
        self.rows += other.rows;
        for (key, accs) in other.groups {
            let g = self.group(key);
            for (a, b) in self.groups[g].1.iter_mut().zip(accs) {
                a.merge(b).unwrap();
            }
        }
    }

    fn finish(mut self) -> Outcome {
        self.groups.sort_by(|a, b| a.0.cmp(&b.0));
        let rows = self.groups.into_iter().map(|(keys, accs)| {
            let aggregates: Result<Vec<Value>, _> =
                accs.into_iter().map(Accumulator::finish).collect();
            Ok(ResultRow {
                keys,
                aggregates: aggregates.map_err(|e| e.to_string())?,
            })
        });
        Ok(render(self.rows, rows.collect::<Result<_, String>>()?))
    }
}

/// Per-chunk row-wise folds merged in ascending chunk order.
fn oracle_merged(q: &Query, chunks: &[BinaryChunk]) -> Outcome {
    let mut total = RowWise::new(q);
    for c in chunks {
        let mut part = RowWise::new(q);
        part.consume(c)?;
        total.merge(part);
    }
    total.finish()
}

/// One row-wise fold over every chunk.
fn oracle_serial(q: &Query, chunks: &[BinaryChunk]) -> Outcome {
    let mut fold = RowWise::new(q);
    chunks.iter().try_for_each(|c| fold.consume(c))?;
    fold.finish()
}

fn finish(part: Partial) -> Outcome {
    let rows = part.rows_seen();
    Ok(render(rows, part.finish().map_err(|e| e.to_string())?))
}

/// The plan as the executor runs it: one partial per chunk, merged in order.
fn plan_merged(plan: &ExecPlan, chunks: &[BinaryChunk]) -> Outcome {
    let mut total = plan.partial();
    for c in chunks {
        let mut part = plan.partial();
        plan.consume(&mut part, c).map_err(|e| e.to_string())?;
        total.merge(part).map_err(|e| e.to_string())?;
    }
    finish(total)
}

/// The plan folding every chunk into one partial.
fn plan_serial(plan: &ExecPlan, chunks: &[BinaryChunk]) -> Outcome {
    let mut part = plan.partial();
    for c in chunks {
        plan.consume(&mut part, c).map_err(|e| e.to_string())?;
    }
    finish(part)
}

fn assert_agree(q: &Query, chunks: &[BinaryChunk]) -> Outcome {
    let plan = ExecPlan::compile(q, &schema());
    let merged = oracle_merged(q, chunks);
    assert_eq!(
        plan_merged(&plan, chunks),
        merged,
        "merged partials diverged on {q:?}"
    );
    let serial = oracle_serial(q, chunks);
    assert_eq!(
        plan_serial(&plan, chunks),
        serial,
        "one partial diverged on {q:?}"
    );
    merged
}

#[test]
fn plan_matches_row_wise_fold_on_seeded_queries() {
    let mut rng = StdRng::seed_from_u64(0x0E7E_C91A);
    // Per chunk: the filter kept every row, none, or some; then whole cases
    // that succeeded and that failed.
    let (mut all, mut none, mut some, mut ok, mut failed) = (0, 0, 0, 0, 0);
    for _ in 0..CASES {
        let chunks: Vec<BinaryChunk> = (0..rng.gen_range(1..=4))
            .map(|id| {
                let rows = rng.gen_range(0..=24);
                chunk(&mut rng, id, rows)
            })
            .collect();
        let q = query(&mut rng);
        match assert_agree(&q, &chunks) {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
        for c in chunks.iter().filter(|c| c.rows > 0) {
            let Some(p) = &q.filter else { continue };
            let kept: Result<Vec<bool>, _> = (0..c.rows as usize).map(|r| p.eval(c, r)).collect();
            match kept.map(|k| k.iter().filter(|&&x| x).count()) {
                Ok(0) => none += 1,
                Ok(n) if n == c.rows as usize => all += 1,
                Ok(_) => some += 1,
                Err(_) => {}
            }
        }
    }
    assert!(
        all > 200 && none > 200 && some > 200,
        "filters: {all} all, {none} none, {some} some"
    );
    assert!(
        ok > CASES / 4 && failed > CASES / 20,
        "{ok} cases ran, {failed} failed"
    );
}

fn float_chunk(id: u32, values: &[f64]) -> BinaryChunk {
    let n = values.len();
    BinaryChunk {
        id: ChunkId(id),
        first_row: 0,
        rows: n as u32,
        columns: vec![
            Some(ColumnData::Int64(vec![0; n])),
            Some(ColumnData::Int64(vec![1; n])),
            Some(ColumnData::Float64(values.to_vec())),
            Some(ColumnData::Float64(vec![0.0; n])),
            Some(ColumnData::Utf8(vec![String::new(); n])),
            Some(ColumnData::Int64(vec![0; n])),
        ],
    }
}

fn min_max_query() -> Query {
    Query {
        table: "t".into(),
        filter: None,
        group_by: vec![],
        aggregates: vec![AggExpr::min(Expr::col(2)), AggExpr::max(Expr::col(2))],
        pushdown: false,
        projection: None,
    }
}

#[test]
fn min_max_keep_a_leading_nan_and_skip_a_later_one() {
    let nan = "NaN";
    // A leading NaN is never replaced: MIN and MAX are both NaN, where
    // `f64::min`/`f64::max` would answer -3 and 7.
    let chunks = [float_chunk(0, &[f64::NAN, 7.0, -3.0])];
    let out = assert_agree(&min_max_query(), &chunks).unwrap();
    assert_eq!(out.1, vec![format!("[] -> [{nan:?}, {nan:?}]")]);
    // A NaN after the first value never replaces it.
    let chunks = [float_chunk(0, &[2.0, f64::NAN, -3.0, 7.0, f64::NAN])];
    let out = assert_agree(&min_max_query(), &chunks).unwrap();
    let (lo, hi) = ((-3.0f64).to_bits(), 7.0f64.to_bits());
    assert_eq!(
        out.1,
        vec![format!("[] -> [\"f{lo:016x}\", \"f{hi:016x}\"]")]
    );
    // A chunk led by a NaN, after a chunk that set a running value.
    let chunks = [
        float_chunk(0, &[4.0]),
        float_chunk(1, &[f64::NAN, 1.0, 9.0]),
    ];
    assert_agree(&min_max_query(), &chunks).unwrap();
    // -0.0 and 0.0 are equal, so the first one seen stays.
    let chunks = [float_chunk(0, &[-0.0, 0.0]), float_chunk(1, &[0.0, -0.0])];
    assert_agree(&min_max_query(), &chunks).unwrap();
}

#[test]
fn sum_overflow_inside_a_block_promotes_where_the_row_wise_fold_does() {
    let ints = |id: u32, values: Vec<i64>| {
        let mut c = float_chunk(id, &vec![0.0; values.len()]);
        c.columns[0] = Some(ColumnData::Int64(values));
        c
    };
    let q = |filter: Option<Predicate>| Query {
        table: "t".into(),
        filter,
        group_by: vec![],
        aggregates: vec![AggExpr::sum(Expr::col(0)), AggExpr::avg(Expr::col(0))],
        pushdown: false,
        projection: None,
    };
    // The running sum leaves i64 in the middle of the second chunk and comes
    // back in range after it: the row-wise fold has promoted to float by
    // then, and so must the plan.
    let mut second: Vec<i64> = vec![1; 600];
    second[300] = i64::MAX - 200;
    second.extend([i64::MIN, i64::MIN, 5]);
    let chunks = [ints(0, vec![7; 1000]), ints(1, second)];
    for filter in [
        None,
        Some(Predicate::Cmp(Expr::col(0), CmpOp::Ne, Expr::lit(5i64))),
    ] {
        let out = assert_agree(&q(filter), &chunks).unwrap();
        assert!(out.1[0].contains("\"f"), "SUM did not promote: {:?}", out.1);
    }
}
