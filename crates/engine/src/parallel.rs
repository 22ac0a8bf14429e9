//! Chunk-parallel consumer execution: each query is compiled once into an
//! [`ExecPlan`] and run per chunk as typed kernels over column slices, into
//! a [`Partial`] the executor merges in ascending chunk order.
//!
//! **Plan time** (once per `Engine::run`, against the table schema)
//! resolves each expression node's class and operator ([`Op`]), each
//! comparison's kernel (across classes, `Value`'s tag order decides every
//! row alike) and each aggregate argument's class, which picks the typed
//! fold: SUM over `i64`/`f64`, COUNT, AVG, MIN/MAX over `i64`/`f64`/`str`.
//!
//! **Per chunk** the selection stays dense ([`Sel::All`]) while every row
//! passes and is a sorted row list otherwise; kernels read column slices
//! directly, through the row list if there is one, and arithmetic writes
//! into scratch buffers reused across a chunk's nodes. Integer SUM sums in
//! one pass that also bounds every value; when the running sum could leave
//! `i64`, the block is replayed through `Accumulator::update`, which
//! promotes to float mid-stream. GROUP BY runs each group's rows through
//! the same kernels.
//!
//! **Semantics** are the row-wise fold's, down to `Value`'s `Ord` for
//! comparisons and its `PartialEq` for `Eq`/`Ne` (`NaN != NaN`), and `And`/
//! `Or` evaluating their right side only where the left did not decide. A
//! failing chunk takes its error message from the row-wise fold over it.

use crate::aggregate::{Accumulator, AggExpr, AggFunc};
use crate::executor::GroupedAggregator;
use crate::expr::Expr;
use crate::predicate::{like_match, CmpOp, Predicate};
use crate::query::{Query, ResultRow};
use scanraw_types::{BinaryChunk, ColumnData, DataType, Error, Result, Schema, Value};
use std::cmp::Ordering::{Greater, Less};
use std::collections::HashMap;

/// Row selection inside one chunk: all `n` rows, or a sorted subset.
#[derive(Debug, Clone, PartialEq)]
enum Sel {
    All(usize),
    Rows(Vec<u32>),
}

impl Sel {
    fn len(&self) -> usize {
        match self {
            Sel::All(n) => *n,
            Sel::Rows(r) => r.len(),
        }
    }

    fn rows(&self) -> Vec<u32> {
        match self {
            Sel::All(n) => (0..*n as u32).collect(),
            Sel::Rows(r) => r.clone(),
        }
    }

    /// The rows of `self` not in `sub`, a subset of `self`.
    fn minus(&self, sub: &Sel) -> Sel {
        match sub {
            Sel::All(_) => Sel::Rows(Vec::new()),
            Sel::Rows(s) if s.is_empty() => self.clone(),
            Sel::Rows(s) => {
                let mut rows = self.rows();
                rows.retain(|r| s.binary_search(r).is_err());
                Sel::Rows(rows)
            }
        }
    }
}

/// The part of `sel` that `hits` (one flag per selected row) keeps: `sel`
/// itself, allocating nothing, while every row passes.
fn keep(sel: &Sel, mut hits: impl Iterator<Item = bool>) -> Sel {
    let Some(miss) = hits.by_ref().position(|hit| !hit) else {
        return sel.clone();
    };
    let mut rows = sel.rows();
    let mut flags = (0..miss).map(|_| true).chain([false]).chain(hits);
    rows.retain(|_| flags.next() == Some(true));
    Sel::Rows(rows)
}

/// Type class of an expression, ordered like `Value`'s tags across types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Int,
    Float,
    Str,
}

/// An arithmetic operator, resolved at plan time.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
}

impl Op {
    fn symbol(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
        }
    }

    /// Checked integer kernel; true when any element overflowed.
    fn ints<'x>(self, ab: impl Iterator<Item = (&'x i64, &'x i64)>, out: &mut Vec<i64>) -> bool {
        let mut overflow = false;
        let mut check = |(r, o): (i64, bool)| {
            overflow |= o;
            r
        };
        match self {
            Op::Add => out.extend(ab.map(|(x, y)| check(x.overflowing_add(*y)))),
            Op::Sub => out.extend(ab.map(|(x, y)| check(x.overflowing_sub(*y)))),
            Op::Mul => out.extend(ab.map(|(x, y)| check(x.overflowing_mul(*y)))),
        }
        overflow
    }

    fn floats(self, ab: impl Iterator<Item = (f64, f64)>, out: &mut Vec<f64>) {
        match self {
            Op::Add => out.extend(ab.map(|(x, y)| x + y)),
            Op::Sub => out.extend(ab.map(|(x, y)| x - y)),
            Op::Mul => out.extend(ab.map(|(x, y)| x * y)),
        }
    }
}

/// A compiled scalar expression.
#[derive(Debug)]
enum Node {
    Col(usize, Class),
    Int(i64),
    Float(f64),
    Str(String),
    /// Checked integer arithmetic over two integer operands.
    IntOp(Op, Box<Node>, Box<Node>),
    /// Float arithmetic; integer operands are promoted.
    FloatOp(Op, Box<Node>, Box<Node>),
    /// Fails wherever it is evaluated: a string operand to arithmetic, or
    /// a column the schema lacks.
    Fail,
}

impl Node {
    fn compile(e: &Expr, schema: &Schema) -> Node {
        let arith = |op: Op, a: &Expr, b: &Expr| {
            let (a, b) = (Node::compile(a, schema), Node::compile(b, schema));
            match (a.class(), b.class()) {
                (Class::Int, Class::Int) => Node::IntOp(op, Box::new(a), Box::new(b)),
                (Class::Str, _) | (_, Class::Str) => Node::Fail,
                _ => Node::FloatOp(op, Box::new(a), Box::new(b)),
            }
        };
        match e {
            Expr::Column(c) => match schema.field(c.index()).map(|f| f.data_type) {
                Some(DataType::Int64) => Node::Col(c.index(), Class::Int),
                Some(DataType::Float64) => Node::Col(c.index(), Class::Float),
                Some(DataType::Utf8) => Node::Col(c.index(), Class::Str),
                None => Node::Fail,
            },
            Expr::Literal(Value::Int(x)) => Node::Int(*x),
            Expr::Literal(Value::Float(x)) => Node::Float(*x),
            Expr::Literal(Value::Str(s)) => Node::Str(s.clone()),
            Expr::Add(a, b) => arith(Op::Add, a, b),
            Expr::Sub(a, b) => arith(Op::Sub, a, b),
            Expr::Mul(a, b) => arith(Op::Mul, a, b),
        }
    }

    /// The class of the values the node yields (a failing node yields none).
    fn class(&self) -> Class {
        match self {
            Node::Col(_, class) => *class,
            Node::Int(_) | Node::IntOp(..) | Node::Fail => Class::Int,
            Node::Float(_) | Node::FloatOp(..) => Class::Float,
            Node::Str(_) => Class::Str,
        }
    }
}

/// A compiled predicate. A comparison's kernel is `Ok(op)` when both sides
/// share a class, and otherwise `Err(verdict)` for every row. `OR` compiles
/// to `NOT (NOT a AND NOT b)`, which evaluates `b` only where `a` fails.
#[derive(Debug)]
enum Filter {
    Cmp(Node, std::result::Result<CmpOp, bool>, Node),
    Like(Node, String),
    And(Box<Filter>, Box<Filter>),
    Not(Box<Filter>),
}

impl Filter {
    fn compile(p: &Predicate, schema: &Schema) -> Filter {
        let sub = |p: &Predicate| Box::new(Filter::compile(p, schema));
        match p {
            Predicate::Cmp(a, op, b) => {
                let (a, b) = (Node::compile(a, schema), Node::compile(b, schema));
                let (x, y) = (a.class(), b.class());
                let kernel = match op {
                    _ if x == y => Ok(*op),
                    CmpOp::Eq => Err(false),
                    CmpOp::Ne => Err(true),
                    CmpOp::Lt => Err(x < y),
                    CmpOp::Le => Err(x <= y),
                    CmpOp::Gt => Err(x > y),
                    CmpOp::Ge => Err(x >= y),
                };
                Filter::Cmp(a, kernel, b)
            }
            Predicate::Like(c, pattern) => {
                Filter::Like(Node::compile(&Expr::Column(*c), schema), pattern.clone())
            }
            Predicate::And(a, b) => Filter::And(sub(a), sub(b)),
            Predicate::Or(a, b) => {
                let neither =
                    Filter::And(Box::new(Filter::Not(sub(a))), Box::new(Filter::Not(sub(b))));
                Filter::Not(Box::new(neither))
            }
            Predicate::Not(p) => Filter::Not(sub(p)),
        }
    }
}

/// An evaluated operand of one class: the chunk's column (indexed by row),
/// a scratch buffer (one value per selected row) or a literal.
enum Out<'a, T> {
    Col(&'a [T]),
    Buf(Vec<T>),
    Lit(&'a T),
}

enum Vals<'a> {
    Int(Out<'a, i64>),
    Float(Out<'a, f64>),
    Str(Out<'a, String>),
}

/// Binds `$it` to an iterator over the `&T`s an [`Out`] holds for the rows
/// of a selection, once per kind of operand, so every loop is monomorphic.
macro_rules! each {
    ($out:expr, $sel:expr, $it:ident => $body:expr) => {
        match ($out, $sel) {
            (Out::Col(c), Sel::All(n)) => each!(@ c[..*n].iter(), $it => $body),
            (Out::Col(c), Sel::Rows(r)) => {
                each!(@ r.iter().map(|&i| &c[i as usize]), $it => $body)
            }
            (Out::Buf(b), _) => each!(@ b.iter(), $it => $body),
            (Out::Lit(x), sel) => each!(@ std::iter::repeat(*x).take(sel.len()), $it => $body),
        }
    };
    (@ $iter:expr, $it:ident => $body:expr) => {{
        let $it = $iter;
        $body
    }};
}

/// [`each!`] over a numeric operand as `f64`s; a string fails the caller.
macro_rules! each_f64 {
    ($vals:expr, $sel:expr, $it:ident => $body:expr) => {
        match $vals {
            Vals::Int(o) => each!(o, $sel, it => each!(@ it.map(|&x| x as f64), $it => $body)),
            Vals::Float(o) => each!(o, $sel, it => each!(@ it.copied(), $it => $body)),
            Vals::Str(_) => return Err(Error::query("non-numeric operand")),
        }
    };
}

/// One chunk under evaluation, with the scratch buffers its nodes reuse.
struct Cx<'a> {
    chunk: &'a BinaryChunk,
    ints: Vec<Vec<i64>>,
    floats: Vec<Vec<f64>>,
}

impl Cx<'_> {
    fn give(&mut self, v: Vals<'_>) {
        match v {
            Vals::Int(Out::Buf(b)) => self.ints.push(b),
            Vals::Float(Out::Buf(b)) => self.floats.push(b),
            _ => {}
        }
    }
}

/// The column `c` of `chunk`, checked against the class the plan expects.
fn column(chunk: &BinaryChunk, c: usize, class: Class) -> Result<Vals<'_>> {
    let rows = chunk.rows as usize;
    let absent = || Error::query(format!("column {c} absent from chunk"));
    match (chunk.column(c).ok_or_else(absent)?, class) {
        (ColumnData::Int64(v), Class::Int) if v.len() >= rows => Ok(Vals::Int(Out::Col(v))),
        (ColumnData::Float64(v), Class::Float) if v.len() >= rows => Ok(Vals::Float(Out::Col(v))),
        (ColumnData::Utf8(v), Class::Str) if v.len() >= rows => Ok(Vals::Str(Out::Col(v))),
        _ => Err(Error::query(format!("column {c} does not match the plan"))),
    }
}

/// Evaluates `node` over the rows `sel` selects (never an empty selection).
fn eval<'a>(node: &'a Node, cx: &mut Cx<'a>, sel: &Sel) -> Result<Vals<'a>> {
    Ok(match node {
        Node::Col(c, class) => column(cx.chunk, *c, *class)?,
        Node::Int(x) => Vals::Int(Out::Lit(x)),
        Node::Float(x) => Vals::Float(Out::Lit(x)),
        Node::Str(s) => Vals::Str(Out::Lit(s)),
        Node::IntOp(op, a, b) => {
            let (a, b) = (eval(a, cx, sel)?, eval(b, cx, sel)?);
            let mut out = cx.ints.pop().unwrap_or_default();
            out.clear();
            let (Vals::Int(x), Vals::Int(y)) = (&a, &b) else {
                return Err(Error::query("integer operands changed class"));
            };
            let overflow = each!(x, sel, i => each!(y, sel, j => op.ints(i.zip(j), &mut out)));
            cx.give(a);
            cx.give(b);
            if overflow {
                return Err(Error::query(format!("integer overflow in {}", op.symbol())));
            }
            Vals::Int(Out::Buf(out))
        }
        Node::FloatOp(op, a, b) => {
            let (a, b) = (eval(a, cx, sel)?, eval(b, cx, sel)?);
            let mut out = cx.floats.pop().unwrap_or_default();
            out.clear();
            each_f64!(&a, sel, x => each_f64!(&b, sel, y => op.floats(x.zip(y), &mut out)));
            cx.give(a);
            cx.give(b);
            Vals::Float(Out::Buf(out))
        }
        Node::Fail => return Err(Error::query("expression cannot be evaluated")),
    })
}

/// The rows of `sel` where `x op y` holds under `Value`'s order, whose
/// `partial_cmp(..).unwrap_or(Equal)` makes `Le`/`Ge` hold for a NaN;
/// `Eq`/`Ne` follow IEEE equality.
fn select<'x, T: PartialOrd + 'x>(
    op: CmpOp,
    sel: &Sel,
    ab: impl Iterator<Item = (&'x T, &'x T)>,
) -> Sel {
    match op {
        CmpOp::Eq => keep(sel, ab.map(|(x, y)| x == y)),
        CmpOp::Ne => keep(sel, ab.map(|(x, y)| x != y)),
        CmpOp::Lt => keep(sel, ab.map(|(x, y)| x < y)),
        CmpOp::Gt => keep(sel, ab.map(|(x, y)| x > y)),
        CmpOp::Le => keep(sel, ab.map(|(x, y)| x.partial_cmp(y) != Some(Greater))),
        CmpOp::Ge => keep(sel, ab.map(|(x, y)| x.partial_cmp(y) != Some(Less))),
    }
}

/// Narrows `sel` to the rows satisfying `f`. `And` evaluates its right side
/// only over the left side's survivors, and nothing is evaluated over an
/// empty selection, as in the row-wise evaluator.
fn filter<'a>(f: &'a Filter, cx: &mut Cx<'a>, sel: Sel) -> Result<Sel> {
    if sel.len() == 0 {
        return Ok(sel);
    }
    match f {
        Filter::Cmp(a, kernel, b) => {
            let (va, vb) = (eval(a, cx, &sel)?, eval(b, cx, &sel)?);
            let out = match (kernel, &va, &vb) {
                (Err(true), ..) => sel.clone(),
                (Err(false), ..) => Sel::Rows(Vec::new()),
                (Ok(op), Vals::Int(x), Vals::Int(y)) => {
                    each!(x, &sel, i => each!(y, &sel, j => select(*op, &sel, i.zip(j))))
                }
                (Ok(op), Vals::Float(x), Vals::Float(y)) => {
                    each!(x, &sel, i => each!(y, &sel, j => select(*op, &sel, i.zip(j))))
                }
                (Ok(op), Vals::Str(x), Vals::Str(y)) => {
                    each!(x, &sel, i => each!(y, &sel, j => select(*op, &sel, i.zip(j))))
                }
                _ => return Err(Error::query("comparison operands changed class")),
            };
            cx.give(va);
            cx.give(vb);
            Ok(out)
        }
        Filter::Like(col, pattern) => Ok(match eval(col, cx, &sel)? {
            Vals::Str(o) => {
                let like = |s: &String| like_match(pattern.as_bytes(), s.as_bytes());
                each!(&o, &sel, it => keep(&sel, it.map(like)))
            }
            // LIKE over a non-string column is false for every row.
            _ => Sel::Rows(Vec::new()),
        }),
        Filter::And(a, b) => {
            let left = filter(a, cx, sel)?;
            filter(b, cx, left)
        }
        Filter::Not(p) => {
            let kept = filter(p, cx, sel.clone())?;
            Ok(sel.minus(&kept))
        }
    }
}

/// A query compiled once per run against its table's schema and shared by
/// every chunk task.
#[derive(Debug)]
pub struct ExecPlan {
    filter: Option<Filter>,
    aggs: Vec<(AggFunc, Node)>,
    /// The query itself: its group columns, and the row-wise fold a failing
    /// chunk is replayed through for its error.
    query: Query,
}

impl ExecPlan {
    /// Compiles `query` against its table's schema. An expression the
    /// row-wise evaluator rejects compiles to a node failing where evaluated.
    pub fn compile(query: &Query, schema: &Schema) -> ExecPlan {
        let agg = |a: &AggExpr| (a.func, Node::compile(&a.expr, schema));
        ExecPlan {
            filter: query.filter.as_ref().map(|p| Filter::compile(p, schema)),
            aggs: query.aggregates.iter().map(agg).collect(),
            query: query.clone(),
        }
    }

    /// An empty partial result of this plan.
    pub fn partial(&self) -> Partial {
        let fresh: Vec<Accumulator> = self.aggs.iter().map(|a| Accumulator::new(a.0)).collect();
        let keyed = !self.query.group_by.is_empty();
        Partial {
            rows_seen: 0,
            groups: Vec::from_iter((!keyed).then(|| (Vec::new(), fresh.clone()))),
            // effect-ok: keyed lookup only; `merge` and `finish` walk `groups` in order
            index: keyed.then(HashMap::new),
            fresh,
        }
    }

    /// Folds one chunk into `part`.
    ///
    /// # Errors
    ///
    /// Fails as the row-wise fold over the same chunk fails, with its
    /// message; also when a column of the chunk is missing, short, or of
    /// another type than the plan's schema. `part` is then to be discarded.
    pub fn consume(&self, part: &mut Partial, chunk: &BinaryChunk) -> Result<()> {
        let mut cx = Cx {
            chunk,
            ints: Vec::new(),
            floats: Vec::new(),
        };
        self.fold(part, &mut cx).map_err(|e| {
            let q = &self.query;
            let mut rowwise = GroupedAggregator::new(&q.group_by, &q.aggregates);
            rowwise.consume(chunk, q.filter.as_ref()).err().unwrap_or(e)
        })
    }

    // lint-zone: deterministic
    fn fold<'a>(&'a self, part: &mut Partial, cx: &mut Cx<'a>) -> Result<()> {
        let mut sel = Sel::All(cx.chunk.rows as usize);
        if let Some(f) = &self.filter {
            sel = filter(f, cx, sel)?;
        }
        part.rows_seen += sel.len() as u64;
        if part.index.is_none() {
            return self.update(&mut part.groups[0].1, cx, sel);
        }
        // The keyed fold: each selected row joins its group's row list (a
        // new key opens a group), then each group runs the kernels.
        let mut members: Vec<Vec<u32>> = Vec::new();
        for row in sel.rows() {
            let cols = self
                .query
                .group_by
                .iter()
                .map(|c| cx.chunk.column(c.index()));
            let key: Option<Vec<Value>> = cols.map(|col| col?.value(row as usize)).collect();
            let g = part.slot(key.ok_or_else(|| Error::query("group column absent"))?);
            members.resize_with(members.len().max(g + 1), Vec::new);
            members[g].push(row);
        }
        for (g, rows) in members.into_iter().enumerate() {
            self.update(&mut part.groups[g].1, cx, Sel::Rows(rows))?;
        }
        Ok(())
    }

    /// Runs every aggregate's kernel over `sel` into one accumulator row.
    fn update<'a>(&'a self, accs: &mut [Accumulator], cx: &mut Cx<'a>, sel: Sel) -> Result<()> {
        if sel.len() == 0 {
            return Ok(());
        }
        for (acc, (_, node)) in accs.iter_mut().zip(&self.aggs) {
            let vals = eval(node, cx, &sel)?;
            update(acc, &vals, &sel)?;
            cx.give(vals);
        }
        Ok(())
    }
}

/// Fold state of one [`ExecPlan`] over some chunks; partials of the same
/// plan merge in ascending chunk order into the query's answer.
#[derive(Debug)]
pub struct Partial {
    rows_seen: u64,
    /// Accumulator rows by group key in first-seen order (one without GROUP BY).
    groups: Vec<(Vec<Value>, Vec<Accumulator>)>,
    /// Group key → index into `groups`; `None` without GROUP BY.
    index: Option<HashMap<Vec<Value>, usize>>,
    /// The accumulator row a new group starts from.
    fresh: Vec<Accumulator>,
}

impl Partial {
    /// Rows that passed the filter.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// The index of `key`'s accumulator row; a new key opens a fresh one.
    fn slot(&mut self, key: Vec<Value>) -> usize {
        let Some(index) = &mut self.index else {
            return 0;
        };
        *index.entry(key).or_insert_with_key(|key| {
            self.groups.push((key.clone(), self.fresh.clone()));
            self.groups.len() - 1
        })
    }

    /// Folds `other` into `self`. The executor merges in ascending chunk
    /// order, so float accumulation order — the only order-sensitive part —
    /// is identical on every run.
    ///
    /// # Errors
    ///
    /// Fails when the partials come from plans with different aggregates.
    // lint-zone: deterministic
    pub fn merge(&mut self, other: Partial) -> Result<()> {
        self.rows_seen += other.rows_seen;
        for (key, accs) in other.groups {
            let g = self.slot(key);
            for (a, b) in self.groups[g].1.iter_mut().zip(accs) {
                a.merge(b)?;
            }
        }
        Ok(())
    }

    /// Finishes into result rows sorted by key — the shape and order of the
    /// serial fold's `GroupedAggregator::finish`.
    // lint-zone: deterministic
    pub fn finish(mut self) -> Result<Vec<ResultRow>> {
        self.groups.sort_by(|a, b| a.0.cmp(&b.0));
        let rows = self.groups.into_iter().map(|(keys, accs)| {
            let aggregates: Result<Vec<Value>> =
                accs.into_iter().map(Accumulator::finish).collect();
            let aggregates = aggregates?;
            Ok(ResultRow { keys, aggregates })
        });
        rows.collect()
    }
}

/// Folds one aggregate's argument over the selection into `acc`, with the
/// per-value semantics of [`Accumulator::update`].
fn update(acc: &mut Accumulator, vals: &Vals<'_>, sel: &Sel) -> Result<()> {
    let (n, max) = (sel.len() as u64, matches!(acc, Accumulator::Max(_)));
    match (&mut *acc, vals) {
        (Accumulator::Count(c), _) => *c += n,
        (Accumulator::SumInt(_), Vals::Int(o)) => each!(o, sel, it => sum_ints(acc, it))?,
        (Accumulator::SumInt(a), v) => {
            let start = *a as f64;
            *acc = Accumulator::SumFloat(each_f64!(v, sel, it => it.fold(start, |s, x| s + x)));
        }
        (Accumulator::SumFloat(s), v) => *s = each_f64!(v, sel, it => it.fold(*s, |s, x| s + x)),
        (Accumulator::Avg { sum, n: count }, v) => {
            *sum = each_f64!(v, sel, it => it.fold(*sum, |s, x| s + x));
            *count += n;
        }
        (Accumulator::Min(cur) | Accumulator::Max(cur), v) => match v {
            Vals::Int(o) => each!(o, sel, it => extreme(cur, it, max)),
            Vals::Float(o) => each!(o, sel, it => extreme(cur, it, max)),
            Vals::Str(o) => each!(o, sel, it => extreme(cur, it, max)),
        },
    }
    Ok(())
}

/// Integer SUM: one pass computes the wrapping sum and the OR of every
/// value's high word folded to non-negative, which bounds each `|x|` by
/// `2^(32 + bits)`. When the running sum plus that many such values cannot
/// leave `i64`, the wrapping sum is exact; otherwise the values are replayed
/// through `Accumulator::update`.
fn sum_ints<'x>(acc: &mut Accumulator, it: impl Iterator<Item = &'x i64> + Clone) -> Result<()> {
    let (sum, high, len) = it.clone().fold((0i64, 0u32, 0u128), |(s, h, n), &x| {
        let hi = (x >> 32) as i32;
        (s.wrapping_add(x), h | (hi ^ (hi >> 31)) as u32, n + 1)
    });
    let room = (i64::MAX as u128).checked_sub(len << (64 - high.leading_zeros()));
    match acc {
        Accumulator::SumInt(a) if room.is_some_and(|r| a.unsigned_abs() as u128 <= r) => {
            *a += sum;
            Ok(())
        }
        _ => it.into_iter().try_for_each(|&x| acc.update(Value::Int(x))),
    }
}

/// MIN (`max == false`) or MAX as the sequential fold leaves it: a value
/// replaces the running one only when strictly better under `Value`'s
/// order, so a NaN never replaces one and a leading NaN is never replaced
/// (and is skipped when there is a running value).
fn extreme<'x, T>(cur: &mut Option<Value>, it: impl Iterator<Item = &'x T>, max: bool)
where
    T: PartialOrd + Clone + Into<Value> + 'x,
{
    fn wins<U: PartialOrd>(max: bool, v: &U, c: &U) -> bool {
        (max && v > c) || (!max && v < c)
    }
    let mut best: Option<&T> = None;
    for v in it.skip_while(|v| cur.is_some() && v.partial_cmp(v).is_none()) {
        if best.is_none_or(|c| wins(max, v, c)) {
            best = Some(v);
        }
    }
    let Some(v): Option<Value> = best.map(|v| v.clone().into()) else {
        return;
    };
    if cur.as_ref().is_none_or(|c| wins(max, &v, c)) {
        *cur = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::expr::{Col, Expr};
    use scanraw_types::{ChunkId, Field};

    fn chunk(id: u32, ints: Vec<i64>, floats: Vec<f64>, strs: Vec<&str>) -> BinaryChunk {
        let rows = ints.len() as u32;
        BinaryChunk {
            id: ChunkId(id),
            first_row: 0,
            rows,
            columns: vec![
                Some(ColumnData::Int64(ints)),
                Some(ColumnData::Float64(floats)),
                Some(ColumnData::Utf8(
                    strs.into_iter().map(String::from).collect(),
                )),
            ],
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap()
    }

    fn plan(filter: Option<Predicate>, group_by: Vec<Col>, aggs: Vec<AggExpr>) -> ExecPlan {
        let q = Query {
            table: "t".into(),
            filter,
            group_by,
            aggregates: aggs,
            pushdown: false,
            projection: None,
        };
        ExecPlan::compile(&q, &schema())
    }

    fn filter_sel(p: &Predicate, c: &BinaryChunk, sel: Sel) -> Result<Sel> {
        let f = Filter::compile(p, &schema());
        let mut cx = Cx {
            chunk: c,
            ints: Vec::new(),
            floats: Vec::new(),
        };
        filter(&f, &mut cx, sel)
    }

    /// Serial oracle: per-row eval exactly as the engine's serial fold does.
    fn serial_sum(chunks: &[BinaryChunk], filter: Option<&Predicate>, expr: &Expr) -> (Value, u64) {
        let mut acc = Accumulator::new(AggFunc::Sum);
        let mut rows = 0u64;
        for c in chunks {
            for r in 0..c.rows as usize {
                if let Some(p) = filter {
                    if !p.eval(c, r).unwrap() {
                        continue;
                    }
                }
                rows += 1;
                acc.update(expr.eval(c, r).unwrap()).unwrap();
            }
        }
        (acc.finish().unwrap(), rows)
    }

    #[test]
    fn columnar_matches_serial_with_filter() {
        let chunks = vec![
            chunk(0, vec![1, 5, 9], vec![0.5, 1.5, 2.5], vec!["a", "b", "c"]),
            chunk(1, vec![2, 6, 10], vec![3.5, 4.5, 5.5], vec!["d", "e", "f"]),
        ];
        let filter = Predicate::between(0, 2i64, 9i64);
        let expr = Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        let (oracle, oracle_rows) = serial_sum(&chunks, Some(&filter), &expr);

        let p = plan(Some(filter), vec![], vec![AggExpr::sum(expr)]);
        let mut total = p.partial();
        for c in &chunks {
            let mut part = p.partial();
            p.consume(&mut part, c).unwrap();
            total.merge(part).unwrap();
        }
        assert_eq!(total.rows_seen(), oracle_rows);
        let rows = total.finish().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].aggregates[0], oracle);
    }

    #[test]
    fn or_and_not_short_circuit_structure() {
        // Row 0 passes the left arm; the right arm would error on eval
        // (overflow) only for row 0 — serial never evaluates it there.
        let c = chunk(0, vec![1, i64::MAX], vec![0.0, 0.0], vec!["x", "y"]);
        let overflowing = || {
            Predicate::Cmp(
                Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::lit(i64::MAX))),
                CmpOp::Gt,
                Expr::lit(0i64),
            )
        };
        let left = || Predicate::Cmp(Expr::col(0), CmpOp::Eq, Expr::lit(1i64));
        // Serial: row 0 → left true, right skipped. Row 1 → left false,
        // right evaluated → overflow error. Columnar must agree.
        let or = Predicate::Or(Box::new(left()), Box::new(overflowing()));
        assert!(or.eval(&c, 0).unwrap());
        assert!(or.eval(&c, 1).is_err());
        let err = filter_sel(&or, &c, Sel::All(2)).unwrap_err();
        assert!(err.to_string().contains("integer overflow"), "{err}");

        // Restricting the selection to row 0 must succeed.
        assert_eq!(
            filter_sel(&or, &c, Sel::Rows(vec![0])).unwrap(),
            Sel::Rows(vec![0])
        );
        // NOT over a selection that keeps everything empties it.
        let not = Predicate::Not(Box::new(Predicate::Cmp(
            Expr::col(0),
            CmpOp::Ge,
            Expr::lit(0i64),
        )));
        assert_eq!(filter_sel(&not, &c, Sel::All(2)).unwrap().len(), 0);
    }

    #[test]
    fn cross_type_comparison_matches_value_ord() {
        // Value's Ord ranks Int < Float regardless of magnitude; the
        // columnar comparator must agree with the serial evaluator.
        let c = chunk(0, vec![i64::MAX], vec![f64::MIN], vec!["s"]);
        let p = Predicate::Cmp(Expr::col(0), CmpOp::Lt, Expr::col(1));
        assert!(p.eval(&c, 0).unwrap());
        assert_eq!(filter_sel(&p, &c, Sel::All(1)).unwrap(), Sel::All(1));
        // But equality follows PartialEq: cross-type is unequal, so Ne holds.
        let p = Predicate::Cmp(Expr::col(0), CmpOp::Ne, Expr::col(1));
        assert!(p.eval(&c, 0).unwrap());
        assert_eq!(filter_sel(&p, &c, Sel::All(1)).unwrap(), Sel::All(1));
    }

    #[test]
    fn selection_stays_dense_while_every_row_passes() {
        let c = chunk(0, vec![1, 2, 3], vec![0.0; 3], vec!["a", "b", "c"]);
        let all = Predicate::between(0, 0i64, 10i64);
        assert_eq!(filter_sel(&all, &c, Sel::All(3)).unwrap(), Sel::All(3));
        let some = Predicate::between(0, 2i64, 10i64);
        assert_eq!(
            filter_sel(&some, &c, Sel::All(3)).unwrap(),
            Sel::Rows(vec![1, 2])
        );
        // An OR whose arms together keep every row is dense again.
        let or = Predicate::Or(
            Box::new(Predicate::Cmp(Expr::col(0), CmpOp::Lt, Expr::lit(2i64))),
            Box::new(Predicate::Cmp(Expr::col(0), CmpOp::Ge, Expr::lit(2i64))),
        );
        assert_eq!(filter_sel(&or, &c, Sel::All(3)).unwrap(), Sel::All(3));
    }

    #[test]
    fn group_by_merge_matches_single_state() {
        let chunks = vec![
            chunk(0, vec![1, 2, 1], vec![1.0, 2.0, 3.0], vec!["a", "b", "a"]),
            chunk(1, vec![2, 1, 3], vec![4.0, 5.0, 6.0], vec!["b", "a", "c"]),
        ];
        let p = plan(
            None,
            vec![Col(0)],
            vec![AggExpr::sum(Expr::col(1)), AggExpr::count()],
        );
        // One partial consuming everything vs merged per-chunk partials.
        let mut whole = p.partial();
        for c in &chunks {
            p.consume(&mut whole, c).unwrap();
        }
        let mut merged = p.partial();
        for c in &chunks {
            let mut part = p.partial();
            p.consume(&mut part, c).unwrap();
            merged.merge(part).unwrap();
        }
        let a = whole.finish().unwrap();
        let b = merged.finish().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn like_filter_columnar() {
        let c = chunk(0, vec![1, 2, 3], vec![0.0; 3], vec!["100M", "50I", "90M"]);
        let p = Predicate::like(2, "%M");
        assert_eq!(
            filter_sel(&p, &c, Sel::All(3)).unwrap(),
            Sel::Rows(vec![0, 2])
        );
        // LIKE over a non-string column: false everywhere (serial parity).
        let p = Predicate::like(0, "%");
        assert_eq!(filter_sel(&p, &c, Sel::All(3)).unwrap().len(), 0);
    }

    #[test]
    fn sum_overflow_promotes_mid_chunk() {
        let c = chunk(0, vec![i64::MAX, 1, 1], vec![0.0; 3], vec!["x", "y", "z"]);
        let p = plan(None, vec![], vec![AggExpr::sum(Expr::col(0))]);
        let mut st = p.partial();
        p.consume(&mut st, &c).unwrap();
        let rows = st.finish().unwrap();
        match &rows[0].aggregates[0] {
            Value::Float(f) => assert!(*f > 9.2e18, "{f}"),
            other => panic!("expected promoted float, got {other:?}"),
        }
    }

    #[test]
    fn failing_chunk_reports_the_row_wise_error() {
        // Row 0 overflows in `*`, row 1 in `+`: the columnar kernels reach
        // the `+` first, the row-wise fold the `*`.
        let c = chunk(
            0,
            vec![i64::MAX / 2 + 1, i64::MAX],
            vec![0.0; 2],
            vec!["x", "y"],
        );
        let add = Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::lit(1i64)));
        let mul = Expr::Mul(Box::new(Expr::col(0)), Box::new(Expr::lit(2i64)));
        let expr = Expr::Sub(Box::new(add), Box::new(mul));
        let serial = expr.eval(&c, 0).unwrap_err().to_string();
        let p = plan(None, vec![], vec![AggExpr::sum(expr), AggExpr::count()]);
        let mut part = p.partial();
        let err = p.consume(&mut part, &c).unwrap_err().to_string();
        assert_eq!(err, serial);
    }
}
