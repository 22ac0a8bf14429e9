//! The common input — table `wide12` — with its queries, its oracle and the
//! way every workload opens a session over it.

use scanraw_engine::query::ResultRow;
use scanraw_engine::{
    AggExpr, ExecMode, ExecRequest, Expr, Predicate, Query, QueryOutcome, Session,
};
use scanraw_rawfile::generate::{csv_bytes, expected_column_sums, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::SimDisk;
use scanraw_types::{ScanRawConfig, Schema, WritePolicy};

pub const TABLE: &str = "wide12";
pub const RAW_FILE: &str = "wide12.csv";
pub const COLS: usize = 12;
pub const CHUNK_ROWS: u32 = 8_192;
/// The box has two cores; every pipeline runs two workers and the load
/// generator never uses more than two threads.
pub const WORKERS: usize = 2;
/// The two columns the projection workload touches.
pub const HOT_COLS: [usize; 2] = [2, 7];

/// `rows` × 12 uniform integers below 2^31, generated from the seed: the CSV
/// bytes, and the column sums computed from the generator alone — the part of
/// the oracle that never sees the parser.
pub struct Input {
    pub spec: CsvSpec,
    pub bytes: Vec<u8>,
    pub sums: Vec<i64>,
}

impl Input {
    pub fn generate(rows: u64, seed: u64) -> Input {
        let spec = CsvSpec::new(rows, COLS, seed);
        Input {
            bytes: csv_bytes(&spec),
            sums: expected_column_sums(&spec),
            spec,
        }
    }

    pub fn rows(&self) -> u64 {
        self.spec.rows
    }

    pub fn chunks(&self) -> usize {
        self.spec.rows.div_ceil(CHUNK_ROWS as u64) as usize
    }

    /// Puts the raw file on a device, bypassing its throttle: staging is not
    /// part of any timed region.
    pub fn stage(&self, disk: &SimDisk) {
        disk.storage().put(RAW_FILE, self.bytes.clone());
    }

    pub fn sum_of(&self, cols: impl IntoIterator<Item = usize>) -> i64 {
        cols.into_iter().map(|c| self.sums[c]).sum()
    }
}

/// Opens a session over `disk` with `wide12` registered.
pub fn open_session(disk: &SimDisk, cache_chunks: usize, policy: WritePolicy) -> Session {
    let session = Session::open(disk.clone());
    session
        .register_table(
            TABLE,
            RAW_FILE,
            Schema::uniform_ints(COLS),
            TextDialect::CSV,
            ScanRawConfig::default()
                .with_chunk_rows(CHUNK_ROWS)
                .with_workers(WORKERS)
                .with_cache_chunks(cache_chunks)
                .with_policy(policy),
        )
        .expect("wide12 registers on a fresh session");
    session
}

/// The CPU-bound query of the PR 5 bench: a pass-everything range filter plus
/// a SUM per column and COUNT/AVG/MIN/MAX, so consumer-side evaluation is as
/// heavy as this engine makes it.
pub fn cpu_bound_query() -> Query {
    let mut aggregates: Vec<AggExpr> = (0..COLS).map(|c| AggExpr::sum(Expr::col(c))).collect();
    aggregates.push(AggExpr::count());
    aggregates.push(AggExpr::avg(Expr::sum_of_columns([0, COLS - 1])));
    aggregates.push(AggExpr::min(Expr::col(1)));
    aggregates.push(AggExpr::max(Expr::col(1)));
    Query {
        table: TABLE.into(),
        filter: Some(Predicate::between(0, i64::MIN / 4, i64::MAX / 4)),
        group_by: vec![],
        aggregates,
        pushdown: false,
        projection: None,
    }
}

/// A range filter that keeps about half the rows, under five aggregates.
pub fn range_query() -> Query {
    Query {
        table: TABLE.into(),
        filter: Some(Predicate::between(0, 0i64, 1i64 << 30)),
        group_by: vec![],
        aggregates: vec![
            AggExpr::count(),
            AggExpr::sum(Expr::col(3)),
            AggExpr::min(Expr::col(4)),
            AggExpr::max(Expr::col(4)),
            AggExpr::avg(Expr::col(5)),
        ],
        pushdown: false,
        projection: None,
    }
}

pub fn hot_sum_query() -> Query {
    Query::sum_of_columns(TABLE, HOT_COLS)
}

pub fn full_sum_query() -> Query {
    Query::sum_of_columns(TABLE, 0..COLS)
}

/// Expected answers to the sum queries, from the generator alone.
pub struct Oracle {
    pub rows: u64,
    pub hot_sum: i64,
    pub full_sum: i64,
}

impl Oracle {
    pub fn build(input: &Input) -> Oracle {
        Oracle {
            rows: input.rows(),
            hot_sum: input.sum_of(HOT_COLS),
            full_sum: input.sum_of(0..COLS),
        }
    }

    pub fn sum_matches(&self, out: &QueryOutcome, expected: i64) -> bool {
        out.result.rows_scanned == self.rows
            && out.result.scalar().and_then(|v| v.as_i64()) == Some(expected)
    }
}

/// Expected answers to the two filter-and-aggregate shapes, from a `Serial`
/// run on a clean twin session that no workload ever touches. Only the
/// workloads that run those shapes pay for it in their set-up.
pub struct TwinOracle {
    pub cpu_bound: Expected,
    pub range: Expected,
}

/// The twin session's answer to one query: its result rows and how many rows
/// its filter let through.
pub struct Expected {
    rows: Vec<ResultRow>,
    rows_scanned: u64,
}

impl Expected {
    pub fn matches(&self, out: &QueryOutcome) -> bool {
        out.result.rows_scanned == self.rows_scanned && out.result.rows == self.rows
    }
}

impl TwinOracle {
    pub fn build(input: &Input) -> TwinOracle {
        let disk = SimDisk::instant();
        input.stage(&disk);
        let twin = open_session(&disk, input.chunks() + 1, WritePolicy::ExternalTables);
        let serial = |q: Query| {
            let out = twin
                .run(ExecRequest::query(q).mode(ExecMode::Serial))
                .expect("oracle run on the twin session")
                .into_single();
            Expected {
                rows: out.result.rows,
                rows_scanned: out.result.rows_scanned,
            }
        };
        let cpu_bound = serial(cpu_bound_query());
        assert_eq!(
            cpu_bound.rows_scanned,
            input.rows(),
            "its filter passes every row"
        );
        // The twin's per-column SUMs must agree with the generator, or the
        // two oracles contradict each other.
        for (c, sum) in input.sums.iter().enumerate() {
            assert_eq!(cpu_bound.rows[0].aggregates[c].as_i64(), Some(*sum));
        }
        TwinOracle {
            range: serial(range_query()),
            cpu_bound,
        }
    }
}
