//! Catalog: chunk-granularity metadata for raw-file-backed tables.
//!
//! For every table the catalog tracks (a) the raw-file chunk layout learned
//! during the first scan, (b) which columns of which chunks have been loaded
//! into the database, and (c) per-chunk min/max statistics used both for
//! chunk skipping under selection predicates and for cardinality estimation
//! (paper §3.3).

use crate::stats::ColumnDetail;
use parking_lot::RwLock;
use scanraw_types::{
    BinaryChunk, ChunkId, ChunkLayout, ChunkMeta, Error, RangePredicate, Result, Schema, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Min/max bounds of every column in one chunk (None = column unseen or
/// statistics disabled).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkStats {
    /// Indexed by column; `Some((min, max))` once the column was converted.
    pub bounds: Vec<Option<(Value, Value)>>,
    /// Advanced statistics (distinct sketches + samples, paper §3.3),
    /// collected only when the operator enables them.
    pub details: Option<Vec<ColumnDetail>>,
    /// Rows observed in the chunk (set by the first conversion).
    pub rows: u32,
}

impl ChunkStats {
    pub fn new(n_cols: usize) -> Self {
        ChunkStats {
            bounds: vec![None; n_cols],
            details: None,
            rows: 0,
        }
    }

    /// Records bounds from a converted chunk's present columns.
    pub fn absorb(&mut self, chunk: &BinaryChunk) {
        self.rows = self.rows.max(chunk.rows);
        for (i, col) in chunk.columns.iter().enumerate() {
            if let Some(c) = col {
                if let Some((lo, hi)) = c.min_max() {
                    self.bounds[i] = Some(match self.bounds[i].take() {
                        // Bounds can only widen (same data re-converted gives
                        // the same range; selective conversions are subsets).
                        Some((plo, phi)) => (plo.min(lo), phi.max(hi)),
                        None => (lo, hi),
                    });
                }
            }
        }
    }

    /// Records advanced statistics (distinct sketches + samples) for the
    /// chunk's present columns. Idempotence caveat: re-converting the same
    /// chunk widens nothing but inflates observation counts; callers record
    /// detailed statistics only on the first conversion of a chunk.
    pub fn absorb_detailed(&mut self, chunk: &BinaryChunk) {
        let n = self.bounds.len();
        let details = self
            .details
            .get_or_insert_with(|| vec![ColumnDetail::default(); n]);
        for (i, col) in chunk.columns.iter().enumerate() {
            if let Some(c) = col {
                details[i].absorb(c);
            }
        }
    }

    /// Estimated fraction of this chunk's rows matching a range predicate:
    /// 0 when the bounds prune the chunk, the sample-derived fraction when a
    /// sample exists, and 1 (conservative) otherwise.
    pub fn estimate_selectivity(&self, pred: &RangePredicate) -> f64 {
        if let Some((lo, hi)) = self.bounds.get(pred.column).and_then(|b| b.as_ref()) {
            if !pred.may_overlap(lo, hi) {
                return 0.0;
            }
        }
        if let Some(details) = &self.details {
            if let Some(sel) = details
                .get(pred.column)
                .and_then(|d| d.sample.selectivity(pred))
            {
                return sel;
            }
        }
        1.0
    }
}

/// Metadata of one table.
#[derive(Debug)]
pub struct TableEntry {
    pub name: String,
    pub schema: Schema,
    /// Name of the raw file on the device.
    pub raw_file: String,
    /// Known chunk layout (None until the first full scan completes).
    layout: Option<ChunkLayout>,
    /// True once a full sequential scan recorded the complete layout.
    layout_complete: bool,
    /// `loaded[chunk][col]` — column `col` of chunk `chunk` is in the store.
    loaded: Vec<Vec<bool>>,
    /// Per-chunk statistics, parallel to `loaded`.
    stats: Vec<ChunkStats>,
}

impl TableEntry {
    fn new(name: String, schema: Schema, raw_file: String) -> Self {
        TableEntry {
            name,
            schema,
            raw_file,
            layout: None,
            layout_complete: false,
            loaded: Vec::new(),
            stats: Vec::new(),
        }
    }

    pub fn layout(&self) -> Option<&ChunkLayout> {
        self.layout.as_ref()
    }

    /// True when the layout covers the whole raw file (first scan finished).
    pub fn layout_complete(&self) -> bool {
        self.layout_complete
    }

    pub fn n_chunks(&self) -> usize {
        self.loaded.len()
    }

    /// Ensures per-chunk bookkeeping exists up to `id` (chunks are discovered
    /// in order during the first scan, but WRITE may record them out of
    /// order).
    fn ensure_chunk(&mut self, id: ChunkId) {
        let need = id.index() + 1;
        let n_cols = self.schema.len();
        while self.loaded.len() < need {
            self.loaded.push(vec![false; n_cols]);
            self.stats.push(ChunkStats::new(n_cols));
        }
    }

    /// Which of `cols` are loaded for `id`.
    pub fn loaded_columns(&self, id: ChunkId, cols: &[usize]) -> Vec<usize> {
        match self.loaded.get(id.index()) {
            Some(l) => cols
                .iter()
                .copied()
                .filter(|&c| l.get(c).copied().unwrap_or(false))
                .collect(),
            None => Vec::new(),
        }
    }

    /// True when every column in `cols` is loaded for `id` (vacuously true
    /// for an empty column set).
    pub fn is_loaded(&self, id: ChunkId, cols: &[usize]) -> bool {
        self.loaded_columns(id, cols).len() == cols.len()
    }

    /// Chunks for which every column in `cols` is loaded.
    pub fn fully_loaded_chunks(&self, cols: &[usize]) -> Vec<ChunkId> {
        (0..self.loaded.len() as u32)
            .map(ChunkId)
            .filter(|&id| self.is_loaded(id, cols))
            .collect()
    }

    /// True when all chunks of a known layout have all columns loaded —
    /// ScanRaw then morphs into a heap scan and can be deleted (§3.3).
    pub fn fully_loaded(&self) -> bool {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.fully_loaded_for(&all)
    }

    /// Column-granular completeness: true when every chunk of a known layout
    /// has every cell of `cols` loaded. This is the reap criterion at column
    /// granularity — an operator whose queries only ever registered `cols`
    /// is a pure heap scan once those cells are in, even if unread columns
    /// never load.
    pub fn fully_loaded_for(&self, cols: &[usize]) -> bool {
        match &self.layout {
            Some(layout) => {
                !layout.is_empty()
                    && self.loaded.len() >= layout.len()
                    && (0..layout.len() as u32)
                        .map(ChunkId)
                        .all(|id| self.is_loaded(id, cols))
            }
            None => false,
        }
    }

    pub fn stats(&self, id: ChunkId) -> Option<&ChunkStats> {
        self.stats.get(id.index())
    }

    /// True when the min/max statistics of chunk `id` prove that none of its
    /// rows can satisfy `pred`, so a scan may skip the chunk (§3.2.1). A
    /// chunk or column without recorded bounds is never pruned.
    pub fn prunes(&self, id: ChunkId, pred: &RangePredicate) -> bool {
        self.stats(id)
            .and_then(|s| s.bounds.get(pred.column)?.as_ref())
            .is_some_and(|(lo, hi)| !pred.may_overlap(lo, hi))
    }

    /// Estimated fraction of the table's rows matching a range predicate,
    /// weighted by per-chunk row counts (cardinality estimation, §3.3).
    pub fn estimate_selectivity(&self, pred: &RangePredicate) -> f64 {
        let mut rows = 0u64;
        let mut matching = 0.0f64;
        for s in &self.stats {
            let r = s.rows as u64;
            rows += r;
            matching += s.estimate_selectivity(pred) * r as f64;
        }
        if rows == 0 {
            1.0 // nothing known: assume everything matches
        } else {
            matching / rows as f64
        }
    }

    /// Estimated distinct values of a column across all chunks (sums chunk
    /// estimates — an upper bound, since chunks may share values).
    pub fn estimate_distinct(&self, col: usize) -> Option<u64> {
        let mut total = 0u64;
        let mut any = false;
        for s in &self.stats {
            if let Some(details) = &s.details {
                if let Some(d) = details.get(col) {
                    if d.distinct.observed() > 0 {
                        any = true;
                        total += d.distinct.estimate();
                    }
                }
            }
        }
        any.then_some(total)
    }

    /// Absolute number of (chunk, column) cells marked loaded. Unlike
    /// [`loaded_fraction`], whose denominator shrinks when a restart forgets
    /// the in-memory layout, this count must be monotonically non-decreasing
    /// across queries and honest recoveries — the fault-schedule suite
    /// asserts exactly that.
    ///
    /// [`loaded_fraction`]: TableEntry::loaded_fraction
    pub fn loaded_cell_count(&self) -> usize {
        self.loaded
            .iter()
            .map(|l| l.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Fraction of (chunk, column) cells loaded, for progress reporting.
    pub fn loaded_fraction(&self) -> f64 {
        let total: usize = self.loaded.iter().map(|l| l.len()).sum();
        if total == 0 {
            return 0.0;
        }
        self.loaded_cell_count() as f64 / total as f64
    }
}

/// Thread-safe catalog of all tables. Cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Arc<RwLock<HashMap<String, Arc<RwLock<TableEntry>>>>>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a raw-file-backed table. Errors if the name exists.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        raw_file: impl Into<String>,
    ) -> Result<()> {
        let name = name.into();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::storage(format!("table '{name}' already exists")));
        }
        let entry = TableEntry::new(name.clone(), schema, raw_file.into());
        tables.insert(name, Arc::new(RwLock::new(entry)));
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> bool {
        self.tables.write().remove(name).is_some()
    }

    pub fn table(&self, name: &str) -> Result<Arc<RwLock<TableEntry>>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::storage(format!("unknown table '{name}'")))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Stores the chunk layout discovered by the first scan.
    pub fn set_layout(&self, table: &str, layout: ChunkLayout) -> Result<()> {
        let t = self.table(table)?;
        let mut t = t.write();
        for meta in layout.iter() {
            t.ensure_chunk(meta.id);
        }
        t.layout = Some(layout);
        t.layout_complete = true;
        Ok(())
    }

    /// Marks the incrementally observed layout as covering the whole file.
    pub fn mark_layout_complete(&self, table: &str) -> Result<()> {
        let t = self.table(table)?;
        t.write().layout_complete = true;
        Ok(())
    }

    /// Appends one newly discovered chunk's metadata (incremental first scan).
    pub fn observe_chunk(&self, table: &str, meta: ChunkMeta) -> Result<()> {
        let t = self.table(table)?;
        let mut t = t.write();
        t.ensure_chunk(meta.id);
        match &mut t.layout {
            Some(layout) => {
                if layout.get(meta.id).is_none() {
                    layout.push(meta);
                }
            }
            None => {
                let mut layout = ChunkLayout::default();
                layout.push(meta);
                if meta.id.index() == 0 {
                    t.layout = Some(layout);
                } else {
                    return Err(Error::storage(format!(
                        "chunk {} observed before layout established",
                        meta.id
                    )));
                }
            }
        }
        Ok(())
    }

    /// Records statistics gathered while converting a chunk (§3.3).
    pub fn record_stats(&self, table: &str, chunk: &BinaryChunk) -> Result<()> {
        let t = self.table(table)?;
        let mut t = t.write();
        t.ensure_chunk(chunk.id);
        let idx = chunk.id.index();
        t.stats[idx].absorb(chunk);
        Ok(())
    }

    /// Records min/max *and* advanced statistics (distinct, samples) for a
    /// chunk. Detailed statistics are only absorbed the first time a chunk
    /// is seen, to keep observation counts meaningful across re-conversions.
    pub fn record_stats_detailed(&self, table: &str, chunk: &BinaryChunk) -> Result<()> {
        let t = self.table(table)?;
        let mut t = t.write();
        t.ensure_chunk(chunk.id);
        let idx = chunk.id.index();
        t.stats[idx].absorb(chunk);
        if t.stats[idx].details.is_none() {
            t.stats[idx].absorb_detailed(chunk);
        }
        Ok(())
    }

    /// Estimated fraction of `table`'s rows matching a range predicate.
    pub fn estimate_selectivity(&self, table: &str, pred: &RangePredicate) -> Result<f64> {
        let t = self.table(table)?;
        let sel = t.read().estimate_selectivity(pred);
        Ok(sel)
    }

    /// Marks columns of a chunk as loaded into the store.
    pub fn mark_loaded(&self, table: &str, id: ChunkId, cols: &[usize]) -> Result<()> {
        let t = self.table(table)?;
        let mut t = t.write();
        t.ensure_chunk(id);
        let n = t.schema.len();
        for &c in cols {
            if c >= n {
                return Err(Error::storage(format!("column {c} out of range")));
            }
            t.loaded[id.index()][c] = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanraw_types::ColumnData;

    fn catalog_with_table() -> Catalog {
        let c = Catalog::new();
        c.create_table("t", Schema::uniform_ints(3), "t.csv")
            .unwrap();
        c
    }

    fn chunk(id: u32, vals: Vec<i64>) -> BinaryChunk {
        let rows = vals.len() as u32;
        BinaryChunk {
            id: ChunkId(id),
            first_row: 0,
            rows,
            columns: vec![Some(ColumnData::Int64(vals)), None, None],
        }
    }

    #[test]
    fn duplicate_table_rejected() {
        let c = catalog_with_table();
        assert!(c.create_table("t", Schema::uniform_ints(1), "x").is_err());
    }

    #[test]
    fn unknown_table_is_error() {
        let c = Catalog::new();
        assert!(c.table("nope").is_err());
        assert!(c.mark_loaded("nope", ChunkId(0), &[0]).is_err());
    }

    #[test]
    fn mark_and_query_loaded() {
        let c = catalog_with_table();
        c.mark_loaded("t", ChunkId(2), &[0, 2]).unwrap();
        let t = c.table("t").unwrap();
        let t = t.read();
        assert_eq!(t.loaded_columns(ChunkId(2), &[0, 1, 2]), vec![0, 2]);
        assert!(t.is_loaded(ChunkId(2), &[0, 2]));
        assert!(!t.is_loaded(ChunkId(2), &[0, 1]));
        assert!(!t.is_loaded(ChunkId(0), &[0]));
        assert_eq!(t.n_chunks(), 3, "bookkeeping extends to chunk id");
    }

    #[test]
    fn out_of_range_column_rejected() {
        let c = catalog_with_table();
        assert!(c.mark_loaded("t", ChunkId(0), &[3]).is_err());
    }

    #[test]
    fn stats_absorb_and_skip() {
        let c = catalog_with_table();
        c.record_stats("t", &chunk(0, vec![10, 20, 30])).unwrap();
        let t = c.table("t").unwrap();
        let t = t.read();
        let between = |col, lo, hi| RangePredicate::between(col, Value::Int(lo), Value::Int(hi));
        assert!(!t.prunes(ChunkId(0), &between(0, 15, 18)));
        assert!(t.prunes(ChunkId(0), &between(0, 31, 99)));
        assert!(t.prunes(ChunkId(0), &between(0, 0, 9)));
        // Unknown column bounds and unseen chunks are conservative.
        assert!(!t.prunes(ChunkId(0), &between(1, 1000, 2000)));
        assert!(!t.prunes(ChunkId(7), &between(0, 31, 99)));
    }

    #[test]
    fn stats_widen_monotonically() {
        let c = catalog_with_table();
        c.record_stats("t", &chunk(0, vec![10, 20])).unwrap();
        c.record_stats("t", &chunk(0, vec![5, 25])).unwrap();
        let t = c.table("t").unwrap();
        let t = t.read();
        let s = t.stats(ChunkId(0)).unwrap();
        assert_eq!(s.bounds[0], Some((Value::Int(5), Value::Int(25))));
    }

    #[test]
    fn fully_loaded_requires_layout_and_all_cells() {
        let c = catalog_with_table();
        let mut layout = ChunkLayout::default();
        layout.push(ChunkMeta {
            id: ChunkId(0),
            file_offset: 0,
            byte_len: 10,
            first_row: 0,
            rows: 2,
        });
        c.set_layout("t", layout).unwrap();
        {
            let t = c.table("t").unwrap();
            assert!(!t.read().fully_loaded());
        }
        c.mark_loaded("t", ChunkId(0), &[0, 1, 2]).unwrap();
        let t = c.table("t").unwrap();
        assert!(t.read().fully_loaded());
        assert!((t.read().loaded_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observe_chunks_builds_layout_incrementally() {
        let c = catalog_with_table();
        for i in 0..3u32 {
            c.observe_chunk(
                "t",
                ChunkMeta {
                    id: ChunkId(i),
                    file_offset: i as u64 * 10,
                    byte_len: 10,
                    first_row: i as u64 * 2,
                    rows: 2,
                },
            )
            .unwrap();
        }
        let t = c.table("t").unwrap();
        let t = t.read();
        assert_eq!(t.layout().unwrap().len(), 3);
        assert_eq!(t.layout().unwrap().total_rows(), 6);
    }

    #[test]
    fn fully_loaded_chunks_filters_by_columns() {
        let c = catalog_with_table();
        c.mark_loaded("t", ChunkId(0), &[0]).unwrap();
        c.mark_loaded("t", ChunkId(1), &[0, 1, 2]).unwrap();
        let t = c.table("t").unwrap();
        let t = t.read();
        assert_eq!(t.fully_loaded_chunks(&[0]), vec![ChunkId(0), ChunkId(1)]);
        assert_eq!(t.fully_loaded_chunks(&[0, 1]), vec![ChunkId(1)]);
    }

    #[test]
    fn fully_loaded_for_tracks_registered_columns_only() {
        let c = catalog_with_table();
        let mut layout = ChunkLayout::default();
        for i in 0..2u32 {
            layout.push(ChunkMeta {
                id: ChunkId(i),
                file_offset: i as u64 * 10,
                byte_len: 10,
                first_row: i as u64 * 2,
                rows: 2,
            });
        }
        c.set_layout("t", layout).unwrap();
        c.mark_loaded("t", ChunkId(0), &[0, 2]).unwrap();
        c.mark_loaded("t", ChunkId(1), &[0, 2]).unwrap();
        let t = c.table("t").unwrap();
        let t = t.read();
        assert!(t.fully_loaded_for(&[0, 2]), "all registered cells loaded");
        assert!(t.fully_loaded_for(&[]), "vacuously true for no columns");
        assert!(!t.fully_loaded_for(&[0, 1]), "column 1 never loaded");
        assert!(!t.fully_loaded(), "whole-table completeness still false");
    }

    #[test]
    fn drop_table() {
        let c = catalog_with_table();
        assert!(c.drop_table("t"));
        assert!(!c.drop_table("t"));
        assert!(c.table("t").is_err());
    }
}
