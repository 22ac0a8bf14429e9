//! Columnar chunked store: the on-"disk" database representation.
//!
//! Each (table, column) pair gets its own device file; each loaded chunk of a
//! column is an independent page run appended to that file. The encoding is
//! the flat array layout of the in-memory representation ("when written to
//! disk, each column is assigned an independent set of pages which can be
//! directly mapped into the in-memory array representation", paper §3.1), so
//! loading a chunk back is a single device read plus a memcpy-equivalent
//! decode.
//!
//! # Durability: write-then-commit
//!
//! A run only counts as loaded once two appends complete in order: the
//! payload into the column file, then a one-line commit record (with the
//! payload's CRC-32) into the table's `commit.log`. A crash between the two
//! leaves dead payload bytes that no record references — [`recover`] replays
//! the log after a restart, re-verifies every referenced payload against its
//! checksum, and rebuilds the run index from surviving records only, so the
//! catalog's loaded bitmap never claims a chunk whose bytes are missing or
//! corrupt (DESIGN.md §10).
//!
//! [`recover`]: ColumnStore::recover

use crate::checksum::crc32;
use parking_lot::RwLock;
use scanraw_simio::SimDisk;
use scanraw_types::{BinaryChunk, ChunkId, ColumnData, DataType, Error, Result, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// Device location of one stored column run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunLocator {
    offset: u64,
    len: u64,
    rows: u32,
    /// CRC-32 of the payload, verified on every read of the run.
    crc: u32,
}

/// One column run restored by [`ColumnStore::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredRun {
    pub col: usize,
    pub id: ChunkId,
    pub rows: u32,
}

/// Outcome of a [`ColumnStore::recover`] pass over one table's commit log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredRuns {
    /// Runs whose commit record and payload both survived.
    pub committed: Vec<RecoveredRun>,
    /// Commit records whose payload was missing, short, or failed its CRC.
    pub dropped_corrupt: usize,
    /// Unparseable records (torn log tail, garbage lines).
    pub dropped_malformed: usize,
}

/// Columnar store over a shared device. Cheap to clone.
/// Index key of a stored column run: (table, column, chunk).
type RunKey = (String, usize, ChunkId);

#[derive(Clone)]
pub struct ColumnStore {
    disk: SimDisk,
    runs: Arc<RwLock<HashMap<RunKey, RunLocator>>>,
}

impl ColumnStore {
    pub fn new(disk: SimDisk) -> Self {
        ColumnStore {
            disk,
            runs: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    fn file_name(table: &str, col: usize) -> String {
        format!("db/{table}/col{col}.bin")
    }

    fn log_name(table: &str) -> String {
        format!("db/{table}/commit.log")
    }

    /// Writes every present column of `chunk` that is not already stored.
    /// Returns the column indices actually written.
    ///
    /// # Errors
    ///
    /// Fails on the first device error; columns written before it stay
    /// committed (use [`store_chunk_partial`] to learn which).
    ///
    /// [`store_chunk_partial`]: ColumnStore::store_chunk_partial
    pub fn store_chunk(&self, table: &str, chunk: &BinaryChunk) -> Result<Vec<usize>> {
        let (written, err) = self.store_chunk_partial(table, chunk);
        match err {
            Some(e) => Err(e),
            None => Ok(written),
        }
    }

    /// Writes only the named columns of `chunk`. Returns the column indices
    /// actually written (absent or already-stored columns are skipped).
    ///
    /// # Errors
    ///
    /// Fails on the first device error; columns written before it stay
    /// committed (use [`store_chunk_cols_partial`] to learn which).
    ///
    /// [`store_chunk_cols_partial`]: ColumnStore::store_chunk_cols_partial
    pub fn store_chunk_cols(
        &self,
        table: &str,
        chunk: &BinaryChunk,
        cols: &[usize],
    ) -> Result<Vec<usize>> {
        let (written, err) = self.store_chunk_cols_partial(table, chunk, cols);
        match err {
            Some(e) => Err(e),
            None => Ok(written),
        }
    }

    /// Like [`store_chunk`], but reports partial progress: the columns that
    /// were durably committed before a device error, plus the error itself.
    /// The WRITE stage needs both — committed columns must be marked loaded
    /// in the catalog (the work is durable), the failed column must not be.
    ///
    /// Each column follows the write-then-commit protocol: payload append,
    /// then commit-record append. A column counts as written only when both
    /// appends succeeded.
    ///
    /// [`store_chunk`]: ColumnStore::store_chunk
    pub fn store_chunk_partial(
        &self,
        table: &str,
        chunk: &BinaryChunk,
    ) -> (Vec<usize>, Option<Error>) {
        let all: Vec<usize> = (0..chunk.columns.len()).collect();
        self.store_chunk_cols_partial(table, chunk, &all)
    }

    /// Column-granular store: writes only the named columns of `chunk` (the
    /// cell-level unit of speculative loading), skipping columns that are
    /// absent from the chunk or already stored. Same write-then-commit
    /// protocol and partial-progress reporting as [`store_chunk_partial`]:
    /// a torn write can lose a column cell but never commit a half-written
    /// one.
    ///
    /// [`store_chunk_partial`]: ColumnStore::store_chunk_partial
    pub fn store_chunk_cols_partial(
        &self,
        table: &str,
        chunk: &BinaryChunk,
        cols: &[usize],
    ) -> (Vec<usize>, Option<Error>) {
        let mut written = Vec::new();
        for &col in cols {
            let Some(data) = chunk.columns.get(col).and_then(Option::as_ref) else {
                continue;
            };
            let key = (table.to_string(), col, chunk.id);
            if self.runs.read().contains_key(&key) {
                continue; // already stored; chunks are immutable
            }
            let bytes = encode_column(data);
            let crc = crc32(&bytes);
            let file = Self::file_name(table, col);
            self.disk.create(&file);
            // lint-ok: L016 the WRITE thread retries whole stores (idempotent per committed cell); direct callers get partial progress + the error
            let offset = match self.disk.append(&file, &bytes) {
                Ok(o) => o,
                Err(e) => return (written, Some(e)),
            };
            // Commit point: the run exists once this record is durable. A
            // crash before it leaves the payload as unreferenced dead bytes
            // that recovery ignores. The leading newline isolates the record
            // from any partial bytes a torn earlier append left at the log
            // tail — otherwise the torn prefix and this record would merge
            // into one malformed line and recovery would drop a durable run.
            let record = format!(
                "\nv1 {col} {id} {offset} {len} {rows} {crc}\n",
                id = chunk.id.0,
                len = bytes.len(),
                rows = chunk.rows,
            );
            let log = Self::log_name(table);
            self.disk.create(&log);
            // lint-ok: L016 same contract as the payload append above: retried a level up, never masked here
            if let Err(e) = self.disk.append(&log, record.as_bytes()) {
                return (written, Some(e));
            }
            self.runs.write().insert(
                key,
                RunLocator {
                    offset,
                    len: bytes.len() as u64,
                    rows: chunk.rows,
                    crc,
                },
            );
            written.push(col);
        }
        (written, None)
    }

    /// Rebuilds the run index for `table` from its commit log after a crash
    /// or restart. Only records whose payload is present and passes its
    /// CRC-32 survive; everything else is dropped and counted, so a caller
    /// re-marking the catalog from [`RecoveredRuns::committed`] can never
    /// mark a lying bit.
    ///
    /// # Errors
    ///
    /// Fails when a commit record names a column outside `schema` —
    /// corruption of the metadata itself rather than of a payload.
    pub fn recover(&self, table: &str, schema: &Schema) -> Result<RecoveredRuns> {
        let mut report = RecoveredRuns::default();
        let log = Self::log_name(table);
        if !self.disk.exists(&log) {
            return Ok(report); // nothing was ever committed
        }
        let log_len = self.disk.len(&log)?;
        // Recovery deliberately bypasses retry: it runs once at startup
        // before any scan, and a failure is treated as corruption (the run is
        // dropped and re-converted from raw), never masked by healing.
        // lint-ok: L016 recovery is conservative by design, no retry masking
        let raw = self.disk.read(&log, 0, log_len as usize)?;
        let text = String::from_utf8_lossy(&raw);
        // Only newline-terminated records count: a crash mid-append tears the
        // final line, which must not resurrect a half-committed run.
        let complete_upto = text.rfind('\n').map_or(0, |i| i + 1);
        if complete_upto < text.len() {
            report.dropped_malformed += 1;
        }
        for line in text[..complete_upto].lines() {
            if line.is_empty() {
                continue; // records are newline-isolated; blanks are padding
            }
            let Some(rec) = parse_commit_record(line) else {
                report.dropped_malformed += 1;
                continue;
            };
            let (col, id, offset, len, rows, crc) = rec;
            if col >= schema.len() {
                return Err(Error::storage(format!(
                    "commit log of '{table}' names column {col} outside the schema"
                )));
            }
            let key = (table.to_string(), col, id);
            if self.runs.read().contains_key(&key) {
                continue; // duplicate record; first commit wins
            }
            let file = Self::file_name(table, col);
            // lint-ok: L016 a failed payload read counts the run dropped_corrupt, by design
            let payload = match self.disk.read(&file, offset, len as usize) {
                Ok(p) => p,
                Err(_) => {
                    report.dropped_corrupt += 1;
                    continue;
                }
            };
            if crc32(&payload) != crc {
                report.dropped_corrupt += 1;
                continue;
            }
            self.runs.write().insert(
                key,
                RunLocator {
                    offset,
                    len,
                    rows,
                    crc,
                },
            );
            report.committed.push(RecoveredRun { col, id, rows });
        }
        Ok(report)
    }

    /// True when (table, column, chunk) is stored.
    pub fn has(&self, table: &str, col: usize, id: ChunkId) -> bool {
        self.runs.read().contains_key(&(table.to_string(), col, id))
    }

    /// Reads the requested columns of a chunk back into a [`BinaryChunk`].
    ///
    /// This is the database-side READ path: no tokenizing, no parsing — one
    /// device read per column plus decode (§3.2.1: "chunks loaded inside the
    /// database can be read directly in the binary chunks buffer without any
    /// tokenizing and parsing").
    pub fn load_chunk(
        &self,
        table: &str,
        schema: &Schema,
        id: ChunkId,
        first_row: u64,
        cols: &[usize],
    ) -> Result<BinaryChunk> {
        let mut rows: Option<u32> = None;
        let mut out_cols: Vec<Option<ColumnData>> = vec![None; schema.len()];
        for &col in cols {
            let key = (table.to_string(), col, id);
            let loc = *self.runs.read().get(&key).ok_or_else(|| {
                Error::storage(format!("column {col} of {id} not stored for '{table}'"))
            })?;
            let file = Self::file_name(table, col);
            let bytes = self.disk.read(&file, loc.offset, loc.len as usize)?;
            if crc32(&bytes) != loc.crc {
                // Read-path corruption (a flipped bit between platter and
                // buffer) — retryable; persistent mismatch means the stored
                // payload itself is bad and the caller falls back to raw.
                return Err(Error::io_corrupt(
                    file,
                    format!("checksum mismatch reading {id} column {col} of '{table}'"),
                ));
            }
            let dt = schema
                .field(col)
                .ok_or_else(|| Error::storage(format!("column {col} out of schema")))?
                .data_type;
            let data = decode_column(&bytes, dt, loc.rows)?;
            match rows {
                Some(r) if r != loc.rows => {
                    return Err(Error::storage(format!(
                        "row count mismatch in stored chunk {id}: {r} vs {}",
                        loc.rows
                    )));
                }
                _ => rows = Some(loc.rows),
            }
            out_cols[col] = Some(data);
        }
        Ok(BinaryChunk {
            id,
            first_row,
            rows: rows.unwrap_or(0),
            columns: out_cols,
        })
    }

    /// Total stored bytes for a table (all columns, all chunks).
    pub fn stored_bytes(&self, table: &str) -> u64 {
        self.runs
            .read()
            .iter()
            .filter(|((t, _, _), _)| t == table)
            .map(|(_, loc)| loc.len)
            .sum()
    }
}

/// Parses one commit record: `v1 <col> <chunk> <offset> <len> <rows> <crc>`.
/// Returns `None` for anything that does not match exactly (torn tails,
/// unknown versions, garbage).
#[allow(clippy::type_complexity)]
fn parse_commit_record(line: &str) -> Option<(usize, ChunkId, u64, u64, u32, u32)> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "v1" {
        return None;
    }
    let col = parts.next()?.parse().ok()?;
    let id = ChunkId(parts.next()?.parse().ok()?);
    let offset = parts.next()?.parse().ok()?;
    let len = parts.next()?.parse().ok()?;
    let rows = parts.next()?.parse().ok()?;
    let crc = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((col, id, offset, len, rows, crc))
}

/// Flat little-endian encoding; strings are `u32` length + bytes.
fn encode_column(data: &ColumnData) -> Vec<u8> {
    match data {
        ColumnData::Int64(v) => {
            let mut out = Vec::with_capacity(v.len() * 8);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        ColumnData::Float64(v) => {
            let mut out = Vec::with_capacity(v.len() * 8);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        ColumnData::Utf8(v) => {
            let mut out = Vec::with_capacity(v.iter().map(|s| 4 + s.len()).sum());
            for s in v {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            out
        }
    }
}

fn decode_column(bytes: &[u8], dt: DataType, rows: u32) -> Result<ColumnData> {
    let rows = rows as usize;
    match dt {
        DataType::Int64 => {
            if bytes.len() != rows * 8 {
                return Err(Error::storage("int64 run length mismatch"));
            }
            Ok(ColumnData::Int64(
                bytes
                    .chunks_exact(8)
                    // lint-ok: L013 chunks_exact(8) yields exactly 8 bytes
                    .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            ))
        }
        DataType::Float64 => {
            if bytes.len() != rows * 8 {
                return Err(Error::storage("float64 run length mismatch"));
            }
            Ok(ColumnData::Float64(
                bytes
                    .chunks_exact(8)
                    // lint-ok: L013 chunks_exact(8) yields exactly 8 bytes
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            ))
        }
        DataType::Utf8 => {
            let mut v = Vec::with_capacity(rows);
            let mut pos = 0usize;
            for _ in 0..rows {
                let len_bytes = bytes
                    .get(pos..pos + 4)
                    .ok_or_else(|| Error::storage("truncated string run"))?;
                // lint-ok: L013 the `get(pos..pos + 4)` above pinned the length
                let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
                pos += 4;
                let s = bytes
                    .get(pos..pos + len)
                    .ok_or_else(|| Error::storage("truncated string payload"))?;
                pos += len;
                v.push(
                    String::from_utf8(s.to_vec())
                        .map_err(|_| Error::storage("invalid utf-8 in stored column"))?,
                );
            }
            if pos != bytes.len() {
                return Err(Error::storage("trailing bytes in string run"));
            }
            Ok(ColumnData::Utf8(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanraw_types::Field;

    fn chunk(id: u32) -> BinaryChunk {
        BinaryChunk {
            id: ChunkId(id),
            first_row: id as u64 * 3,
            rows: 3,
            columns: vec![
                Some(ColumnData::Int64(vec![1 + id as i64, 2, 3])),
                Some(ColumnData::Utf8(vec!["a".into(), "bb".into(), "".into()])),
                None,
            ],
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::new("f", DataType::Float64),
        ])
        .unwrap()
    }

    #[test]
    fn store_and_load_roundtrip() {
        let store = ColumnStore::new(SimDisk::instant());
        let c = chunk(0);
        let written = store.store_chunk("t", &c).unwrap();
        assert_eq!(written, vec![0, 1]);
        let back = store
            .load_chunk("t", &schema(), ChunkId(0), 0, &[0, 1])
            .unwrap();
        assert_eq!(back.column(0), c.column(0));
        assert_eq!(back.column(1), c.column(1));
        assert_eq!(back.rows, 3);
    }

    #[test]
    fn partial_load() {
        let store = ColumnStore::new(SimDisk::instant());
        store.store_chunk("t", &chunk(0)).unwrap();
        let back = store
            .load_chunk("t", &schema(), ChunkId(0), 0, &[1])
            .unwrap();
        assert!(back.column(0).is_none());
        assert!(back.column(1).is_some());
    }

    #[test]
    fn duplicate_store_is_idempotent() {
        let store = ColumnStore::new(SimDisk::instant());
        let first = store.store_chunk("t", &chunk(0)).unwrap();
        assert_eq!(first.len(), 2);
        let second = store.store_chunk("t", &chunk(0)).unwrap();
        assert!(second.is_empty(), "already-stored columns are skipped");
    }

    #[test]
    fn column_subset_store_writes_only_named_cells() {
        let store = ColumnStore::new(SimDisk::instant());
        let written = store.store_chunk_cols("t", &chunk(0), &[1]).unwrap();
        assert_eq!(written, vec![1]);
        assert!(!store.has("t", 0, ChunkId(0)));
        assert!(store.has("t", 1, ChunkId(0)));
        // Absent columns (index 2 is None) and out-of-range indices are
        // skipped, not errors.
        let rest = store
            .store_chunk_cols("t", &chunk(0), &[0, 1, 2, 9])
            .unwrap();
        assert_eq!(rest, vec![0], "column 1 already stored, 2 absent");
        let back = store
            .load_chunk("t", &schema(), ChunkId(0), 0, &[0, 1])
            .unwrap();
        assert_eq!(back.column(0), chunk(0).column(0));
    }

    #[test]
    fn missing_chunk_is_error() {
        let store = ColumnStore::new(SimDisk::instant());
        assert!(store
            .load_chunk("t", &schema(), ChunkId(9), 0, &[0])
            .is_err());
    }

    #[test]
    fn multiple_chunks_per_column_file() {
        let store = ColumnStore::new(SimDisk::instant());
        for i in 0..4 {
            store.store_chunk("t", &chunk(i)).unwrap();
        }
        for i in 0..4 {
            let back = store
                .load_chunk("t", &schema(), ChunkId(i), 0, &[0])
                .unwrap();
            match back.column(0).unwrap() {
                ColumnData::Int64(v) => assert_eq!(v[0], 1 + i as i64),
                _ => panic!("wrong type"),
            }
        }
    }

    #[test]
    fn tables_are_isolated() {
        let store = ColumnStore::new(SimDisk::instant());
        store.store_chunk("t1", &chunk(0)).unwrap();
        assert!(store.has("t1", 0, ChunkId(0)));
        assert!(!store.has("t2", 0, ChunkId(0)));
        assert!(store
            .load_chunk("t2", &schema(), ChunkId(0), 0, &[0])
            .is_err());
    }

    #[test]
    fn stored_bytes_accounting() {
        let store = ColumnStore::new(SimDisk::instant());
        store.store_chunk("t", &chunk(0)).unwrap();
        // 3 i64 = 24 bytes, strings = (4+1)+(4+2)+(4+0) = 15.
        assert_eq!(store.stored_bytes("t"), 39);
        assert_eq!(store.stored_bytes("other"), 0);
    }

    #[test]
    fn corrupted_payload_detected_by_checksum() {
        let store = ColumnStore::new(SimDisk::instant());
        store.store_chunk("t", &chunk(0)).unwrap();
        // Damage one stored byte directly (bypassing the device model).
        let file = "db/t/col0.bin";
        let byte = store.disk().read(file, 0, 1).unwrap()[0];
        store
            .disk()
            .storage()
            .write_at(file, 0, &[byte ^ 0x40])
            .unwrap();
        let err = store
            .load_chunk("t", &schema(), ChunkId(0), 0, &[0])
            .unwrap_err();
        assert_eq!(
            err.io_kind(),
            Some(scanraw_types::IoErrorKind::Corrupt),
            "{err}"
        );
        // The untouched column still loads.
        store
            .load_chunk("t", &schema(), ChunkId(0), 0, &[1])
            .unwrap();
    }

    #[test]
    fn recover_rebuilds_runs_from_commit_log() {
        let disk = SimDisk::instant();
        {
            let store = ColumnStore::new(disk.clone());
            for i in 0..3 {
                store.store_chunk("t", &chunk(i)).unwrap();
            }
        }
        // "Restart": a fresh store over the surviving device.
        let store = ColumnStore::new(disk);
        assert!(!store.has("t", 0, ChunkId(0)));
        let report = store.recover("t", &schema()).unwrap();
        assert_eq!(report.committed.len(), 6, "3 chunks × 2 present columns");
        assert_eq!(report.dropped_corrupt, 0);
        assert_eq!(report.dropped_malformed, 0);
        for i in 0..3 {
            let back = store
                .load_chunk("t", &schema(), ChunkId(i), 0, &[0, 1])
                .unwrap();
            assert_eq!(back.column(0), chunk(i).column(0));
        }
    }

    #[test]
    fn recover_drops_uncommitted_payload() {
        let disk = SimDisk::instant();
        let store = ColumnStore::new(disk.clone());
        store.store_chunk("t", &chunk(0)).unwrap();
        // Simulate a crash after a payload append but before its commit
        // record: orphan bytes at the tail of the column file.
        disk.storage().append("db/t/col0.bin", &[0xAA; 24]).unwrap();
        let fresh = ColumnStore::new(disk);
        let report = fresh.recover("t", &schema()).unwrap();
        assert_eq!(report.committed.len(), 2);
        assert!(fresh.has("t", 0, ChunkId(0)));
        assert!(!fresh.has("t", 0, ChunkId(1)), "orphan never committed");
    }

    #[test]
    fn recover_drops_torn_log_tail() {
        let disk = SimDisk::instant();
        let store = ColumnStore::new(disk.clone());
        store.store_chunk("t", &chunk(0)).unwrap();
        store.store_chunk("t", &chunk(1)).unwrap();
        // Tear the last committed record: strip the trailing newline plus a
        // few characters, as a crash mid-append would.
        let log = "db/t/commit.log";
        let len = disk.len(log).unwrap();
        let all = disk.read(log, 0, len as usize).unwrap();
        let torn = &all[..all.len() - 4];
        disk.storage().put(log, torn.to_vec());
        let fresh = ColumnStore::new(disk);
        let report = fresh.recover("t", &schema()).unwrap();
        assert_eq!(report.dropped_malformed, 1);
        // Chunk 1's second column lost its commit record → not recovered.
        assert_eq!(report.committed.len(), 3);
        assert!(fresh.has("t", 0, ChunkId(1)));
        assert!(!fresh.has("t", 1, ChunkId(1)));
    }

    #[test]
    fn recover_drops_corrupt_payload() {
        let disk = SimDisk::instant();
        let store = ColumnStore::new(disk.clone());
        store.store_chunk("t", &chunk(0)).unwrap();
        let byte = disk.read("db/t/col1.bin", 0, 1).unwrap()[0];
        disk.storage()
            .write_at("db/t/col1.bin", 0, &[byte ^ 0x01])
            .unwrap();
        let fresh = ColumnStore::new(disk);
        let report = fresh.recover("t", &schema()).unwrap();
        assert_eq!(report.dropped_corrupt, 1);
        assert!(fresh.has("t", 0, ChunkId(0)));
        assert!(!fresh.has("t", 1, ChunkId(0)));
    }

    #[test]
    fn recover_without_log_is_empty() {
        let store = ColumnStore::new(SimDisk::instant());
        let report = store.recover("t", &schema()).unwrap();
        assert_eq!(report, RecoveredRuns::default());
    }

    #[test]
    fn commit_record_parser_rejects_garbage() {
        assert!(parse_commit_record("v1 0 3 128 64 8 123456").is_some());
        assert!(parse_commit_record("v2 0 3 128 64 8 123456").is_none());
        assert!(parse_commit_record("v1 0 3 128 64 8").is_none());
        assert!(parse_commit_record("v1 0 3 128 64 8 123456 extra").is_none());
        assert!(parse_commit_record("v1 x 3 128 64 8 123456").is_none());
        assert!(parse_commit_record("").is_none());
    }

    /// The on-disk bytes of one stored chunk, captured before the CRC became
    /// table-driven: payload encoding and commit records (CRCs included)
    /// must never change without a format version.
    #[test]
    fn stored_bytes_are_pinned() {
        let store = ColumnStore::new(SimDisk::instant());
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let floats = [-0.0, nan, 1.5, f64::NEG_INFINITY];
        let c = BinaryChunk {
            id: ChunkId(7),
            first_row: 57_344,
            rows: 4,
            columns: vec![
                Some(ColumnData::Int64(vec![i64::MIN, -1, 0, i64::MAX])),
                Some(ColumnData::Utf8(vec![
                    "".into(),
                    "héllo".into(),
                    "日本".into(),
                    "a b".into(),
                ])),
                Some(ColumnData::Float64(floats.to_vec())),
            ],
        };
        assert_eq!(store.store_chunk("t", &c).unwrap(), vec![0, 1, 2]);
        let file = |name: &str| {
            let len = store.disk().len(name).unwrap();
            store.disk().read(name, 0, len as usize).unwrap()
        };
        #[rustfmt::skip]
        let expected: [&[u8]; 3] = [
            &[
                0, 0, 0, 0, 0, 0, 0, 128, 255, 255, 255, 255, 255, 255, 255, 255,
                0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 127,
            ],
            &[
                0, 0, 0, 0, 6, 0, 0, 0, 104, 195, 169, 108, 108, 111, 6, 0,
                0, 0, 230, 151, 165, 230, 156, 172, 3, 0, 0, 0, 97, 32, 98,
            ],
            &[
                0, 0, 0, 0, 0, 0, 0, 128, 239, 190, 173, 222, 0, 0, 248, 127,
                0, 0, 0, 0, 0, 0, 248, 63, 0, 0, 0, 0, 0, 0, 240, 255,
            ],
        ];
        for (col, bytes) in expected.iter().enumerate() {
            assert_eq!(file(&format!("db/t/col{col}.bin")), *bytes, "column {col}");
        }
        assert_eq!(
            String::from_utf8(file("db/t/commit.log")).unwrap(),
            "\nv1 0 7 0 32 4 2984949478\n\nv1 1 7 0 31 4 2211592753\n\nv1 2 7 0 32 4 1442723685\n"
        );
        let back = store
            .load_chunk("t", &schema(), ChunkId(7), 57_344, &[0, 1, 2])
            .unwrap();
        assert_eq!(back.column(0), c.column(0));
        assert_eq!(back.column(1), c.column(1));
        match back.column(2) {
            Some(ColumnData::Float64(v)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(v), bits(&floats));
            }
            other => panic!("wrong column: {other:?}"),
        }
    }

    #[test]
    fn float_roundtrip() {
        let store = ColumnStore::new(SimDisk::instant());
        let c = BinaryChunk {
            id: ChunkId(0),
            first_row: 0,
            rows: 2,
            columns: vec![None, None, Some(ColumnData::Float64(vec![1.5, -0.25]))],
        };
        store.store_chunk("t", &c).unwrap();
        let back = store
            .load_chunk("t", &schema(), ChunkId(0), 0, &[2])
            .unwrap();
        assert_eq!(back.column(2), c.column(2));
    }
}
