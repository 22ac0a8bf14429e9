//! The cost model feeding the simulator, and its calibration from the real
//! conversion stages.

use scanraw_rawfile::generate::{csv_bytes, CsvSpec};
use scanraw_rawfile::{parse_chunk, tokenize_chunk, TextDialect};
use scanraw_types::{ChunkId, Schema, TextChunk};
use std::time::Instant;

/// Per-unit costs of every pipeline activity, in nanoseconds.
///
/// The CPU-side constants are intended to be *measured* on the machine the
/// experiments run on ([`measure_cost_model`]); the device-side constants
/// default to the paper's storage system (§5 "System": 436 MB/s average
/// read).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Device read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Device write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Latency of switching the device between reading and writing, ns.
    pub seek_ns: f64,
    /// TOKENIZE: ns per byte scanned while splitting attributes.
    pub tokenize_split_ns_per_byte: f64,
    /// TOKENIZE: ns per byte skipped while only looking for the newline
    /// (the cheap tail of selective tokenizing).
    pub tokenize_skip_ns_per_byte: f64,
    /// PARSE(+MAP): ns per attribute value converted to binary.
    pub parse_ns_per_value: f64,
    /// Execution engine: ns per value consumed (the paper's engine is
    /// I/O-bound; this is deliberately small).
    pub engine_ns_per_value: f64,
    /// Fixed scheduling/dispatch overhead per worker task, ns (drives the
    /// small-chunk penalty of Figure 7).
    pub dispatch_ns: f64,
}

impl CostModel {
    /// Paper-nominal device over calibrated-CPU defaults: used when a quick
    /// model is needed without running calibration (unit tests).
    pub fn nominal() -> Self {
        CostModel {
            read_bw: 436.0 * 1024.0 * 1024.0,
            write_bw: 436.0 * 1024.0 * 1024.0,
            seek_ns: 5.0e6,
            tokenize_split_ns_per_byte: 1.2,
            tokenize_skip_ns_per_byte: 0.3,
            parse_ns_per_value: 25.0,
            engine_ns_per_value: 1.0,
            dispatch_ns: 30_000.0,
        }
    }

    /// Rescales the device bandwidth so that one worker, converting and
    /// executing, saturates `1/n` of the disk — i.e. the CPU↔I/O crossover lands at `n` workers,
    /// matching the paper's hardware ratio (§5.1 reports the crossover at 6
    /// workers for the 2^26×64 file). Used for the "paper-ratio" variants of
    /// the figure harnesses; the calibrated model keeps the nominal device.
    pub fn with_crossover_at(mut self, n: f64, text_bytes_per_value: f64) -> Self {
        // One worker converts and executes one value in (tokenize + parse +
        // engine) ns; it consumes text_bytes_per_value bytes in that time.
        let ns_per_value = self.tokenize_split_ns_per_byte * text_bytes_per_value
            + self.parse_ns_per_value
            + self.engine_ns_per_value;
        let worker_bytes_per_sec = text_bytes_per_value / (ns_per_value * 1e-9);
        self.read_bw = worker_bytes_per_sec * n;
        self.write_bw = self.read_bw;
        self
    }

    /// Seconds to read `bytes` from the device.
    pub fn read_secs(&self, bytes: f64) -> f64 {
        bytes / self.read_bw
    }

    /// Seconds to write `bytes` to the device.
    pub fn write_secs(&self, bytes: f64) -> f64 {
        bytes / self.write_bw
    }
}

/// Measures the CPU-side constants by running the real TOKENIZE and PARSE
/// implementations over generated data.
///
/// `rows` controls the measurement size (a few hundred thousand values is
/// enough for a stable estimate; this runs in well under a second in release
/// mode).
pub fn measure_cost_model(rows: u64, cols: usize) -> CostModel {
    let spec = CsvSpec::new(rows, cols, 7);
    let bytes = csv_bytes(&spec);
    let n_bytes = bytes.len() as f64;
    let n_values = (rows as usize * cols) as f64;
    let chunk = TextChunk {
        id: ChunkId(0),
        file_offset: 0,
        first_row: 0,
        rows: rows as u32,
        data: bytes::Bytes::from(bytes),
    };
    let schema = Schema::uniform_ints(cols);

    // TOKENIZE, full split.
    // effect-ok: calibration measures real CPU speed; the wall-clock reading is the product
    let t0 = Instant::now();
    let map = tokenize_chunk(&chunk, TextDialect::CSV, cols).expect("generated data tokenizes");
    let tokenize_ns = t0.elapsed().as_nanos() as f64;

    // TOKENIZE, minimal prefix — isolates the newline-skip cost.
    // effect-ok: calibration measures real CPU speed; the wall-clock reading is the product
    let t0 = Instant::now();
    let _ = scanraw_rawfile::tokenize_chunk_selective(&chunk, TextDialect::CSV, cols, 1)
        .expect("tokenizes");
    let skip_ns = t0.elapsed().as_nanos() as f64;

    // PARSE of every value.
    // effect-ok: calibration measures real CPU speed; the wall-clock reading is the product
    let t0 = Instant::now();
    let parsed = parse_chunk(&chunk, &map, TextDialect::CSV, &schema).expect("parses");
    let parse_ns = t0.elapsed().as_nanos() as f64;

    // Engine: sum all values (the paper's aggregate), per value.
    // effect-ok: calibration measures real CPU speed; the wall-clock reading is the product
    let t0 = Instant::now();
    let mut acc = 0i64;
    for col in parsed.columns.iter().flatten() {
        if let scanraw_types::ColumnData::Int64(v) = col {
            for x in v {
                acc = acc.wrapping_add(*x);
            }
        }
    }
    std::hint::black_box(acc);
    let engine_ns = t0.elapsed().as_nanos() as f64;

    let mut m = CostModel::nominal();
    m.tokenize_split_ns_per_byte = (tokenize_ns / n_bytes).max(0.01);
    m.tokenize_skip_ns_per_byte = (skip_ns / n_bytes).max(0.005);
    m.parse_ns_per_value = (parse_ns / n_values).max(0.1);
    m.engine_ns_per_value = (engine_ns / n_values).max(0.01);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_sane() {
        let m = CostModel::nominal();
        assert!(m.read_bw > 1e8);
        assert!(m.parse_ns_per_value > m.engine_ns_per_value);
        assert!(m.tokenize_split_ns_per_byte > m.tokenize_skip_ns_per_byte);
    }

    #[test]
    fn read_write_seconds() {
        let mut m = CostModel::nominal();
        m.read_bw = 1000.0;
        m.write_bw = 500.0;
        assert!((m.read_secs(2000.0) - 2.0).abs() < 1e-12);
        assert!((m.write_secs(2000.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn crossover_rescaling() {
        let m = CostModel::nominal();
        let text_bytes_per_value = 11.0;
        let m6 = m.clone().with_crossover_at(6.0, text_bytes_per_value);
        let m3 = m.with_crossover_at(3.0, text_bytes_per_value);
        assert!((m6.read_bw / m3.read_bw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_produces_positive_costs() {
        let m = measure_cost_model(2000, 8);
        assert!(m.tokenize_split_ns_per_byte > 0.0);
        assert!(m.tokenize_skip_ns_per_byte > 0.0);
        assert!(m.parse_ns_per_value > 0.0);
        assert!(m.engine_ns_per_value > 0.0);
        // Parsing a value costs more than scanning one byte.
        assert!(m.parse_ns_per_value > m.tokenize_split_ns_per_byte);
    }
}
