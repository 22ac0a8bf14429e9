//! Raw-file access and conversion stages for ScanRaw.
//!
//! Implements the generic raw-file query-processing decomposition of paper §2:
//!
//! * [`chunker`] — READ support: splits a flat file into line-aligned chunks
//!   (the paper's reading/processing unit) while streaming from the device;
//! * [`plan`] — the [`ConversionPlan`]: what to tokenize and convert, decided
//!   once per scan, and the one entry into the two stages below;
//! * [`swar`] — the word-at-a-time byte search the chunker and both stages
//!   below find their newlines and delimiters with;
//! * [`tokenize`] — TOKENIZE: positional maps, full and selective;
//! * [`parse`] — PARSE(+MAP): typed conversion into columnar [`BinaryChunk`]s,
//!   with selective parsing and optional push-down selection;
//! * [`dialect`] — delimiter configuration (CSV, TSV/SAM);
//! * [`generate`] — synthetic data generators (the paper's micro-benchmark
//!   suite: 2^20–2^28 rows × 2–256 integer columns);
//! * [`sam`] — the SAM genomic format: schema, record model, generator;
//! * [`bamsim`] — a compressed binary container with a deliberately
//!   *sequential* reader library, standing in for BAM + BAMTools (Table 1).
//!
//! [`BinaryChunk`]: scanraw_types::BinaryChunk

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod bamsim;
pub mod chunker;
pub mod dialect;
pub mod generate;
pub mod parse;
pub mod plan;
pub mod sam;
pub mod swar;
pub mod tokenize;

pub use chunker::ChunkReader;
pub use dialect::TextDialect;
pub use parse::{parse_chunk, parse_chunk_projected};
pub use plan::{ConversionPlan, RowPredicate};
pub use scanraw_types::{ChunkLayout, ChunkMeta};
pub use tokenize::{tokenize_chunk, tokenize_chunk_selective};
