//! Operator configuration: write policies, buffer sizes, worker counts.

use crate::error::{Error, Result};

/// Scheduling policy for the WRITE thread (paper §3: "The scheduling policy
/// for WRITE dictates the ScanRaw behavior").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Never invoke WRITE — ScanRaw is a parallel external-table operator.
    ExternalTables,
    /// Invoke WRITE for every converted chunk — ScanRaw degenerates into a
    /// parallel Extract-Transform-Load operator ("load & process").
    Eager,
    /// Write a chunk only when it is evicted from the full binary cache
    /// (the NoDB-with-flushing baseline of Fig 8, "buffered loading").
    Buffered,
    /// Load a fixed number of chunks per query regardless of resource
    /// availability (the invisible-loading baseline, Abouzied et al.).
    Invisible {
        /// Chunks force-loaded per query.
        chunks_per_query: u32,
    },
    /// The paper's contribution: write only when READ is blocked (disk idle),
    /// plus the end-of-scan safeguard flush.
    Speculative {
        /// Enables the safeguard mechanism that flushes the binary cache once
        /// the last chunk of the scan has been read (paper §4).
        safeguard: bool,
    },
}

impl WritePolicy {
    /// The paper's default speculative policy (safeguard on).
    pub fn speculative() -> Self {
        WritePolicy::Speculative { safeguard: true }
    }

    /// True if this policy ever writes chunks into the database.
    pub fn may_load(self) -> bool {
        !matches!(self, WritePolicy::ExternalTables)
    }

    /// True if loading is part of the query (the ETL-style policies): a
    /// query completes only once the stores it queued are durable.
    pub fn loads_within_query(self) -> bool {
        matches!(
            self,
            WritePolicy::Eager | WritePolicy::Buffered | WritePolicy::Invisible { .. }
        )
    }

    /// Short label used by experiment harness output.
    pub fn label(self) -> &'static str {
        match self {
            WritePolicy::ExternalTables => "external-tables",
            WritePolicy::Eager => "load+process",
            WritePolicy::Buffered => "buffered-loading",
            WritePolicy::Invisible { .. } => "invisible-loading",
            WritePolicy::Speculative { .. } => "speculative-loading",
        }
    }
}

/// Full configuration of one ScanRaw operator instance.
///
/// Defaults follow the paper's experimental setup scaled to test size:
/// chunk of 2^19 lines in the paper, smaller here; buffer capacities sized so
/// the pipeline can hold several chunks in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRawConfig {
    /// Lines per chunk ("between 2^17 and 2^19 tuples per chunk are optimal",
    /// paper §5.1).
    pub chunk_rows: u32,
    /// Worker threads in the pool (0 = fully sequential conversion).
    pub workers: usize,
    /// Capacity (chunks) of the text-chunks buffer; READ blocks when full.
    pub text_buffer_chunks: usize,
    /// Capacity (chunks) of the position buffer.
    pub position_buffer_chunks: usize,
    /// Capacity (chunks) of the binary-chunks cache.
    pub binary_cache_chunks: usize,
    /// WRITE scheduling policy.
    pub write_policy: WritePolicy,
    /// Additionally collect distinct-count sketches and value samples per
    /// chunk/column for cardinality estimation (paper §3.3, "more advanced
    /// statistics"). Implies a small per-chunk CPU cost during conversion.
    pub advanced_statistics: bool,
    /// For chunks with only *some* required columns loaded, read the loaded
    /// columns from the database and convert just the missing ones from the
    /// raw file, merging the two (paper §3.2.1's trade-off; the paper's
    /// experiments convert everything from raw because they are I/O-bound).
    pub hybrid_reads: bool,
}

impl Default for ScanRawConfig {
    fn default() -> Self {
        ScanRawConfig {
            chunk_rows: 1 << 14,
            workers: 4,
            text_buffer_chunks: 8,
            position_buffer_chunks: 8,
            binary_cache_chunks: 32,
            write_policy: WritePolicy::speculative(),
            advanced_statistics: false,
            hybrid_reads: false,
        }
    }
}

impl ScanRawConfig {
    /// Validates invariants the pipeline relies on.
    ///
    /// # Errors
    ///
    /// Fails when a size parameter (`chunk_rows`, buffer capacities, cache
    /// capacity) is zero, or when invisible loading is asked to write zero
    /// chunks per query. `workers: 0` is accepted: it is the paper's
    /// sequential regime.
    pub fn validate(&self) -> Result<()> {
        if self.chunk_rows == 0 {
            return Err(Error::Config("chunk_rows must be positive".into()));
        }
        if self.text_buffer_chunks == 0 || self.position_buffer_chunks == 0 {
            return Err(Error::Config("pipeline buffers need capacity >= 1".into()));
        }
        if self.binary_cache_chunks == 0 {
            return Err(Error::Config("binary cache needs capacity >= 1".into()));
        }
        if let WritePolicy::Invisible { chunks_per_query } = self.write_policy {
            if chunks_per_query == 0 {
                return Err(Error::Config(
                    "invisible loading needs chunks_per_query >= 1".into(),
                ));
            }
        }
        Ok(())
    }

    /// Builder-style setter for the write policy.
    pub fn with_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// Builder-style setter for the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style setter for lines per chunk.
    pub fn with_chunk_rows(mut self, rows: u32) -> Self {
        self.chunk_rows = rows;
        self
    }

    /// Builder-style setter for the binary cache capacity.
    pub fn with_cache_chunks(mut self, chunks: usize) -> Self {
        self.binary_cache_chunks = chunks;
        self
    }

    /// Builder-style switch for advanced statistics collection.
    pub fn with_advanced_statistics(mut self, on: bool) -> Self {
        self.advanced_statistics = on;
        self
    }

    /// Builder-style switch for hybrid database+raw column reads.
    pub fn with_hybrid_reads(mut self, on: bool) -> Self {
        self.hybrid_reads = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ScanRawConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        let c = ScanRawConfig::default().with_chunk_rows(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_buffers_rejected() {
        let c = ScanRawConfig {
            text_buffer_chunks: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ScanRawConfig {
            binary_cache_chunks: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn invisible_needs_positive_quota() {
        let c = ScanRawConfig::default().with_policy(WritePolicy::Invisible {
            chunks_per_query: 0,
        });
        assert!(c.validate().is_err());
        let c = ScanRawConfig::default().with_policy(WritePolicy::Invisible {
            chunks_per_query: 4,
        });
        c.validate().unwrap();
    }

    #[test]
    fn policy_properties() {
        assert!(!WritePolicy::ExternalTables.may_load());
        assert!(WritePolicy::speculative().may_load());
        assert_eq!(WritePolicy::Eager.label(), "load+process");
    }

    #[test]
    fn builder_chain() {
        let c = ScanRawConfig::default()
            .with_workers(8)
            .with_chunk_rows(1024)
            .with_cache_chunks(2)
            .with_policy(WritePolicy::Buffered);
        assert_eq!(c.workers, 8);
        assert_eq!(c.chunk_rows, 1024);
        assert_eq!(c.binary_cache_chunks, 2);
        assert_eq!(c.write_policy, WritePolicy::Buffered);
    }
}
