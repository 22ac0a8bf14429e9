//! The conversion plan: every decision TOKENIZE and PARSE would otherwise
//! repeat per chunk, per row or per value, taken once.
//!
//! A [`ConversionPlan`] is built from (schema, dialect, columns to convert,
//! optional push-down predicate) when a scan starts — one per distinct
//! column set, never per chunk — and is the single entry into the conversion
//! kernel: [`ConversionPlan::tokenize`] (in [`crate::tokenize`]) and
//! [`ConversionPlan::parse`] (in [`crate::parse`]).

use crate::dialect::TextDialect;
use scanraw_types::{DataType, Error, Result, Schema, Value};
use std::sync::Arc;

/// Row predicate of a push-down selection: receives the values of the
/// predicate's columns, in the order they were given to the plan.
pub type RowPredicate = Arc<dyn Fn(&[Value]) -> bool + Send + Sync>;

/// One column the kernel converts, with the converter its type selects.
#[derive(Clone, Copy)]
pub(crate) struct PlanColumn {
    pub(crate) index: usize,
    pub(crate) data_type: DataType,
}

/// Push-down selection (paper §2, PARSE): the predicate's columns are
/// converted first, the plan's columns only for rows the predicate keeps.
pub(crate) struct Pushdown {
    /// In the order the predicate expects its values.
    pub(crate) columns: Vec<PlanColumn>,
    pub(crate) predicate: RowPredicate,
}

/// What to tokenize and what to convert, resolved once per scan.
pub struct ConversionPlan {
    pub(crate) delimiter: u8,
    /// Width of the schema: the column slots of a produced chunk.
    pub(crate) width: usize,
    /// Leading attributes per line whose start TOKENIZE records.
    pub(crate) cols_mapped: usize,
    /// Columns to convert, ascending and distinct.
    pub(crate) columns: Vec<PlanColumn>,
    pub(crate) pushdown: Option<Pushdown>,
}

impl ConversionPlan {
    /// Plan converting the `convert` columns of `schema` (any order,
    /// duplicates ignored), under an optional push-down selection: the
    /// columns its predicate reads, in the order it expects their values.
    /// With one, the chunks [`parse`](Self::parse) produces hold the
    /// qualifying rows only — for immediate consumption, not for loading
    /// (§2 WRITE). TOKENIZE maps up to the last column either side needs.
    ///
    /// # Errors
    ///
    /// `Error::Schema` when a column lies outside the schema.
    pub fn new(
        schema: &Schema,
        dialect: TextDialect,
        convert: &[usize],
        pushdown: Option<(&[usize], RowPredicate)>,
    ) -> Result<Self> {
        let mut sorted = convert.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let columns = typed(schema, &sorted)?;
        let pushdown = match pushdown {
            Some((columns, predicate)) => Some(Pushdown {
                columns: typed(schema, columns)?,
                predicate,
            }),
            None => None,
        };
        let read = pushdown.iter().flat_map(|pd| &pd.columns).chain(&columns);
        Ok(ConversionPlan {
            delimiter: dialect.delimiter,
            width: schema.len(),
            cols_mapped: read.map(|c| c.index + 1).max().unwrap_or(1),
            columns,
            pushdown,
        })
    }

    /// Plan that only tokenizes: the first `cols_mapped` attribute starts of
    /// lines holding `n_cols` attributes.
    ///
    /// # Errors
    ///
    /// `Error::Config` unless `1 <= cols_mapped <= n_cols`.
    pub fn prefix(dialect: TextDialect, n_cols: usize, cols_mapped: usize) -> Result<Self> {
        if cols_mapped == 0 || cols_mapped > n_cols {
            return Err(Error::Config(format!(
                "cols_mapped must be in 1..={n_cols}, got {cols_mapped}"
            )));
        }
        Ok(ConversionPlan {
            delimiter: dialect.delimiter,
            width: n_cols,
            cols_mapped,
            columns: Vec::new(),
            pushdown: None,
        })
    }

    /// The columns the plan converts, ascending.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.columns.iter().map(|c| c.index)
    }

    /// Leading attributes per line that [`tokenize`](Self::tokenize) maps.
    pub fn cols_mapped(&self) -> usize {
        self.cols_mapped
    }

    /// True when [`parse`](Self::parse) drops the rows a predicate rejects.
    pub fn filters_rows(&self) -> bool {
        self.pushdown.is_some()
    }
}

fn typed(schema: &Schema, columns: &[usize]) -> Result<Vec<PlanColumn>> {
    let column = |&index: &usize| {
        let field = schema.field(index).ok_or_else(|| {
            Error::Schema(format!(
                "column {index} out of range for schema of {}",
                schema.len()
            ))
        })?;
        Ok(PlanColumn {
            index,
            data_type: field.data_type,
        })
    };
    columns.iter().map(column).collect()
}
