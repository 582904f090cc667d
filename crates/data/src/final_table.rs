//! The `finalTable`: the canonical input of SegregationDataCubeBuilder.
//!
//! Fig. 3 of the paper shows the shape: one row per (individual,
//! organizational unit), segregation-attribute columns, context-attribute
//! columns, and a `unitID` column. [`FinalTableSpec`] declares which column
//! plays which role and [`FinalTableSpec::encode`] turns a [`Relation`]
//! into the dictionary-encoded [`TransactionDb`]. Multi-valued cells use
//! `;` as the in-cell separator (`{electricity, transports}` ⇒
//! `electricity;transports`).

use std::path::Path;

use scube_common::{Result, ScubeError};

use crate::chunked::{ChunkedBuildStats, TableMeta, VerticalDbBuilder};
use crate::relation::{CsvRows, Relation};
use crate::schema::{Attribute, Schema};
use crate::transactions::{TransactionDb, TransactionDbBuilder};
use crate::vertical::VerticalDb;

/// In-cell separator for multi-valued attributes.
pub const MULTI_VALUE_SEPARATOR: char = ';';

/// Declares the roles of the columns of a final table.
#[derive(Debug, Clone, Default)]
pub struct FinalTableSpec {
    /// Segregation-attribute columns, with their multi-valued flag.
    pub sa_columns: Vec<(String, bool)>,
    /// Context-attribute columns, with their multi-valued flag.
    pub ca_columns: Vec<(String, bool)>,
    /// The organizational-unit column.
    pub unit_column: String,
}

impl FinalTableSpec {
    /// Start an empty spec with the given unit column.
    pub fn new(unit_column: impl Into<String>) -> Self {
        FinalTableSpec {
            sa_columns: Vec::new(),
            ca_columns: Vec::new(),
            unit_column: unit_column.into(),
        }
    }

    /// Add a single-valued segregation attribute column.
    pub fn sa(mut self, name: impl Into<String>) -> Self {
        self.sa_columns.push((name.into(), false));
        self
    }

    /// Add a multi-valued segregation attribute column.
    pub fn sa_multi(mut self, name: impl Into<String>) -> Self {
        self.sa_columns.push((name.into(), true));
        self
    }

    /// Add a single-valued context attribute column.
    pub fn ca(mut self, name: impl Into<String>) -> Self {
        self.ca_columns.push((name.into(), false));
        self
    }

    /// Add a multi-valued context attribute column.
    pub fn ca_multi(mut self, name: impl Into<String>) -> Self {
        self.ca_columns.push((name.into(), true));
        self
    }

    /// Reconstruct the spec a schema was encoded under (attribute names,
    /// roles, multi-valued flags), so sliced relations of an existing
    /// final table re-encode with identical dictionaries — the base/delta
    /// splits of update experiments and tests rely on this. Exact for
    /// schemas that list SA attributes before CA attributes, which is the
    /// order [`FinalTableSpec::schema`] always produces.
    pub fn from_schema(schema: &Schema, unit_column: impl Into<String>) -> Self {
        let mut spec = FinalTableSpec::new(unit_column);
        for attr in schema.attributes() {
            let columns = match attr.role {
                crate::schema::AttrRole::Segregation => &mut spec.sa_columns,
                crate::schema::AttrRole::Context => &mut spec.ca_columns,
            };
            columns.push((attr.name.clone(), attr.multi_valued));
        }
        spec
    }

    /// The schema induced by the spec (SA attributes first, then CA).
    pub fn schema(&self) -> Result<Schema> {
        let mut attrs = Vec::new();
        for (name, multi) in &self.sa_columns {
            let mut a = Attribute::sa(name.clone());
            a.multi_valued = *multi;
            attrs.push(a);
        }
        for (name, multi) in &self.ca_columns {
            let mut a = Attribute::ca(name.clone());
            a.multi_valued = *multi;
            attrs.push(a);
        }
        Schema::new(attrs)
    }

    /// Encode a relation into a transaction database under this spec.
    pub fn encode(&self, rel: &Relation) -> Result<TransactionDb> {
        let mut enc = self.encoder(rel.columns())?;
        for row in rel.rows() {
            enc.add_record(row)?;
        }
        Ok(enc.finish())
    }

    /// Resolve this spec against a table header: the induced schema, the
    /// column index of every attribute, and the unit column's index.
    fn resolve_columns(&self, columns: &[String]) -> Result<(Schema, Vec<usize>, usize)> {
        let schema = self.schema()?;
        let column_index = |name: &str| columns.iter().position(|c| c == name);
        let mut col_of_attr = Vec::with_capacity(schema.len());
        for attr in schema.attributes() {
            let idx = column_index(&attr.name).ok_or_else(|| {
                ScubeError::Schema(format!("final table misses column '{}'", attr.name))
            })?;
            col_of_attr.push(idx);
        }
        let unit_col = column_index(&self.unit_column).ok_or_else(|| {
            ScubeError::Schema(format!("final table misses unit column '{}'", self.unit_column))
        })?;
        Ok((schema, col_of_attr, unit_col))
    }

    /// Start a streaming encoder over a table with the given `columns`.
    ///
    /// Feed records with [`FinalTableEncoder::add_record`]; only the
    /// dictionary-encoded output accumulates, never the string rows —
    /// peak staging memory is one record regardless of row count.
    pub fn encoder(&self, columns: &[String]) -> Result<FinalTableEncoder> {
        let (schema, col_of_attr, unit_col) = self.resolve_columns(columns)?;
        let builder = TransactionDbBuilder::new(schema.clone());
        Ok(FinalTableEncoder { schema, col_of_attr, unit_col, builder })
    }

    /// Start a *chunked* streaming encoder: records feed a
    /// [`VerticalDbBuilder`] directly, so no horizontal table is ever
    /// materialized — peak memory is the postings plus one `chunk_rows`
    /// chunk of encoded rows. Record parsing (multi-value splitting,
    /// trimming) is shared with [`Self::encoder`], and so is the interning
    /// code underneath, so the output is byte-identical to the resident
    /// path's.
    pub fn chunked_encoder(
        &self,
        columns: &[String],
        chunk_rows: usize,
    ) -> Result<FinalTableEncoder<VerticalDbBuilder>> {
        let (schema, col_of_attr, unit_col) = self.resolve_columns(columns)?;
        let builder = VerticalDbBuilder::new(schema.clone(), chunk_rows);
        Ok(FinalTableEncoder { schema, col_of_attr, unit_col, builder })
    }

    /// Read a CSV file and encode it, streaming record by record — the
    /// string table is never resident as a whole, but the encoded
    /// horizontal table is. This is the resident reference the chunked
    /// build ([`Self::load_csv_chunked`]) is gated byte-identical against;
    /// no CLI path reads through it.
    pub fn load_csv(&self, path: impl AsRef<Path>) -> Result<TransactionDb> {
        let mut rows = CsvRows::open_path(path)?;
        let mut enc = self.encoder(rows.columns())?;
        while let Some(row) = rows.next_row()? {
            enc.add_record(row)?;
        }
        Ok(enc.finish())
    }

    /// Read a CSV file straight into postings, chunk by chunk: the
    /// bounded-memory counterpart of [`Self::load_csv`] and the ingest of
    /// every `--final-table` build. Returns the vertical database, the
    /// table metadata (schema, dictionary, unit names), and the chunk
    /// residency stats.
    pub fn load_csv_chunked(
        &self,
        path: impl AsRef<Path>,
        chunk_rows: usize,
    ) -> Result<(VerticalDb, TableMeta, ChunkedBuildStats)> {
        let mut rows = CsvRows::open_path(path)?;
        let mut enc = self.chunked_encoder(rows.columns(), chunk_rows)?;
        while let Some(row) = rows.next_row()? {
            enc.add_record(row)?;
        }
        enc.into_builder().finish()
    }
}

/// Where a [`FinalTableEncoder`] sends its dictionary-encoded rows: the
/// resident [`TransactionDbBuilder`] (horizontal table accumulates) or the
/// chunked [`VerticalDbBuilder`] (postings accumulate, rows don't).
pub trait RowSink {
    /// Add one encoded row; same contract as
    /// [`TransactionDbBuilder::add_row`].
    fn add_row<S: AsRef<str>>(&mut self, values: &[Vec<S>], unit: &str) -> Result<()>;

    /// Rows consumed so far.
    fn len(&self) -> usize;

    /// Whether no rows have been consumed yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RowSink for TransactionDbBuilder {
    fn add_row<S: AsRef<str>>(&mut self, values: &[Vec<S>], unit: &str) -> Result<()> {
        TransactionDbBuilder::add_row(self, values, unit)
    }

    fn len(&self) -> usize {
        TransactionDbBuilder::len(self)
    }
}

impl RowSink for VerticalDbBuilder {
    fn add_row<S: AsRef<str>>(&mut self, values: &[Vec<S>], unit: &str) -> Result<()> {
        VerticalDbBuilder::add_row(self, values, unit)
    }

    fn len(&self) -> usize {
        VerticalDbBuilder::len(self)
    }
}

/// Streaming counterpart of [`FinalTableSpec::encode`]: records go in one
/// at a time (e.g. from [`CsvRows`]) and only the dictionary-encoded output
/// accumulates — a [`TransactionDb`] through the default
/// [`TransactionDbBuilder`] sink, or postings through a
/// [`VerticalDbBuilder`] sink (see [`FinalTableSpec::chunked_encoder`]).
pub struct FinalTableEncoder<B: RowSink = TransactionDbBuilder> {
    schema: Schema,
    col_of_attr: Vec<usize>,
    unit_col: usize,
    builder: B,
}

impl<B: RowSink> FinalTableEncoder<B> {
    /// Encode one record. Its arity must cover every declared column
    /// (CSV readers enforce this against the header already).
    pub fn add_record(&mut self, row: &[String]) -> Result<()> {
        let width = self.col_of_attr.iter().chain([&self.unit_col]).max().unwrap() + 1;
        if row.len() < width {
            return Err(ScubeError::Schema(format!(
                "record has {} fields, spec needs {width}",
                row.len()
            )));
        }
        let mut values: Vec<Vec<&str>> = vec![Vec::new(); self.schema.len()];
        for (a, attr) in self.schema.attributes().iter().enumerate() {
            let cell = row[self.col_of_attr[a]].as_str();
            if attr.multi_valued {
                values[a].extend(
                    cell.split(MULTI_VALUE_SEPARATOR).map(str::trim).filter(|v| !v.is_empty()),
                );
            } else if !cell.trim().is_empty() {
                values[a].push(cell);
            }
        }
        self.builder.add_row(&values, &row[self.unit_col])
    }

    /// Number of records encoded so far.
    pub fn len(&self) -> usize {
        self.builder.len()
    }

    /// True when no records have been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tear down into the underlying sink (e.g. to
    /// [`VerticalDbBuilder::finish`] a chunked build).
    pub fn into_builder(self) -> B {
        self.builder
    }
}

impl FinalTableEncoder<TransactionDbBuilder> {
    /// Finish into the encoded transaction database.
    pub fn finish(self) -> TransactionDb {
        self.builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_relation() -> Relation {
        let mut r = Relation::new(
            ["gender", "age", "residence", "sector", "unitID"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
        .unwrap();
        // Rows mirror the finalTable of the paper's Fig. 3 (left, bottom).
        for row in [
            ["M", "15-38", "north", "education", "1"],
            ["F", "39-46", "south", "electricity;transports", "2"],
            ["M", "55-65", "south", "agriculture", "1"],
        ] {
            r.push_row(row.iter().map(|s| s.to_string()).collect()).unwrap();
        }
        r
    }

    fn spec() -> FinalTableSpec {
        FinalTableSpec::new("unitID").sa("gender").sa("age").ca("residence").ca_multi("sector")
    }

    #[test]
    fn encode_fig3_final_table() {
        let db = spec().encode(&sample_relation()).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.num_units(), 2);
        // Row 1 has a multi-valued sector: 2 SA items + 1 CA + 2 CA = 5.
        assert_eq!(db.transaction(1).len(), 5);
        let labels: Vec<String> = db.transaction(1).iter().map(|&i| db.item_label(i)).collect();
        assert!(labels.contains(&"sector=electricity".to_string()));
        assert!(labels.contains(&"sector=transports".to_string()));
        assert!(labels.contains(&"gender=F".to_string()));
    }

    #[test]
    fn schema_roles_follow_spec() {
        let schema = spec().schema().unwrap();
        assert_eq!(schema.sa_ids().len(), 2);
        assert_eq!(schema.ca_ids().len(), 2);
        assert!(schema.attr(3).multi_valued);
    }

    #[test]
    fn missing_column_is_schema_error() {
        let r = Relation::new(vec!["gender".into(), "unitID".into()]).unwrap();
        let err = spec().encode(&r).unwrap_err();
        assert!(err.to_string().contains("misses column"));
    }

    #[test]
    fn missing_unit_column_is_schema_error() {
        let mut bad = spec();
        bad.unit_column = "nope".into();
        let err = bad.encode(&sample_relation()).unwrap_err();
        assert!(err.to_string().contains("unit column"));
    }

    #[test]
    fn multivalued_whitespace_trimmed() {
        let mut r = Relation::new(vec!["gender".into(), "sector".into(), "u".into()]).unwrap();
        r.push_row(vec!["F".into(), " a ; b ;; ".into(), "x".into()]).unwrap();
        let spec = FinalTableSpec::new("u").sa("gender").ca_multi("sector");
        let db = spec.encode(&r).unwrap();
        let labels: Vec<String> = db.transaction(0).iter().map(|&i| db.item_label(i)).collect();
        assert!(labels.contains(&"sector=a".to_string()));
        assert!(labels.contains(&"sector=b".to_string()));
        assert_eq!(db.transaction(0).len(), 3);
    }
}
