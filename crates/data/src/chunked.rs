//! Chunked, bounded-memory construction of a [`VerticalDb`].
//!
//! The resident build path materializes the whole horizontal
//! [`crate::TransactionDb`] before transposing it into postings — at 10⁷
//! rows that is gigabytes of items and offsets held only to be thrown away.
//! [`VerticalDbBuilder`] skips the horizontal table entirely: rows are
//! dictionary-encoded one at a time through the *same*
//! [`TransactionDbBuilder`] interning code (so first-occurrence item and
//! unit order — the canonical labeling snapshot byte-identity depends on —
//! cannot drift), staged in a bounded chunk, and folded into the postings
//! via [`VerticalDb::append_rows`]. Chunks arrive in ascending tid order,
//! so every flush is a pure posting tail-append
//! ([`scube_bitmap::EwahBitmap::append_sorted`]) — no merge sort, and the
//! grown postings are byte-identical to a one-shot build's.
//!
//! Peak memory is therefore bounded by the *output* (postings + dictionary)
//! plus one chunk of staged rows, never by the input table.

use scube_common::{Result, ScubeError};

use crate::dictionary::{Dictionary, ItemId};
use crate::schema::{AttrRole, Schema};
use crate::transactions::{TransactionDbBuilder, UnitId};
use crate::vertical::VerticalDb;

/// Default chunk size: large enough that per-flush posting-append overhead
/// amortizes away, small enough that staged rows stay a rounding error next
/// to the postings themselves.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// The encoding state of a table without its rows: schema, item
/// dictionary, and unit names. What the chunked build keeps where the
/// resident path would keep a whole [`crate::TransactionDb`] — everything
/// the cube layer needs for labeling cells, and nothing that grows with
/// the row count.
#[derive(Debug, Clone)]
pub struct TableMeta {
    schema: Schema,
    dictionary: Dictionary,
    unit_names: Vec<String>,
}

impl TableMeta {
    /// Assemble from parts (normally produced by
    /// [`VerticalDbBuilder::finish`]).
    pub fn new(schema: Schema, dictionary: Dictionary, unit_names: Vec<String>) -> Self {
        TableMeta { schema, dictionary, unit_names }
    }

    /// The schema the items were encoded under.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The item dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// All unit names, indexed by [`UnitId`].
    pub fn unit_names(&self) -> &[String] {
        &self.unit_names
    }

    /// Number of distinct organizational units.
    pub fn num_units(&self) -> usize {
        self.unit_names.len()
    }

    /// Is `item` a segregation-attribute item?
    pub fn is_sa_item(&self, item: ItemId) -> bool {
        self.schema.attr(self.dictionary.attr_of(item)).role == AttrRole::Segregation
    }
}

/// What the chunked build held resident at its fullest moment — the
/// numbers a `--final-table` run reports so scale logs are self-describing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkedBuildStats {
    /// Configured chunk capacity (rows per flush).
    pub chunk_rows: usize,
    /// Total rows consumed.
    pub rows: usize,
    /// Number of chunk flushes into the postings.
    pub flushes: usize,
    /// Rows staged at the fullest flush (≤ `chunk_rows`).
    pub peak_chunk_rows: usize,
    /// Item ids staged at the fullest flush.
    pub peak_chunk_items: usize,
}

/// Streaming builder of a [`VerticalDb`]: rows in, postings out, no
/// horizontal table in between (see the module docs).
#[derive(Debug)]
pub struct VerticalDbBuilder {
    /// Dictionary/unit interning engine. Rows are encoded through
    /// [`TransactionDbBuilder::encode_row`] only — its horizontal stores
    /// (items, offsets, units) never grow on this path.
    encoder: TransactionDbBuilder,
    vertical: VerticalDb,
    chunk: Vec<(Vec<ItemId>, UnitId)>,
    chunk_items: usize,
    chunk_rows: usize,
    stats: ChunkedBuildStats,
}

impl VerticalDbBuilder {
    /// Start building under the given schema, flushing every `chunk_rows`
    /// rows (clamped to at least 1).
    pub fn new(schema: Schema, chunk_rows: usize) -> Self {
        let chunk_rows = chunk_rows.max(1);
        VerticalDbBuilder {
            encoder: TransactionDbBuilder::new(schema),
            vertical: VerticalDb::empty(),
            chunk: Vec::new(),
            chunk_items: 0,
            chunk_rows,
            stats: ChunkedBuildStats { chunk_rows, ..Default::default() },
        }
    }

    /// Number of rows consumed so far (flushed + staged).
    pub fn len(&self) -> usize {
        self.vertical.num_transactions() as usize + self.chunk.len()
    }

    /// True when no rows have been consumed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add one individual — same contract as
    /// [`TransactionDbBuilder::add_row`]: `values[a]` holds the values of
    /// attribute `a`, `unit` the unit name. The row is encoded immediately
    /// (dictionary and unit interning happen in row order, exactly as the
    /// resident path would) and staged; a full chunk flushes into the
    /// postings.
    pub fn add_row<S: AsRef<str>>(&mut self, values: &[Vec<S>], unit: &str) -> Result<()> {
        let (unit_id, items) = self.encoder.encode_row(values, unit)?;
        self.chunk_items += items.len();
        self.chunk.push((items.to_vec(), unit_id));
        if self.chunk.len() >= self.chunk_rows {
            self.flush()?;
        }
        Ok(())
    }

    /// Fold the staged chunk into the postings. Rows were staged in tid
    /// order, so this is a pure tail-append per touched item.
    fn flush(&mut self) -> Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        self.stats.flushes += 1;
        self.stats.peak_chunk_rows = self.stats.peak_chunk_rows.max(self.chunk.len());
        self.stats.peak_chunk_items = self.stats.peak_chunk_items.max(self.chunk_items);
        self.vertical
            .append_rows(
                &self.chunk,
                self.encoder.dictionary().len(),
                self.encoder.num_units() as u32,
            )
            .map_err(ScubeError::Inconsistent)?;
        self.chunk.clear();
        self.chunk_items = 0;
        Ok(())
    }

    /// Flush the final partial chunk and tear down into the grown vertical
    /// database, the table metadata (dictionary, schema, unit names), and
    /// the residency stats.
    pub fn finish(mut self) -> Result<(VerticalDb, TableMeta, ChunkedBuildStats)> {
        self.flush()?;
        self.stats.rows = self.vertical.num_transactions() as usize;
        let (schema, dictionary, unit_names) = self.encoder.into_encoding_parts();
        Ok((self.vertical, TableMeta::new(schema, dictionary, unit_names), self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::transactions::TransactionDb;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::sa("gender"),
            Attribute::ca("region"),
            Attribute::ca("sector").multi(),
        ])
        .unwrap()
    }

    fn rows() -> Vec<(Vec<Vec<&'static str>>, &'static str)> {
        vec![
            (vec![vec!["F"], vec!["north"], vec!["edu", "transport"]], "u1"),
            (vec![vec!["M"], vec!["south"], vec!["edu"]], "u2"),
            (vec![vec!["F"], vec!["north"], vec![]], "u1"),
            (vec![vec!["M"], vec!["north"], vec!["agri"]], "u3"),
            (vec![vec!["F"], vec!["south"], vec!["edu"]], "u2"),
        ]
    }

    fn resident() -> TransactionDb {
        let mut b = TransactionDbBuilder::new(schema());
        for (values, unit) in rows() {
            b.add_row(&values, unit).unwrap();
        }
        b.finish()
    }

    fn check_chunked_matches_resident(chunk: usize) {
        let db = resident();
        let expected = VerticalDb::build(&db);
        let mut b = VerticalDbBuilder::new(schema(), chunk);
        for (values, unit) in rows() {
            b.add_row(&values, unit).unwrap();
        }
        let (vertical, meta, stats) = b.finish().unwrap();
        assert_eq!(vertical.num_transactions(), expected.num_transactions(), "chunk {chunk}");
        assert_eq!(vertical.units(), expected.units(), "chunk {chunk}");
        assert_eq!(vertical.num_items(), expected.num_items(), "chunk {chunk}");
        for it in 0..expected.num_items() {
            assert_eq!(
                vertical.posting(it as ItemId),
                expected.posting(it as ItemId),
                "chunk {chunk} item {it}"
            );
        }
        // Dictionary intern order must be identical, not just equivalent.
        assert_eq!(meta.dictionary().len(), db.dictionary().len(), "chunk {chunk}");
        for it in 0..db.dictionary().len() as ItemId {
            assert_eq!(meta.dictionary().attr_of(it), db.dictionary().attr_of(it));
            assert_eq!(meta.dictionary().value_of(it), db.dictionary().value_of(it));
            assert_eq!(meta.is_sa_item(it), db.is_sa_item(it));
        }
        assert_eq!(meta.unit_names(), db.unit_names(), "chunk {chunk}");
        assert_eq!(stats.rows, rows().len());
        assert!(stats.peak_chunk_rows <= chunk.max(1));
        assert!(stats.flushes >= rows().len().div_ceil(chunk.max(1)));
    }

    #[test]
    fn chunked_matches_resident_every_chunk_size() {
        for chunk in [1, 2, 3, 100] {
            check_chunked_matches_resident(chunk);
        }
    }

    #[test]
    fn empty_build_finishes() {
        let b = VerticalDbBuilder::new(schema(), 8);
        assert!(b.is_empty());
        let (vertical, meta, stats) = b.finish().unwrap();
        assert_eq!(vertical.num_transactions(), 0);
        assert_eq!(vertical.num_items(), 0);
        assert_eq!(meta.num_units(), 0);
        assert_eq!(stats.flushes, 0);
        assert_eq!(stats.rows, 0);
    }

    #[test]
    fn encoding_errors_propagate() {
        let mut b = VerticalDbBuilder::new(schema(), 8);
        let err = b.add_row(&[vec!["F", "M"], vec![], vec![]], "u").unwrap_err();
        assert!(err.to_string().contains("single-valued"));
        let err = b.add_row(&[vec!["F"]], "u").unwrap_err();
        assert!(err.to_string().contains("attribute slots"));
    }

    #[test]
    fn zero_chunk_rows_clamps_to_one() {
        let mut b = VerticalDbBuilder::new(schema(), 0);
        b.add_row(&[vec!["F"], vec!["north"], vec![]], "u").unwrap();
        let (vertical, _, stats) = b.finish().unwrap();
        assert_eq!(vertical.num_transactions(), 1);
        assert_eq!(stats.chunk_rows, 1);
        assert_eq!(stats.peak_chunk_rows, 1);
    }
}
