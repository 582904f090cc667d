#![warn(missing_docs)]
//! Relational and transaction data layer for SCube.
//!
//! SCube analyses a population table with *segregation attributes* (SA),
//! *context attributes* (CA) and a `unitID` column (the paper's
//! `finalTable`, Fig. 3). This crate provides the whole journey from CSV to
//! mining-ready structures:
//!
//! * [`schema`] — attributes with SA/CA roles and multi-valued flags;
//! * [`relation`] — untyped CSV-backed tables ([`Relation`]);
//! * [`final_table`] — the [`FinalTableSpec`] role declaration and encoder;
//! * [`dictionary`] — interning of `attr=value` items to dense `u32` ids;
//! * [`transactions`] — the horizontal [`TransactionDb`] (one transaction
//!   per individual, unit id carried alongside);
//! * [`vertical`] — the item→tidset [`VerticalDb`] (one
//!   [`scube_bitmap::EwahBitmap`] per item);
//! * [`chunked`] — bounded-memory construction: [`VerticalDbBuilder`]
//!   grows the postings chunk by chunk without ever materializing the
//!   horizontal table.

pub mod chunked;
pub mod dictionary;
pub mod final_table;
pub mod relation;
pub mod schema;
pub mod transactions;
pub mod vertical;

pub use chunked::{ChunkedBuildStats, TableMeta, VerticalDbBuilder, DEFAULT_CHUNK_ROWS};
pub use dictionary::{Dictionary, ItemId};
pub use final_table::{FinalTableEncoder, FinalTableSpec, RowSink, MULTI_VALUE_SEPARATOR};
pub use relation::{CsvRows, Relation};
pub use schema::{AttrId, AttrRole, Attribute, Schema};
pub use transactions::{TransactionDb, TransactionDbBuilder, UnitId};
pub use vertical::{UnitScratch, VerticalDb};
