#![warn(missing_docs)]
//! Frequent and closed itemset mining.
//!
//! SCube enumerates candidate cube cells by mining frequent (closed)
//! itemsets over the encoded population table (the original tool shells out
//! to Borgelt's FPGrowth; we implement the miners natively):
//!
//! * [`FpGrowth`] — FP-tree construction plus recursive conditional-tree
//!   mining, the algorithm the original tool runs;
//! * [`Eclat`] — vertical mining by intersection of tidsets held as dense
//!   `u64` words, each root's [`scube_bitmap::EwahBitmap`] posting decoded
//!   once per walk; the cube builder mines through its walk
//!   ([`eclat::walk`]);
//! * [`Apriori`] — the classical level-wise baseline, kept for the
//!   efficiency comparison (experiment E11);
//! * [`naive`] — an intentionally simple exponential oracle, the reference
//!   every miner is checked against in the tests;
//! * [`closed::filter_closed`] — reduce any result to closed itemsets
//!   (no strict superset with equal support).
//!
//! All miners return the same canonical output — itemsets sorted by item id
//! with absolute supports — and are cross-checked against each other and
//! against the oracle in the test suite.

pub mod apriori;
pub mod closed;
pub mod eclat;
pub mod fpgrowth;
pub mod itemset;
pub mod naive;

pub use apriori::Apriori;
pub use closed::filter_closed;
pub use eclat::Eclat;
pub use fpgrowth::FpGrowth;
pub use itemset::FrequentItemset;

use scube_common::{Result, ScubeError};
use scube_data::TransactionDb;

/// A frequent-itemset mining algorithm.
pub trait Miner {
    /// Short algorithm name (used in benchmark reports).
    fn name(&self) -> &'static str;

    /// Mine all itemsets with absolute support ≥ `min_support`.
    ///
    /// The empty itemset is *not* reported (its support is the database
    /// size by definition); itemsets are canonical (ids ascending).
    fn mine(&self, db: &TransactionDb, min_support: u64) -> Result<Vec<FrequentItemset>>;

    /// Mine and keep only closed itemsets.
    fn mine_closed(&self, db: &TransactionDb, min_support: u64) -> Result<Vec<FrequentItemset>> {
        Ok(filter_closed(&self.mine(db, min_support)?))
    }
}

pub(crate) fn validate_min_support(min_support: u64) -> Result<()> {
    if min_support == 0 {
        return Err(ScubeError::InvalidParameter(
            "min_support must be at least 1 (support 0 itemsets are unbounded)".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use scube_data::{Attribute, Schema, TransactionDb, TransactionDbBuilder};

    /// Build a database of set-transactions over items "v0".."v9" of one
    /// multi-valued attribute (the simplest shape for miner tests).
    pub fn db_from_sets(sets: &[&[u8]]) -> TransactionDb {
        let schema = Schema::new(vec![Attribute::ca("x").multi()]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        for set in sets {
            let vals: Vec<String> = set.iter().map(|v| format!("v{v}")).collect();
            b.add_row(&[vals], "u").unwrap();
        }
        b.finish()
    }
}
