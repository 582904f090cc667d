#![warn(missing_docs)]
//! Frequent and closed itemset mining.
//!
//! SCube enumerates candidate cube cells by mining frequent (closed)
//! itemsets over the encoded population table. The original tool shells out
//! to Borgelt's FPGrowth; this crate has one native miner and its oracle:
//!
//! * [`eclat`] — vertical mining by intersection of tidsets held as dense
//!   `u64` words, each root's [`scube_bitmap::EwahBitmap`] posting decoded
//!   once per walk. Every cube build (resident, chunked, parallel) mines
//!   through its one DFS, [`eclat::walk`];
//!   [`eclat::mine_vertical_with_tidsets`] collects it;
//! * [`naive`] — an intentionally simple exponential oracle that Eclat's
//!   walk is held to in the tests;
//! * [`closed::closed_positions`] — the closed entries of a mining result
//!   (no strict superset with equal support), as the cube builder keeps
//!   them.
//!
//! The collector and the oracle return the same canonical output: itemsets
//! sorted by item id with absolute supports, ordered by length and then
//! items.

pub mod closed;
pub mod eclat;
pub mod itemset;
pub mod naive;

pub use itemset::FrequentItemset;

use scube_common::{Result, ScubeError};

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

    use crate::FrequentItemset;

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

    /// Every frequent itemset of `db`, mined by Eclat's collector.
    pub fn collect(db: &TransactionDb, min_support: u64) -> Vec<FrequentItemset> {
        crate::eclat::mine_with_tidsets(db, min_support)
            .unwrap()
            .into_iter()
            .map(|(set, _)| set)
            .collect()
    }

    /// The closed sets among `sets`, in their order, as the cube builder
    /// filters them.
    pub fn closed(sets: &[FrequentItemset]) -> Vec<FrequentItemset> {
        crate::closed::closed_positions(sets.len(), |i| (&sets[i].items, sets[i].support))
            .into_iter()
            .map(|i| sets[i].clone())
            .collect()
    }
}

/// The example databases of the Apriori tests, mined by Eclat's collector
/// and held to the `naive` oracle. The crate has no Apriori miner.
#[cfg(test)]
mod apriori {
    mod tests {
        use crate::testutil::{collect, db_from_sets};

        #[test]
        fn matches_naive() {
            let db = db_from_sets(&[&[0, 1, 2], &[0, 1], &[0, 2], &[0], &[1, 2, 3], &[3]]);
            for minsup in 1..=3 {
                let expected = crate::naive::mine(&db, minsup).unwrap();
                assert_eq!(collect(&db, minsup), expected, "minsup {minsup}");
            }
        }

        #[test]
        fn empty_db() {
            let db = db_from_sets(&[]);
            assert!(collect(&db, 1).is_empty());
        }
    }
}

/// The example databases of the FP-Growth tests (among them the one of Han
/// et al.'s FP-Growth paper), mined by Eclat's collector and held to the
/// `naive` oracle. The crate has no FP-Growth miner.
#[cfg(test)]
mod fpgrowth {
    mod tests {
        use crate::testutil::{closed, collect, db_from_sets};

        #[test]
        fn matches_naive_on_textbook_example() {
            let db = db_from_sets(&[&[0, 1, 2], &[0, 1], &[0, 2], &[0]]);
            assert_eq!(collect(&db, 2), crate::naive::mine(&db, 2).unwrap());
        }

        #[test]
        fn matches_naive_on_classic_fp_paper_data() {
            // The transactions from Han et al.'s FP-Growth paper (relabelled).
            let db = db_from_sets(&[
                &[0, 1, 2, 3, 4],
                &[0, 1, 2, 5],
                &[1, 6, 7],
                &[1, 2, 8],
                &[0, 1, 2, 5],
                &[0, 2, 9],
            ]);
            for minsup in 1..=4 {
                let expected = crate::naive::mine(&db, minsup).unwrap();
                assert_eq!(collect(&db, minsup), expected, "minsup {minsup}");
            }
        }

        #[test]
        fn empty_database() {
            let db = db_from_sets(&[]);
            assert_eq!(collect(&db, 1).len(), 0);
        }

        #[test]
        fn single_transaction_minsup_one() {
            let db = db_from_sets(&[&[0, 1]]);
            assert_eq!(collect(&db, 1).len(), 3); // {v0}, {v1}, {v0,v1}
        }

        #[test]
        fn closed_via_trait() {
            // The closed sets as the cube builder keeps them: `closed_positions`
            // over the collector's output.
            let db = db_from_sets(&[&[0, 1, 2], &[0, 1], &[0, 2], &[0]]);
            let expected = crate::naive::mine_closed(&db, 2).unwrap();
            assert_eq!(closed(&collect(&db, 2)), expected);
        }
    }
}
