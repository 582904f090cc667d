//! Property tests: the one miner, Eclat's walk as its collector returns it,
//! agrees with the brute-force oracle on random databases, for both
//! all-frequent and closed mining.

use proptest::prelude::*;
use scube_data::{Attribute, Schema, TransactionDb, TransactionDbBuilder};
use scube_fpm::closed::closed_positions;
use scube_fpm::eclat::mine_with_tidsets;
use scube_fpm::{naive, FrequentItemset};

fn db_from_sets(sets: &[Vec<u8>]) -> TransactionDb {
    let schema = Schema::new(vec![Attribute::ca("x").multi()]).unwrap();
    let mut b = TransactionDbBuilder::new(schema);
    for set in sets {
        let vals: Vec<String> = set.iter().map(|v| format!("v{v}")).collect();
        b.add_row(&[vals], "u").unwrap();
    }
    b.finish()
}

/// Every frequent itemset, as Eclat's walk visits it.
fn mine(db: &TransactionDb, min_support: u64) -> Vec<FrequentItemset> {
    mine_with_tidsets(db, min_support).unwrap().into_iter().map(|(set, _)| set).collect()
}

/// The closed ones among [`mine`]'s, as the cube builder keeps them.
fn mine_closed(db: &TransactionDb, min_support: u64) -> Vec<FrequentItemset> {
    let all = mine(db, min_support);
    closed_positions(all.len(), |i| (&all[i].items, all[i].support))
        .into_iter()
        .map(|i| all[i].clone())
        .collect()
}

fn random_db() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u8..8, 0..6)
            .prop_map(|s| s.into_iter().collect::<Vec<u8>>()),
        0..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mining_agrees_with_oracle(sets in random_db(), minsup in 1u64..5) {
        let db = db_from_sets(&sets);
        prop_assert_eq!(mine(&db, minsup), naive::mine(&db, minsup).unwrap());
    }

    #[test]
    fn closed_mining_agrees_with_oracle(sets in random_db(), minsup in 1u64..5) {
        let db = db_from_sets(&sets);
        prop_assert_eq!(mine_closed(&db, minsup), naive::mine_closed(&db, minsup).unwrap());
    }

    #[test]
    fn monotonicity_of_min_support(sets in random_db()) {
        // Raising min_support can only shrink the result, and every
        // surviving itemset keeps its exact support value.
        let db = db_from_sets(&sets);
        let low = mine(&db, 1);
        let high = mine(&db, 3);
        prop_assert!(high.len() <= low.len());
        for h in &high {
            prop_assert!(h.support >= 3);
            let in_low = low.iter().find(|l| l.items == h.items);
            prop_assert_eq!(in_low.map(|l| l.support), Some(h.support));
        }
    }

    #[test]
    fn supports_are_exact(sets in random_db(), minsup in 1u64..4) {
        // Verify each reported support against a direct scan.
        let db = db_from_sets(&sets);
        let result = mine(&db, minsup);
        for set in result.iter().take(50) {
            let count = db
                .iter()
                .filter(|(items, _)| scube_fpm::itemset::is_sorted_subset(&set.items, items))
                .count() as u64;
            prop_assert_eq!(count, set.support, "itemset {:?}", &set.items);
        }
    }

    #[test]
    fn closed_is_subset_with_same_maximal_sets(sets in random_db(), minsup in 1u64..4) {
        let db = db_from_sets(&sets);
        let all = mine(&db, minsup);
        let closed = mine_closed(&db, minsup);
        prop_assert!(closed.len() <= all.len());
        // Every closed set is frequent with identical support.
        for c in &closed {
            prop_assert!(all.iter().any(|a| a.items == c.items && a.support == c.support));
        }
        // Every frequent set has a closed superset with equal support.
        for a in &all {
            prop_assert!(
                closed.iter().any(|c| a.support == c.support && a.is_subset_of(c)),
                "no closure found for {:?}",
                &a.items
            );
        }
    }
}
