//! Horizontal transaction database: one transaction per individual.
//!
//! A transaction holds the sorted item ids of the individual's SA and CA
//! attribute values (several per attribute when multi-valued), plus the id
//! of the organizational unit the individual belongs to. The unit is *not*
//! an item: the cube builder partitions every tidset by unit to obtain the
//! per-unit `(m_i, t_i)` histograms that segregation indexes consume.

use scube_common::{FxHashMap, Result, ScubeError};

use crate::dictionary::{Dictionary, ItemId};
use crate::schema::{AttrId, AttrRole, Schema};

/// Unit identifier (dense, assigned by the builder).
pub type UnitId = u32;

/// `have + more` as a `u32`, or a message naming what outgrew the `u32` id
/// space. Transaction ids and item offsets are `u32`; every place a count
/// of either grows goes through here, so reaching 2³² is an error at the
/// ingest boundary instead of a silent wrap.
pub(crate) fn checked_u32(
    have: usize,
    more: usize,
    what: &str,
) -> std::result::Result<u32, String> {
    have.checked_add(more)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("{what}: {have} + {more} exceeds the u32 id space"))
}

/// The dense id of the next entry interned after `have` others — checked,
/// so an interner errors before pushing an entry whose id (or count) would
/// wrap past `u32`.
pub(crate) fn next_id(have: usize, what: &str) -> Result<u32> {
    checked_u32(have, 1, what).map(|count| count - 1).map_err(ScubeError::Inconsistent)
}

/// Encoded transaction database.
#[derive(Debug, Clone)]
pub struct TransactionDb {
    schema: Schema,
    dictionary: Dictionary,
    /// Flattened transactions: `offsets[t]..offsets[t+1]` indexes `items`.
    items: Vec<ItemId>,
    offsets: Vec<u32>,
    units: Vec<UnitId>,
    unit_names: Vec<String>,
}

impl TransactionDb {
    /// Number of transactions (individuals).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when the database has no transactions.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Number of distinct organizational units.
    pub fn num_units(&self) -> usize {
        self.unit_names.len()
    }

    /// The schema the items were encoded under.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The item dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The sorted items of transaction `t`.
    pub fn transaction(&self, t: usize) -> &[ItemId] {
        &self.items[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Unit of transaction `t`.
    pub fn unit_of(&self, t: usize) -> UnitId {
        self.units[t]
    }

    /// The `tid → unit` mapping as a slice.
    pub fn units(&self) -> &[UnitId] {
        &self.units
    }

    /// Display name of a unit.
    pub fn unit_name(&self, unit: UnitId) -> &str {
        &self.unit_names[unit as usize]
    }

    /// All unit names, indexed by [`UnitId`].
    pub fn unit_names(&self) -> &[String] {
        &self.unit_names
    }

    /// Iterate `(items, unit)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[ItemId], UnitId)> + '_ {
        (0..self.len()).map(move |t| (self.transaction(t), self.units[t]))
    }

    /// Is `item` a segregation-attribute item?
    pub fn is_sa_item(&self, item: ItemId) -> bool {
        self.schema.attr(self.dictionary.attr_of(item)).role == AttrRole::Segregation
    }

    /// Human-readable `attr=value` label of an item.
    pub fn item_label(&self, item: ItemId) -> String {
        let attr = self.dictionary.attr_of(item);
        format!("{}={}", self.schema.attr(attr).name, self.dictionary.value_of(item))
    }

    /// Per-item absolute support (number of transactions containing it).
    pub fn item_supports(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.dictionary.len()];
        for &it in &self.items {
            counts[it as usize] += 1;
        }
        counts
    }
}

/// Incremental builder for [`TransactionDb`].
#[derive(Debug)]
pub struct TransactionDbBuilder {
    schema: Schema,
    dictionary: Dictionary,
    items: Vec<ItemId>,
    offsets: Vec<u32>,
    units: Vec<UnitId>,
    unit_names: Vec<String>,
    unit_lookup: FxHashMap<String, UnitId>,
    scratch: Vec<ItemId>,
}

impl TransactionDbBuilder {
    /// Start building under the given schema.
    pub fn new(schema: Schema) -> Self {
        TransactionDbBuilder {
            schema,
            dictionary: Dictionary::new(),
            items: Vec::new(),
            offsets: vec![0],
            units: Vec::new(),
            unit_names: Vec::new(),
            unit_lookup: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Number of rows added so far.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no rows have been added yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern a unit name, returning its dense id. Errors, interning
    /// nothing, when the id would not fit a `u32`.
    pub fn intern_unit(&mut self, name: &str) -> Result<UnitId> {
        if let Some(&u) = self.unit_lookup.get(name) {
            return Ok(u);
        }
        let u = next_id(self.unit_names.len(), "units")?;
        self.unit_names.push(name.to_string());
        self.unit_lookup.insert(name.to_string(), u);
        Ok(u)
    }

    /// Validate and dictionary-encode one row *without* appending it to the
    /// horizontal store: the sorted, deduplicated item ids land in an
    /// internal scratch buffer (borrowed by the return value) and the unit
    /// name is interned. [`Self::add_row`] is exactly this plus the append;
    /// the chunked vertical builder calls it directly, so both construction
    /// paths intern through literally the same code and the first-occurrence
    /// dictionary order that snapshot byte-identity depends on cannot drift
    /// between them.
    pub fn encode_row<S: AsRef<str>>(
        &mut self,
        values: &[Vec<S>],
        unit: &str,
    ) -> Result<(UnitId, &[ItemId])> {
        if values.len() != self.schema.len() {
            return Err(ScubeError::Schema(format!(
                "row has {} attribute slots, schema has {}",
                values.len(),
                self.schema.len()
            )));
        }
        self.scratch.clear();
        for (a, vals) in values.iter().enumerate() {
            let attr = a as AttrId;
            if !self.schema.attr(attr).multi_valued && vals.len() > 1 {
                return Err(ScubeError::Schema(format!(
                    "attribute '{}' is single-valued but got {} values",
                    self.schema.attr(attr).name,
                    vals.len()
                )));
            }
            for v in vals {
                let v = v.as_ref().trim();
                if v.is_empty() {
                    continue; // missing value ⇒ no item
                }
                self.scratch.push(self.dictionary.intern(attr, v)?);
            }
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let unit_id = self.intern_unit(unit)?;
        Ok((unit_id, &self.scratch))
    }

    /// Add one individual.
    ///
    /// `values[a]` holds the values of attribute `a` (one entry for single-
    /// valued attributes, several for multi-valued ones; empty = missing).
    /// Errors, leaving the stored rows untouched, when the row is invalid or
    /// would push the transaction or item-occurrence count past `u32`.
    pub fn add_row<S: AsRef<str>>(&mut self, values: &[Vec<S>], unit: &str) -> Result<()> {
        let (unit_id, items) = self.encode_row(values, unit)?;
        let n_items = items.len();
        checked_u32(self.units.len(), 1, "transactions").map_err(ScubeError::Inconsistent)?;
        let end = checked_u32(self.items.len(), n_items, "item occurrences")
            .map_err(ScubeError::Inconsistent)?;
        self.items.extend_from_slice(&self.scratch);
        self.offsets.push(end);
        self.units.push(unit_id);
        Ok(())
    }

    /// The schema rows are encoded under.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The item dictionary interned so far.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Number of distinct units interned so far.
    pub fn num_units(&self) -> usize {
        self.unit_names.len()
    }

    /// Tear down into the encoding state — schema, dictionary, unit names —
    /// without the horizontal rows. The chunked vertical builder keeps this
    /// after the postings have absorbed every row; the rows themselves were
    /// never accumulated here.
    pub fn into_encoding_parts(self) -> (Schema, Dictionary, Vec<String>) {
        (self.schema, self.dictionary, self.unit_names)
    }

    /// Finish, producing the immutable database.
    pub fn finish(self) -> TransactionDb {
        TransactionDb {
            schema: self.schema,
            dictionary: self.dictionary,
            items: self.items,
            offsets: self.offsets,
            units: self.units,
            unit_names: self.unit_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::sa("gender"),
            Attribute::ca("region"),
            Attribute::ca("sector").multi(),
        ])
        .unwrap()
    }

    #[test]
    fn checked_u32_rejects_counts_past_the_id_space() {
        let max = u32::MAX as usize;
        assert_eq!(checked_u32(max - 1, 1, "x"), Ok(u32::MAX));
        assert_eq!(checked_u32(max, 0, "x"), Ok(u32::MAX));
        assert_eq!(checked_u32(0, max, "x"), Ok(u32::MAX));
        let err = checked_u32(max, 1, "transactions").unwrap_err();
        assert!(err.contains("transactions") && err.contains("u32"), "{err}");
        assert!(checked_u32(max - 1, 2, "x").is_err());
        assert!(checked_u32(max + 1, 0, "x").is_err());
        assert!(checked_u32(usize::MAX, 1, "x").is_err(), "usize overflow is caught too");
    }

    #[test]
    fn next_id_errors_at_the_u32_boundary() {
        let max = u32::MAX as usize;
        assert_eq!(next_id(0, "x").unwrap(), 0);
        assert_eq!(next_id(max - 1, "x").unwrap(), u32::MAX - 1, "the last id whose count fits");
        let err = next_id(max, "units").unwrap_err().to_string();
        assert!(err.contains("units") && err.contains("u32"), "{err}");
        assert!(next_id(usize::MAX, "items").is_err());
    }

    #[test]
    fn build_and_read_back() {
        let mut b = TransactionDbBuilder::new(schema());
        b.add_row(&[vec!["F"], vec!["north"], vec!["edu", "transport"]], "u1").unwrap();
        b.add_row(&[vec!["M"], vec!["south"], vec!["edu"]], "u2").unwrap();
        b.add_row(&[vec!["F"], vec!["north"], vec![]], "u1").unwrap();
        let db = b.finish();
        assert_eq!(db.len(), 3);
        assert_eq!(db.num_units(), 2);
        assert_eq!(db.transaction(0).len(), 4);
        assert_eq!(db.transaction(2).len(), 2);
        assert_eq!(db.unit_of(0), db.unit_of(2));
        assert_ne!(db.unit_of(0), db.unit_of(1));
        assert_eq!(db.unit_name(0), "u1");
    }

    #[test]
    fn items_are_sorted_and_deduped() {
        let mut b = TransactionDbBuilder::new(schema());
        b.add_row(&[vec!["F"], vec!["north"], vec!["edu", "edu"]], "u").unwrap();
        let db = b.finish();
        let t = db.transaction(0);
        assert_eq!(t.len(), 3);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn missing_values_skipped() {
        let mut b = TransactionDbBuilder::new(schema());
        b.add_row(&[vec![""], vec!["  "], vec![]], "u").unwrap();
        let db = b.finish();
        assert_eq!(db.transaction(0).len(), 0);
    }

    #[test]
    fn multi_value_on_single_valued_attr_rejected() {
        let mut b = TransactionDbBuilder::new(schema());
        let err = b.add_row(&[vec!["F", "M"], vec!["north"], vec![]], "u").unwrap_err();
        assert!(err.to_string().contains("single-valued"));
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut b = TransactionDbBuilder::new(schema());
        let err = b.add_row(&[vec!["F"]], "u").unwrap_err();
        assert!(err.to_string().contains("attribute slots"));
    }

    #[test]
    fn sa_ca_item_classification() {
        let mut b = TransactionDbBuilder::new(schema());
        b.add_row(&[vec!["F"], vec!["north"], vec!["edu"]], "u").unwrap();
        let db = b.finish();
        let t: Vec<ItemId> = db.transaction(0).to_vec();
        let sa: Vec<bool> = t.iter().map(|&i| db.is_sa_item(i)).collect();
        assert_eq!(sa.iter().filter(|&&x| x).count(), 1);
        let labels: Vec<String> = t.iter().map(|&i| db.item_label(i)).collect();
        assert!(labels.contains(&"gender=F".to_string()));
        assert!(labels.contains(&"region=north".to_string()));
        assert!(labels.contains(&"sector=edu".to_string()));
    }

    #[test]
    fn item_supports() {
        let mut b = TransactionDbBuilder::new(schema());
        b.add_row(&[vec!["F"], vec!["north"], vec![]], "u").unwrap();
        b.add_row(&[vec!["F"], vec!["south"], vec![]], "u").unwrap();
        let db = b.finish();
        let f = db.dictionary().get(0, "F").unwrap();
        assert_eq!(db.item_supports()[f as usize], 2);
    }
}
