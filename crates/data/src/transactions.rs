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

    /// Intern `value` as an item of attribute `attr`, returning its id
    /// (existing or fresh). `value` is stored as given, so it must be what
    /// [`Self::encode_row`] would store: trimmed and non-empty. Errors,
    /// interning nothing, when `attr` is not in the schema, `value` is
    /// blank or untrimmed, or a fresh id would not fit a `u32`.
    pub fn intern_item(&mut self, attr: AttrId, value: &str) -> Result<ItemId> {
        if usize::from(attr) >= self.schema.len() {
            return Err(ScubeError::Schema(format!(
                "attribute {attr} is not in a schema of {}",
                self.schema.len()
            )));
        }
        if value.is_empty() || value.trim().len() != value.len() {
            return Err(ScubeError::Schema(format!(
                "attribute '{}': value {value:?} is blank or untrimmed",
                self.schema.attr(attr).name
            )));
        }
        self.dictionary.intern(attr, value)
    }

    /// Validate and dictionary-encode one row *without* appending it to the
    /// horizontal store: the sorted, deduplicated item ids land in an
    /// internal scratch buffer (borrowed by the return value) and the unit
    /// name is interned. [`Self::add_row`] is exactly this plus
    /// [`Self::add_encoded_row`]; the chunked vertical builder calls it
    /// directly, so both construction paths intern through literally the
    /// same code and the first-occurrence dictionary order that snapshot
    /// byte-identity depends on cannot drift between them.
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
        let (unit_id, _) = self.encode_row(values, unit)?;
        let items = std::mem::take(&mut self.scratch);
        let added = self.add_encoded_row(&items, unit_id);
        self.scratch = items;
        added
    }

    /// Append one row already encoded by this builder: `items` strictly
    /// ascending ids it interned ([`Self::intern_item`],
    /// [`Self::encode_row`]; at most one per single-valued attribute, which
    /// is the caller's to keep), `unit` an id from [`Self::intern_unit`]. Every row reaches the store through
    /// here, [`Self::add_row`]'s too. Errors, leaving the stored rows
    /// untouched, when an id was not interned by this builder, `items` is
    /// not strictly ascending, or the row would push the transaction or
    /// item-occurrence count past `u32`.
    pub fn add_encoded_row(&mut self, items: &[ItemId], unit: UnitId) -> Result<()> {
        if items.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ScubeError::Inconsistent("row items are not strictly ascending".into()));
        }
        if let Some(&last) = items.last().filter(|&&i| i as usize >= self.dictionary.len()) {
            return Err(ScubeError::Inconsistent(format!(
                "row item {last} was not interned (dictionary holds {})",
                self.dictionary.len()
            )));
        }
        if unit as usize >= self.unit_names.len() {
            return Err(ScubeError::Inconsistent(format!(
                "row unit {unit} was not interned ({} units)",
                self.unit_names.len()
            )));
        }
        checked_u32(self.units.len(), 1, "transactions").map_err(ScubeError::Inconsistent)?;
        let end = checked_u32(self.items.len(), items.len(), "item occurrences")
            .map_err(ScubeError::Inconsistent)?;
        self.items.extend_from_slice(items);
        self.offsets.push(end);
        self.units.push(unit);
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

    /// The same rows, once through `add_row` and once through the ids
    /// `intern_item` / `intern_unit` hand out plus `add_encoded_row`.
    #[test]
    fn encoded_rows_equal_string_rows_to_the_byte() {
        let rows: [([&[&str]; 3], &str); 4] = [
            ([&["F"], &["north"], &["edu", "transport"]], "u1"),
            ([&["M"], &[" south "], &["edu", "edu"]], "u2"),
            ([&["F"], &[""], &[]], "u1"),
            ([&["M"], &["north"], &["agri", " ", "edu"]], "u3"),
        ];
        let mut by_string = TransactionDbBuilder::new(schema());
        let mut by_id = TransactionDbBuilder::new(schema());
        for (cells, unit) in &rows {
            let values: Vec<Vec<&str>> = cells.iter().map(|c| c.to_vec()).collect();
            by_string.add_row(&values, unit).unwrap();
            let mut items = Vec::new();
            for (a, cell) in cells.iter().enumerate() {
                for v in cell.iter().map(|v| v.trim()).filter(|v| !v.is_empty()) {
                    items.push(by_id.intern_item(a as AttrId, v).unwrap());
                }
            }
            items.sort_unstable();
            items.dedup();
            let unit = by_id.intern_unit(unit).unwrap();
            by_id.add_encoded_row(&items, unit).unwrap();
        }
        let (a, b) = (by_string.finish(), by_id.finish());
        assert_eq!(a.items, b.items);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.units, b.units);
        assert_eq!(a.unit_names, b.unit_names);
        assert_eq!(a.dictionary.len(), b.dictionary.len());
        for i in 0..a.dictionary.len() as ItemId {
            assert_eq!(a.dictionary.attr_of(i), b.dictionary.attr_of(i));
            assert_eq!(a.dictionary.value_of(i), b.dictionary.value_of(i));
        }
    }

    #[test]
    fn encoded_rows_must_use_this_builders_ids() {
        let mut b = TransactionDbBuilder::new(schema());
        let f = b.intern_item(0, "F").unwrap();
        let north = b.intern_item(1, "north").unwrap();
        let u = b.intern_unit("u").unwrap();
        for (items, unit, what) in [
            (vec![north, f], u, "ascending"),
            (vec![f, f], u, "ascending"),
            (vec![f, north + 1], u, "interned"),
            (vec![f], u + 1, "interned"),
        ] {
            let err = b.add_encoded_row(&items, unit).unwrap_err().to_string();
            assert!(err.contains(what), "{items:?} {unit}: {err}");
        }
        assert!(b.is_empty(), "a refused row stores nothing");
        for (attr, value) in [(3, "x"), (0, ""), (0, " F")] {
            assert!(b.intern_item(attr, value).is_err(), "{attr} {value:?}");
        }
        assert_eq!(b.dictionary().len(), 2, "a refused value interns nothing");
        b.add_encoded_row(&[f, north], u).unwrap();
        b.add_encoded_row(&[], u).unwrap();
        assert_eq!(b.len(), 2);
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
