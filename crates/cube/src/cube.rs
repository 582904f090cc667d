//! The materialized segregation data cube.

use std::sync::Arc;

use scube_common::FxHashMap;
use scube_data::{ItemId, TransactionDb};
use scube_segindex::{IndexValues, MeasureSet};

use crate::builder::{CubeConfig, Materialize};
use crate::coords::CellCoords;
use crate::update::MaintenanceStore;

/// Self-describing label set copied from the source database, so a cube can
/// be rendered (or serialized) after the database is gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CubeLabels {
    /// `item id → (attribute name, value, is_sa)`.
    pub(crate) items: Vec<(String, String, bool)>,
    /// Segregation attribute names, in schema order.
    pub sa_attrs: Vec<String>,
    /// Context attribute names, in schema order.
    pub ca_attrs: Vec<String>,
    /// Organizational unit names.
    pub unit_names: Vec<String>,
}

impl CubeLabels {
    /// Snapshot the labels of a transaction database.
    pub fn from_db(db: &TransactionDb) -> Self {
        let dict = db.dictionary();
        let schema = db.schema();
        let items = (0..dict.len() as ItemId)
            .map(|it| {
                let attr = dict.attr_of(it);
                (schema.attr(attr).name.clone(), dict.value_of(it).to_string(), db.is_sa_item(it))
            })
            .collect();
        CubeLabels {
            items,
            sa_attrs: schema.sa_ids().iter().map(|&a| schema.attr(a).name.clone()).collect(),
            ca_attrs: schema.ca_ids().iter().map(|&a| schema.attr(a).name.clone()).collect(),
            unit_names: db.unit_names().to_vec(),
        }
    }

    /// Snapshot the labels of a chunked build's [`scube_data::TableMeta`] —
    /// identical to what [`Self::from_db`] produces on the equivalent
    /// resident database, because both paths intern dictionary and unit
    /// names through the same code in the same first-occurrence order.
    pub fn from_meta(meta: &scube_data::TableMeta) -> Self {
        let dict = meta.dictionary();
        let schema = meta.schema();
        let items = (0..dict.len() as ItemId)
            .map(|it| {
                let attr = dict.attr_of(it);
                (schema.attr(attr).name.clone(), dict.value_of(it).to_string(), meta.is_sa_item(it))
            })
            .collect();
        CubeLabels {
            items,
            sa_attrs: schema.sa_ids().iter().map(|&a| schema.attr(a).name.clone()).collect(),
            ca_attrs: schema.ca_ids().iter().map(|&a| schema.attr(a).name.clone()).collect(),
            unit_names: meta.unit_names().to_vec(),
        }
    }

    /// Attribute name of an item.
    pub fn attr_of(&self, item: ItemId) -> &str {
        &self.items[item as usize].0
    }

    /// Whether an item is over a segregation attribute.
    pub fn is_sa_item(&self, item: ItemId) -> bool {
        self.items[item as usize].2
    }

    /// Number of labelled items.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Value of an item.
    pub fn value_of(&self, item: ItemId) -> &str {
        &self.items[item as usize].1
    }

    /// `attr=value` label of an item.
    pub fn label(&self, item: ItemId) -> String {
        let (attr, value, _) = &self.items[item as usize];
        format!("{attr}={value}")
    }

    /// Render coordinates like `sex=female ∧ age=young | region=north`,
    /// with `*` for empty sides.
    pub fn describe(&self, coords: &CellCoords) -> String {
        let side = |items: &[ItemId]| -> String {
            if items.is_empty() {
                "*".to_string()
            } else {
                items.iter().map(|&i| self.label(i)).collect::<Vec<_>>().join(" & ")
            }
        };
        format!("{} | {}", side(&coords.sa), side(&coords.ca))
    }

    /// Values of the given attribute among the items of `coords` (an
    /// attribute can contribute several items when multi-valued).
    pub fn attr_values<'a>(&'a self, coords: &CellCoords, attr: &str) -> Vec<&'a str> {
        coords
            .sa
            .iter()
            .chain(coords.ca.iter())
            .filter(|&&i| self.attr_of(i) == attr)
            .map(|&i| self.value_of(i))
            .collect()
    }

    /// Look up an item id by attribute name and value.
    pub fn find_item(&self, attr: &str, value: &str) -> Option<ItemId> {
        self.items.iter().position(|(a, v, _)| a == attr && v == value).map(|i| i as ItemId)
    }
}

/// A materialized segregation data cube and the parameters it was built
/// under (min-support, materialization, Atkinson `b`, measure set). The
/// builder and the snapshot decoder set them; updates, the engine's
/// explorer and snapshots read them from here, so a cube paired with its
/// postings by hand is maintained exactly as a rebuild would be.
#[derive(Debug, Clone)]
pub struct SegregationCube {
    cells: FxHashMap<CellCoords, IndexValues>,
    labels: CubeLabels,
    min_support: u64,
    materialize: Materialize,
    atkinson_b: f64,
    measures: MeasureSet,
    /// The histograms behind the cell values. Emitted by the builder's
    /// fold or read back by the snapshot decoder — never re-derived — and
    /// changed only by an update's commit. Shared between clones and
    /// copied on the first write ([`Arc::make_mut`]), so a clone copies
    /// cells and labels, not the store.
    pub(crate) store: Arc<MaintenanceStore>,
}

/// Equal cells, labels and build parameters: the store is how the values
/// were reached, not what they are, so a mapped cube whose store region is
/// still unscanned equals its heap twin.
impl PartialEq for SegregationCube {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
            && self.labels == other.labels
            && self.min_support == other.min_support
            && self.materialize == other.materialize
            && self.atkinson_b.to_bits() == other.atkinson_b.to_bits()
            && self.measures == other.measures
    }
}

impl SegregationCube {
    /// A cube built under `config` (only its build parameters are kept).
    pub(crate) fn new(
        cells: FxHashMap<CellCoords, IndexValues>,
        labels: CubeLabels,
        config: &CubeConfig,
        store: MaintenanceStore,
    ) -> Self {
        SegregationCube {
            cells,
            labels,
            min_support: config.min_support,
            materialize: config.materialize,
            atkinson_b: config.atkinson_b,
            measures: config.measures,
            store: Arc::new(store),
        }
    }

    /// Number of materialized cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are materialized.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The labels snapshot.
    pub fn labels(&self) -> &CubeLabels {
        &self.labels
    }

    /// Number of organizational units the indexes were computed over: one
    /// per unit name.
    pub fn num_units(&self) -> u32 {
        self.labels.unit_names.len() as u32
    }

    /// The min-support the cube was built with.
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// The materialization strategy the cube was built with.
    pub fn materialize(&self) -> Materialize {
        self.materialize
    }

    /// The Atkinson shape parameter the cube was built with.
    pub fn atkinson_b(&self) -> f64 {
        self.atkinson_b
    }

    /// The measure subset the cube was built with (cells fold only these).
    pub fn measures(&self) -> MeasureSet {
        self.measures
    }

    /// Exact-cell lookup.
    pub fn get(&self, coords: &CellCoords) -> Option<&IndexValues> {
        self.cells.get(coords)
    }

    /// Look up by attribute/value names, e.g.
    /// `value_by_names(&[("sex","female")], &[("region","north")])`.
    pub fn get_by_names(&self, sa: &[(&str, &str)], ca: &[(&str, &str)]) -> Option<&IndexValues> {
        let coords = self.coords_by_names(sa, ca)?;
        self.get(&coords)
    }

    /// Resolve attribute/value names into [`CellCoords`].
    pub fn coords_by_names(&self, sa: &[(&str, &str)], ca: &[(&str, &str)]) -> Option<CellCoords> {
        let mut sa_items = Vec::with_capacity(sa.len());
        for (a, v) in sa {
            sa_items.push(self.labels.find_item(a, v)?);
        }
        let mut ca_items = Vec::with_capacity(ca.len());
        for (a, v) in ca {
            ca_items.push(self.labels.find_item(a, v)?);
        }
        Some(CellCoords::new(sa_items, ca_items))
    }

    /// Iterate all `(coords, values)` cells (unordered).
    pub fn cells(&self) -> impl Iterator<Item = (&CellCoords, &IndexValues)> {
        self.cells.iter()
    }

    /// Mutable view of the update commit (`crate::update`): labels, cells
    /// and the maintenance store, in one borrow. The store is copied here
    /// when another clone still shares it.
    pub(crate) fn update_parts(
        &mut self,
    ) -> (&mut CubeLabels, &mut FxHashMap<CellCoords, IndexValues>, &mut MaintenanceStore) {
        (&mut self.labels, &mut self.cells, Arc::make_mut(&mut self.store))
    }

    /// Cells whose coordinates only use the listed attributes (the cells of
    /// a sub-cube view, e.g. Fig. 1's `(sex, age) × region`).
    pub fn cells_over<'a>(
        &'a self,
        attrs: &'a [&'a str],
    ) -> impl Iterator<Item = (&'a CellCoords, &'a IndexValues)> + 'a {
        self.cells.iter().filter(move |(coords, _)| {
            coords
                .sa
                .iter()
                .chain(coords.ca.iter())
                .all(|&i| attrs.contains(&self.labels.attr_of(i)))
        })
    }

    /// Slice: cells that fix all the given `(attr, value)` coordinates
    /// (and possibly more).
    pub fn slice<'a>(
        &'a self,
        fixed: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = (&'a CellCoords, &'a IndexValues)> + 'a {
        self.cells.iter().filter(move |(coords, _)| {
            fixed.iter().all(|(a, v)| {
                coords
                    .sa
                    .iter()
                    .chain(coords.ca.iter())
                    .any(|&i| self.labels.attr_of(i) == *a && self.labels.value_of(i) == *v)
            })
        })
    }

    /// Roll up: the cell obtained from `coords` by dropping every
    /// coordinate of attribute `attr` (⋆ granularity on that dimension).
    pub fn rollup(&self, coords: &CellCoords, attr: &str) -> Option<&IndexValues> {
        let keep = |items: &[ItemId]| {
            items.iter().copied().filter(|&i| self.labels.attr_of(i) != attr).collect::<Vec<_>>()
        };
        self.get(&CellCoords { sa: keep(&coords.sa), ca: keep(&coords.ca) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scube_data::{Attribute, Schema, TransactionDbBuilder};

    fn db() -> TransactionDb {
        let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        b.add_row(&[vec!["female"], vec!["north"]], "u0").unwrap();
        b.add_row(&[vec!["male"], vec!["south"]], "u1").unwrap();
        b.finish()
    }

    #[test]
    fn labels_snapshot() {
        let labels = CubeLabels::from_db(&db());
        assert_eq!(labels.sa_attrs, vec!["sex"]);
        assert_eq!(labels.ca_attrs, vec!["region"]);
        assert_eq!(labels.unit_names, vec!["u0", "u1"]);
        let f = labels.find_item("sex", "female").unwrap();
        assert_eq!(labels.label(f), "sex=female");
        assert!(labels.find_item("sex", "other").is_none());
    }

    #[test]
    fn describe_renders_stars() {
        let labels = CubeLabels::from_db(&db());
        let f = labels.find_item("sex", "female").unwrap();
        let c = CellCoords::new(vec![f], vec![]);
        assert_eq!(labels.describe(&c), "sex=female | *");
        assert_eq!(labels.describe(&CellCoords::apex()), "* | *");
    }

    #[test]
    fn attr_values_extracts() {
        let labels = CubeLabels::from_db(&db());
        let f = labels.find_item("sex", "female").unwrap();
        let n = labels.find_item("region", "north").unwrap();
        let c = CellCoords::new(vec![f], vec![n]);
        assert_eq!(labels.attr_values(&c, "sex"), vec!["female"]);
        assert_eq!(labels.attr_values(&c, "region"), vec!["north"]);
        assert!(labels.attr_values(&c, "age").is_empty());
    }
}
