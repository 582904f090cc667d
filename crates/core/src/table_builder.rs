//! The GraphBuilder + TableBuilder modules (Fig. 2): from a [`Dataset`] to
//! the encoded `finalTable`.
//!
//! Three unit strategies cover the paper's three demonstration scenarios:
//!
//! * [`UnitStrategy::GroupAttribute`] — tabular analysis: the value of one
//!   group attribute (e.g. company sector) *is* the organizational unit;
//! * [`UnitStrategy::ClusterIndividuals`] — project the bipartite graph
//!   onto individuals (directors sharing a board), cluster, one unit per
//!   community of individuals;
//! * [`UnitStrategy::ClusterGroups`] — project onto groups (companies
//!   sharing a director), cluster, one unit per community of companies.
//!
//! The final table then has one row per `(individual, unit)` with the
//! individual's SA/CA attributes joined with the context attributes of the
//! groups linking them to the unit (set-union per attribute — this is how
//! the multi-valued `sector = {electricity, transports}` rows of Fig. 3
//! arise).
//!
//! The join runs on ids, and the three strategies share its one loop; only
//! the source of a row's unit differs. Strings are read once per entity,
//! never per row:
//!
//! * every group's unit and context cells are coded before the loop into
//!   one run of `(column, local code)` entries (`CodedColumns`);
//! * an individual's own cells become item ids on its first row, through
//!   the dictionary's per-attribute `&str → ItemId` map, and its other rows
//!   reuse them;
//! * memberships become a CSR adjacency, sorted and deduplicated per
//!   individual.
//!
//! A local code becomes an item (or unit) id the first time a row reaches
//! it, and a row reaches values in the order a join over strings interns
//! them: attribute order, then linking groups ascending, then cell order.
//! So the dictionary, the unit ids and every snapshot byte are the ones a
//! string join writes; the tests pin the two against each other.

use std::borrow::Cow;
use std::time::Instant;

use scube_common::{FxHashMap, Result, ScubeError};
use scube_data::{
    AttrId, Attribute, ItemId, Relation, Schema, TransactionDb, TransactionDbBuilder, UnitId,
    MULTI_VALUE_SEPARATOR,
};
use scube_graph::{Clustering, NodeAttributes, Projection};

use crate::inputs::Dataset;
use crate::stats::StageTimings;
use crate::unit_assignment::ClusteringMethod;

/// How organizational units are determined (selects the scenario).
#[derive(Debug, Clone, PartialEq)]
pub enum UnitStrategy {
    /// Scenario 1 (tabular): a group attribute value is the unit.
    GroupAttribute(String),
    /// Scenario 2 (graph): communities of individuals.
    ClusterIndividuals(ClusteringMethod),
    /// Scenario 3 (bipartite): communities of groups.
    ClusterGroups(ClusteringMethod),
}

/// Output of table building: the encoded final table plus the pipeline
/// by-products the paper's architecture exposes (`nodeUnit`, `isolated`).
#[derive(Debug)]
pub struct FinalTable {
    /// The encoded final table, ready for the cube builder.
    pub db: TransactionDb,
    /// The clustering used for units (graph scenarios only).
    pub clustering: Option<Clustering>,
    /// Projected-side nodes with no projection edges (`isolated` output).
    pub isolated: Vec<u32>,
    /// Stage timings (projection / clustering / join), for the efficiency
    /// experiments.
    pub timings: StageTimings,
}

/// Column handles resolved once per build, and the final table's schema.
struct Columns {
    /// The individuals' SA then CA columns: final-table attributes
    /// `0..ind.len()`.
    ind: Vec<(usize, bool)>,
    /// The groups' context columns: the attributes after those.
    grp_ca: Vec<(usize, bool)>,
    /// Individual SA, individual CA, then group CA. Group-derived context
    /// attributes are always multi-valued: a row unions the values over
    /// every group connecting the individual to the unit.
    schema: Schema,
}

fn resolve_columns(dataset: &Dataset, exclude_group_attr: Option<&str>) -> Result<Columns> {
    let col = |rel: &Relation, name: &str, what: &str| -> Result<usize> {
        rel.column_index(name)
            .ok_or_else(|| ScubeError::Schema(format!("{what}: missing column '{name}'")))
    };
    let spec = &dataset.individuals_spec;
    let mut ind = Vec::new();
    let mut attrs = Vec::new();
    for (sa, columns) in [(true, &spec.sa_columns), (false, &spec.ca_columns)] {
        for (name, multi) in columns {
            ind.push((col(&dataset.individuals, name, "individuals")?, *multi));
            let mut a = if sa { Attribute::sa(name.clone()) } else { Attribute::ca(name.clone()) };
            a.multi_valued = *multi;
            attrs.push(a);
        }
    }
    let mut grp_ca = Vec::new();
    for (name, multi) in &dataset.groups_spec.ca_columns {
        if exclude_group_attr == Some(name.as_str()) {
            continue;
        }
        grp_ca.push((col(&dataset.groups, name, "groups")?, *multi));
        attrs.push(Attribute::ca(name.clone()).multi());
    }
    Ok(Columns { ind, grp_ca, schema: Schema::new(attrs)? })
}

/// The non-blank values of one CSV cell: split at the separator and
/// trimmed when the column is multi-valued, the whole trimmed cell
/// otherwise.
fn cell_values(cell: &str, multi: bool) -> impl Iterator<Item = &str> {
    cell.split(move |c| multi && c == MULTI_VALUE_SEPARATOR)
        .map(str::trim)
        .filter(|v| !v.is_empty())
}

/// Selected columns of a relation, coded once: column `k`'s distinct values
/// get local codes `0..values[k].len()` in first-occurrence order, and row
/// `r`'s cells become the run `cells[offsets[r]..offsets[r + 1]]` of
/// `(k, code)` entries, by column and then by cell order.
struct CodedColumns<'a> {
    values: Vec<Vec<&'a str>>,
    offsets: Vec<u32>,
    cells: Vec<(u32, u32)>,
}

impl<'a> CodedColumns<'a> {
    fn new(rel: &'a Relation, cols: &[(usize, bool)]) -> Result<Self> {
        let mut lookup: Vec<FxHashMap<&str, u32>> = vec![FxHashMap::default(); cols.len()];
        let mut values: Vec<Vec<&str>> = vec![Vec::new(); cols.len()];
        let mut offsets = Vec::with_capacity(rel.len() + 1);
        offsets.push(0);
        let mut cells = Vec::with_capacity(rel.len() * cols.len());
        for row in rel.rows() {
            for (k, &(c, multi)) in cols.iter().enumerate() {
                for v in cell_values(&row[c], multi) {
                    let code = *lookup[k].entry(v).or_insert_with(|| {
                        values[k].push(v);
                        values[k].len() as u32 - 1
                    });
                    cells.push((k as u32, code));
                }
            }
            let end = u32::try_from(cells.len()).map_err(|_| {
                ScubeError::Inconsistent("coded cells exceed the u32 id space".into())
            })?;
            offsets.push(end);
        }
        Ok(CodedColumns { values, offsets, cells })
    }

    /// Codes of row `r`'s cells in column `k`.
    fn codes(&self, r: u32, k: usize) -> impl Iterator<Item = u32> + '_ {
        let run =
            &self.cells[self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize];
        run.iter().filter(move |&&(col, _)| col as usize == k).map(|&(_, code)| code)
    }

    /// SToC's node attributes: each row's values keyed by column, so one
    /// string in two columns (`birthplace=Roma`, `residence=Roma`) stays
    /// two values.
    fn node_attributes(&self) -> NodeAttributes {
        let mut base = Vec::with_capacity(self.values.len());
        let mut next = 0;
        for values in &self.values {
            base.push(next);
            next += values.len() as u32;
        }
        let rows = self.offsets.windows(2).map(|w| {
            let run = &self.cells[w[0] as usize..w[1] as usize];
            run.iter().map(|&(k, code)| base[k as usize] + code).collect()
        });
        NodeAttributes::from_rows(rows.collect())
    }
}

/// `individual → sorted unique groups` from the dataset's bipartite graph,
/// as a CSR: individual `i`'s groups are `groups[offsets[i]..offsets[i + 1]]`.
struct Adjacency {
    offsets: Vec<u32>,
    groups: Vec<u32>,
}

impl Adjacency {
    fn new(dataset: &Dataset) -> Result<Self> {
        let memberships = dataset.bipartite.memberships();
        u32::try_from(memberships.len())
            .map_err(|_| ScubeError::Inconsistent("memberships exceed the u32 id space".into()))?;
        let n = dataset.num_individuals();
        // Count into `offsets[i + 1]`, prefix-sum, then fill with
        // `offsets[i]` as individual `i`'s cursor: it ends at `i + 1`'s
        // start, so one shift right restores the starts.
        let mut offsets = vec![0u32; n + 1];
        for m in memberships {
            offsets[m.individual as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut groups = vec![0u32; memberships.len()];
        for m in memberships {
            let cursor = &mut offsets[m.individual as usize];
            groups[*cursor as usize] = m.group;
            *cursor += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort and deduplicate each run, compacting the array in place.
        let mut write = 0;
        for i in 0..n {
            let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
            groups[start..end].sort_unstable();
            offsets[i] = write as u32;
            for k in start..end {
                if k == start || groups[k] != groups[k - 1] {
                    groups[write] = groups[k];
                    write += 1;
                }
            }
        }
        offsets[n] = write as u32;
        groups.truncate(write);
        Ok(Adjacency { offsets, groups })
    }

    fn of(&self, individual: usize) -> &[u32] {
        &self.groups[self.offsets[individual] as usize..self.offsets[individual + 1] as usize]
    }
}

/// Where a row's unit comes from: the one thing the strategies do
/// differently.
#[derive(Clone, Copy)]
enum UnitSource<'c> {
    /// Scenario 1: the group's values in coded column `k`; a group with
    /// several sits in several units.
    GroupCells(usize),
    /// Scenario 3: the group's community.
    GroupClusters(&'c Clustering),
    /// Scenario 2: the individual's community, one row per individual
    /// linked to all its groups (none included).
    IndividualClusters(&'c Clustering),
}

/// A local code no item or unit id has been given yet.
const UNMAPPED: u32 = u32::MAX;

/// The link of `group` to unit `key`: `(slot of key in keys, group)`, the
/// key appended when the individual reaches it first.
fn reach(keys: &mut Vec<u32>, key: u32, group: u32) -> (u32, u32) {
    let slot = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
        keys.push(key);
        keys.len() - 1
    });
    (slot as u32, group)
}

/// The join: one row per `(individual, unit)` the individual reaches, with
/// the context values of the groups linking it to the unit. `groups` codes
/// the group context columns as its columns `0..columns.grp_ca.len()`
/// (and, for [`UnitSource::GroupCells`], the unit column after them).
fn join(
    dataset: &Dataset,
    columns: &Columns,
    groups: &CodedColumns,
    units: UnitSource,
) -> Result<TransactionDb> {
    let adjacency = Adjacency::new(dataset)?;
    let mut builder = TransactionDbBuilder::new(columns.schema.clone());
    let mut item_of: Vec<Vec<ItemId>> =
        groups.values[..columns.grp_ca.len()].iter().map(|v| vec![UNMAPPED; v.len()]).collect();
    let mut unit_of: Vec<UnitId> = match units {
        UnitSource::GroupCells(k) => vec![UNMAPPED; groups.values[k].len()],
        UnitSource::GroupClusters(c) | UnitSource::IndividualClusters(c) => {
            vec![UNMAPPED; c.num_clusters() as usize]
        }
    };
    let unit_name = |key: u32| match units {
        UnitSource::GroupCells(k) => Cow::Borrowed(groups.values[k][key as usize]),
        _ => Cow::Owned(format!("C{key}")),
    };
    // Per individual: its unit keys in the order its groups reach them,
    // each `(key slot, group)` link, its own items, and the row at hand.
    let mut keys: Vec<u32> = Vec::new();
    let mut links: Vec<(u32, u32)> = Vec::new();
    let mut own = Vec::new();
    let mut row = Vec::new();
    for (ind, ind_row) in dataset.individuals.rows().iter().enumerate() {
        let linked = adjacency.of(ind);
        keys.clear();
        links.clear();
        match units {
            UnitSource::GroupCells(k) => {
                for &g in linked {
                    for key in groups.codes(g, k) {
                        links.push(reach(&mut keys, key, g));
                    }
                }
            }
            UnitSource::GroupClusters(c) => {
                links.extend(linked.iter().map(|&g| reach(&mut keys, c.of(g), g)));
            }
            UnitSource::IndividualClusters(c) => {
                keys.push(c.of(ind as u32));
                links.extend(linked.iter().map(|&g| (0, g)));
            }
        }
        if keys.is_empty() {
            continue; // no unit reached, no row
        }
        own.clear();
        for (a, &(c, multi)) in columns.ind.iter().enumerate() {
            for v in cell_values(&ind_row[c], multi) {
                own.push(builder.intern_item(a as AttrId, v)?);
            }
        }
        for (slot, &key) in keys.iter().enumerate() {
            row.clear();
            row.extend_from_slice(&own);
            for (k, items) in item_of.iter_mut().enumerate() {
                let attr = (columns.ind.len() + k) as AttrId;
                for &(_, g) in links.iter().filter(|&&(s, _)| s as usize == slot) {
                    for code in groups.codes(g, k) {
                        let item = &mut items[code as usize];
                        if *item == UNMAPPED {
                            *item = builder.intern_item(attr, groups.values[k][code as usize])?;
                        }
                        row.push(*item);
                    }
                }
            }
            row.sort_unstable();
            row.dedup();
            let unit = &mut unit_of[key as usize];
            if *unit == UNMAPPED {
                *unit = builder.intern_unit(&unit_name(key))?;
            }
            builder.add_encoded_row(&row, *unit)?;
        }
    }
    Ok(builder.finish())
}

/// Build the final table for a dataset under a unit strategy.
///
/// `min_shared` is the projection weight threshold (minimum number of
/// shared individuals/groups for a projection edge; 1 keeps everything).
pub fn build_final_table(
    dataset: &Dataset,
    strategy: &UnitStrategy,
    min_shared: u32,
) -> Result<FinalTable> {
    let mut timings = StageTimings::default();
    match strategy {
        UnitStrategy::GroupAttribute(unit_attr) => {
            let t = Instant::now();
            let columns = resolve_columns(dataset, Some(unit_attr))?;
            let unit_col = dataset.groups.column_index(unit_attr).ok_or_else(|| {
                ScubeError::Schema(format!("groups: missing unit attribute column '{unit_attr}'"))
            })?;
            // Is the unit attribute declared multi-valued? A group may
            // belong to several units then (one row per unit).
            let unit_multi = dataset
                .groups_spec
                .ca_columns
                .iter()
                .find(|(n, _)| n == unit_attr)
                .is_some_and(|(_, m)| *m);
            let mut cols = columns.grp_ca.clone();
            cols.push((unit_col, unit_multi));
            let groups = CodedColumns::new(&dataset.groups, &cols)?;
            let units = UnitSource::GroupCells(columns.grp_ca.len());
            let db = join(dataset, &columns, &groups, units)?;
            timings.join = t.elapsed();
            Ok(FinalTable { db, clustering: None, isolated: Vec::new(), timings })
        }
        UnitStrategy::ClusterGroups(method) => {
            let t = Instant::now();
            let Projection { graph, isolated } = dataset.bipartite.project_groups(min_shared);
            timings.projection = t.elapsed();

            let t = Instant::now();
            let columns = resolve_columns(dataset, None)?;
            let groups = CodedColumns::new(&dataset.groups, &columns.grp_ca)?;
            let clustering = method.cluster(&graph, &groups.node_attributes());
            timings.clustering = t.elapsed();

            let t = Instant::now();
            let db = join(dataset, &columns, &groups, UnitSource::GroupClusters(&clustering))?;
            timings.join = t.elapsed();
            Ok(FinalTable { db, clustering: Some(clustering), isolated, timings })
        }
        UnitStrategy::ClusterIndividuals(method) => {
            let t = Instant::now();
            let Projection { graph, isolated } = dataset.bipartite.project_individuals(min_shared);
            timings.projection = t.elapsed();

            let t = Instant::now();
            let columns = resolve_columns(dataset, None)?;
            let attrs = CodedColumns::new(&dataset.individuals, &columns.ind)?.node_attributes();
            let clustering = method.cluster(&graph, &attrs);
            timings.clustering = t.elapsed();

            let t = Instant::now();
            let groups = CodedColumns::new(&dataset.groups, &columns.grp_ca)?;
            let units = UnitSource::IndividualClusters(&clustering);
            let db = join(dataset, &columns, &groups, units)?;
            timings.join = t.elapsed();
            Ok(FinalTable { db, clustering: Some(clustering), isolated, timings })
        }
    }
}

/// Render an encoded final table back into a [`Relation`] (Fig. 3's
/// `finalTable.csv`): one column per attribute (multi-valued cells
/// `;`-joined) plus `unitID`.
pub fn final_table_relation(db: &TransactionDb) -> Relation {
    let schema = db.schema();
    let mut columns: Vec<String> = schema.attributes().iter().map(|a| a.name.clone()).collect();
    columns.push("unitID".to_string());
    let mut rel = Relation::new(columns).expect("schema names are unique");
    for t in 0..db.len() {
        let mut per_attr: Vec<Vec<&str>> = vec![Vec::new(); schema.len()];
        for &item in db.transaction(t) {
            let attr = db.dictionary().attr_of(item);
            per_attr[attr as usize].push(db.dictionary().value_of(item));
        }
        let mut row: Vec<String> = per_attr.into_iter().map(|vs| vs.join(";")).collect();
        row.push(db.unit_name(db.unit_of(t)).to_string());
        rel.push_row(row).expect("arity matches by construction");
    }
    rel
}

/// The join over strings that the id join replaced, kept as its reference:
/// every row's cells are split, trimmed and unioned as strings, then
/// encoded through `add_row`.
#[cfg(test)]
mod reference {
    use super::*;

    /// Split one CSV cell according to its multi-valued flag.
    fn cell_values(cell: &str, multi: bool) -> Vec<&str> {
        if multi {
            cell.split(MULTI_VALUE_SEPARATOR).map(str::trim).filter(|v| !v.is_empty()).collect()
        } else if cell.trim().is_empty() {
            Vec::new()
        } else {
            vec![cell.trim()]
        }
    }

    /// `individual → sorted unique groups`.
    fn groups_per_individual(dataset: &Dataset) -> Vec<Vec<u32>> {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); dataset.num_individuals()];
        for m in dataset.bipartite.memberships() {
            adj[m.individual as usize].push(m.group);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// Values of one final-table row: the individual's own attributes
    /// followed by the union of the linking groups' context attributes.
    fn row_values<'a>(
        dataset: &'a Dataset,
        columns: &Columns,
        ind: usize,
        groups: &[u32],
    ) -> Vec<Vec<&'a str>> {
        let ind_row = &dataset.individuals.rows()[ind];
        let mut values: Vec<Vec<&str>> = Vec::new();
        for &(c, multi) in &columns.ind {
            values.push(cell_values(&ind_row[c], multi));
        }
        for &(c, multi) in &columns.grp_ca {
            let mut union: Vec<&str> = Vec::new();
            for &g in groups {
                for v in cell_values(&dataset.groups.rows()[g as usize][c], multi) {
                    if !union.contains(&v) {
                        union.push(v);
                    }
                }
            }
            values.push(union);
        }
        values
    }

    /// Units an individual's groups reach, in first-reached order, each
    /// with the groups reaching it.
    fn units_of<K: PartialEq>(
        groups: &[u32],
        unit_keys: impl Fn(u32) -> Vec<K>,
    ) -> Vec<(K, Vec<u32>)> {
        let mut units: Vec<(K, Vec<u32>)> = Vec::new();
        for &g in groups {
            for unit in unit_keys(g) {
                match units.iter_mut().find(|(u, _)| *u == unit) {
                    Some((_, gs)) => gs.push(g),
                    None => units.push((unit, vec![g])),
                }
            }
        }
        units
    }

    /// The final table of `strategy` over strings; `clustering` is the one
    /// the id join used (scenarios 2 and 3).
    pub fn string_join(
        dataset: &Dataset,
        strategy: &UnitStrategy,
        clustering: Option<&Clustering>,
    ) -> TransactionDb {
        let unit_attr = match strategy {
            UnitStrategy::GroupAttribute(attr) => Some(attr.as_str()),
            _ => None,
        };
        let columns = resolve_columns(dataset, unit_attr).unwrap();
        let mut builder = TransactionDbBuilder::new(columns.schema.clone());
        for (ind, groups) in groups_per_individual(dataset).iter().enumerate() {
            let rows: Vec<(String, Vec<u32>)> = match (strategy, clustering) {
                (UnitStrategy::GroupAttribute(attr), _) => {
                    let unit_col = dataset.groups.column_index(attr).unwrap();
                    let unit_multi = dataset
                        .groups_spec
                        .ca_columns
                        .iter()
                        .find(|(n, _)| n == attr)
                        .is_some_and(|(_, m)| *m);
                    let cell = |g: u32| {
                        cell_values(&dataset.groups.rows()[g as usize][unit_col], unit_multi)
                    };
                    let units = units_of(groups, cell);
                    units.into_iter().map(|(u, gs)| (u.to_string(), gs)).collect()
                }
                (UnitStrategy::ClusterGroups(_), Some(c)) => {
                    let units = units_of(groups, |g| vec![c.of(g)]);
                    units.into_iter().map(|(u, gs)| (format!("C{u}"), gs)).collect()
                }
                (UnitStrategy::ClusterIndividuals(_), Some(c)) => {
                    vec![(format!("C{}", c.of(ind as u32)), groups.clone())]
                }
                _ => panic!("a graph strategy needs its clustering"),
            };
            for (unit, unit_groups) in &rows {
                let values = row_values(dataset, &columns, ind, unit_groups);
                builder.add_row(&values, unit).unwrap();
            }
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{GroupsSpec, IndividualsSpec, MembershipSpec};
    use proptest::prelude::*;
    use scube_graph::{LabelPropParams, StocParams};

    fn rel(cols: &[&str], rows: &[&[&str]]) -> Relation {
        let mut r = Relation::new(cols.iter().map(|s| s.to_string()).collect()).unwrap();
        for row in rows {
            r.push_row(row.iter().map(|s| s.to_string()).collect()).unwrap();
        }
        r
    }

    /// d1 sits in c1 (edu, north) and c2 (transport, north); d2 in c2;
    /// d3 in c3 (edu, south); d4 has no board seat.
    fn dataset() -> Dataset {
        let individuals = rel(
            &["id", "gender", "res"],
            &[
                &["d1", "F", "north"],
                &["d2", "M", "north"],
                &["d3", "F", "south"],
                &["d4", "M", "south"],
            ],
        );
        let groups = rel(
            &["id", "sector", "hq"],
            &[&["c1", "edu", "north"], &["c2", "transport", "north"], &["c3", "edu", "south"]],
        );
        let membership =
            rel(&["dir", "comp"], &[&["d1", "c1"], &["d1", "c2"], &["d2", "c2"], &["d3", "c3"]]);
        Dataset::new(
            individuals,
            IndividualsSpec::new("id").sa("gender").ca("res"),
            groups,
            GroupsSpec::new("id").ca("sector").ca("hq"),
            &membership,
            &MembershipSpec::new("dir", "comp"),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn scenario1_group_attribute_units() {
        let d = dataset();
        let ft = build_final_table(&d, &UnitStrategy::GroupAttribute("sector".into()), 1).unwrap();
        // d1 reaches units edu and transport → 2 rows; d2 → 1; d3 → 1.
        assert_eq!(ft.db.len(), 4);
        assert_eq!(ft.db.num_units(), 2);
        assert!(ft.clustering.is_none());
        // The unit attribute is excluded from the CA columns.
        assert!(ft.db.schema().attr_id("sector").is_none());
        assert!(ft.db.schema().attr_id("hq").is_some());
        // Unit names are the sector values.
        let names: Vec<&str> = ft.db.unit_names().iter().map(String::as_str).collect();
        assert!(names.contains(&"edu") && names.contains(&"transport"));
    }

    #[test]
    fn scenario3_group_clusters() {
        let d = dataset();
        let ft = build_final_table(
            &d,
            &UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents),
            1,
        )
        .unwrap();
        // Projection: c1–c2 share d1 → one component {c1,c2}; c3 isolated.
        let clustering = ft.clustering.as_ref().unwrap();
        assert_eq!(clustering.num_clusters(), 2);
        assert_eq!(ft.isolated, vec![2]); // c3 has no projection edge
                                          // Rows: d1 → unit {c1,c2} (1 row), d2 → same unit, d3 → unit {c3}.
        assert_eq!(ft.db.len(), 3);
        // d1's row unions sectors of c1 and c2 → multi-valued sector.
        let d1_items: Vec<String> =
            ft.db.transaction(0).iter().map(|&i| ft.db.item_label(i)).collect();
        assert!(d1_items.contains(&"sector=edu".to_string()));
        assert!(d1_items.contains(&"sector=transport".to_string()));
    }

    #[test]
    fn scenario2_individual_clusters() {
        let d = dataset();
        let ft = build_final_table(
            &d,
            &UnitStrategy::ClusterIndividuals(ClusteringMethod::ConnectedComponents),
            1,
        )
        .unwrap();
        // Directors d1–d2 share board c2 → same community; d3 alone. d4
        // has no membership: it is a singleton community, and since this
        // scenario gives every individual one row, d4's row has its own
        // attributes and no group context values.
        assert_eq!(ft.db.len(), 4);
        let clustering = ft.clustering.as_ref().unwrap();
        assert_eq!(clustering.of(0), clustering.of(1));
        assert_ne!(clustering.of(0), clustering.of(2));
        // d4 row: no group-derived items.
        let d4_items: Vec<String> =
            ft.db.transaction(3).iter().map(|&i| ft.db.item_label(i)).collect();
        assert!(d4_items.iter().all(|l| !l.starts_with("sector=")));
        assert!(d4_items.contains(&"gender=M".to_string()));
    }

    #[test]
    fn final_table_relation_roundtrip_shape() {
        let d = dataset();
        let ft = build_final_table(&d, &UnitStrategy::GroupAttribute("sector".into()), 1).unwrap();
        let rel = final_table_relation(&ft.db);
        assert_eq!(rel.len(), ft.db.len());
        assert_eq!(rel.columns(), &["gender", "res", "hq", "unitID"]);
        // Multi-valued cells are ';'-joined; every row has a unit.
        for row in rel.rows() {
            assert!(!row.last().unwrap().is_empty());
        }
    }

    #[test]
    fn missing_unit_attribute_rejected() {
        let d = dataset();
        let err =
            build_final_table(&d, &UnitStrategy::GroupAttribute("nope".into()), 1).unwrap_err();
        assert!(err.to_string().contains("unit attribute"));
    }

    #[test]
    fn min_shared_threshold_affects_projection() {
        let d = dataset();
        // With min_shared = 2 no company pair shares 2 directors → all
        // companies isolated → every company is its own unit.
        let ft = build_final_table(
            &d,
            &UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents),
            2,
        )
        .unwrap();
        assert_eq!(ft.clustering.as_ref().unwrap().num_clusters(), 3);
        assert_eq!(ft.isolated.len(), 3);
    }

    /// Every strategy the pins run: scenario 1 on the multi-valued unit
    /// column, scenarios 2 and 3 under every clustering method.
    fn strategies() -> Vec<UnitStrategy> {
        let stoc = ClusteringMethod::Stoc(StocParams { tau: 0.4, alpha: 0.3, horizon: 2, seed: 5 });
        let lp = ClusteringMethod::LabelPropagation(LabelPropParams::default());
        let methods = [ClusteringMethod::ConnectedComponents, stoc, lp];
        let mut all = vec![UnitStrategy::GroupAttribute("sector".into())];
        all.extend(methods.iter().map(|m| UnitStrategy::ClusterGroups(*m)));
        all.extend(methods.iter().map(|m| UnitStrategy::ClusterIndividuals(*m)));
        all
    }

    /// The id join's table equals the string join's: the dictionary's
    /// `(attr, value)` order, the unit names, every row's items and unit.
    fn assert_join_matches_reference(d: &Dataset, strategy: &UnitStrategy, min_shared: u32) {
        let ft = build_final_table(d, strategy, min_shared).unwrap();
        let reference = reference::string_join(d, strategy, ft.clustering.as_ref());
        let dict = |db: &TransactionDb| -> Vec<(AttrId, String)> {
            let dict = db.dictionary();
            (0..dict.len() as ItemId).map(|i| (dict.attr_of(i), dict.value_of(i).into())).collect()
        };
        let (got, want) = (&ft.db, &reference);
        assert_eq!(got.schema(), want.schema(), "{strategy:?}");
        assert_eq!(dict(got), dict(want), "dictionary order under {strategy:?}");
        assert_eq!(got.unit_names(), want.unit_names(), "unit names under {strategy:?}");
        assert_eq!(got.len(), want.len(), "rows under {strategy:?}");
        for t in 0..got.len() {
            assert_eq!(got.transaction(t), want.transaction(t), "row {t} under {strategy:?}");
            assert_eq!(got.unit_of(t), want.unit_of(t), "unit of row {t} under {strategy:?}");
        }
    }

    /// Every shape the join must code like the string join: multi-valued
    /// group values first seen in different rows, a group in two units
    /// (multi-valued unit column), blank and whitespace-only cells,
    /// duplicate membership rows, and an individual with no membership.
    fn awkward_dataset() -> Dataset {
        let individuals = rel(
            &["id", "gender", "langs", "res"],
            &[
                &["d1", "F", "it;en", "north"],
                &["d2", " M ", "", "  "],
                &["d3", "", "en; ;fr", "south"],
                &["d4", "M", "it", "north"],
                &["d5", "F", "fr;it;fr", "south"],
                &["d6", "  ", " ; ", ""],
            ],
        );
        let groups = rel(
            &["id", "sector", "hq", "tags"],
            &[
                &["c1", "edu;health", "north", "big;old"],
                &["c2", "transport", "", "new;big"],
                &["c3", "edu", "south", " "],
                &["c4", "  ", "north", "old"],
                &["c5", "health; edu;health", "east", "tiny;new"],
                &["c6", "transport", " south ", ";"],
            ],
        );
        let membership = rel(
            &["dir", "comp"],
            &[
                &["d1", "c1"],
                &["d1", "c2"],
                &["d1", "c1"],
                &["d2", "c4"],
                &["d2", "c2"],
                &["d3", "c3"],
                &["d3", "c4"],
                &["d5", "c5"],
                &["d5", "c1"],
                &["d5", "c5"],
                &["d6", "c6"],
                &["d6", "c2"],
            ],
        );
        let mut spec = IndividualsSpec::new("id").sa("gender").ca("res");
        spec.sa_columns.push(("langs".into(), true));
        Dataset::new(
            individuals,
            spec,
            groups,
            GroupsSpec::new("id").ca_multi("sector").ca("hq").ca_multi("tags"),
            &membership,
            &MembershipSpec::new("dir", "comp"),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn id_join_matches_string_join_on_awkward_inputs() {
        let d = awkward_dataset();
        for strategy in strategies() {
            for min_shared in [1, 2] {
                assert_join_matches_reference(&d, &strategy, min_shared);
            }
        }
        let ft = build_final_table(&d, &UnitStrategy::GroupAttribute("sector".into()), 1).unwrap();
        // d1 reaches edu, health (c1) and transport (c2); d4 has no row.
        assert_eq!(ft.db.unit_names(), ["edu", "health", "transport"]);
        let units: Vec<&str> =
            (0..ft.db.len()).map(|t| ft.db.unit_name(ft.db.unit_of(t))).collect();
        assert_eq!(&units[..3], ["edu", "health", "transport"]);
        assert!(ft.db.len() < 2 * d.num_individuals());
    }

    #[test]
    fn id_join_matches_string_join_on_the_italy_registry() {
        // Assembled here: datagen's `to_dataset` builds the other copy of
        // this crate that a dev-dependency links.
        let g = scube_datagen::generate(scube_datagen::BoardsConfig::italy(300));
        let d = Dataset::new(
            g.individuals,
            IndividualsSpec::new("id").sa("gender").sa("age").sa("birthplace").ca("residence"),
            g.groups,
            GroupsSpec::new("id").ca("sector").ca("region").ca("area"),
            &g.membership,
            &MembershipSpec::new("director", "company"),
            vec![],
        )
        .unwrap();
        for strategy in strategies() {
            assert_join_matches_reference(&d, &strategy, 1);
        }
    }

    /// Cells drawn for the random datasets: plain, padded, blank, and
    /// multi-valued with repeats and empty parts.
    const CELLS: [&str; 9] = ["a", "b", " a ", "", "  ", "a;b", "b; ;a", "c;a;c", ";"];

    fn random_dataset(
        inds: &[(usize, usize, usize)],
        grps: &[(usize, usize, usize)],
        links: &[(usize, usize)],
    ) -> Dataset {
        let ids = |prefix: &str, i: usize| format!("{prefix}{i}");
        let mut individuals = rel(&["id", "g", "l", "r"], &[]);
        for (i, &(g, l, r)) in inds.iter().enumerate() {
            let row = vec![ids("d", i), CELLS[g].into(), CELLS[l].into(), CELLS[r].into()];
            individuals.push_row(row).unwrap();
        }
        let mut groups = rel(&["id", "sector", "hq", "tags"], &[]);
        for (j, &(u, h, t)) in grps.iter().enumerate() {
            let row = vec![ids("c", j), CELLS[u].into(), CELLS[h].into(), CELLS[t].into()];
            groups.push_row(row).unwrap();
        }
        let mut membership = rel(&["dir", "comp"], &[]);
        if !inds.is_empty() {
            for &(i, j) in links {
                membership
                    .push_row(vec![ids("d", i % inds.len()), ids("c", j % grps.len())])
                    .unwrap();
            }
        }
        Dataset::new(
            individuals,
            IndividualsSpec::new("id").sa("g").ca_multi("l").ca("r"),
            groups,
            GroupsSpec::new("id").ca_multi("sector").ca("hq").ca_multi("tags"),
            &membership,
            &MembershipSpec::new("dir", "comp"),
            vec![],
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn id_join_matches_string_join_on_random_datasets(
            inds in proptest::collection::vec((0usize..9, 0usize..9, 0usize..9), 0..8),
            grps in proptest::collection::vec((0usize..9, 0usize..9, 0usize..9), 1..6),
            links in proptest::collection::vec((0usize..8, 0usize..6), 0..16),
            min_shared in 1u32..3,
        ) {
            let d = random_dataset(&inds, &grps, &links);
            for strategy in strategies() {
                assert_join_matches_reference(&d, &strategy, min_shared);
            }
        }
    }

    /// SToC's attributes key each value by its column: two columns sharing
    /// a string are two values. One map shared by all columns gave both
    /// nodes below the codes {Roma, Milano} and a Jaccard of 1.0.
    #[test]
    fn node_attributes_keep_equal_strings_of_two_columns_apart() {
        let r = rel(
            &["birthplace", "residence"],
            &[&["Roma", "Milano"], &["Milano", "Roma"], &["Roma", "Torino"]],
        );
        let attrs = CodedColumns::new(&r, &[(0, false), (1, false)]).unwrap().node_attributes();
        assert_eq!(attrs.jaccard(0, 1), 0.0, "no column shares a value");
        assert!((attrs.jaccard(0, 2) - 1.0 / 3.0).abs() < 1e-12, "birthplace=Roma is shared");
    }
}
