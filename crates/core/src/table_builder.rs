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

use std::time::Instant;

use scube_common::{Result, ScubeError};
use scube_data::{Attribute, Relation, Schema, TransactionDb, TransactionDbBuilder};
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

/// Column handles resolved once per build.
struct Columns {
    ind_sa: Vec<(usize, bool)>,
    ind_ca: Vec<(usize, bool)>,
    grp_ca: Vec<(usize, bool, String)>,
}

fn resolve_columns(dataset: &Dataset, exclude_group_attr: Option<&str>) -> Result<Columns> {
    let ind = &dataset.individuals;
    let grp = &dataset.groups;
    let col = |rel: &Relation, name: &str, what: &str| -> Result<usize> {
        rel.column_index(name)
            .ok_or_else(|| ScubeError::Schema(format!("{what}: missing column '{name}'")))
    };
    let mut ind_sa = Vec::new();
    for (name, multi) in &dataset.individuals_spec.sa_columns {
        ind_sa.push((col(ind, name, "individuals")?, *multi));
    }
    let mut ind_ca = Vec::new();
    for (name, multi) in &dataset.individuals_spec.ca_columns {
        ind_ca.push((col(ind, name, "individuals")?, *multi));
    }
    let mut grp_ca = Vec::new();
    for (name, multi) in &dataset.groups_spec.ca_columns {
        if exclude_group_attr == Some(name.as_str()) {
            continue;
        }
        grp_ca.push((col(grp, name, "groups")?, *multi, name.clone()));
    }
    Ok(Columns { ind_sa, ind_ca, grp_ca })
}

/// Schema of the final table: individual SA, individual CA, then group CA.
///
/// Group-derived context attributes are always multi-valued: a row unions
/// the values over every group connecting the individual to the unit.
fn final_schema(dataset: &Dataset, columns: &Columns) -> Result<Schema> {
    let mut attrs = Vec::new();
    for (name, multi) in &dataset.individuals_spec.sa_columns {
        let mut a = Attribute::sa(name.clone());
        a.multi_valued = *multi;
        attrs.push(a);
    }
    for (name, multi) in &dataset.individuals_spec.ca_columns {
        let mut a = Attribute::ca(name.clone());
        a.multi_valued = *multi;
        attrs.push(a);
    }
    for (_, _, name) in &columns.grp_ca {
        attrs.push(Attribute::ca(name.clone()).multi());
    }
    Schema::new(attrs)
}

/// Split one CSV cell according to its multi-valued flag, borrowing the
/// values from the cell.
fn cell_values(cell: &str, multi: bool) -> Vec<&str> {
    if multi {
        cell.split(scube_data::MULTI_VALUE_SEPARATOR)
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .collect()
    } else if cell.trim().is_empty() {
        Vec::new()
    } else {
        vec![cell.trim()]
    }
}

/// Node attributes for SToC: every attribute value of the node's relation
/// row, interned to dense codes.
fn node_attributes(rel: &Relation, cols: &[(usize, bool)]) -> NodeAttributes {
    let mut dict: scube_common::FxHashMap<&str, u32> = scube_common::FxHashMap::default();
    let mut rows = Vec::with_capacity(rel.len());
    for row in rel.rows() {
        let mut codes = Vec::new();
        for &(c, multi) in cols {
            for v in cell_values(&row[c], multi) {
                let next = dict.len() as u32;
                let code = *dict.entry(v).or_insert(next);
                codes.push(code);
            }
        }
        rows.push(codes);
    }
    NodeAttributes::from_rows(rows)
}

/// `individual → sorted unique groups` from the dataset's bipartite graph.
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

/// Build the final table for a dataset under a unit strategy.
///
/// `min_shared` is the projection weight threshold (minimum number of
/// shared individuals/groups for a projection edge; 1 keeps everything).
pub fn build_final_table(
    dataset: &Dataset,
    strategy: &UnitStrategy,
    min_shared: u32,
) -> Result<FinalTable> {
    match strategy {
        UnitStrategy::GroupAttribute(attr) => build_by_group_attribute(dataset, attr),
        UnitStrategy::ClusterIndividuals(method) => {
            build_by_individual_clusters(dataset, method, min_shared)
        }
        UnitStrategy::ClusterGroups(method) => build_by_group_clusters(dataset, method, min_shared),
    }
}

fn build_by_group_attribute(dataset: &Dataset, unit_attr: &str) -> Result<FinalTable> {
    let mut timings = StageTimings::default();
    let columns = resolve_columns(dataset, Some(unit_attr))?;
    let unit_col = dataset.groups.column_index(unit_attr).ok_or_else(|| {
        ScubeError::Schema(format!("groups: missing unit attribute column '{unit_attr}'"))
    })?;
    // Is the unit attribute declared multi-valued? A group may belong to
    // several units then (one row per unit).
    let unit_multi = dataset
        .groups_spec
        .ca_columns
        .iter()
        .find(|(n, _)| n == unit_attr)
        .map(|(_, m)| *m)
        .unwrap_or(false);

    let join_start = Instant::now();
    let schema = final_schema(dataset, &columns)?;
    let mut builder = TransactionDbBuilder::new(schema);
    let adjacency = groups_per_individual(dataset);

    for (ind, groups) in adjacency.iter().enumerate() {
        // Unit values this individual reaches, with the groups per unit.
        let mut units: Vec<(&str, Vec<u32>)> = Vec::new();
        for &g in groups {
            for unit in cell_values(&dataset.groups.rows()[g as usize][unit_col], unit_multi) {
                match units.iter_mut().find(|(u, _)| *u == unit) {
                    Some((_, gs)) => gs.push(g),
                    None => units.push((unit, vec![g])),
                }
            }
        }
        for (unit, unit_groups) in &units {
            let values = row_values(dataset, &columns, ind, unit_groups);
            builder.add_row(&values, unit)?;
        }
    }
    timings.join = join_start.elapsed();
    Ok(FinalTable { db: builder.finish(), clustering: None, isolated: Vec::new(), timings })
}

fn build_by_group_clusters(
    dataset: &Dataset,
    method: &ClusteringMethod,
    min_shared: u32,
) -> Result<FinalTable> {
    let mut timings = StageTimings::default();

    let t = Instant::now();
    let Projection { graph, isolated } = dataset.bipartite.project_groups(min_shared);
    timings.projection = t.elapsed();

    let t = Instant::now();
    let grp_cols: Vec<(usize, bool)> =
        resolve_columns(dataset, None)?.grp_ca.iter().map(|&(c, m, _)| (c, m)).collect();
    let attrs = node_attributes(&dataset.groups, &grp_cols);
    let clustering = method.cluster(&graph, &attrs);
    timings.clustering = t.elapsed();

    let t = Instant::now();
    let columns = resolve_columns(dataset, None)?;
    let schema = final_schema(dataset, &columns)?;
    let mut builder = TransactionDbBuilder::new(schema);
    let adjacency = groups_per_individual(dataset);
    for (ind, groups) in adjacency.iter().enumerate() {
        // Units this individual reaches, with the member groups per unit.
        let mut units: Vec<(u32, Vec<u32>)> = Vec::new();
        for &g in groups {
            let unit = clustering.of(g);
            match units.iter_mut().find(|(u, _)| *u == unit) {
                Some((_, gs)) => gs.push(g),
                None => units.push((unit, vec![g])),
            }
        }
        for (unit, unit_groups) in &units {
            let values = row_values(dataset, &columns, ind, unit_groups);
            builder.add_row(&values, &format!("C{unit}"))?;
        }
    }
    timings.join = t.elapsed();
    Ok(FinalTable { db: builder.finish(), clustering: Some(clustering), isolated, timings })
}

fn build_by_individual_clusters(
    dataset: &Dataset,
    method: &ClusteringMethod,
    min_shared: u32,
) -> Result<FinalTable> {
    let mut timings = StageTimings::default();

    let t = Instant::now();
    let Projection { graph, isolated } = dataset.bipartite.project_individuals(min_shared);
    timings.projection = t.elapsed();

    let t = Instant::now();
    let columns = resolve_columns(dataset, None)?;
    let ind_cols: Vec<(usize, bool)> =
        columns.ind_sa.iter().chain(columns.ind_ca.iter()).copied().collect();
    let attrs = node_attributes(&dataset.individuals, &ind_cols);
    let clustering = method.cluster(&graph, &attrs);
    timings.clustering = t.elapsed();

    let t = Instant::now();
    let schema = final_schema(dataset, &columns)?;
    let mut builder = TransactionDbBuilder::new(schema);
    let adjacency = groups_per_individual(dataset);
    for (ind, groups) in adjacency.iter().enumerate() {
        // One row per individual: the unit is the individual's community.
        let values = row_values(dataset, &columns, ind, groups);
        builder.add_row(&values, &format!("C{}", clustering.of(ind as u32)))?;
    }
    timings.join = t.elapsed();
    Ok(FinalTable { db: builder.finish(), clustering: Some(clustering), isolated, timings })
}

/// Values of one final-table row: the individual's own attributes followed
/// by the union of the linking groups' context attributes.
fn row_values<'a>(
    dataset: &'a Dataset,
    columns: &Columns,
    ind: usize,
    groups: &[u32],
) -> Vec<Vec<&'a str>> {
    let ind_row = &dataset.individuals.rows()[ind];
    let mut values: Vec<Vec<&str>> =
        Vec::with_capacity(columns.ind_sa.len() + columns.ind_ca.len() + columns.grp_ca.len());
    for &(c, multi) in columns.ind_sa.iter().chain(columns.ind_ca.iter()) {
        values.push(cell_values(&ind_row[c], multi));
    }
    for &(c, multi, _) in &columns.grp_ca {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{GroupsSpec, IndividualsSpec, MembershipSpec};

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
        // Directors d1–d2 share board c2 → same community; d3 alone; d4 has
        // no memberships (isolated singleton, no final-table row since the
        // row set is driven by memberships... d4 has no groups → still gets
        // a row with empty group CA).
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
}
