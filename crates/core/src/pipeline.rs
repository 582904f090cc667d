//! The end-to-end SCube pipeline (Fig. 2 and Fig. 3 left-top).
//!
//! `inputs → GraphBuilder → GraphClustering → TableBuilder →
//! SegregationDataCubeBuilder → Visualizer`, with the pre-processing
//! stages skipped when data already carries a `unitID` (tabular scenario).
//!
//! The input picks the build. The graph and registry scenarios build
//! resident ([`run`]), because their joined table is itself an output
//! ([`ScubeResult::final_table`], the Visualizer's `final_table.csv`). A
//! final table — a CSV ([`run_final_table_csv_chunked`]) or an in-memory
//! [`Relation`] ([`run_final_table`]) — streams through the chunked builder
//! and never exists as a horizontal table.

use std::path::Path;
use std::time::{Duration, Instant};

use scube_common::Result;
use scube_cube::{CubeBuilder, CubeSnapshot, SegregationCube, UpdateBatch, UpdateStats};
use scube_data::{
    ChunkedBuildStats, FinalTableSpec, Relation, TableMeta, TransactionDb, VerticalDb,
    DEFAULT_CHUNK_ROWS,
};
use scube_graph::Clustering;

use crate::inputs::Dataset;
use crate::stats::{RunStats, StageTimings};
use crate::table_builder::{build_final_table, UnitStrategy};

/// Configuration of one pipeline run.
#[derive(Debug, Clone)]
pub struct ScubeConfig {
    /// Unit strategy (selects the scenario).
    pub units: UnitStrategy,
    /// Projection weight threshold (minimum shared individuals/groups).
    pub min_shared: u32,
    /// Cube-construction parameters.
    pub cube: CubeBuilder,
}

impl ScubeConfig {
    /// Configuration for a given unit strategy with defaults elsewhere.
    pub fn new(units: UnitStrategy) -> Self {
        ScubeConfig { units, min_shared: 1, cube: CubeBuilder::new() }
    }

    /// Set the projection threshold.
    pub fn min_shared(mut self, w: u32) -> Self {
        self.min_shared = w;
        self
    }

    /// Set the cube builder (min-support, materialization, …).
    pub fn cube(mut self, cube: CubeBuilder) -> Self {
        self.cube = cube;
        self
    }
}

/// Everything one pipeline run produces.
#[derive(Debug)]
pub struct ScubeResult {
    /// The segregation data cube.
    pub cube: SegregationCube,
    /// The encoded final table it was built from.
    pub final_table: TransactionDb,
    /// The vertical (item → tidset) view the cube was mined from, kept so
    /// [`snapshot`] and explorers never rebuild it.
    pub vertical: VerticalDb,
    /// The cube builder the run used. It does not decide what [`snapshot`]
    /// records — the cube carries its own build parameters — and is kept
    /// for callers that assemble this struct by literal.
    pub builder: CubeBuilder,
    /// The clustering behind the units (graph scenarios).
    pub clustering: Option<Clustering>,
    /// Isolated projected nodes.
    pub isolated: Vec<u32>,
    /// Stage timings.
    pub timings: StageTimings,
    /// Size statistics.
    pub stats: RunStats,
}

/// Run the full pipeline over a dataset.
pub fn run(dataset: &Dataset, config: &ScubeConfig) -> Result<ScubeResult> {
    let ft = build_final_table(dataset, &config.units, config.min_shared)?;
    let mut timings = ft.timings;
    let cube_start = Instant::now();
    let vertical: VerticalDb = VerticalDb::build(&ft.db);
    let cube = config.cube.build_from_vertical(&ft.db, &vertical)?;
    timings.cube = cube_start.elapsed();
    let stats = RunStats {
        n_individuals: dataset.num_individuals(),
        n_groups: dataset.num_groups(),
        n_memberships: dataset.bipartite.memberships().len(),
        n_rows: ft.db.len(),
        n_units: ft.db.num_units(),
        n_cells: cube.len(),
        n_isolated: ft.isolated.len(),
    };
    Ok(ScubeResult {
        cube,
        final_table: ft.db,
        vertical,
        builder: config.cube,
        clustering: ft.clustering,
        isolated: ft.isolated,
        timings,
        stats,
    })
}

/// Run on data that already carries a `unitID` column (the pipeline's
/// shortcut path: "the pre-processing steps … do not need to be performed").
/// The rows go through the chunked builder in [`DEFAULT_CHUNK_ROWS`]-row
/// chunks, exactly as [`run_final_table_csv_chunked`] takes them off a file.
pub fn run_final_table(
    table: &Relation,
    spec: &FinalTableSpec,
    cube: &CubeBuilder,
) -> Result<ChunkedBuild> {
    let join_start = Instant::now();
    let mut enc = spec.chunked_encoder(table.columns(), DEFAULT_CHUNK_ROWS)?;
    for row in table.rows() {
        enc.add_record(row)?;
    }
    let ingested = enc.into_builder().finish()?;
    build_chunked(ingested, cube, join_start.elapsed())
}

/// Everything a final-table build produces. Unlike [`ScubeResult`] there
/// is no `final_table`: the input already is one, and the horizontal
/// [`TransactionDb`] is never materialized — only the vertical postings,
/// the cube, and the label metadata exist, so peak memory is bounded by
/// the *output*, not the input table.
#[derive(Debug)]
pub struct ChunkedBuild {
    /// The segregation data cube.
    pub cube: SegregationCube,
    /// The vertical (item → tidset) view, grown chunk by chunk.
    pub vertical: VerticalDb,
    /// The cube builder the run used. It does not decide what
    /// [`snapshot_chunked`] records — the cube carries its own build
    /// parameters — and is kept for callers that assemble this struct by
    /// literal.
    pub builder: CubeBuilder,
    /// Chunk accounting: rows, flushes, peak staged rows/items.
    pub chunk_stats: ChunkedBuildStats,
    /// Stage timings.
    pub timings: StageTimings,
    /// Size statistics.
    pub stats: RunStats,
}

/// As [`run_final_table`], straight off a CSV file (`scube run/save
/// --final-table`): rows stream in tid order, are interned and staged at
/// most `chunk_rows` at a time, and each full chunk is tail-appended into
/// the vertical postings. Neither the string table nor the horizontal one
/// ever exists; peak memory is the postings plus one chunk. The cube — and
/// any snapshot saved from it — is **byte-identical** to the resident
/// reference (`FinalTableSpec::load_csv` + `CubeSnapshot::from_db`):
/// both intern through the same code in the same order.
pub fn run_final_table_csv_chunked(
    path: impl AsRef<Path>,
    spec: &FinalTableSpec,
    cube: &CubeBuilder,
    chunk_rows: usize,
) -> Result<ChunkedBuild> {
    let join_start = Instant::now();
    let ingested = spec.load_csv_chunked(path, chunk_rows)?;
    build_chunked(ingested, cube, join_start.elapsed())
}

/// The tail both final-table builds share: mine the cube off the chunked
/// ingest's postings and package it with the run's accounting (`join` is
/// the ingest time).
fn build_chunked(
    (vertical, meta, chunk_stats): (VerticalDb, TableMeta, ChunkedBuildStats),
    builder: &CubeBuilder,
    join: Duration,
) -> Result<ChunkedBuild> {
    let cube_start = Instant::now();
    let cube = builder.build_streaming(&meta, &vertical)?;
    let timings = StageTimings { join, cube: cube_start.elapsed(), ..Default::default() };
    let n_rows = vertical.num_transactions() as usize;
    let stats = RunStats {
        n_individuals: n_rows,
        n_rows,
        n_units: meta.num_units(),
        n_cells: cube.len(),
        ..Default::default()
    };
    Ok(ChunkedBuild { cube, vertical, builder: *builder, chunk_stats, timings, stats })
}

/// As [`snapshot`], for a final-table build. Byte-identical to
/// `CubeSnapshot::from_db` on the encoded table. Like [`snapshot`], it
/// shares the build's postings and maintenance store, copied on first
/// write.
pub fn snapshot_chunked(result: &ChunkedBuild) -> Result<CubeSnapshot> {
    CubeSnapshot::new(result.cube.clone(), result.vertical.clone())
}

/// Package a finished run as a persistable [`CubeSnapshot`]: the cube —
/// with the maintenance store its build emitted and the parameters it was
/// built under — plus the vertical postings it was mined from, both carried
/// over from [`run`], not reconstructed, ready for `scube save` /
/// [`scube_cube::ConcurrentCubeEngine`] serving without re-mining. Later
/// updates maintain the cube under its own parameters. Cells, labels and
/// the `tid → unit` map are cloned; the postings and the maintenance store
/// are shared with `result` and copied on first write, so an update to the
/// snapshot leaves `result` as it was.
pub fn snapshot(result: &ScubeResult) -> Result<CubeSnapshot> {
    CubeSnapshot::new(result.cube.clone(), result.vertical.clone())
}

/// The `scube update` verb: load a snapshot file, fold final-table-shaped
/// relations of appended (`add`) and retracted (`remove`, matched exactly)
/// rows into it (`unit_column` names the unit id column), and save the
/// patched snapshot back. Dirty cells are re-evaluated on the host's
/// threads (bit-identical to one). Returns the update stats; the save is
/// atomic (temp file + rename), so the file holds the previous snapshot
/// until the update fully succeeds.
pub fn update_snapshot_file(
    path: impl AsRef<Path>,
    add: Option<&Relation>,
    remove: Option<&Relation>,
    unit_column: &str,
) -> Result<UpdateStats> {
    let path = path.as_ref();
    let mut snapshot: CubeSnapshot = CubeSnapshot::load(path)?;
    let mut batch = match add {
        Some(rows) => UpdateBatch::from_relation(rows, snapshot.cube().labels(), unit_column)?,
        None => UpdateBatch::new(),
    };
    if let Some(rows) = remove {
        batch.remove_relation(rows, snapshot.cube().labels(), unit_column)?;
    }
    let stats = snapshot.apply_update_threads(&batch, scube_common::par::host_threads())?;
    snapshot.save(path)?;
    Ok(stats)
}

/// Temporal analysis: run the pipeline once per snapshot date.
///
/// Returns `(date, result)` pairs in date order. Uses the dataset's own
/// `dates` input (Fig. 2).
pub fn run_snapshots(dataset: &Dataset, config: &ScubeConfig) -> Result<Vec<(i64, ScubeResult)>> {
    let mut dates = dataset.dates.clone();
    dates.sort_unstable();
    dates.dedup();
    let mut out = Vec::with_capacity(dates.len());
    for date in dates {
        let snap = dataset.snapshot(date);
        out.push((date, run(&snap, config)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{GroupsSpec, IndividualsSpec, MembershipSpec};
    use crate::unit_assignment::ClusteringMethod;
    use scube_segindex::SegIndex;

    fn rel(cols: &[&str], rows: &[&[&str]]) -> Relation {
        let mut r = Relation::new(cols.iter().map(|s| s.to_string()).collect()).unwrap();
        for row in rows {
            r.push_row(row.iter().map(|s| s.to_string()).collect()).unwrap();
        }
        r
    }

    fn dataset() -> Dataset {
        // Two "industries": companies c1,c2 (edu) interlocked through d1;
        // c3 (agri) separate. Women concentrate in edu boards.
        let individuals = rel(
            &["id", "gender"],
            &[&["d1", "F"], &["d2", "F"], &["d3", "F"], &["d4", "M"], &["d5", "M"], &["d6", "M"]],
        );
        let groups = rel(&["id", "sector"], &[&["c1", "edu"], &["c2", "edu"], &["c3", "agri"]]);
        let membership = rel(
            &["dir", "comp", "from", "to"],
            &[
                &["d1", "c1", "2000", "2010"],
                &["d1", "c2", "2000", "2010"],
                &["d2", "c1", "2000", "2004"],
                &["d3", "c2", "2005", "2010"],
                &["d4", "c3", "2000", "2010"],
                &["d5", "c3", "2000", "2010"],
                &["d6", "c3", "2005", "2010"],
            ],
        );
        Dataset::new(
            individuals,
            IndividualsSpec::new("id").sa("gender"),
            groups,
            GroupsSpec::new("id").ca("sector"),
            &membership,
            &MembershipSpec::new("dir", "comp").with_interval("from", "to"),
            vec![2002, 2006],
        )
        .unwrap()
    }

    #[test]
    fn scenario3_end_to_end() {
        let d = dataset();
        let config =
            ScubeConfig::new(UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents));
        let result = run(&d, &config).unwrap();
        // Units: {c1,c2} and {c3}. All edu directors are F, all agri are M
        // → complete segregation for gender=F at the * context.
        assert_eq!(result.final_table.num_units(), 2);
        let v = result.cube.get_by_names(&[("gender", "F")], &[]).unwrap();
        assert_eq!(v.dissimilarity, Some(1.0));
        assert_eq!(v.isolation, Some(1.0));
        assert_eq!(result.stats.n_cells, result.cube.len());
        assert!(result.stats.n_rows >= 6);
    }

    #[test]
    fn scenario1_group_attribute_end_to_end() {
        let d = dataset();
        let config = ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()));
        let result = run(&d, &config).unwrap();
        assert_eq!(result.final_table.num_units(), 2); // edu, agri
        let v = result.cube.get_by_names(&[("gender", "F")], &[]).unwrap();
        assert_eq!(v.dissimilarity, Some(1.0));
    }

    #[test]
    fn tabular_shortcut_equals_group_attribute_path() {
        // Scenario 1 via the shortcut: the final table built by hand.
        let table = rel(
            &["gender", "unitID"],
            &[
                &["F", "edu"],
                &["F", "edu"],
                &["F", "edu"],
                &["M", "agri"],
                &["M", "agri"],
                &["M", "agri"],
            ],
        );
        let spec = FinalTableSpec::new("unitID").sa("gender");
        let result = run_final_table(&table, &spec, &CubeBuilder::new()).unwrap();
        let v = result.cube.get_by_names(&[("gender", "F")], &[]).unwrap();
        assert_eq!(v.dissimilarity, Some(1.0));
        assert_eq!(result.stats.n_units, 2);
        // The chunked shortcut saves the resident reference's bytes.
        let reference =
            CubeSnapshot::from_db(&spec.encode(&table).unwrap(), &CubeBuilder::new()).unwrap();
        assert_eq!(snapshot_chunked(&result).unwrap().to_bytes(), reference.to_bytes());
    }

    #[test]
    fn updates_to_shared_snapshots_leave_their_sources_unchanged() {
        use scube_cube::{CellCoords, ConcurrentCubeEngine, UpdateBatch};
        let table = rel(
            &["gender", "region", "unitID"],
            &[
                &["F", "north", "u0"],
                &["F", "south", "u0"],
                &["M", "north", "u1"],
                &["F", "north", "u1"],
                &["M", "south", "u2"],
                &["M", "north", "u2"],
            ],
        );
        let spec = FinalTableSpec::new("unitID").sa("gender").ca("region");
        let built = run_final_table(&table, &spec, &CubeBuilder::new()).unwrap();
        let bytes = snapshot_chunked(&built).unwrap().to_bytes();
        // An interior retraction that empties unit u0 (postings rebuilt,
        // then renamed) and an append into a new unit: every copy-on-write
        // site runs.
        let mut batch = UpdateBatch::new();
        batch.remove_tid(0);
        batch.remove_tid(1);
        batch.add_row(&[("gender", "F"), ("region", "south")], "u3");

        let mut updated = snapshot_chunked(&built).unwrap();
        assert_eq!(updated.apply_update(&batch).unwrap().dropped_units, 1, "u0 left");
        assert_ne!(updated.to_bytes(), bytes, "the update changed the snapshot");
        assert_eq!(snapshot_chunked(&built).unwrap().to_bytes(), bytes, "but not the build");

        let engine = ConcurrentCubeEngine::new(snapshot_chunked(&built).unwrap());
        let coords: Vec<CellCoords> = built.cube.cells().map(|(c, _)| c.clone()).collect();
        let answers = engine.query_batch(&coords, 1).unwrap();
        let mut next = engine.snapshot();
        next.apply_update(&batch).unwrap();
        assert_eq!(next.to_bytes(), updated.to_bytes(), "the engine's snapshot updates alike");
        assert_eq!(engine.query_batch(&coords, 1).unwrap(), answers, "the engine answers alike");
        assert_eq!(engine.snapshot().to_bytes(), bytes, "and serves the build's bytes");
    }

    #[test]
    fn labels_are_shared_until_a_batch_writes_them() {
        use scube_cube::{ConcurrentCubeEngine, UpdateBatch};
        let table = rel(
            &["gender", "region", "unitID"],
            &[
                &["F", "north", "u0"],
                &["F", "south", "u0"],
                &["M", "north", "u1"],
                &["F", "north", "u1"],
                &["M", "south", "u2"],
            ],
        );
        let spec = FinalTableSpec::new("unitID").sa("gender").ca("region");
        let built = run_final_table(&table, &spec, &CubeBuilder::new()).unwrap();
        let engine = ConcurrentCubeEngine::new(snapshot_chunked(&built).unwrap());
        let source = engine.snapshot();
        let (labels, bytes) = (source.cube().labels().clone(), source.to_bytes());
        let shared = |next: &scube_cube::CubeSnapshot| {
            std::ptr::eq(next.cube().labels(), source.cube().labels())
        };
        assert!(shared(&engine.snapshot()), "a snapshot shares the served labels");

        // An append of known labels and a retraction of row 3, which is no
        // item's or unit's first occurrence: nothing to write.
        let mut known = UpdateBatch::new();
        known.add_row(&[("gender", "M"), ("region", "north")], "u0");
        known.remove_tid(3);
        // A new unit; and the retraction of u2's only row, which renames.
        let mut adds = UpdateBatch::new();
        adds.add_row(&[("gender", "F"), ("region", "south")], "u3");
        let mut renames = UpdateBatch::new();
        renames.remove_tid(4);

        for (batch, writes) in [(&known, false), (&adds, true), (&renames, true)] {
            let mut next = engine.snapshot();
            let stats = next.apply_update(batch).unwrap();
            assert_eq!(stats.new_units + stats.dropped_units, usize::from(writes), "{stats:?}");
            assert_eq!(shared(&next), !writes, "{stats:?}");
            assert_eq!(next.cube().labels() == &labels, !writes, "{stats:?}");
            assert_eq!(source.cube().labels(), &labels, "the source keeps its labels");
            assert_eq!(source.to_bytes(), bytes, "and its bytes");
            assert_eq!(engine.snapshot().to_bytes(), bytes, "as does the engine");
        }
    }

    #[test]
    fn snapshots_follow_membership_intervals() {
        let d = dataset();
        let config =
            ScubeConfig::new(UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents));
        let snaps = run_snapshots(&d, &config).unwrap();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, 2002);
        // In 2002: d1,d2 active in edu, d4,d5 in agri (d3,d6 not yet).
        assert_eq!(snaps[0].1.stats.n_rows, 4);
        // In 2006: d1,d3 in edu; d4,d5,d6 in agri.
        assert_eq!(snaps[1].0, 2006);
        assert_eq!(snaps[1].1.stats.n_rows, 5);
        // Complete segregation persists in both snapshots.
        for (_, r) in &snaps {
            let v = r.cube.get_by_names(&[("gender", "F")], &[]).unwrap();
            assert_eq!(v.get(SegIndex::Dissimilarity), Some(1.0));
        }
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let d = dataset();
        let config = ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()));
        let result = run(&d, &config).unwrap();
        let snap = snapshot(&result).unwrap();
        let loaded: CubeSnapshot = CubeSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(loaded.cube(), &result.cube);
        let engine = scube_cube::ConcurrentCubeEngine::new(loaded);
        let coords = result.cube.coords_by_names(&[("gender", "F")], &[]).unwrap();
        assert_eq!(engine.query(&coords).unwrap().dissimilarity, Some(1.0));
    }

    #[test]
    fn snapshot_records_the_run_build_config() {
        use scube_cube::{Materialize, UpdateBatch};
        let d = dataset();
        let config = ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()))
            .cube(CubeBuilder::new().materialize(Materialize::ClosedOnly).atkinson_b(0.25));
        let result = run(&d, &config).unwrap();
        let snap = snapshot(&result).unwrap();
        // The save path must carry the run's configuration, or later
        // updates would maintain a closed cube under AllFrequent rules
        // (and re-evaluate with the wrong Atkinson parameter).
        assert_eq!(snap.materialize(), Materialize::ClosedOnly);
        assert_eq!(snap.atkinson_b(), 0.25);
        // And a snapshot-path update matches re-running the pipeline on
        // the concatenated final table.
        let full_rel = crate::table_builder::final_table_relation(&result.final_table);
        let mut updated = snap;
        let batch = UpdateBatch::from_relation(
            &full_rel.slice_rows(0..2),
            updated.cube().labels(),
            "unitID",
        )
        .unwrap();
        updated.apply_update(&batch).unwrap();
        assert!(updated.cube().len() >= result.cube.len());
    }

    #[test]
    fn timings_are_populated() {
        let d = dataset();
        let config =
            ScubeConfig::new(UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents));
        let result = run(&d, &config).unwrap();
        assert!(result.timings.total() > std::time::Duration::ZERO);
    }
}
