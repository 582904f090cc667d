#![warn(missing_docs)]
//! # SCube: a tool for segregation discovery
//!
//! Rust reproduction of *SCube: A Tool for Segregation Discovery* (Baroni &
//! Ruggieri, EDBT 2019) and the `SegregationDataCubeBuilder` algorithm of
//! its companion journal paper. SCube discovers **contexts of social
//! segregation** — instead of hypothesis-testing one suspected context, it
//! materializes a multi-dimensional *segregation data cube* whose
//! dimensions are segregation attributes (sex, age, …) and context
//! attributes (region, sector, …) and whose cells hold social-science
//! segregation indexes over organizational units.
//!
//! ## Pipeline (paper Fig. 2)
//!
//! ```text
//! individuals ─┐
//! groups      ─┼─► GraphBuilder ─► GraphClustering ─► TableBuilder ─► SegregationDataCubeBuilder ─► Visualizer
//! membership  ─┤    (projection)     (units)           (finalTable)      (cube)                       (reports)
//! dates       ─┘
//! ```
//!
//! * [`inputs`] — the four inputs and the validated [`inputs::Dataset`];
//! * [`table_builder`] — projections + unit strategies (the three demo
//!   scenarios) + the final-table join;
//! * [`unit_assignment`] — the clustering methods (connected components,
//!   weight threshold, SToC);
//! * [`pipeline`] — one-call orchestration, including temporal snapshots;
//! * [`visualizer`] — CSV/Markdown report output;
//! * [`wizard`] — the fluent, step-guided front-end.
//!
//! ## Quick start
//!
//! ```
//! use scube::prelude::*;
//!
//! // A tiny population: individuals with a gender SA, companies with a
//! // sector CA, memberships linking them.
//! let mut individuals = Relation::new(vec!["id".into(), "gender".into()]).unwrap();
//! for (id, g) in [("d1", "F"), ("d2", "M"), ("d3", "F")] {
//!     individuals.push_row(vec![id.into(), g.into()]).unwrap();
//! }
//! let mut groups = Relation::new(vec!["id".into(), "sector".into()]).unwrap();
//! for (id, s) in [("c1", "edu"), ("c2", "agri")] {
//!     groups.push_row(vec![id.into(), s.into()]).unwrap();
//! }
//! let mut membership = Relation::new(vec!["dir".into(), "comp".into()]).unwrap();
//! for (d, c) in [("d1", "c1"), ("d2", "c2"), ("d3", "c1")] {
//!     membership.push_row(vec![d.into(), c.into()]).unwrap();
//! }
//!
//! let result = Wizard::new()
//!     .individuals(individuals, IndividualsSpec::new("id").sa("gender"))
//!     .groups(groups, GroupsSpec::new("id").ca("sector"))
//!     .membership(membership, MembershipSpec::new("dir", "comp"))
//!     .units(UnitStrategy::GroupAttribute("sector".into()))
//!     .run()
//!     .unwrap();
//!
//! // Women are fully concentrated in the edu sector here:
//! let cell = result.cube.get_by_names(&[("gender", "F")], &[]).unwrap();
//! assert_eq!(cell.dissimilarity, Some(1.0));
//! ```

pub mod daemon;
pub mod inputs;
pub mod pipeline;
pub mod stats;
pub mod table_builder;
pub mod unit_assignment;
pub mod visualizer;
pub mod wizard;

pub use daemon::{Daemon, DaemonConfig};
pub use inputs::{Dataset, GroupsSpec, IndividualsSpec, MembershipSpec};
pub use pipeline::{
    run, run_final_table, run_final_table_csv_chunked, run_snapshots, snapshot, snapshot_chunked,
    update_snapshot_file, ChunkedBuild, ScubeConfig, ScubeResult,
};
pub use table_builder::{build_final_table, final_table_relation, FinalTable, UnitStrategy};
pub use unit_assignment::ClusteringMethod;
pub use visualizer::Visualizer;
pub use wizard::Wizard;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::inputs::{Dataset, GroupsSpec, IndividualsSpec, MembershipSpec};
    pub use crate::pipeline::{
        run, run_final_table, run_final_table_csv_chunked, run_snapshots, snapshot,
        snapshot_chunked, update_snapshot_file, ChunkedBuild, ScubeConfig, ScubeResult,
    };
    pub use crate::table_builder::UnitStrategy;
    pub use crate::unit_assignment::ClusteringMethod;
    pub use crate::visualizer::Visualizer;
    pub use crate::wizard::Wizard;
    pub use scube_common::{Result, ScubeError};
    pub use scube_cube::{
        fig1_grid, radial_series, top_contexts, CellCoords, ConcurrentCubeEngine, CubeBuilder,
        CubeExplorer, CubeSnapshot, Materialize, QueryStats, SegregationCube, UpdateBatch,
        UpdateStats,
    };
    pub use scube_data::{ChunkedBuildStats, FinalTableSpec, Relation};
    pub use scube_graph::{LabelPropParams, StocParams};
    pub use scube_segindex::{IndexValues, MeasureSet, PermutationTest, SegIndex, UnitCounts};
}
