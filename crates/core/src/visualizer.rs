//! The Visualizer module (Fig. 2): write the analysis artefacts to disk.
//!
//! The original tool emits an OOXML workbook (`scube.xlsx`) opened in
//! Excel/LibreOffice; we emit the equivalent as a CSV "workbook" — one file
//! per sheet — plus plain-text pivots, all machine-readable:
//!
//! * `cube.csv` — one row per cell, all indexes (Fig. 5 top);
//! * `top_contexts.csv` — contexts ranked by an index;
//! * `final_table.csv` — the Fig. 3 final table (not for a final-table
//!   input, which already is one);
//! * `summary.md` — run statistics and the Fig. 1-style grid when the
//!   schema has at least two SA attributes and one CA attribute.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use scube_common::{Result, ScubeError};
use scube_cube::{report, SegregationCube};
use scube_data::TransactionDb;
use scube_segindex::SegIndex;

use crate::pipeline::{ChunkedBuild, ScubeResult};
use crate::stats::{RunStats, StageTimings};
use crate::table_builder::final_table_relation;

/// Writes a [`ScubeResult`] as a directory of reports.
#[derive(Debug, Clone)]
pub struct Visualizer {
    out_dir: PathBuf,
    /// Index used for ranking in `top_contexts.csv`.
    pub rank_index: SegIndex,
    /// Minimum cell population for the top-contexts report.
    pub min_total: u64,
    /// Number of top contexts to keep (0 = all).
    pub top_k: usize,
}

impl Visualizer {
    /// Visualizer writing into `out_dir` (created if missing).
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        Visualizer {
            out_dir: out_dir.into(),
            rank_index: SegIndex::Dissimilarity,
            min_total: 10,
            top_k: 50,
        }
    }

    /// Set the ranking index.
    pub fn rank_by(mut self, index: SegIndex) -> Self {
        self.rank_index = index;
        self
    }

    /// Set the population floor for ranked contexts.
    pub fn min_total(mut self, min_total: u64) -> Self {
        self.min_total = min_total;
        self
    }

    /// Write every artefact of a pipeline run; returns the paths written.
    pub fn write_all(&self, result: &ScubeResult) -> Result<Vec<PathBuf>> {
        self.write_sheets(&result.cube, &result.stats, &result.timings, Some(&result.final_table))
    }

    /// Write the artefacts of a final-table build: those of
    /// [`Self::write_all`] minus `final_table.csv`, because the input
    /// already is the final table.
    pub fn write_chunked(&self, result: &ChunkedBuild) -> Result<Vec<PathBuf>> {
        self.write_sheets(&result.cube, &result.stats, &result.timings, None)
    }

    /// The body of [`Self::write_all`] and [`Self::write_chunked`]:
    /// `final_table.csv` is written only when the run carries the joined
    /// table.
    fn write_sheets(
        &self,
        cube: &SegregationCube,
        stats: &RunStats,
        timings: &StageTimings,
        final_table: Option<&TransactionDb>,
    ) -> Result<Vec<PathBuf>> {
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| ScubeError::io_at(self.out_dir.display().to_string(), e))?;
        let mut written = Vec::new();

        // Sheet 1: the cube.
        written.push(self.write_file("cube.csv", &report::to_csv(cube))?);

        // Sheet 2: ranked contexts.
        let top = report::top_contexts(cube, self.rank_index, self.top_k, self.min_total);
        let mut rows = vec![vec![
            "context".to_string(),
            self.rank_index.name().to_string(),
            "M".to_string(),
            "T".to_string(),
        ]];
        for (coords, values, x) in &top {
            rows.push(vec![
                cube.labels().describe(coords),
                format!("{x:.4}"),
                values.minority.to_string(),
                values.total.to_string(),
            ]);
        }
        let csv = scube_common::csv::to_string(rows.iter().map(|r| r.iter()));
        written.push(self.write_file("top_contexts.csv", &csv)?);

        // Sheet 3: the final table.
        if let Some(db) = final_table {
            let mut buf = Vec::new();
            final_table_relation(db).write_csv(&mut buf)?;
            written.push(self.write_file(
                "final_table.csv",
                std::str::from_utf8(&buf).expect("CSV output is UTF-8"),
            )?);
        }

        // Summary with run stats and a Fig. 1 grid when meaningful.
        written.push(self.write_file("summary.md", &self.summary(cube, stats, timings))?);
        Ok(written)
    }

    fn summary(&self, cube: &SegregationCube, stats: &RunStats, timings: &StageTimings) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# SCube run summary\n");
        let _ = writeln!(s, "| metric | value |");
        let _ = writeln!(s, "|--------|-------|");
        let _ = writeln!(s, "| individuals | {} |", stats.n_individuals);
        let _ = writeln!(s, "| groups | {} |", stats.n_groups);
        let _ = writeln!(s, "| memberships | {} |", stats.n_memberships);
        let _ = writeln!(s, "| final-table rows | {} |", stats.n_rows);
        let _ = writeln!(s, "| organizational units | {} |", stats.n_units);
        let _ = writeln!(s, "| cube cells | {} |", stats.n_cells);
        let _ = writeln!(s, "| isolated nodes | {} |", stats.n_isolated);
        let t = timings;
        let _ = writeln!(s, "| projection time | {:?} |", t.projection);
        let _ = writeln!(s, "| clustering time | {:?} |", t.clustering);
        let _ = writeln!(s, "| join time | {:?} |", t.join);
        let _ = writeln!(s, "| cube time | {:?} |", t.cube);

        // A Fig. 1-style grid over the first two SA attributes and the
        // first CA attribute when available (with no CA attribute the grid
        // degenerates to the ⋆ context row, which is still informative).
        let labels = cube.labels();
        if labels.sa_attrs.len() >= 2 {
            let ca_attr = labels.ca_attrs.first().map(String::as_str).unwrap_or("context");
            let _ = writeln!(s, "\n## Dissimilarity grid (Fig. 1 layout)\n");
            let _ = writeln!(s, "```");
            s.push_str(&report::fig1_grid(
                cube,
                &labels.sa_attrs[0],
                &labels.sa_attrs[1],
                ca_attr,
                SegIndex::Dissimilarity,
            ));
            let _ = writeln!(s, "```");
        }
        s
    }

    fn write_file(&self, name: &str, content: &str) -> Result<PathBuf> {
        let path = self.out_dir.join(name);
        std::fs::write(&path, content)
            .map_err(|e| ScubeError::io_at(path.display().to_string(), e))?;
        Ok(path)
    }
}

/// Default output directory next to a dataset path (mirrors the wizard's
/// "launch office suite on the output" step, minus the office suite).
pub fn default_output_dir(input: &Path) -> PathBuf {
    input.with_extension("scube")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Dataset, GroupsSpec, IndividualsSpec, MembershipSpec};
    use crate::pipeline::{run, ScubeConfig};
    use crate::table_builder::UnitStrategy;
    use scube_data::Relation;

    fn rel(cols: &[&str], rows: &[&[&str]]) -> Relation {
        let mut r = Relation::new(cols.iter().map(|s| s.to_string()).collect()).unwrap();
        for row in rows {
            r.push_row(row.iter().map(|s| s.to_string()).collect()).unwrap();
        }
        r
    }

    #[test]
    fn writes_all_artefacts() {
        let individuals = rel(
            &["id", "gender", "age"],
            &[&["d1", "F", "young"], &["d2", "M", "old"], &["d3", "F", "old"]],
        );
        let groups = rel(&["id", "sector"], &[&["c1", "edu"], &["c2", "agri"]]);
        let membership = rel(&["dir", "comp"], &[&["d1", "c1"], &["d2", "c2"], &["d3", "c1"]]);
        let dataset = Dataset::new(
            individuals,
            IndividualsSpec::new("id").sa("gender").sa("age"),
            groups,
            GroupsSpec::new("id").ca("sector"),
            &membership,
            &MembershipSpec::new("dir", "comp"),
            vec![],
        )
        .unwrap();
        let result =
            run(&dataset, &ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into())))
                .unwrap();

        let dir = std::env::temp_dir().join(format!("scube_viz_test_{}", std::process::id()));
        let written = Visualizer::new(&dir).min_total(1).write_all(&result).unwrap();
        assert_eq!(written.len(), 4);
        for path in &written {
            let content = std::fs::read_to_string(path).unwrap();
            assert!(!content.is_empty(), "{} is empty", path.display());
        }
        let summary = std::fs::read_to_string(dir.join("summary.md")).unwrap();
        assert!(summary.contains("organizational units"));
        assert!(summary.contains("Dissimilarity grid"));
        let cube_csv = std::fs::read_to_string(dir.join("cube.csv")).unwrap();
        assert!(cube_csv.lines().next().unwrap().contains("gender"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_output_dir_swaps_extension() {
        assert_eq!(
            default_output_dir(Path::new("/data/italy.csv")),
            PathBuf::from("/data/italy.scube")
        );
    }
}
