//! Quickstart: build a segregation data cube from a dozen in-memory rows.
//!
//! Run with: `cargo run --example quickstart` (add a file name to also
//! save the cube as a snapshot).
//!
//! Walks the whole SCube flow on data small enough to check by eye:
//! individuals with gender/age, companies with a sector, memberships, a
//! cube over sector units, and the two discovery views (ranked contexts
//! and the Fig. 1-style grid).

use scube::prelude::*;

fn relation(cols: &[&str], rows: &[&[&str]]) -> Relation {
    let mut r = Relation::new(cols.iter().map(|s| s.to_string()).collect()).unwrap();
    for row in rows {
        r.push_row(row.iter().map(|s| s.to_string()).collect()).unwrap();
    }
    r
}

fn main() -> Result<()> {
    // Individuals: gender and age are segregation attributes.
    let individuals = relation(
        &["id", "gender", "age"],
        &[
            &["d01", "F", "young"],
            &["d02", "F", "young"],
            &["d03", "F", "old"],
            &["d04", "F", "old"],
            &["d05", "F", "young"],
            &["d06", "M", "old"],
            &["d07", "M", "old"],
            &["d08", "M", "young"],
            &["d09", "M", "old"],
            &["d10", "M", "old"],
            &["d11", "M", "young"],
            &["d12", "F", "young"],
        ],
    );
    // Companies: the sector is a context attribute (and our unit).
    let groups = relation(
        &["id", "sector"],
        &[
            &["c1", "education"],
            &["c2", "education"],
            &["c3", "construction"],
            &["c4", "construction"],
        ],
    );
    // Who sits on which board. Women cluster in education boards.
    let membership = relation(
        &["director", "company"],
        &[
            &["d01", "c1"],
            &["d02", "c1"],
            &["d03", "c2"],
            &["d04", "c2"],
            &["d05", "c2"],
            &["d12", "c1"],
            &["d06", "c3"],
            &["d07", "c3"],
            &["d08", "c4"],
            &["d09", "c4"],
            &["d10", "c4"],
            &["d11", "c3"],
            // One man in education, one woman in construction: not total.
            &["d06", "c1"],
            &["d12", "c4"],
        ],
    );

    let result = Wizard::new()
        .individuals(individuals, IndividualsSpec::new("id").sa("gender").sa("age"))
        .groups(groups, GroupsSpec::new("id").ca("sector"))
        .membership(membership, MembershipSpec::new("director", "company"))
        .units(UnitStrategy::GroupAttribute("sector".into()))
        .run()?;

    println!("=== SCube quickstart ===");
    println!(
        "{} individuals, {} units, {} cube cells\n",
        result.stats.n_individuals, result.stats.n_units, result.stats.n_cells
    );

    println!("Most segregated contexts (dissimilarity):");
    for (coords, values, d) in top_contexts(&result.cube, SegIndex::Dissimilarity, 5, 4) {
        println!(
            "  D={d:.2}  {}  (M={}, T={})",
            result.cube.labels().describe(coords),
            values.minority,
            values.total
        );
    }

    println!("\nFig. 1-style grid (rows gender, columns age, D index):");
    print!("{}", fig1_grid(&result.cube, "gender", "age", "sector", SegIndex::Dissimilarity));

    // Direct cell lookups.
    let women = result.cube.get_by_names(&[("gender", "F")], &[]).expect("cell exists");
    println!("\nWomen across sector units: D = {:.3}", women.dissimilarity.unwrap());

    // `quickstart <file>` also persists the cube and its postings as a
    // snapshot, ready for `scube query` / `scube inspect --snapshot <file>`.
    if let Some(path) = std::env::args().nth(1) {
        scube::snapshot(&result)?.save(&path)?;
        println!("\nSnapshot saved to {path}");
    }
    Ok(())
}
