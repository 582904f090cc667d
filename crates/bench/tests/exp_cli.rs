//! The `exp` binary's command line: what it accepts is its experiment
//! table, and a paper experiment runs to its artefact.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp")).args(args).output().expect("exp runs")
}

/// `cube-build` was an experiment until PR 23; it is now what any other
/// unknown name is — exit 2 and the list of names that do exist.
#[test]
fn unknown_experiment_exits_2_and_lists_every_name() {
    let out = exp(&["cube-build"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the name is rejected");
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "unknown experiment 'cube-build'; expected one of: fig1, final-table, provinces, \
         cube-sheet, radial, scenario1, scenario2, scenario3, compare, temporal, scale, simpson, \
         significance, cube-scale, all\n"
    );
}

#[test]
fn fig1_prints_the_grid() {
    let out = exp(&["fig1", "200"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("E1 (Fig. 1)"), "{stdout}");
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with("area"));
    let header: Vec<&str> = lines.next().expect("grid header").split_whitespace().collect();
    assert_eq!(header[..2], ["area", "gender"]);
    assert_eq!(header.last(), Some(&"age=*"));
    assert!(lines.next().expect("rule").starts_with("---"));
    // (3 macro-areas + ⋆) × (F, M, ⋆), one value or `-` per age column.
    let rows: Vec<&str> = lines.take_while(|l| !l.starts_with('(')).collect();
    assert_eq!(rows.len(), 12, "{stdout}");
    for row in rows {
        assert_eq!(row.split_whitespace().count(), header.len(), "{row}");
    }
}
