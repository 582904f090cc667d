//! Shared fixtures for the SCube benchmark harness and the `exp`
//! experiment-reproduction binary.

pub mod alloc;

use scube::prelude::*;
use scube_data::TransactionDb;

/// Synthetic-Italy dataset at a given company count.
pub fn italy_dataset(n_companies: usize) -> Dataset {
    scube_datagen::italy(n_companies).to_dataset(vec![]).expect("generator output is valid")
}

/// Synthetic-Estonia dataset with `n_snapshots` evenly spaced years.
pub fn estonia_dataset(n_companies: usize, n_snapshots: usize) -> Dataset {
    let boards = scube_datagen::estonia(n_companies);
    let years = boards.snapshot_years(n_snapshots);
    boards.to_dataset(years).expect("generator output is valid")
}

/// The scenario-1 final table (sector units) for synthetic Italy.
pub fn italy_final_table(n_companies: usize) -> TransactionDb {
    let dataset = italy_dataset(n_companies);
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .expect("pipeline succeeds")
        .db
}

/// Format an optional index value for report tables.
pub fn fmt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into())
}

/// Best-effort host fingerprint as `(cpu_model, arch-os)` — e.g.
/// `("AMD EPYC 7B13", "x86_64-linux")`. The CPU model comes from
/// `/proc/cpuinfo` on Linux and degrades to `"unknown"` elsewhere.
/// Recorded in the `benchmark/` reports and in `BENCH_cube_scale.json`, so
/// numbers accumulated across PRs can be grouped by the machine that
/// produced them.
pub fn host_fingerprint() -> (String, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Hardware"))
                .and_then(|l| l.split(':').nth(1).map(|v| v.trim().to_string()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    (cpu, format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_fingerprint_is_populated() {
        let (cpu, arch) = host_fingerprint();
        assert!(!cpu.is_empty());
        assert!(arch.contains('-'), "arch-os pair: {arch}");
    }

    #[test]
    fn fixtures_build() {
        let db = italy_final_table(120);
        assert!(db.len() > 100);
        assert!(db.num_units() >= 10);
        let d = estonia_dataset(100, 3);
        assert_eq!(d.dates.len(), 3);
    }
}
