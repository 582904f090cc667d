//! The snapshot format, pinned: there is one on-disk layout, and these
//! tests hold it still.
//!
//! * Two golden files — a full-suite build
//!   (`tests/golden/snapshot_full.scube`) and a Gini + Isolation subset
//!   build (`tests/golden/snapshot_subset.scube`) of the same small
//!   fixture — must be reproduced byte for byte by a fresh build and by a
//!   load → save cycle.
//! * Every other version word is rejected, with the version named, by the
//!   heap and the mapped opens alike.
//! * Malformed meta fields (measure byte, optional-value tag,
//!   materialization tag) are decode errors even behind valid checksums.
//! * Under single-byte mutations of everything the opens trust eagerly,
//!   `from_bytes` and `open_mmap_verified` always agree — both error, or
//!   both open to equal snapshots — and nothing ever panics.
//!
//! To regenerate the goldens after an *intentional* format change:
//! `GOLDEN_BLESS=1 cargo test -p scube --test snapshot_format` and review
//! the binary diff like any other code change.

use std::hash::Hasher;
use std::path::PathBuf;

use scube::prelude::*;
use scube_common::hash::FxHasher;
use scube_data::{Attribute, Schema, TransactionDb, TransactionDbBuilder};

/// The one version word this build reads and writes.
const VERSION: u32 = 7;
/// Layout constants (see the `scube_cube::snapshot` module docs): the
/// offset directory's nine words start at 24, the meta region at 96, and
/// the meta region opens with the build configuration — materialization
/// tag, Atkinson b (8 bytes), measure-set byte.
const DIR_OFF: usize = 24;
const META_OFF: usize = 96;
const MEASURE_BYTE: usize = META_OFF + 1 + 8;
/// In the goldens the first cell is the apex — two empty coordinate lists
/// at 272 — so its first optional-value tag sits right behind them.
const FIRST_VALUE_TAG: usize = 280;

/// The exact database both golden snapshots are built from.
fn golden_db() -> TransactionDb {
    let schema =
        Schema::new(vec![Attribute::sa("sex"), Attribute::sa("age"), Attribute::ca("region")])
            .unwrap();
    let mut b = TransactionDbBuilder::new(schema);
    let rows = [
        ("F", "young", "north", "u0"),
        ("F", "young", "north", "u0"),
        ("M", "old", "north", "u0"),
        ("F", "old", "south", "u1"),
        ("M", "young", "south", "u1"),
        ("M", "old", "south", "u1"),
        ("F", "young", "south", "u0"),
        ("M", "young", "north", "u1"),
    ];
    for (s, a, r, u) in rows {
        b.add_row(&[vec![s], vec![a], vec![r]], u).unwrap();
    }
    b.finish()
}

fn subset() -> MeasureSet {
    MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation)
}

/// The ClosedOnly build of [`golden_db`] under `measures`.
fn golden_build(measures: MeasureSet) -> CubeSnapshot {
    let builder = CubeBuilder::new().materialize(Materialize::ClosedOnly).measures(measures);
    CubeSnapshot::from_db(&golden_db(), &builder).unwrap()
}

/// The two pinned files: name and the measure set each was built with.
fn goldens() -> [(&'static str, MeasureSet); 2] {
    [("snapshot_full.scube", MeasureSet::FULL), ("snapshot_subset.scube", subset())]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR")))
}

fn read_golden(name: &str) -> Vec<u8> {
    std::fs::read(golden_path(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"))
}

fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("scube_format_{}_{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// FxHash of the concatenated parts, length folded in — the checksum both
/// snapshot sums use.
fn fx(parts: &[&[u8]]) -> [u8; 8] {
    let mut h = FxHasher::default();
    for part in parts {
        h.write(part);
    }
    h.write_u64(parts.iter().map(|p| p.len() as u64).sum());
    h.finish().to_le_bytes()
}

/// Recompute the full checksum (header bytes 13..21) over a mutated file.
fn repatch_full_sum(bytes: &mut [u8]) {
    let sum = fx(&[&bytes[DIR_OFF..]]);
    bytes[13..21].copy_from_slice(&sum);
}

/// Recompute `meta_sum` and then the full checksum, so a planted meta
/// defect reaches the decoder instead of failing a checksum.
fn repatch_both_sums(bytes: &mut [u8]) {
    let slots_off =
        u64::from_le_bytes(bytes[DIR_OFF + 32..DIR_OFF + 40].try_into().unwrap()) as usize;
    let sum = fx(&[&bytes[DIR_OFF..DIR_OFF + 64], &bytes[META_OFF..slots_off]]);
    bytes[DIR_OFF + 64..META_OFF].copy_from_slice(&sum);
    repatch_full_sum(bytes);
}

/// Open `bytes` through a mapped path (`open_mmap_verified` when
/// `verified`, plain `open_mmap` otherwise), via a temp file.
fn open_mapped(name: &str, bytes: &[u8], verified: bool) -> scube_common::Result<CubeSnapshot> {
    let path = temp_file(name, bytes);
    let result = if verified {
        CubeSnapshot::open_mmap_verified(&path)
    } else {
        CubeSnapshot::open_mmap(&path)
    };
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn golden_pins_round_trip_byte_for_byte() {
    for (name, measures) in goldens() {
        let fresh = golden_build(measures).to_bytes();
        if std::env::var("GOLDEN_BLESS").is_ok() {
            std::fs::write(golden_path(name), &fresh).unwrap();
            continue;
        }
        let golden = read_golden(name);
        // The file self-identifies, and the writer is deterministic: a
        // fresh build emits the golden bytes exactly.
        assert_eq!(&golden[..8], b"SCUBESNP");
        assert_eq!(u32::from_le_bytes(golden[8..12].try_into().unwrap()), VERSION, "{name}");
        assert_eq!(golden[MEASURE_BYTE], measures.bits(), "{name}: measure byte");
        assert_eq!(
            fresh, golden,
            "{name} drifted; if the format change is intentional, regenerate with \
             GOLDEN_BLESS=1 and review the diff"
        );

        let loaded = CubeSnapshot::from_bytes(&golden).expect("golden loads");
        assert_eq!(loaded.measures(), measures, "{name} carries the measure set");
        assert_eq!(loaded.materialize(), Materialize::ClosedOnly, "{name} carries the config");
        let rebuilt = golden_build(measures);
        assert_eq!(loaded.cube(), rebuilt.cube(), "{name}");
        assert_eq!(loaded.vertical().units(), rebuilt.vertical().units(), "{name}");
        assert_eq!(loaded.vertical().postings(), rebuilt.vertical().postings(), "{name}");
        // Unselected measures are absent from every cell.
        for (coords, v) in loaded.cube().cells() {
            for index in SegIndex::ALL.into_iter().filter(|&i| !measures.contains(i)) {
                assert_eq!(v.get(index), None, "{name}: unselected {index} at {coords:?}");
            }
        }
        // Load → save is a fixed point, bit for bit.
        assert_eq!(loaded.to_bytes(), golden, "{name}: resave is a fixed point");
    }
}

#[test]
fn golden_truncations_and_corruptions_error_never_panic() {
    for (name, _) in goldens() {
        let golden = read_golden(name);
        for cut in 0..golden.len() {
            assert!(CubeSnapshot::from_bytes(&golden[..cut]).is_err(), "{name}: truncate at {cut}");
        }
        // A flipped byte anywhere fails a checksum or a bounds check.
        for at in [0, 9, 14, 40, 97, golden.len() / 2, golden.len() - 1] {
            let mut bad = golden.clone();
            bad[at] ^= 0xFF;
            assert!(CubeSnapshot::from_bytes(&bad).is_err(), "{name}: flip at {at}");
        }
    }
}

#[test]
fn every_other_version_word_is_rejected_by_both_opens() {
    let good = golden_build(MeasureSet::FULL).to_bytes();
    for version in [0u32, 1, 2, 3, 4, 5, 6, 8, 99, u32::MAX] {
        let mut bytes = good.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let named = format!("version {version} ");
        let err = CubeSnapshot::from_bytes(&bytes).expect_err("heap open must reject").to_string();
        assert!(err.contains(&named) && err.contains("scube save"), "heap, {version}: {err}");
        if cfg!(target_endian = "big") {
            continue; // mapped opens are little-endian-host only
        }
        for verified in [false, true] {
            let err = open_mapped("version", &bytes, verified)
                .expect_err("mapped open must reject")
                .to_string();
            assert!(err.contains(&named) && err.contains("scube save"), "mapped, {version}: {err}");
        }
    }
}

#[test]
fn malformed_meta_fields_are_decode_errors() {
    // Each defect is planted behind recomputed checksums, so it is the
    // decoder — not a checksum — that must reject it, on every open path.
    let reject = |bytes: &[u8], needle: &str| {
        let err = CubeSnapshot::from_bytes(bytes).expect_err(needle).to_string();
        assert!(err.contains(needle), "heap: {err}");
        if cfg!(target_endian = "little") {
            for verified in [false, true] {
                let err = open_mapped("meta", bytes, verified).expect_err(needle).to_string();
                assert!(err.contains(needle), "mapped: {err}");
            }
        }
    };
    let good = golden_build(subset()).to_bytes();

    // The measure byte: empty set, an unknown bit, all bits.
    for bits in [0x00u8, 0x40, 0xFF] {
        let mut bad = good.clone();
        bad[MEASURE_BYTE] = bits;
        repatch_both_sums(&mut bad);
        reject(&bad, "measure-set byte");
    }

    // An optional value's tag is 0 or 1.
    assert_eq!(good[FIRST_VALUE_TAG - 8..=FIRST_VALUE_TAG], [0; 9], "apex cell, value undefined");
    let mut bad = good.clone();
    bad[FIRST_VALUE_TAG] = 2;
    repatch_both_sums(&mut bad);
    reject(&bad, "optional-value tag");

    // The materialization tag — the first byte of the meta region.
    let mut bad = good.clone();
    bad[META_OFF] = 7;
    repatch_both_sums(&mut bad);
    reject(&bad, "materialization");

    // And the re-patching itself is sound: an untouched file still opens.
    let mut same = good.clone();
    repatch_both_sums(&mut same);
    assert_eq!(same, good);
}

#[test]
fn heap_and_verified_mapped_opens_agree_on_every_mutant() {
    if cfg!(target_endian = "big") {
        return; // mapped opens are little-endian-host only
    }
    let good = golden_build(MeasureSet::FULL).to_bytes();
    let span = (META_OFF + 256).min(good.len());
    let (mut opened, mut rejected) = (0usize, 0usize);
    for at in 0..span {
        for mask in [0x01u8, 0x80, 0xFF] {
            for repatch in [false, true] {
                let mut mutant = good.clone();
                mutant[at] ^= mask;
                if repatch {
                    repatch_full_sum(&mut mutant);
                }
                let what = format!("byte {at} ^ {mask:#04x}, full sum repatched: {repatch}");
                let heap = CubeSnapshot::from_bytes(&mutant);
                let verified = open_mapped("sweep", &mutant, true);
                match (heap, verified) {
                    (Ok(h), Ok(v)) => {
                        assert_eq!(h.cube(), v.cube(), "{what}");
                        assert_eq!(h.to_bytes(), v.to_bytes(), "{what}");
                        opened += 1;
                    }
                    (Err(_), Err(_)) => rejected += 1,
                    (h, v) => panic!(
                        "{what}: one path only — heap {:?}, verified {:?}",
                        h.map(|_| "opened").map_err(|e| e.to_string()),
                        v.map(|_| "opened").map_err(|e| e.to_string()),
                    ),
                }
                // The unverified open may accept more, but never panics.
                let _ = open_mapped("sweep_plain", &mutant, false);
            }
        }
    }
    // Only a mutated-then-repatched full checksum restores a valid file.
    assert_eq!(opened, 8 * 3, "the 8 full-checksum bytes × 3 masks reopen once repatched");
    assert!(rejected > 0);
}
