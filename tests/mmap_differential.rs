//! Differential proof that the mmap engine is the heap engine: for every
//! materialization strategy, a snapshot opened with `open_mmap` must re-save to the exact bytes of the file it was
//! opened from, answer the full query universe identically to the
//! heap-loaded snapshot, and fold updates to bit-identical results. On
//! top of that, truncated and corrupted files must make `open_mmap` error
//! cleanly — never panic, never UB.

use scube::prelude::*;
use scube_data::{Attribute, Schema, TransactionDb, TransactionDbBuilder};

/// A database a bit richer than the compat golden: three attributes, four
/// units, enough rows that the postings carry real payloads.
fn db() -> TransactionDb {
    let schema =
        Schema::new(vec![Attribute::sa("sex"), Attribute::sa("age"), Attribute::ca("sector")])
            .unwrap();
    let mut b = TransactionDbBuilder::new(schema);
    let sexes = ["F", "M"];
    let ages = ["young", "mid", "old"];
    let sectors = ["tech", "retail", "finance"];
    let units = ["u0", "u1", "u2", "u3"];
    for i in 0..200usize {
        b.add_row(
            &[vec![sexes[i % 2]], vec![ages[(i / 2) % 3]], vec![sectors[(i / 7) % 3]]],
            units[(i / 5) % 4],
        )
        .unwrap();
    }
    b.finish()
}

fn save_to(bytes: &[u8], name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

fn check_opens(what: &str, materialize: Materialize, measures: MeasureSet) {
    let db = db();
    let snap =
        CubeSnapshot::from_db(&db, &CubeBuilder::new().materialize(materialize).measures(measures))
            .unwrap();
    let tag = measures.bits();
    let path =
        std::env::temp_dir().join(format!("scube_mmap_diff_{what}_{materialize:?}_{tag}.scube"));
    snap.save(&path).unwrap();
    let file_bytes = std::fs::read(&path).unwrap();

    let heap = CubeSnapshot::load(&path).unwrap();
    let mapped = CubeSnapshot::open_mmap(&path).unwrap();
    let verified = CubeSnapshot::open_mmap_verified(&path).unwrap();

    // Re-save is byte-identical to the opened file, for every open path.
    assert_eq!(heap.to_bytes(), file_bytes, "{what} heap re-save");
    assert_eq!(mapped.to_bytes(), file_bytes, "{what} mapped re-save");
    assert_eq!(verified.to_bytes(), file_bytes, "{what} verified re-save");

    // The cube halves agree exactly.
    assert_eq!(mapped.cube(), heap.cube(), "{what}");
    assert_eq!(mapped.vertical().units(), heap.vertical().units(), "{what}");
    assert_eq!(mapped.vertical().postings(), heap.vertical().postings(), "{what}");

    // The full query universe — every materialized cell plus explorer
    // fallbacks over every single-item coordinate pair — answers
    // bit-identically through both engines.
    let coords: Vec<_> = heap.cube().cells().map(|(c, _)| c.clone()).collect();
    let heap_engine = ConcurrentCubeEngine::new(heap);
    let mapped_engine = ConcurrentCubeEngine::new(mapped);
    for c in &coords {
        assert_eq!(
            heap_engine.query(c).unwrap(),
            mapped_engine.query(c).unwrap(),
            "{what} cell {c:?}"
        );
    }
    let n_items = heap_engine.cube().labels().num_items();
    let sa_items: Vec<u32> =
        (0..n_items as u32).filter(|&i| heap_engine.cube().labels().is_sa_item(i)).collect();
    let ca_items: Vec<u32> =
        (0..n_items as u32).filter(|&i| !heap_engine.cube().labels().is_sa_item(i)).collect();
    for &sa in &sa_items {
        for &ca in &ca_items {
            let c = scube_cube::CellCoords { sa: vec![sa], ca: vec![ca] };
            assert_eq!(
                heap_engine.query(&c).unwrap(),
                mapped_engine.query(&c).unwrap(),
                "{what} fallback {c:?}"
            );
        }
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn mmap_matches_heap_for_every_strategy() {
    for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
        check_opens("full", materialize, MeasureSet::FULL);
    }
}

#[test]
fn mmap_matches_heap_on_multi_index_snapshots() {
    // A proper measure subset stores only the selected values per cell;
    // the mapped open must answer the same universe as the heap load —
    // and the postings behind it stay zero-copy.
    let subset = MeasureSet::only(SegIndex::Dissimilarity)
        .with(SegIndex::Information)
        .with(SegIndex::Atkinson);
    for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
        check_opens("subset", materialize, subset);
    }

    let snap: CubeSnapshot =
        CubeSnapshot::from_db(&db(), &CubeBuilder::new().measures(subset)).unwrap();
    let bytes = snap.to_bytes();
    let path = save_to(&bytes, "scube_mmap_diff_subset_zero_copy.scube");
    let mapped = CubeSnapshot::open_mmap(&path).unwrap();
    assert_eq!(mapped.measures(), subset, "mapped open carries the measure set");
    let mapped_heap: usize = mapped.vertical().postings().iter().map(|p| p.heap_bytes()).sum();
    assert_eq!(mapped_heap, 0, "subset-snapshot postings are zero-copy");
    std::fs::remove_file(&path).ok();
}

#[test]
fn mapped_updates_match_heap_updates_bit_for_bit() {
    let db = db();
    let snap: CubeSnapshot =
        CubeSnapshot::from_db(&db, &CubeBuilder::new().materialize(Materialize::ClosedOnly))
            .unwrap();
    let path = std::env::temp_dir().join("scube_mmap_diff_update.scube");
    snap.save(&path).unwrap();

    let mut heap = CubeSnapshot::load(&path).unwrap();
    let mut mapped = CubeSnapshot::open_mmap(&path).unwrap();

    // An update that appends rows (new unit included) — the mapped
    // snapshot must scan its attached store region, decode only the
    // entries it dirties, copy the touched postings onto the heap, and
    // land bit-identical to the heap path.
    let mut batch = UpdateBatch::new();
    batch.add_row(&[("sex", "F"), ("age", "old"), ("sector", "tech")], "u9");
    batch.add_row(&[("sex", "M"), ("age", "young"), ("sector", "retail")], "u0");
    let heap_stats = heap.apply_update(&batch).unwrap();
    let mapped_stats = mapped.apply_update(&batch).unwrap();
    assert_eq!(heap_stats.rows_added, mapped_stats.rows_added);
    assert_eq!(heap.to_bytes(), mapped.to_bytes(), "post-update bytes");

    // The daemon's path — update the served engine's snapshot, serve a
    // fresh engine — lands on the same bytes and answers.
    let served = ConcurrentCubeEngine::new(CubeSnapshot::open_mmap(&path).unwrap());
    let mut next = served.snapshot();
    next.apply_update(&batch).unwrap();
    assert_eq!(next.to_bytes(), heap.to_bytes(), "served-update bytes");
    let engine = ConcurrentCubeEngine::new(next);
    let coords = engine.cube().coords_by_names(&[("sex", "F")], &[]).unwrap();
    assert_eq!(engine.query(&coords).unwrap(), *heap.cube().get(&coords).unwrap());

    std::fs::remove_file(&path).ok();
}

#[test]
fn mapped_postings_live_off_heap_until_mutated() {
    let db = db();
    let snap = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
    let path = std::env::temp_dir().join("scube_mmap_diff_heap_bytes.scube");
    snap.save(&path).unwrap();

    let heap = CubeSnapshot::load(&path).unwrap();
    let mapped = CubeSnapshot::open_mmap(&path).unwrap();
    let heap_bytes = |s: &CubeSnapshot| -> usize {
        s.vertical().postings().iter().map(|p| p.heap_bytes()).sum()
    };
    assert!(heap_bytes(&heap) > 0, "heap postings occupy the heap");
    assert_eq!(heap_bytes(&mapped), 0, "mapped postings are zero-copy");

    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_and_corrupted_mmap_opens_error_never_panic() {
    let db = db();
    let snap = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
    let good = snap.to_bytes();

    // Every truncation point: open_mmap must error (directory, meta
    // checksum, slot bounds, or store bounds — depending on the cut).
    let path = std::env::temp_dir().join("scube_mmap_diff_trunc.scube");
    for cut in (0..good.len()).step_by(7).chain([good.len() - 1]) {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(CubeSnapshot::open_mmap(&path).is_err(), "truncate at {cut} must error");
    }

    // Flipping any byte of the meta-checksummed prefix (directory, meta
    // region, posting directory) is caught eagerly.
    let slots_off = u64::from_le_bytes(good[24 + 32..24 + 40].try_into().unwrap()) as usize;
    for at in [24, 50, 96, 100, slots_off - 1] {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(CubeSnapshot::open_mmap(&path).is_err(), "flip at {at} must error");
    }

    // A flipped byte *anywhere* is caught by the verified open.
    for at in [30, 99, slots_off + 3, good.len() - 1] {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(
            CubeSnapshot::open_mmap_verified(&path).is_err(),
            "verified flip at {at} must error"
        );
    }

    // Header byte 12 is the posting representation tag: anything but
    // EWAH's 1 is an error on every open.
    for tag in [0u8, 2, 3, 4, 0xFF] {
        let mut bad = good.clone();
        bad[12] = tag;
        std::fs::write(&path, &bad).unwrap();
        for (open, result) in [
            ("load", CubeSnapshot::load(&path)),
            ("open_mmap", CubeSnapshot::open_mmap(&path)),
            ("open_mmap_verified", CubeSnapshot::open_mmap_verified(&path)),
        ] {
            let err = result.expect_err("foreign tag must error").to_string();
            assert!(err.contains(&format!("representation tag {tag}")), "{open}: {err}");
        }
    }

    std::fs::remove_file(&path).ok();
}
