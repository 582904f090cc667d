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
//!   materialization tag, a `min_support` of 0) are decode errors even
//!   behind valid checksums, and a foreign posting representation tag in
//!   the header is refused by name — by the heap and both mapped opens.
//! * Truncated or flipped files error and never panic: every cut and
//!   scattered flips through the heap decoder; a sweep of cuts and flips
//!   of the eagerly trusted prefix through plain `open_mmap`, which skips
//!   the full checksum; flips anywhere through `open_mmap_verified`.
//! * Under single-byte mutations of everything the opens trust eagerly,
//!   `from_bytes` and `open_mmap_verified` always agree — both error, or
//!   both open to equal snapshots — and nothing ever panics.
//! * The store's histogram codec (`scube_cube::histogram`) is pinned from
//!   both ends. One property: an entry and its histogram are two views of
//!   one thing — `decode(encode(h)) == h` for random ascending histograms
//!   (empty ones, counts past 2³², the unit `u32::MAX − 1`),
//!   `encode(decode(b)) == b` for every byte string the decoder accepts,
//!   and no byte mutation makes it panic — which is what "one logical
//!   snapshot, one byte representation" rests on. And hostile bytes: every
//!   malformed entry the format can hold, planted behind recomputed
//!   checksums so that only the decoder can object — at load through
//!   `from_bytes` and, through `open_mmap`, at the first update that
//!   trusts the entry: before anything is mutated, the snapshot still
//!   re-saving to the file's bytes.
//! * Posting slots are bounded as well: one whose set bits alias past the
//!   universe, and one whose stream ends past its last set bit (which an
//!   update's tail-append would resume at), are refused by every open.
//!
//! To regenerate the goldens after an *intentional* format change:
//! `GOLDEN_BLESS=1 cargo test -p scube --test snapshot_format` and review
//! the binary diff like any other code change.

use std::path::PathBuf;

use proptest::prelude::*;
use scube::prelude::*;
use scube_cube::histogram;
use scube_data::{Attribute, Schema, TransactionDb, TransactionDbBuilder};

/// The one version word this build reads and writes.
const VERSION: u32 = 8;
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
/// Ahead of the apex's lists: the cell count (u32), and before it the
/// `min_support` word (u64).
const MIN_SUPPORT: usize = FIRST_VALUE_TAG - 8 - 4 - 8;

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

/// The checksum both snapshot sums use, as the v8 format defines it: the
/// FxHash word step `state = (state <<< 5 ^ word) · K` over each part's
/// 8-byte little-endian words, then a 4-byte word and single bytes for the
/// part's tail, then the total length as one word; the raw state is the
/// sum.
fn fx(parts: &[&[u8]]) -> [u8; 8] {
    let mut state = 0u64;
    let mut word = |w: u64| state = (state.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    for part in parts {
        let mut rest = *part;
        while rest.len() >= 8 {
            word(u64::from_le_bytes(rest[..8].try_into().unwrap()));
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            word(u64::from(u32::from_le_bytes(rest[..4].try_into().unwrap())));
            rest = &rest[4..];
        }
        rest.iter().for_each(|&b| word(u64::from(b)));
    }
    word(parts.iter().map(|p| p.len() as u64).sum());
    state.to_le_bytes()
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
        if cfg!(target_endian = "big") {
            continue; // mapped opens are little-endian-host only
        }
        // Plain `open_mmap` skips the full checksum, yet every cut fails the
        // directory, `meta_sum`, a slot bound or the store bound.
        for cut in (0..golden.len()).step_by(7).chain([golden.len() - 1]) {
            let opened = open_mapped("truncated", &golden[..cut], false);
            assert!(opened.is_err(), "{name}: mapped, truncate at {cut}");
        }
        // A flip in the prefix `meta_sum` covers (directory, meta, posting
        // directory and its padding) fails the plain mapped open; a flip
        // anywhere fails the verified one.
        let slots_off = u64::from_le_bytes(golden[DIR_OFF + 32..DIR_OFF + 40].try_into().unwrap());
        let slots_off = slots_off as usize;
        let prefix = [24, 50, META_OFF, 100, slots_off - 1].map(|at| (at, false));
        let anywhere = [30, 99, slots_off + 3, golden.len() - 1].map(|at| (at, true));
        for (at, verified) in prefix.into_iter().chain(anywhere) {
            let mut bad = golden.clone();
            bad[at] ^= 0xFF;
            let opened = open_mapped("flipped", &bad, verified);
            assert!(opened.is_err(), "{name}: mapped (verified: {verified}), flip at {at}");
        }
    }
}

#[test]
fn every_other_version_word_is_rejected_by_both_opens() {
    let good = golden_build(MeasureSet::FULL).to_bytes();
    for version in [0u32, 1, 2, 3, 4, 5, 6, 7, 9, 99, u32::MAX] {
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

    // `min_support` 0: the builder refuses it, so no file may carry it.
    assert_eq!(good[MIN_SUPPORT..MIN_SUPPORT + 8], 1u64.to_le_bytes(), "the golden's support");
    let mut bad = good.clone();
    bad[MIN_SUPPORT..MIN_SUPPORT + 8].copy_from_slice(&0u64.to_le_bytes());
    repatch_both_sums(&mut bad);
    reject(&bad, "min_support");

    // The `n_units` word, just ahead of `min_support`, must count the unit
    // names the file stores: the cube derives its unit count from them.
    let n_units = u32::from_le_bytes(good[MIN_SUPPORT - 4..MIN_SUPPORT].try_into().unwrap());
    for wrong in [0, n_units - 1, n_units + 1, u32::MAX] {
        let mut bad = good.clone();
        bad[MIN_SUPPORT - 4..MIN_SUPPORT].copy_from_slice(&wrong.to_le_bytes());
        repatch_both_sums(&mut bad);
        reject(&bad, "unit names");
    }

    // Header byte 12, outside both checksums, is the posting representation
    // tag: anything but EWAH's 1 is refused by name.
    for tag in [0u8, 2, 3, 4, 0xFF] {
        let mut bad = good.clone();
        bad[12] = tag;
        reject(&bad, &format!("representation tag {tag}"));
    }

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

/// A random histogram: gaps and counts drawn small (the common one-byte
/// case), medium, or huge, optionally stretched to end at the last unit a
/// `u32::MAX`-unit universe has.
fn histograms() -> impl Strategy<Value = Vec<(u32, u64)>> {
    let pair = (0u8..8, 0u32..200, 0u32..1 << 20, 0u8..8, 1u64..200, any::<u64>());
    (proptest::collection::vec(pair, 0..40), any::<bool>()).prop_map(|(draws, to_the_end)| {
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        let mut next = 0u64;
        for (gap_kind, small_gap, big_gap, count_kind, small_count, big_count) in draws {
            let gap = if gap_kind < 6 { small_gap } else { big_gap };
            let unit = next + u64::from(gap);
            if unit >= u64::from(u32::MAX) {
                break;
            }
            let count = match count_kind {
                0..=3 => 1,
                4..=6 => small_count,
                _ => big_count.max(1 << 32),
            };
            pairs.push((unit as u32, count));
            next = unit + 1;
        }
        if to_the_end && next < u64::from(u32::MAX) {
            pairs.push((u32::MAX - 1, u64::MAX));
        }
        pairs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn an_entry_and_its_histogram_are_one_thing(
        pairs in histograms(),
        edits in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..4),
        cut in any::<u32>(),
    ) {
        let entry = histogram::encode(&pairs);
        prop_assert_eq!(histogram::entry_len(&entry).unwrap(), entry.len());
        prop_assert_eq!(&histogram::decode(&entry, u32::MAX).unwrap(), &pairs);
        // The universe is checked: one unit fewer than the last one needs.
        if let Some(&(last, _)) = pairs.last() {
            prop_assert!(histogram::decode(&entry, last).is_err());
        }

        // Mutants — overwritten bytes, then a truncation — never panic,
        // and whatever is still accepted is still canonical.
        let mut mutant = entry.clone();
        for (at, byte) in edits {
            let at = at as usize % mutant.len();
            mutant[at] = byte;
        }
        for candidate in [&mutant[..], &mutant[..cut as usize % (mutant.len() + 1)]] {
            let _ = histogram::entry_len(candidate);
            if let Ok(decoded) = histogram::decode(candidate, u32::MAX) {
                prop_assert_eq!(&histogram::encode(&decoded)[..], candidate);
            }
        }
    }
}

/// One store record: its raw key bytes and its entry bytes.
#[derive(Clone)]
struct Record {
    key: Vec<u8>,
    entry: Vec<u8>,
}

/// Split a snapshot into everything before the store and the store's
/// context and minority records (`id_lists` = 1 and 2 key lists each).
fn split(bytes: &[u8]) -> (Vec<u8>, Vec<Record>, Vec<Record>) {
    let store_off =
        u64::from_le_bytes(bytes[DIR_OFF + 48..DIR_OFF + 56].try_into().unwrap()) as usize;
    let mut pos = store_off;
    let mut section = |id_lists: usize| {
        let n = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 4;
        let mut records = Vec::new();
        for _ in 0..n {
            let key_start = pos;
            for _ in 0..id_lists {
                let ids = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4 + 4 * ids;
            }
            let len = histogram::entry_len(&bytes[pos..]).unwrap();
            records.push(Record {
                key: bytes[key_start..pos].to_vec(),
                entry: bytes[pos..pos + len].to_vec(),
            });
            pos += len;
        }
        records
    };
    let contexts = section(1);
    let minorities = section(2);
    assert_eq!(pos, bytes.len(), "the store is the file's last region");
    (bytes[..store_off].to_vec(), contexts, minorities)
}

/// Put a snapshot back together around (possibly doctored) store records:
/// store length, `meta_sum` and the full checksum are recomputed, so what
/// the records hold is the only thing left to object to.
fn assemble(head: &[u8], contexts: &[Record], minorities: &[Record]) -> Vec<u8> {
    let mut bytes = head.to_vec();
    for section in [contexts, minorities] {
        bytes.extend_from_slice(&(section.len() as u32).to_le_bytes());
        for record in section {
            bytes.extend_from_slice(&record.key);
            bytes.extend_from_slice(&record.entry);
        }
    }
    let store_len = (bytes.len() - head.len()) as u64;
    bytes[DIR_OFF + 56..DIR_OFF + 64].copy_from_slice(&store_len.to_le_bytes());
    repatch_both_sums(&mut bytes);
    bytes
}

/// `from_bytes` must refuse `bytes` at load; `open_mmap` attaches the store
/// unread, so there the first update must refuse it — before mutating
/// anything. Both errors must name `needle`. The update appends one
/// northern row, which dirties the `⋆` and north contexts and every cell
/// under them.
fn refused_by_both_opens(what: &str, bytes: &[u8], needle: &str) {
    refused_by_both_opens_after(what, bytes, needle, ("F", "young", "north"));
}

/// [`refused_by_both_opens`], the first update appending one `(sex, age,
/// region)` row in unit `u0`.
fn refused_by_both_opens_after(
    what: &str,
    bytes: &[u8],
    needle: &str,
    (sex, age, region): (&str, &str, &str),
) {
    let err = CubeSnapshot::from_bytes(bytes).expect_err(what).to_string();
    assert!(err.contains(needle), "{what}, heap load: {err}");
    if cfg!(target_endian = "big") {
        return; // mapped opens are little-endian-host only
    }
    let path = temp_file("hostile_store", bytes);
    let mut mapped = CubeSnapshot::open_mmap(&path).expect("the mapped open reads no entry");
    let cube_before = mapped.cube().clone();
    let mut batch = UpdateBatch::new();
    batch.add_row(&[("sex", sex), ("age", age), ("region", region)], "u0");
    let err = mapped.apply_update(&batch).expect_err(what).to_string();
    assert!(err.contains(needle), "{what}, first update: {err}");
    assert_eq!(mapped.cube(), &cube_before, "{what}: the cube is untouched");
    assert_eq!(mapped.to_bytes(), bytes, "{what}: the snapshot still re-saves to the file");
    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_store_entries_are_refused_by_both_opens() {
    let good = CubeSnapshot::from_db(&golden_db(), &CubeBuilder::new()).unwrap().to_bytes();
    let (head, contexts, minorities) = split(&good);
    assert_eq!(assemble(&head, &contexts, &minorities), good, "split and assemble are inverses");
    // The `⋆` context sorts first, and every non-empty batch dirties it.
    assert_eq!(contexts[0].key, [0, 0, 0, 0], "the first context is the apex");
    assert_eq!(histogram::decode(&contexts[0].entry, 2).unwrap(), [(0, 4), (1, 4)]);

    // 2³², and nine continuation bytes before a tenth that decides
    // between u64::MAX (0x01) and overflow.
    let two_to_the_32: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x10];
    let ten_byte = |last: u8| [&[0xff; 9][..], &[last]].concat();
    // An entry from raw parts: the two header varints (each < 128 here)
    // and the payload.
    let entry = |n_pairs: u8, payload: &[&[u8]]| {
        let payload = payload.concat();
        [&[n_pairs, payload.len() as u8][..], &payload].concat()
    };
    let hostile: Vec<(&str, Vec<u8>, &str)> = vec![
        ("an over-long gap varint", entry(1, &[&[0x80, 0x00, 3]]), "over-long"),
        ("an over-long n_pairs varint", vec![0x81, 0x00, 2, 0, 3], "over-long"),
        ("a gap varint past u64", entry(1, &[&ten_byte(0x02), &[3]]), "overflows"),
        ("an eleven-byte varint", entry(1, &[&ten_byte(0x81), &[0, 3]]), "overflows"),
        ("a gap past u32::MAX", entry(1, &[two_to_the_32, &[3]]), "unknown unit"),
        ("a gap past u64::MAX", entry(2, &[&[0, 3], &ten_byte(0x01), &[3]]), "unknown unit"),
        ("a unit equal to n_units", entry(1, &[&[2, 7]]), "unknown unit"),
        ("a gap onto n_units", entry(2, &[&[0, 3, 1, 3]]), "unknown unit"),
        ("count - 1 == u64::MAX", entry(1, &[&[0], &ten_byte(0x01)]), "count overflows"),
        ("fewer pairs than n_pairs", entry(2, &[&[0, 3]]), "fewer pairs"),
        ("a payload that ends mid-pair", entry(2, &[&[0, 3, 0]]), "fewer pairs"),
        ("more pairs than n_pairs", entry(1, &[&[0, 3, 0, 3]]), "more pairs"),
        ("truncation inside a count varint", entry(1, &[&[0, 0x80]]), "truncated"),
        ("truncation inside the second pair", entry(2, &[&[0, 3, 0, 0x80]]), "truncated"),
    ];
    for (what, entry, needle) in hostile {
        let mut contexts = contexts.clone();
        contexts[0].entry = entry;
        refused_by_both_opens(what, &assemble(&head, &contexts, &minorities), needle);
    }

    // A payload_len that runs past the region: the last record of the file
    // claims more payload than the file has left.
    let mut long = minorities.clone();
    let last = long.last_mut().unwrap();
    last.entry = vec![1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 3];
    refused_by_both_opens(
        "payload_len past the region",
        &assemble(&head, &contexts, &long),
        "runs past",
    );
    // …and one that swallows the records behind it instead.
    let mut greedy = contexts.clone();
    greedy[0].entry[1] += 1;
    refused_by_both_opens(
        "payload_len into the next record",
        &assemble(&head, &greedy, &minorities),
        "snapshot:",
    );

    // A minority entry its context does not dominate: (sex=F | ⋆) claims 5
    // women in unit 0, which holds 4 people; (sex=F | north) claims 2 in
    // unit 1, where the north has 1. Both are well-formed entries.
    let apex_cell = minorities.iter().position(|r| r.key.ends_with(&[0, 0, 0, 0])).unwrap();
    let north = 2u32; // sex=F 0, age=young 1, region=north 2: first-seen order
    let north_cell = minorities
        .iter()
        .position(|r| r.key.ends_with(&[&1u32.to_le_bytes()[..], &north.to_le_bytes()].concat()))
        .unwrap();
    // Counts of 2⁶³ are well-formed too: refused, never an overflow.
    let huge = 1u64 << 63;
    for (cell, pairs) in [
        (apex_cell, vec![(0, 5), (1, 1)]),
        (north_cell, vec![(1, 2)]),
        (apex_cell, vec![(0, huge), (1, huge)]),
    ] {
        let mut minorities = minorities.clone();
        let stored = histogram::decode(&minorities[cell].entry, 2).unwrap();
        assert_ne!(stored, pairs);
        minorities[cell].entry = histogram::encode(&pairs);
        let hostile = assemble(&head, &contexts, &minorities);
        refused_by_both_opens(
            "a minority entry not dominated by its context",
            &hostile,
            "not dominated",
        );
        // A man's row misses both cells' items: their own deltas are empty,
        // so the update keeps their entries instead of re-encoding them —
        // and must still check them against the context it dirtied.
        refused_by_both_opens_after(
            "a kept minority entry not dominated by its context",
            &hostile,
            "not dominated",
            ("M", "old", "north"),
        );
    }
}

/// A posting slot whose set bits lie at or past 2³² decodes (the
/// cardinality matches) and *iterates* as small tids — positions narrow to
/// `u32` — so every check that walks tids sees an honest posting, while the
/// stream kernels would intersect it at its real positions. The heap load
/// must bound a posting by its highest set bit, as the mapped opens do.
#[test]
fn a_posting_aliasing_past_the_universe_is_refused_by_every_open() {
    let good = golden_build(MeasureSet::FULL);
    let bytes = good.to_bytes();
    let word = |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let put = |bytes: &mut [u8], at: usize, word: u64| {
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
    };
    // Directory words 2 and 4: postdir_off, slots_off.
    let (postdir_off, slots_off) =
        (word(&bytes, DIR_OFF + 16) as usize, word(&bytes, DIR_OFF + 32) as usize);
    let marker = |run: u64, lit: u64| (run << 1) | (lit << 33);
    let refused = |what: &str, bytes: &[u8]| {
        let err = CubeSnapshot::from_bytes(bytes).expect_err(what).to_string();
        assert!(err.contains("inconsistent vertical database"), "{what}, heap: {err}");
        if cfg!(target_endian = "little") {
            for verified in [false, true] {
                let err = open_mapped("alias", bytes, verified).expect_err(what).to_string();
                assert!(err.contains("malformed posting slot"), "{what}, mapped: {err}");
            }
        }
    };

    // The whole first posting moved up by 2²⁶ words: same length, same
    // cardinality, same tids under iteration. Slots sit outside `meta_sum`.
    assert_eq!(word(&bytes, postdir_off) as usize, slots_off, "the first slot opens the region");
    assert_eq!(word(&bytes, slots_off), marker(0, 1), "fixture: one literal word");
    let mut wrapped = bytes.clone();
    put(&mut wrapped, slots_off, marker(1 << 26, 1));
    repatch_full_sum(&mut wrapped);
    refused("every tid past 2^32", &wrapped);

    // The last posting's highest tid moved to bit 2³² + tid, beside the
    // real ones: the slot grows by a marker and a literal.
    let ids: Vec<u32> = good.vertical().postings().last().unwrap().iter().collect();
    let (&high, low) = ids.split_last().unwrap();
    assert!(!low.is_empty() && high < 64, "fixture: one literal word, several tids");
    let low_word = low.iter().fold(0u64, |w, &tid| w | 1 << tid);
    let slot = [marker(0, 1), low_word, marker((1 << 26) - 1, 1), 1u64 << high];
    refused("one tid past 2^32 beside real ones", &with_last_slot(&bytes, &slot));
}

/// `bytes` with its last posting's slot — the one the store follows —
/// replaced by `slot`: its directory entry, the slots length and the store
/// offset move with the slot's size, and both checksums are recomputed.
fn with_last_slot(bytes: &[u8], slot: &[u64]) -> Vec<u8> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let put = |bytes: &mut [u8], at: usize, word: u64| {
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
    };
    // Directory words 2..=6: postdir_off, n_postings, slots_off, slots_len,
    // store_off.
    let dir = |i: usize| word(DIR_OFF + 8 * i);
    let (postdir_off, n_postings) = (dir(2) as usize, dir(3) as usize);
    let (slots_len, store_off) = (dir(5), dir(6) as usize);
    let entry = postdir_off + 24 * (n_postings - 1);
    let slot_off = word(entry) as usize;
    assert_eq!(slot_off + word(entry + 8) as usize, store_off, "the last slot ends the region");
    let mut out = bytes[..slot_off].to_vec();
    out.extend(slot.iter().flat_map(|w| w.to_le_bytes()));
    out.extend_from_slice(&bytes[store_off..]);
    let grown = out.len() as u64 - bytes.len() as u64;
    put(&mut out, entry + 8, 8 * slot.len() as u64);
    put(&mut out, DIR_OFF + 8 * 5, slots_len + grown);
    put(&mut out, DIR_OFF + 8 * 6, store_off as u64 + grown);
    repatch_both_sums(&mut out);
    out
}

/// A posting slot may hold the right ids and still end past its last set
/// bit — in zero literals, a zero run or an empty marker — which no
/// encoder writes. An update appends to postings at the span their markers
/// cover, so such a tail would misplace the appended tids (or trip the
/// append's own check mid-commit): every open refuses the slot instead,
/// and no update ever sees it.
#[test]
fn a_posting_ending_past_its_last_set_bit_is_refused_by_every_open() {
    let good = golden_build(MeasureSet::FULL);
    let bytes = good.to_bytes();
    let marker = |run: u64, lit: u64| (run << 1) | (lit << 33);
    let ids: Vec<u32> = good.vertical().postings().last().unwrap().iter().collect();
    assert!(ids.last().is_some_and(|&max| max < 64), "fixture: one literal word");
    let w = ids.iter().fold(0u64, |w, &tid| w | 1 << tid);
    assert_eq!(with_last_slot(&bytes, &[marker(0, 1), w]), bytes, "the fixture's own slot");
    for (what, slot) in [
        ("two trailing zero literals", vec![marker(0, 3), w, 0, 0]),
        ("a zero run, then an empty marker", vec![marker(0, 1), w, marker(1, 0), marker(0, 0)]),
        ("a trailing zero run", vec![marker(0, 1), w, marker(3, 0)]),
    ] {
        let hostile = with_last_slot(&bytes, &slot);
        let err = CubeSnapshot::from_bytes(&hostile).expect_err(what).to_string();
        assert!(err.contains("malformed posting slot"), "{what}, heap: {err}");
        if cfg!(target_endian = "little") {
            for verified in [false, true] {
                let err = open_mapped("tail", &hostile, verified).expect_err(what).to_string();
                assert!(err.contains("malformed posting slot"), "{what}, mapped: {err}");
            }
        }
    }
    // The encoder's own slot opens, and a retraction and an append through
    // either open give the bytes the same update gives the built snapshot.
    let mut batch = UpdateBatch::new();
    batch.remove_tid(0).add_row(&[("sex", "F"), ("age", "young"), ("region", "north")], "u0");
    let mut expected = good.clone();
    expected.apply_update(&batch).unwrap();
    let mut heap = CubeSnapshot::from_bytes(&bytes).unwrap();
    heap.apply_update(&batch).unwrap();
    assert_eq!(heap.to_bytes(), expected.to_bytes(), "heap open, then update");
    if cfg!(target_endian = "little") {
        let mut mapped = open_mapped("tail_ok", &bytes, false).unwrap();
        mapped.apply_update(&batch).unwrap();
        assert_eq!(mapped.to_bytes(), expected.to_bytes(), "mapped open, then update");
    }
}
