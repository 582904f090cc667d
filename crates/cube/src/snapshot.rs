//! Versioned binary snapshots of a built cube (`scube-cube::snapshot`).
//!
//! SCube's whole point is *interactive* exploration of a materialized cube,
//! but a cube used to die with the process: every session re-mined and
//! re-built. A [`CubeSnapshot`] persists everything a serving session needs
//! — the [`SegregationCube`] (cells, [`crate::cube::CubeLabels`], the
//! maintenance store and the parameters it was built under) *and* the
//! [`VerticalDb`] postings behind it — so `load` restores both exact lookups
//! and the explorer fallback for non-materialized ⋆-combinations without
//! re-mining anything. The snapshot adds nothing of its own: the cube
//! records how it was built, so any pairing of a cube with its postings
//! saves, serves and updates under the cube's own parameters.
//!
//! ## Format
//!
//! There is one on-disk layout, identified by the version word 9; a file
//! carrying any other version word is rejected with an error that names
//! the version found (re-create such a snapshot with `scube save`). Word 8
//! is the same layout with each cell's minority stored as its per-unit
//! `(unit, m)` pairs instead of its run table — on one unit per company,
//! thousands of pairs a cell where the run table holds a few dozen runs;
//! word 7 stored every histogram as fixed-width `(unit u32, count u64)`
//! pairs, and word 6 additionally folded cell values in unit order.
//!
//! Fixed-width integers are little-endian; strings are `u32` length +
//! UTF-8 bytes. Everything but the store is laid out as fixed-width
//! tables behind an offset directory, so a reader can either *decode* the
//! file onto the heap
//! ([`CubeSnapshot::load`], any host) or *map* it and serve postings
//! straight out of the page cache ([`CubeSnapshot::open_mmap`],
//! little-endian hosts — N daemons then share one physical copy):
//!
//! ```text
//! [0..8)    magic  "SCUBESNP"
//! [8..12)   format version (u32, 9)
//! [12]      posting representation tag (EwahBitmap::SERIAL_TAG = 1; any
//!           other value is an error)
//! [13..21)  checksum (u64) of bytes [24..)   — the full checksum
//! [21..24)  zero padding
//! [24..96)  offset directory: nine u64s
//!             meta_off, meta_len, postdir_off, n_postings,
//!             slots_off, slots_len, store_off, store_len, meta_sum
//! meta      build cfg (materialization tag u8, Atkinson b f64, measure-set
//!           byte: bit i = SegIndex::ALL[i]), labels, n_units (u32, equal
//!           to the number of unit names),
//!           min_support (u64), cells sorted by (sa, ca) — each: sa ids,
//!           ca ids, one tagged optional f64 per *selected* measure in
//!           SegIndex::ALL order (tag 0 = undefined, tag 1 + f64 bits),
//!           minority (u64), total (u64), num_units (u32) —
//!           n_transactions (u32), v_units (u32), tid → unit map (u32 each)
//! postdir   n_postings × (slot offset u64, slot length u64, cardinality u64)
//! slots     posting slots (EwahBitmap::write_slot), each at an 8-aligned
//!           file offset, zero padding between slots
//! store     maintenance store: context totals, then cell minorities, each
//!           a u32 count followed by (key ids, entry) records in sorted key
//!           order — an entry being `varint n, varint payload_len,
//!           payload`: for a context, n delta-varint (unit gap, count − 1)
//!           pairs; for a cell, its n minority runs (t index step among
//!           the context's distinct totals with a k ≥ 2 flag, m code,
//!           k − 2 when flagged), see [`crate::histogram`]
//! ```
//!
//! `meta_sum` is the same sum over the directory (sans itself), the meta
//! region, and the posting directory — everything `open_mmap` must trust
//! *eagerly*. Verifying it costs O(metadata), not O(file): posting slots
//! are validated structurally per slot ([`EwahBitmap::map_slot`], enough to
//! rule out panics and out-of-universe tids, in time proportional to slot
//! metadata), and the maintenance-store region is attached unscanned. The
//! first update runs an O(keys) scan over it — every key parsed and
//! validated, every entry stepped over by its `payload_len` and filed as a
//! slice of the mapping — after which an entry is decoded (and thereby
//! validated) exactly when an update dirties it: a small batch touches a
//! handful of entries, never the whole store, and a re-save copies the
//! untouched slices out verbatim. That keeps a cold `open_mmap` at
//! milliseconds even for multi-gigabyte snapshots.
//!
//! The full checksum at [13..21) covers every byte after the header. The
//! heap loader and [`CubeSnapshot::open_mmap_verified`] check it *and*
//! `meta_sum`, through one shared parse, so corruption is caught by both
//! or by neither; plain `open_mmap` skips the O(file) full checksum by
//! design and therefore accepts a superset (bit rot inside a posting slot
//! or store entry that keeps a valid structure).
//!
//! A cube built with a subset of the six indexes ([`MeasureSet`],
//! `CubeBuilder::measures`) records the subset in the measure-set byte and
//! stores only the selected measures' values per cell.
//!
//! Cells are written in sorted coordinate order, postings in item order,
//! and store entries in canonical key order, so serialization is
//! *canonical*: saving, loading, and saving again reproduces identical
//! bytes — and a mapped snapshot re-saves to exactly the bytes it was
//! opened from (checked by the model-based test `tests/cube_model.rs` after
//! every save and open, and pinned by `tests/snapshot_format.rs`).
//! [`CubeSnapshot::save`] writes through a same-directory temp file,
//! fsyncs it, renames it over the target, and fsyncs the directory, so a
//! crash mid-save leaves the previous snapshot bytes intact instead of a
//! torn file, and a save that returned `Ok` survives a power loss.
//!
//! `save` streams: the file is written region by region as it is encoded
//! (slot offsets come from each posting's word count and the store's
//! length from its entry lengths, so the directory and `meta_sum` are
//! written first), and no copy of the file exists in memory. The full
//! checksum is accumulated over the bytes as they pass, carrying partial
//! words across writes, and is written into the header at `[13..21)`
//! before the fsync and the rename. [`CubeSnapshot::to_bytes`] runs the
//! same encoder into one buffer of the file's exact length.

use std::fmt;
use std::io::{Seek, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use scube_bitmap::EwahBitmap;
use scube_common::mmap::{ByteRegion, MappedSlice, MmapFile, Store};
use scube_common::{FxHashMap, Result, ScubeError};
use scube_data::{ItemId, TransactionDb, VerticalDb};
use scube_segindex::{ContextTotals, IndexValues, MeasureSet, SegIndex};

use crate::builder::{CubeBuilder, CubeConfig, Materialize};
use crate::coords::CellCoords;
use crate::cube::{CubeLabels, SegregationCube};
use crate::histogram;
use crate::update::{MaintenanceStore, UpdateBatch, UpdateStats};

const MAGIC: &[u8; 8] = b"SCUBESNP";
const VERSION: u32 = 9;
const HEADER_LEN: usize = 8 + 4 + 1 + 8;
/// Offset directory: starts 8-aligned after the header + 3 pad bytes.
const DIR_OFF: usize = HEADER_LEN + 3;
const DIR_WORDS: usize = 9;
/// Meta region: starts right after the directory.
const META_OFF: usize = DIR_OFF + DIR_WORDS * 8;
/// One posting-directory entry: slot offset, slot length, cardinality.
const POSTDIR_ENTRY: usize = 24;
/// Ceiling on length-field-driven preallocations while decoding: the
/// checksum is not cryptographic, so a crafted file could otherwise declare
/// a 4-billion-element vector and abort the process on allocation instead
/// of returning a decode error. Vectors still grow to any genuine size.
const PREALLOC_CAP: usize = 1 << 16;

/// A persistable pairing of a built cube with the vertical database it was
/// built from — everything the query engine needs to serve both
/// materialized and non-materialized cells. The cube records how it was
/// built (materialization, Atkinson parameter, measure set, min-support),
/// so updates re-fold, the engine's explorer recomputes and the file
/// stores exactly what a rebuild under those parameters would. A clone
/// shares the postings and the maintenance store, each copied on its first
/// write, so updating one clone never changes another.
#[derive(Debug, Clone)]
pub struct CubeSnapshot {
    pub(crate) cube: SegregationCube,
    pub(crate) vertical: VerticalDb,
}

impl MaintenanceStore {
    /// File a mapped store region's entries into the two maps: parse (and
    /// validate) every key, bounds-check and step over every entry, keep
    /// it as a slice of the mapping. O(keys), nothing inside an entry is
    /// read. No-op for heap stores and already-scanned regions; on error
    /// the region stays attached and unscanned.
    pub(crate) fn scan(&mut self, n_items: usize) -> Result<()> {
        let Some(region) = &self.unscanned else { return Ok(()) };
        *self = read_store(region.as_slice(), n_items, |entry| {
            let slice = region.slice(entry.start, entry.len()).expect("entry lies in the region");
            Store::Mapped(MappedSlice::new(slice).expect("bytes have no alignment"))
        })?;
        Ok(())
    }
}

impl CubeSnapshot {
    /// Pair a cube with its vertical database. The cube carries the
    /// maintenance store its build emitted and the parameters it was built
    /// under; nothing is re-derived or filled in here.
    ///
    /// Fails when the two disagree on shape (unit count, item count), or
    /// when the store does not cover the cube's cells: a mismatched pairing
    /// would serve materialized lookups from one dataset and explorer
    /// fallbacks from another.
    pub fn new(cube: SegregationCube, vertical: VerticalDb) -> Result<Self> {
        if cube.num_units() != vertical.num_units() {
            return Err(ScubeError::Inconsistent(format!(
                "snapshot: cube has {} units but vertical database has {}",
                cube.num_units(),
                vertical.num_units()
            )));
        }
        if cube.labels().num_items() != vertical.num_items() {
            return Err(ScubeError::Inconsistent(format!(
                "snapshot: cube labels {} items but vertical database has {}",
                cube.labels().num_items(),
                vertical.num_items()
            )));
        }
        // A mapped store region is checked when an update first scans it.
        if cube.store.unscanned.is_none() && !cube.store.covers(&cube) {
            return Err(corrupt("maintenance store does not cover the cube"));
        }
        Ok(CubeSnapshot { cube, vertical })
    }

    /// Build both halves from a transaction database in one pass: the
    /// vertical database is constructed once and shared with the builder.
    pub fn from_db(db: &TransactionDb, builder: &CubeBuilder) -> Result<Self> {
        let vertical = VerticalDb::build(db);
        let cube = builder.build_from_vertical(db, &vertical)?;
        CubeSnapshot::new(cube, vertical)
    }

    /// Fold a batch of appended rows and retractions into the snapshot in
    /// place: postings extended at their tails (or shrunk), newly-frequent
    /// itemsets promoted, below-threshold or no-longer-closed cells
    /// demoted, and exactly the dirty cells re-evaluated under the cube's
    /// own build parameters — bit-identical to a full rebuild on the edited
    /// data for single-valued-per-row attributes; see
    /// [`UpdateBatch`] for the narrow multi-valued dictionary-order caveat
    /// (cell values are exact in every case) and [`crate::update`] for the
    /// machinery. Every fallible step runs before the first mutation, so an
    /// `Err` leaves the snapshot's bytes as they were.
    ///
    /// ```
    /// use scube_cube::{CubeBuilder, CubeSnapshot, UpdateBatch};
    /// use scube_data::{Attribute, Schema, TransactionDbBuilder};
    ///
    /// let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")])?;
    /// let mut b = TransactionDbBuilder::new(schema);
    /// for (sex, unit) in [("F", "u0"), ("F", "u0"), ("M", "u1")] {
    ///     b.add_row(&[vec![sex], vec!["north"]], unit)?;
    /// }
    /// let mut snap = CubeSnapshot::from_db(&b.finish(), &CubeBuilder::new())?;
    /// assert_eq!(snap.cube().get_by_names(&[("sex", "F")], &[]).unwrap().total, 3);
    ///
    /// // A new individual arrives — in a brand-new unit.
    /// let mut batch = UpdateBatch::new();
    /// batch.add_row(&[("sex", "F"), ("region", "north")], "u2");
    /// let stats = snap.apply_update(&batch)?;
    /// assert_eq!((stats.rows_added, stats.new_units), (1, 1));
    /// let women = snap.cube().get_by_names(&[("sex", "F")], &[]).unwrap();
    /// assert_eq!((women.minority, women.total), (3, 4));
    /// # Ok::<(), scube_common::ScubeError>(())
    /// ```
    pub fn apply_update(&mut self, batch: &UpdateBatch) -> Result<UpdateStats> {
        self.apply_update_threads(batch, 1)
    }

    /// As [`Self::apply_update`], fanning dirty-cell and promotion staging
    /// over up to `threads` workers through [`scube_common::par`] (clamped
    /// to the host; per-worker scratches, results in job order — the
    /// parallel update is bit-identical to the serial one, checked on every
    /// update of `tests/cube_model.rs`).
    pub fn apply_update_threads(
        &mut self,
        batch: &UpdateBatch,
        threads: usize,
    ) -> Result<UpdateStats> {
        // A mapped store is *scanned* first — O(keys), entries stepped
        // over, not decoded: it changes the store's representation, not its
        // content, and is the one mutation before staging. Each histogram
        // stays a slice of the mapped file until an update dirties it. A
        // store with nothing to scan is not touched, so a store shared with
        // another clone is not copied here.
        if self.cube.store.unscanned.is_some() {
            let n_items = self.cube.labels().num_items();
            Arc::make_mut(&mut self.cube.store).scan(n_items)?;
        }
        let staged = crate::update::stage(&self.cube, &self.vertical, batch, threads)?;
        Ok(staged.commit(&mut self.cube, &mut self.vertical))
    }

    /// The materialization strategy the cube was built with.
    pub fn materialize(&self) -> Materialize {
        self.cube.materialize()
    }

    /// The Atkinson shape parameter the cube was built with.
    pub fn atkinson_b(&self) -> f64 {
        self.cube.atkinson_b()
    }

    /// The measure subset the cube was built with.
    pub fn measures(&self) -> MeasureSet {
        self.cube.measures()
    }

    /// The materialized cube.
    pub fn cube(&self) -> &SegregationCube {
        &self.cube
    }

    /// The vertical database (item postings + tid → unit map).
    pub fn vertical(&self) -> &VerticalDb {
        &self.vertical
    }

    /// Serialize into the binary format (module docs): offset directory,
    /// meta region, posting directory, 8-aligned posting slots,
    /// maintenance-store region. Canonical — identical snapshots produce
    /// identical bytes, whatever path (build, load, update, mmap) produced
    /// the value. The same encoder [`Self::save`] streams, into one
    /// allocation of the file's exact length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let encoding = self.encoding();
        let mut out = Vec::with_capacity(encoding.len);
        let full_sum = encoding.write_to(&mut out).expect("writing to a Vec cannot fail");
        out[13..21].copy_from_slice(&full_sum.to_le_bytes());
        out
    }

    /// Everything before the posting slots, encoded: header (full checksum
    /// zeroed), offset directory with its `meta_sum`, meta region, posting
    /// directory and alignment padding. O(metadata) — slot offsets come
    /// from each posting's word count, the store's length from its entry
    /// lengths — so slots and store are streamed from the snapshot itself.
    fn encoding(&self) -> Encoding<'_> {
        let mut head = vec![0u8; META_OFF];
        head[..8].copy_from_slice(MAGIC);
        head[8..12].copy_from_slice(&VERSION.to_le_bytes());
        head[12] = EwahBitmap::SERIAL_TAG;
        self.encode_meta(&mut head);

        let postings = self.vertical.postings();
        let postdir_off = head.len();
        let slots_off = (postdir_off + postings.len() * POSTDIR_ENTRY).next_multiple_of(8);
        let mut slot_off = slots_off;
        for posting in postings {
            let slot_len = posting.stored_words() * 8;
            put_u64(&mut head, slot_off as u64);
            put_u64(&mut head, slot_len as u64);
            put_u64(&mut head, posting.cardinality());
            slot_off += slot_len;
        }
        head.resize(slots_off, 0); // alignment padding before the first slot
        let store_off = slot_off;
        let store_len = store_len(&self.cube.store);
        let directory = [
            META_OFF,
            postdir_off - META_OFF,
            postdir_off,
            postings.len(),
            slots_off,
            store_off - slots_off,
            store_off,
            store_len,
        ];
        for (i, word) in directory.into_iter().enumerate() {
            head[DIR_OFF + 8 * i..DIR_OFF + 8 * i + 8]
                .copy_from_slice(&(word as u64).to_le_bytes());
        }
        let meta_sum = checksum(&[&head[DIR_OFF..DIR_OFF + 8 * 8], &head[META_OFF..]]);
        head[DIR_OFF + 8 * 8..META_OFF].copy_from_slice(&meta_sum.to_le_bytes());
        Encoding { snapshot: self, head, len: store_off + store_len }
    }

    /// Append the meta region: build configuration, labels, cube metadata,
    /// cells in canonical (sa, ca) order, and the tid → unit map.
    fn encode_meta(&self, meta: &mut Vec<u8>) {
        let labels = self.cube.labels();

        // Build configuration.
        meta.push(match self.materialize() {
            Materialize::AllFrequent => 0,
            Materialize::ClosedOnly => 1,
        });
        put_u64(meta, self.atkinson_b().to_bits());
        meta.push(self.measures().bits());

        // Labels.
        put_u32(meta, labels.num_items() as u32);
        for item in 0..labels.num_items() as ItemId {
            put_str(meta, labels.attr_of(item));
            put_str(meta, labels.value_of(item));
            meta.push(labels.is_sa_item(item) as u8);
        }
        put_str_list(meta, &labels.sa_attrs);
        put_str_list(meta, &labels.ca_attrs);
        put_str_list(meta, &labels.unit_names);

        // Cube metadata.
        put_u32(meta, self.cube.num_units());
        put_u64(meta, self.cube.min_support());

        // Cells in canonical (sa, ca) order.
        let mut cells: Vec<(&CellCoords, &IndexValues)> = self.cube.cells().collect();
        cells.sort_by(|a, b| a.0.cmp(b.0));
        put_u32(meta, cells.len() as u32);
        let selected: Vec<SegIndex> = self.measures().iter().collect();
        for (coords, values) in cells {
            put_ids(meta, &coords.sa);
            put_ids(meta, &coords.ca);
            for &index in &selected {
                put_f64_opt(meta, values.get(index));
            }
            put_u64(meta, values.minority);
            put_u64(meta, values.total);
            put_u32(meta, values.num_units);
        }

        // Transaction space and tid → unit map.
        put_u32(meta, self.vertical.num_transactions());
        put_u32(meta, self.vertical.num_units());
        for &u in self.vertical.units() {
            put_u32(meta, u);
        }
    }

    /// Deserialize a snapshot onto the heap, verifying magic, version,
    /// representation tag, and both checksums before trusting any field,
    /// then validating every region fully (owned postings via
    /// [`EwahBitmap::read_slot`], [`VerticalDb::from_parts`], store coverage,
    /// every store entry decoded once and dropped).
    /// Any version word but the current one is an error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (d, meta) = Self::parse_preamble(bytes, true)?;
        let postings = d.postings(bytes, |off, len, card| {
            EwahBitmap::read_slot(&bytes[off..off + len], card)
        })?;
        let store_bytes = &bytes[d.store_off..d.store_off + d.store_len];
        let mut cube = meta.cube;
        cube.store = Arc::new(read_store(store_bytes, meta.n_items, |entry| {
            Store::Owned(store_bytes[entry].to_vec())
        })?);
        let vertical =
            VerticalDb::from_parts(postings, meta.n_transactions, meta.unit_of, meta.v_units)
                .ok_or_else(|| corrupt("inconsistent vertical database parts"))?;
        let snapshot = CubeSnapshot::new(cube, vertical)?;
        snapshot.cube.store.validate_entries(meta.v_units)?;
        Ok(snapshot)
    }

    /// The parse every open shares: header (magic, version word,
    /// representation tag, padding), the full checksum when `verify_full`,
    /// the offset directory with its `meta_sum`, and the meta region.
    /// What comes back is trusted metadata; postings and the maintenance
    /// store are left to the caller, which is where the heap and mapped
    /// opens differ.
    fn parse_preamble(bytes: &[u8], verify_full: bool) -> Result<(Directory, MetaParts)> {
        if bytes.len() < HEADER_LEN {
            return Err(corrupt("shorter than the fixed header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a scube snapshot)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(&format!(
                "unsupported format version {version} (this build reads and writes only \
                 version {VERSION}) — re-create the snapshot with `scube save`"
            )));
        }
        if bytes.len() < META_OFF {
            return Err(corrupt("shorter than the header and offset directory"));
        }
        let tag = bytes[12];
        if tag != EwahBitmap::SERIAL_TAG {
            return Err(corrupt(&format!(
                "posting representation tag {tag} is not the EWAH tag {}",
                EwahBitmap::SERIAL_TAG
            )));
        }
        if bytes[HEADER_LEN..DIR_OFF] != [0u8; 3] {
            return Err(corrupt("nonzero header padding"));
        }
        if verify_full {
            let stored_sum = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
            if checksum(&[&bytes[DIR_OFF..]]) != stored_sum {
                return Err(corrupt("checksum mismatch (truncated or corrupted payload)"));
            }
        }
        let d = Directory::parse(bytes)?;
        let meta = decode_meta(&bytes[META_OFF..d.postdir_off])?;
        if d.n_postings != meta.n_items {
            return Err(corrupt("posting count does not match item count"));
        }
        Ok((d, meta))
    }

    /// Map a snapshot file and serve its postings zero-copy out of the
    /// page cache — every daemon that opens the same file shares one
    /// physical copy.
    ///
    /// Validation is O(metadata), which is what keeps a cold open at
    /// milliseconds regardless of file size: the header, the offset
    /// directory, the meta region, and the posting directory are verified
    /// against `meta_sum`; each posting slot is checked *structurally*
    /// ([`EwahBitmap::map_slot`] — panic-freedom and tid range, not content),
    /// and the maintenance-store region is scanned when an update first
    /// needs it, its entries validated one by one as updates dirty them.
    /// Bit rot inside a slot that happens to keep a valid structure is the
    /// one corruption class this cannot catch —
    /// [`Self::open_mmap_verified`] reads the whole file and checks the
    /// full checksum for that.
    ///
    /// Errors (never panics, never UB) on truncated or corrupted files, on
    /// any other format version, and on big-endian hosts, where the
    /// fixed-width tables cannot be reinterpreted in place —
    /// [`Self::load`] works everywhere.
    ///
    /// The returned snapshot behaves exactly like a loaded one: queries
    /// are answered bit-identically (`tests/cube_model.rs`), and
    /// mutation (`apply_update`) transparently copies the touched postings
    /// onto the heap.
    pub fn open_mmap(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_mmap_inner(path.as_ref(), false)
    }

    /// As [`Self::open_mmap`], additionally verifying the full-payload
    /// checksum — an O(file) read that rules out bit rot everywhere, for
    /// callers that prefer eager certainty over a milliseconds open. The
    /// header, both checksums, the directory, and the meta region go
    /// through the same parse [`Self::load`] uses, so the two accept the
    /// same files — short of a crafted file whose checksums were recomputed
    /// over malformed slot or store contents, which only the heap decoder's
    /// full validation rejects.
    pub fn open_mmap_verified(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_mmap_inner(path.as_ref(), true)
    }

    fn open_mmap_inner(path: &Path, verify_full: bool) -> Result<Self> {
        if cfg!(target_endian = "big") {
            return Err(ScubeError::Inconsistent(
                "snapshot: open_mmap requires a little-endian host (use load)".into(),
            ));
        }
        let file = Arc::new(MmapFile::open(path)?);
        let whole = ByteRegion::whole(Arc::clone(&file));
        let bytes = file.as_bytes();
        let (d, meta) = Self::parse_preamble(bytes, verify_full)?;
        let postings = d.postings(bytes, |off, len, card| {
            EwahBitmap::map_slot(whole.slice(off, len)?, card, meta.n_transactions)
        })?;
        // `map_slot` guaranteed every posting stays below `n_transactions`,
        // so the O(data) posting re-scan of `from_parts` is unnecessary —
        // that scan is precisely what would make a cold open O(file).
        let vertical = VerticalDb::from_validated_parts(
            postings,
            meta.n_transactions,
            meta.unit_of,
            meta.v_units,
        )
        .ok_or_else(|| corrupt("inconsistent vertical database parts"))?;
        let mut cube = meta.cube;
        Arc::make_mut(&mut cube.store).unscanned = Some(
            whole.slice(d.store_off, d.store_len).ok_or_else(|| corrupt("store out of bounds"))?,
        );
        CubeSnapshot::new(cube, vertical)
    }

    /// Write the snapshot to a file, atomically and durably: the bytes go
    /// to a same-directory temp file, are fsynced, and are renamed over
    /// the target, and then the directory is fsynced. A crash, kill, or
    /// full disk mid-save therefore never replaces an existing snapshot
    /// with a torn one — the target path holds either the previous bytes
    /// or the complete new ones (`tests/snapshot_atomic_save.rs` kills a
    /// writer mid-save to prove it) — and once this returns `Ok` the new
    /// bytes survive a power loss. On error the temp file is removed
    /// best-effort.
    ///
    /// The file is streamed as it is encoded: no copy of it is built in
    /// memory, and the full checksum, known once the last byte is written,
    /// goes into the header before the fsync.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        write_atomic(path.as_ref(), |file| {
            let mut w = std::io::BufWriter::with_capacity(1 << 16, file);
            let full_sum = self.encoding().write_to(&mut w)?;
            let file = w.into_inner().map_err(std::io::IntoInnerError::into_error)?;
            file.seek(std::io::SeekFrom::Start(13))?;
            file.write_all(&full_sum.to_le_bytes())
        })
    }

    /// Load a snapshot from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| ScubeError::io_at(path.display().to_string(), e))?;
        Self::from_bytes(&bytes)
    }
}

/// What a snapshot file is made of — the answer to "what is in this
/// 110 MB file" ([`inspect`], `scube inspect --snapshot f`).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotCensus {
    /// The format version word.
    pub version: u32,
    /// File length in bytes.
    pub file_bytes: u64,
    /// The regions that tile the file, in file order, with their lengths:
    /// header + offset directory, meta, posting directory, alignment
    /// padding, posting slots, maintenance store.
    pub regions: Vec<(&'static str, u64)>,
    /// Bytes of the unit-name list inside the meta region.
    pub unit_name_bytes: u64,
    /// Bytes of the tid → unit map inside the meta region.
    pub tid_unit_bytes: u64,
    /// Materialized cells.
    pub cells: usize,
    /// Item postings.
    pub postings: usize,
    /// Transactions (input rows).
    pub transactions: u32,
    /// Organizational units.
    pub units: u32,
    /// The store's context-totals entries.
    pub contexts: StoreCensus,
    /// The store's cell run tables.
    pub minorities: RunCensus,
}

/// Census of the store's context-totals entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCensus {
    /// Histogram entries.
    pub entries: u64,
    /// `(unit, count)` pairs over all entries.
    pub pairs: u64,
    /// Bytes of the keys (item-id lists).
    pub key_bytes: u64,
    /// Bytes of the entries.
    pub entry_bytes: u64,
    /// Pairs in the smallest, the median and the largest entry.
    pub pairs_per_entry: (u64, u64, u64),
    /// Pairs whose count is exactly 1.
    pub count_one: u64,
    /// Pairs whose unit gap fits one varint byte (≤ 127).
    pub one_byte_gaps: u64,
    /// The largest count.
    pub max_count: u64,
}

/// Census of the store's cell minority run tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCensus {
    /// Run-table entries.
    pub entries: u64,
    /// `(t, m, k)` runs over all entries.
    pub runs: u64,
    /// The minority units the runs stand for: `Σ k`.
    pub units: u64,
    /// Bytes of the keys (item-id lists).
    pub key_bytes: u64,
    /// Bytes of the entries.
    pub entry_bytes: u64,
    /// Runs in the smallest, the median and the largest entry.
    pub runs_per_entry: (u64, u64, u64),
    /// Runs of one unit (`k = 1`).
    pub k_one: u64,
    /// The largest `k`.
    pub max_k: u64,
}

/// The smallest, the median and the largest of `sizes` (sorted here).
fn spread(sizes: &mut [u64]) -> (u64, u64, u64) {
    sizes.sort_unstable();
    match (sizes.first(), sizes.last()) {
        (Some(&min), Some(&max)) => (min, sizes[sizes.len() / 2], max),
        _ => (0, 0, 0),
    }
}

/// Take the census of a snapshot file. Everything but the store comes from
/// the offset directory and the meta region — O(metadata), verified against
/// `meta_sum` like any mapped open; the store census is one sequential
/// scan through the same validating decoders loads and updates use (each
/// run table against its context's totals, which precede it), so a file
/// this accepts has a well-formed store.
pub fn inspect(path: impl AsRef<Path>) -> Result<SnapshotCensus> {
    let file = MmapFile::open(path.as_ref())?;
    let bytes = file.as_bytes();
    let (d, meta) = CubeSnapshot::parse_preamble(bytes, false)?;
    let postdir_end = d.postdir_off + d.n_postings * POSTDIR_ENTRY;
    let names = &meta.cube.labels().unit_names;
    let (mut contexts, mut pair_sizes) = (StoreCensus::default(), Vec::new());
    let (mut minorities, mut run_sizes) = (RunCensus::default(), Vec::new());
    let mut totals: FxHashMap<Vec<ItemId>, Vec<(u64, u64)>> = FxHashMap::default();
    let store = &bytes[d.store_off..d.store_off + d.store_len];
    let ids = |n: usize| 4 + 4 * n as u64;
    scan_store(store, meta.n_items, |key, entry| {
        match key {
            StoreKey::Context(ca) => {
                let pairs = histogram::decode(&store[entry.clone()], meta.v_units)?;
                contexts.entries += 1;
                contexts.pairs += pairs.len() as u64;
                contexts.key_bytes += ids(ca.len());
                contexts.entry_bytes += entry.len() as u64;
                pair_sizes.push(pairs.len() as u64);
                let mut next = 0u32;
                for &(unit, count) in &pairs {
                    contexts.count_one += u64::from(count == 1);
                    contexts.one_byte_gaps += u64::from(unit - next <= 127);
                    contexts.max_count = contexts.max_count.max(count);
                    next = unit + 1;
                }
                totals.insert(ca, ContextTotals::new(pairs)?.runs().to_vec());
            }
            StoreKey::Minority(c) => {
                let context = totals.get(&c.ca).ok_or_else(|| corrupt("a cell has no context"))?;
                let runs = histogram::decode_runs(&store[entry.clone()], context)?;
                minorities.entries += 1;
                minorities.runs += runs.len() as u64;
                minorities.key_bytes += ids(c.sa.len()) + ids(c.ca.len());
                minorities.entry_bytes += entry.len() as u64;
                run_sizes.push(runs.len() as u64);
                for run in &runs {
                    minorities.units += run.units;
                    minorities.k_one += u64::from(run.units == 1);
                    minorities.max_k = minorities.max_k.max(run.units);
                }
            }
        }
        Ok(())
    })?;
    contexts.pairs_per_entry = spread(&mut pair_sizes);
    minorities.runs_per_entry = spread(&mut run_sizes);
    Ok(SnapshotCensus {
        version: VERSION,
        file_bytes: bytes.len() as u64,
        regions: vec![
            ("header + directory", META_OFF as u64),
            ("meta", (d.postdir_off - META_OFF) as u64),
            ("posting directory", (postdir_end - d.postdir_off) as u64),
            ("alignment padding", (d.slots_off - postdir_end) as u64),
            ("posting slots", (d.store_off - d.slots_off) as u64),
            ("maintenance store", d.store_len as u64),
        ],
        unit_name_bytes: 4 + names.iter().map(|n| 4 + n.len() as u64).sum::<u64>(),
        tid_unit_bytes: 4 * u64::from(meta.n_transactions),
        cells: meta.cube.len(),
        postings: d.n_postings,
        transactions: meta.n_transactions,
        units: meta.v_units,
        contexts,
        minorities,
    })
}

impl fmt::Display for SnapshotCensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let share = |part: u64, whole: u64| 100.0 * part as f64 / (whole.max(1)) as f64;
        writeln!(f, "format version {}, {} bytes", self.version, self.file_bytes)?;
        for &(name, len) in &self.regions {
            writeln!(f, "  {name:<20}{len:>14} B {:>5.1} %", share(len, self.file_bytes))?;
        }
        let tiled: u64 = self.regions.iter().map(|&(_, len)| len).sum();
        writeln!(f, "  {:<20}{tiled:>14} B", "regions sum")?;
        writeln!(
            f,
            "inside meta: unit names {} B ({:.1} %), tid -> unit map {} B ({:.1} %)",
            self.unit_name_bytes,
            share(self.unit_name_bytes, self.file_bytes),
            self.tid_unit_bytes,
            share(self.tid_unit_bytes, self.file_bytes)
        )?;
        writeln!(
            f,
            "{} cells, {} postings, {} transactions, {} units",
            self.cells, self.postings, self.transactions, self.units
        )?;
        let c = &self.contexts;
        let (min, median, max) = c.pairs_per_entry;
        writeln!(
            f,
            "store contexts: entries {}, pairs {}, key bytes {}, entry bytes {} ({:.2} B/pair), \
             pairs per entry min {min} / median {median} / max {max}, count = 1 {:.1} %, \
             one-byte gaps {:.1} %, max count {}",
            c.entries,
            c.pairs,
            c.key_bytes,
            c.entry_bytes,
            c.entry_bytes as f64 / c.pairs.max(1) as f64,
            share(c.count_one, c.pairs),
            share(c.one_byte_gaps, c.pairs),
            c.max_count
        )?;
        let r = &self.minorities;
        let (min, median, max) = r.runs_per_entry;
        writeln!(
            f,
            "store minorities: entries {}, runs {} ({} units), key bytes {}, entry bytes {} \
             ({:.2} B/run), runs per entry min {min} / median {median} / max {max}, \
             k = 1 {:.1} %, max k {}",
            r.entries,
            r.runs,
            r.units,
            r.key_bytes,
            r.entry_bytes,
            r.entry_bytes as f64 / r.runs.max(1) as f64,
            share(r.k_one, r.runs),
            r.max_k
        )
    }
}

/// The snapshot checksum's hash, part of the file format: FxHash's word step,
/// `state = (state <<< 5 ^ word) · K`, over whole 8-byte little-endian
/// words, then one 4-byte word and single bytes for a part's tail, and
/// the raw state as the sum. It is its own type so that the general
/// hasher ([`scube_common::hash::FxHasher`]) can change without moving a
/// byte of any file.
#[derive(Default)]
struct SumHasher {
    state: u64,
}

impl SumHasher {
    fn word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let mut tail = words.remainder();
        if let Some((w, rest)) = tail.split_first_chunk::<4>() {
            self.word(u64::from(u32::from_le_bytes(*w)));
            tail = rest;
        }
        for &b in tail {
            self.word(u64::from(b));
        }
    }
}

/// [`SumHasher`] over the concatenated `parts` — fast, deterministic, and
/// plenty for detecting truncation and bit rot (this is an integrity check,
/// not an authenticity one). The full checksum hashes one part; `meta_sum`
/// hashes two, its coverage skipping the `meta_sum` word itself.
fn checksum(parts: &[&[u8]]) -> u64 {
    let mut h = SumHasher::default();
    let mut len = 0u64;
    for part in parts {
        h.write(part);
        len += part.len() as u64;
    }
    // Fold the length in so a truncated all-zero tail cannot collide.
    h.word(len);
    h.state
}

/// [`checksum`] fed piecewise: whatever the write boundaries, `finish`
/// returns `checksum(&[all bytes fed])`. The hash consumes whole 8-byte
/// words and treats a shorter tail differently, so up to 7 bytes are
/// carried across writes until their word is complete.
#[derive(Default)]
struct ChecksumStream {
    hasher: SumHasher,
    carry: [u8; 8],
    carried: usize,
    len: u64,
}

impl ChecksumStream {
    fn feed(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.carried > 0 {
            let take = bytes.len().min(8 - self.carried);
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            self.hasher.write(&self.carry);
            self.carried = 0;
        }
        let words = bytes.len() - bytes.len() % 8;
        self.hasher.write(&bytes[..words]);
        self.carried = bytes.len() - words;
        self.carry[..self.carried].copy_from_slice(&bytes[words..]);
    }

    fn finish(mut self) -> u64 {
        self.hasher.write(&self.carry[..self.carried]);
        self.hasher.word(self.len);
        self.hasher.state
    }
}

/// A writer that feeds every byte it passes on into a [`ChecksumStream`].
struct Summed<W> {
    inner: W,
    sum: ChecksumStream,
}

impl<W: Write> Write for Summed<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sum.feed(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A snapshot's encoding ([`CubeSnapshot::encoding`]): the bytes before
/// the posting slots, and the length of the whole file.
struct Encoding<'a> {
    snapshot: &'a CubeSnapshot,
    head: Vec<u8>,
    len: usize,
}

impl Encoding<'_> {
    /// Write the file in order — header, directory, meta, posting
    /// directory, slots, store — and return the full checksum of bytes
    /// `[24..)`. The header's checksum field is written as zeros: the
    /// caller puts the returned value at `[13..21)`.
    fn write_to(self, w: &mut impl Write) -> std::io::Result<u64> {
        w.write_all(&self.head[..DIR_OFF])?;
        let mut w = Summed { inner: w, sum: ChecksumStream::default() };
        w.write_all(&self.head[DIR_OFF..])?;
        let mut slot = Vec::new();
        for posting in self.snapshot.vertical.postings() {
            slot.clear();
            posting.write_slot(&mut slot);
            w.write_all(&slot)?;
        }
        encode_store(&self.snapshot.cube.store, &mut w)?;
        debug_assert_eq!(DIR_OFF as u64 + w.sum.len, self.len as u64, "the length was exact");
        Ok(w.sum.finish())
    }
}

/// Atomic, durable file replacement: `fill` a unique same-directory temp
/// file, fsync it, rename it over `path`, fsync the directory. The rename
/// is what makes an interrupted save harmless — POSIX guarantees the
/// target names either the old or the new bytes, never a mixture. The
/// directory sync is what makes a returned `Ok` durable: until the
/// directory entry itself is on disk, a power loss can still roll the
/// rename back.
fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let io = |e: std::io::Error| ScubeError::io_at(path.display().to_string(), e);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let base = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".into());
    let tmp = dir.join(format!(
        ".{base}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        fill(&mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        #[cfg(unix)]
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(io)
}

/// The offset directory, parsed and cross-validated: every region must
/// tile the file exactly (header, directory, meta, posting directory,
/// alignment padding, slots, store — in that order, no gaps, no overlap),
/// and directory, meta region, and posting directory must hash to
/// `meta_sum`, so a reader can trust offsets and metadata before trusting
/// contents.
struct Directory {
    postdir_off: usize,
    n_postings: usize,
    slots_off: usize,
    store_off: usize,
    store_len: usize,
}

impl Directory {
    fn parse(bytes: &[u8]) -> Result<Directory> {
        let mut w = [0u64; DIR_WORDS];
        for (i, word) in w.iter_mut().enumerate() {
            let at = DIR_OFF + 8 * i;
            *word = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        }
        let [meta_off, meta_len, postdir_off, n_postings, slots_off, slots_len, store_off, store_len, meta_sum] =
            w;
        let bad = |msg: &str| corrupt(&format!("directory: {msg}"));
        if meta_off != META_OFF as u64 {
            return Err(bad("bad meta offset"));
        }
        if meta_off.checked_add(meta_len) != Some(postdir_off) {
            return Err(bad("meta region and posting directory disagree"));
        }
        let postdir_end = n_postings
            .checked_mul(POSTDIR_ENTRY as u64)
            .and_then(|l| postdir_off.checked_add(l))
            .ok_or_else(|| bad("posting directory length overflow"))?;
        if postdir_end.checked_next_multiple_of(8) != Some(slots_off) {
            return Err(bad("posting directory and slots disagree"));
        }
        if slots_off.checked_add(slots_len) != Some(store_off) {
            return Err(bad("slots and store disagree"));
        }
        if store_off.checked_add(store_len) != Some(bytes.len() as u64) {
            return Err(bad("regions do not span the file"));
        }
        // The regions tile the file, so `slots_off` is in bounds.
        let covered = &bytes[META_OFF..slots_off as usize];
        if checksum(&[&bytes[DIR_OFF..DIR_OFF + 8 * 8], covered]) != meta_sum {
            return Err(corrupt("meta checksum mismatch (corrupted directory or meta region)"));
        }
        Ok(Directory {
            postdir_off: postdir_off as usize,
            n_postings: n_postings as usize,
            slots_off: slots_off as usize,
            store_off: store_off as usize,
            store_len: store_len as usize,
        })
    }

    /// Every posting in directory order: each entry's slot range is checked
    /// to lie inside the slots region, then handed to `decode(slot offset,
    /// slot length, cardinality)` — the one step where the heap and mapped
    /// opens differ.
    fn postings(
        &self,
        bytes: &[u8],
        mut decode: impl FnMut(usize, usize, u64) -> Option<EwahBitmap>,
    ) -> Result<Vec<EwahBitmap>> {
        let mut postings = Vec::with_capacity(self.n_postings.min(PREALLOC_CAP));
        for i in 0..self.n_postings {
            let at = self.postdir_off + i * POSTDIR_ENTRY;
            let word = |k: usize| {
                u64::from_le_bytes(bytes[at + 8 * k..at + 8 * k + 8].try_into().expect("8 bytes"))
            };
            let (off, len, card) = (word(0), word(1), word(2));
            let end = off.checked_add(len).ok_or_else(|| corrupt("posting slot overflow"))?;
            if off < self.slots_off as u64 || end > self.store_off as u64 {
                return Err(corrupt("posting slot outside the slots region"));
            }
            let posting = decode(off as usize, len as usize, card)
                .ok_or_else(|| corrupt("malformed posting slot"))?;
            postings.push(posting);
        }
        Ok(postings)
    }
}

/// The decoded meta region — everything but postings and the maintenance
/// store.
struct MetaParts {
    cube: SegregationCube,
    n_items: usize,
    n_transactions: u32,
    v_units: u32,
    unit_of: Vec<u32>,
}

/// Decode the meta region (exactly; trailing bytes are an error).
fn decode_meta(bytes: &[u8]) -> Result<MetaParts> {
    let mut r = Reader { bytes, pos: 0 };

    // Build configuration.
    let materialize = match r.u8()? {
        0 => Materialize::AllFrequent,
        1 => Materialize::ClosedOnly,
        t => return Err(corrupt(&format!("unknown materialization tag {t}"))),
    };
    let atkinson_b = f64::from_bits(r.u64()?);
    if !atkinson_b.is_finite() {
        return Err(corrupt("non-finite Atkinson parameter"));
    }
    let bits = r.u8()?;
    let measures = MeasureSet::from_bits(bits)
        .ok_or_else(|| corrupt(&format!("invalid measure-set byte {bits:#04x}")))?;

    // Labels.
    let n_items = r.u32()? as usize;
    let mut items = Vec::with_capacity(n_items.min(PREALLOC_CAP));
    for _ in 0..n_items {
        let attr = r.str()?;
        let value = r.str()?;
        let is_sa = r.u8()? != 0;
        items.push((attr, value, is_sa));
    }
    let labels = CubeLabels {
        items,
        sa_attrs: r.str_list()?,
        ca_attrs: r.str_list()?,
        unit_names: r.str_list()?,
    };

    // Cube metadata and cells. The unit count is stored beside the
    // unit-name list it must agree with.
    let n_units = r.u32()?;
    if n_units as usize != labels.unit_names.len() {
        return Err(corrupt(&format!(
            "n_units {n_units} disagrees with {} unit names",
            labels.unit_names.len()
        )));
    }
    let min_support = r.u64()?;
    // The builder refuses 0, so no valid file carries it; an update on such
    // a cube would commit its cells before the miner rejected the support.
    if min_support == 0 {
        return Err(corrupt("min_support 0 (a cube is built with at least 1)"));
    }
    let n_cells = r.u32()? as usize;
    let mut cells: FxHashMap<CellCoords, IndexValues> =
        scube_common::hash::fx_map_with_capacity(n_cells.min(PREALLOC_CAP));
    let selected: Vec<SegIndex> = measures.iter().collect();
    for _ in 0..n_cells {
        let sa = r.ids(n_items)?;
        let ca = r.ids(n_items)?;
        let mut values = IndexValues::default();
        for &index in &selected {
            values.set(index, r.f64_opt()?);
        }
        values.minority = r.u64()?;
        values.total = r.u64()?;
        values.num_units = r.u32()?;
        if cells.insert(CellCoords { sa, ca }, values).is_some() {
            return Err(corrupt("duplicate cell coordinates"));
        }
    }
    let config =
        CubeConfig { min_support, materialize, atkinson_b, measures, ..Default::default() };
    let cube = SegregationCube::new(cells, labels, &config, Default::default());

    // Transaction space and tid → unit map.
    let n_transactions = r.u32()?;
    let v_units = r.u32()?;
    let mut unit_of = Vec::with_capacity((n_transactions as usize).min(PREALLOC_CAP));
    for _ in 0..n_transactions {
        unit_of.push(r.u32()?);
    }
    if r.pos != r.bytes.len() {
        return Err(corrupt("trailing bytes in the meta region"));
    }
    Ok(MetaParts { cube, n_items, n_transactions, v_units, unit_of })
}

/// Exact length of the store region [`encode_store`] writes.
fn store_len(store: &MaintenanceStore) -> usize {
    if let Some(region) = &store.unscanned {
        return region.len();
    }
    let ids = |n: usize| 4 + 4 * n;
    let contexts: usize = store.contexts.iter().map(|(ca, e)| ids(ca.len()) + e.len()).sum();
    let minorities: usize =
        store.minorities.iter().map(|(c, e)| ids(c.sa.len()) + ids(c.ca.len()) + e.len()).sum();
    4 + contexts + 4 + minorities
}

/// Write the maintenance store: context totals then cell minorities, in
/// canonical key order so serialization stays path-independent — an
/// updated snapshot and a rebuilt one produce identical bytes. An entry is
/// copied as it stands, whether it is owned or still a slice of a mapped
/// file (it came from this writer, so its bytes *are* the canonical
/// encoding); a region no update has scanned is copied whole.
fn encode_store(store: &MaintenanceStore, w: &mut impl Write) -> std::io::Result<()> {
    if let Some(region) = &store.unscanned {
        debug_assert!(store.contexts.is_empty() && store.minorities.is_empty());
        return w.write_all(region.as_slice());
    }
    let mut key = Vec::new();
    let mut contexts: Vec<(&Vec<ItemId>, &Store<u8>)> = store.contexts.iter().collect();
    contexts.sort_unstable_by_key(|&(ca, _)| ca);
    w.write_all(&(contexts.len() as u32).to_le_bytes())?;
    for (ca, entry) in contexts {
        key.clear();
        put_ids(&mut key, ca);
        w.write_all(&key)?;
        w.write_all(entry)?;
    }
    let mut minorities: Vec<(&CellCoords, &Store<u8>)> = store.minorities.iter().collect();
    minorities.sort_unstable_by_key(|&(coords, _)| coords);
    w.write_all(&(minorities.len() as u32).to_le_bytes())?;
    for (coords, entry) in minorities {
        key.clear();
        put_ids(&mut key, &coords.sa);
        put_ids(&mut key, &coords.ca);
        w.write_all(&key)?;
        w.write_all(entry)?;
    }
    Ok(())
}

/// Whose histogram a store record holds.
enum StoreKey {
    Context(Vec<ItemId>),
    Minority(CellCoords),
}

/// The one walk over a store region: every key parsed and validated,
/// every entry bounds-checked and stepped over by its header, `visit`
/// handed the key and the entry's byte range within `bytes`. O(keys);
/// what an entry holds is the visitor's business ([`histogram::decode`]).
fn scan_store(
    bytes: &[u8],
    n_items: usize,
    mut visit: impl FnMut(StoreKey, Range<usize>) -> Result<()>,
) -> Result<()> {
    let mut r = Reader { bytes, pos: 0 };
    let n_contexts = r.u32()? as usize;
    for _ in 0..n_contexts {
        let key = r.ids(n_items)?;
        visit(StoreKey::Context(key), r.entry()?)?;
    }
    let n_minorities = r.u32()? as usize;
    for _ in 0..n_minorities {
        let sa = r.ids(n_items)?;
        let ca = r.ids(n_items)?;
        visit(StoreKey::Minority(CellCoords { sa, ca }), r.entry()?)?;
    }
    if r.pos != r.bytes.len() {
        return Err(corrupt("trailing bytes after the maintenance store"));
    }
    Ok(())
}

/// File a store region's entries under their keys, each held as `hold`
/// makes of its byte range (an owned copy for heap loads, a slice of the
/// mapping for mapped ones). Duplicate keys are errors.
fn read_store(
    bytes: &[u8],
    n_items: usize,
    hold: impl Fn(Range<usize>) -> Store<u8>,
) -> Result<MaintenanceStore> {
    let mut store = MaintenanceStore::default();
    scan_store(bytes, n_items, |key, entry| {
        let fresh = match key {
            StoreKey::Context(ca) => store.contexts.insert(ca, hold(entry)).is_none(),
            StoreKey::Minority(coords) => store.minorities.insert(coords, hold(entry)).is_none(),
        };
        if fresh {
            Ok(())
        } else {
            Err(corrupt("duplicate maintenance-store key"))
        }
    })?;
    Ok(store)
}

fn corrupt(msg: &str) -> ScubeError {
    ScubeError::Inconsistent(format!("snapshot: {msg}"))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_str_list(out: &mut Vec<u8>, list: &[String]) {
    put_u32(out, list.len() as u32);
    for s in list {
        put_str(out, s);
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[ItemId]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u32(out, id);
    }
}

fn put_f64_opt(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| corrupt("length overflow"))?;
        let s = self.bytes.get(self.pos..end).ok_or_else(|| corrupt("unexpected end of data"))?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    fn str_list(&mut self) -> Result<Vec<String>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }

    /// A sorted id list whose entries must reference known items.
    fn ids(&mut self, n_items: usize) -> Result<Vec<ItemId>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        let mut prev: Option<ItemId> = None;
        for _ in 0..n {
            let id = self.u32()?;
            if id as usize >= n_items {
                return Err(corrupt("cell coordinate references an unknown item"));
            }
            if prev.is_some_and(|p| id <= p) {
                return Err(corrupt("cell coordinates not strictly increasing"));
            }
            prev = Some(id);
            out.push(id);
        }
        Ok(out)
    }

    /// Step over the histogram entry at the cursor, returning its byte
    /// range within the reader's buffer.
    fn entry(&mut self) -> Result<Range<usize>> {
        let start = self.pos;
        self.pos += histogram::entry_len(&self.bytes[start..])?;
        Ok(start..self.pos)
    }

    fn f64_opt(&mut self) -> Result<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f64::from_bits(self.u64()?))),
            _ => Err(corrupt("bad optional-value tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scube_data::{Attribute, Schema, TransactionDbBuilder};
    use scube_segindex::DEFAULT_ATKINSON_B;

    type Row = (&'static str, &'static str, &'static str, &'static str);

    const ROWS: [Row; 8] = [
        ("F", "young", "north", "u0"),
        ("F", "young", "north", "u0"),
        ("M", "old", "north", "u0"),
        ("F", "old", "south", "u1"),
        ("M", "young", "south", "u1"),
        ("M", "old", "south", "u1"),
        ("F", "young", "south", "u0"),
        ("M", "young", "north", "u1"),
    ];

    fn db_of(rows: &[Row]) -> TransactionDb {
        let schema =
            Schema::new(vec![Attribute::sa("sex"), Attribute::sa("age"), Attribute::ca("region")])
                .unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        for (s, a, r, u) in rows {
            b.add_row(&[vec![*s], vec![*a], vec![*r]], u).unwrap();
        }
        b.finish()
    }

    fn db() -> TransactionDb {
        db_of(&ROWS)
    }

    /// Build under `measures`, serialize, load, and re-serialize.
    fn roundtrip(measures: MeasureSet) {
        let builder = CubeBuilder::new().materialize(Materialize::ClosedOnly).measures(measures);
        let snap = CubeSnapshot::from_db(&db(), &builder).unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[8..12], &VERSION.to_le_bytes());
        assert_eq!(bytes[META_OFF + 9], measures.bits(), "the measure byte names the set");
        let loaded = CubeSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.measures(), measures);
        assert_eq!(loaded.cube(), snap.cube());
        assert_eq!(loaded.vertical().units(), snap.vertical().units());
        assert_eq!(loaded.vertical().postings(), snap.vertical().postings());
        // Canonical: saving the loaded snapshot reproduces the same bytes.
        assert_eq!(loaded.to_bytes(), bytes);
        // Unselected measures are absent in every cell.
        for (_, v) in loaded.cube().cells() {
            for index in SegIndex::ALL.into_iter().filter(|&i| !measures.contains(i)) {
                assert_eq!(v.get(index), None);
            }
        }
    }

    #[test]
    fn roundtrip_full_suite() {
        roundtrip(MeasureSet::FULL);
    }

    #[test]
    fn checksum_stream_matches_checksum_over_any_split() {
        // Bytes and split lengths (0–19, so most boundaries fall inside a
        // word) from a fixed LCG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for len in (0..64).chain([1_000, 4_099]) {
            let bytes: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
            for _ in 0..8 {
                let mut stream = ChecksumStream::default();
                let mut at = 0;
                while at < bytes.len() {
                    let end = (at + next(20) as usize).min(bytes.len());
                    stream.feed(&bytes[at..end]);
                    at = end;
                }
                assert_eq!(stream.finish(), checksum(&[&bytes]), "{len} bytes");
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let db = db();
        let snap = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let path = std::env::temp_dir().join("scube_snapshot_file_roundtrip.scube");
        snap.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), snap.to_bytes(), "save streams to_bytes");
        let loaded = CubeSnapshot::load(&path).unwrap();
        assert_eq!(loaded.cube(), snap.cube());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_update_reencodes_only_dirty_store_entries() {
        let snap = CubeSnapshot::from_db(&db(), &CubeBuilder::new()).unwrap();
        let path =
            std::env::temp_dir().join(format!("scube_mapped_store_{}.scube", std::process::id()));
        snap.save(&path).unwrap();
        let file = std::fs::read(&path).unwrap();

        // Open is O(metadata): the store region is attached, not scanned —
        // and queries, materialized or explored, leave it that way.
        let mut mapped = CubeSnapshot::open_mmap(&path).unwrap();
        let untouched = |store: &MaintenanceStore| {
            store.unscanned.is_some() && store.contexts.is_empty() && store.minorities.is_empty()
        };
        assert!(untouched(&mapped.cube.store), "not even the key scan runs at open");
        let engine = crate::serve::ConcurrentCubeEngine::new(mapped.clone());
        engine.query_by_names(&[("sex", "F")], &[("region", "north")]).unwrap();
        engine.query_by_names(&[("sex", "F"), ("age", "old")], &[("region", "north")]).unwrap();
        engine.top_k(SegIndex::Dissimilarity, 3, 1);
        assert!(untouched(&engine.snapshot().cube.store), "queries never touch the store");
        assert_eq!(mapped.to_bytes(), file, "an unscanned region re-saves verbatim");

        // One appended row in the north: `⋆` and north contexts are dirty,
        // south ones are not. Of a dirty context's cells, only those whose
        // run table came out with other bytes (a unit of theirs moved, or
        // their context's distinct totals did) are re-encoded; the others
        // keep their mapped entries.
        let before = CubeSnapshot::from_bytes(&file).unwrap();
        let mut batch = UpdateBatch::new();
        batch.add_row(&[("sex", "F"), ("age", "young"), ("region", "north")], "u0");
        mapped.apply_update(&batch).unwrap();
        let store = &mapped.cube.store;
        assert!(store.unscanned.is_none(), "the first update scanned the region");
        let south = mapped.cube().labels().find_item("region", "south").unwrap();
        let (mut clean, mut dirty, mut kept, mut moved) = (0, 0, 0, 0);
        for (ca, entry) in &store.contexts {
            let is_clean = ca.contains(&south);
            assert_eq!(entry.is_mapped(), is_clean, "context {ca:?}: only dirtied entries move");
            *(if is_clean { &mut clean } else { &mut dirty }) += 1;
        }
        for (coords, entry) in &store.minorities {
            let same = **entry == *before.cube.store.minorities[coords];
            assert_eq!(entry.is_mapped(), same, "cell {coords:?}: only changed entries re-encode");
            kept += usize::from(same && !coords.ca.contains(&south));
            moved += usize::from(!same);
        }
        assert!(clean > 0 && dirty > 0, "{clean} clean, {dirty} dirty contexts");
        assert!(kept > 0 && moved > 0, "{kept} dirty-context cells kept, {moved} re-encoded");

        // Mapped slices copied out verbatim beside re-encoded entries are
        // still canonical: byte-identical to a rebuild on the edited rows.
        let mut edited = ROWS.to_vec();
        edited.push(("F", "young", "north", "u0"));
        let rebuilt = CubeSnapshot::from_db(&db_of(&edited), &CubeBuilder::new()).unwrap();
        assert_eq!(mapped.to_bytes(), rebuilt.to_bytes(), "mixed store serializes canonically");
        assert_eq!(mapped.cube(), rebuilt.cube());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subset_measure_roundtrip() {
        roundtrip(MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation));
    }

    #[test]
    fn bad_measure_byte_and_bad_optional_tag_error() {
        // Measure byte 0 (empty) and 0x40/0xFF (unknown bits) are invalid.
        for bits in [0u8, 0x40, 0xFF] {
            let mut meta = Vec::new();
            meta.push(0);
            put_u64(&mut meta, DEFAULT_ATKINSON_B.to_bits());
            meta.push(bits);
            let err = decode_meta(&meta).map(|_| ()).unwrap_err();
            assert!(err.to_string().contains("measure-set byte"), "{bits:#04x}: {err}");
        }
        // An optional value's tag is 0 or 1, nothing else.
        let mut r = Reader { bytes: &[2u8, 0, 0, 0, 0, 0, 0, 0, 0], pos: 0 };
        assert!(r.f64_opt().is_err(), "bad optional tag");
    }

    #[test]
    fn rejects_wrong_magic_version_tag() {
        let db = db();
        let snap = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let good = snap.to_bytes();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(CubeSnapshot::from_bytes(&bad).is_err(), "magic");

        let mut bad = good.clone();
        bad[8] = 99;
        let err = CubeSnapshot::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Header byte 12 names the posting representation; anything but
        // EWAH's tag is an error (the checksums do not cover the header, so
        // the tag check is what fires).
        let mut bad = good.clone();
        bad[12] = EwahBitmap::SERIAL_TAG + 1;
        let err = CubeSnapshot::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("representation tag 2"), "{err}");
    }

    #[test]
    fn rejects_corruption_and_truncation() {
        let db = db();
        let snap = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let good = snap.to_bytes();

        // Flip one payload byte: the checksum must catch it.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(CubeSnapshot::from_bytes(&bad).is_err(), "bit flip");

        // Truncations anywhere must error, never panic.
        for cut in [0, 5, HEADER_LEN, HEADER_LEN + 3, good.len() / 2, good.len() - 1] {
            assert!(CubeSnapshot::from_bytes(&good[..cut]).is_err(), "truncate at {cut}");
        }
    }

    #[test]
    fn crafted_huge_lengths_error_instead_of_allocating() {
        // A valid build-configuration block followed by length fields that
        // promise billions of elements: decoding must return an error (end
        // of data), not attempt the allocation.
        for payload in [
            u32::MAX.to_le_bytes().to_vec(), // n_items = 4 billion
            {
                // Empty labels/cells, then n_transactions = 4 billion.
                let mut p = Vec::new();
                put_u32(&mut p, 0); // items
                put_u32(&mut p, 0); // sa_attrs
                put_u32(&mut p, 0); // ca_attrs
                put_u32(&mut p, 0); // unit_names
                put_u32(&mut p, 0); // n_units
                put_u64(&mut p, 1); // min_support
                put_u32(&mut p, 0); // cells
                put_u32(&mut p, u32::MAX); // n_transactions
                p
            },
        ] {
            let mut meta = vec![0]; // AllFrequent
            put_u64(&mut meta, DEFAULT_ATKINSON_B.to_bits());
            meta.push(MeasureSet::FULL.bits());
            meta.extend_from_slice(&payload);
            let err = decode_meta(&meta).map(|_| ()).unwrap_err();
            assert!(err.to_string().contains("end of data"), "{err}");
        }
    }

    #[test]
    fn crafted_directory_errors_instead_of_allocating() {
        // A well-formed header whose directory promises 2^60 postings:
        // parsing must reject the directory (regions cannot tile the
        // file), not attempt the allocation.
        let mut bytes = vec![0u8; META_OFF];
        bytes[..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&VERSION.to_le_bytes());
        bytes[12] = EwahBitmap::SERIAL_TAG;
        let dir: [u64; DIR_WORDS] = [META_OFF as u64, 0, META_OFF as u64, 1 << 60, 0, 0, 0, 0, 0];
        for (i, w) in dir.iter().enumerate() {
            bytes[DIR_OFF + 8 * i..DIR_OFF + 8 * i + 8].copy_from_slice(&w.to_le_bytes());
        }
        let sum = checksum(&[&bytes[DIR_OFF..]]);
        bytes[13..21].copy_from_slice(&sum.to_le_bytes());
        let err = CubeSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("directory"), "{err}");
    }

    #[test]
    fn layout_directory_is_consistent() {
        let db = db();
        let snap = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[8..12], &VERSION.to_le_bytes());
        assert_eq!(bytes[META_OFF + 9], MeasureSet::FULL.bits(), "measure byte");
        let word = |i: usize| {
            u64::from_le_bytes(bytes[DIR_OFF + 8 * i..DIR_OFF + 8 * i + 8].try_into().unwrap())
        };
        assert_eq!(word(0), META_OFF as u64, "meta_off");
        assert_eq!(word(2), META_OFF as u64 + word(1), "postdir_off");
        assert_eq!(word(3), snap.vertical().num_items() as u64, "n_postings");
        assert_eq!(word(4) % 8, 0, "slots 8-aligned");
        assert_eq!(word(6), word(4) + word(5), "store_off");
        assert_eq!(word(6) + word(7), bytes.len() as u64, "regions span the file");
        // Every posting slot sits 8-aligned inside the slots region.
        let postdir = word(2) as usize;
        for i in 0..word(3) as usize {
            let at = postdir + i * POSTDIR_ENTRY;
            let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            assert_eq!(off % 8, 0, "slot {i} aligned");
            assert!(off >= word(4) && off + len <= word(6), "slot {i} in bounds");
        }
    }

    #[test]
    fn save_is_atomic_over_existing_snapshot() {
        // Make the save fail *after* the target exists (target becomes a
        // directory → rename fails): the original bytes must be untouched
        // and no temp file may linger.
        let db = db();
        let snap = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let dir = std::env::temp_dir().join("scube_snapshot_atomic_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.scube");
        snap.save(&path).unwrap();
        let original = std::fs::read(&path).unwrap();
        // A save onto a path whose parent vanished fails cleanly.
        let gone = dir.join("nope").join("snap.scube");
        assert!(snap.save(&gone).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), original, "target untouched");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files cleaned up: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_parts_rejected() {
        let db = db();
        let vertical = VerticalDb::build(&db);
        let cube = CubeBuilder::new().build(&db).unwrap();
        // A vertical database over different data (one fewer unit).
        let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        b.add_row(&[vec!["F"], vec!["north"]], "solo").unwrap();
        let other = VerticalDb::build(&b.finish());
        assert!(CubeBuilder::new().build_from_vertical(&db, &other).is_err());
        assert!(CubeSnapshot::new(cube.clone(), other).is_err());
        assert!(CubeSnapshot::new(cube, vertical).is_ok());

        // A hand pairing carries the cube's own build parameters: it saves
        // the bytes `from_db` saves and updates to the cube it updates to.
        let builder = CubeBuilder::new()
            .materialize(Materialize::ClosedOnly)
            .atkinson_b(0.25)
            .measures(MeasureSet::only(SegIndex::Gini).with(SegIndex::Atkinson));
        let cube = builder.build(&db).unwrap();
        let mut paired = CubeSnapshot::new(cube, VerticalDb::build(&db)).unwrap();
        let mut reference = CubeSnapshot::from_db(&db, &builder).unwrap();
        assert_eq!(paired.to_bytes(), reference.to_bytes(), "paired by hand");
        let mut batch = UpdateBatch::new();
        batch.add_row(&[("sex", "F"), ("age", "old"), ("region", "north")], "u0");
        paired.apply_update(&batch).unwrap();
        reference.apply_update(&batch).unwrap();
        assert_eq!(paired.cube(), reference.cube(), "after one appended row");
        let mut edited = ROWS.to_vec();
        edited.push(("F", "old", "north", "u0"));
        let rebuilt = CubeSnapshot::from_db(&db_of(&edited), &builder).unwrap();
        assert_eq!(paired.to_bytes(), rebuilt.to_bytes(), "updated ≡ rebuilt");
    }
}
