//! The model-based equivalence test: one oracle for every path a cube
//! takes — build (resident, chunked, parallel), save and open (heap,
//! mapped, verified mapped), serve (`ConcurrentCubeEngine`, cold and
//! warm, batched and striped), update (appends, four retraction shapes,
//! mixed churn, refused batches) and the served update's round trip
//! through `engine.snapshot()`.
//!
//! A case draws a table and 4–8 operations and applies them in order to
//! one system under test, a [`CubeSnapshot`]. The model is only the
//! current row list. After every operation the system must equal an
//! oracle computed from that list alone:
//!
//! * **values** — every cell's selected measures equal, by `to_bits`, the
//!   fold of the cell's per-unit histogram reassembled from the raw
//!   transactions (no cube code involved); unselected measures are `None`;
//! * **cells** — the coordinate set is the apex plus the itemsets of the
//!   brute-force miner ([`scube_fpm::naive`]), split by attribute role;
//! * **bytes** — `to_bytes()` equals a from-scratch
//!   `CubeSnapshot::from_db` on the encoded rows.
//!
//! A failure prints the case number (proptest's runner) and, through
//! [`Trace`], the table parameters and the op list; written into a
//! `run(&params, &ops)` call in a `#[test]`, they replay that one case.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use scube::prelude::*;
use scube_cube::{CubeConfig, DEFAULT_CACHE_CAPACITY};
use scube_data::TransactionDb;
use scube_datagen::BoardsConfig;
use scube_fpm::{naive, FrequentItemset};

/// Where a case's rows come from: a datagen board registry's final table
/// (units by sector, minimum support rows / 50), or a tiny table with a
/// multi-valued context attribute, one `(sex, region, sector bitmask,
/// unit)` tuple per row (minimum support 1).
#[derive(Debug, Clone)]
enum Table {
    Boards { companies: usize, bias: f64, seed: u64 },
    Tiny { rows: Vec<(u8, u8, u8, u8)> },
}

/// A case's table and build configuration.
#[derive(Debug, Clone)]
struct Params {
    table: Table,
    /// Percent of the rows kept back from the initial build: the first
    /// appends. Minimum support stays a fraction of the whole table.
    held_out: usize,
    closed: bool,
    /// `MeasureSet` bits, 1..=63.
    measures: u8,
    atkinson_b: f64,
}

/// `Chunked(k)` streams chunks of `k` rows, `k = 0` standing for
/// `rows + 1` (one flush, at `finish`), and pairs the cube with its
/// postings through `CubeSnapshot::new` alone — the cube's own build
/// parameters are all the pairing has; `Parallel(n)` mines and folds on
/// `n` threads.
#[derive(Debug, Clone, Copy)]
enum Build {
    Resident,
    Chunked(usize),
    Parallel(usize),
}

#[derive(Debug, Clone, Copy)]
enum Open {
    Load,
    Mmap,
    MmapVerified,
}

/// Which rows a retraction takes: the last `rows / every` by tid, every
/// `every`-th from tid 0 by tid, every `every`-th from tid 1 by row
/// match, or every row of the first row's unit by tid (units renumber and
/// dictionary entries may go).
#[derive(Debug, Clone, Copy)]
enum Shape {
    Suffix,
    EveryKth,
    ByRow,
    FirstUnit,
}

#[derive(Debug, Clone, Copy)]
enum Reject {
    TidOutOfRange,
    DuplicateTid,
    AbsentValue,
    UnmatchedRow,
}

/// One operation. `threads` runs an update, or a serve's two passes;
/// `tail` pool rows ride along in a retraction's or a refused batch. A
/// serve's `capacity: None` is the default cache capacity, and
/// `batch_cold` sends the cold pass through `query_batch` and the warm
/// one through striped `&self` threads (or the other way round).
#[derive(Debug, Clone, Copy)]
enum Op {
    Build(Build),
    SaveOpen(Open),
    Serve { shards: usize, capacity: Option<usize>, threads: usize, batch_cold: bool },
    Append { rows: usize, threads: usize },
    Retract { shape: Shape, every: usize, tail: usize, threads: usize },
    Reject { case: Reject, tail: usize, threads: usize },
    EngineRoundTrip,
}

/// One drawn op: kind, variant, a size in 1..=8, a thread count in 1..=6
/// and a flag.
fn decode((kind, variant, n, threads, flag): (u8, u8, usize, usize, bool)) -> Op {
    let (v, tail) = (variant as usize, if flag { n } else { 0 });
    match kind {
        0 => Op::Build(
            [Build::Resident, Build::Chunked([1, 7, 0][n % 3]), Build::Parallel(2 + n % 7)][v % 3],
        ),
        1 => Op::SaveOpen([Open::Load, Open::Mmap, Open::MmapVerified][v % 3]),
        2 => {
            let (shards, capacity) = ([1, 4, 16][n % 3], [Some(0), Some(2), None][v % 3]);
            Op::Serve { shards, capacity, threads, batch_cold: flag }
        }
        3 => Op::Append { rows: n, threads },
        4 => {
            let shape = [Shape::Suffix, Shape::EveryKth, Shape::ByRow, Shape::FirstUnit][v];
            Op::Retract { shape, every: 2 + n % 5, tail, threads }
        }
        5 => {
            use Reject::*;
            let case = [TidOutOfRange, DuplicateTid, AbsentValue, UnmatchedRow][v];
            Op::Reject { case, tail, threads }
        }
        _ => Op::EngineRoundTrip,
    }
}

/// 4–8 ops, the first of which builds the initial state.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..7, 0u8..4, 1usize..=8, 1usize..=6, any::<bool>());
    proptest::collection::vec(op, 4..=8).prop_map(|mut raw| {
        raw[0].0 = 0;
        raw.into_iter().map(decode).collect()
    })
}

/// A datagen table: 100–160 companies, sector bias 0, 0.5 or 1.
fn boards() -> impl Strategy<Value = Table> {
    (100usize..=160, 0usize..3, any::<u64>()).prop_map(|(companies, bias, seed)| Table::Boards {
        companies,
        bias: [0.0, 0.5, 1.0][bias],
        seed,
    })
}

/// Measure-set bits and Atkinson parameter.
fn measures() -> impl Strategy<Value = (u8, f64)> {
    (1u8..=63, any::<bool>()).prop_map(|(bits, quarter)| {
        (bits, if quarter { 0.25 } else { scube_segindex::DEFAULT_ATKINSON_B })
    })
}

/// An `IndexValues` as comparable bits: counts, then each measure.
type Bits = (u64, u64, u32, [Option<u64>; 6]);

fn bits(v: &IndexValues) -> Bits {
    (v.minority, v.total, v.num_units, SegIndex::ALL.map(|i| v.get(i).map(f64::to_bits)))
}

/// A cell's values folded from its per-unit histogram, reassembled
/// straight from the raw transactions: a transaction is in the context iff
/// it carries every CA item, and in the minority iff it also carries
/// every SA item. No cube code is involved.
fn reference(db: &TransactionDb, coords: &CellCoords, cfg: &CubeConfig) -> Bits {
    let mut totals = vec![0u64; db.num_units()];
    let mut minorities = vec![0u64; db.num_units()];
    for (items, unit) in db.iter() {
        let carries = |ids: &[u32]| ids.iter().all(|id| items.binary_search(id).is_ok());
        if carries(&coords.ca) {
            totals[unit as usize] += 1;
            minorities[unit as usize] += u64::from(carries(&coords.sa));
        }
    }
    let counts = UnitCounts::from_triples(
        (0..totals.len()).filter(|&u| totals[u] > 0).map(|u| (u as u32, minorities[u], totals[u])),
    )
    .expect("raw transactions form a valid histogram");
    let mut v = IndexValues::default();
    (v.minority, v.total, v.num_units) =
        (counts.minority(), counts.total(), counts.num_units() as u32);
    for index in cfg.measures.iter() {
        let value = match index {
            SegIndex::Atkinson => scube_segindex::atkinson(&counts, cfg.atkinson_b),
            _ => index.compute(&counts),
        };
        v.set(index, value);
    }
    bits(&v)
}

/// Itemsets as cell coordinates split by attribute role, plus the apex,
/// sorted.
fn coordinates<'a>(
    db: &TransactionDb,
    sets: impl Iterator<Item = &'a FrequentItemset>,
) -> Vec<CellCoords> {
    let split = sets.map(|set| CellCoords::split_sorted(&set.items, |it| db.is_sa_item(it)));
    let mut cells: Vec<CellCoords> = split.chain([CellCoords::apex()]).collect();
    cells.sort();
    cells
}

/// Everything the oracle derives from one row list.
struct Oracle {
    db: TransactionDb,
    bytes: Vec<u8>,
    /// The materialized coordinate set, sorted.
    cells: Vec<CellCoords>,
    /// The `AllFrequent` universe, sorted.
    universe: Vec<CellCoords>,
    /// Reference values of the materialized cells.
    values: HashMap<CellCoords, Bits>,
}

impl Oracle {
    fn new(db: TransactionDb, builder: &CubeBuilder) -> Oracle {
        let cfg = builder.config();
        let bytes = CubeSnapshot::from_db(&db, builder).expect("the rebuild succeeds").to_bytes();
        let all = naive::mine(&db, cfg.min_support).expect("naive mining succeeds");
        let cells = match cfg.materialize {
            Materialize::AllFrequent => coordinates(&db, all.iter()),
            // `naive::mine_closed`'s definition, over the sets already
            // mined: no strict superset has the same support.
            Materialize::ClosedOnly => coordinates(
                &db,
                all.iter().filter(|s| {
                    !all.iter()
                        .any(|t| t.support == s.support && t.len() > s.len() && s.is_subset_of(t))
                }),
            ),
        };
        let values = cells.iter().map(|c| (c.clone(), reference(&db, c, cfg))).collect();
        Oracle { universe: coordinates(&db, all.iter()), db, bytes, cells, values }
    }
}

/// Prints the failing case's parameters and ops while a failure unwinds.
struct Trace(String);

impl Drop for Trace {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case:\n{}", self.0);
        }
    }
}

/// A case's spec, full table and minimum support.
fn generate(table: &Table) -> (FinalTableSpec, Relation, u64) {
    match table {
        Table::Boards { companies, bias, seed } => {
            let config = BoardsConfig::italy(*companies).sector_bias(*bias).seed(*seed);
            let dataset = scube_datagen::generate(config).to_dataset(vec![]).expect("valid");
            let units = UnitStrategy::GroupAttribute("sector".into());
            let db = scube::build_final_table(&dataset, &units, 1).expect("pipeline runs").db;
            let spec = FinalTableSpec::from_schema(db.schema(), "unitID");
            (spec, scube::final_table_relation(&db), (db.len() as u64 / 50).max(1))
        }
        Table::Tiny { rows } => {
            let spec = FinalTableSpec::new("unit").sa("sex").ca("region").ca_multi("sector");
            let columns = ["sex", "region", "sector", "unit"].map(String::from).to_vec();
            let mut rel = Relation::new(columns).expect("columns are valid");
            for &(sex, region, sectors, unit) in rows {
                let sectors: Vec<String> =
                    (0..3).filter(|b| sectors & (1 << b) != 0).map(|b| format!("s{b}")).collect();
                let (sex, region, unit) =
                    (format!("g{sex}"), format!("r{region}"), format!("u{unit}"));
                rel.push_row(vec![sex, region, sectors.join(";"), unit]).expect("row shapes match");
            }
            (spec, rel, 1)
        }
    }
}

/// The model: the current rows, the pool appends draw from (held-out rows
/// first, then retracted ones), and the oracle of the current rows.
struct Model {
    spec: FinalTableSpec,
    columns: Vec<String>,
    builder: CubeBuilder,
    rows: Vec<Vec<String>>,
    pool: VecDeque<Vec<String>>,
    oracle: Option<Oracle>,
    path: PathBuf,
}

impl Model {
    fn new(params: &Params) -> Model {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let (spec, table, min_support) = generate(&params.table);
        let mut rows = table.rows().to_vec();
        let held_out = (rows.len() * params.held_out / 100).min(rows.len() - 1);
        let pool = rows.split_off(rows.len() - held_out).into();
        let materialize =
            if params.closed { Materialize::ClosedOnly } else { Materialize::AllFrequent };
        let builder = CubeBuilder::new()
            .min_support(min_support)
            .materialize(materialize)
            .measures(MeasureSet::from_bits(params.measures).expect("1..=63 is a valid set"))
            .atkinson_b(params.atkinson_b);
        let file = FILES.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("scube_model_{}_{file}", std::process::id()));
        let columns = table.columns().to_vec();
        let mut model = Model { spec, columns, builder, rows, pool, oracle: None, path };
        model.canonicalize();
        model
    }

    /// List each multi-valued cell's values in dictionary order, the form
    /// `final_table_relation` writes. Encoding interns a row's new values
    /// in cell order, so the rows' own encoding fixes this order and
    /// reordering never changes it; and it is the form under which a
    /// relabeling retraction is byte-identical to a rebuild (`UpdateBatch`
    /// docs).
    fn canonicalize(&mut self) {
        let db = self.spec.encode(&self.relation(&self.rows)).expect("rows encode");
        let schema = self.spec.schema().expect("the spec is valid");
        for (a, attr) in schema.attributes().iter().enumerate().filter(|(_, a)| a.multi_valued) {
            let col = self.columns.iter().position(|c| *c == attr.name).expect("a column");
            for row in &mut self.rows {
                let mut values: Vec<&str> = row[col].split(';').collect();
                values.sort_by_key(|v| db.dictionary().get(a as _, v));
                row[col] = values.join(";");
            }
        }
    }

    fn relation(&self, rows: &[Vec<String>]) -> Relation {
        let mut rel = Relation::new(self.columns.clone()).expect("columns are valid");
        for row in rows {
            rel.push_row(row.clone()).expect("row shapes match");
        }
        rel
    }

    /// The oracle of the current rows, computed once per row list.
    fn oracle(&mut self) -> &Oracle {
        if self.oracle.is_none() {
            let db = self.spec.encode(&self.relation(&self.rows)).expect("rows encode");
            self.oracle = Some(Oracle::new(db, &self.builder));
        }
        self.oracle.as_ref().expect("computed above")
    }

    /// Values, then cells, then bytes: the system against the oracle.
    fn check(&mut self, sut: &CubeSnapshot, what: &str) {
        let o = self.oracle();
        for (coords, v) in sut.cube().cells() {
            assert_eq!(Some(&bits(v)), o.values.get(coords), "{what}: values at {coords:?}");
        }
        let mut cells: Vec<CellCoords> = sut.cube().cells().map(|(c, _)| c.clone()).collect();
        cells.sort();
        let (got, want) = (cells.len(), o.cells.len());
        assert!(cells == o.cells, "{what}: {got} cells, the miner finds {want}");
        let bytes = sut.to_bytes();
        let at = bytes.iter().zip(&o.bytes).position(|(a, b)| a != b);
        let (got, want) = (bytes.len(), o.bytes.len());
        assert!(bytes == o.bytes, "{what}: {got} bytes, a rebuild {want}, differing at {at:?}");
    }

    fn build(&self, how: Build) -> CubeSnapshot {
        let rel = self.relation(&self.rows);
        let resident = |builder: &CubeBuilder| {
            let db = self.spec.encode(&rel).expect("rows encode");
            CubeSnapshot::from_db(&db, builder).expect("the resident build succeeds")
        };
        match how {
            Build::Resident => resident(&self.builder),
            Build::Parallel(threads) => resident(&self.builder.parallel(true).threads(threads)),
            Build::Chunked(k) => {
                let k = if k == 0 { rel.len() + 1 } else { k };
                let mut enc = self.spec.chunked_encoder(rel.columns(), k).expect("spec resolves");
                for row in rel.rows() {
                    enc.add_record(row).expect("row encodes");
                }
                let (vertical, meta, stats) = enc.into_builder().finish().expect("ingest ends");
                assert!(stats.peak_chunk_rows <= k, "chunk of {} rows", stats.peak_chunk_rows);
                let cube = self.builder.build_streaming(&meta, &vertical).expect("build succeeds");
                CubeSnapshot::new(cube, vertical).expect("the halves pair")
            }
        }
    }

    /// A batch appending `added`, retracting `tids`, and retracting `rows`
    /// by row match.
    fn batch(
        &self,
        sut: &CubeSnapshot,
        added: &[Vec<String>],
        tids: &[usize],
        rows: &[Vec<String>],
    ) -> UpdateBatch {
        let (labels, unit) = (sut.cube().labels(), &self.spec.unit_column);
        let mut batch = UpdateBatch::from_relation(&self.relation(added), labels, unit)
            .expect("pool rows resolve");
        batch.remove_relation(&self.relation(rows), labels, unit).expect("columns resolve");
        for &t in tids {
            batch.remove_tid(t as u32);
        }
        batch
    }

    /// Apply one op after the first to the system and the model.
    fn apply(&mut self, mut sut: CubeSnapshot, op: Op, what: &str) -> CubeSnapshot {
        let n = self.rows.len();
        match op {
            Op::Build(how) => return self.build(how),
            Op::SaveOpen(open) => {
                sut.save(&self.path).expect("save succeeds");
                let file = std::fs::read(&self.path).expect("the saved file reads");
                assert!(sut.to_bytes() == file, "{what}: the streamed file differs from to_bytes");
                let opened = match open {
                    Open::Load => CubeSnapshot::load(&self.path),
                    Open::Mmap => CubeSnapshot::open_mmap(&self.path),
                    Open::MmapVerified => CubeSnapshot::open_mmap_verified(&self.path),
                }
                .expect("the saved file opens");
                assert!(opened.to_bytes() == file, "{what}: the re-save differs from the file");
                if !matches!(open, Open::Load) {
                    let postings = opened.vertical().postings();
                    let heap: usize = postings.iter().map(|p| p.heap_bytes()).sum();
                    assert_eq!(heap, 0, "{what}: mapped postings live off the heap");
                }
                return opened;
            }
            Op::Serve { .. } => self.serve(&sut, op, what),
            Op::Append { .. } | Op::Retract { .. } => self.update(&mut sut, op, what),
            Op::Reject { case, tail, threads } => {
                let added: Vec<Vec<String>> = self.pool.iter().take(tail).cloned().collect();
                let first = self.rows[0].clone();
                let copies = self.rows.iter().filter(|r| **r == first).count();
                let mut absent = first.clone();
                absent[0] = "absent-value".into();
                let batch = match case {
                    Reject::TidOutOfRange => self.batch(&sut, &added, &[n], &[]),
                    Reject::DuplicateTid => self.batch(&sut, &added, &[0, 0], &[]),
                    Reject::AbsentValue => self.batch(&sut, &added, &[], &[absent]),
                    Reject::UnmatchedRow => self.batch(&sut, &added, &[], &vec![first; copies + 1]),
                };
                let before = sut.to_bytes();
                assert!(sut.apply_update_threads(&batch, threads).is_err(), "{what}: accepted");
                assert!(sut.to_bytes() == before, "{what}: a refused batch changed the snapshot");
            }
            Op::EngineRoundTrip => {
                let engine = ConcurrentCubeEngine::new(sut);
                engine.query_batch(&self.oracle().universe, 2).expect("warming succeeds");
                return engine.snapshot();
            }
        }
        sut
    }

    /// Apply an `Append` or a `Retract` as one batch on its worker count;
    /// a serial apply on a clone must agree.
    fn update(&mut self, sut: &mut CubeSnapshot, op: Op, what: &str) {
        let n = self.rows.len();
        let (shape, every, tail, threads) = match op {
            Op::Append { rows, threads } => (None, 1, rows, threads),
            Op::Retract { shape, every, tail, threads } => (Some(shape), every, tail, threads),
            _ => unreachable!("not an update"),
        };
        let mut removed: Vec<usize> = match shape {
            None => vec![],
            Some(Shape::Suffix) => (n - (n / every).max(1)..n).collect(),
            Some(Shape::EveryKth) => (0..n).step_by(every).collect(),
            // The earliest unclaimed identical row is the one a row-match
            // retraction takes.
            Some(Shape::ByRow) => {
                let mut claimed = vec![false; n];
                for i in (1..n).step_by(every) {
                    let j = (0..n).find(|&j| !claimed[j] && self.rows[j] == self.rows[i]);
                    claimed[j.expect("row i matches itself")] = true;
                }
                (0..n).filter(|&j| claimed[j]).collect()
            }
            Some(Shape::FirstUnit) => {
                let unit = self.rows[0].last();
                (0..n).filter(|&i| self.rows[i].last() == unit).collect()
            }
        };
        if removed.len() == n {
            removed.pop(); // keep the table non-empty
        }
        let added: Vec<Vec<String>> = self.pool.drain(..tail.min(self.pool.len())).collect();
        let batch = if matches!(shape, Some(Shape::ByRow)) {
            let rows: Vec<Vec<String>> = removed.iter().map(|&i| self.rows[i].clone()).collect();
            self.batch(sut, &added, &[], &rows)
        } else {
            self.batch(sut, &added, &removed, &[])
        };
        let serial = sut.clone().apply_update(&batch).expect("the serial update applies");
        let stats = sut.apply_update_threads(&batch, threads).expect("the update applies");
        assert_eq!(stats, serial, "{what}: {threads} workers vs one");
        assert_eq!((stats.rows_added, stats.rows_removed), (added.len(), removed.len()), "{what}");
        let partition = stats.dirty_cells + stats.promoted_cells + stats.clean_cells;
        assert_eq!(partition, sut.cube().len(), "{what}: stats partition the cells");

        for (i, row) in std::mem::take(&mut self.rows).into_iter().enumerate() {
            match removed.binary_search(&i) {
                Ok(_) => self.pool.push_back(row),
                Err(_) => self.rows.push(row),
            }
        }
        self.rows.extend(added);
        self.canonicalize();
        self.oracle = None;
    }

    /// Ask a fresh engine over a clone of the system the `AllFrequent`
    /// universe of the current rows, cold then warm, against the reference
    /// values and the tier counters; then breakdowns and non-frequent
    /// transaction projections against an explorer over the oracle table.
    fn serve(&mut self, sut: &CubeSnapshot, op: Op, what: &str) {
        let Op::Serve { shards, capacity, threads, batch_cold } = op else { unreachable!() };
        let cache = capacity.unwrap_or(DEFAULT_CACHE_CAPACITY);
        let engine = &ConcurrentCubeEngine::with_config(sut.clone(), shards, cache);
        let cfg = *self.builder.config();
        let o = self.oracle();
        let (universe, n) = (&o.universe, o.universe.len() as u64);
        let want: Vec<Bits> = universe
            .iter()
            .map(|c| o.values.get(c).copied().unwrap_or_else(|| reference(&o.db, c, &cfg)))
            .collect();
        let fallback = universe.iter().filter(|c| engine.cube().get(c).is_none()).count() as u64;
        for pass in 0..2u64 {
            if (pass == 0) == batch_cold {
                let answers = engine.query_batch(universe, threads).expect("the batch succeeds");
                for (i, v) in answers.iter().enumerate() {
                    assert_eq!(bits(v), want[i], "{what}: pass {pass} at {:?}", universe[i]);
                }
            } else {
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let want = &want;
                        scope.spawn(move || {
                            for i in (t..universe.len()).step_by(threads) {
                                let v = engine.query(&universe[i]).expect("the query succeeds");
                                let at = &universe[i];
                                assert_eq!(bits(&v), want[i], "{what}: pass {pass} at {at:?}");
                            }
                        });
                    }
                });
            }
            let stats = engine.stats();
            assert_eq!(stats.total(), (pass + 1) * n, "{what}: pass {pass} lost a count");
            if pass == 0 {
                let cold = (stats.materialized, stats.explored);
                assert_eq!(cold, (n - fallback, fallback), "{what}: cold tiers");
            }
        }
        let stats = engine.stats();
        match capacity {
            None => assert_eq!((stats.explored, stats.cached), (fallback, fallback), "{what}"),
            Some(0) => assert_eq!(stats.cached, 0, "{what}: capacity 0 caches nothing"),
            Some(_) => {}
        }

        let mut explorer =
            CubeExplorer::new(&o.db).with_measures(cfg.measures).with_atkinson_b(cfg.atkinson_b);
        for t in (0..o.db.len()).step_by((o.db.len() / 16).max(1)) {
            let row = CellCoords::from_itemset(o.db.transaction(t), &o.db);
            let sa_only = CellCoords::new(row.sa.clone(), vec![]);
            let ca_only = CellCoords::new(vec![], row.ca.clone());
            for c in [sa_only, ca_only, row] {
                let got = engine.query(&c).expect("the projection answers");
                let want = explorer.values_at(&c).expect("the explorer answers");
                assert_eq!(bits(&got), bits(&want), "{what}: projection {c:?}");
                let breakdown = engine.unit_breakdown(&c).expect("the breakdown answers");
                assert_eq!(breakdown, explorer.unit_breakdown(&c), "{what}: breakdown {c:?}");
            }
        }
    }
}

/// Run one case: the opening build, then every other op, each followed
/// by the oracle check.
fn run(params: &Params, ops: &[Op]) {
    let _trace = Trace(format!("params: {params:?}\nops: {ops:?}"));
    let mut model = Model::new(params);
    let Op::Build(first) = ops[0] else { panic!("a case opens with a Build") };
    let mut sut = model.build(first);
    model.check(&sut, "op 0");
    for (i, &op) in ops.iter().enumerate().skip(1) {
        let what = format!("op {i} {op:?}");
        sut = model.apply(sut, op, &what);
        model.check(&sut, &what);
    }
    std::fs::remove_file(&model.path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn all_frequent_datagen_tables_match_the_oracle(
        table in boards(),
        held_out in 0usize..=40,
        (measures, atkinson_b) in measures(),
        ops in ops(),
    ) {
        run(&Params { table, held_out, closed: false, measures, atkinson_b }, &ops);
    }

    #[test]
    fn closed_only_datagen_tables_match_the_oracle(
        table in boards(),
        held_out in 0usize..=40,
        (measures, atkinson_b) in measures(),
        ops in ops(),
    ) {
        run(&Params { table, held_out, closed: true, measures, atkinson_b }, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiny_multi_valued_tables_match_the_oracle(
        rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..8, 0u8..5), 1..=40),
        held_out in 0usize..=25,
        closed in any::<bool>(),
        (measures, atkinson_b) in measures(),
        ops in ops(),
    ) {
        let table = Table::Tiny { rows };
        run(&Params { table, held_out, closed, measures, atkinson_b }, &ops);
    }
}
