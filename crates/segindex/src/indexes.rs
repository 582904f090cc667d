//! The six segregation indexes and the batch evaluator.
//!
//! Every index is a function of the *multiset* of a histogram's
//! `(m_i, t_i)` pairs — of its **run table**, the distinct pairs with their
//! multiplicities — so there is one kernel, `fold`, behind every public
//! entry point. It takes the runs in a canonical order (ascending `m/t`,
//! compared exactly in integers, then ascending `t`) and accumulates all
//! selected measures in a single pass over them. Two producers feed it,
//! and both count pairs exactly (an integer sort of keys with `t` in the
//! high half and `m` in the low one brings equal pairs together, equal
//! neighbours collapse into one run) and share the one canonical sort:
//!
//! * **per unit** — a [`UnitCounts`] histogram, every unit's key sorted
//!   (the standalone index functions and [`IndexValues::compute_masked`]);
//! * **from the context's runs** — [`ContextTotals`] holds a context's
//!   `(t, k)` runs once, and a cube cell brings only its minority run
//!   table (its [`Run`]s with `m ≥ 1`): [`ContextTotals::fold_runs`]
//!   subtracts each minority run's `k` from its context run to leave the
//!   `m = 0` runs. A cell's minority units' keys sort and collapse into
//!   that table ([`ContextTotals::minority_runs`], which
//!   [`ContextTotals::fold`] runs first), or the table is the cube's
//!   stored one, advanced by an update (`A = ⋆` cells fold the context's
//!   runs with `m = t`).
//!
//! Both yield the same multiset in the same order, so they agree to the
//! bit. Two consequences the rest of the workspace relies on:
//!
//! * **Order invariance by construction.** The unit ids never enter the
//!   fold and the pair order is re-derived from the pairs themselves, so
//!   any permutation or renumbering of the units yields the same floats to
//!   the bit — which is why the update path never re-folds a cell whose
//!   histogram did not change.
//! * **Transcendental work is per distinct pair.** With one unit per
//!   company a cell has thousands of units but a few dozen distinct
//!   pairs; the `ln`/`powf` calls run once per run, not once per unit.
//!
//! Each measure owns its accumulator, so selecting a subset never changes
//! the bits of a selected value.

use scube_common::{Result, ScubeError};

use crate::counts::UnitCounts;

/// Default Atkinson shape parameter (the symmetric `b = 0.5` choice used
/// throughout the segregation literature).
pub const DEFAULT_ATKINSON_B: f64 = 0.5;

/// Clamp tiny floating-point excursions back into `[0, 1]`.
fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Binary entropy `−(p ln p + (1−p) ln (1−p))`, with `0·ln 0 = 0`.
fn entropy(p: f64) -> f64 {
    let mut e = 0.0;
    if p > 0.0 {
        e -= p * p.ln();
    }
    if p < 1.0 {
        e -= (1.0 - p) * (1.0 - p).ln();
    }
    e
}

/// `units` units of a histogram sharing one `(minority, total)` pair: one
/// row of a run table. A cell's minority run table — its runs with
/// `minority ≥ 1`, strictly ascending by `(total, minority)` — is what
/// [`ContextTotals::fold_runs`] folds and what a cube stores per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// `m`: the minority of each unit of the run.
    pub minority: u64,
    /// `t`: the population of each unit of the run.
    pub total: u64,
    /// `k`: how many units share the pair.
    pub units: u64,
}

/// Collapse sorted pair keys — `t` in the high half, `m` in the low one,
/// split back by `split` — into runs, appended to `runs` in ascending
/// `(t, m)` order. Sorting the keys as plain integers is the cheapest
/// exact way to bring equal pairs together.
fn collapse_sorted<K: Copy + Eq>(keys: &[K], split: impl Fn(K) -> (u64, u64), runs: &mut Vec<Run>) {
    runs.extend(keys.chunk_by(|a, b| a == b).map(|run| {
        let (total, minority) = split(run[0]);
        Run { minority, total, units: run.len() as u64 }
    }));
}

/// The one canonical order of distinct pairs: ascending `m/t` — compared
/// exactly by cross-multiplication, never through a rounded quotient —
/// then ascending `t`. The order is total on distinct pairs (equal share
/// and equal `t` force equal `m`), so the kernel's input depends on
/// nothing but the multiset, whichever producer built it.
fn canonical_order(runs: &mut [Run]) {
    runs.sort_unstable_by(|a: &Run, b: &Run| {
        let lhs = u128::from(a.minority) * u128::from(b.total);
        let rhs = u128::from(b.minority) * u128::from(a.total);
        lhs.cmp(&rhs).then(a.total.cmp(&b.total))
    });
}

/// The per-unit producer: the distinct `(m, t)` pairs of `c` with their
/// multiplicities, in canonical order. Only the distinct pairs pay for the
/// two-multiplication comparison: with thousands of board-sized units that
/// is tens of runs.
fn canonical_runs(c: &UnitCounts) -> Vec<Run> {
    let mut keys: Vec<u128> =
        c.cells().iter().map(|u| u128::from(u.total) << 64 | u128::from(u.minority)).collect();
    keys.sort_unstable();
    // Counted first so the runs take one allocation of the exact size: at
    // 20 units a growing `Vec` cost more than the fold's arithmetic.
    let mut runs = Vec::with_capacity(keys.chunk_by(|a, b| a == b).count());
    collapse_sorted(&keys, |k| ((k >> 64) as u64, k as u64), &mut runs);
    canonical_order(&mut runs);
    runs
}

/// The one index kernel (see the module docs): every selected measure of
/// a histogram with totals `M`, `T` and `n` units, folded over its
/// distinct `(m, t)` pairs in canonical order. `runs` produces them; it is
/// only called when some selected measure is defined.
///
/// A run of `k` equal pairs enters each sum as one term scaled by exact
/// integer products (`k·m`, `k·t` — both bounded by `T`); for Gini it is
/// one super-unit of weight `k·t`, exact because units with equal shares
/// contribute nothing to `Σ|p_i − p_j|` among themselves.
fn fold(
    minority: u64,
    total: u64,
    num_units: u32,
    runs: impl FnOnce() -> Vec<Run>,
    atkinson_b: f64,
    measures: MeasureSet,
) -> IndexValues {
    let mut out = IndexValues { minority, total, num_units, ..IndexValues::default() };
    // Exposure (`xPx`, `xPy`) is defined for `M > 0`; the four evenness
    // indexes also need `M < T`.
    if minority == 0 {
        return out;
    }
    let evenness = minority < total;
    let d = evenness && measures.contains(SegIndex::Dissimilarity);
    let g = evenness && measures.contains(SegIndex::Gini);
    let h = evenness && measures.contains(SegIndex::Information);
    let xpx = measures.contains(SegIndex::Isolation);
    let xpy = measures.contains(SegIndex::Interaction);
    let a =
        evenness && measures.contains(SegIndex::Atkinson) && atkinson_b > 0.0 && atkinson_b < 1.0;
    // An evenness-only set on an `A = ⋆` cell (`M = T`) defines nothing:
    // skip the sort.
    if !(d || g || h || xpx || xpy || a) {
        return out;
    }

    let m_total = minority as f64;
    let t_total = total as f64;
    let maj_total = (total - minority) as f64;
    let p_total = m_total / t_total;
    let e_total = entropy(p_total);

    let (mut d_sum, mut h_sum, mut xpx_sum, mut xpy_sum, mut a_sum) = (0.0, 0.0, 0.0, 0.0, 0.0);
    // Gini: Σ_{i<j} w_i w_j (p_j − p_i) by prefix sums over ascending p.
    let (mut g_num, mut weight_prefix, mut weighted_p_prefix) = (0.0, 0.0, 0.0);
    for Run { minority: m, total: t, units: k } in runs() {
        let p = m as f64 / t as f64;
        let weight = (k * t) as f64;
        let minority_share = (k * m) as f64 / m_total;
        if d {
            d_sum += (minority_share - (k * (t - m)) as f64 / maj_total).abs();
        }
        if g {
            g_num += weight * (p * weight_prefix - weighted_p_prefix);
            weight_prefix += weight;
            weighted_p_prefix += weight * p;
        }
        if h {
            h_sum += weight * (e_total - entropy(p));
        }
        if xpx {
            xpx_sum += minority_share * p;
        }
        if xpy {
            xpy_sum += minority_share * ((t - m) as f64 / t as f64);
        }
        if a {
            a_sum += (1.0 - p).powf(1.0 - atkinson_b) * p.powf(atkinson_b) * weight;
        }
    }

    out.dissimilarity = d.then(|| clamp01(d_sum / 2.0));
    out.gini = g.then(|| clamp01(g_num / (t_total * t_total * p_total * (1.0 - p_total))));
    out.information = h.then(|| clamp01(h_sum / (t_total * e_total)));
    out.isolation = xpx.then(|| clamp01(xpx_sum));
    out.interaction = xpy.then(|| clamp01(xpy_sum));
    out.atkinson = a.then(|| {
        let inner = (a_sum / (p_total * t_total)).powf(1.0 / (1.0 - atkinson_b));
        clamp01(1.0 - (p_total / (1.0 - p_total)) * inner)
    });
    out
}

/// Fold a per-unit histogram through the kernel.
fn fold_counts(c: &UnitCounts, atkinson_b: f64, measures: MeasureSet) -> IndexValues {
    let runs = || canonical_runs(c);
    fold(c.minority(), c.total(), c.num_units() as u32, runs, atkinson_b, measures)
}

fn too_many_units(t: u64) -> ScubeError {
    ScubeError::Inconsistent(format!("more minority units of total {t} than the context holds"))
}

/// A context's population, held as the run table a cube cell folds from:
/// its ascending `(unit, t)` list, that list's `(t, k)` runs (ascending
/// `t`, `k` units each) and `T`. Built once per context, it folds any cell
/// of the context from the cell's minority units alone — the `m = 0` units
/// are whatever the minority leaves of each `(t, k)` run — so a cell costs
/// its minority units plus the context's runs, never a pass over every
/// context unit.
///
/// ```
/// use scube_segindex::{ContextTotals, IndexValues, MeasureSet, UnitCounts};
///
/// let totals = ContextTotals::new(vec![(0, 10), (3, 10), (7, 20)])?;
/// let cell = totals.fold(&[(3, 8), (7, 5)], 0.5, MeasureSet::FULL)?;
/// let per_unit = UnitCounts::from_triples([(0, 0, 10), (3, 8, 10), (7, 5, 20)])?;
/// assert_eq!(cell, IndexValues::compute_masked(&per_unit, 0.5, MeasureSet::FULL));
/// # Ok::<(), scube_common::ScubeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContextTotals {
    units: Vec<(u32, u64)>,
    runs: Vec<(u64, u64)>,
    total: u64,
}

impl ContextTotals {
    /// The run table of a context given as strictly ascending `(unit, t)`
    /// pairs with every `t > 0` and `T` within the cube's `u32` row space
    /// (so a cell's `(t, m)` key packs into 64 bits); anything else is an
    /// `Err`.
    pub fn new(units: Vec<(u32, u64)>) -> Result<Self> {
        let mut total = 0u64;
        // The sizes are sorted and collapsed in place: one allocation, cut
        // to the run count once it is known.
        let mut runs = Vec::with_capacity(units.len());
        for (i, &(u, t)) in units.iter().enumerate() {
            if t == 0 {
                return Err(ScubeError::Inconsistent(format!("context unit {u} has total 0")));
            }
            if i > 0 && units[i - 1].0 >= u {
                return Err(ScubeError::Inconsistent(format!(
                    "context units not strictly ascending at unit {u}"
                )));
            }
            total = total.saturating_add(t);
            if total > u64::from(u32::MAX) {
                return Err(ScubeError::Inconsistent(
                    "context population exceeds the u32 row space".into(),
                ));
            }
            runs.push((t, 1));
        }
        runs.sort_unstable();
        runs.dedup_by(|next: &mut (u64, u64), run: &mut (u64, u64)| {
            let same = next.0 == run.0;
            run.1 += u64::from(same);
            same
        });
        runs.shrink_to_fit();
        Ok(ContextTotals { units, runs, total })
    }

    /// The ascending `(unit, t)` list.
    pub fn units(&self) -> &[(u32, u64)] {
        &self.units
    }

    /// `T`: the context's population.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The context's distinct totals: `(t, k)`, `k` units of total `t`,
    /// ascending by `t`. A cell's minority runs are stored against this
    /// list, each run's `t` as its index here.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// The values of a cell of this context whose minority is the strictly
    /// ascending `(unit, m)` pairs with `0 < m ≤ t` (the context's units
    /// absent from the list have `m = 0`): bit-equal to
    /// [`IndexValues::compute_masked`] over the per-unit histogram.
    /// [`Self::minority_runs`], then [`Self::fold_runs`].
    pub fn fold(
        &self,
        minority: &[(u32, u64)],
        atkinson_b: f64,
        measures: MeasureSet,
    ) -> Result<IndexValues> {
        self.fold_table(self.runs_with_room(minority, self.runs.len())?, atkinson_b, measures)
    }

    /// The minority run table of a cell given as strictly ascending
    /// `(unit, m)` pairs: the pairs' distinct `(t, m)` with their unit
    /// counts, ascending by `(t, m)`. Each unit's `t` is found by a
    /// galloping cursor over the context's list, and the keys `t << 32 |
    /// m` are sorted as plain integers, which brings equal pairs together.
    /// A unit absent from the context, `m = 0`, `m > t` (which also keeps
    /// `m` inside its key's 32 bits) or a non-ascending list is an `Err`;
    /// whether the context holds that many units of each `t` is
    /// [`Self::fold_runs`]' check.
    pub fn minority_runs(&self, minority: &[(u32, u64)]) -> Result<Vec<Run>> {
        self.runs_with_room(minority, 0)
    }

    /// [`Self::minority_runs`] in a list with room for `room` more runs
    /// (the fold's `m = 0` runs), so the fold needs no second list.
    fn runs_with_room(&self, minority: &[(u32, u64)], room: usize) -> Result<Vec<Run>> {
        let mut keys: Vec<u64> = Vec::with_capacity(minority.len());
        let mut cursor = 0usize;
        for &(u, m) in minority {
            let rest = &self.units[cursor..];
            let mut bound = 1;
            while bound < rest.len() && rest[bound].0 < u {
                bound *= 2;
            }
            let window = &rest[..rest.len().min(bound + 1)];
            let Ok(i) = window.binary_search_by_key(&u, |&(unit, _)| unit) else {
                return Err(ScubeError::Inconsistent(format!(
                    "minority unit {u} is not an ascending unit of the context"
                )));
            };
            let t = rest[i].1;
            if m == 0 || m > t {
                return Err(ScubeError::Inconsistent(format!(
                    "unit {u}: minority {m} is not in 1..={t}"
                )));
            }
            cursor += i + 1;
            keys.push(t << 32 | m);
        }
        keys.sort_unstable();
        let mut runs = Vec::with_capacity(keys.chunk_by(|a, b| a == b).count() + room);
        collapse_sorted(&keys, |k| (k >> 32, k & u64::from(u32::MAX)), &mut runs);
        Ok(runs)
    }

    /// The values of a cell of this context given as its minority run
    /// table — runs strictly ascending by `(t, m)`, each `0 < m ≤ t` and
    /// `k ≥ 1` — the one entry every fold of a cell ends in ([`Self::fold`]
    /// after [`Self::minority_runs`], and a cube's stored run tables). Each minority
    /// run's `k` is subtracted from the context run of its `t`, which
    /// leaves the `m = 0` runs; the units themselves are never needed.
    ///
    /// A run out of order or outside `1..=t`, or more units of one `t`
    /// than the context has, is an `Err`.
    pub fn fold_runs(
        &self,
        minority: &[Run],
        atkinson_b: f64,
        measures: MeasureSet,
    ) -> Result<IndexValues> {
        let mut runs = Vec::with_capacity(minority.len() + self.runs.len());
        runs.extend_from_slice(minority);
        self.fold_table(runs, atkinson_b, measures)
    }

    /// [`Self::fold_runs`] over `runs`, the minority runs, which is given
    /// the room for the context's `m = 0` runs and folded in place.
    fn fold_table(
        &self,
        mut runs: Vec<Run>,
        atkinson_b: f64,
        measures: MeasureSet,
    ) -> Result<IndexValues> {
        let minority = runs.len();
        let mut m_total = 0u64;
        let mut prev = (0, 0);
        for &Run { minority: m, total: t, units: k } in &runs {
            if m == 0 || m > t || k == 0 || (t, m) <= prev {
                return Err(ScubeError::Inconsistent(format!(
                    "a minority run ({m} of {t}) × {k} is not in 1..={t} or not ascending"
                )));
            }
            prev = (t, m);
        }
        // Minority runs ascend by `t`: walk them beside the context's runs
        // and leave each `t`'s remaining units at `m = 0`.
        let mut next = 0;
        for &(t, mut k) in &self.runs {
            while next < minority && runs[next].total == t {
                let run = runs[next];
                k = k.checked_sub(run.units).ok_or_else(|| too_many_units(t))?;
                // `k · m ≤ k · t ≤ T`, within the u32 row space.
                m_total += run.units * run.minority;
                next += 1;
            }
            if k > 0 {
                runs.push(Run { minority: 0, total: t, units: k });
            }
        }
        if next < minority {
            return Err(too_many_units(runs[next].total));
        }
        canonical_order(&mut runs);
        let n = self.units.len() as u32;
        Ok(fold(m_total, self.total, n, || runs, atkinson_b, measures))
    }

    /// The values of the context's own `A = ⋆` cell (minority ≡
    /// population, every unit at `m = t`), folded from the runs alone.
    pub fn fold_whole(&self, atkinson_b: f64, measures: MeasureSet) -> IndexValues {
        let runs = || {
            let mut runs: Vec<Run> =
                self.runs.iter().map(|&(t, k)| Run { minority: t, total: t, units: k }).collect();
            canonical_order(&mut runs);
            runs
        };
        let n = self.units.len() as u32;
        fold(self.total, self.total, n, runs, atkinson_b, measures)
    }
}

/// Dissimilarity index `D ∈ [0,1]`.
///
/// `D = ½ Σ |m_i/M − (t_i−m_i)/(T−M)|`: the share of either group that
/// would have to relocate for all units to mirror the overall minority
/// proportion. 0 on a perfectly even distribution, 1 under complete
/// segregation. `None` when `M = 0` or `M = T`.
pub fn dissimilarity(c: &UnitCounts) -> Option<f64> {
    SegIndex::Dissimilarity.compute(c)
}

/// Gini segregation index `G ∈ [0,1]`.
///
/// `G = Σ_i Σ_j t_i t_j |p_i − p_j| / (2 T² P(1−P))`. The naive double sum
/// is quadratic in the unit count; the fold orders the *distinct*
/// `(m, t)` pairs by share and prefix-sums over them, a run of equal pairs
/// counting as one super-unit, so the cost is one sort of the pairs plus a
/// pass over the distinct ones. `None` when `M = 0` or `M = T`.
pub fn gini(c: &UnitCounts) -> Option<f64> {
    SegIndex::Gini.compute(c)
}

/// Information index (Theil's H) `∈ [0,1]`.
///
/// `H = Σ t_i (E − E_i) / (T·E)` where `E` is the entropy of the overall
/// minority split and `E_i` the entropy within unit `i`. `None` when
/// `M = 0` or `M = T` (then `E = 0`).
pub fn information(c: &UnitCounts) -> Option<f64> {
    SegIndex::Information.compute(c)
}

/// Isolation index `xPx`.
///
/// `xPx = Σ (m_i/M)(m_i/t_i)`: the minority-weighted average minority
/// share of the unit a random minority member finds around them. Ranges in
/// `[P, 1]`; `None` when `M = 0`.
pub fn isolation(c: &UnitCounts) -> Option<f64> {
    SegIndex::Isolation.compute(c)
}

/// Interaction index `xPy`.
///
/// `xPy = Σ (m_i/M)((t_i−m_i)/t_i)`: the exposure of minority members to
/// the majority. For binary groups `xPx + xPy = 1`. `None` when `M = 0`.
pub fn interaction(c: &UnitCounts) -> Option<f64> {
    SegIndex::Interaction.compute(c)
}

/// Atkinson index `A(b) ∈ [0,1]` with shape parameter `b ∈ (0,1)`.
///
/// `A = 1 − (P/(1−P)) · [ Σ (1−p_i)^{1−b} p_i^b t_i / (P·T) ]^{1/(1−b)}`.
/// `b` weights units where the minority is under- vs over-represented;
/// `b = 0.5` (the default) treats both symmetrically. `None` when `M = 0`,
/// `M = T`, or `b` outside `(0,1)`.
pub fn atkinson(c: &UnitCounts, b: f64) -> Option<f64> {
    fold_counts(c, b, MeasureSet::only(SegIndex::Atkinson)).atkinson
}

/// Correlation ratio (eta², also `V`) — exposure adjusted for the overall
/// minority share: `V = (xPx − P) / (1 − P)`.
///
/// Unlike raw isolation, `V = 0` under perfect evenness regardless of `P`
/// and `V = 1` under complete segregation, which makes it comparable
/// across contexts with different minority shares. Provided as an
/// *extension* beyond the paper's six indexes (it ships in the R `seg`
/// package the paper cites); `None` when `M = 0` or `M = T`.
pub fn correlation_ratio(c: &UnitCounts) -> Option<f64> {
    if c.minority() == c.total() {
        return None;
    }
    let xpx = isolation(c)?;
    let p = c.minority() as f64 / c.total() as f64;
    Some(clamp01((xpx - p) / (1.0 - p)))
}

/// The six indexes the SCube system computes, as a closed enumeration
/// (the cube is "parametric to the indexes" — §2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegIndex {
    /// Dissimilarity index `D`.
    Dissimilarity,
    /// Gini segregation index `G`.
    Gini,
    /// Information index (Theil's `H`).
    Information,
    /// Isolation index `xPx`.
    Isolation,
    /// Interaction index `xPy`.
    Interaction,
    /// Atkinson index with the default shape `b = 0.5`.
    Atkinson,
}

impl SegIndex {
    /// All six indexes, in the paper's order.
    pub const ALL: [SegIndex; 6] = [
        SegIndex::Dissimilarity,
        SegIndex::Gini,
        SegIndex::Information,
        SegIndex::Isolation,
        SegIndex::Interaction,
        SegIndex::Atkinson,
    ];

    /// Compute this index over a histogram (Atkinson with the default
    /// shape), bit-equal to the same field of any [`IndexValues`] fold
    /// that selects it.
    pub fn compute(self, c: &UnitCounts) -> Option<f64> {
        fold_counts(c, DEFAULT_ATKINSON_B, MeasureSet::only(self)).get(self)
    }

    /// Short display name used in report headers.
    pub fn short_name(self) -> &'static str {
        match self {
            SegIndex::Dissimilarity => "D",
            SegIndex::Gini => "G",
            SegIndex::Information => "H",
            SegIndex::Isolation => "xPx",
            SegIndex::Interaction => "xPy",
            SegIndex::Atkinson => "A",
        }
    }

    /// Full display name.
    pub fn name(self) -> &'static str {
        match self {
            SegIndex::Dissimilarity => "dissimilarity",
            SegIndex::Gini => "gini",
            SegIndex::Information => "information",
            SegIndex::Isolation => "isolation",
            SegIndex::Interaction => "interaction",
            SegIndex::Atkinson => "atkinson",
        }
    }

    /// Parse a name produced by [`SegIndex::name`] or [`SegIndex::short_name`].
    pub fn parse(s: &str) -> Option<SegIndex> {
        match s.to_ascii_lowercase().as_str() {
            "dissimilarity" | "d" => Some(SegIndex::Dissimilarity),
            "gini" | "g" => Some(SegIndex::Gini),
            "information" | "h" | "theil" => Some(SegIndex::Information),
            "isolation" | "xpx" => Some(SegIndex::Isolation),
            "interaction" | "xpy" => Some(SegIndex::Interaction),
            "atkinson" | "a" => Some(SegIndex::Atkinson),
            _ => None,
        }
    }
}

impl std::fmt::Display for SegIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A non-empty subset of the six [`SegIndex`] measures, as a one-byte
/// bitset (bit `i` = `SegIndex::ALL[i]`).
///
/// This is the "the cube is parametric to the indexes" knob: a build folds
/// exactly the selected measures per cell and leaves the rest undefined.
/// The default is [`MeasureSet::FULL`] — every index, matching the
/// historical (and paper's) full-suite behavior bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasureSet {
    bits: u8,
}

impl MeasureSet {
    const ALL_BITS: u8 = (1 << SegIndex::ALL.len()) - 1;

    /// Every index — the default.
    pub const FULL: MeasureSet = MeasureSet { bits: Self::ALL_BITS };

    fn bit(index: SegIndex) -> u8 {
        match index {
            SegIndex::Dissimilarity => 1 << 0,
            SegIndex::Gini => 1 << 1,
            SegIndex::Information => 1 << 2,
            SegIndex::Isolation => 1 << 3,
            SegIndex::Interaction => 1 << 4,
            SegIndex::Atkinson => 1 << 5,
        }
    }

    /// The set containing exactly one index.
    pub fn only(index: SegIndex) -> MeasureSet {
        MeasureSet { bits: Self::bit(index) }
    }

    /// This set plus one more index.
    #[must_use]
    pub fn with(self, index: SegIndex) -> MeasureSet {
        MeasureSet { bits: self.bits | Self::bit(index) }
    }

    /// Is `index` selected?
    pub fn contains(self, index: SegIndex) -> bool {
        self.bits & Self::bit(index) != 0
    }

    /// Does this set select all six indexes?
    pub fn is_full(self) -> bool {
        self.bits == Self::ALL_BITS
    }

    /// Number of selected indexes (always ≥ 1).
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// A `MeasureSet` is never empty; kept for clippy's `len`/`is_empty`
    /// pairing convention.
    pub fn is_empty(self) -> bool {
        false
    }

    /// The selected indexes, in [`SegIndex::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = SegIndex> {
        SegIndex::ALL.into_iter().filter(move |&i| self.contains(i))
    }

    /// The raw bitset byte (bit `i` = `SegIndex::ALL[i]`), for persistence.
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Rebuild from a persisted byte; `None` when empty or when bits
    /// beyond the six known indexes are set.
    pub fn from_bits(bits: u8) -> Option<MeasureSet> {
        (bits != 0 && bits & !Self::ALL_BITS == 0).then_some(MeasureSet { bits })
    }

    /// Parse a comma-separated list of index names (long or short, as
    /// accepted by [`SegIndex::parse`]), or `"all"` for the full suite.
    /// `None` on an empty list or any unknown name.
    pub fn parse(s: &str) -> Option<MeasureSet> {
        if s.trim().eq_ignore_ascii_case("all") {
            return Some(MeasureSet::FULL);
        }
        let mut bits = 0u8;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return None;
            }
            bits |= Self::bit(SegIndex::parse(part)?);
        }
        MeasureSet::from_bits(bits)
    }
}

impl Default for MeasureSet {
    fn default() -> Self {
        MeasureSet::FULL
    }
}

impl std::fmt::Display for MeasureSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for index in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            f.write_str(index.name())?;
        }
        Ok(())
    }
}

/// All six index values for one histogram, plus the population summary —
/// the payload of one cube cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IndexValues {
    /// Dissimilarity `D`.
    pub dissimilarity: Option<f64>,
    /// Gini `G`.
    pub gini: Option<f64>,
    /// Information (Theil) `H`.
    pub information: Option<f64>,
    /// Isolation `xPx`.
    pub isolation: Option<f64>,
    /// Interaction `xPy`.
    pub interaction: Option<f64>,
    /// Atkinson `A(b)`.
    pub atkinson: Option<f64>,
    /// Minority head-count `M`.
    pub minority: u64,
    /// Total head-count `T`.
    pub total: u64,
    /// Number of non-empty units `n`.
    pub num_units: u32,
}

impl IndexValues {
    /// Evaluate every index over the histogram, with the given Atkinson `b`.
    pub fn compute_with(c: &UnitCounts, atkinson_b: f64) -> IndexValues {
        fold_counts(c, atkinson_b, MeasureSet::FULL)
    }

    /// Evaluate every index with the default Atkinson shape.
    pub fn compute(c: &UnitCounts) -> IndexValues {
        Self::compute_with(c, DEFAULT_ATKINSON_B)
    }

    /// Evaluate only the selected indexes; unselected fields stay `None`.
    ///
    /// A selected value is bit-for-bit what [`IndexValues::compute_with`]
    /// and the standalone index functions return for it: one kernel folds
    /// them all, each measure into its own accumulator, so the selection
    /// decides which sums run and never what a sum adds up to.
    pub fn compute_masked(c: &UnitCounts, atkinson_b: f64, measures: MeasureSet) -> IndexValues {
        fold_counts(c, atkinson_b, measures)
    }

    /// Overall minority proportion `P`, when defined.
    pub fn minority_proportion(&self) -> Option<f64> {
        (self.total > 0).then(|| self.minority as f64 / self.total as f64)
    }

    /// Set one index value — the write half of [`Self::get`], used by the
    /// snapshot decoder to reassemble a cell from its tagged measures.
    pub fn set(&mut self, index: SegIndex, value: Option<f64>) {
        match index {
            SegIndex::Dissimilarity => self.dissimilarity = value,
            SegIndex::Gini => self.gini = value,
            SegIndex::Information => self.information = value,
            SegIndex::Isolation => self.isolation = value,
            SegIndex::Interaction => self.interaction = value,
            SegIndex::Atkinson => self.atkinson = value,
        }
    }

    /// Select one index value.
    pub fn get(&self, index: SegIndex) -> Option<f64> {
        match index {
            SegIndex::Dissimilarity => self.dissimilarity,
            SegIndex::Gini => self.gini,
            SegIndex::Information => self.information,
            SegIndex::Isolation => self.isolation,
            SegIndex::Interaction => self.interaction,
            SegIndex::Atkinson => self.atkinson,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::UnitCounts;

    fn counts(pairs: &[(u64, u64)]) -> UnitCounts {
        UnitCounts::from_pairs(pairs.iter().copied()).unwrap()
    }

    fn assert_close(a: Option<f64>, b: f64) {
        let a = a.expect("index should be defined");
        assert!((a - b).abs() < 1e-9, "expected {b}, got {a}");
    }

    #[test]
    fn hand_computed_two_units() {
        // Units (m,t): (10,20), (0,20) → M=10, T=40, P=0.25.
        // D = ½(|1 − 1/3| + |0 − 2/3|) = 2/3.
        // G: pairwise formula gives exactly 2/3 too.
        // A(0.5) = 1 − (0.25/0.75)·1 = 2/3.
        let c = counts(&[(10, 20), (0, 20)]);
        assert_close(dissimilarity(&c), 2.0 / 3.0);
        assert_close(gini(&c), 2.0 / 3.0);
        assert_close(atkinson(&c, 0.5), 2.0 / 3.0);
        assert_close(isolation(&c), 0.5);
        assert_close(interaction(&c), 0.5);
        // H computed by hand: E=0.562335, E1=ln2, E2=0.
        let e = 0.25f64.mul_add(-(0.25f64.ln()), -(0.75 * 0.75f64.ln()));
        let expected_h = (20.0 * (e - std::f64::consts::LN_2) + 20.0 * e) / (40.0 * e);
        assert_close(information(&c), expected_h);
    }

    #[test]
    fn uniform_distribution_scores_zero() {
        // Same minority share everywhere → evenness indexes are 0 and the
        // isolation index equals P.
        let c = counts(&[(5, 20), (10, 40), (25, 100)]);
        assert_close(dissimilarity(&c), 0.0);
        assert_close(gini(&c), 0.0);
        assert_close(information(&c), 0.0);
        assert_close(atkinson(&c, 0.5), 0.0);
        assert_close(isolation(&c), 0.25);
        assert_close(interaction(&c), 0.75);
    }

    #[test]
    fn complete_segregation_scores_one() {
        // Every unit is single-group → evenness indexes are 1,
        // isolation 1, interaction 0.
        let c = counts(&[(30, 30), (0, 70), (15, 15), (0, 5)]);
        assert_close(dissimilarity(&c), 1.0);
        assert_close(gini(&c), 1.0);
        assert_close(information(&c), 1.0);
        assert_close(atkinson(&c, 0.5), 1.0);
        assert_close(isolation(&c), 1.0);
        assert_close(interaction(&c), 0.0);
    }

    #[test]
    fn undefined_when_no_minority() {
        let c = counts(&[(0, 10), (0, 20)]);
        for idx in SegIndex::ALL {
            assert_eq!(idx.compute(&c), None, "{idx} should be undefined");
        }
    }

    #[test]
    fn evenness_undefined_when_all_minority() {
        let c = counts(&[(10, 10), (20, 20)]);
        assert_eq!(dissimilarity(&c), None);
        assert_eq!(gini(&c), None);
        assert_eq!(information(&c), None);
        assert_eq!(atkinson(&c, 0.5), None);
        // Exposure indexes remain defined: everyone is minority.
        assert_close(isolation(&c), 1.0);
        assert_close(interaction(&c), 0.0);
    }

    #[test]
    fn empty_population_undefined() {
        let c = counts(&[]);
        for idx in SegIndex::ALL {
            assert_eq!(idx.compute(&c), None);
        }
    }

    #[test]
    fn single_unit_is_unsegregated() {
        // With one unit the minority distribution is trivially even.
        let c = counts(&[(3, 10)]);
        assert_close(dissimilarity(&c), 0.0);
        assert_close(gini(&c), 0.0);
        assert_close(information(&c), 0.0);
        assert_close(atkinson(&c, 0.5), 0.0);
        assert_close(isolation(&c), 0.3);
    }

    #[test]
    fn atkinson_rejects_bad_shape() {
        let c = counts(&[(1, 2), (0, 2)]);
        assert_eq!(atkinson(&c, 0.0), None);
        assert_eq!(atkinson(&c, 1.0), None);
        assert_eq!(atkinson(&c, -0.5), None);
        assert_eq!(atkinson(&c, 1.5), None);
        assert!(atkinson(&c, 0.3).is_some());
    }

    #[test]
    fn atkinson_asymmetry() {
        // b ≠ 0.5 weights under/over-represented units differently, so the
        // index must change when the minority/majority roles swap.
        let c = counts(&[(8, 10), (2, 30)]);
        let swapped = counts(&[(2, 10), (28, 30)]);
        let a_03 = atkinson(&c, 0.3).unwrap();
        let a_03_swapped = atkinson(&swapped, 0.3).unwrap();
        assert!((a_03 - a_03_swapped).abs() > 1e-6);
        // ... while b = 0.5 is symmetric under group swap.
        let a_05 = atkinson(&c, 0.5).unwrap();
        let a_05_swapped = atkinson(&swapped, 0.5).unwrap();
        assert!((a_05 - a_05_swapped).abs() < 1e-9);
    }

    #[test]
    fn gini_matches_naive_quadratic() {
        let c = counts(&[(1, 10), (5, 10), (9, 10), (3, 30), (0, 7)]);
        // Naive O(n²) double sum.
        let t_total = c.total() as f64;
        let p = c.minority() as f64 / t_total;
        let mut num = 0.0;
        for a in c.cells() {
            for b in c.cells() {
                let pa = a.minority as f64 / a.total as f64;
                let pb = b.minority as f64 / b.total as f64;
                num += a.total as f64 * b.total as f64 * (pa - pb).abs();
            }
        }
        let naive = num / (2.0 * t_total * t_total * p * (1.0 - p));
        assert_close(gini(&c), naive);
    }

    #[test]
    fn dissimilarity_matches_fig1_style_example() {
        // A 3-unit example verifiable by hand:
        // units (m,t) = (4,10), (1,10), (5,20); M=10, T=40.
        // minority shares: .4 .1 .5 ; majority shares: 6/30 9/30 15/30.
        // D = ½(|.4−.2| + |.1−.3| + |.5−.5|) = 0.2
        let c = counts(&[(4, 10), (1, 10), (5, 20)]);
        assert_close(dissimilarity(&c), 0.2);
    }

    #[test]
    fn index_values_bundle() {
        let c = counts(&[(10, 20), (0, 20)]);
        let v = IndexValues::compute(&c);
        assert_eq!(v.minority, 10);
        assert_eq!(v.total, 40);
        assert_eq!(v.num_units, 2);
        assert_eq!(v.minority_proportion(), Some(0.25));
        for idx in SegIndex::ALL {
            assert_eq!(v.get(idx), idx.compute(&c), "{idx}");
        }
    }

    #[test]
    fn correlation_ratio_extremes() {
        // Perfect evenness → V = 0 (unlike xPx, which equals P).
        let even = counts(&[(5, 20), (10, 40)]);
        assert_close(correlation_ratio(&even), 0.0);
        // Complete segregation → V = 1.
        let total = counts(&[(10, 10), (0, 20)]);
        assert_close(correlation_ratio(&total), 1.0);
        // Mixed case: V = (xPx − P)/(1 − P), hand-computed.
        let c = counts(&[(10, 20), (0, 20)]);
        let expected = (0.5 - 0.25) / 0.75;
        assert_close(correlation_ratio(&c), expected);
        // Degenerate populations.
        assert_eq!(correlation_ratio(&counts(&[(0, 10)])), None);
        assert_eq!(correlation_ratio(&counts(&[(10, 10)])), None);
    }

    #[test]
    fn measure_set_basics() {
        assert_eq!(MeasureSet::default(), MeasureSet::FULL);
        assert!(MeasureSet::FULL.is_full());
        assert_eq!(MeasureSet::FULL.len(), SegIndex::ALL.len());
        assert!(!MeasureSet::FULL.is_empty());
        let g = MeasureSet::only(SegIndex::Gini);
        assert!(g.contains(SegIndex::Gini));
        assert!(!g.contains(SegIndex::Atkinson));
        assert!(!g.is_full());
        assert_eq!(g.len(), 1);
        let ga = g.with(SegIndex::Atkinson);
        assert_eq!(ga.iter().collect::<Vec<_>>(), vec![SegIndex::Gini, SegIndex::Atkinson]);
        // iter is in ALL order regardless of insertion order.
        let ag = MeasureSet::only(SegIndex::Atkinson).with(SegIndex::Gini);
        assert_eq!(ag, ga);
    }

    #[test]
    fn measure_set_bits_roundtrip() {
        for bits in 1u8..=0b11_1111 {
            let set = MeasureSet::from_bits(bits).expect("valid bits");
            assert_eq!(set.bits(), bits);
            assert_eq!(set.len(), bits.count_ones() as usize);
        }
        assert_eq!(MeasureSet::from_bits(0), None, "empty set is invalid");
        assert_eq!(MeasureSet::from_bits(0b100_0000), None, "unknown bit is invalid");
        assert_eq!(MeasureSet::from_bits(0xFF), None);
    }

    #[test]
    fn measure_set_parse_and_display() {
        assert_eq!(MeasureSet::parse("all"), Some(MeasureSet::FULL));
        assert_eq!(MeasureSet::parse("gini"), Some(MeasureSet::only(SegIndex::Gini)));
        assert_eq!(
            MeasureSet::parse("atkinson, d"),
            Some(MeasureSet::only(SegIndex::Atkinson).with(SegIndex::Dissimilarity))
        );
        assert_eq!(MeasureSet::parse(""), None);
        assert_eq!(MeasureSet::parse("gini,,d"), None);
        assert_eq!(MeasureSet::parse("gini,nope"), None);
        for bits in 1u8..=0b11_1111 {
            let set = MeasureSet::from_bits(bits).unwrap();
            assert_eq!(MeasureSet::parse(&set.to_string()), Some(set), "{set}");
        }
    }

    #[test]
    fn compute_masked_full_matches_compute_with() {
        let c = counts(&[(1, 10), (5, 10), (9, 10), (3, 30), (0, 7)]);
        for b in [0.3, 0.5, 0.7] {
            let full = IndexValues::compute_with(&c, b);
            let masked = IndexValues::compute_masked(&c, b, MeasureSet::FULL);
            assert_eq!(full, masked);
        }
    }

    #[test]
    fn compute_masked_subsets_match_per_index() {
        let c = counts(&[(4, 10), (1, 10), (5, 20)]);
        let full = IndexValues::compute_with(&c, 0.4);
        for bits in 1u8..=0b11_1111 {
            let set = MeasureSet::from_bits(bits).unwrap();
            let masked = IndexValues::compute_masked(&c, 0.4, set);
            assert_eq!(masked.minority, full.minority);
            assert_eq!(masked.total, full.total);
            assert_eq!(masked.num_units, full.num_units);
            for idx in SegIndex::ALL {
                let expected = if set.contains(idx) { full.get(idx) } else { None };
                // f64-bit-exact: the masked fold runs the same code path.
                assert_eq!(
                    masked.get(idx).map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "{set} / {idx}"
                );
            }
        }
    }

    #[test]
    fn names_roundtrip() {
        for idx in SegIndex::ALL {
            assert_eq!(SegIndex::parse(idx.name()), Some(idx));
            assert_eq!(SegIndex::parse(idx.short_name()), Some(idx));
        }
        assert_eq!(SegIndex::parse("nope"), None);
    }
}
