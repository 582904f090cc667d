#![warn(missing_docs)]
//! Social-science segregation indexes.
//!
//! SCube's cube cells are filled with segregation indexes computed over a
//! set of *organizational units* (schools, neighbourhoods, job sectors,
//! communities of companies, …). For each unit `i` we know the minority
//! head-count `m_i` and the total head-count `t_i`; writing `M = Σ m_i`,
//! `T = Σ t_i`, `P = M/T` and `p_i = m_i/t_i`, the crate implements the six
//! indexes the paper names (§2), following Massey & Denton's classic
//! *The Dimensions of Residential Segregation* formulations:
//!
//! | Index | Family | Formula |
//! |-------|--------|---------|
//! | [`dissimilarity`] | evenness | `D = ½ Σ \|m_i/M − (t_i−m_i)/(T−M)\|` |
//! | [`gini`] | evenness | `G = Σ_{i,j} t_i t_j \|p_i−p_j\| / (2T²P(1−P))` |
//! | [`information`] | evenness | Theil's `H = Σ t_i (E − E_i) / (T·E)` |
//! | [`isolation`] | exposure | `xPx = Σ (m_i/M)(m_i/t_i)` |
//! | [`interaction`] | exposure | `xPy = Σ (m_i/M)((t_i−m_i)/t_i)` |
//! | [`atkinson`] | evenness | `A(b) = 1 − (P/(1−P))·[Σ (1−p_i)^{1−b} p_i^b t_i / (PT)]^{1/(1−b)}` |
//!
//! Indexes are *not additive* (the reason SCube needs a specialised cube
//! builder rather than ordinary roll-ups), and they are undefined for
//! degenerate populations; every function returns `Option<f64>` with `None`
//! exactly when the social-science definition divides by zero (`M = 0`, and
//! for the evenness family also `M = T`). This maps to the `-` cells of the
//! paper's Fig. 1.

//! Two extensions beyond the paper's six indexes (flagged in DESIGN.md):
//! the [`indexes::correlation_ratio`] (eta², from the R `seg` package the
//! paper cites) and [`significance`] — Monte-Carlo permutation tests that
//! separate real segregation from the small-unit bias of random allocation.

pub mod counts;
pub mod indexes;
pub mod significance;

pub use counts::{UnitCell, UnitCounts};
pub use indexes::{
    atkinson, correlation_ratio, dissimilarity, gini, information, interaction, isolation,
    ContextTotals, IndexValues, MeasureSet, Run, SegIndex, DEFAULT_ATKINSON_B,
};
pub use significance::{PermutationTest, TestResult};
