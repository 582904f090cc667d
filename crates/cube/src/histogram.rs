//! The canonical byte forms of the maintenance store's entries — the one
//! shape an entry has in the snapshot file, in a mapped region, and on the
//! heap (`scube-cube::histogram`). A context's entry is its per-unit
//! histogram; a cell's is its minority run table.
//!
//! Both are `varint n, varint payload_len, payload`, with every varint a
//! minimal-length unsigned LEB128, so [`entry_len`] steps over either
//! kind in O(1) without looking inside it.
//!
//! **A histogram** — a context's `(unit, t)` pairs, units strictly
//! ascending, counts nonzero:
//!
//! ```text
//! n = n_pairs, payload = n_pairs × (varint gap, varint count − 1)
//! gap     = unit               for the first pair
//!           unit − prev − 1    after it
//! ```
//!
//! **A run table** — a cell's minority runs `(t, m, k)`, `k` units with
//! population `t` and minority `m ≥ 1`, strictly ascending by `(t, m)`,
//! stored against its context's ascending distinct totals (each `t` as its
//! index there; [`scube_segindex::ContextTotals::runs`]):
//!
//! ```text
//! n = n_runs, payload = n_runs × (varint t_gap << 1 | (k ≥ 2),
//!                                 varint m_code,
//!                                 varint k − 2   only when k ≥ 2)
//! t_gap   = index of t                 for the first run
//!           index of t − previous one  after it
//! m_code  = m − prev_m − 1   when t is the previous run's t
//!           m − 1            otherwise
//! ```
//!
//! The deltas make the invariants *unrepresentable* instead of checked: no
//! byte string decodes to a repeated or descending unit or run, or to a
//! zero count, minority or `k`. What is left to reject — over-long or
//! overflowing varints, a unit outside the universe, a `t` index past the
//! context, `m > t`, more units of one `t` than the context has, a payload
//! that does not hold exactly `n` records in exactly `payload_len` bytes —
//! [`decode`] and [`decode_runs`] reject, so an entry has exactly one
//! accepted byte string and `encode(decode(b)) == b`.
//!
//! With one unit per company a context's counts are board sizes and its
//! gaps a few tens: about 2 bytes per pair against 12 as fixed-width
//! `(u32, u64)`. A cell's thousands of minority units collapse into a few
//! dozen runs of about 2 bytes each, and carry no unit id.

use scube_common::{Result, ScubeError};
use scube_segindex::Run;

fn corrupt(msg: &str) -> ScubeError {
    ScubeError::Inconsistent(format!("snapshot: histogram: {msg}"))
}

/// Bytes of the minimal LEB128 encoding of `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one minimal-length LEB128 `u64` at `*pos`, advancing it.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *bytes.get(*pos).ok_or_else(|| corrupt("truncated inside a varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift != 0 {
                return Err(corrupt("over-long varint"));
            }
            return Ok(value);
        }
    }
    Err(corrupt("varint overflows 64 bits"))
}

/// The entry of `pairs`, allocated at its exact length.
///
/// # Panics
///
/// When units are not strictly ascending or a count is zero — such a list
/// is not a histogram and has no byte form.
pub fn encode(pairs: &[(u32, u64)]) -> Vec<u8> {
    let mut payload_len = 0usize;
    let mut next = 0u64;
    for &(unit, count) in pairs {
        let gap = u64::from(unit).checked_sub(next).expect("histogram units strictly ascending");
        assert!(count != 0, "histogram counts are nonzero");
        payload_len += varint_len(gap) + varint_len(count - 1);
        next = u64::from(unit) + 1;
    }
    let n_pairs = pairs.len() as u64;
    let mut out =
        Vec::with_capacity(varint_len(n_pairs) + varint_len(payload_len as u64) + payload_len);
    put_varint(&mut out, n_pairs);
    put_varint(&mut out, payload_len as u64);
    let mut next = 0u64;
    for &(unit, count) in pairs {
        put_varint(&mut out, u64::from(unit) - next);
        put_varint(&mut out, count - 1);
        next = u64::from(unit) + 1;
    }
    out
}

/// Length of the entry at the head of `bytes`, from its two header
/// varints alone: O(1), nothing inside the payload is read. Errors when
/// the header is malformed or the payload would run past `bytes`.
pub fn entry_len(bytes: &[u8]) -> Result<usize> {
    let mut pos = 0;
    let _n_pairs = read_varint(bytes, &mut pos)?;
    let payload_len = read_varint(bytes, &mut pos)?;
    usize::try_from(payload_len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| corrupt("payload length runs past the store region"))
}

/// Read an entry's two header varints: its record count, checked against
/// the payload it declares and holds, and the offset of that payload.
fn header(entry: &[u8], records: &str) -> Result<(u64, usize)> {
    let mut pos = 0;
    let n = read_varint(entry, &mut pos)?;
    let payload_len = read_varint(entry, &mut pos)?;
    if (entry.len() - pos) as u64 != payload_len {
        return Err(corrupt("payload length disagrees with the entry"));
    }
    // A record takes at least two bytes, which also bounds an allocation
    // by bytes actually in hand.
    if n > payload_len / 2 {
        return Err(corrupt(&format!("fewer {records} in the payload than declared")));
    }
    Ok((n, pos))
}

/// Decode and validate exactly one entry over a universe of `n_units`
/// units. Every accepted `entry` is the [`encode`] of what comes back.
pub fn decode(entry: &[u8], n_units: u32) -> Result<Vec<(u32, u64)>> {
    let (n_pairs, mut pos) = header(entry, "pairs")?;
    let mut pairs = Vec::with_capacity(n_pairs as usize);
    let mut next = 0u64;
    for _ in 0..n_pairs {
        let gap = read_varint(entry, &mut pos)?;
        let unit = next
            .checked_add(gap)
            .filter(|&unit| unit < u64::from(n_units))
            .ok_or_else(|| corrupt("references an unknown unit"))?;
        let count = read_varint(entry, &mut pos)?
            .checked_add(1)
            .ok_or_else(|| corrupt("count overflows 64 bits"))?;
        pairs.push((unit as u32, count));
        next = unit + 1;
    }
    if pos != entry.len() {
        return Err(corrupt("more pairs in the payload than declared"));
    }
    Ok(pairs)
}

/// Bytes of a run table's payload against `totals` (see [`encode_runs_into`]).
fn runs_payload(runs: &[Run], totals: &[(u64, u64)], mut put: impl FnMut(u64)) {
    let (mut at, mut prev) = (0usize, None::<(usize, u64)>);
    for run in runs {
        let index = at
            + totals[at..]
                .iter()
                .position(|&(t, _)| t == run.total)
                .expect("a run's total is one of its context's");
        assert!(run.minority >= 1 && run.units >= 1, "runs hold m ≥ 1 and k ≥ 1");
        let (t_gap, m_code) = match prev {
            Some((prev_index, prev_m)) if prev_index == index => {
                (0, run.minority.checked_sub(prev_m + 1).expect("runs strictly ascending"))
            }
            Some((prev_index, _)) => (index - prev_index, run.minority - 1),
            None => (index, run.minority - 1),
        };
        let many = run.units >= 2;
        put((t_gap as u64) << 1 | u64::from(many));
        put(m_code);
        if many {
            put(run.units - 2);
        }
        (at, prev) = (index, Some((index, run.minority)));
    }
}

/// Append the entry of a cell's minority run table to `out`: `runs`
/// strictly ascending by `(t, m)` with `m ≥ 1` and `k ≥ 1`, against its
/// context's ascending distinct totals `(t, k)` (see the module docs).
///
/// # Panics
///
/// When the runs are not such a table, or a run's `t` is not one of
/// `totals` — such a table has no byte form.
pub fn encode_runs_into(runs: &[Run], totals: &[(u64, u64)], out: &mut Vec<u8>) {
    let mut payload_len = 0usize;
    runs_payload(runs, totals, |v| payload_len += varint_len(v));
    out.reserve(varint_len(runs.len() as u64) + varint_len(payload_len as u64) + payload_len);
    put_varint(out, runs.len() as u64);
    put_varint(out, payload_len as u64);
    runs_payload(runs, totals, |v| put_varint(out, v));
}

/// The entry of a cell's minority run table ([`encode_runs_into`]),
/// allocated at its exact length.
pub fn encode_runs(runs: &[Run], totals: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_runs_into(runs, totals, &mut out);
    out
}

/// Decode and validate exactly one run-table entry against its context's
/// ascending distinct totals `(t, k)` into `runs` (cleared first). Every
/// accepted `entry` is the [`encode_runs`] of what comes back: a `t`
/// index past `totals`, `m > t`, more units of one `t` than the context
/// has, or a payload that is not exactly the declared runs is an `Err`.
pub fn decode_runs_into(entry: &[u8], totals: &[(u64, u64)], runs: &mut Vec<Run>) -> Result<()> {
    let (n_runs, mut pos) = header(entry, "runs")?;
    runs.clear();
    runs.reserve(n_runs as usize);
    // The index and minority of the previous run, and the units the runs
    // of its `t` hold so far.
    let (mut prev, mut held) = (None::<(u64, u64)>, 0u64);
    for _ in 0..n_runs {
        let head = read_varint(entry, &mut pos)?;
        let (t_gap, many) = (head >> 1, head & 1 == 1);
        let index = prev.map_or(Some(t_gap), |(index, _)| index.checked_add(t_gap));
        let &(t, room) = index
            .and_then(|index| totals.get(usize::try_from(index).ok()?))
            .ok_or_else(|| corrupt("a run's t index lies past its context's totals"))?;
        let m_code = read_varint(entry, &mut pos)?;
        let base = match prev {
            Some((_, prev_m)) if t_gap == 0 => prev_m,
            _ => {
                held = 0;
                0
            }
        };
        let m = base
            .checked_add(m_code)
            .and_then(|m| m.checked_add(1))
            .filter(|&m| m <= t)
            .ok_or_else(|| corrupt(&format!("a run's minority is not in 1..={t}")))?;
        let k = if many {
            read_varint(entry, &mut pos)?
                .checked_add(2)
                .ok_or_else(|| corrupt("a run's unit count overflows 64 bits"))?
        } else {
            1
        };
        held = held.checked_add(k).filter(|&held| held <= room).ok_or_else(|| {
            corrupt(&format!("more minority units of total {t} than the context holds"))
        })?;
        runs.push(Run { minority: m, total: t, units: k });
        prev = Some((index.expect("checked above"), m));
    }
    if pos != entry.len() {
        return Err(corrupt("more runs in the payload than declared"));
    }
    Ok(())
}

/// [`decode_runs_into`] into a fresh list.
pub fn decode_runs(entry: &[u8], totals: &[(u64, u64)]) -> Result<Vec<Run>> {
    let mut runs = Vec::new();
    decode_runs_into(entry, totals, &mut runs)?;
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_are_minimal_and_bounded() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert_eq!(bytes.len(), varint_len(v), "{v}");
            let mut pos = 0;
            assert_eq!(read_varint(&bytes, &mut pos).unwrap(), v);
            assert_eq!(pos, bytes.len());
        }
        let err = |bytes: &[u8]| read_varint(bytes, &mut 0).unwrap_err().to_string();
        assert!(err(&[0x80, 0x00]).contains("over-long"));
        assert!(err(&[0x80]).contains("truncated"));
        assert!(
            err(&[0xff; 9].iter().copied().chain([0x02]).collect::<Vec<_>>()).contains("overflows")
        );
        assert!(err(&[0xff; 10].iter().copied().chain([0x00]).collect::<Vec<_>>())
            .contains("overflows"));
    }

    #[test]
    fn entry_layout_is_the_documented_one() {
        assert_eq!(encode(&[]), [0, 0]);
        // units 3, 4, 200 with counts 1, 130, 2: gaps 3, 0, 195.
        let entry = encode(&[(3, 1), (4, 130), (200, 2)]);
        assert_eq!(entry, [3, 8, 3, 0, 0, 0x81, 0x01, 0xc3, 0x01, 1]);
        assert_eq!(entry_len(&entry).unwrap(), entry.len());
        assert_eq!(decode(&entry, 201).unwrap(), [(3, 1), (4, 130), (200, 2)]);
        assert!(decode(&entry, 200).is_err(), "unit 200 of 200");
    }

    #[test]
    fn run_table_layout_is_the_documented_one() {
        let run = |m, t, k| Run { minority: m, total: t, units: k };
        // Distinct totals 2, 5, 9 (indices 0, 1, 2) with 3, 4, 1 units.
        let totals = [(2, 3), (5, 4), (9, 1)];
        assert_eq!(encode_runs(&[], &totals), [0, 0]);
        let runs = [run(1, 2, 1), run(2, 5, 3), run(4, 5, 1), run(9, 9, 1)];
        let entry = encode_runs(&runs, &totals);
        // (t index 0, m 1, k 1): head 0 << 1 | 0, m_code 0.
        // (index 1, m 2, k 3):   head 1 << 1 | 1, m_code 1, k − 2 = 1.
        // (index 1, m 4, k 1):   head 0 << 1 | 0, m_code 4 − 2 − 1 = 1.
        // (index 2, m 9, k 1):   head 1 << 1 | 0, m_code 8.
        assert_eq!(entry, [4, 9, 0, 0, 3, 1, 1, 0, 1, 2, 8]);
        assert_eq!(entry_len(&entry).unwrap(), entry.len());
        assert_eq!(decode_runs(&entry, &totals).unwrap(), runs);
        let refused = |entry: &[u8], totals: &[(u64, u64)], needle: &str| {
            let err = decode_runs(entry, totals).unwrap_err().to_string();
            assert!(err.contains(needle), "{entry:?}: {err}");
        };
        refused(&entry, &totals[..2], "past its context");
        refused(&entry, &[(2, 3), (5, 3), (9, 1)], "more minority units of total 5");
        refused(&[1, 2, 0, 2], &totals, "not in 1..=2");
        refused(&[1, 3, 0, 0, 0], &totals, "more runs");
    }
}
