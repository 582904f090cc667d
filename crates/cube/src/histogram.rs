//! The canonical byte form of a per-unit histogram — the one shape a
//! maintenance-store entry has in the snapshot file, in a mapped region,
//! and on the heap (`scube-cube::histogram`).
//!
//! A histogram is a list of `(unit, count)` pairs, units strictly
//! ascending, counts nonzero. Its entry is
//!
//! ```text
//! varint n_pairs, varint payload_len, payload
//! payload = n_pairs × (varint gap, varint count − 1)
//! gap     = unit               for the first pair
//!           unit − prev − 1    after it
//! ```
//!
//! with every varint a minimal-length unsigned LEB128. The deltas make the
//! two invariants *unrepresentable* instead of checked: no byte string
//! decodes to a repeated or descending unit, or to a zero count. What is
//! left to reject — over-long or overflowing varints, a unit outside the
//! universe, a payload that does not hold exactly `n_pairs` pairs in
//! exactly `payload_len` bytes — [`decode`] rejects, so a histogram has
//! exactly one accepted byte string and `encode(decode(b)) == b`.
//! `payload_len` is what lets a reader step over an entry in O(1)
//! ([`entry_len`]) without looking inside it.
//!
//! With one unit per company the counts are board sizes and the gaps a few
//! tens: about 2 bytes per pair against 12 as fixed-width `(u32, u64)`.

use scube_common::{Result, ScubeError};

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

/// Read an entry's two header varints: its pair count, checked against
/// the payload it declares and holds, and the offset of that payload.
fn header(entry: &[u8]) -> Result<(u64, usize)> {
    let mut pos = 0;
    let n_pairs = read_varint(entry, &mut pos)?;
    let payload_len = read_varint(entry, &mut pos)?;
    if (entry.len() - pos) as u64 != payload_len {
        return Err(corrupt("payload length disagrees with the entry"));
    }
    // A pair takes at least two bytes, which also bounds an allocation by
    // bytes actually in hand.
    if n_pairs > payload_len / 2 {
        return Err(corrupt("fewer pairs in the payload than declared"));
    }
    Ok((n_pairs, pos))
}

/// Decode and validate exactly one entry over a universe of `n_units`
/// units. Every accepted `entry` is the [`encode`] of what comes back.
pub fn decode(entry: &[u8], n_units: u32) -> Result<Vec<(u32, u64)>> {
    let mut pairs = Vec::with_capacity(header(entry)?.0 as usize);
    decode_each(entry, n_units, |unit, count| pairs.push((unit, count)))?;
    Ok(pairs)
}

/// [`decode`] without the list: hand each `(unit, count)` pair to `pair`
/// in ascending unit order as it is read. The validation is the same; an
/// `Err` may come after some pairs were handed over, so a caller acts on
/// them only once the whole entry decoded.
pub fn decode_each(entry: &[u8], n_units: u32, mut pair: impl FnMut(u32, u64)) -> Result<()> {
    let (n_pairs, mut pos) = header(entry)?;
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
        pair(unit as u32, count);
        next = unit + 1;
    }
    if pos != entry.len() {
        return Err(corrupt("more pairs in the payload than declared"));
    }
    Ok(())
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
}
