//! 64-bit EWAH (Enhanced Word-Aligned Hybrid) compressed bitmap.
//!
//! Layout follows JavaEWAH: the bitmap is a sequence of 64-bit words.
//! A *marker* word encodes a run of "clean" words (all-zero or all-one)
//! followed by a count of verbatim "literal" words:
//!
//! ```text
//! bit 0        : value of the clean run (0 or 1)
//! bits 1..=32  : number of clean words (RUN_MAX = 2^32 - 1)
//! bits 33..=63 : number of literal words that follow (LIT_MAX = 2^31 - 1)
//! ```
//!
//! Bitmaps are logically infinite and zero-extended, so trailing zero runs
//! are never stored. Binary operations merge the two compressed streams in
//! `O(stored words)` without decompressing to a dense form.

use scube_common::mmap::{ByteRegion, MappedSlice, Store};

const RUN_MAX: u64 = (1 << 32) - 1;
const LIT_MAX: u64 = (1 << 31) - 1;

#[inline]
fn encode_marker(ones: bool, run: u64, lit: u64) -> u64 {
    debug_assert!(run <= RUN_MAX && lit <= LIT_MAX);
    (ones as u64) | (run << 1) | (lit << 33)
}

#[inline]
fn decode_marker(m: u64) -> (bool, u64, u64) {
    (m & 1 == 1, (m >> 1) & RUN_MAX, (m >> 33) & LIT_MAX)
}

/// An EWAH-compressed bitmap over `u32` ids.
///
/// The word stream lives in a [`Store`]: heap-owned on the build and
/// update paths, borrowed straight from a mapped snapshot on the
/// [`EwahBitmap::map_slot`] path. All kernels read through `&[u64]`, so they
/// cannot tell the difference.
#[derive(Debug, Clone, Default)]
pub struct EwahBitmap {
    words: Store<u64>,
    card: u64,
}

/// One decoded segment of the compressed stream.
#[derive(Debug, Clone, Copy)]
enum Seg<'a> {
    /// `nwords` words all equal to 0 or to `u64::MAX`.
    Clean { ones: bool, nwords: u64 },
    /// Verbatim words.
    Lit(&'a [u64]),
}

impl Seg<'_> {
    /// Number of words the segment covers.
    fn len(&self) -> usize {
        match self {
            Seg::Clean { nwords, .. } => *nwords as usize,
            Seg::Lit(words) => words.len(),
        }
    }
}

/// Iterator over the segments of a compressed stream.
struct RawSegs<'a> {
    words: &'a [u64],
    pos: usize,
    pending_lit: Option<(usize, usize)>,
}

impl<'a> RawSegs<'a> {
    fn new(words: &'a [u64]) -> Self {
        RawSegs { words, pos: 0, pending_lit: None }
    }
}

impl<'a> Iterator for RawSegs<'a> {
    type Item = Seg<'a>;

    fn next(&mut self) -> Option<Seg<'a>> {
        if let Some((start, len)) = self.pending_lit.take() {
            return Some(Seg::Lit(&self.words[start..start + len]));
        }
        while self.pos < self.words.len() {
            let (ones, run, lit) = decode_marker(self.words[self.pos]);
            let lit_start = self.pos + 1;
            self.pos = lit_start + lit as usize;
            debug_assert!(self.pos <= self.words.len(), "corrupt EWAH stream");
            if run > 0 {
                if lit > 0 {
                    self.pending_lit = Some((lit_start, lit as usize));
                }
                return Some(Seg::Clean { ones, nwords: run });
            }
            if lit > 0 {
                return Some(Seg::Lit(&self.words[lit_start..lit_start + lit as usize]));
            }
            // Empty marker (can occur at the start of an empty bitmap).
        }
        None
    }
}

/// Word-granular cursor over a compressed stream, zero-extended at the end.
struct Cursor<'a> {
    segs: RawSegs<'a>,
    cur: Cur<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Cur<'a> {
    Clean { ones: bool, left: u64 },
    Lit { words: &'a [u64], i: usize },
    End,
}

impl<'a> Cursor<'a> {
    fn new(bitmap: &'a EwahBitmap) -> Self {
        let mut c = Cursor { segs: RawSegs::new(&bitmap.words), cur: Cur::End };
        c.bump();
        c
    }

    fn bump(&mut self) {
        self.cur = match self.segs.next() {
            Some(Seg::Clean { ones, nwords }) => Cur::Clean { ones, left: nwords },
            Some(Seg::Lit(words)) => Cur::Lit { words, i: 0 },
            None => Cur::End,
        };
    }

    fn is_end(&self) -> bool {
        matches!(self.cur, Cur::End)
    }

    /// Consume and return the next word, or `None` past the stored end.
    fn next_word(&mut self) -> Option<u64> {
        match &mut self.cur {
            Cur::Clean { ones, left } => {
                let w = if *ones { u64::MAX } else { 0 };
                *left -= 1;
                if *left == 0 {
                    self.bump();
                }
                Some(w)
            }
            Cur::Lit { words, i } => {
                let w = words[*i];
                *i += 1;
                if *i == words.len() {
                    self.bump();
                }
                Some(w)
            }
            Cur::End => None,
        }
    }

    /// If positioned on a clean segment, report `(ones, remaining_words)`.
    fn peek_clean(&self) -> Option<(bool, u64)> {
        match self.cur {
            Cur::Clean { ones, left } => Some((ones, left)),
            _ => None,
        }
    }

    /// Consume `n` words from the current clean segment (`n` ≤ remaining).
    fn consume_clean(&mut self, n: u64) {
        match &mut self.cur {
            Cur::Clean { left, .. } => {
                debug_assert!(n <= *left);
                *left -= n;
                if *left == 0 {
                    self.bump();
                }
            }
            _ => unreachable!("consume_clean on non-clean cursor"),
        }
    }

    /// If positioned on a literal segment, borrow its remaining words.
    ///
    /// The slice borrows the *bitmap* (lifetime `'a`), not the cursor, so
    /// callers can keep it across a later [`Cursor::consume_lit`] — that is
    /// what lets the merge hand whole literal blocks to the word kernels.
    fn peek_lit(&self) -> Option<&'a [u64]> {
        match self.cur {
            Cur::Lit { words, i } => Some(&words[i..]),
            _ => None,
        }
    }

    /// Consume `n` words from the current literal segment (`n` ≤ remaining).
    fn consume_lit(&mut self, n: usize) {
        match &mut self.cur {
            Cur::Lit { words, i } => {
                debug_assert!(*i + n <= words.len());
                *i += n;
                if *i == words.len() {
                    self.bump();
                }
            }
            _ => unreachable!("consume_lit on non-literal cursor"),
        }
    }
}

/// Builds an EWAH stream from a sequence of words, run-compressing on the fly.
#[derive(Debug)]
pub struct Appender {
    words: Vec<u64>,
    marker_pos: usize,
    run_bit: bool,
    run_len: u64,
    lit_cnt: u64,
    card: u64,
}

impl Default for Appender {
    fn default() -> Self {
        Self::new()
    }
}

impl Appender {
    /// Start an empty stream.
    pub fn new() -> Self {
        Self::with_buffer(Vec::new())
    }

    /// Start an empty stream that reuses `buf`'s allocation (cleared
    /// first). This is what makes the batched k-way AND allocation-free:
    /// the ping-pong accumulators hand their buffers back and forth
    /// instead of allocating a fresh word vector per step.
    pub fn with_buffer(mut buf: Vec<u64>) -> Self {
        buf.clear();
        buf.push(0);
        Appender { words: buf, marker_pos: 0, run_bit: false, run_len: 0, lit_cnt: 0, card: 0 }
    }

    /// Resume the stream `bitmap` at its end: the appender it would have
    /// been in after its last pushed word, and the number of words the
    /// stream covers. Only the markers are read (a hop per marker); the
    /// words are taken over, copied only if mapped. The count is the span
    /// up to the last set bit only when the stream ends as
    /// [`Self::finish`] leaves it ([`canonical_tail`]), which every
    /// constructor guarantees and both slot loaders check. The card is
    /// the caller's to set.
    fn resume(mut bitmap: EwahBitmap) -> (Self, u64) {
        let words = bitmap.words.take_vec();
        if words.is_empty() {
            return (Appender::with_buffer(words), 0);
        }
        let (mut marker_pos, mut covered) = (0, 0);
        loop {
            let (_, run, lit) = decode_marker(words[marker_pos]);
            covered += run + lit;
            let next = marker_pos + 1 + lit as usize;
            if next >= words.len() {
                break;
            }
            marker_pos = next;
        }
        let (run_bit, run_len, lit_cnt) = decode_marker(words[marker_pos]);
        (Appender { words, marker_pos, run_bit, run_len, lit_cnt, card: 0 }, covered)
    }

    fn seal_marker(&mut self) {
        self.words[self.marker_pos] = encode_marker(self.run_bit, self.run_len, self.lit_cnt);
    }

    fn new_marker(&mut self) {
        self.seal_marker();
        self.marker_pos = self.words.len();
        self.words.push(0);
        self.run_bit = false;
        self.run_len = 0;
        self.lit_cnt = 0;
    }

    /// Append `n` clean words of the given value.
    pub fn push_clean(&mut self, ones: bool, mut n: u64) {
        if ones {
            self.card += 64 * n;
        }
        while n > 0 {
            if self.lit_cnt > 0
                || (self.run_len > 0 && self.run_bit != ones)
                || self.run_len == RUN_MAX
            {
                self.new_marker();
            }
            if self.run_len == 0 {
                self.run_bit = ones;
            }
            let take = n.min(RUN_MAX - self.run_len);
            self.run_len += take;
            n -= take;
        }
    }

    /// Append one word, auto-compressing all-zero / all-one words.
    pub fn push_word(&mut self, w: u64) {
        if w == 0 {
            self.push_clean(false, 1);
        } else if w == u64::MAX {
            self.push_clean(true, 1);
        } else {
            self.card += u64::from(w.count_ones());
            if self.lit_cnt == LIT_MAX {
                self.new_marker();
            }
            self.lit_cnt += 1;
            self.words.push(w);
        }
    }

    /// Append a block of words, classifying clean runs and literal
    /// stretches in bulk. Produces the exact marker/word stream a
    /// word-at-a-time [`Appender::push_word`] loop would — the canonical
    /// encoding is a pure function of the pushed bits, which is what keeps
    /// block-built bitmaps byte-identical to scalar-built ones — but feeds
    /// literal stretches through `extend_from_slice` plus one unrolled
    /// popcount instead of a branch per word.
    pub fn push_words(&mut self, words: &[u64]) {
        let mut i = 0;
        while i < words.len() {
            let w = words[i];
            if w == 0 || w == u64::MAX {
                let mut j = i + 1;
                while j < words.len() && words[j] == w {
                    j += 1;
                }
                self.push_clean(w == u64::MAX, (j - i) as u64);
                i = j;
            } else {
                let mut j = i + 1;
                while j < words.len() && words[j] != 0 && words[j] != u64::MAX {
                    j += 1;
                }
                self.push_literals(&words[i..j]);
                i = j;
            }
        }
    }

    /// Append literal (dirty) words; none may be all-zero or all-one.
    fn push_literals(&mut self, mut lits: &[u64]) {
        debug_assert!(lits.iter().all(|&w| w != 0 && w != u64::MAX));
        while !lits.is_empty() {
            if self.lit_cnt == LIT_MAX {
                self.new_marker();
            }
            let take = ((LIT_MAX - self.lit_cnt) as usize).min(lits.len());
            self.lit_cnt += take as u64;
            self.words.extend_from_slice(&lits[..take]);
            self.card += crate::kernels::popcount_words(&lits[..take]);
            lits = &lits[take..];
        }
    }

    /// Finish the stream, trimming any trailing zero run (bitmaps are
    /// implicitly zero-extended, so trailing zeros carry no information).
    pub fn finish(mut self) -> EwahBitmap {
        if self.lit_cnt == 0 && !self.run_bit {
            self.run_len = 0;
        }
        self.seal_marker();
        if self.marker_pos > 0 && self.words[self.marker_pos] == 0 {
            self.words.pop();
        }
        EwahBitmap { words: self.words.into(), card: self.card }
    }
}

impl EwahBitmap {
    /// The empty bitmap.
    pub fn new() -> Self {
        EwahBitmap::default()
    }

    /// Number of stored 64-bit words (compression diagnostics).
    pub fn stored_words(&self) -> usize {
        self.words.len()
    }

    /// Heap bytes used by the compressed representation (0 when the words
    /// are served from a mapped snapshot).
    pub fn heap_bytes(&self) -> usize {
        self.words.heap_capacity() * 8
    }

    /// Iterate set-bit positions in increasing order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits { segs: RawSegs::new(&self.words), word_index: 0, state: SetBitsState::NeedSeg }
    }

    /// Complement within the universe `[0, nbits)`.
    #[must_use]
    pub fn not_upto(&self, nbits: u64) -> EwahBitmap {
        let full_words = nbits / 64;
        let rem_bits = (nbits % 64) as u32;
        let mut cur = Cursor::new(self);
        let mut out = Appender::new();
        let mut done = 0u64;
        while done < full_words {
            match cur.peek_clean() {
                Some((ones, left)) => {
                    let n = left.min(full_words - done);
                    out.push_clean(!ones, n);
                    cur.consume_clean(n);
                    done += n;
                }
                None => {
                    let w = cur.next_word().unwrap_or(0);
                    out.push_word(!w);
                    done += 1;
                }
            }
        }
        if rem_bits > 0 {
            let w = cur.next_word().unwrap_or(0);
            let mask = (1u64 << rem_bits) - 1;
            out.push_word(!w & mask);
        }
        out.finish()
    }

    fn binary_op(&self, other: &EwahBitmap, op: BinOp) -> EwahBitmap {
        self.binary_op_with_buffer(other, op, Vec::new())
    }

    /// The compressed-stream merge, writing into a reused word buffer.
    ///
    /// Unlike the classic word-at-a-time merge, segments are consumed in
    /// *blocks*: clean×clean runs emit one clean run (as before), a clean
    /// run meeting a literal block resolves the whole overlap at once
    /// (copy / zero-run / unrolled NOT, depending on the op), and two
    /// literal blocks run through the unrolled word kernels in
    /// [`crate::kernels`] via a stack chunk. The [`Appender`] re-compresses
    /// greedily either way, so the output stream is bit-identical to the
    /// scalar merge's.
    fn binary_op_with_buffer(&self, other: &EwahBitmap, op: BinOp, buf: Vec<u64>) -> EwahBitmap {
        let mut a = Cursor::new(self);
        let mut b = Cursor::new(other);
        let mut out = Appender::with_buffer(buf);
        let mut block = [0u64; OP_BLOCK];
        loop {
            if a.is_end() && b.is_end() {
                break;
            }
            if a.is_end() || b.is_end() {
                // Zero-extended tail: the op degenerates per side.
                match op {
                    BinOp::And => break, // x AND 0 = 0
                    BinOp::AndNot => {
                        if a.is_end() {
                            break; // 0 \ x = 0
                        }
                        copy_rest(&mut a, &mut out); // x \ 0 = x
                        break;
                    }
                    BinOp::Or | BinOp::Xor => {
                        let rest = if a.is_end() { &mut b } else { &mut a };
                        copy_rest(rest, &mut out);
                        break;
                    }
                }
            }
            match (a.peek_clean(), b.peek_clean()) {
                (Some((oa, la)), Some((ob, lb))) => {
                    let n = la.min(lb);
                    let ones = match op {
                        BinOp::And => oa && ob,
                        BinOp::Or => oa || ob,
                        BinOp::AndNot => oa && !ob,
                        BinOp::Xor => oa != ob,
                    };
                    out.push_clean(ones, n);
                    a.consume_clean(n);
                    b.consume_clean(n);
                }
                (Some((oa, la)), None) => {
                    let lit = b.peek_lit().expect("not end, not clean");
                    let n = la.min(lit.len() as u64) as usize;
                    let lit = &lit[..n];
                    match (op, oa) {
                        (BinOp::And, true) | (BinOp::Or, false) | (BinOp::Xor, false) => {
                            out.push_words(lit)
                        }
                        (BinOp::And, false) | (BinOp::AndNot, false) => {
                            out.push_clean(false, n as u64)
                        }
                        (BinOp::Or, true) => out.push_clean(true, n as u64),
                        (BinOp::AndNot, true) | (BinOp::Xor, true) => {
                            push_not_words(&mut out, lit, &mut block)
                        }
                    }
                    a.consume_clean(n as u64);
                    b.consume_lit(n);
                }
                (None, Some((ob, lb))) => {
                    let lit = a.peek_lit().expect("not end, not clean");
                    let n = lb.min(lit.len() as u64) as usize;
                    let lit = &lit[..n];
                    match (op, ob) {
                        (BinOp::And, true)
                        | (BinOp::Or, false)
                        | (BinOp::AndNot, false)
                        | (BinOp::Xor, false) => out.push_words(lit),
                        (BinOp::And, false) | (BinOp::AndNot, true) => {
                            out.push_clean(false, n as u64)
                        }
                        (BinOp::Or, true) => out.push_clean(true, n as u64),
                        (BinOp::Xor, true) => push_not_words(&mut out, lit, &mut block),
                    }
                    a.consume_lit(n);
                    b.consume_clean(n as u64);
                }
                (None, None) => {
                    let wa = a.peek_lit().expect("not end, not clean");
                    let wb = b.peek_lit().expect("not end, not clean");
                    let n = wa.len().min(wb.len());
                    let mut i = 0;
                    while i < n {
                        let k = OP_BLOCK.min(n - i);
                        let dst = &mut block[..k];
                        let (xa, xb) = (&wa[i..i + k], &wb[i..i + k]);
                        match op {
                            BinOp::And => crate::kernels::map2_into(xa, xb, dst, |x, y| x & y),
                            BinOp::Or => crate::kernels::map2_into(xa, xb, dst, |x, y| x | y),
                            BinOp::AndNot => crate::kernels::map2_into(xa, xb, dst, |x, y| x & !y),
                            BinOp::Xor => crate::kernels::map2_into(xa, xb, dst, |x, y| x ^ y),
                        }
                        out.push_words(dst);
                        i += k;
                    }
                    a.consume_lit(n);
                    b.consume_lit(n);
                }
            }
        }
        out.finish()
    }

    /// Symmetric difference.
    #[must_use]
    pub fn xor(&self, other: &EwahBitmap) -> EwahBitmap {
        self.binary_op(other, BinOp::Xor)
    }

    /// Position of the highest set bit, or `None` when empty. One pass over
    /// the compressed segments (no decompression).
    ///
    /// The position is the stream's own, with no narrowing to the `u32` id
    /// type: a decoded slot can hold bits at or past 2³², which
    /// [`EwahBitmap::iter`] would alias onto small ids, so this is what a
    /// loader compares against its universe before trusting the ids
    /// (saturating, since the stream may come from a hostile file).
    pub fn max_id(&self) -> Option<u64> {
        let mut word_index = 0u64;
        let mut max = None;
        for seg in RawSegs::new(&self.words) {
            match seg {
                Seg::Clean { ones, nwords } => {
                    word_index = word_index.saturating_add(nwords);
                    if ones {
                        max = Some(word_index.saturating_mul(64) - 1);
                    }
                }
                Seg::Lit(words) => {
                    if let Some(i) = words.iter().rposition(|&w| w != 0) {
                        let top = 63 - u64::from(words[i].leading_zeros());
                        let wi = word_index.saturating_add(i as u64);
                        max = Some(wi.saturating_mul(64).saturating_add(top));
                    }
                    word_index = word_index.saturating_add(words.len() as u64);
                }
            }
        }
        max
    }
}

#[derive(Debug, Clone, Copy)]
enum BinOp {
    And,
    Or,
    AndNot,
    Xor,
}

/// Stack chunk (in words) for literal-block op results: 1 KiB, enough to
/// amortize loop overhead while staying cache- and stack-friendly.
const OP_BLOCK: usize = 128;

fn copy_rest(cur: &mut Cursor<'_>, out: &mut Appender) {
    loop {
        match cur.peek_clean() {
            Some((ones, left)) => {
                out.push_clean(ones, left);
                cur.consume_clean(left);
            }
            None => match cur.peek_lit() {
                Some(lit) => {
                    let n = lit.len();
                    out.push_words(lit);
                    cur.consume_lit(n);
                }
                None => break,
            },
        }
    }
}

/// Push `!lit` through a stack chunk (ones-run meeting a literal block
/// under AND-NOT / XOR).
fn push_not_words(out: &mut Appender, lit: &[u64], block: &mut [u64; OP_BLOCK]) {
    let mut i = 0;
    while i < lit.len() {
        let k = OP_BLOCK.min(lit.len() - i);
        crate::kernels::not_words_into(&lit[i..i + k], &mut block[..k]);
        out.push_words(&block[..k]);
        i += k;
    }
}

/// Whether a stream whose last marker sits at `last` ends as
/// [`Appender::finish`] leaves it: in a non-zero literal or a ones-run, or
/// as the lone empty marker of the empty set — never in a zero literal, a
/// zero run or an empty marker, which would stretch the span the stream
/// covers past its last set bit. [`EwahBitmap::append_sorted`] resumes a
/// stream at that span, so both slot loaders refuse any other tail.
fn canonical_tail(words: &[u64], last: usize) -> bool {
    match decode_marker(words[last]) {
        (_, _, 1..) => words[words.len() - 1] != 0,
        (ones, run, 0) => (ones && run > 0) || (last == 0 && words[0] == 0),
    }
}

/// Walk a compressed stream and return its cardinality, or `None` when the
/// marker structure is inconsistent with the word count or the stream
/// does not end in a [`canonical_tail`] (corrupt input).
fn validate_stream(words: &[u64]) -> Option<u64> {
    let mut pos = 0usize;
    let mut last = 0usize;
    let mut card = 0u64;
    while pos < words.len() {
        last = pos;
        let (ones, run, lit) = decode_marker(words[pos]);
        if ones {
            card = card.checked_add(64u64.checked_mul(run)?)?;
        }
        let lit_start = pos + 1;
        let lit_end = lit_start.checked_add(lit as usize)?;
        if lit_end > words.len() {
            return None;
        }
        for &w in &words[lit_start..lit_end] {
            card += u64::from(w.count_ones());
        }
        pos = lit_end;
    }
    (words.is_empty() || canonical_tail(words, last)).then_some(card)
}

/// Which kind of segment covers the last represented word of a stream —
/// the only word that may carry bits at or above the universe bound.
enum LastSeg {
    Clean(bool),
    /// Index of the final literal word in the stream.
    Lit(usize),
}

/// Structure-only walk for the mapped path: verify the marker chain tiles
/// the buffer exactly, ends in a [`canonical_tail`] and that no represented
/// bit can be `>= universe`, without reading any literal word except the
/// final one — the cost is proportional to the number of markers, not the
/// data, which is what keeps `open_mmap` O(ms) on multi-GB snapshots.
fn validate_stream_structure(words: &[u64], universe: u32) -> bool {
    let max_words = u64::from(universe).div_ceil(64);
    let mut pos = 0usize;
    let mut span = 0u64; // words represented so far
    let mut last: Option<LastSeg> = None;
    let mut last_marker = 0usize;
    while pos < words.len() {
        last_marker = pos;
        let (ones, run, lit) = decode_marker(words[pos]);
        let lit_start = pos + 1;
        let Some(lit_end) = lit_start.checked_add(lit as usize) else { return false };
        if lit_end > words.len() {
            return false;
        }
        let Some(s) = span.checked_add(run).and_then(|s| s.checked_add(lit)) else {
            return false;
        };
        span = s;
        if run > 0 {
            last = Some(LastSeg::Clean(ones));
        }
        if lit > 0 {
            last = Some(LastSeg::Lit(lit_end - 1));
        }
        pos = lit_end;
    }
    if span > max_words || !(words.is_empty() || canonical_tail(words, last_marker)) {
        return false;
    }
    // Words before the last one only hold bits < 64·(max_words - 1) ≤
    // universe, so a single check of the segment covering the final word
    // bounds every id the stream can produce.
    let tail_bits = u64::from(universe) % 64;
    if span == max_words && tail_bits != 0 {
        match last {
            Some(LastSeg::Clean(true)) => return false, // ones at/above the bound
            Some(LastSeg::Lit(i)) if words[i] >> tail_bits != 0 => return false,
            _ => {}
        }
    }
    true
}

impl EwahBitmap {
    /// One-byte representation tag stored in snapshot headers, so a reader
    /// can refuse a file whose posting slots are not EWAH word streams.
    pub const SERIAL_TAG: u8 = 1;

    /// Append this bitmap's snapshot *slot* encoding: the bare word stream
    /// as little-endian `u64`s, the table a memory-mapped reader serves in
    /// place. A slot carries no counts or tags of its own — cardinality and
    /// length live in the snapshot's checksummed posting directory and come
    /// back through `card` on the read side.
    ///
    /// `read_slot(write_slot(p), p.cardinality())` reproduces `p` exactly,
    /// and re-writing the decoded bitmap reproduces the original bytes
    /// (stable round-trip).
    pub fn write_slot(&self, out: &mut Vec<u8>) {
        for &w in self.words.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decode an owned bitmap from a slot (the heap-load path). Fully
    /// validating: `None` on any structural defect, on a stream that does
    /// not end as a canonical one does, or when the stream does not hold
    /// exactly `card` set bits. Bit *positions* are not bounded
    /// here — a slot may set bits past any universe, or past 2³² — so a
    /// loader checks [`EwahBitmap::max_id`] before trusting the ids.
    pub fn read_slot(bytes: &[u8], card: u64) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let words: Vec<u64> =
            bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        if validate_stream(&words)? != card {
            return None;
        }
        Some(EwahBitmap { words: words.into(), card })
    }

    /// Borrow a bitmap from a mapped slot (the `open_mmap` path), zero-copy,
    /// validating *structure* only — the marker chain and the stream's
    /// tail, enough to guarantee that every later operation is panic-free
    /// and that every id the bitmap can produce is `< universe`, in time
    /// proportional to the number of markers rather than the data. `card`
    /// comes from the checksummed posting directory and is trusted; a slot
    /// whose actual contents disagree may answer queries wrong, but never
    /// crashes. Callers must have checked the host is little-endian first.
    pub fn map_slot(region: ByteRegion, card: u64, universe: u32) -> Option<Self> {
        let words = MappedSlice::<u64>::new(region)?;
        if !validate_stream_structure(&words, universe) {
            return None;
        }
        Some(EwahBitmap { words: words.into(), card })
    }
}

/// The set algebra every layer above this crate calls. A bitmap behaves like
/// an *infinite, zero-extended* bit vector: ids absent from the set read as
/// 0 regardless of how many words are stored.
impl EwahBitmap {
    /// The full universe `{0, 1, …, n-1}`: a run of set words plus at most
    /// one literal, not an id walk — the cube layers request the universe
    /// for every empty-context lookup.
    pub fn full(n: u32) -> Self {
        let nbits = u64::from(n);
        let mut a = Appender::new();
        a.push_clean(true, nbits / 64);
        if nbits % 64 != 0 {
            a.push_word((1u64 << (nbits % 64)) - 1);
        }
        a.finish()
    }

    /// Build from strictly increasing ids.
    ///
    /// # Panics
    /// If `ids` is not strictly increasing.
    pub fn from_sorted(ids: &[u32]) -> Self {
        let mut out = Appender::new();
        let mut cur_word_idx = 0u64;
        let mut cur_word = 0u64;
        let mut prev: Option<u32> = None;
        for &id in ids {
            assert!(prev.is_none_or(|p| id > p), "ids must be strictly increasing");
            prev = Some(id);
            let w = u64::from(id) / 64;
            let bit = u64::from(id) % 64;
            if w != cur_word_idx {
                out.push_word(cur_word);
                out.push_clean(false, w - cur_word_idx - 1);
                cur_word_idx = w;
                cur_word = 0;
            }
            cur_word |= 1u64 << bit;
        }
        if cur_word != 0 {
            out.push_word(cur_word);
        }
        out.finish()
    }

    /// Extend the set in place with strictly increasing ids, all larger
    /// than every id already present — the shape of a delta-ingest append,
    /// where new transaction ids always follow the existing ones.
    ///
    /// A true tail-append: the stream's markers are hopped to the last one,
    /// the [`Appender`] resumes there (taking back the last literal word
    /// when the first new id falls inside it) and pushes only the new
    /// words, so the cost is the marker count plus the appended span, never
    /// a merge of the stored words. On a canonical stream the result is the
    /// same word stream `from_sorted` builds from the concatenated ids, so
    /// byte-identical snapshots do not depend on the construction path.
    ///
    /// # Panics
    /// If `ids` is not strictly increasing or its first id is not above
    /// every id already present.
    pub fn append_sorted(&mut self, ids: &[u32]) {
        let Some(&first) = ids.first() else {
            return;
        };
        // Every id is new, so the card is counted, not recounted: a mapped
        // posting's card comes from its directory entry, not its words.
        let card = self.card.saturating_add(ids.len() as u64);
        let (mut out, mut covered) = Appender::resume(std::mem::take(self));
        let mut word = 0u64;
        let mut at = u64::from(first) / 64;
        if at + 1 == covered && out.lit_cnt > 0 {
            // The first id shares the last stored word: take it back.
            word = out.words.pop().expect("a literal follows its marker");
            out.lit_cnt -= 1;
            covered -= 1;
        }
        assert!(
            at >= covered && word >> (first % 64) == 0,
            "appended ids must follow every id present"
        );
        out.push_clean(false, at - covered);
        let mut prev = None;
        for &id in ids {
            assert!(prev.is_none_or(|p| id > p), "ids must be strictly increasing");
            prev = Some(id);
            let w = u64::from(id) / 64;
            if w != at {
                out.push_word(word);
                out.push_clean(false, w - at - 1);
                at = w;
                word = 0;
            }
            word |= 1u64 << (id % 64);
        }
        out.push_word(word);
        *self = EwahBitmap { card, ..out.finish() };
    }

    /// Remove strictly increasing ids from the set, all of which must be
    /// present — the shape of a delta-retract, where the caller already
    /// intersected the removal set with this posting.
    ///
    /// The result is the canonical encoding: removing ids and rebuilding
    /// from scratch give the same word stream
    /// (`remove_sorted_matches_from_scratch_build`), which is what keeps
    /// retracted snapshots byte-identical to rebuilt ones.
    ///
    /// # Panics
    /// If `ids` is not strictly increasing or contains an id not present in
    /// the set.
    pub fn remove_sorted(&mut self, ids: &[u32]) {
        if ids.is_empty() {
            return;
        }
        let removal = EwahBitmap::from_sorted(ids);
        // A real assert (not debug-only): the check is one streaming pass
        // over the compressed words, and silently dropping an absent id
        // would desynchronize the caller's histograms from the postings in
        // release builds.
        assert_eq!(self.and_cardinality(&removal), removal.card, "removed ids must all be present");
        // Stream difference: both compressed streams merge word by word
        // without decompressing, and the Appender re-compresses greedily,
        // so the result is the same canonical word stream `from_sorted`
        // would build from the surviving ids — byte-identical snapshots do
        // not depend on the construction path.
        *self = self.binary_op(&removal, BinOp::AndNot);
    }

    /// Set intersection.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        self.binary_op(other, BinOp::And)
    }

    /// Set union.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        self.binary_op(other, BinOp::Or)
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn andnot(&self, other: &Self) -> Self {
        self.binary_op(other, BinOp::AndNot)
    }

    /// Number of ids in the set (a stored field, not a popcount).
    pub fn cardinality(&self) -> u64 {
        self.card
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.card == 0
    }

    /// Visit every id in increasing order, the ids [`EwahBitmap::iter`]
    /// yields. A segment at a time: a ones-run is an id range and a literal
    /// stretch is scanned by `trailing_zeros`, with no per-bit state.
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        let mut at = 0u64;
        for seg in RawSegs::new(&self.words) {
            match seg {
                Seg::Clean { ones, nwords } => {
                    if ones {
                        (at * 64..(at + nwords) * 64).for_each(|id| f(id as u32));
                    }
                    at += nwords;
                }
                Seg::Lit(words) => {
                    crate::kernels::for_each_set_bit(words, at * 64, &mut f);
                    at += words.len() as u64;
                }
            }
        }
    }

    /// The segments covering the first `span` words, each with the index of
    /// its first word, the last one cut at `span`. A run can claim up to
    /// 2³² − 1 words, so this clamp is what keeps the dense walkers below
    /// in bounds on any stream `read_slot` or `map_slot` accepts.
    fn segs_upto(&self, span: usize) -> impl Iterator<Item = (usize, Seg<'_>)> {
        let mut at = 0usize;
        RawSegs::new(&self.words).map_while(move |seg| {
            let start = at;
            let room = span - start;
            let seg = match seg {
                Seg::Clean { ones, nwords } => Seg::Clean { ones, nwords: nwords.min(room as u64) },
                Seg::Lit(words) => Seg::Lit(&words[..words.len().min(room)]),
            };
            at += seg.len();
            (start < span).then_some((start, seg))
        })
    }

    /// The canonical encoding of dense words, bit `b` of `words[i]` being id
    /// `64·i + b`: the inverse of [`EwahBitmap::decode_words_into`], in an
    /// exact-length buffer.
    pub fn from_words(words: &[u64]) -> Self {
        let mut out = Appender::new();
        out.push_words(words);
        let mut bitmap = out.finish();
        bitmap.words.vec_mut().shrink_to_fit();
        bitmap
    }

    /// Write the first `out.len()` words of the bit vector into `out`: the
    /// dense form of the set, zero-extended past the stream's end and cut
    /// at `out.len()`.
    pub fn decode_words_into(&self, out: &mut [u64]) {
        let mut end = 0;
        for (at, seg) in self.segs_upto(out.len()) {
            end = at + seg.len();
            match seg {
                Seg::Clean { ones, .. } => out[at..end].fill(if ones { u64::MAX } else { 0 }),
                Seg::Lit(words) => out[at..end].copy_from_slice(words),
            }
        }
        out[end..].fill(0);
    }

    /// Intersect the dense words `out` with this set in place (`out[i] &=`
    /// word `i` of the bit vector) and return the number of set bits left
    /// in `out`. One pass over the segments: a zero run clears its words, a
    /// ones-run only counts them, and a literal stretch runs through the
    /// fused AND-popcount kernel.
    pub fn and_words_into(&self, out: &mut [u64]) -> u64 {
        let (mut end, mut count) = (0, 0);
        for (at, seg) in self.segs_upto(out.len()) {
            end = at + seg.len();
            let dst = &mut out[at..end];
            count += match seg {
                Seg::Clean { ones: false, .. } => {
                    dst.fill(0);
                    0
                }
                Seg::Clean { ones: true, .. } => crate::kernels::popcount_words(dst),
                Seg::Lit(words) => crate::kernels::and_assign_popcount_words(dst, words),
            };
        }
        out[end..].fill(0);
        count
    }

    /// The number of ids this set shares with the dense words `words`,
    /// cut at `words.len()`: [`EwahBitmap::and_words_into`]'s count, with
    /// nothing written. A zero run costs nothing, a ones-run counts its
    /// words, and a literal stretch runs through the AND-popcount kernel.
    pub fn and_words_cardinality(&self, words: &[u64]) -> u64 {
        self.segs_upto(words.len())
            .map(|(at, seg)| match seg {
                Seg::Clean { ones: false, .. } => 0,
                Seg::Clean { ones: true, nwords } => {
                    crate::kernels::popcount_words(&words[at..at + nwords as usize])
                }
                Seg::Lit(lit) => crate::kernels::and_popcount_words(&words[at..], lit),
            })
            .sum()
    }

    /// Collect the ids into a vector (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.card as usize);
        self.for_each(|id| v.push(id));
        v
    }

    /// Intersection into a caller-owned accumulator, reusing its storage.
    ///
    /// This is the allocation-free building block of the batched k-way AND:
    /// [`EwahBitmap::intersect_many`] ping-pongs two accumulators through
    /// it, so any number of steps costs at most two buffers. (The
    /// intersection of compressed streams can outgrow either input's
    /// storage, so true in-place is not possible, but buffer recycling gets
    /// the same steady-state behavior.)
    pub fn and_into(&self, other: &Self, out: &mut Self) {
        let buf = out.words.take_vec();
        *out = self.binary_op_with_buffer(other, BinOp::And, buf);
    }

    /// In-place intersection (`*self &= other`).
    pub fn and_assign(&mut self, other: &Self) {
        *self = self.and(other);
    }

    /// Batched k-way intersection: smallest-cardinality first (the running
    /// intersection can only shrink), empty short-circuit, and **no per-step
    /// posting allocation** — two accumulators ping-pong through
    /// [`EwahBitmap::and_into`], so k steps cost at most two buffers
    /// regardless of k.
    ///
    /// `None` when `postings` is empty (an empty *intersection* of zero sets
    /// would be the full universe, which a posting cannot represent without
    /// knowing `n`).
    pub fn intersect_many(postings: &[&Self]) -> Option<Self> {
        match postings {
            [] => None,
            [one] => Some((*one).clone()),
            _ => {
                let mut order: Vec<&Self> = postings.to_vec();
                order.sort_by_key(|p| p.card);
                let mut acc = order[0].clone();
                let mut spare = EwahBitmap::new();
                for p in &order[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    acc.and_into(p, &mut spare);
                    std::mem::swap(&mut acc, &mut spare);
                }
                Some(acc)
            }
        }
    }

    /// Cardinality of the intersection, without materializing it — the hot
    /// operation of support counting in Eclat and of per-unit histograms in
    /// the cube builder.
    pub fn and_cardinality(&self, other: &Self) -> u64 {
        // Streaming count: like binary_op(And) but without building output.
        // Clean runs annihilate (zeros) or popcount the other side's
        // literal block wholesale (ones); literal×literal blocks run
        // through the unrolled fused AND-popcount kernel.
        let mut a = Cursor::new(self);
        let mut b = Cursor::new(other);
        let mut count = 0u64;
        loop {
            if a.is_end() || b.is_end() {
                break;
            }
            match (a.peek_clean(), b.peek_clean()) {
                (Some((oa, la)), Some((ob, lb))) => {
                    let n = la.min(lb);
                    if oa && ob {
                        count += 64 * n;
                    }
                    a.consume_clean(n);
                    b.consume_clean(n);
                }
                (Some((oa, la)), None) => {
                    let lit = b.peek_lit().expect("not end, not clean");
                    let n = la.min(lit.len() as u64) as usize;
                    if oa {
                        count += crate::kernels::popcount_words(&lit[..n]);
                    }
                    a.consume_clean(n as u64);
                    b.consume_lit(n);
                }
                (None, Some((ob, lb))) => {
                    let lit = a.peek_lit().expect("not end, not clean");
                    let n = lb.min(lit.len() as u64) as usize;
                    if ob {
                        count += crate::kernels::popcount_words(&lit[..n]);
                    }
                    a.consume_lit(n);
                    b.consume_clean(n as u64);
                }
                (None, None) => {
                    let wa = a.peek_lit().expect("not end, not clean");
                    let wb = b.peek_lit().expect("not end, not clean");
                    let n = wa.len().min(wb.len());
                    count += crate::kernels::and_popcount_words(&wa[..n], &wb[..n]);
                    a.consume_lit(n);
                    b.consume_lit(n);
                }
            }
        }
        count
    }

    /// Membership test, one pass over the compressed segments.
    pub fn contains(&self, id: u32) -> bool {
        let target_word = u64::from(id) / 64;
        let bit = u64::from(id) % 64;
        let mut word_index = 0u64;
        for seg in RawSegs::new(&self.words) {
            match seg {
                Seg::Clean { ones, nwords } => {
                    if target_word < word_index + nwords {
                        return ones;
                    }
                    word_index += nwords;
                }
                Seg::Lit(words) => {
                    if target_word < word_index + words.len() as u64 {
                        let w = words[(target_word - word_index) as usize];
                        return w & (1 << bit) != 0;
                    }
                    word_index += words.len() as u64;
                }
            }
        }
        false
    }
}

impl PartialEq for EwahBitmap {
    /// Semantic equality: equal sets compare equal even if their compressed
    /// encodings differ (e.g. a literal word `0` vs a clean zero run).
    fn eq(&self, other: &Self) -> bool {
        if self.card != other.card {
            return false;
        }
        let mut a = Cursor::new(self);
        let mut b = Cursor::new(other);
        loop {
            if a.is_end() && b.is_end() {
                return true;
            }
            match (a.peek_clean(), b.peek_clean()) {
                (Some((oa, la)), Some((ob, lb))) => {
                    if oa != ob {
                        return false;
                    }
                    let n = la.min(lb);
                    a.consume_clean(n);
                    b.consume_clean(n);
                }
                _ => {
                    let wa = a.next_word().unwrap_or(0);
                    let wb = b.next_word().unwrap_or(0);
                    if wa != wb {
                        return false;
                    }
                }
            }
        }
    }
}

impl Eq for EwahBitmap {}

impl FromIterator<u32> for EwahBitmap {
    /// Collect from an ascending id iterator.
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let ids: Vec<u32> = iter.into_iter().collect();
        EwahBitmap::from_sorted(&ids)
    }
}

/// Iterator over set bits (see [`EwahBitmap::iter`]).
pub struct SetBits<'a> {
    segs: RawSegs<'a>,
    word_index: u64,
    state: SetBitsState<'a>,
}

enum SetBitsState<'a> {
    NeedSeg,
    InClean { ones: bool, left: u64, bit: u32 },
    InLit { words: &'a [u64], i: usize, cur: u64 },
    Done,
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            match &mut self.state {
                SetBitsState::NeedSeg => {
                    self.state = match self.segs.next() {
                        Some(Seg::Clean { ones, nwords }) => {
                            SetBitsState::InClean { ones, left: nwords, bit: 0 }
                        }
                        Some(Seg::Lit(words)) => SetBitsState::InLit { words, i: 0, cur: words[0] },
                        None => SetBitsState::Done,
                    };
                }
                SetBitsState::InClean { ones, left, bit } => {
                    if !*ones {
                        self.word_index += *left;
                        self.state = SetBitsState::NeedSeg;
                        continue;
                    }
                    let id = (self.word_index * 64 + u64::from(*bit)) as u32;
                    *bit += 1;
                    if *bit == 64 {
                        *bit = 0;
                        *left -= 1;
                        self.word_index += 1;
                        if *left == 0 {
                            self.state = SetBitsState::NeedSeg;
                        }
                    }
                    return Some(id);
                }
                SetBitsState::InLit { words, i, cur } => {
                    if *cur == 0 {
                        *i += 1;
                        self.word_index += 1;
                        if *i == words.len() {
                            self.state = SetBitsState::NeedSeg;
                        } else {
                            *cur = words[*i];
                        }
                        continue;
                    }
                    let tz = cur.trailing_zeros();
                    *cur &= *cur - 1;
                    return Some((self.word_index * 64 + u64::from(tz)) as u32);
                }
                SetBitsState::Done => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(ids: &[u32]) -> EwahBitmap {
        EwahBitmap::from_sorted(ids)
    }

    #[test]
    fn empty_bitmap() {
        let b = EwahBitmap::new();
        assert_eq!(b.cardinality(), 0);
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<u32>::new());
        assert!(!b.contains(0));
    }

    #[test]
    fn roundtrip_small() {
        let ids = vec![0, 1, 5, 63, 64, 65, 1000];
        let b = bm(&ids);
        assert_eq!(b.to_vec(), ids);
        assert_eq!(b.cardinality(), ids.len() as u64);
    }

    #[test]
    fn roundtrip_sparse_large_gaps() {
        let ids = vec![0, 1_000_000, 2_000_000, 50_000_000];
        let b = bm(&ids);
        assert_eq!(b.to_vec(), ids);
        // Sparse data must compress: 50M bits would be ~780K dense words.
        assert!(b.stored_words() < 20, "stored {} words", b.stored_words());
    }

    #[test]
    fn roundtrip_dense_run() {
        let ids: Vec<u32> = (0..10_000).collect();
        let b = bm(&ids);
        assert_eq!(b.cardinality(), 10_000);
        assert_eq!(b.to_vec(), ids);
        // A solid run of ones compresses to a handful of words.
        assert!(b.stored_words() < 10, "stored {} words", b.stored_words());
    }

    #[test]
    fn contains_all_cases() {
        let b = bm(&[3, 64, 128, 129]);
        for id in [3u32, 64, 128, 129] {
            assert!(b.contains(id), "missing {id}");
        }
        for id in [0u32, 2, 63, 65, 127, 130, 100_000] {
            assert!(!b.contains(id), "spurious {id}");
        }
    }

    #[test]
    fn and_overlapping() {
        let a = bm(&[1, 2, 3, 100, 200]);
        let b = bm(&[2, 100, 300]);
        assert_eq!(a.and(&b).to_vec(), vec![2, 100]);
        assert_eq!(a.and_cardinality(&b), 2);
    }

    #[test]
    fn or_disjoint() {
        let a = bm(&[1, 1000]);
        let b = bm(&[5, 500]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 5, 500, 1000]);
    }

    #[test]
    fn andnot_and_xor() {
        let a = bm(&[1, 2, 3, 4]);
        let b = bm(&[2, 4, 6]);
        assert_eq!(a.andnot(&b).to_vec(), vec![1, 3]);
        assert_eq!(b.andnot(&a).to_vec(), vec![6]);
        assert_eq!(a.xor(&b).to_vec(), vec![1, 3, 6]);
    }

    #[test]
    fn ops_with_empty() {
        let a = bm(&[1, 2, 3]);
        let e = EwahBitmap::new();
        assert_eq!(a.and(&e).to_vec(), Vec::<u32>::new());
        assert_eq!(a.or(&e).to_vec(), vec![1, 2, 3]);
        assert_eq!(e.or(&a).to_vec(), vec![1, 2, 3]);
        assert_eq!(a.andnot(&e).to_vec(), vec![1, 2, 3]);
        assert_eq!(e.andnot(&a).to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn not_upto() {
        let a = bm(&[0, 2, 4]);
        assert_eq!(a.not_upto(6).to_vec(), vec![1, 3, 5]);
        assert_eq!(a.not_upto(5).to_vec(), vec![1, 3]);
        assert_eq!(a.not_upto(0).to_vec(), Vec::<u32>::new());
        let e = EwahBitmap::new();
        assert_eq!(e.not_upto(130).cardinality(), 130);
    }

    #[test]
    fn not_upto_word_boundary() {
        let a = bm(&[63, 64]);
        let c = a.not_upto(128);
        assert_eq!(c.cardinality(), 126);
        assert!(!c.contains(63));
        assert!(!c.contains(64));
        assert!(c.contains(0));
        assert!(c.contains(127));
    }

    #[test]
    fn semantic_equality() {
        let a = bm(&[1, 2, 3]);
        let b = bm(&[1, 2, 3]);
        let c = bm(&[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Different construction path, same set.
        let d = bm(&[1]).or(&bm(&[2, 3]));
        assert_eq!(a, d);
    }

    #[test]
    fn double_negation_is_identity() {
        let ids = vec![0, 7, 63, 64, 300];
        let a = bm(&ids);
        assert_eq!(a.not_upto(301).not_upto(301), a);
    }

    #[test]
    fn from_iterator() {
        let b: EwahBitmap = (10..20u32).collect();
        assert_eq!(b.cardinality(), 10);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_input_panics() {
        bm(&[5, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_input_panics() {
        bm(&[5, 5]);
    }

    #[test]
    fn long_alternating_literals() {
        // Alternating bits produce pure literal words; exercise marker limits.
        let ids: Vec<u32> = (0..100_000).step_by(2).collect();
        let b = bm(&ids);
        assert_eq!(b.cardinality(), ids.len() as u64);
        assert_eq!(b.to_vec(), ids);
    }

    #[test]
    fn and_cardinality_matches_materialized() {
        let a = bm(&(0..5000).step_by(3).collect::<Vec<_>>());
        let b = bm(&(0..5000).step_by(7).collect::<Vec<_>>());
        assert_eq!(a.and_cardinality(&b), a.and(&b).cardinality());
        assert_eq!(b.and_cardinality(&a), a.and(&b).cardinality());
    }

    #[test]
    fn max_id_near_u32_limit() {
        let ids = vec![u32::MAX - 1, u32::MAX];
        let b = bm(&ids);
        assert_eq!(b.to_vec(), ids);
        assert!(b.contains(u32::MAX));
        assert_eq!(b.max_id(), Some(u64::from(u32::MAX)));
        assert_eq!(EwahBitmap::new().max_id(), None);
        assert_eq!(bm(&[3, 64]).max_id(), Some(64));
        assert_eq!(EwahBitmap::full(128).max_id(), Some(127));
        // Past the limit: a decoded slot with its one bit at 2³² iterates
        // as id 0 (positions narrow to `u32`), but `max_id` reports the
        // position the stream really holds.
        let slot: Vec<u8> =
            [encode_marker(false, 1 << 26, 1), 1u64].iter().flat_map(|w| w.to_le_bytes()).collect();
        let past = EwahBitmap::read_slot(&slot, 1).expect("structurally valid");
        assert_eq!(past.to_vec(), vec![0]);
        assert_eq!(past.max_id(), Some(1 << 32));
    }
}
