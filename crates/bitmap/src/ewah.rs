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
//! are never stored. The type is the storage codec of a tidset; its set
//! algebra crosses into plain `u64` words (decode, AND into, count, gather)
//! in one walk over the segments, and every intersection runs on the words.

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
    /// first).
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

/// The constructors, the tail-append and the dense-word set algebra every
/// layer above this crate calls. A bitmap behaves like an *infinite,
/// zero-extended* bit vector: ids absent from the set read as 0 regardless
/// of how many words are stored.
impl EwahBitmap {
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

    /// Gather the membership of the ascending `ids` into dense words: bit
    /// `i` of `out` (bit `i % 64` of `out[i / 64]`) is set when `ids[i]` is
    /// in the set, so the result is numbered by position in `ids`, not by
    /// id. `out` is zeroed first and must hold ⌈`ids.len()` / 64⌉ words.
    /// One walk over the segments up to the last id's word, clamped there
    /// like the walkers above. Returns the number of bits set.
    pub fn gather_words_into(&self, ids: &[u32], out: &mut [u64]) -> u64 {
        debug_assert!(ids.windows(2).all(|w| w[0] <= w[1]), "ids must ascend");
        out.fill(0);
        let span = ids.last().map_or(0, |&last| last as usize / 64 + 1);
        let (mut i, mut count) = (0, 0);
        for (at, seg) in self.segs_upto(span) {
            let end = at + seg.len();
            // Ascending ids below `at` were all taken by earlier segments.
            while let Some(&id) = ids.get(i).filter(|&&id| (id as usize / 64) < end) {
                let hit = match seg {
                    Seg::Clean { ones, .. } => ones,
                    Seg::Lit(words) => words[id as usize / 64 - at] >> (id % 64) & 1 == 1,
                };
                if hit {
                    out[i / 64] |= 1 << (i % 64);
                    count += 1;
                }
                i += 1;
            }
        }
        count
    }

    /// Collect the ids into a vector (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.card as usize);
        self.for_each(|id| v.push(id));
        v
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
        self.card == other.card && self.iter().eq(other.iter())
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
        let mut words = vec![0u64; 5];
        a.decode_words_into(&mut words);
        assert_eq!(b.and_words_cardinality(&words), 2);
        assert_eq!(b.and_words_into(&mut words), 2);
        assert_eq!(EwahBitmap::from_words(&words).to_vec(), vec![2, 100]);
        let mut gathered = [0u64];
        assert_eq!(a.gather_words_into(&[2, 100, 300], &mut gathered), 2);
        assert_eq!(gathered, [0b011]);
    }

    #[test]
    fn ops_with_empty() {
        let a = bm(&[1, 2, 3]);
        let e = EwahBitmap::new();
        let mut words = vec![u64::MAX; 2];
        e.decode_words_into(&mut words);
        assert_eq!(words, [0, 0]);
        a.decode_words_into(&mut words);
        assert_eq!(e.and_words_cardinality(&words), 0);
        assert_eq!(e.and_words_into(&mut words), 0);
        assert_eq!(words, [0, 0]);
        let mut gathered = [u64::MAX];
        assert_eq!(e.gather_words_into(&[1, 2, 3], &mut gathered), 0);
        assert_eq!(gathered, [0]);
        assert_eq!(a.gather_words_into(&[], &mut []), 0);
        assert_eq!(EwahBitmap::from_words(&[0, 0]), e);
    }

    #[test]
    fn semantic_equality() {
        let a = bm(&[1, 2, 3]);
        let b = bm(&[1, 2, 3]);
        let c = bm(&[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Different construction path, same set.
        assert_eq!(a, EwahBitmap::from_words(&[0b1110]));
        // Different encoding, same set: a literal word 0 where the
        // canonical stream has a clean zero run.
        let slot: Vec<u8> =
            [encode_marker(false, 0, 2), 0, 0b1110].iter().flat_map(|w| w.to_le_bytes()).collect();
        let literal_zero = EwahBitmap::read_slot(&slot, 3).expect("structurally valid");
        assert_eq!(literal_zero, bm(&[65, 66, 67]));
        assert_ne!(literal_zero, bm(&[65, 66, 68]));
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
        let expect: Vec<u32> = (0..5000).step_by(21).collect();
        for (x, y) in [(&a, &b), (&b, &a)] {
            let mut words = vec![0u64; 5000usize.div_ceil(64)];
            x.decode_words_into(&mut words);
            assert_eq!(y.and_words_cardinality(&words), expect.len() as u64);
            assert_eq!(y.and_words_into(&mut words), expect.len() as u64);
            assert_eq!(EwahBitmap::from_words(&words), bm(&expect));
        }
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
        assert_eq!(EwahBitmap::from_words(&[u64::MAX; 2]).max_id(), Some(127));
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
