//! Compressed block-max posting lists: a first-class index backend.
//!
//! The paper benchmarks uncompressed arrays (§5.2), citing Lin &
//! Trotman that decompression overhead is marginal; this module makes
//! that trade-off measurable end-to-end by serving *every* algorithm
//! family (score-order, doc-order, random access) from a compressed
//! representation behind the same cursor traits as
//! [`crate::memory::InMemoryIndex`].
//!
//! ## Layout
//!
//! Postings are grouped into fixed-size blocks
//! ([`crate::posting::DEFAULT_BLOCK_SIZE`] = 64) and packed into a
//! per-term `u64` word buffer with bit-granular offsets:
//!
//! ```text
//! doc-ordered plane, per block:
//!   ┌ doc-id gaps (gap−1, first-of-list raw) @ per-block width ┐
//!   └ score codebook indices @ per-term width ─────────────────┘
//! score-ordered plane, per block:
//!   ┌ raw doc ids @ per-term width ────────────────────────────┐
//!   └ codebook-index *drops* (lists are non-increasing) @ per- ┘
//!     block width
//! ```
//!
//! Scores are coded through a per-term **codebook**: the sorted array
//! of distinct score values. Decoding is therefore *exact* — the
//! backend reproduces raw postings bit-for-bit, which is what lets the
//! full algorithm matrix return identical top-k doc ids on both
//! backends (integer tf-idf corpora carry exact score *ties* at the
//! k-th boundary, so any lossy score plane would flip tie-broken
//! results; see DESIGN.md §14).
//!
//! Block-max metadata is the exact per-block maxima, as on the raw
//! backend, so pruning decisions — and hence work counters — replay
//! the raw backend exactly; a looser (quantized) bound could only
//! prune less, and stored beside the exact one it would save no bytes.
//!
//! Block decode is branch-light fixed-width unpacking into cursor
//! scratch buffers: no per-posting dispatch, no allocation after
//! cursor construction (enforced by `sparta-lint`'s alloc ban on this
//! file). Each cursor holds its term's data and the index's counters by
//! `Arc`, so it is `'static`. Every decoded block is counted in [`IoStats`]
//! (`blocks_decoded`, `compressed_bytes`). A random-access probe
//! decodes no block: it walks one block's gap plane in place and is
//! counted as a random access (`random_accesses`, `bytes_read`).

use crate::cursor::{DocCursor, RandomAccess, ScoreCursor};
use crate::posting::{self, BlockMeta, Posting, DEFAULT_BLOCK_SIZE};
use crate::{Index, IndexFootprint, IoStats};
use sparta_corpus::types::{DocId, TermId};
use std::sync::{Arc, OnceLock};

/// Upper bound on the supported block size: cursors carry fixed
/// scratch arrays of this many postings so decode never allocates.
pub const MAX_BLOCK: usize = 256;

/// Bit width needed to store `v` (0 for 0).
#[inline]
fn bits_for(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// Appends `values` at `width` bits each to `words`, advancing `*bit`.
/// Build-time only; the decode path never packs.
fn pack(values: &[u32], width: u32, words: &mut Vec<u64>, bit: &mut usize) {
    debug_assert!(width <= 32);
    for &v in values {
        debug_assert!(width == 32 || u64::from(v) < (1u64 << width));
        let w = *bit >> 6;
        let sh = (*bit & 63) as u32;
        while words.len() <= w + 1 {
            words.push(0);
        }
        words[w] |= u64::from(v) << sh;
        // `(v >> 1) >> (63 - sh)` == `v >> (64 - sh)` without the
        // undefined shift at `sh == 0`.
        words[w + 1] |= (u64::from(v) >> 1) >> (63 - sh);
        *bit += width as usize;
    }
}

/// Reads the one `width`-bit field starting at `bit`: two word reads,
/// three shifts, one mask — branch-free. `words` must carry one padding
/// word past the last data bit (the builder guarantees it).
#[inline]
fn field(words: &[u64], bit: usize, width: u32) -> u32 {
    debug_assert!(width <= 32);
    let w = bit >> 6;
    let sh = (bit & 63) as u32;
    let lo = words[w] >> sh;
    let hi = (words[w + 1] << 1) << (63 - sh);
    ((lo | hi) & ((1u64 << width) - 1)) as u32
}

/// Decodes `out.len()` values of `width` bits starting at `start_bit`.
///
/// The hot loop: one [`field`] per value — fixed-width, branch-free,
/// auto-vectorizable.
#[inline]
fn unpack(words: &[u64], start_bit: usize, width: u32, out: &mut [u32]) {
    if width == 0 {
        for o in out.iter_mut() {
            *o = 0;
        }
        return;
    }
    let mut bit = start_bit;
    for o in out.iter_mut() {
        *o = field(words, bit, width);
        bit += width as usize;
    }
}

/// Per-block location of one packed plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlaneMeta {
    /// Bit offset of the block's first plane in the term's word
    /// buffer.
    pub(crate) off: u32,
    /// Width of the per-block-sized field (doc-id gaps for the
    /// doc-ordered plane, codebook-index drops for the score-ordered
    /// plane).
    pub(crate) bits: u8,
}

/// One term's compressed posting list: both traversal orders packed
/// into a shared word buffer, plus the exact block-max plane. Decoding
/// reproduces the raw postings exactly.
#[derive(Debug, Clone, Default)]
pub struct CompressedTermData {
    pub(crate) len: u32,
    pub(crate) max_score: u32,
    pub(crate) block_size: u32,
    /// Sorted distinct score values (the exact codebook).
    pub(crate) dict: Vec<u32>,
    /// Exact block-max metadata over the doc-ordered plane — identical
    /// to the raw backend's.
    pub(crate) blocks: Vec<BlockMeta>,
    /// Codebook-index width in the doc-ordered plane.
    pub(crate) sidx_bits: u8,
    /// Raw doc-id width in the score-ordered plane.
    pub(crate) doc_raw_bits: u8,
    pub(crate) doc_meta: Vec<PlaneMeta>,
    pub(crate) score_meta: Vec<PlaneMeta>,
    /// Packed planes + one padding word.
    pub(crate) words: Vec<u64>,
}

impl CompressedTermData {
    /// Builds one term's compressed data from postings in any order.
    pub fn from_postings(mut postings: Vec<Posting>, block_size: usize) -> Self {
        assert!(
            block_size > 0 && block_size <= MAX_BLOCK,
            "block_size must be in 1..={MAX_BLOCK}"
        );
        if postings.is_empty() {
            return Self {
                block_size: block_size as u32,
                ..Self::default()
            };
        }
        posting::sort_doc_order(&mut postings);
        let blocks = posting::build_blocks(&postings, block_size);
        let max_score = postings.iter().map(|p| p.score).max().expect("non-empty");

        // lint: allow(alloc): build-time codebook assembly
        let mut dict: Vec<u32> = postings.iter().map(|p| p.score).collect();
        dict.sort_unstable();
        dict.dedup();
        let sidx_bits = bits_for(dict.len() as u32 - 1) as u8;

        // lint: allow(alloc): build-time plane buffers
        let mut words: Vec<u64> = Vec::with_capacity(postings.len() / 2 + 2);
        // lint: allow(alloc): build-time block directory
        let mut doc_meta: Vec<PlaneMeta> = Vec::with_capacity(blocks.len());
        // lint: allow(alloc): build-time block directory
        let mut score_meta: Vec<PlaneMeta> = Vec::with_capacity(blocks.len());
        let mut bit = 0usize;
        // lint: allow(alloc): build-time staging buffers
        let mut gaps: Vec<u32> = Vec::with_capacity(block_size);
        // lint: allow(alloc): build-time staging buffers
        let mut idxs: Vec<u32> = Vec::with_capacity(block_size);

        // Doc-ordered plane: per-block gap−1 deltas (the first posting
        // of the list stores its doc id raw) + codebook indices.
        let mut prev_doc = 0u32;
        for (bi, chunk) in postings.chunks(block_size).enumerate() {
            gaps.clear();
            idxs.clear();
            for (i, p) in chunk.iter().enumerate() {
                let gap = if bi == 0 && i == 0 {
                    p.doc
                } else {
                    p.doc - prev_doc - 1
                };
                gaps.push(gap);
                idxs.push(dict.binary_search(&p.score).expect("score in codebook") as u32);
                prev_doc = p.doc;
            }
            let gap_bits = gaps.iter().copied().max().map_or(0, bits_for);
            let off = u32::try_from(bit).expect("term plane exceeds 512MB");
            pack(&gaps, gap_bits, &mut words, &mut bit);
            pack(&idxs, u32::from(sidx_bits), &mut words, &mut bit);
            doc_meta.push(PlaneMeta {
                off,
                bits: gap_bits as u8,
            });
        }

        // Score-ordered plane: per-block raw doc ids + codebook-index
        // drops chained from level `dict.len() - 1` (the list's first
        // posting always carries the maximum score).
        // lint: allow(alloc): build-time score-order staging
        let mut score_order = postings.clone();
        posting::sort_score_order(&mut score_order);
        let doc_raw_bits = bits_for(blocks.last().expect("non-empty").last_doc) as u8;
        let mut prev_idx = dict.len() as u32 - 1;
        for chunk in score_order.chunks(block_size) {
            gaps.clear(); // reused for raw doc ids
            idxs.clear(); // reused for index drops
            for p in chunk {
                gaps.push(p.doc);
                let idx = dict.binary_search(&p.score).expect("score in codebook") as u32;
                idxs.push(prev_idx - idx);
                prev_idx = idx;
            }
            let drop_bits = idxs.iter().copied().max().map_or(0, bits_for);
            let off = u32::try_from(bit).expect("term plane exceeds 512MB");
            pack(&gaps, u32::from(doc_raw_bits), &mut words, &mut bit);
            pack(&idxs, drop_bits, &mut words, &mut bit);
            score_meta.push(PlaneMeta {
                off,
                bits: drop_bits as u8,
            });
        }

        // Guarantee the decode path's one-word lookahead.
        words.push(0);

        Self {
            len: postings.len() as u32,
            max_score,
            block_size: block_size as u32,
            dict,
            blocks,
            sidx_bits,
            doc_raw_bits,
            doc_meta,
            score_meta,
            words,
        }
    }

    /// Number of postings.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact list-wide maximum score.
    #[inline]
    pub fn max_score(&self) -> u32 {
        self.max_score
    }

    /// Exact block-max metadata (identical to the raw backend's).
    #[inline]
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Number of postings in block `bi` (the last block may be short).
    #[inline]
    pub(crate) fn block_len(&self, bi: usize) -> usize {
        let bs = self.block_size as usize;
        (self.len as usize - bi * bs).min(bs)
    }

    /// Packed size in bytes of doc-ordered block `bi` (decode cost).
    #[inline]
    fn doc_block_bytes(&self, bi: usize) -> u64 {
        let n = self.block_len(bi) as u64;
        (n * (u64::from(self.doc_meta[bi].bits) + u64::from(self.sidx_bits))).div_ceil(8)
    }

    /// Packed size in bytes of score-ordered block `bi`.
    #[inline]
    fn score_block_bytes(&self, bi: usize) -> u64 {
        let n = self.block_len(bi) as u64;
        (n * (u64::from(self.doc_raw_bits) + u64::from(self.score_meta[bi].bits))).div_ceil(8)
    }

    /// Decodes doc-ordered block `bi` into `docs`/`scores` scratch.
    /// Returns the number of postings decoded. Allocation-free.
    pub fn decode_doc_block(
        &self,
        bi: usize,
        docs: &mut [u32; MAX_BLOCK],
        scores: &mut [u32; MAX_BLOCK],
    ) -> usize {
        let n = self.block_len(bi);
        let m = self.doc_meta[bi];
        let gap_bits = u32::from(m.bits);
        unpack(&self.words, m.off as usize, gap_bits, &mut docs[..n]);
        unpack(
            &self.words,
            m.off as usize + n * gap_bits as usize,
            u32::from(self.sidx_bits),
            &mut scores[..n],
        );
        // Gaps → doc ids (gap−1 coding, first-of-list raw).
        let mut d = if bi == 0 {
            docs[0]
        } else {
            self.blocks[bi - 1]
                .last_doc
                .wrapping_add(docs[0])
                .wrapping_add(1)
        };
        docs[0] = d;
        // Wrapping, like the clamped gather below: corrupt on-disk
        // planes yield wrong doc ids, never a panic.
        for v in docs[1..n].iter_mut() {
            d = d.wrapping_add(*v).wrapping_add(1);
            *v = d;
        }
        // Codebook indices → exact scores.
        for s in scores[..n].iter_mut() {
            // Clamped gather: corrupt on-disk planes yield wrong
            // scores, never a panic.
            *s = self.dict[(*s as usize).min(self.dict.len() - 1)];
        }
        n
    }

    /// Decodes score-ordered block `bi` into `docs`/`scores` scratch.
    /// `prev_idx` is the chaining state: the codebook index of the
    /// posting immediately before this block (`dict.len() - 1` before
    /// block 0). Returns `(postings_decoded, new_prev_idx)`.
    pub fn decode_score_block(
        &self,
        bi: usize,
        prev_idx: u32,
        docs: &mut [u32; MAX_BLOCK],
        scores: &mut [u32; MAX_BLOCK],
    ) -> (usize, u32) {
        let n = self.block_len(bi);
        let m = self.score_meta[bi];
        let doc_bits = u32::from(self.doc_raw_bits);
        unpack(&self.words, m.off as usize, doc_bits, &mut docs[..n]);
        unpack(
            &self.words,
            m.off as usize + n * doc_bits as usize,
            u32::from(m.bits),
            &mut scores[..n],
        );
        // Index drops → codebook indices → exact scores (wrapping and
        // clamped, like the doc plane).
        let mut idx = prev_idx;
        for s in scores[..n].iter_mut() {
            idx = idx.wrapping_sub(*s);
            *s = self.dict[(idx as usize).min(self.dict.len() - 1)];
        }
        (n, idx)
    }

    /// The largest doc id the list can yield, over the block directory
    /// and both id planes (corrupt planes decode ids it never names).
    pub(crate) fn max_decoded_doc(&self) -> Option<DocId> {
        let mut docs = [0u32; MAX_BLOCK];
        let mut scores = [0u32; MAX_BLOCK];
        let mut max = self.blocks.iter().map(|b| b.last_doc).max();
        let mut prev_idx = self.dict.len().saturating_sub(1) as u32;
        for bi in 0..self.blocks.len() {
            let n = self.decode_doc_block(bi, &mut docs, &mut scores);
            max = max.max(docs[..n].iter().copied().max());
            let (n, idx) = self.decode_score_block(bi, prev_idx, &mut docs, &mut scores);
            max = max.max(docs[..n].iter().copied().max());
            prev_idx = idx;
        }
        max
    }

    /// Point lookup: the score of `doc` (0 if the list skips it) and
    /// the packed bytes touched, or `None` when `doc` lies past the
    /// list's last posting. Scratch-free: walks only the gap plane of
    /// the one block that can hold `doc`, keeping a running doc id,
    /// from whichever end of the block is nearer in doc-id space —
    /// forward from the previous block's `last_doc`, or backward from
    /// the block's own — and on a hit reads the single codebook index.
    /// Wrapping and clamped like the block decoders: corrupt planes
    /// yield wrong scores, never a panic.
    fn probe(&self, doc: DocId) -> Option<(u32, u64)> {
        let bi = self.blocks.partition_point(|b| b.last_doc < doc);
        let hi = self.blocks.get(bi)?.last_doc;
        let n = self.block_len(bi);
        let m = self.doc_meta[bi];
        let (off, gap_bits) = (m.off as usize, u32::from(m.bits));
        let gap = |i: usize| field(&self.words, off + i * gap_bits as usize, gap_bits);
        // The doc id before the block; "−1" before the list, so the
        // raw first-of-list field decodes like any other gap−1.
        let lo = match bi {
            0 => u32::MAX,
            _ => self.blocks[bi - 1].last_doc,
        };
        let (i, d, walked) = if doc.wrapping_sub(lo) <= hi.wrapping_sub(doc) {
            let (mut i, mut d) = (0, lo.wrapping_add(gap(0)).wrapping_add(1));
            while d < doc && i + 1 < n {
                i += 1;
                d = d.wrapping_add(gap(i)).wrapping_add(1);
            }
            (i, d, i + 1)
        } else {
            let (mut i, mut d) = (n - 1, hi);
            while d > doc && i > 0 {
                d = d.wrapping_sub(gap(i)).wrapping_sub(1);
                i -= 1;
            }
            (i, d, n - 1 - i)
        };
        let mut bits = walked * gap_bits as usize;
        let mut score = 0;
        if d == doc {
            let sidx_bits = u32::from(self.sidx_bits);
            let at = off + n * gap_bits as usize + i * sidx_bits as usize;
            let idx = field(&self.words, at, sidx_bits) as usize;
            score = self.dict[idx.min(self.dict.len() - 1)];
            bits += sidx_bits as usize;
        }
        Some((score, bits.div_ceil(8) as u64))
    }

    /// In-memory footprint of the compressed representation.
    pub fn footprint(&self) -> IndexFootprint {
        IndexFootprint {
            posting_bytes: self.words.len() as u64 * 8,
            metadata_bytes: self.dict.len() as u64 * 4
                + self.blocks.len() as u64 * 8
                + (self.doc_meta.len() + self.score_meta.len()) as u64 * 5
                + 8, // len, max_score, widths
        }
    }
}

fn empty_term() -> &'static Arc<CompressedTermData> {
    static EMPTY: OnceLock<Arc<CompressedTermData>> = OnceLock::new();
    // lint: allow(alloc): one shared empty list, built once
    EMPTY.get_or_init(Arc::default)
}

/// A RAM-resident [`Index`] serving compressed posting lists.
#[derive(Debug)]
pub struct CompressedIndex {
    terms: Vec<Arc<CompressedTermData>>,
    num_docs: u64,
    block_size: usize,
    io: Arc<IoStats>,
}

impl CompressedIndex {
    /// Assembles an index from per-term posting vectors (any order);
    /// `num_docs` is a floor, as for [`crate::InMemoryIndex`].
    pub fn from_term_postings(terms: Vec<Vec<Posting>>, num_docs: u64) -> Self {
        Self::with_block_size(terms, num_docs, DEFAULT_BLOCK_SIZE)
    }

    /// As [`from_term_postings`](Self::from_term_postings) with an
    /// explicit block size (at most [`MAX_BLOCK`]).
    pub fn with_block_size(terms: Vec<Vec<Posting>>, num_docs: u64, block_size: usize) -> Self {
        let terms: Vec<CompressedTermData> = terms
            .into_iter()
            .map(|p| CompressedTermData::from_postings(p, block_size))
            // lint: allow(alloc): build-time term assembly
            .collect();
        let last_docs = terms
            .iter()
            .filter_map(|t| t.blocks.last().map(|b| b.last_doc));
        let num_docs = crate::num_docs_covering(num_docs, last_docs);
        Self::from_parts(terms, num_docs, block_size)
    }

    /// Re-encodes an existing raw in-memory index (the bench harness's
    /// path: build once, serve both backends from the same postings).
    pub fn from_index(ix: &crate::memory::InMemoryIndex) -> Self {
        let terms = (0..ix.num_terms())
            .map(|t| match ix.term_data(t) {
                Some(td) => {
                    // lint: allow(alloc): build-time copy of raw postings
                    let postings = td.doc_order.to_vec();
                    CompressedTermData::from_postings(postings, ix.block_size())
                }
                None => CompressedTermData::default(),
            })
            // lint: allow(alloc): build-time term assembly
            .collect();
        Self::from_parts(terms, ix.num_docs(), ix.block_size())
    }

    /// Reassembles an index from built term data whose ids `num_docs`
    /// already bounds (the other constructors' and the reader's path).
    pub(crate) fn from_parts(
        terms: Vec<CompressedTermData>,
        num_docs: u64,
        block_size: usize,
    ) -> Self {
        Self {
            // lint: allow(alloc): build-time term assembly
            terms: terms.into_iter().map(Arc::new).collect(),
            num_docs,
            block_size,
            // lint: allow(alloc): index construction
            io: Arc::new(IoStats::new()),
        }
    }

    /// Block size used for all terms.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Direct access to a term's compressed data.
    pub fn term_data(&self, term: TermId) -> Option<&CompressedTermData> {
        self.terms.get(term as usize).map(Arc::as_ref)
    }

    /// A term's shared data, or the shared empty list for unknown
    /// terms.
    fn term_arc(&self, term: TermId) -> Arc<CompressedTermData> {
        Arc::clone(self.terms.get(term as usize).unwrap_or(empty_term()))
    }

    /// Total in-memory footprint of all terms.
    pub fn footprint(&self) -> IndexFootprint {
        let mut f = IndexFootprint::default();
        for t in &self.terms {
            let tf = t.footprint();
            f.posting_bytes += tf.posting_bytes;
            f.metadata_bytes += tf.metadata_bytes;
        }
        f
    }
}

/// Score-order cursor: decodes one block per refill into fixed scratch.
pub struct CompressedScoreCursor {
    td: Arc<CompressedTermData>,
    io: Arc<IoStats>,
    /// Global position of the next posting to deliver.
    pos: usize,
    /// Global position corresponding to `scratch[0]`.
    base: usize,
    /// Valid postings in scratch (0 = nothing decoded yet).
    n: usize,
    /// Codebook-index chaining state across blocks.
    prev_idx: u32,
    docs: [u32; MAX_BLOCK],
    scores: [u32; MAX_BLOCK],
}

impl CompressedScoreCursor {
    fn new(td: Arc<CompressedTermData>, io: Arc<IoStats>) -> Self {
        let prev_idx = td.dict.len().saturating_sub(1) as u32;
        Self {
            td,
            io,
            pos: 0,
            base: 0,
            n: 0,
            prev_idx,
            docs: [0; MAX_BLOCK],
            scores: [0; MAX_BLOCK],
        }
    }

    /// Ensures the block containing `self.pos` is decoded. Blocks are
    /// only ever consumed forward, so chaining state stays valid.
    #[inline]
    fn fill(&mut self) -> bool {
        let td = &*self.td;
        if self.pos >= td.len() {
            return false;
        }
        if self.n > 0 && self.pos < self.base + self.n {
            return true;
        }
        let bi = self.pos / td.block_size as usize;
        let (n, idx) = td.decode_score_block(bi, self.prev_idx, &mut self.docs, &mut self.scores);
        self.io.record_block_decode(td.score_block_bytes(bi));
        self.base = bi * td.block_size as usize;
        self.n = n;
        self.prev_idx = idx;
        true
    }
}

impl ScoreCursor for CompressedScoreCursor {
    #[inline]
    fn next(&mut self) -> Option<Posting> {
        if !self.fill() {
            return None;
        }
        let i = self.pos - self.base;
        self.pos += 1;
        Some(Posting::new(self.docs[i], self.scores[i]))
    }

    fn len(&self) -> u64 {
        self.td.len() as u64
    }

    fn next_segment(&mut self, n: usize, out: &mut Vec<Posting>) -> usize {
        out.clear();
        let want = n.min(self.td.len() - self.pos);
        while out.len() < want {
            if !self.fill() {
                break;
            }
            let i = self.pos - self.base;
            let take = (self.n - i).min(want - out.len());
            for j in i..i + take {
                out.push(Posting::new(self.docs[j], self.scores[j]));
            }
            self.pos += take;
        }
        out.len()
    }
}

/// Doc-order cursor with block-max metadata. The current block is
/// always decoded; blocks jumped over by `seek`/`block_at` pruning are
/// never touched — that is the compressed backend's skip win.
pub struct CompressedDocCursor {
    td: Arc<CompressedTermData>,
    io: Arc<IoStats>,
    /// Global position of the current posting.
    pos: usize,
    /// Block index currently decoded in scratch (`usize::MAX` = none).
    loaded: usize,
    n: usize,
    docs: [u32; MAX_BLOCK],
    scores: [u32; MAX_BLOCK],
}

impl CompressedDocCursor {
    fn new(td: Arc<CompressedTermData>, io: Arc<IoStats>) -> Self {
        let mut c = Self {
            td,
            io,
            pos: 0,
            loaded: usize::MAX,
            n: 0,
            docs: [0; MAX_BLOCK],
            scores: [0; MAX_BLOCK],
        };
        if !c.td.is_empty() {
            c.load(0);
        }
        c
    }

    #[inline]
    fn load(&mut self, bi: usize) {
        if self.loaded == bi {
            return;
        }
        let td = &*self.td;
        self.n = td.decode_doc_block(bi, &mut self.docs, &mut self.scores);
        self.io.record_block_decode(td.doc_block_bytes(bi));
        self.loaded = bi;
    }

    #[inline]
    fn block_size(&self) -> usize {
        self.td.block_size as usize
    }

    #[inline]
    fn block_idx(&self) -> usize {
        self.pos / self.block_size()
    }

    #[inline]
    fn exhausted(&self) -> bool {
        self.pos >= self.td.len()
    }
}

impl DocCursor for CompressedDocCursor {
    #[inline]
    fn doc(&self) -> Option<DocId> {
        if self.exhausted() {
            return None;
        }
        Some(self.docs[self.pos - self.loaded * self.block_size()])
    }

    #[inline]
    fn score(&self) -> u32 {
        if self.exhausted() {
            return 0;
        }
        self.scores[self.pos - self.loaded * self.block_size()]
    }

    fn advance(&mut self) -> Option<DocId> {
        if self.exhausted() {
            return None;
        }
        self.pos += 1;
        if self.exhausted() {
            return None;
        }
        let bi = self.block_idx();
        self.load(bi);
        self.doc()
    }

    fn seek(&mut self, target: DocId) -> Option<DocId> {
        match self.doc() {
            Some(d) if d >= target => return Some(d),
            None => return None,
            _ => {}
        }
        let td = &*self.td;
        let from = self.block_idx();
        let bi = from + td.blocks[from..].partition_point(|b| b.last_doc < target);
        if bi >= td.blocks.len() {
            self.pos = td.len();
            return None;
        }
        self.load(bi);
        let start = (bi * self.block_size()).max(self.pos);
        let lo = start - bi * self.block_size();
        let inner = self.docs[lo..self.n].partition_point(|&d| d < target);
        self.pos = start + inner;
        if lo + inner == self.n {
            // `last_doc` promised a doc >= target inside block `bi`;
            // only a corrupt plane runs off its end, into the next
            // block or the end of the list.
            if self.exhausted() {
                return None;
            }
            self.load(bi + 1);
        }
        self.doc()
    }

    fn block_at(&self, target: DocId) -> Option<(DocId, u32)> {
        if self.exhausted() {
            return None;
        }
        let td = &*self.td;
        let from = self.block_idx();
        let bi = from + td.blocks[from..].partition_point(|b| b.last_doc < target);
        if bi >= td.blocks.len() {
            return None;
        }
        let b = td.blocks[bi];
        Some((b.last_doc, b.max_score))
    }

    fn max_score(&self) -> u32 {
        self.td.max_score
    }

    fn len(&self) -> u64 {
        self.td.len() as u64
    }
}

impl Index for CompressedIndex {
    fn num_docs(&self) -> u64 {
        self.num_docs
    }

    fn num_terms(&self) -> u32 {
        self.terms.len() as u32
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        self.term_data(term).map_or(0, |t| t.len() as u64)
    }

    fn max_score(&self, term: TermId) -> u32 {
        self.term_data(term).map_or(0, |t| t.max_score)
    }

    fn score_cursor(&self, term: TermId) -> Box<dyn ScoreCursor> {
        let io = Arc::clone(&self.io);
        // lint: allow(alloc): cursor construction
        Box::new(CompressedScoreCursor::new(self.term_arc(term), io))
    }

    fn doc_cursor(&self, term: TermId) -> Box<dyn DocCursor> {
        let io = Arc::clone(&self.io);
        // lint: allow(alloc): cursor construction
        Box::new(CompressedDocCursor::new(self.term_arc(term), io))
    }

    fn random_access(&self) -> Option<&dyn RandomAccess> {
        Some(self)
    }

    fn io_stats(&self) -> Option<&IoStats> {
        Some(&self.io)
    }

    fn footprint(&self) -> Option<IndexFootprint> {
        Some(self.footprint())
    }
}

impl RandomAccess for CompressedIndex {
    fn term_score(&self, term: TermId, doc: DocId) -> u32 {
        let Some((score, bytes)) = self.term_data(term).and_then(|td| td.probe(doc)) else {
            return 0;
        };
        self.io.record_random(bytes);
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::SliceScoreCursor;
    use crate::memory::InMemoryIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_postings(seed: u64, len: usize, max_doc: u32) -> Vec<Posting> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut docs: Vec<u32> = (0..max_doc).collect();
        // Take `len` distinct docs.
        for i in 0..docs.len() {
            let j = rng.gen_range(i..docs.len());
            docs.swap(i, j);
        }
        docs.truncate(len);
        docs.sort_unstable();
        docs.into_iter()
            .map(|d| Posting::new(d, rng.gen_range(1..5_000_000)))
            .collect()
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        for width in [0u32, 1, 3, 7, 8, 13, 17, 24, 31, 32] {
            let vals: Vec<u32> = (0..200)
                .map(|_| {
                    if width == 32 {
                        rng.gen()
                    } else {
                        rng.gen_range(0..(1u64 << width)) as u32
                    }
                })
                .collect();
            let mut words = Vec::new();
            let mut bit = 3; // deliberately unaligned start
            words.push(0);
            pack(&vals, width, &mut words, &mut bit);
            words.push(0);
            let mut out = vec![0u32; vals.len()];
            unpack(&words, 3, width, &mut out);
            assert_eq!(out, vals, "width {width}");
        }
    }

    fn assert_term_round_trip(postings: &[Posting], block_size: usize) {
        let td = CompressedTermData::from_postings(postings.to_vec(), block_size);
        let mut doc_order = postings.to_vec();
        posting::sort_doc_order(&mut doc_order);
        let mut score_order = postings.to_vec();
        posting::sort_score_order(&mut score_order);

        // Doc plane.
        let mut docs = [0u32; MAX_BLOCK];
        let mut scores = [0u32; MAX_BLOCK];
        let mut got = Vec::new();
        for bi in 0..td.blocks.len() {
            let n = td.decode_doc_block(bi, &mut docs, &mut scores);
            for i in 0..n {
                got.push(Posting::new(docs[i], scores[i]));
            }
        }
        assert_eq!(got, doc_order, "doc plane, bs={block_size}");

        // Score plane.
        got.clear();
        let mut prev = td.dict.len().saturating_sub(1) as u32;
        for bi in 0..td.score_meta.len() {
            let (n, p) = td.decode_score_block(bi, prev, &mut docs, &mut scores);
            prev = p;
            for i in 0..n {
                got.push(Posting::new(docs[i], scores[i]));
            }
        }
        assert_eq!(got, score_order, "score plane, bs={block_size}");

        // Exact block metadata matches the raw builder.
        assert_eq!(td.blocks, posting::build_blocks(&doc_order, block_size));
    }

    #[test]
    fn term_data_round_trips_exactly() {
        for (seed, len, max_doc, bs) in [
            (1u64, 1usize, 10u32, 64usize),
            (2, 7, 50, 3),
            (3, 64, 200, 64),
            (4, 65, 200, 64),
            (5, 500, 2_000, 64),
            (6, 333, 100_000, 32),
            (7, 129, 1 << 20, 256),
        ] {
            assert_term_round_trip(&sample_postings(seed, len, max_doc), bs);
        }
    }

    #[test]
    fn constant_scores_pack_to_zero_width() {
        let ps: Vec<Posting> = (0..130u32).map(|i| Posting::new(i * 3, 777)).collect();
        let td = CompressedTermData::from_postings(ps.clone(), 64);
        assert_eq!(td.dict.len(), 1);
        assert_eq!(td.sidx_bits, 0);
        assert_term_round_trip(&ps, 64);
    }

    /// The compressed index must behave identically to the raw one on
    /// every cursor operation.
    #[test]
    fn matches_in_memory_index() {
        let lists: Vec<Vec<Posting>> = (0..8)
            .map(|t| sample_postings(100 + t, 40 + 37 * t as usize, 4_000))
            .collect();
        let raw = InMemoryIndex::from_term_postings(lists.clone(), 4_000);
        let comp = CompressedIndex::from_term_postings(lists, 4_000);
        for t in 0..raw.num_terms() {
            assert_eq!(raw.doc_freq(t), comp.doc_freq(t));
            assert_eq!(raw.max_score(t), comp.max_score(t));
            // Score cursors agree posting-for-posting.
            let mut a = raw.score_cursor(t);
            let mut b = comp.score_cursor(t);
            loop {
                let (x, y) = (a.next(), b.next());
                assert_eq!(x, y, "term {t} score order");
                if x.is_none() {
                    break;
                }
            }
            // Segments agree.
            let mut a = raw.score_cursor(t);
            let mut b = comp.score_cursor(t);
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            loop {
                let (na, nb) = (a.next_segment(17, &mut sa), b.next_segment(17, &mut sb));
                assert_eq!(na, nb);
                assert_eq!(sa, sb, "term {t} segment");
                if na == 0 {
                    break;
                }
            }
            // Doc cursors agree under a mixed advance/seek walk.
            let mut a = raw.doc_cursor(t);
            let mut b = comp.doc_cursor(t);
            let mut step = 0u32;
            loop {
                assert_eq!(a.doc(), b.doc(), "term {t}");
                assert_eq!(a.score(), b.score(), "term {t}");
                assert_eq!(a.max_score(), b.max_score());
                let Some(d) = a.doc() else { break };
                assert_eq!(a.block_at(d), b.block_at(d), "term {t}");
                assert_eq!(a.block_at(d + step), b.block_at(d + step), "term {t}");
                step = (step * 7 + 13) % 200;
                if step.is_multiple_of(2) {
                    a.advance();
                    b.advance();
                } else {
                    assert_eq!(a.seek(d + step), b.seek(d + step), "term {t} seek");
                }
            }
            // Random access agrees on present and absent docs.
            for d in (0..4_000).step_by(61) {
                assert_eq!(
                    raw.term_score(t, d),
                    comp.term_score(t, d),
                    "term {t} doc {d}"
                );
            }
        }
    }

    #[test]
    fn io_stats_count_decodes_and_bytes() {
        let lists = vec![sample_postings(21, 640, 5_000)];
        let comp = CompressedIndex::from_term_postings(lists, 5_000);
        let io = comp.io_stats().unwrap();
        assert_eq!(io.blocks_decoded(), 0);
        // Full score scan: 10 blocks of 64.
        let mut c = comp.score_cursor(0);
        while c.next().is_some() {}
        assert_eq!(io.blocks_decoded(), 10);
        assert!(io.compressed_bytes() > 0);
        // A doc cursor decodes block 0 on open.
        let _dc = comp.doc_cursor(0);
        assert_eq!(io.blocks_decoded(), 11);
        let bytes_after_decodes = io.compressed_bytes();
        // A random-access probe decodes no block: it is a random
        // access that touches a few packed bytes.
        assert_eq!(io.snapshot(), (0, 0, 0));
        comp.term_score(0, 123);
        assert_eq!(io.decode_snapshot(), (11, bytes_after_decodes));
        assert_eq!(io.random_accesses(), 1);
        assert!(io.bytes_read() > 0);
        io.reset();
        assert_eq!(io.decode_snapshot(), (0, 0));
        assert_eq!(io.snapshot(), (0, 0, 0));
    }

    #[test]
    fn footprint_is_smaller_than_raw() {
        let lists: Vec<Vec<Posting>> = (0..4)
            .map(|t| sample_postings(300 + t, 1_000, 8_000))
            .collect();
        let raw = InMemoryIndex::from_term_postings(lists.clone(), 8_000);
        let comp = CompressedIndex::from_term_postings(lists, 8_000);
        let rf = Index::footprint(&raw).unwrap();
        let cf = comp.footprint();
        assert!(
            cf.total() * 2 < rf.total(),
            "compressed {} vs raw {}",
            cf.total(),
            rf.total()
        );
    }

    #[test]
    fn score_cursor_streams_like_slice_cursor() {
        let ps = sample_postings(77, 333, 2_000);
        let td = CompressedTermData::from_postings(ps.clone(), 64);
        let mut sorted = ps;
        posting::sort_score_order(&mut sorted);
        let ix = CompressedIndex::from_parts(vec![td], 2_000, 64);
        let mut a = SliceScoreCursor::new(Arc::new(sorted));
        let mut b = ix.score_cursor(0);
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        for n in [1usize, 5, 64, 70, 64, 1000] {
            assert_eq!(a.next_segment(n, &mut sa), b.next_segment(n, &mut sb));
            assert_eq!(sa, sb);
        }
    }
}
