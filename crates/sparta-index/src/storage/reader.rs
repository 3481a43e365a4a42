//! Disk-resident index reader with block-granular, accounted I/O.

use super::format::{self, DictEntry, Meta};
use crate::cursor::{DocCursor, RandomAccess, ScoreCursor};
use crate::iostats::{IoModel, IoStats};
use crate::posting::{BlockMeta, Posting};
use crate::Index;
use sparta_corpus::types::{DocId, TermId};
use std::fs::File;
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Bytes fetched per sequential read (the paper memory-maps files and
/// relies on the OS read-ahead; 64KB models one read-ahead unit).
pub const IO_BLOCK_BYTES: usize = 64 * 1024;

/// A disk-resident [`Index`]. The dictionary and block-max metadata
/// are RAM-resident; posting data is fetched on demand through the
/// [`IoStats`]/[`IoModel`] accounting layer.
pub struct DiskIndex {
    /// Shared with every open cursor, so cursors are `'static`.
    state: Arc<DiskState>,
}

/// Everything a [`DiskIndex`] and its cursors read.
struct DiskState {
    meta: Meta,
    dict: Vec<DictEntry>,
    blocks: Vec<BlockMeta>,
    score_file: File,
    doc_file: File,
    io: IoStats,
    model: IoModel,
}

impl DiskIndex {
    /// Opens an index directory written by
    /// [`super::writer::IndexWriter`]. `InvalidData` unless every
    /// term's `⌈len / block_size⌉` blocks lie inside `blocks.bin` and
    /// end below `num_docs`, so no later slice of them can panic.
    pub fn open(dir: impl AsRef<Path>, model: IoModel) -> io::Result<Self> {
        let dir = dir.as_ref();
        let mut meta_file = File::open(dir.join("meta.bin"))?;
        let meta = Meta::read_from(&mut meta_file)?;
        if meta.block_size == 0 {
            return Err(format::bad("block_size is 0"));
        }

        let mut dict_bytes = Vec::new();
        File::open(dir.join("dict.bin"))?.read_to_end(&mut dict_bytes)?;
        if dict_bytes.len() != meta.num_terms as usize * DictEntry::SIZE {
            return Err(format::bad("dict.bin size does not match num_terms"));
        }
        let mut dict = Vec::with_capacity(meta.num_terms as usize);
        let mut slice = dict_bytes.as_slice();
        for _ in 0..meta.num_terms {
            dict.push(DictEntry::read_from(&mut slice)?);
        }

        let mut block_bytes = Vec::new();
        File::open(dir.join("blocks.bin"))?.read_to_end(&mut block_bytes)?;
        if block_bytes.len() % 8 != 0 {
            return Err(format::bad("blocks.bin is not a whole number of blocks"));
        }
        let blocks = format::decode_blocks(&block_bytes);
        for e in &dict {
            let end = e.block_off.checked_add(u64::from(e.num_blocks));
            if end.is_none_or(|end| end > blocks.len() as u64) {
                return Err(format::bad("a term's blocks overrun blocks.bin"));
            }
            if u64::from(e.num_blocks) != e.len.div_ceil(u64::from(meta.block_size)) {
                return Err(format::bad("block count does not match posting count"));
            }
        }
        check_num_docs(meta.num_docs, blocks.iter().map(|b| b.last_doc).max())?;

        let state = Arc::new(DiskState {
            meta,
            dict,
            blocks,
            score_file: File::open(dir.join("score.bin"))?,
            doc_file: File::open(dir.join("doc.bin"))?,
            io: IoStats::new(),
            model,
        });
        Ok(Self { state })
    }

    /// Block size (postings per block-max block).
    pub fn block_size(&self) -> usize {
        self.state.meta.block_size as usize
    }
}

impl DiskState {
    /// `term`'s dictionary entry (all zeros for unknown terms).
    fn entry_or_empty(&self, term: TermId) -> DictEntry {
        self.dict.get(term as usize).copied().unwrap_or_default()
    }

    fn entry(&self, term: TermId) -> Option<&DictEntry> {
        self.dict.get(term as usize).filter(|e| e.len > 0)
    }

    fn term_blocks(&self, e: &DictEntry) -> &[BlockMeta] {
        &self.blocks[e.block_off as usize..e.block_off as usize + e.num_blocks as usize]
    }

    /// Reads `buf.len()` bytes at `off` from `file`, charging it as a
    /// sequential fetch when `seq`, else as a random access.
    fn read_at(&self, file: &File, off: u64, buf: &mut [u8], seq: bool) -> io::Result<()> {
        file.read_exact_at(buf, off)?;
        if seq {
            self.io.record_seq(buf.len() as u64);
            self.model.charge_seq();
        } else {
            self.io.record_random(buf.len() as u64);
            self.model.charge_random();
        }
        Ok(())
    }

    /// Decodes postings into `out`; a doc id ≥ `num_docs` is a failed
    /// read (`false`, `out` left empty), so no cursor yields it.
    fn decode(&self, bytes: &[u8], out: &mut Vec<Posting>) -> bool {
        format::decode_postings(bytes, out);
        let ok = out.iter().all(|p| u64::from(p.doc) < self.meta.num_docs);
        if !ok {
            out.clear();
        }
        ok
    }
}

/// Rejects a header `num_docs` above 2^32 or not above `max_doc`, the
/// largest stored id ([`Index::num_docs`]).
fn check_num_docs(num_docs: u64, max_doc: Option<DocId>) -> io::Result<()> {
    let least = max_doc.map_or(0, |d| u64::from(d) + 1);
    if (least..=crate::MAX_DOCS).contains(&num_docs) {
        return Ok(());
    }
    Err(format::bad(format!(
        "num_docs {num_docs} is outside {least}..=2^32"
    )))
}

impl Index for DiskIndex {
    fn num_docs(&self) -> u64 {
        self.state.meta.num_docs
    }

    fn num_terms(&self) -> u32 {
        self.state.meta.num_terms
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        self.state.entry_or_empty(term).len
    }

    fn max_score(&self, term: TermId) -> u32 {
        self.state.entry_or_empty(term).max_score
    }

    fn score_cursor(&self, term: TermId) -> Box<dyn ScoreCursor> {
        Box::new(DiskScoreCursor::new(Arc::clone(&self.state), term))
    }

    fn doc_cursor(&self, term: TermId) -> Box<dyn DocCursor> {
        Box::new(DiskDocCursor::new(Arc::clone(&self.state), term))
    }

    fn random_access(&self) -> Option<&dyn RandomAccess> {
        Some(self)
    }

    fn io_stats(&self) -> Option<&IoStats> {
        Some(&self.state.io)
    }
}

impl RandomAccess for DiskIndex {
    /// One lookup = one RAM binary search over block metadata + one
    /// random block fetch, modelling the paper's secondary index (one
    /// I/O request and cache miss per access, §3.2).
    fn term_score(&self, term: TermId, doc: DocId) -> u32 {
        let ix = &*self.state;
        let Some(e) = ix.entry(term) else { return 0 };
        let blocks = ix.term_blocks(e);
        let bi = blocks.partition_point(|b| b.last_doc < doc);
        if bi >= blocks.len() {
            return 0;
        }
        let bs = ix.meta.block_size as usize;
        let start = bi * bs;
        let count = (e.len as usize - start).min(bs);
        let mut buf = vec![0u8; count * 8];
        if ix
            .read_at(
                &ix.doc_file,
                e.doc_off + (start * 8) as u64,
                &mut buf,
                false,
            )
            .is_err()
        {
            return 0;
        }
        let mut postings = Vec::new();
        if !ix.decode(&buf, &mut postings) {
            return 0;
        }
        match postings.binary_search_by_key(&doc, |p| p.doc) {
            Ok(i) => postings[i].score,
            Err(_) => 0,
        }
    }
}

/// Sequential score-order cursor reading [`IO_BLOCK_BYTES`] at a time.
struct DiskScoreCursor {
    ix: Arc<DiskState>,
    entry: DictEntry,
    buf: Vec<Posting>,
    /// Absolute posting index of `buf[0]`.
    buf_start: u64,
    /// Absolute posting index of the next posting to return.
    pos: u64,
    bytes: Vec<u8>,
}

impl DiskScoreCursor {
    fn new(ix: Arc<DiskState>, term: TermId) -> Self {
        let entry = ix.entry_or_empty(term);
        Self {
            ix,
            entry,
            buf: Vec::new(),
            buf_start: 0,
            pos: 0,
            bytes: Vec::new(),
        }
    }

    fn fill(&mut self) -> bool {
        if self.pos >= self.entry.len {
            return false;
        }
        let count = ((self.entry.len - self.pos) * 8).min(IO_BLOCK_BYTES as u64) as usize;
        self.bytes.resize(count, 0);
        let off = self.entry.score_off + self.pos * 8;
        let ix = &*self.ix;
        if ix
            .read_at(&ix.score_file, off, &mut self.bytes, true)
            .is_err()
            || !ix.decode(&self.bytes, &mut self.buf)
        {
            return false;
        }
        self.buf_start = self.pos;
        true
    }
}

impl ScoreCursor for DiskScoreCursor {
    fn next(&mut self) -> Option<Posting> {
        if self.pos >= self.entry.len {
            return None;
        }
        let rel = (self.pos - self.buf_start) as usize;
        if (self.buf.is_empty() || rel >= self.buf.len()) && !self.fill() {
            return None;
        }
        let rel = (self.pos - self.buf_start) as usize;
        let p = self.buf[rel];
        self.pos += 1;
        Some(p)
    }

    fn len(&self) -> u64 {
        self.entry.len
    }
}

/// Doc-order cursor that loads one block-max block at a time, using
/// the RAM block metadata for seeks and BMW-style block probes.
struct DiskDocCursor {
    ix: Arc<DiskState>,
    entry: DictEntry,
    /// Local (term-relative) index of the loaded block; usize::MAX if
    /// nothing is loaded yet.
    cur_block: usize,
    block: Vec<Posting>,
    /// Position within `block`.
    rel: usize,
    /// Exhausted flag.
    done: bool,
    /// File offset a sequential continuation would read next.
    next_seq_off: u64,
    bytes: Vec<u8>,
}

impl DiskDocCursor {
    fn new(ix: Arc<DiskState>, term: TermId) -> Self {
        let entry = ix.entry_or_empty(term);
        let done = entry.len == 0;
        let mut c = Self {
            ix,
            entry,
            cur_block: usize::MAX,
            block: Vec::new(),
            rel: 0,
            done,
            next_seq_off: entry.doc_off,
            bytes: Vec::new(),
        };
        if !c.done {
            c.load_block(0);
        }
        c
    }

    fn blocks(&self) -> &[BlockMeta] {
        let s = self.entry.block_off as usize;
        &self.ix.blocks[s..s + self.entry.num_blocks as usize]
    }

    fn load_block(&mut self, bi: usize) {
        if bi >= self.entry.num_blocks as usize {
            self.done = true;
            self.block.clear();
            return;
        }
        let bs = self.ix.meta.block_size as usize;
        let start = bi * bs;
        let count = (self.entry.len as usize - start).min(bs);
        let off = self.entry.doc_off + (start * 8) as u64;
        self.bytes.resize(count * 8, 0);
        let seq = off == self.next_seq_off;
        let ix = &*self.ix;
        let ok = ix.read_at(&ix.doc_file, off, &mut self.bytes, seq).is_ok()
            && ix.decode(&self.bytes, &mut self.block);
        if !ok {
            self.done = true;
            return;
        }
        self.next_seq_off = off + (count * 8) as u64;
        self.cur_block = bi;
        self.rel = 0;
    }
}

impl DocCursor for DiskDocCursor {
    fn doc(&self) -> Option<DocId> {
        if self.done {
            None
        } else {
            self.block.get(self.rel).map(|p| p.doc)
        }
    }

    fn score(&self) -> u32 {
        if self.done {
            0
        } else {
            self.block.get(self.rel).map_or(0, |p| p.score)
        }
    }

    fn advance(&mut self) -> Option<DocId> {
        if self.done {
            return None;
        }
        self.rel += 1;
        if self.rel >= self.block.len() {
            let next = self.cur_block + 1;
            self.load_block(next);
        }
        self.doc()
    }

    fn seek(&mut self, target: DocId) -> Option<DocId> {
        if self.done {
            return None;
        }
        if let Some(d) = self.doc() {
            if d >= target {
                return Some(d);
            }
        }
        let (bi, nblocks) = {
            let blocks = self.blocks();
            (
                self.cur_block + blocks[self.cur_block..].partition_point(|b| b.last_doc < target),
                blocks.len(),
            )
        };
        if bi >= nblocks {
            self.done = true;
            return None;
        }
        if bi != self.cur_block {
            self.load_block(bi);
            if self.done {
                return None;
            }
        }
        self.rel += self.block[self.rel..].partition_point(|p| p.doc < target);
        debug_assert!(self.rel < self.block.len());
        self.doc()
    }

    fn block_at(&self, target: DocId) -> Option<(DocId, u32)> {
        if self.done {
            return None;
        }
        let blocks = self.blocks();
        let bi = self.cur_block + blocks[self.cur_block..].partition_point(|b| b.last_doc < target);
        blocks.get(bi).map(|b| (b.last_doc, b.max_score))
    }

    fn max_score(&self) -> u32 {
        self.entry.max_score
    }

    fn len(&self) -> u64 {
        self.entry.len
    }
}

/// Loads the versioned compressed section (`compressed.bin`) of an
/// index directory written with
/// [`IndexKind::Compressed`](crate::builder::IndexKind::Compressed)
/// into a RAM-resident [`CompressedIndex`](crate::CompressedIndex).
///
/// Version-1 directories have no such section; opening them raises
/// `NotFound`, and callers fall back to [`DiskIndex`] / a raw build.
/// A decoded id not below the header's `num_docs` is `InvalidData`.
pub fn load_compressed(dir: impl AsRef<Path>) -> io::Result<crate::CompressedIndex> {
    let dir = dir.as_ref();
    let mut f = std::io::BufReader::new(File::open(dir.join("compressed.bin"))?);
    let (num_docs, num_terms, block_size) = format::read_compressed_header(&mut f)?;
    let mut terms = Vec::with_capacity(num_terms as usize);
    for _ in 0..num_terms {
        terms.push(format::decode_compressed_term(&mut f, block_size)?);
    }
    let mut rest = [0u8; 1];
    if f.read(&mut rest)? != 0 {
        return Err(format::bad("trailing bytes after last term"));
    }
    let max_doc = terms.iter().filter_map(|t| t.max_decoded_doc()).max();
    check_num_docs(num_docs, max_doc)?;
    Ok(crate::CompressedIndex::from_parts(
        terms,
        num_docs,
        block_size as usize,
    ))
}
