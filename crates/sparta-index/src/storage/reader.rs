//! The index-directory loader, and the disk backend: a raw index loaded
//! whole and cross-checked at open, served from RAM with block-granular
//! I/O accounting.
//!
//! [`load_raw`] reads the raw planes and checks everything it reads
//! once, so a damaged directory is `InvalidData` at open, never a wrong
//! answer later. No file is opened after it returns.

use super::format::{self, DictEntry, Meta};
use crate::cursor::{DocCursor, RandomAccess, ScoreCursor};
use crate::iostats::{IoModel, IoStats};
use crate::memory::{InMemoryIndex, TermData};
use crate::posting::{self, BlockMeta, Posting};
use crate::Index;
use sparta_corpus::per_term;
use sparta_corpus::types::{DocId, TermId};
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Bytes fetched per sequential read (the paper memory-maps files and
/// relies on the OS read-ahead; 64KB models one read-ahead unit).
pub const IO_BLOCK_BYTES: usize = 64 * 1024;

/// Postings per sequential fetch.
const FETCH_POSTINGS: u64 = (IO_BLOCK_BYTES / 8) as u64;

/// Loads the raw planes of an index directory written by
/// [`super::writer::IndexWriter`] into a RAM-resident
/// [`InMemoryIndex`].
///
/// Every posting is stored twice (score order in `score.bin`, doc order
/// in `doc.bin`) and summarised twice (`blocks.bin` and the dict's
/// `max_score`), so the copies are checked against each other:
/// `InvalidData` unless each term's postings lie inside both files, its
/// doc plane is strictly ascending and below `num_docs`, and the
/// [`TermData`] built from that plane equals its score plane, its
/// blocks and its `max_score` exactly. Damage confined to one file
/// therefore never loads. Terms are decoded and checked on every core
/// ([`per_term::map_terms`]).
pub fn load_raw(dir: impl AsRef<Path>) -> io::Result<InMemoryIndex> {
    let dir = dir.as_ref();
    let meta = Meta::read_from(&mut File::open(dir.join("meta.bin"))?)?;
    if meta.block_size == 0 {
        return Err(format::bad("block_size is 0"));
    }

    let dict_bytes = std::fs::read(dir.join("dict.bin"))?;
    if dict_bytes.len() != meta.num_terms as usize * DictEntry::SIZE {
        return Err(format::bad("dict.bin size does not match num_terms"));
    }
    let mut slice = dict_bytes.as_slice();
    let dict = (0..meta.num_terms)
        .map(|_| DictEntry::read_from(&mut slice))
        .collect::<io::Result<Vec<_>>>()?;

    let block_bytes = std::fs::read(dir.join("blocks.bin"))?;
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

    let score_bin = std::fs::read(dir.join("score.bin"))?;
    let doc_bin = std::fs::read(dir.join("doc.bin"))?;
    let block_size = meta.block_size as usize;
    // Terms load on every core; results come back in term order, so
    // the error returned is the first failing term's, as a serial loop
    // would report it.
    let (terms, _) = per_term::map_terms(
        meta.num_terms,
        || (),
        |(), t| {
            let e = &dict[t as usize];
            let doc_order = postings_at(&doc_bin, e.doc_off, e.len, "doc.bin")?;
            let score_order = postings_at(&score_bin, e.score_off, e.len, "score.bin")?;
            if !posting::is_doc_ordered(&doc_order) {
                return Err(format::bad("doc.bin is not in ascending doc order"));
            }
            if doc_order
                .last()
                .is_some_and(|p| u64::from(p.doc) >= meta.num_docs)
            {
                return Err(format::bad("doc.bin holds an id not below num_docs"));
            }
            let td = TermData::from_postings(doc_order, block_size);
            let stored = &blocks[e.block_off as usize..][..e.num_blocks as usize];
            if *td.score_order != score_order {
                return Err(format::bad("score.bin disagrees with doc.bin"));
            }
            if td.blocks[..] != *stored {
                return Err(format::bad("blocks.bin disagrees with doc.bin"));
            }
            if td.max_score != e.max_score {
                return Err(format::bad("dict.bin max_score disagrees with doc.bin"));
            }
            Ok(td)
        },
    );
    Ok(InMemoryIndex::from_term_data(
        terms.into_iter().collect::<io::Result<Vec<_>>>()?,
        meta.num_docs,
        block_size,
    ))
}

/// Decodes the `len` postings at byte `off` of `file` (named `name`);
/// `InvalidData` if they do not lie inside it.
fn postings_at(file: &[u8], off: u64, len: u64, name: &str) -> io::Result<Vec<Posting>> {
    let end = len
        .checked_mul(8)
        .and_then(|bytes| off.checked_add(bytes))
        .filter(|&end| end <= file.len() as u64)
        .ok_or_else(|| format::bad(format!("a term's postings overrun {name}")))?;
    let mut out = Vec::new();
    format::decode_postings(&file[off as usize..end as usize], &mut out);
    Ok(out)
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

/// The disk-resident [`Index`] of the paper's setup (§5.1): the raw
/// planes [`load_raw`] returns, each access charged through
/// [`IoStats`]/[`IoModel`] as a cold read of the posting files would
/// be. The dictionary and block-max metadata count as RAM-resident, as
/// in any production engine; postings cost:
///
/// * a score cursor, one sequential fetch of up to [`IO_BLOCK_BYTES`]
///   when it delivers the first posting of each fetch;
/// * a doc cursor, one read of a block's postings when it first lands
///   in that block — sequential for the block after the last one read,
///   random otherwise; opening it lands in block 0;
/// * a random-access probe, one random read of the block its target
///   would lie in (none when the target lies past the list).
pub struct DiskIndex {
    raw: InMemoryIndex,
    io: Charges,
}

impl DiskIndex {
    /// Opens an index directory written by
    /// [`super::writer::IndexWriter`]: [`load_raw`], then charged I/O.
    pub fn open(dir: impl AsRef<Path>, model: IoModel) -> io::Result<Self> {
        Ok(Self {
            raw: load_raw(dir)?,
            io: Charges {
                stats: Arc::new(IoStats::new()),
                model,
            },
        })
    }

    /// Block size (postings per block-max block).
    pub fn block_size(&self) -> usize {
        self.raw.block_size()
    }
}

/// The I/O accounting one [`DiskIndex`] shares with its cursors.
#[derive(Clone)]
struct Charges {
    stats: Arc<IoStats>,
    model: IoModel,
}

impl Charges {
    fn seq(&self, bytes: u64) {
        self.stats.record_seq(bytes);
        self.model.charge_seq();
    }

    fn random(&self, bytes: u64) {
        self.stats.record_random(bytes);
        self.model.charge_random();
    }

    /// Charges a read of doc-order block `bi` of a list of `len`
    /// postings in blocks of `block_size`.
    fn block(&self, bi: usize, len: u64, block_size: usize, seq: bool) {
        let start = (bi * block_size) as u64;
        let bytes = (len - start).min(block_size as u64) * 8;
        if seq {
            self.seq(bytes);
        } else {
            self.random(bytes);
        }
    }
}

impl Index for DiskIndex {
    fn num_docs(&self) -> u64 {
        self.raw.num_docs()
    }

    fn num_terms(&self) -> u32 {
        self.raw.num_terms()
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        self.raw.doc_freq(term)
    }

    fn score_cursor(&self, term: TermId) -> Box<dyn ScoreCursor> {
        Box::new(ChargedScoreCursor {
            inner: self.raw.score_cursor(term),
            io: self.io.clone(),
            pos: 0,
        })
    }

    fn doc_cursor(&self, term: TermId) -> Box<dyn DocCursor> {
        let inner = self.raw.doc_cursor(term);
        let blocks = self.raw.term_data(term).map(|t| Arc::clone(&t.blocks));
        let c = ChargedDocCursor {
            inner,
            blocks: blocks.unwrap_or_default(),
            block_size: self.block_size(),
            io: self.io.clone(),
            block: 0,
        };
        if !c.inner.is_empty() {
            c.io.block(0, c.inner.len(), c.block_size, true);
        }
        Box::new(c)
    }

    fn random_access(&self) -> Option<&dyn RandomAccess> {
        Some(self)
    }

    fn io_stats(&self) -> Option<&IoStats> {
        Some(&self.io.stats)
    }
}

impl RandomAccess for DiskIndex {
    /// One lookup = one RAM binary search over block metadata + one
    /// random block read, modelling the paper's secondary index (one
    /// I/O request and cache miss per access, §3.2).
    fn term_score(&self, term: TermId, doc: DocId) -> u32 {
        let Some(t) = self.raw.term_data(term) else {
            return 0;
        };
        let bi = t.blocks.partition_point(|b| b.last_doc < doc);
        if bi >= t.blocks.len() {
            return 0;
        }
        let len = t.doc_order.len() as u64;
        self.io.block(bi, len, self.block_size(), false);
        self.raw.term_score(term, doc)
    }
}

/// The raw score cursor, charged one sequential fetch per
/// [`IO_BLOCK_BYTES`] of postings as it delivers the fetch's first.
struct ChargedScoreCursor {
    inner: Box<dyn ScoreCursor>,
    io: Charges,
    /// Postings delivered so far.
    pos: u64,
}

impl ChargedScoreCursor {
    /// Charges each fetch whose first posting is among the next `n`
    /// delivered.
    fn deliver(&mut self, n: u64) {
        let end = self.pos + n;
        let mut fetch = self.pos.next_multiple_of(FETCH_POSTINGS);
        while fetch < end {
            let postings = (self.inner.len() - fetch).min(FETCH_POSTINGS);
            self.io.seq(postings * 8);
            fetch += FETCH_POSTINGS;
        }
        self.pos = end;
    }
}

impl ScoreCursor for ChargedScoreCursor {
    fn next(&mut self) -> Option<Posting> {
        let p = self.inner.next();
        if p.is_some() {
            self.deliver(1);
        }
        p
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn next_segment(&mut self, n: usize, out: &mut Vec<Posting>) -> usize {
        let delivered = self.inner.next_segment(n, out);
        self.deliver(delivered as u64);
        delivered
    }
}

/// The raw doc cursor, charged one read of a block's postings each
/// time it lands in a block other than the last one charged.
struct ChargedDocCursor {
    inner: Box<dyn DocCursor>,
    blocks: Arc<Vec<BlockMeta>>,
    block_size: usize,
    io: Charges,
    /// The block the cursor is in: the last one charged.
    block: usize,
}

impl ChargedDocCursor {
    /// Charges the block `doc`, the cursor's new position, lies in if
    /// the cursor has left the last one charged.
    fn landed(&mut self, doc: Option<DocId>) -> Option<DocId> {
        if let Some(d) = doc {
            if d > self.blocks[self.block].last_doc {
                let next = self.block + 1;
                self.block = next + self.blocks[next..].partition_point(|b| b.last_doc < d);
                let seq = self.block == next;
                self.io
                    .block(self.block, self.inner.len(), self.block_size, seq);
            }
        }
        doc
    }
}

impl DocCursor for ChargedDocCursor {
    fn doc(&self) -> Option<DocId> {
        self.inner.doc()
    }

    fn score(&self) -> u32 {
        self.inner.score()
    }

    fn advance(&mut self) -> Option<DocId> {
        let doc = self.inner.advance();
        self.landed(doc)
    }

    fn seek(&mut self, target: DocId) -> Option<DocId> {
        let doc = self.inner.seek(target);
        self.landed(doc)
    }

    fn block_at(&self, target: DocId) -> Option<(DocId, u32)> {
        self.inner.block_at(target)
    }

    fn max_score(&self) -> u32 {
        self.inner.max_score()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}
