//! Streaming index writer.
//!
//! Terms are appended one at a time so that arbitrarily large corpora
//! can be indexed with O(largest posting list) memory: the synthetic
//! corpus regenerates each term's postings on demand and hands them
//! straight to [`IndexWriter::add_term`].

use super::format::{self, DictEntry, Meta, FORMAT_VERSION};
use crate::builder::IndexKind;
use crate::compressed::CompressedTermData;
use crate::posting::{self, Posting};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Streaming writer producing the on-disk format of [`super`].
pub struct IndexWriter {
    dir: PathBuf,
    meta: Meta,
    dict: Vec<DictEntry>,
    score_file: BufWriter<File>,
    doc_file: BufWriter<File>,
    blocks_file: BufWriter<File>,
    /// The versioned compressed section, present when the writer was
    /// created with [`IndexKind::Compressed`].
    compressed_file: Option<BufWriter<File>>,
    score_off: u64,
    doc_off: u64,
    block_off: u64,
    scratch: Vec<u8>,
}

impl IndexWriter {
    /// Creates the index directory (must not already contain an index)
    /// and opens the data files. `num_terms` terms must subsequently
    /// be added, in term-id order, before [`finish`](Self::finish).
    pub fn create(
        dir: impl AsRef<Path>,
        num_docs: u64,
        num_terms: u32,
        block_size: usize,
    ) -> io::Result<Self> {
        Self::create_with_kind(dir, num_docs, num_terms, block_size, IndexKind::Raw)
    }

    /// As [`create`](Self::create); with [`IndexKind::Compressed`] the
    /// writer additionally emits `compressed.bin`, the versioned
    /// compressed section loadable via
    /// [`super::reader::load_compressed`]. The raw planes are always
    /// written, so the directory stays readable by [`super::reader::DiskIndex`].
    pub fn create_with_kind(
        dir: impl AsRef<Path>,
        num_docs: u64,
        num_terms: u32,
        block_size: usize,
        kind: IndexKind,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let open = |name: &str| -> io::Result<BufWriter<File>> {
            Ok(BufWriter::new(File::create(dir.join(name))?))
        };
        let compressed_file = match kind {
            IndexKind::Raw => None,
            IndexKind::Compressed => {
                let mut f = open("compressed.bin")?;
                format::write_compressed_header(&mut f, num_docs, num_terms, block_size as u32)?;
                Some(f)
            }
        };
        Ok(Self {
            meta: Meta {
                version: FORMAT_VERSION,
                num_docs,
                num_terms,
                block_size: block_size as u32,
            },
            dict: Vec::with_capacity(num_terms as usize),
            score_file: open("score.bin")?,
            doc_file: open("doc.bin")?,
            blocks_file: open("blocks.bin")?,
            compressed_file,
            score_off: 0,
            doc_off: 0,
            block_off: 0,
            dir,
            scratch: Vec::new(),
        })
    }

    /// Appends the next term's postings (any order; sorted internally).
    pub fn add_term(&mut self, mut postings: Vec<Posting>) -> io::Result<()> {
        if self.dict.len() as u32 >= self.meta.num_terms {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "more terms than declared at create()",
            ));
        }
        posting::sort_doc_order(&mut postings);
        let blocks = posting::build_blocks(&postings, self.meta.block_size as usize);
        let max_score = postings.iter().map(|p| p.score).max().unwrap_or(0);

        let entry = DictEntry {
            score_off: self.score_off,
            doc_off: self.doc_off,
            len: postings.len() as u64,
            block_off: self.block_off,
            num_blocks: blocks.len() as u32,
            max_score,
        };

        if let Some(f) = self.compressed_file.as_mut() {
            let td =
                CompressedTermData::from_postings(postings.clone(), self.meta.block_size as usize);
            format::encode_compressed_term(&td, &mut self.scratch);
            f.write_all(&self.scratch)?;
        }

        format::encode_postings(&postings, &mut self.scratch);
        self.doc_file.write_all(&self.scratch)?;
        self.doc_off += self.scratch.len() as u64;

        format::encode_blocks(&blocks, &mut self.scratch);
        self.blocks_file.write_all(&self.scratch)?;
        self.block_off += blocks.len() as u64;

        posting::sort_score_order(&mut postings);
        format::encode_postings(&postings, &mut self.scratch);
        self.score_file.write_all(&self.scratch)?;
        self.score_off += self.scratch.len() as u64;

        self.dict.push(entry);
        Ok(())
    }

    /// Flushes data files and writes the dictionary and metadata.
    /// Fails if fewer terms than declared were added.
    pub fn finish(mut self) -> io::Result<()> {
        if self.dict.len() as u32 != self.meta.num_terms {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "declared {} terms but added {}",
                    self.meta.num_terms,
                    self.dict.len()
                ),
            ));
        }
        self.score_file.flush()?;
        self.doc_file.flush()?;
        self.blocks_file.flush()?;
        if let Some(mut f) = self.compressed_file.take() {
            f.flush()?;
        }

        let mut dict = BufWriter::new(File::create(self.dir.join("dict.bin"))?);
        for e in &self.dict {
            e.write_to(&mut dict)?;
        }
        dict.flush()?;

        let mut meta = BufWriter::new(File::create(self.dir.join("meta.bin"))?);
        self.meta.write_to(&mut meta)?;
        meta.flush()?;
        Ok(())
    }
}
