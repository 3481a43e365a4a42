//! Binary layout constants and (de)serialization of fixed-width records.

use crate::posting::{BlockMeta, Posting};
use std::io::{self, Read, Write};

/// File magic at the start of `meta.bin`.
pub const MAGIC: &[u8; 8] = b"SPARTAIX";

/// Current format version. Version 2 once allowed an optional
/// compressed section in a file of its own, since retired; the raw
/// planes were always written beside it, so every version-2 directory
/// still opens with [`super::DiskIndex::open`], which never reads that
/// file. Version-1 directories remain readable too.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version the reader accepts.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Contents of `meta.bin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Format version.
    pub version: u32,
    /// Number of documents in the corpus.
    pub num_docs: u64,
    /// Number of terms (dictionary entries).
    pub num_terms: u32,
    /// Postings per block-max block.
    pub block_size: u32,
}

impl Meta {
    /// Serializes to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&self.version.to_le_bytes())?;
        w.write_all(&self.num_docs.to_le_bytes())?;
        w.write_all(&self.num_terms.to_le_bytes())?;
        w.write_all(&self.block_size.to_le_bytes())?;
        Ok(())
    }

    /// Deserializes from `r`, validating magic and version.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a Sparta index (bad magic)",
            ));
        }
        let version = read_u32(r)?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported index format version {version}"),
            ));
        }
        Ok(Self {
            version,
            num_docs: read_u64(r)?,
            num_terms: read_u32(r)?,
            block_size: read_u32(r)?,
        })
    }
}

/// One `dict.bin` record (40 bytes): where a term's data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DictEntry {
    /// Byte offset of the score-ordered list in `score.bin`.
    pub score_off: u64,
    /// Byte offset of the doc-ordered list in `doc.bin`.
    pub doc_off: u64,
    /// Posting count.
    pub len: u64,
    /// Index of the first block in the in-RAM block array.
    pub block_off: u64,
    /// Number of block-max blocks.
    pub num_blocks: u32,
    /// List-wide maximum score.
    pub max_score: u32,
}

impl DictEntry {
    /// Encoded size in bytes.
    pub const SIZE: usize = 40;

    /// Serializes to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.score_off.to_le_bytes())?;
        w.write_all(&self.doc_off.to_le_bytes())?;
        w.write_all(&self.len.to_le_bytes())?;
        w.write_all(&self.block_off.to_le_bytes())?;
        w.write_all(&self.num_blocks.to_le_bytes())?;
        w.write_all(&self.max_score.to_le_bytes())?;
        Ok(())
    }

    /// Deserializes from `r`.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        Ok(Self {
            score_off: read_u64(r)?,
            doc_off: read_u64(r)?,
            len: read_u64(r)?,
            block_off: read_u64(r)?,
            num_blocks: read_u32(r)?,
            max_score: read_u32(r)?,
        })
    }
}

/// Encodes a posting slice as little-endian bytes.
pub fn encode_postings(postings: &[Posting], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(postings.len() * 8);
    for p in postings {
        out.extend_from_slice(&p.doc.to_le_bytes());
        out.extend_from_slice(&p.score.to_le_bytes());
    }
}

/// Decodes postings from bytes (must be a multiple of 8 bytes).
pub fn decode_postings(bytes: &[u8], out: &mut Vec<Posting>) {
    debug_assert_eq!(bytes.len() % 8, 0);
    out.clear();
    out.reserve(bytes.len() / 8);
    for c in bytes.chunks_exact(8) {
        out.push(Posting {
            doc: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            score: u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
        });
    }
}

/// Encodes block metadata.
pub fn encode_blocks(blocks: &[BlockMeta], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(blocks.len() * 8);
    for b in blocks {
        out.extend_from_slice(&b.last_doc.to_le_bytes());
        out.extend_from_slice(&b.max_score.to_le_bytes());
    }
}

/// Decodes block metadata.
pub fn decode_blocks(bytes: &[u8]) -> Vec<BlockMeta> {
    debug_assert_eq!(bytes.len() % 8, 0);
    bytes
        .chunks_exact(8)
        .map(|c| BlockMeta {
            last_doc: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            max_score: u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
        })
        .collect()
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trip() {
        let m = Meta {
            version: FORMAT_VERSION,
            num_docs: 1234567,
            num_terms: 89,
            block_size: 64,
        };
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let got = Meta::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn meta_rejects_bad_magic() {
        let mut buf = Vec::new();
        Meta {
            version: FORMAT_VERSION,
            num_docs: 1,
            num_terms: 1,
            block_size: 64,
        }
        .write_to(&mut buf)
        .unwrap();
        buf[3] = b'X';
        assert!(Meta::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn meta_rejects_future_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&64u32.to_le_bytes());
        assert!(Meta::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn dict_entry_round_trip() {
        let e = DictEntry {
            score_off: 100,
            doc_off: 200,
            len: 37,
            block_off: 5,
            num_blocks: 1,
            max_score: 999,
        };
        let mut buf = Vec::new();
        e.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), DictEntry::SIZE);
        assert_eq!(DictEntry::read_from(&mut buf.as_slice()).unwrap(), e);
    }

    #[test]
    fn postings_round_trip() {
        let ps: Vec<Posting> = (0..100u32).map(|i| Posting::new(i * 3, i * 7)).collect();
        let mut bytes = Vec::new();
        encode_postings(&ps, &mut bytes);
        assert_eq!(bytes.len(), 800);
        let mut got = Vec::new();
        decode_postings(&bytes, &mut got);
        assert_eq!(got, ps);
    }

    #[test]
    fn blocks_round_trip() {
        let bs = vec![
            BlockMeta {
                last_doc: 63,
                max_score: 12,
            },
            BlockMeta {
                last_doc: 127,
                max_score: 99,
            },
        ];
        let mut bytes = Vec::new();
        encode_blocks(&bs, &mut bytes);
        assert_eq!(decode_blocks(&bytes), bs);
    }
}
