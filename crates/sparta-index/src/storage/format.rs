//! Binary layout constants and (de)serialization of fixed-width records.

use crate::compressed::{CompressedTermData, PlaneMeta, MAX_BLOCK};
use crate::posting::{BlockMeta, Posting};
use std::io::{self, Read, Write};

/// File magic at the start of `meta.bin`.
pub const MAGIC: &[u8; 8] = b"SPARTAIX";

/// Current format version. Version 2 added the optional compressed
/// section (`compressed.bin`); version-1 directories (no such file)
/// remain readable.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version the reader accepts.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Magic at the start of the compressed section (`compressed.bin`).
pub const COMPRESSED_MAGIC: &[u8; 8] = b"SPARTACP";

/// Version of the compressed section's own layout. Version 2 dropped
/// the quantized block bounds: 8 quantizer bytes per term and one byte
/// per block-directory entry.
pub const COMPRESSED_SECTION_VERSION: u32 = 2;

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

/// Writes the compressed-section header.
pub fn write_compressed_header<W: Write>(
    w: &mut W,
    num_docs: u64,
    num_terms: u32,
    block_size: u32,
) -> io::Result<()> {
    w.write_all(COMPRESSED_MAGIC)?;
    w.write_all(&COMPRESSED_SECTION_VERSION.to_le_bytes())?;
    w.write_all(&num_docs.to_le_bytes())?;
    w.write_all(&num_terms.to_le_bytes())?;
    w.write_all(&block_size.to_le_bytes())?;
    Ok(())
}

/// Reads and validates the compressed-section header, returning
/// `(num_docs, num_terms, block_size)`.
pub fn read_compressed_header<R: Read>(r: &mut R) -> io::Result<(u64, u32, u32)> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != COMPRESSED_MAGIC {
        return Err(bad("not a compressed posting section (bad magic)"));
    }
    let version = read_u32(r)?;
    if version != COMPRESSED_SECTION_VERSION {
        return Err(bad(format!(
            "unsupported compressed section version {version}"
        )));
    }
    let num_docs = read_u64(r)?;
    let num_terms = read_u32(r)?;
    let block_size = read_u32(r)?;
    if block_size == 0 || block_size as usize > MAX_BLOCK {
        return Err(bad(format!("invalid block size {block_size}")));
    }
    Ok((num_docs, num_terms, block_size))
}

/// Serializes one term's compressed data. The codebook is written as
/// varint deltas (it is strictly ascending); packed planes are raw
/// little-endian words.
pub fn encode_compressed_term(td: &CompressedTermData, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&td.len.to_le_bytes());
    if td.len == 0 {
        return;
    }
    out.extend_from_slice(&td.max_score.to_le_bytes());
    out.push(td.sidx_bits);
    out.push(td.doc_raw_bits);

    out.extend_from_slice(&(td.dict.len() as u32).to_le_bytes());
    let mut prev = 0u32;
    for (i, &v) in td.dict.iter().enumerate() {
        write_varint(if i == 0 { v } else { v - prev - 1 }, out);
        prev = v;
    }

    out.extend_from_slice(&(td.blocks.len() as u32).to_le_bytes());
    for (bi, b) in td.blocks.iter().enumerate() {
        out.extend_from_slice(&b.last_doc.to_le_bytes());
        out.extend_from_slice(&b.max_score.to_le_bytes());
        out.extend_from_slice(&td.doc_meta[bi].off.to_le_bytes());
        out.push(td.doc_meta[bi].bits);
        out.extend_from_slice(&td.score_meta[bi].off.to_le_bytes());
        out.push(td.score_meta[bi].bits);
    }

    out.extend_from_slice(&(td.words.len() as u32).to_le_bytes());
    for &w in &td.words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Deserializes one term written by [`encode_compressed_term`].
pub fn decode_compressed_term<R: Read>(
    r: &mut R,
    block_size: u32,
) -> io::Result<CompressedTermData> {
    let len = read_u32(r)?;
    if len == 0 {
        return Ok(CompressedTermData {
            block_size,
            ..CompressedTermData::default()
        });
    }
    let max_score = read_u32(r)?;
    let mut widths = [0u8; 2];
    r.read_exact(&mut widths)?;
    let (sidx_bits, doc_raw_bits) = (widths[0], widths[1]);
    if sidx_bits > 32 || doc_raw_bits > 32 {
        return Err(bad("invalid packed field width"));
    }

    let dict_len = read_u32(r)? as usize;
    if dict_len == 0 || dict_len > len as usize {
        return Err(bad("invalid codebook size"));
    }
    let mut dict = Vec::with_capacity(dict_len);
    let mut varint_buf = [0u8; 5];
    let mut prev = 0u32;
    for i in 0..dict_len {
        let v = read_varint_from(r, &mut varint_buf)?;
        let v = if i == 0 {
            v
        } else {
            prev.checked_add(v)
                .and_then(|x| x.checked_add(1))
                .ok_or_else(|| bad("codebook delta overflow"))?
        };
        dict.push(v);
        prev = v;
    }
    if dict.last() != Some(&max_score) {
        return Err(bad("codebook does not end at max score"));
    }

    let num_blocks = read_u32(r)? as usize;
    if num_blocks != (len as usize).div_ceil(block_size as usize) {
        return Err(bad("block count does not match posting count"));
    }
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut doc_meta = Vec::with_capacity(num_blocks);
    let mut score_meta = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        let last_doc = read_u32(r)?;
        let bmax = read_u32(r)?;
        let mut b1 = [0u8; 1];
        let doc_off = read_u32(r)?;
        r.read_exact(&mut b1)?;
        let doc_bits = b1[0];
        let score_off = read_u32(r)?;
        r.read_exact(&mut b1)?;
        let score_bits = b1[0];
        if doc_bits > 32 || score_bits > 32 {
            return Err(bad("invalid packed field width"));
        }
        blocks.push(BlockMeta {
            last_doc,
            max_score: bmax,
        });
        doc_meta.push(PlaneMeta {
            off: doc_off,
            bits: doc_bits,
        });
        score_meta.push(PlaneMeta {
            off: score_off,
            bits: score_bits,
        });
    }

    let num_words = read_u32(r)? as usize;
    if num_words == 0 {
        return Err(bad("missing packed words"));
    }
    let mut words = Vec::with_capacity(num_words);
    let mut w8 = [0u8; 8];
    for _ in 0..num_words {
        r.read_exact(&mut w8)?;
        words.push(u64::from_le_bytes(w8));
    }
    // Every plane offset must leave room for its block's data plus the
    // decoder's one-word lookahead.
    let word_bits = (num_words as u64 - 1) * 64;
    for (bi, (dm, sm)) in doc_meta.iter().zip(score_meta.iter()).enumerate() {
        let n = (len as u64 - bi as u64 * u64::from(block_size)).min(u64::from(block_size));
        let doc_end = u64::from(dm.off) + n * (u64::from(dm.bits) + u64::from(sidx_bits));
        let score_end = u64::from(sm.off) + n * (u64::from(doc_raw_bits) + u64::from(sm.bits));
        if doc_end > word_bits || score_end > word_bits {
            return Err(bad("plane offset out of bounds"));
        }
    }

    Ok(CompressedTermData {
        len,
        max_score,
        block_size,
        dict,
        blocks,
        sidx_bits,
        doc_raw_bits,
        doc_meta,
        score_meta,
        words,
    })
}

/// Appends `v` as a LEB128 varint.
#[inline]
fn write_varint(mut v: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, returning `(value, bytes_consumed)`.
/// Returns `None` on truncated, overflowing, or non-canonical input.
///
/// A u32 occupies at most 5 LEB128 bytes, and the 5th byte contributes
/// only its low 4 payload bits (`4·7 + 4 = 32`). The 5th-byte check
/// must happen *before* the shift: `value << 28` silently discards
/// high bits in Rust, so a payload with bits above 0xF would otherwise
/// truncate into a wrong — but plausible — u32 long before the
/// too-many-continuation-bytes guard trips. Non-canonical (overlong)
/// encodings — a zero *final* byte after at least one continuation
/// byte, which `write_varint` never emits — are rejected too, so
/// every accepted byte string is the unique encoding of its value.
#[inline]
fn read_varint(buf: &[u8]) -> Option<(u32, usize)> {
    let mut v: u32 = 0;
    let mut shift = 0;
    for (i, &b) in buf.iter().enumerate() {
        if shift == 28 && b & 0x70 != 0 {
            return None; // malformed: 5th byte overflows u32
        }
        v |= u32::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return None; // malformed: overlong (trailing zero byte)
            }
            return Some((v, i + 1));
        }
        shift += 7;
        if shift > 28 {
            return None; // malformed: too many continuation bytes
        }
    }
    None
}

fn read_varint_from<R: Read>(r: &mut R, scratch: &mut [u8; 5]) -> io::Result<u32> {
    for i in 0..5 {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        scratch[i] = b[0];
        if b[0] & 0x80 == 0 {
            return read_varint(&scratch[..=i])
                .map(|(v, _)| v)
                .ok_or_else(|| bad("malformed varint"));
        }
    }
    Err(bad("malformed varint"))
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
    fn compressed_term_round_trips() {
        let ps: Vec<Posting> = (0..300u32)
            .map(|i| Posting::new(i * 5 + i % 4, i.wrapping_mul(2_654_435_761) % 900_000 + 1))
            .collect();
        let td = CompressedTermData::from_postings(ps, 64);
        let mut buf = Vec::new();
        encode_compressed_term(&td, &mut buf);
        let got = decode_compressed_term(&mut buf.as_slice(), 64).unwrap();
        assert_eq!(got.len(), td.len());
        assert_eq!(got.max_score(), td.max_score());
        assert_eq!(got.blocks(), td.blocks());
        let mut docs = [0u32; crate::compressed::MAX_BLOCK];
        let mut scores = [0u32; crate::compressed::MAX_BLOCK];
        let mut docs2 = [0u32; crate::compressed::MAX_BLOCK];
        let mut scores2 = [0u32; crate::compressed::MAX_BLOCK];
        for bi in 0..td.blocks().len() {
            let n = td.decode_doc_block(bi, &mut docs, &mut scores);
            let m = got.decode_doc_block(bi, &mut docs2, &mut scores2);
            assert_eq!(n, m);
            assert_eq!(docs[..n], docs2[..n]);
            assert_eq!(scores[..n], scores2[..n]);
        }
    }

    #[test]
    fn compressed_term_empty_round_trips() {
        let td = CompressedTermData::from_postings(Vec::new(), 64);
        let mut buf = Vec::new();
        encode_compressed_term(&td, &mut buf);
        assert_eq!(buf.len(), 4, "empty terms cost one length field");
        let got = decode_compressed_term(&mut buf.as_slice(), 64).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn compressed_term_rejects_dangling_plane_offset() {
        let ps: Vec<Posting> = (0..100u32).map(|i| Posting::new(i * 3, i + 1)).collect();
        let mut td = CompressedTermData::from_postings(ps, 64);
        td.doc_meta[1].off = u32::MAX;
        let mut buf = Vec::new();
        encode_compressed_term(&td, &mut buf);
        let err = decode_compressed_term(&mut buf.as_slice(), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn compressed_header_round_trips_and_validates() {
        let mut buf = Vec::new();
        write_compressed_header(&mut buf, 1000, 50, 64).unwrap();
        assert_eq!(
            read_compressed_header(&mut buf.as_slice()).unwrap(),
            (1000, 50, 64)
        );
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_compressed_header(&mut bad.as_slice()).is_err());
        // Oversized block size.
        let mut big = Vec::new();
        write_compressed_header(&mut big, 1000, 50, MAX_BLOCK as u32 + 1).unwrap();
        assert!(read_compressed_header(&mut big.as_slice()).is_err());
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

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX] {
            buf.clear();
            write_varint(v, &mut buf);
            let (got, n) = read_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        assert!(read_varint(&[]).is_none());
        assert!(read_varint(&[0x80]).is_none(), "truncated continuation");
        assert!(
            read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80]).is_none(),
            "overlong"
        );
    }

    #[test]
    fn varint_rejects_fifth_byte_overflow() {
        // Regression: a 5th byte with payload bits above 0xF used to
        // silently truncate (`v << 28` drops high bits) into a wrong
        // but plausible u32 before the continuation-count guard fired.
        // 0x10 is the lowest overflowing payload bit.
        assert!(read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]).is_none());
        assert!(read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]).is_none());
        // The same payload spread over continuation: rejected by count.
        assert!(read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x90, 0x01]).is_none());
        // The maximum valid 5-byte encoding still decodes.
        assert_eq!(
            read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            Some((u32::MAX, 5))
        );
    }

    #[test]
    fn varint_rejects_non_canonical_trailing_zero() {
        // [0x80, 0x00] would decode to 0, but 0 encodes as [0x00]:
        // accepting both would make encodings ambiguous.
        assert!(read_varint(&[0x80, 0x00]).is_none());
        assert!(read_varint(&[0xFF, 0x80, 0x00]).is_none());
        assert_eq!(read_varint(&[0x00]), Some((0, 1)));
        // Zero-payload *continuation* bytes are canonical and must
        // stay accepted: 16384 == [0x80, 0x80, 0x01].
        let mut buf = Vec::new();
        write_varint(16_384, &mut buf);
        assert_eq!(buf, [0x80, 0x80, 0x01]);
        assert_eq!(read_varint(&buf), Some((16_384, 3)));
    }

    #[test]
    fn varint_every_accepted_encoding_is_canonical() {
        // Exhaustive over all 1- and 2-byte inputs: decode(buf) == v
        // implies encode(v) == buf.
        let mut enc = Vec::new();
        for b0 in 0..=255u8 {
            let one = [b0];
            if let Some((v, n)) = read_varint(&one) {
                enc.clear();
                write_varint(v, &mut enc);
                assert_eq!(enc, &one[..n], "value {v}");
            }
            for b1 in 0..=255u8 {
                let two = [b0, b1];
                if let Some((v, n)) = read_varint(&two) {
                    enc.clear();
                    write_varint(v, &mut enc);
                    assert_eq!(enc, &two[..n], "value {v}");
                }
            }
        }
    }
}
