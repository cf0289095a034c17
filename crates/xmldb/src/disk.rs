//! On-disk page images: a checksummed, versioned binary encoding of the
//! paged store's [`PagedSnapshot`] (and of plain [`Document`] fragments,
//! which the WAL embeds in logged update primitives).
//!
//! ## Snapshot file format (version 1)
//!
//! ```text
//! "MXQP" | version:u16 | name:str | page_count:u32
//! per page:  body_len:u32 | crc:u32 (over body) | body
//! page body: tuple_count:u32 | tuples
//! tuple:     kind:u8 | level:u16 | size:u32 | name:str | text:str
//!            | attr_count:u16 | (name:str value:str)*
//! str:       len:u32 | utf-8 bytes
//! ```
//!
//! All integers little-endian.  Prefix-sum offsets, fragment roots and the
//! relational column image (with its summaries and element-name index) are
//! **not** stored: they are deterministically recomputed on load, so the
//! file can never disagree with them.  Each page body carries its own CRC-32 so a
//! corrupted file is detected before any half-decoded state escapes.
//!
//! Document fragments (WAL payload content) use the same tuple stream
//! under a different magic, without page structure.

use std::sync::Arc;

use mxq_wal::crc32;

use crate::doc::Document;
use crate::node::NodeKind;
use crate::update::{materialize, tuples_of, Page, PagedSnapshot, Tuple};

/// Magic bytes of a paged-snapshot image.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"MXQP";
/// Magic bytes of a document-fragment image.
pub const DOCUMENT_MAGIC: &[u8; 4] = b"MXQD";
/// Current format version (both image kinds).
pub const FORMAT_VERSION: u16 = 1;

/// Errors from decoding an on-disk image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is not one this build can read.
    BadVersion(u16),
    /// The file ended inside a structure.
    Truncated,
    /// A page body failed its CRC-32 check.
    PageChecksum {
        /// Index of the failing page in the file.
        page: usize,
    },
    /// A structurally invalid value (bad node kind, malformed UTF-8, …).
    Malformed(&'static str),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::BadMagic => write!(f, "not an mxq on-disk image (bad magic)"),
            DiskError::BadVersion(v) => write!(f, "unsupported on-disk format version {v}"),
            DiskError::Truncated => write!(f, "on-disk image is truncated"),
            DiskError::PageChecksum { page } => {
                write!(f, "page {page} failed its checksum (corrupted image)")
            }
            DiskError::Malformed(what) => write!(f, "malformed on-disk image: {what}"),
        }
    }
}

impl std::error::Error for DiskError {}

// ---------------------------------------------------------------------------
// primitive writers/readers
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over an encoded byte string.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DiskError> {
        let end = self.pos.checked_add(n).ok_or(DiskError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(DiskError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DiskError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DiskError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DiskError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, DiskError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| DiskError::Malformed("non-UTF-8 string"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// tuple codec
// ---------------------------------------------------------------------------

fn kind_byte(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Document => 0,
        NodeKind::Element => 1,
        NodeKind::Text => 2,
        NodeKind::Comment => 3,
        NodeKind::ProcessingInstruction => 4,
    }
}

fn byte_kind(b: u8) -> Result<NodeKind, DiskError> {
    Ok(match b {
        0 => NodeKind::Document,
        1 => NodeKind::Element,
        2 => NodeKind::Text,
        3 => NodeKind::Comment,
        4 => NodeKind::ProcessingInstruction,
        _ => return Err(DiskError::Malformed("unknown node kind")),
    })
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    out.push(kind_byte(t.kind));
    out.extend_from_slice(&t.level.to_le_bytes());
    out.extend_from_slice(&t.size.to_le_bytes());
    put_str(out, &t.name);
    put_str(out, &t.text);
    out.extend_from_slice(&(t.attrs.len() as u16).to_le_bytes());
    for (n, v) in &t.attrs {
        put_str(out, n);
        put_str(out, v);
    }
}

fn read_tuple(r: &mut Reader<'_>) -> Result<Tuple, DiskError> {
    let kind = byte_kind(r.u8()?)?;
    let level = r.u16()?;
    let size = r.u32()?;
    let name: Arc<str> = Arc::from(r.str()?);
    let text: Arc<str> = Arc::from(r.str()?);
    let attr_count = r.u16()? as usize;
    let mut attrs = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let n: Arc<str> = Arc::from(r.str()?);
        let v: Arc<str> = Arc::from(r.str()?);
        attrs.push((n, v));
    }
    Ok(Tuple {
        size,
        level,
        kind,
        name,
        text,
        attrs,
    })
}

// ---------------------------------------------------------------------------
// snapshot images
// ---------------------------------------------------------------------------

/// Encode a published snapshot as a self-contained, checksummed image.
pub fn encode_snapshot(snap: &PagedSnapshot) -> Vec<u8> {
    let pages = snap.pages();
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_str(&mut out, snap.name());
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    let mut body = Vec::new();
    for page in pages {
        body.clear();
        body.extend_from_slice(&(page.tuples().len() as u32).to_le_bytes());
        for t in page.tuples() {
            put_tuple(&mut body, t);
        }
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// Decode a snapshot image, verifying the per-page checksums, and rebuild
/// the derived state (summaries, offsets, fragment roots, column image).
pub fn decode_snapshot(bytes: &[u8]) -> Result<PagedSnapshot, DiskError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != SNAPSHOT_MAGIC {
        return Err(DiskError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(DiskError::BadVersion(version));
    }
    let name = r.str()?.to_string();
    let page_count = r.u32()? as usize;
    let mut pages = Vec::with_capacity(page_count);
    for page_idx in 0..page_count {
        let body_len = r.u32()? as usize;
        let crc = r.u32()?;
        let body = r.take(body_len)?;
        if crc32(body) != crc {
            return Err(DiskError::PageChecksum { page: page_idx });
        }
        let mut pr = Reader::new(body);
        let tuple_count = pr.u32()? as usize;
        let mut tuples = Vec::with_capacity(tuple_count);
        for _ in 0..tuple_count {
            tuples.push(read_tuple(&mut pr)?);
        }
        if !pr.done() {
            return Err(DiskError::Malformed("trailing bytes in page body"));
        }
        pages.push(Arc::new(Page::from_tuples(tuples)));
    }
    if !r.done() {
        return Err(DiskError::Malformed("trailing bytes after last page"));
    }
    Ok(PagedSnapshot::from_pages(name, pages))
}

// ---------------------------------------------------------------------------
// document-fragment images (WAL payload content)
// ---------------------------------------------------------------------------

/// Encode a flat document (e.g. an update primitive's content fragment)
/// as one tuple stream.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(DOCUMENT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_str(&mut out, &doc.name);
    let tuples = tuples_of(doc);
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for t in &tuples {
        put_tuple(&mut out, t);
    }
    out
}

/// Decode a document-fragment image (no checksum of its own — fragments
/// ride inside WAL records, which are CRC-checked as a whole).
pub fn decode_document(bytes: &[u8]) -> Result<Document, DiskError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != DOCUMENT_MAGIC {
        return Err(DiskError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(DiskError::BadVersion(version));
    }
    let name = r.str()?.to_string();
    let tuple_count = r.u32()? as usize;
    let mut tuples = Vec::with_capacity(tuple_count);
    for _ in 0..tuple_count {
        tuples.push(read_tuple(&mut r)?);
    }
    if !r.done() {
        return Err(DiskError::Malformed("trailing bytes after document image"));
    }
    Ok(materialize(&name, tuples.into_iter()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::NodeRead;
    use crate::serialize::serialize_document;
    use crate::shred::{shred, ShredOptions};
    use crate::update::PagedDocument;

    fn sample_snapshot(page_size: usize, fill: u8) -> PagedSnapshot {
        let xml = "<site id=\"s1\"><people><person id=\"p0\"><name>Ada</name></person>\
                   <person id=\"p1\"><name>Grace</name></person></people>\
                   <!--note--><?pi data?><items><item/><item price=\"3\">x</item></items></site>";
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let doc = shred("sample.xml", xml, &opts).unwrap();
        PagedDocument::from_document(&doc, page_size, fill).snapshot()
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        for (page_size, fill) in [(4, 50), (8, 100), (64, 75)] {
            let snap = sample_snapshot(page_size, fill);
            let bytes = encode_snapshot(&snap);
            let back = decode_snapshot(&bytes).unwrap();
            assert_eq!(back.name(), snap.name());
            assert_eq!(back.len(), snap.len());
            assert_eq!(back.page_count(), snap.page_count());
            for pre in 0..snap.len() as u32 {
                assert_eq!(back.size(pre), snap.size(pre), "size at {pre}");
                assert_eq!(back.level(pre), snap.level(pre), "level at {pre}");
                assert_eq!(back.kind(pre), snap.kind(pre), "kind at {pre}");
                assert_eq!(back.name_of(pre), snap.name_of(pre), "name at {pre}");
                assert_eq!(back.text_of(pre), snap.text_of(pre), "text at {pre}");
            }
            assert_eq!(back.root_pres(), snap.root_pres());
            let mut ids = 0;
            for pre in 0..snap.len() as u32 {
                let id = snap.attribute(pre, "id");
                assert_eq!(back.attribute(pre, "id"), id, "attr at {pre}");
                ids += id.is_some() as u32;
            }
            assert_eq!(ids, 3, "sample has three id attributes");
            back.columns().same_content(snap.columns()).unwrap();
        }
    }

    #[test]
    fn corrupted_page_is_detected() {
        let snap = sample_snapshot(4, 75);
        let bytes = encode_snapshot(&snap);
        // flip a byte inside the last page's body
        let mut corrupted = bytes.clone();
        let n = corrupted.len();
        corrupted[n - 3] ^= 0x10;
        match decode_snapshot(&corrupted) {
            Err(DiskError::PageChecksum { .. }) => {}
            other => panic!("expected page checksum failure, got {other:?}"),
        }
        // truncation is detected too
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 1]),
            Err(DiskError::Truncated) | Err(DiskError::Malformed(_))
        ));
        // wrong magic
        assert_eq!(decode_snapshot(b"nope").unwrap_err(), DiskError::BadMagic);
    }

    #[test]
    fn document_fragment_round_trip() {
        let xml = "<bidder><date>01/01/2000</date><increase a=\"b\">9.00</increase></bidder>";
        let doc = shred("frag", xml, &ShredOptions::default()).unwrap();
        let bytes = encode_document(&doc);
        let back = decode_document(&bytes).unwrap();
        assert_eq!(serialize_document(&back), serialize_document(&doc));
        assert_eq!(back.name, "frag");
    }
}
