//! On-disk page images: a checksummed, versioned binary encoding of a
//! published [`Document`] (and of the content fragments the WAL embeds in
//! logged update primitives, which are documents too).
//!
//! ## Snapshot file format (version 1)
//!
//! One page per column chunk, each page the chunk's rows as tuples:
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
//! All integers little-endian.  The `name` of an element is its tag, of a
//! PI its target, of a document node `#document`; other rows store the
//! empty string.  Fragment roots, the chunk summaries and the element-name
//! index are **not** stored: they are deterministically recomputed on
//! load, so the file can never disagree with them.  Page boundaries carry
//! no meaning either: a load concatenates the pages' rows and cuts them
//! into chunks at the default row target, so an image written under any
//! page geometry opens.  Each page body carries its own CRC-32 so a
//! corrupted file is detected before any half-decoded state escapes.
//!
//! Document fragments (WAL payload content) use the same tuple stream
//! under a different magic, without page structure.

use std::sync::Arc;

use mxq_wal::crc32;

use crate::columns::DocumentColumns;
use crate::doc::Document;
use crate::node::NodeKind;
use crate::update::Tuple;

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

/// Encode one tuple from its fields.
fn put_row<'a>(
    out: &mut Vec<u8>,
    (kind, level, size): (NodeKind, u16, u32),
    name: &str,
    text: &str,
    attrs: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
) {
    out.push(kind_byte(kind));
    out.extend_from_slice(&level.to_le_bytes());
    out.extend_from_slice(&size.to_le_bytes());
    put_str(out, name);
    put_str(out, text);
    out.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
    for (n, v) in attrs {
        put_str(out, n);
        put_str(out, v);
    }
}

/// Encode the `count` rows of `cols` from `pre` on as tuples.
fn put_rows(out: &mut Vec<u8>, cols: &DocumentColumns, pre: u32, count: usize) {
    let (tags, names, values) = (cols.tags(), cols.attr_names(), cols.attr_values());
    cols.walk_rows(pre, count, |row| {
        let name = match row.kind {
            NodeKind::Element | NodeKind::ProcessingInstruction => tags.str_of(row.name_code),
            NodeKind::Document => "#document",
            _ => "",
        };
        let attrs = row.attr_names.iter().zip(row.attr_values);
        let attrs = attrs.map(|(&n, &v)| (&**names.str_of(n), &**values.str_of(v)));
        let text = row.text.map_or("", |t| t);
        put_row(out, (row.kind, row.level, row.size), name, text, attrs);
    });
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

/// Encode a published document as a self-contained, checksummed image:
/// one page per column chunk.
pub fn encode_snapshot(snap: &Document) -> Vec<u8> {
    let cols = snap.columns();
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_str(&mut out, &snap.name);
    out.extend_from_slice(&(cols.chunk_count() as u32).to_le_bytes());
    let mut body = Vec::new();
    for ci in 0..cols.chunk_count() {
        let (start, rows) = cols.chunk_span(ci);
        body.clear();
        body.extend_from_slice(&(rows as u32).to_le_bytes());
        put_rows(&mut body, cols, start, rows);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// Decode a snapshot image, verifying the per-page checksums, and build
/// the column image (at the default chunk row target) and the derived
/// state (summaries, name index, fragment roots) from its rows.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Document, DiskError> {
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
    let mut rows = Vec::new();
    for page_idx in 0..page_count {
        let body_len = r.u32()? as usize;
        let crc = r.u32()?;
        let body = r.take(body_len)?;
        if crc32(body) != crc {
            return Err(DiskError::PageChecksum { page: page_idx });
        }
        let mut pr = Reader::new(body);
        let tuple_count = pr.u32()? as usize;
        for _ in 0..tuple_count {
            rows.push(read_tuple(&mut pr)?);
        }
        if !pr.done() {
            return Err(DiskError::Malformed("trailing bytes in page body"));
        }
    }
    if !r.done() {
        return Err(DiskError::Malformed("trailing bytes after last page"));
    }
    checked(name, &rows)
}

/// The document of a decoded row stream.  The stored sizes are trusted by
/// every read: they are held to the levels.
fn checked(name: String, rows: &[Tuple]) -> Result<Document, DiskError> {
    let doc = Document::from_rows(name, rows);
    doc.columns()
        .check_tree()
        .map_err(|_| DiskError::Malformed("sizes disagree with the level structure"))?;
    Ok(doc)
}

// ---------------------------------------------------------------------------
// document-fragment images (WAL payload content)
// ---------------------------------------------------------------------------

/// Encode a document (e.g. an update primitive's content fragment) as one
/// tuple stream.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(DOCUMENT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_str(&mut out, &doc.name);
    let cols = doc.columns();
    out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    put_rows(&mut out, cols, 0, cols.len());
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
    checked(name, &tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::DEFAULT_CHUNK_ROWS;
    use crate::read::NodeRead;
    use crate::serialize::serialize_document;
    use crate::shred::{shred, ShredError, ShredOptions};
    use crate::update::{tuples_of, PagedDocument};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn sample_document() -> Result<Document, ShredError> {
        let xml = "<site id=\"s1\"><people><person id=\"p0\"><name>Ada</name></person>\
                   <person id=\"p1\"><name>Grace</name></person></people>\
                   <!--note--><?pi data?><items><item/><item price=\"3\">x</item></items></site>";
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        shred("sample.xml", xml, &opts)
    }

    fn sample_snapshot(chunk_rows: usize) -> Result<Document, ShredError> {
        let mut paged = PagedDocument::from_document(&sample_document()?);
        paged.rechunk_columns(chunk_rows);
        Ok(paged.snapshot())
    }

    fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
        let attrs = t.attrs.iter().map(|(n, v)| (&**n, &**v));
        put_row(out, (t.kind, t.level, t.size), &t.name, &t.text, attrs);
    }

    /// A snapshot image of `pages`, encoded tuple by tuple.
    fn image_of_pages(name: &str, pages: &[&[Tuple]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        put_str(&mut bytes, name);
        bytes.extend_from_slice(&(pages.len() as u32).to_le_bytes());
        for page in pages {
            let mut body = (page.len() as u32).to_le_bytes().to_vec();
            for t in *page {
                put_tuple(&mut body, t);
            }
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        bytes
    }

    /// Every row of `a` and `b` reads the same, attributes included.
    fn assert_same_rows(a: &Document, b: &impl NodeRead) {
        assert_eq!(a.len(), b.len());
        for pre in 0..a.len() as u32 {
            assert_eq!(a.size(pre), b.size(pre), "size at {pre}");
            assert_eq!(a.level(pre), b.level(pre), "level at {pre}");
            assert_eq!(a.kind(pre), b.kind(pre), "kind at {pre}");
            assert_eq!(a.name_of(pre), b.name_of(pre), "name at {pre}");
            assert_eq!(a.text_of(pre), b.text_of(pre), "text at {pre}");
            assert!(a.attrs(pre).eq(b.attrs(pre)), "attributes at {pre}");
        }
        assert_eq!(a.root_pres(), b.root_pres());
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() -> TestResult {
        for chunk_rows in [4, 8, 64] {
            let snap = sample_snapshot(chunk_rows)?;
            let bytes = encode_snapshot(&snap);
            let back = decode_snapshot(&bytes)?;
            assert_eq!(back.name, snap.name);
            assert_same_rows(&back, &snap);
            let mut ids = 0;
            for pre in 0..snap.len() as u32 {
                let id = snap.attribute(pre, "id");
                assert_eq!(back.attribute(pre, "id"), id, "attr at {pre}");
                ids += id.is_some() as u32;
            }
            assert_eq!(ids, 3, "sample has three id attributes");
            // the content survives whatever the chunking of the writer; the
            // reader cuts chunks at its own row target
            back.columns().same_content(snap.columns())?;
            back.columns().check_invariants()?;
            assert_eq!(back.columns().chunk_rows(), DEFAULT_CHUNK_ROWS);
        }
        Ok(())
    }

    /// An image in 48-tuple pages — the geometry earlier builds wrote
    /// (64-tuple pages filled to 75 %), encoded tuple by tuple — opens to
    /// the document it was written from.
    #[test]
    fn page_table_image_opens() -> TestResult {
        let mut xml = String::from("<site>");
        for i in 0..40 {
            xml.push_str(&format!("<item n=\"{i}\"><!--c{i}--><?p{i} d?>t{i}</item>"));
        }
        xml.push_str("</site>");
        let opts = ShredOptions {
            document_node: true,
            ..ShredOptions::default()
        };
        let doc = shred("old.xml", &xml, &opts)?;
        let tuples = tuples_of(&doc);
        let pages: Vec<&[Tuple]> = tuples.chunks(48).collect();
        assert!(pages.len() > 2, "the image spans several pages");
        let bytes = image_of_pages("old.xml", &pages);
        let back = decode_snapshot(&bytes)?;
        assert_eq!(back.name, "old.xml");
        assert_same_rows(&back, &doc);
        back.columns().check_invariants()?;
        back.columns().same_content(doc.columns())?;
        assert_eq!(serialize_document(&back), serialize_document(&doc));
        Ok(())
    }

    /// A checksum-valid image whose stored sizes contradict its levels is
    /// rejected, not loaded.
    #[test]
    fn inconsistent_sizes_are_rejected() -> TestResult {
        let mut tuples = tuples_of(&sample_document()?);
        tuples[1].size += 1;
        let bytes = image_of_pages("bad.xml", &[&tuples]);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(DiskError::Malformed(_))
        ));
        Ok(())
    }

    #[test]
    fn corrupted_page_is_detected() -> TestResult {
        let snap = sample_snapshot(4)?;
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
        assert!(matches!(decode_snapshot(b"nope"), Err(DiskError::BadMagic)));
        Ok(())
    }

    #[test]
    fn document_fragment_round_trip() -> TestResult {
        let xml = "<bidder><date>01/01/2000</date><increase a=\"b\">9.00</increase></bidder>";
        let doc = shred("frag", xml, &ShredOptions::default())?;
        let bytes = encode_document(&doc);
        let back = decode_document(&bytes)?;
        assert_eq!(serialize_document(&back), serialize_document(&doc));
        assert_eq!(back.name, "frag");
        Ok(())
    }
}
