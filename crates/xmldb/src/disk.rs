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
//!
//! The encoders read the rows straight out of the column image.  The
//! decoders hold no row type of their own: each decoded tuple goes to the
//! builder's checked stored-row entry ([`DocumentBuilder`]), the writer
//! every other container is made by, which rejects what no encoder writes
//! — a level that jumps past a child of the open row, a stored size the
//! levels contradict, a text, comment or PI row with children or
//! attributes — as [`DiskError::Malformed`].

use mxq_wal::crc32;

use crate::columns::DocumentColumns;
use crate::doc::{Document, DocumentBuilder};
use crate::node::NodeKind;

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

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], DiskError> {
        self.take(N)?.try_into().map_err(|_| DiskError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, DiskError> {
        Ok(u16::from_le_bytes(self.bytes()?))
    }

    fn u32(&mut self) -> Result<u32, DiskError> {
        Ok(u32::from_le_bytes(self.bytes()?))
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
        put_row(out, (row.kind, row.level, row.size), name, row.text, attrs);
    });
}

/// Decode one tuple and write it through `b`'s checked stored-row entry;
/// `attrs` is the buffer of its attributes.
fn read_row<'a>(
    r: &mut Reader<'a>,
    b: &mut DocumentBuilder,
    attrs: &mut Vec<(&'a str, &'a str)>,
) -> Result<(), DiskError> {
    let kind = byte_kind(r.u8()?)?;
    let level = r.u16()?;
    let size = r.u32()?;
    let (name, text) = (r.str()?, r.str()?);
    attrs.clear();
    for _ in 0..r.u16()? {
        attrs.push((r.str()?, r.str()?));
    }
    b.stored_row((kind, level, size), name, text, attrs.iter().copied())
        .map_err(DiskError::Malformed)
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

/// Decode a snapshot image, verifying the per-page checksums, and write
/// its rows through the builder, which holds every stored size to the
/// levels and builds the column image (at the default chunk row target)
/// and its summaries (a chunk's name index waits for a named read).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Document, DiskError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != SNAPSHOT_MAGIC {
        return Err(DiskError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(DiskError::BadVersion(version));
    }
    let mut b = DocumentBuilder::new(r.str()?);
    let page_count = r.u32()? as usize;
    let mut attrs = Vec::new();
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
            read_row(&mut pr, &mut b, &mut attrs)?;
        }
        if !pr.done() {
            return Err(DiskError::Malformed("trailing bytes in page body"));
        }
    }
    if !r.done() {
        return Err(DiskError::Malformed("trailing bytes after last page"));
    }
    b.finish_stored().map_err(DiskError::Malformed)
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
    let mut b = DocumentBuilder::new(r.str()?);
    let tuple_count = r.u32()? as usize;
    let mut attrs = Vec::new();
    for _ in 0..tuple_count {
        read_row(&mut r, &mut b, &mut attrs)?;
    }
    if !r.done() {
        return Err(DiskError::Malformed("trailing bytes after document image"));
    }
    b.finish_stored().map_err(DiskError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::columns::DEFAULT_CHUNK_ROWS;
    use crate::serialize::serialize_document;
    use crate::shred::{shred, ShredError, ShredOptions};
    use crate::update::{tuples_of, PagedDocument, Tuple};

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

    /// A document-fragment image of `rows`, encoded tuple by tuple.
    fn document_image(name: &str, rows: &[Tuple]) -> Vec<u8> {
        let mut bytes = DOCUMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        put_str(&mut bytes, name);
        bytes.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for t in rows {
            put_tuple(&mut bytes, t);
        }
        bytes
    }

    /// Every row of `a` and `b` reads the same, attributes included.
    fn assert_same_rows(a: &Document, b: &Document) {
        assert_eq!(a.len(), b.len());
        for pre in 0..a.len() as u32 {
            assert_eq!(a.size(pre), b.size(pre), "size at {pre}");
            assert_eq!(a.level(pre), b.level(pre), "level at {pre}");
            assert_eq!(a.kind(pre), b.kind(pre), "kind at {pre}");
            assert_eq!(a.name_of(pre), b.name_of(pre), "name at {pre}");
            assert_eq!(a.text_of(pre), b.text_of(pre), "text at {pre}");
            assert!(a.attrs(pre).eq(b.attrs(pre)), "attributes at {pre}");
        }
        assert!(a.fragment_roots().eq(b.fragment_roots()));
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

    /// One stored row.
    fn row(
        kind: NodeKind,
        (level, size): (u16, u32),
        name: &str,
        text: &str,
        attrs: &[(&str, &str)],
    ) -> Tuple {
        Tuple {
            size,
            level,
            kind,
            name: Arc::from(name),
            text: Arc::from(text),
            attrs: attrs
                .iter()
                .map(|&(n, v)| (Arc::from(n), Arc::from(v)))
                .collect(),
        }
    }

    /// Checksum-valid rows no encoder writes — a text row with a child, an
    /// attribute on a text, comment or PI row, a level jump — are rejected
    /// by both decoders, not loaded.
    #[test]
    fn hostile_rows_are_rejected() -> TestResult {
        use NodeKind::{Comment, Element, ProcessingInstruction, Text};
        let a = |size| row(Element, (0, size), "a", "", &[]);
        let b = |level| row(Element, (level, 0), "b", "", &[]);
        let kv = [("k", "v")];
        let cases = [
            (
                "a text row with a child",
                vec![a(2), row(Text, (1, 1), "", "x", &[]), b(2)],
            ),
            (
                "a child under a text row of size 0",
                vec![a(2), row(Text, (1, 0), "", "x", &[]), b(2)],
            ),
            (
                "an attribute on a text row",
                vec![a(1), row(Text, (1, 0), "", "x", &kv)],
            ),
            (
                "an attribute on a comment row",
                vec![a(1), row(Comment, (1, 0), "", "c", &kv)],
            ),
            (
                "an attribute on a PI row",
                vec![a(1), row(ProcessingInstruction, (1, 0), "p", "d", &kv)],
            ),
            ("a level jump", vec![a(1), b(2)]),
        ];
        for (case, rows) in &cases {
            let snapshot = decode_snapshot(&image_of_pages("bad.xml", &[rows]));
            let fragment = decode_document(&document_image("bad", rows));
            for got in [snapshot, fragment] {
                assert!(
                    matches!(got, Err(DiskError::Malformed(_))),
                    "{case}: {got:?}"
                );
            }
        }
        // the same encoding of well-formed rows loads
        let rows = [
            a(2),
            row(Text, (1, 0), "", "x", &[]),
            row(Element, (1, 0), "b", "", &kv),
        ];
        for doc in [
            decode_snapshot(&image_of_pages("ok.xml", &[&rows]))?,
            decode_document(&document_image("ok", &rows))?,
        ] {
            doc.check_invariants()?;
            assert_eq!(serialize_document(&doc), "<a>x<b k=\"v\"/></a>");
        }
        Ok(())
    }

    /// The document the pinned images were written from: a document node,
    /// attributes, a comment, PIs and 1 045 rows, text rows on both sides of
    /// the first 1 024-row chunk.
    fn pinned_xml() -> String {
        let mut xml = String::from("<?lead x?><site id=\"s1\" lang=\"en\"><!--note--><?pi data?>");
        for i in 0..520 {
            if i % 100 == 0 {
                xml.push_str(&format!("<i n=\"{i}\">t{i}</i>"));
            } else {
                xml.push_str(&format!("<i>t{i}</i>"));
            }
        }
        xml.push_str("</site>");
        xml
    }

    /// Images the version-1 encoders wrote (`testdata/v1.mxqp`, two pages,
    /// and `testdata/v1.mxqd`, of `pinned_xml()` shredded with a document
    /// node) decode to that document, and the encoders write the same bytes
    /// again: the format is pinned.
    #[test]
    fn version_1_images_decode_and_reencode() -> TestResult {
        let snapshot: &[u8] = include_bytes!("../testdata/v1.mxqp");
        let fragment: &[u8] = include_bytes!("../testdata/v1.mxqd");
        let xml = pinned_xml();
        let (from_snapshot, from_fragment) =
            (decode_snapshot(snapshot)?, decode_document(fragment)?);
        for doc in [&from_snapshot, &from_fragment] {
            doc.check_invariants()?;
            assert_eq!(doc.name, "pin.xml");
            assert_eq!((doc.len(), doc.columns().chunk_count()), (1045, 2));
            assert_eq!(doc.kind(0), NodeKind::Document);
            assert_eq!(serialize_document(doc), xml);
        }
        assert_eq!(FORMAT_VERSION, 1);
        assert!(
            encode_snapshot(&from_snapshot) == snapshot,
            "snapshot bytes differ"
        );
        assert!(
            encode_document(&from_fragment) == fragment,
            "fragment bytes differ"
        );
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
