//! The document shredder: an XML parser that writes the pre|size|level
//! encoding sequentially.
//!
//! The parser is hand written (no external XML crate) and covers the XML
//! subset relevant for database documents: the prolog, elements, attributes,
//! character data with the five predefined entities and numeric character
//! references, CDATA sections, comments and processing instructions —
//! also the ones before and after the document element, which become
//! fragment roots (or children of the document node).  The XML declaration
//! and DTDs are skipped, namespaces are treated as plain prefixed names.

use std::fmt;

use crate::doc::{Document, DocumentBuilder};

/// Options controlling shredding.
#[derive(Debug, Clone)]
pub struct ShredOptions {
    /// Drop text nodes that consist solely of whitespace between elements
    /// (boundary whitespace).  Database loads usually do; XMark data does not
    /// depend on boundary whitespace.
    pub strip_boundary_whitespace: bool,
    /// Create an explicit document node (kind `Document` is represented as an
    /// element named `#document` at level 0 wrapping the root element).  The
    /// relational encoding of the paper keeps the root element at level 0;
    /// we follow the paper and default to *not* materializing a document node.
    pub document_node: bool,
}

impl Default for ShredOptions {
    fn default() -> Self {
        ShredOptions {
            strip_boundary_whitespace: true,
            document_node: false,
        }
    }
}

/// Errors produced while shredding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShredError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human readable description.
    pub message: String,
}

impl fmt::Display for ShredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ShredError {}

/// Shred an XML document text into its relational encoding.
pub fn shred(name: &str, xml: &str, opts: &ShredOptions) -> Result<Document, ShredError> {
    let mut p = Parser {
        input: xml.as_bytes(),
        pos: 0,
        builder: DocumentBuilder::new(name),
        opts: opts.clone(),
    };
    if opts.document_node {
        p.builder.start_document();
    }
    p.parse_misc(true)?;
    p.parse_element()?;
    p.parse_misc(false)?;
    if opts.document_node {
        p.builder.end_element();
    }
    if p.pos < p.input.len() {
        return Err(p.error("trailing content after document element"));
    }
    Ok(p.builder.finish())
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    builder: DocumentBuilder,
    opts: ShredOptions,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: impl Into<String>) -> ShredError {
        ShredError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ShredError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.error(format!("expected `{s}`")))
        }
    }

    fn read_until(&mut self, delim: &str) -> Result<&'a str, ShredError> {
        let start = self.pos;
        let hay = &self.input[self.pos..];
        match find_subslice(hay, delim.as_bytes()) {
            Some(off) => {
                self.pos += off + delim.len();
                Ok(std::str::from_utf8(&self.input[start..start + off])
                    .map_err(|_| self.error("invalid UTF-8"))?)
            }
            None => Err(self.error(format!("unterminated construct, missing `{delim}`"))),
        }
    }

    /// Parse the comments and PIs before (`prolog`) or after the document
    /// element; the prolog's XML declaration and DOCTYPE are skipped.  The
    /// declaration is `<?xml` followed by whitespace: a PI whose target
    /// only starts with `xml` (`<?xml-stylesheet …?>`) is a node.
    fn parse_misc(&mut self, prolog: bool) -> Result<(), ShredError> {
        loop {
            self.skip_ws();
            let declaration = self.starts_with("<?xml")
                && matches!(
                    self.input.get(self.pos + 5),
                    Some(b' ' | b'\t' | b'\r' | b'\n')
                );
            if prolog && declaration {
                self.read_until("?>")?;
            } else if prolog && self.starts_with("<!DOCTYPE") {
                // skip a (possibly bracketed) DTD
                let mut depth = 0usize;
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    match c {
                        b'[' | b'<' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' => {
                            if depth <= 1 {
                                break;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                }
            } else if !self.misc_node()? {
                return Ok(());
            }
        }
    }

    /// Parse a comment or PI at the cursor into a node; false when the
    /// cursor is at neither.
    fn misc_node(&mut self) -> Result<bool, ShredError> {
        if self.starts_with("<!--") {
            self.bump(4);
            let c = self.read_until("-->")?;
            self.builder.comment(c);
        } else if self.starts_with("<?") {
            self.bump(2);
            let content = self.read_until("?>")?;
            let (target, rest) = split_name(content);
            self.builder
                .processing_instruction(target, rest.trim_start());
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    fn parse_name(&mut self) -> Result<String, ShredError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("invalid UTF-8 in name"))?
            .to_string())
    }

    fn parse_element(&mut self) -> Result<(), ShredError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        self.builder.start_element(&name);
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    self.builder.end_element();
                    return Ok(());
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.error("attribute value must be quoted"));
                    }
                    self.bump(1);
                    let raw = self.read_until(if quote == b'"' { "\"" } else { "'" })?;
                    self.builder.attribute(&aname, &decode_entities(raw));
                }
                None => return Err(self.error("unexpected end of input in start tag")),
            }
        }
        // content
        self.parse_content(&name)
    }

    fn parse_content(&mut self, open_name: &str) -> Result<(), ShredError> {
        let mut text = String::new();
        loop {
            if self.pos >= self.input.len() {
                return Err(self.error(format!("unexpected end of input inside <{open_name}>")));
            }
            if self.starts_with("</") {
                self.flush_text(&mut text);
                self.bump(2);
                let name = self.parse_name()?;
                if name != open_name {
                    return Err(
                        self.error(format!("mismatched end tag </{name}> for <{open_name}>"))
                    );
                }
                self.skip_ws();
                self.expect(">")?;
                self.builder.end_element();
                return Ok(());
            } else if self.starts_with("<![CDATA[") {
                self.bump(9);
                let c = self.read_until("]]>")?;
                text.push_str(c);
            } else if self.starts_with("<") {
                self.flush_text(&mut text);
                if !self.misc_node()? {
                    self.parse_element()?;
                }
            } else {
                // character data up to the next markup
                let start = self.pos;
                while self.pos < self.input.len() && self.input[self.pos] != b'<' {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in text"))?;
                text.push_str(&decode_entities(raw));
            }
        }
    }

    fn flush_text(&mut self, text: &mut String) {
        if text.is_empty() {
            return;
        }
        let keep = if self.opts.strip_boundary_whitespace {
            !text.chars().all(char::is_whitespace)
        } else {
            true
        };
        if keep {
            self.builder.text(text);
        }
        text.clear();
    }
}

fn find_subslice(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    (0..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
}

fn split_name(s: &str) -> (&str, &str) {
    match s.find(|c: char| c.is_whitespace()) {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    }
}

/// Decode the five predefined entities and numeric character references.
pub fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        if let Some(semi) = rest.find(';') {
            let ent = &rest[1..semi];
            let decoded = match ent {
                "lt" => Some('<'),
                "gt" => Some('>'),
                "amp" => Some('&'),
                "quot" => Some('"'),
                "apos" => Some('\''),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    u32::from_str_radix(&ent[2..], 16)
                        .ok()
                        .and_then(char::from_u32)
                }
                _ if ent.starts_with('#') => ent[1..].parse::<u32>().ok().and_then(char::from_u32),
                _ => None,
            };
            match decoded {
                Some(c) => {
                    out.push(c);
                    rest = &rest[semi + 1..];
                }
                None => {
                    out.push('&');
                    rest = &rest[1..];
                }
            }
        } else {
            out.push('&');
            rest = &rest[1..];
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{decode_snapshot, encode_snapshot};
    use crate::node::NodeKind;
    use crate::serialize::serialize_document;

    #[test]
    fn shreds_figure4_document() {
        let xml = "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>";
        let d = shred("fig4", xml, &ShredOptions::default()).unwrap();
        assert_eq!(d.len(), 10);
        assert_eq!(d.size(0), 9);
        assert_eq!(d.size(5), 4);
        assert_eq!(d.level(9), 3);
        assert_eq!(d.name_of(7), "h");
        d.check_invariants().unwrap();
    }

    #[test]
    fn attributes_text_and_entities() {
        let xml = r#"<r a="1 &amp; 2"><x>he said &quot;hi&quot; &#65;</x><y b='2'/></r>"#;
        let d = shred("t", xml, &ShredOptions::default()).unwrap();
        assert_eq!(d.attribute(0, "a"), Some("1 & 2"));
        assert_eq!(d.string_value(1), "he said \"hi\" A");
        assert_eq!(d.attribute(3, "b"), Some("2"));
    }

    #[test]
    fn prolog_comments_cdata_pi() -> Result<(), ShredError> {
        let xml =
            "<?xml version=\"1.0\"?><!-- top --><r><![CDATA[a<b]]><!-- in --><?php echo?></r>";
        let d = shred("t", xml, &ShredOptions::default())?;
        // the prolog comment is the first fragment root, the document
        // element the second; the XML declaration is skipped
        assert_eq!((d.kind(0), d.text_of(0)), (NodeKind::Comment, " top "));
        assert!(d.fragment_roots().eq([0, 1]));
        assert_eq!(d.name_of(1), "r");
        assert_eq!(d.string_value(1), "a<b");
        let kinds: Vec<NodeKind> = (2..d.len() as u32).map(|p| d.kind(p)).collect();
        assert!(kinds.contains(&NodeKind::Comment));
        assert!(kinds.contains(&NodeKind::ProcessingInstruction));
        Ok(())
    }

    /// Comments and PIs before and after the document element are kept in
    /// document order, as fragment roots or as children of the document
    /// node, and survive a snapshot image round trip.
    #[test]
    fn misc_nodes_around_the_document_element_are_kept() -> Result<(), Box<dyn std::error::Error>> {
        let xml = "<!--c--><a/><!--d--><?p x?>";
        for document_node in [false, true] {
            let opts = ShredOptions {
                document_node,
                ..ShredOptions::default()
            };
            let d = shred("t", xml, &opts)?;
            d.check_invariants()?;
            assert_eq!(
                serialize_document(&d),
                xml,
                "document node: {document_node}"
            );
            let back = decode_snapshot(&encode_snapshot(&d))?;
            back.check_invariants()?;
            assert_eq!(
                serialize_document(&back),
                xml,
                "document node: {document_node}"
            );
        }
        // the XML declaration and a DOCTYPE still make no node
        let d = shred(
            "t",
            "<?xml version=\"1.0\"?><!DOCTYPE a><!--c--><a/>",
            &ShredOptions::default(),
        )?;
        assert_eq!(serialize_document(&d), "<!--c--><a/>");
        Ok(())
    }

    /// A prolog PI whose target starts with `xml` is a node, not the XML
    /// declaration, with and without a document node.
    #[test]
    fn xml_prefixed_prolog_pis_are_kept() -> Result<(), ShredError> {
        let xml = "<?xml-stylesheet href=\"s.xsl\"?><a/>";
        for document_node in [false, true] {
            let opts = ShredOptions {
                document_node,
                ..ShredOptions::default()
            };
            let d = shred("t", xml, &opts)?;
            assert_eq!(
                serialize_document(&d),
                xml,
                "document node: {document_node}"
            );
        }
        let d = shred("t", "<?xml version=\"1.0\"?><a/>", &ShredOptions::default())?;
        assert_eq!(serialize_document(&d), "<a/>");
        Ok(())
    }

    #[test]
    fn boundary_whitespace_is_configurable() {
        let xml = "<r>\n  <x/>\n</r>";
        let stripped = shred("t", xml, &ShredOptions::default()).unwrap();
        assert_eq!(stripped.len(), 2);
        let kept = shred(
            "t",
            xml,
            &ShredOptions {
                strip_boundary_whitespace: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(kept.len(), 4);
    }

    #[test]
    fn errors_are_reported() {
        assert!(shred("t", "<a><b></a>", &ShredOptions::default()).is_err());
        assert!(shred("t", "<a>", &ShredOptions::default()).is_err());
        assert!(shred("t", "<a/><b/>", &ShredOptions::default()).is_err());
        assert!(shred("t", "<a x=1/>", &ShredOptions::default()).is_err());
    }

    #[test]
    fn doctype_is_skipped() {
        let xml = "<!DOCTYPE site SYSTEM \"auction.dtd\"><site><x/></site>";
        let d = shred("t", xml, &ShredOptions::default()).unwrap();
        assert_eq!(d.name_of(0), "site");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_entities_passthrough_and_malformed() {
        assert_eq!(decode_entities("plain"), "plain");
        assert_eq!(decode_entities("&unknown; &"), "&unknown; &");
        assert_eq!(decode_entities("&#x41;&#66;"), "AB");
    }
}
