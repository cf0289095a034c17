//! XML serialization: turn (a subtree of) a container back into XML text
//! with a single sequential scan.
//!
//! A subtree is a contiguous run of rows in preorder, so it serializes by
//! one walk over the chunks of the column image
//! ([`DocumentColumns::walk_rows`](crate::DocumentColumns)): a row opens
//! its element, and the elements still open at or below its level close
//! before it.  No materialized read copy is ever built for serialization.

use crate::doc::Document;
use crate::node::NodeKind;
use crate::read::NodeRead;

/// Append `s` to `out` escaped for element content (`attr == false`) or
/// for a double-quoted attribute value (`attr == true`).  The bytes are
/// scanned and every unescaped span is pushed whole, so no intermediate
/// string is built.
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'<' => "&lt;",
            b'&' => "&amp;",
            b'>' if !attr => "&gt;",
            b'"' if attr => "&quot;",
            _ => continue,
        };
        // the escaped bytes are ASCII, so `i` is a char boundary
        out.push_str(&s[start..i]);
        out.push_str(entity);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Serialize the subtree rooted at `pre` into `out`.
pub fn serialize_node(doc: &Document, pre: u32, out: &mut String) {
    let cols = doc.columns();
    let (tags, names, values) = (cols.tags(), cols.attr_names(), cols.attr_values());
    // the open elements: level and name
    let mut open: Vec<(u16, &str)> = Vec::new();
    let close = |out: &mut String, name: &str| {
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    };
    cols.walk_rows(pre, doc.size(pre) as usize + 1, |row| {
        while let Some(&(_, name)) = open.last().filter(|&&(level, _)| level >= row.level) {
            close(out, name);
            open.pop();
        }
        let text = row.text;
        match row.kind {
            NodeKind::Text => push_escaped(out, text, false),
            NodeKind::Comment => {
                out.push_str("<!--");
                out.push_str(text);
                out.push_str("-->");
            }
            NodeKind::ProcessingInstruction => {
                out.push_str("<?");
                out.push_str(tags.str_of(row.name_code));
                if !text.is_empty() {
                    out.push(' ');
                    out.push_str(text);
                }
                out.push_str("?>");
            }
            // a document node contributes its children
            NodeKind::Document => {}
            NodeKind::Element => {
                let name = tags.str_of(row.name_code);
                out.push('<');
                out.push_str(name);
                for (&n, &v) in row.attr_names.iter().zip(row.attr_values) {
                    out.push(' ');
                    out.push_str(names.str_of(n));
                    out.push_str("=\"");
                    push_escaped(out, values.str_of(v), true);
                    out.push('"');
                }
                if row.size == 0 {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    open.push((row.level, name));
                }
            }
        }
    });
    while let Some((_, name)) = open.pop() {
        close(out, name);
    }
}

/// Serialize a whole container (all fragments, in order).
pub fn serialize_document(doc: &Document) -> String {
    let mut out = String::new();
    for &root in doc.fragment_roots() {
        serialize_node(doc, root, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred::{shred, ShredOptions};

    #[test]
    fn roundtrip_simple_document() {
        let xml = r#"<r a="v &amp; w"><x>hi</x><y/><!--c--></r>"#;
        let d = shred("t", xml, &ShredOptions::default()).unwrap();
        let s = serialize_document(&d);
        assert_eq!(s, r#"<r a="v &amp; w"><x>hi</x><y/><!--c--></r>"#);
        // shredding the serialization again is a fixpoint
        let d2 = shred("t2", &s, &ShredOptions::default()).unwrap();
        assert_eq!(serialize_document(&d2), s);
    }

    #[test]
    fn escaping() {
        let mut out = String::new();
        push_escaped(&mut out, "a<b&c>\"é", false);
        push_escaped(&mut out, "|say \"hi\" <é>", true);
        assert_eq!(out, "a&lt;b&amp;c&gt;\"é|say &quot;hi&quot; &lt;é>");
    }

    #[test]
    fn serialize_subtree_only() {
        let xml = "<a><b><c/></b><d/></a>";
        let d = shred("t", xml, &ShredOptions::default()).unwrap();
        let mut out = String::new();
        serialize_node(&d, 1, &mut out);
        assert_eq!(out, "<b><c/></b>");
    }
}
