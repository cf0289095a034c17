//! XML serialization: turn (a subtree of) a pre|size|level container back
//! into XML text with a single sequential scan.
//!
//! Generic over [`NodeRead`], so results render directly from the paged
//! store (pages are read on demand) as well as from flat [`Document`]s —
//! no materialized read copy is ever built for serialization.
//!
//! [`Document`]: crate::doc::Document

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
pub fn serialize_node<D: NodeRead>(doc: &D, pre: u32, out: &mut String) {
    match doc.kind(pre) {
        NodeKind::Text => push_escaped(out, doc.text_of(pre), false),
        NodeKind::Comment => {
            out.push_str("<!--");
            out.push_str(doc.text_of(pre));
            out.push_str("-->");
        }
        NodeKind::ProcessingInstruction => {
            out.push_str("<?");
            out.push_str(doc.name_of(pre));
            let content = doc.text_of(pre);
            if !content.is_empty() {
                out.push(' ');
                out.push_str(content);
            }
            out.push_str("?>");
        }
        NodeKind::Document => {
            for child in doc.children(pre) {
                serialize_node(doc, child, out);
            }
        }
        NodeKind::Element => {
            let name = doc.name_of(pre);
            out.push('<');
            out.push_str(name);
            for (aname, value) in doc.attrs(pre) {
                out.push(' ');
                out.push_str(aname);
                out.push_str("=\"");
                push_escaped(out, value, true);
                out.push('"');
            }
            if doc.size(pre) == 0 {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for child in doc.children(pre) {
                serialize_node(doc, child, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

/// Serialize a whole container (all fragments, in order).
pub fn serialize_document<D: NodeRead>(doc: &D) -> String {
    let mut out = String::new();
    for root in doc.root_pres() {
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
