//! # mxq-xmark — the XMark benchmark for the MonetDB/XQuery reproduction
//!
//! The paper's entire quantitative assessment (Section 6) is based on the
//! XMark benchmark: an auction-site document generated by `xmlgen` at
//! different scale factors, queried with the 20 standard XMark queries.
//!
//! This crate provides everything needed to regenerate that evaluation:
//!
//! * [`gen`] — a deterministic, scale-factor-parameterised generator that
//!   produces auction documents with the same entity structure as `xmlgen`
//!   (regions/items, categories, people, open and closed auctions, with
//!   consistent cross-references), both as XML text and as a pre-shredded
//!   [`mxq_xmldb::Document`];
//! * [`queries`] — the XMark queries Q1–Q20, phrased in the XQuery subset of
//!   `mxq-xquery`;
//! * [`naive`] — a DOM-walking, tuple-at-a-time XQuery interpreter over the
//!   same documents.  It stands in for the non-relational comparator systems
//!   of Table 1 (eXist, Galax, X-Hive, BerkeleyDB XML), which are
//!   closed/abandoned and not reproducible;
//! * [`survey`] — the published numbers of Table 1/Table 2 together with the
//!   SPEC-normalisation arithmetic that produces Figure 16.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod naive;
pub mod queries;
pub mod survey;

pub use gen::{generate_document, generate_xml, GenParams};
pub use naive::NaiveInterpreter;
pub use queries::{query_text, QUERY_IDS};
