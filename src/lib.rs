//! # mxq — MonetDB/XQuery reproduction (umbrella crate)
//!
//! This crate re-exports the public APIs of the workspace members so that the
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`engine`] — the column-store relational kernel (MonetDB substrate),
//! * [`xmldb`] — pre|size|level XML storage, shredder, serializer, updates,
//! * [`staircase`] — iterative and loop-lifted staircase join,
//! * [`xquery`] — the Pathfinder-style XQuery compiler and executor,
//! * [`xmark`] — the XMark benchmark generator, queries and baselines,
//! * [`wal`] — the write-ahead log substrate of the durability layer.
//!
//! See the README for a quickstart and the crate map.

#![forbid(unsafe_code)]

pub use mxq_engine as engine;
pub use mxq_staircase as staircase;
pub use mxq_wal as wal;
pub use mxq_xmark as xmark;
pub use mxq_xmldb as xmldb;
pub use mxq_xquery as xquery;
