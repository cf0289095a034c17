//! # mxq-engine — column-store relational kernel
//!
//! This crate is the *MonetDB substrate* of the MonetDB/XQuery reproduction:
//! a small, self-contained column-store relational kernel that the Pathfinder
//! style XQuery compiler (crate `mxq-xquery`) targets.
//!
//! It deliberately mirrors the features of the MonetDB kernel that the paper
//! relies on:
//!
//! * **Typed columns** ([`Column`]) holding integers, doubles, strings,
//!   dictionary-encoded strings (dense codes into a shared, append-only
//!   [`Dictionary`]), booleans, node references or polymorphic XQuery items
//!   ([`Item`]).
//! * **Tables** ([`Table`]) as ordered collections of named columns, the
//!   `iter|pos|item` sequence encoding being the most prominent instance.
//! * **Physical operators**: multi-column stable sorting ([`sort`]),
//!   sorted-key lookup, radix-partitioned hash and sort-merge theta joins
//!   ([`join`]), streaming row numbering ([`rank`], Section 4.1 of the
//!   paper), and grouped aggregation ([`agg`]).  The sort-based numbering
//!   and the nested-loop and single-table hash joins stay as the
//!   references the production kernels are tested against.
//!
//! The kernel is purely in-memory and single-threaded: each operator has
//! one entry point, and concurrency comes from running statements in
//! separate sessions, not from splitting one operator's input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod column;
pub mod dict;
pub mod error;
pub mod join;
pub mod rank;
pub mod sort;
pub mod table;
pub mod value;

pub use column::Column;
pub use dict::Dictionary;
pub use error::{EngineError, Result};
pub use table::Table;
pub use value::{CmpOp, Item, NodeId};
