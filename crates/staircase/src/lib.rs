//! # mxq-staircase — staircase join over the pre|size|level encoding
//!
//! The staircase join (Grust et al., \[19\] in the paper) evaluates an XPath
//! location step for a whole sequence of context nodes with a single
//! sequential scan over the document encoding, exploiting three techniques:
//! **pruning** of covered context nodes, **partitioning** of overlapping
//! regions along the pre axis and **skipping** of regions that cannot contain
//! results (Figures 1–3).
//!
//! Section 3 of the paper extends this to the **loop-lifted staircase join**:
//! the context is a set of `(iter, pre)` pairs — the node sequences of *all*
//! iterations of the enclosing XQuery for-loops — and the axis step for all
//! of them is evaluated in one pass.  Pruning is done per `iter`, a stack of
//! active context nodes implements partitioning, and skipping is unchanged,
//! so at most `|result| + |context|` document nodes are touched.
//!
//! This crate provides both variants so the ablation of Figure 12 can be
//! reproduced:
//!
//! * [`iterative`] — the plain staircase join, invoked once per iteration;
//! * [`looplifted`] — the loop-lifted staircase join of Section 3, including
//!   the candidate-list variant used for nametest/predicate pushdown
//!   (Section 3.2).
//!
//! Every function records [`ScanStats`] so tests can assert the
//! `|result| + |context|` bound and benchmarks can report nodes touched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axis;
pub mod iterative;
pub mod looplifted;
pub mod nametest;
pub mod stats;

pub use axis::Axis;
pub use iterative::staircase_step;
pub use looplifted::{child_step_in_iter_order, looplifted_step, looplifted_step_candidates};
pub use nametest::NodeTest;
pub use stats::ScanStats;
