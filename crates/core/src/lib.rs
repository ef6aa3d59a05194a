//! # bbdd — a Biconditional Binary Decision Diagram manipulation package
//!
//! A from-scratch Rust reproduction of
//! *L. Amarù, P.-E. Gaillardon, G. De Micheli, “An Efficient Manipulation
//! Package for Biconditional Binary Decision Diagrams”, DATE 2014.*
//!
//! **Biconditional BDDs** (BBDDs) are canonical binary decision diagrams
//! whose branching condition compares *two* variables per node: each node is
//! labelled with a primary variable `PV = v` and a secondary variable
//! `SV = w` and implements the biconditional expansion
//!
//! ```text
//! f = (v ⊕ w) · f_{v≠w}  +  (v ⊙ w) · f_{v=w}
//! ```
//!
//! Under the *chain variable order* (CVO) and reduction rules R1–R4 they are
//! canonical, remarkably compact for XOR-rich and arithmetic logic, and a
//! native abstraction for comparator-based emerging technologies.
//!
//! This crate implements the paper's four pillars:
//!
//! 1. **Strong canonical form** — hash-consed nodes in per-level unique
//!    tables with complement attributes restricted to `≠`-edges
//!    ([`Bbdd::apply`] returns equal [`Edge`]s iff functions are equal);
//! 2. **Recursive Boolean operations** — Algorithm 1 over the biconditional
//!    expansion with operator-rewriting (`updateop`) and a computed table
//!    ([`Bbdd::apply`], [`Bbdd::ite`]);
//! 3. **Performance-oriented memory management** — Cantor-pairing hashing,
//!    adaptive tables, overwrite-on-collision cache, mark-and-sweep GC
//!    ([`Bbdd::gc`]) tracing the owned-handle registry: functions held as
//!    [`BbddFn`] handles (created through the [`prelude`] trait API) are
//!    roots by construction, and [`Bbdd::set_gc_threshold`] arms automatic
//!    collection for long-running sessions — no caller-maintained root
//!    lists anywhere;
//! 4. **Chain variable re-ordering** — the Fig. 2 three-level swap theory and
//!    Rudell-style sifting ([`Bbdd::swap_adjacent`], [`Bbdd::sift`]).
//!
//! ## Quick start
//!
//! The [`prelude`] exposes the unified trait API ([`ddcore::api`]) shared
//! by every manager in the workspace — owned GC-safe handles with operator
//! overloads:
//!
//! ```
//! use bbdd::prelude::*;
//!
//! // A 4-variable manager; build the 2-bit equality comparator
//! // (a1=b1) ∧ (a0=b0), which BBDDs represent in 2 nodes.
//! let mgr = BbddManager::with_vars(4);
//! let (a1, b1, a0, b0) = (mgr.var(0), mgr.var(1), mgr.var(2), mgr.var(3));
//! let eq = &a1.xnor(&b1) & &a0.xnor(&b0);
//! assert_eq!(eq.node_count(), 2);
//! assert_eq!(eq.sat_count(), 4);
//! ```
//!
//! The raw edge-level API ([`Bbdd`], [`Edge`]) remains available underneath
//! (`mgr.backend_mut()`) for recursion internals and benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod api;
mod apply;
mod edge;
mod manager;
mod node;
mod ops;
mod par;
mod quant;
mod reorder;
mod swap;

pub mod dot;

pub use api::prelude;
pub use api::{BbddFn, BbddManager, ParBbddFn, ParBbddManager};
pub use ddcore::boolop::{BoolOp, Unary};
pub use ddcore::govern::{CancelToken, OpAbort, OpBudget};
pub use ddcore::nary::NaryOp;
pub use edge::Edge;
pub use manager::{Bbdd, BbddStats, NodeInfo};
pub use par::{ParBbdd, ParConfig, ParStats};
pub use reorder::SiftConfig;
