//! Constant-dilation embeddings in super Cayley graphs (§5 of the paper).
//!
//! The central type is [`EmbeddingIr`]: a validated node map plus one
//! routing path (hyperpath) per guest edge, stored as ranges into a flat
//! path arena, from which the standard quality metrics (load, expansion,
//! dilation, congestion) are *measured*, not asserted. Constructions:
//!
//! * **Theorems 1–3** — star graphs into `MS`, `RS`, `Complete-RS`, `IS`,
//!   `MIS`, `RIS`, `Complete-RIS` with dilation 3/2/4 and congestion
//!   `max(2n, l)` ([`CayleyEmbedding`]);
//! * **Theorems 6–7** — transposition networks (and bubble-sort graphs)
//!   with dilation 5/7/6/O(1) ([`CayleyEmbedding`]);
//! * **Corollary 4** — complete binary trees ([`tree_into_star`],
//!   [`tree_into_scg`]);
//! * **Corollary 5** — hypercubes ([`hypercube_into_tn`],
//!   [`hypercube_into_star`], [`hypercube_into_scg`]);
//! * **Corollaries 6–7** — meshes and linear arrays
//!   ([`factorial_mesh_into_tn`], [`mesh2d_into_tn`],
//!   [`linear_array_into_star`] and their `_into_scg` compositions).
//!
//! Embeddings compose ([`EmbeddingIr::compose`]), which is exactly how the
//! paper derives its corollaries from the theorems.
//!
//! Every constructor returns an [`EmbeddingIr`] (typed handles, a generic
//! [`EmbedAudit`] auditor). Fault-aware re-embedding lives on the IR too:
//! [`EmbeddingIr::reembed`] re-routes only the hyperpaths a
//! [`FaultSet`](scg_graph::FaultSet) crosses, and [`reembed_scg`] plugs in
//! the plan-cache detour router for super Cayley hosts.
//!
//! # Examples
//!
//! ```
//! use scg_core::{StarGraph, SuperCayleyGraph};
//! use scg_embed::CayleyEmbedding;
//!
//! # fn main() -> Result<(), scg_embed::EmbedError> {
//! let star = StarGraph::new(5)?;
//! let host = SuperCayleyGraph::macro_star(2, 2)?;
//! let e = CayleyEmbedding::build(&star, &host, 10_000)?;
//! assert_eq!(e.embedding().dilation(), 3); // Theorem 1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cayley;
mod cube;
mod error;
mod ir;
mod mesh_embed;
#[cfg(feature = "obs")]
mod obs_hooks;
mod tree;

pub use cayley::CayleyEmbedding;
pub use cube::{cube_dimension_for, hypercube_into_scg, hypercube_into_star, hypercube_into_tn};
pub use error::EmbedError;
pub use ir::{
    reembed_scg, reembed_scg_rebalanced, EmbedAudit, EmbeddingIr, IrBuilder, PEdge, PNode,
    ReembedReport, TEdge, TNode,
};
pub use mesh_embed::{
    factor_into_exchanges, factorial_coords_to_perm, factorial_mesh_into_scg,
    factorial_mesh_into_tn, linear_array_into_star, mesh2d_into_scg, mesh2d_into_tn,
};
pub use tree::{tree_into_scg, tree_into_star};
