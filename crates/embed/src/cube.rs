//! Hypercube embeddings (Corollary 5).
//!
//! The paper cites Miller–Pritikin–Sudborough for dilation-O(1) embeddings
//! of `d`-cubes into `k`-stars with `d` up to `k·log₂k − 3k/2 + o(k)`; the
//! corollary's own content is the composition with Theorems 1–3/6–7. We
//! supply a fully constructive constant-dilation guest of smaller dimension
//! — `d = ⌊(k−1)/2⌋` pairwise-disjoint transpositions give a dilation-1
//! embedding of the `d`-cube into the `k`-TN — and compose it through the
//! Theorem 6/7 machinery (substitution documented in DESIGN.md).

use scg_core::{materialize, CayleyNetwork, Generator, SuperCayleyGraph, TranspositionNetwork};
use scg_graph::NodeId;
use scg_perm::Perm;

use crate::cayley::CayleyEmbedding;
use crate::error::EmbedError;
use crate::ir::{EmbeddingIr, IrBuilder};

/// The hypercube dimension realized by the disjoint-transposition
/// construction in the `k`-TN: `⌊(k−1)/2⌋`.
#[must_use]
pub fn cube_dimension_for(k: usize) -> u32 {
    ((k - 1) / 2) as u32
}

/// Dilation-1 embedding of the `⌊(k−1)/2⌋`-cube into the `k`-TN.
///
/// Bit `i` of a cube node toggles the disjoint transposition
/// `T_{2i+2, 2i+3}`; disjoint transpositions commute, so each cube node maps
/// to a well-defined permutation and each cube edge is a single TN link.
///
/// # Errors
///
/// * [`EmbedError::Core`] — invalid `k` or TN too large to materialize
///   within `cap` nodes.
pub fn hypercube_into_tn(k: usize, cap: u64) -> Result<EmbeddingIr, EmbedError> {
    #[cfg(feature = "obs")]
    // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
    let _timer = crate::obs_hooks::build_timer("hypercube");
    let tn = TranspositionNetwork::new(k)?;
    let host = materialize(&tn, cap)?.graph().clone();
    let d = cube_dimension_for(k);
    let guest = scg_core::hypercube(d);
    let node_map: Vec<NodeId> = (0..guest.num_nodes() as u64)
        .map(|bits| {
            let mut p = Perm::identity(k);
            for i in 0..d {
                if bits >> i & 1 == 1 {
                    let a = 2 * i as usize + 2;
                    p = p.swapped(a, a + 1).expect("positions within degree"); // scg-allow(SCG001): a + 1 = 2i + 3 <= k by the cube-dimension bound
                }
            }
            p.rank() as NodeId
        })
        .collect();
    let mut builder = IrBuilder::new(guest.clone(), host);
    for (u, v) in guest.edges() {
        builder.push_path(&[node_map[u as usize], node_map[v as usize]]);
    }
    let e = builder.node_map(node_map).finish()?;
    #[cfg(feature = "obs")]
    crate::obs_hooks::build_done("hypercube", e.dilation());
    Ok(e)
}

/// Corollary 5: a constant-dilation hypercube embedding into a super Cayley
/// host, via cube → `k`-TN (dilation 1) composed with the Theorem 6/7
/// transposition-network embedding.
///
/// # Errors
///
/// As [`hypercube_into_tn`] plus [`CayleyEmbedding::build`] failures.
pub fn hypercube_into_scg(host: &SuperCayleyGraph, cap: u64) -> Result<EmbeddingIr, EmbedError> {
    let k = host.degree_k();
    let cube_in_tn = hypercube_into_tn(k, cap)?;
    let tn = TranspositionNetwork::new(k)?;
    let tn_in_host = CayleyEmbedding::build(&tn, host, cap)?;
    cube_in_tn.compose(tn_in_host.embedding())
}

/// A dilation-3 embedding of the same cube directly into the `k`-star:
/// each disjoint transposition `T_{a,a+1}` expands as `T_a T_{a+1} T_a`
/// (star links), giving the constant-dilation star-guest variant of
/// Corollary 5 without going through the TN.
///
/// # Errors
///
/// * [`EmbedError::Core`] — invalid `k` or star too large within `cap`.
pub fn hypercube_into_star(k: usize, cap: u64) -> Result<EmbeddingIr, EmbedError> {
    #[cfg(feature = "obs")]
    // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
    let _timer = crate::obs_hooks::build_timer("hypercube");
    let star = scg_core::StarGraph::new(k)?;
    let host = materialize(&star, cap)?.graph().clone();
    let d = cube_dimension_for(k);
    let guest = scg_core::hypercube(d);
    let label_of = |bits: u64| {
        let mut p = Perm::identity(k);
        for i in 0..d {
            if bits >> i & 1 == 1 {
                let a = 2 * i as usize + 2;
                p = p.swapped(a, a + 1).expect("positions within degree"); // scg-allow(SCG001): a + 1 = 2i + 3 <= k by the cube-dimension bound
            }
        }
        p
    };
    let node_map: Vec<NodeId> = (0..guest.num_nodes() as u64)
        .map(|bits| label_of(bits).rank() as NodeId)
        .collect();
    let mut builder = IrBuilder::new(guest.clone(), host);
    for (u, v) in guest.edges() {
        // The flipped bit is the lowest differing bit.
        let diff = u ^ v;
        let i = diff.trailing_zeros();
        let a = 2 * i as usize + 2;
        builder.begin_path(node_map[u as usize]);
        let mut cur = label_of(u64::from(u));
        for g in [
            Generator::transposition(a),
            Generator::transposition(a + 1),
            Generator::transposition(a),
        ] {
            cur = g.apply(&cur).expect("valid star generator"); // scg-allow(SCG001): star generators act on degree-k perms by construction
            builder.push_hop(cur.rank() as NodeId);
        }
        builder.end_path();
    }
    let e = builder.node_map(node_map).finish()?;
    #[cfg(feature = "obs")]
    crate::obs_hooks::build_done("hypercube", e.dilation());
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_into_tn_is_dilation_1() {
        let e = hypercube_into_tn(5, 1_000).unwrap();
        assert_eq!(e.guest().num_nodes(), 4); // d = 2
        assert_eq!(e.dilation(), 1);
        assert_eq!(e.load(), 1);
        assert_eq!(e.congestion(), 1);
    }

    #[test]
    fn cube_into_star_is_dilation_3() {
        let e = hypercube_into_star(7, 10_000).unwrap();
        assert_eq!(e.guest().num_nodes(), 8); // d = 3
        assert_eq!(e.dilation(), 3);
        assert_eq!(e.load(), 1);
    }

    #[test]
    fn corollary_5_cube_into_hosts() {
        // Constant dilation on every emulation-capable host class.
        let ms = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let e = hypercube_into_scg(&ms, 1_000).unwrap();
        assert!(e.dilation() <= 5, "cube → TN → MS(2,·): ≤ 1 × 5");
        let is5 = SuperCayleyGraph::insertion_selection(5).unwrap();
        let e2 = hypercube_into_scg(&is5, 1_000).unwrap();
        assert!(e2.dilation() <= 6, "cube → TN → IS: ≤ 1 × 6");
    }

    #[test]
    fn dimension_formula() {
        assert_eq!(cube_dimension_for(5), 2);
        assert_eq!(cube_dimension_for(7), 3);
        assert_eq!(cube_dimension_for(8), 3);
    }
}
