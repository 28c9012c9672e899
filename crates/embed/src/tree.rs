//! Complete-binary-tree embeddings (Corollary 4).
//!
//! Corollary 4 composes dilation-1 tree-into-star embeddings (cited from
//! Bouabdallah et al.) with Theorems 1–3. The cited construction is not
//! reproducible from the citation alone, so we *certify existence* by exact
//! backtracking search ([`scg_graph::embed_tree`]) on the checkable
//! instances — in particular the height-`(2k−5)` tree into the `k`-star for
//! `k = 5` — and supply the composition machinery the corollary actually
//! contributes.

use scg_core::{materialize, CayleyNetwork, StarGraph, SuperCayleyGraph, DEFAULT_NET_CAP};
use scg_graph::{complete_binary_tree, embed_tree_randomized, SearchBudget};
use scg_perm::factorial;

use crate::cayley::CayleyEmbedding;
use crate::error::EmbedError;
use crate::ir::{EmbeddingIr, IrBuilder};

/// Searches for a dilation-1 embedding of the complete binary tree of the
/// given height into the `k`-star, rooted at the identity node.
///
/// # Errors
///
/// * [`EmbedError::HostTooLarge`] — `k!` exceeds the materialization cap
///   ([`DEFAULT_NET_CAP`]), reported structurally before any search;
/// * [`EmbedError::Core`] — invalid `k`;
/// * [`EmbedError::Unsupported`] — the exhaustive search proved no embedding
///   with this root exists;
/// * [`EmbedError::SearchInconclusive`] — `budget` ran out first.
pub fn tree_into_star(
    height: u32,
    k: usize,
    budget: &mut SearchBudget,
) -> Result<EmbeddingIr, EmbedError> {
    let star = StarGraph::new(k)?;
    let num_nodes = factorial(k);
    if num_nodes > DEFAULT_NET_CAP {
        return Err(EmbedError::HostTooLarge {
            guest: "tree",
            k,
            num_nodes,
            cap: DEFAULT_NET_CAP,
        });
    }
    #[cfg(feature = "obs")]
    // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
    let _timer = crate::obs_hooks::build_timer("tree");
    let host = materialize(&star, DEFAULT_NET_CAP)?.graph().clone();
    let guest = complete_binary_tree(height);
    // Randomized candidate ordering with restarts: the deterministic
    // lexicographic order hits pathological corners (the height-5 tree in
    // the 5-star takes > 2x10^9 steps deterministically but ~100 us with a
    // perturbed order).
    let restarts = 32;
    let map = match embed_tree_randomized(
        &guest,
        &host,
        0,
        0,
        restarts,
        budget.remaining() / u64::from(restarts.max(1)),
    ) {
        Ok(Some(map)) => map,
        Ok(None) => {
            return Err(EmbedError::Unsupported {
                reason: format!("no dilation-1 embedding of height-{height} tree in {k}-star"),
            })
        }
        Err(scg_graph::GraphError::BudgetExhausted) => return Err(EmbedError::SearchInconclusive),
        Err(e) => return Err(e.into()),
    };
    let mut builder = IrBuilder::new(guest.clone(), host);
    for (u, v) in guest.edges() {
        builder.push_path(&[map[u as usize], map[v as usize]]);
    }
    let e = builder.node_map(map).finish()?;
    #[cfg(feature = "obs")]
    crate::obs_hooks::build_done("tree", e.dilation());
    Ok(e)
}

/// Embeds the complete binary tree of the given height into a super Cayley
/// host (Corollary 4): tree → `k`-star with dilation 1 (searched), composed
/// with the Theorem 1–3 star embedding. Resulting dilation: 2 on `IS(k)`,
/// 3 on `MS`/`Complete-RS`, 4 on `MIS`/`Complete-RIS`.
///
/// # Errors
///
/// As [`tree_into_star`] plus the [`CayleyEmbedding::build`] failures.
pub fn tree_into_scg(
    height: u32,
    host: &SuperCayleyGraph,
    budget: &mut SearchBudget,
) -> Result<EmbeddingIr, EmbedError> {
    let k = host.degree_k();
    let into_star = tree_into_star(height, k, budget)?;
    let star = StarGraph::new(k)?;
    let star_into_host = CayleyEmbedding::build(&star, host, DEFAULT_NET_CAP)?;
    into_star.compose(star_into_host.embedding())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_3_tree_in_4_star() {
        // 15-node tree into the 24-node 4-star: max host degree 3 can host
        // parent + 2 children only at the root, so height 3 requires
        // internal nodes of tree-degree 3 = host degree 3 — feasible only if
        // the embedding is tight; allow the search to decide, but a
        // height-2 tree (7 nodes) must embed.
        let e = tree_into_star(2, 4, &mut SearchBudget::new(5_000_000)).unwrap();
        assert_eq!(e.dilation(), 1);
        assert_eq!(e.load(), 1);
    }

    #[test]
    fn corollary_4_tree_into_is_network() {
        let host = SuperCayleyGraph::insertion_selection(5).unwrap();
        let e = tree_into_scg(3, &host, &mut SearchBudget::new(50_000_000)).unwrap();
        assert!(e.dilation() <= 2, "Cor 4: dilation 2 in k-IS");
    }

    #[test]
    fn corollary_4_tree_into_macro_star() {
        let host = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let e = tree_into_scg(3, &host, &mut SearchBudget::new(50_000_000)).unwrap();
        assert!(e.dilation() <= 3, "Cor 4: dilation 3 in MS");
    }

    #[test]
    fn corollary_4_tree_into_mis() {
        let host = SuperCayleyGraph::macro_is(2, 2).unwrap();
        let e = tree_into_scg(3, &host, &mut SearchBudget::new(50_000_000)).unwrap();
        assert!(e.dilation() <= 4, "Cor 4: dilation 4 in MIS");
    }

    #[test]
    fn paper_premise_height_2k_minus_5_in_5_star() {
        // Corollary 4's k = 5 premise from [5]: the height-(2k-5) = 5
        // complete binary tree (63 nodes) embeds in the 5-star with
        // dilation 1. Randomized ordering finds a witness instantly.
        let e = tree_into_star(5, 5, &mut SearchBudget::new(2_000_000_000)).unwrap();
        assert_eq!(e.dilation(), 1);
        assert_eq!(e.load(), 1);
        assert_eq!(e.guest().num_nodes(), 63);
    }

    #[test]
    fn oversized_tree_is_rejected() {
        // 2^6-1 = 63 > 24 nodes: impossible in the 4-star.
        let r = tree_into_star(5, 4, &mut SearchBudget::new(1_000));
        assert!(matches!(r, Err(EmbedError::Unsupported { .. })));
    }
}
