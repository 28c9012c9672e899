//! Mesh embeddings (Corollaries 6 and 7).
//!
//! Three constructions:
//!
//! * [`linear_array_into_star`] — the `k!`-node linear array as a
//!   Hamiltonian path of the `k`-star (dilation 1, found by search);
//! * [`factorial_mesh_into_tn`] — the `2 × 3 × ⋯ × k` mesh into the `k`-TN
//!   with dilation ≤ 2, load 1, expansion 1, via the inverse-Fisher–Yates
//!   coordinate map (each coordinate step is a conjugated transposition or
//!   3-cycle, i.e. at most two TN links);
//! * [`mesh2d_into_tn`] — any `m1 × m2` mesh with `m1 · m2 = k!` whose side
//!   `m1` is a product of a sub-multiset of `{2, …, k}`, via reflected
//!   mixed-radix Gray codes (each grid step changes one factorial
//!   coordinate by ±1, so dilation ≤ 2 again).
//!
//! Composing with Theorem 6/7 ([`CayleyEmbedding`]) yields the
//! constant-dilation mesh embeddings of Corollaries 6–7 into MS, RS,
//! Complete-RS, MIS, Complete-RIS and IS networks. (The paper reaches
//! dilation 1 into the TN via Latifi–Srimani's construction; ours is
//! dilation ≤ 2 — the substitution is documented in DESIGN.md and the
//! constant-dilation conclusions are unaffected.)

use scg_core::{
    materialize, CayleyNetwork, Generator, StarGraph, SuperCayleyGraph, TranspositionNetwork,
};
use scg_graph::{hamiltonian_path, NodeId, SearchBudget};
use scg_perm::{factorial, MixedRadix, Perm};

use crate::cayley::CayleyEmbedding;
use crate::error::EmbedError;
use crate::ir::{EmbeddingIr, IrBuilder};

/// Factors a permutation into exchange generators `T_{i,j}` whose product
/// (applied left to right) equals `w`. A cycle of length `m` contributes
/// `m − 1` exchanges, so the output length is `k − (#cycles incl. fixed
/// points)` — the TN distance of `w`.
#[must_use]
pub fn factor_into_exchanges(w: &Perm) -> Vec<Generator> {
    let mut out = Vec::new();
    for cycle in w.cycles() {
        for pair in cycle.windows(2) {
            out.push(Generator::exchange(pair[0] as usize, pair[1] as usize));
        }
    }
    out
}

/// The inverse-Fisher–Yates coordinate map: factorial coordinates
/// `(a_2, …, a_k)` with `a_i ∈ 0..i` to a permutation, by swapping
/// positions `i` and `i − a_i` for `i = k` down to `2`. A bijection from
/// the `2 × 3 × ⋯ × k` mesh onto `S_k`.
///
/// # Panics
///
/// Panics if `digits.len() + 1 != k` or a digit is out of range.
#[must_use]
pub fn factorial_coords_to_perm(digits: &[u64], k: usize) -> Perm {
    assert_eq!(digits.len() + 1, k, "need k - 1 factorial digits");
    let mut p = Perm::identity(k);
    for i in (2..=k).rev() {
        let a = digits[i - 2] as usize;
        assert!(a < i, "digit for radix {i} out of range");
        if a > 0 {
            p = p.swapped(i - a, i).expect("positions within degree"); // scg-allow(SCG001): asserted a < i on the line above, so both positions are in 1..=k
        }
    }
    p
}

/// The `k!`-node linear array embedded along a Hamiltonian path of the
/// `k`-star (dilation 1, load 1, expansion 1).
///
/// # Errors
///
/// * [`EmbedError::HostTooLarge`] — `k! > cap`, reported structurally
///   before any materialization is attempted;
/// * [`EmbedError::Core`] — invalid `k`;
/// * [`EmbedError::SearchInconclusive`] — the path search exceeded
///   `budget`;
/// * [`EmbedError::Unsupported`] — search proved no path from the identity
///   (does not occur: star graphs are Hamiltonian).
pub fn linear_array_into_star(
    k: usize,
    cap: u64,
    budget: &mut SearchBudget,
) -> Result<EmbeddingIr, EmbedError> {
    let star = StarGraph::new(k)?;
    let num_nodes = factorial(k);
    if num_nodes > cap {
        return Err(EmbedError::HostTooLarge {
            guest: "linear-array",
            k,
            num_nodes,
            cap,
        });
    }
    #[cfg(feature = "obs")]
    // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
    let _timer = crate::obs_hooks::build_timer("linear-array");
    let host = materialize(&star, cap)?.graph().clone();
    let path = match hamiltonian_path(&host, 0, budget) {
        Ok(Some(p)) => p,
        Ok(None) => {
            return Err(EmbedError::Unsupported {
                reason: format!("no Hamiltonian path from identity in {k}-star"),
            })
        }
        Err(scg_graph::GraphError::BudgetExhausted) => return Err(EmbedError::SearchInconclusive),
        Err(e) => return Err(e.into()),
    };
    let guest = scg_core::linear_array(path.len());
    let node_map: Vec<NodeId> = path;
    let mut builder = IrBuilder::new(guest.clone(), host);
    for (u, v) in guest.edges() {
        builder.push_path(&[node_map[u as usize], node_map[v as usize]]);
    }
    let e = builder.node_map(node_map).finish()?;
    #[cfg(feature = "obs")]
    crate::obs_hooks::build_done("linear-array", e.dilation());
    Ok(e)
}

/// Builds the embedding induced by mapping each guest-mesh node id to
/// factorial digits and then to a permutation, routing each mesh edge by
/// exchange factorization.
fn mesh_embedding_from_digit_map(
    guest_class: &str,
    guest: scg_graph::DenseGraph,
    k: usize,
    cap: u64,
    digits_of: impl Fn(u64) -> Vec<u64>,
) -> Result<EmbeddingIr, EmbedError> {
    #[cfg(feature = "obs")]
    // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
    let _timer = crate::obs_hooks::build_timer(guest_class);
    #[cfg(not(feature = "obs"))]
    let _ = guest_class; // scg-allow(SCG005): feature-gated use; discards a metrics label, not a Result
    let tn = TranspositionNetwork::new(k)?;
    let host = materialize(&tn, cap)?.graph().clone();
    let labels: Vec<Perm> = (0..guest.num_nodes() as u64)
        .map(|x| factorial_coords_to_perm(&digits_of(x), k))
        .collect();
    let node_map: Vec<NodeId> = labels.iter().map(|p| p.rank() as NodeId).collect();
    let mut builder = IrBuilder::new(guest.clone(), host);
    for (u, v) in guest.edges() {
        let (lu, lv) = (labels[u as usize], labels[v as usize]);
        let w = lu.inverse().compose(&lv);
        builder.begin_path(node_map[u as usize]);
        let mut cur = lu;
        for g in factor_into_exchanges(&w) {
            cur = g.apply(&cur).expect("valid exchange"); // scg-allow(SCG001): factor_into_exchanges yields degree-k exchanges only
            builder.push_hop(cur.rank() as NodeId);
        }
        debug_assert_eq!(cur, lv);
        builder.end_path();
    }
    let e = builder.node_map(node_map).finish()?;
    #[cfg(feature = "obs")]
    crate::obs_hooks::build_done(guest_class, e.dilation());
    Ok(e)
}

/// Corollary 7 guest: the `2 × 3 × ⋯ × k` mesh into the `k`-TN, dilation
/// ≤ 2, load 1, expansion 1.
///
/// # Errors
///
/// * [`EmbedError::Core`] — invalid `k` or TN too large within `cap`.
pub fn factorial_mesh_into_tn(k: usize, cap: u64) -> Result<EmbeddingIr, EmbedError> {
    if k < 2 {
        return Err(EmbedError::Unsupported {
            reason: "factorial mesh needs k >= 2".into(),
        });
    }
    let extents: Vec<usize> = (2..=k).collect();
    let guest = scg_core::mesh(&extents);
    let mr = MixedRadix::factorial_system(k);
    mesh_embedding_from_digit_map("factorial-mesh", guest, k, cap, move |x| mr.digits(x))
}

/// Corollary 6 guest: an `m1 × m2` mesh with `m1 · m2 = k!`, where
/// `row_dims` selects the factorial radices forming `m1` (e.g. `&[2, 4]`
/// gives `m1 = 8`, `m2 = k!/8`). Each grid step changes one factorial
/// coordinate by ±1 thanks to reflected Gray coding, so dilation ≤ 2 into
/// the `k`-TN with load 1 and expansion 1.
///
/// # Errors
///
/// * [`EmbedError::Unsupported`] — `row_dims` is not a sub-multiset of
///   `{2, …, k}`;
/// * [`EmbedError::Core`] — TN too large within `cap`.
pub fn mesh2d_into_tn(k: usize, row_dims: &[usize], cap: u64) -> Result<EmbeddingIr, EmbedError> {
    let mut is_row = vec![false; k + 1];
    for &d in row_dims {
        if !(2..=k).contains(&d) || is_row[d] {
            return Err(EmbedError::Unsupported {
                reason: format!("row dimension {d} invalid or repeated"),
            });
        }
        is_row[d] = true;
    }
    let row_radices: Vec<u64> = (2..=k).filter(|&d| is_row[d]).map(|d| d as u64).collect();
    let col_radices: Vec<u64> = (2..=k).filter(|&d| !is_row[d]).map(|d| d as u64).collect();
    let m1: u64 = row_radices.iter().product();
    let m2: u64 = col_radices.iter().product();
    debug_assert_eq!(m1 * m2, factorial(k));
    let guest = scg_core::mesh(&[m1 as usize, m2 as usize]);
    let row_mr = MixedRadix::new(row_radices);
    let col_mr = MixedRadix::new(col_radices);
    let row_dims_sorted: Vec<usize> = (2..=k).filter(|&d| is_row[d]).collect();
    let col_dims_sorted: Vec<usize> = (2..=k).filter(|&d| !is_row[d]).collect();
    mesh_embedding_from_digit_map("mesh2d", guest, k, cap, move |id| {
        let x = id % m1;
        let y = id / m1;
        let row_digits = row_mr.gray_digits(x);
        let col_digits = col_mr.gray_digits(y);
        let mut digits = vec![0u64; k - 1];
        for (slot, &dim) in row_dims_sorted.iter().enumerate() {
            digits[dim - 2] = row_digits[slot];
        }
        for (slot, &dim) in col_dims_sorted.iter().enumerate() {
            digits[dim - 2] = col_digits[slot];
        }
        digits
    })
}

/// Corollary 7 composed: the `2 × 3 × ⋯ × k` mesh into a super Cayley host
/// with constant dilation (≤ 2 × the host's Theorem 6/7 TN dilation).
///
/// # Errors
///
/// As [`factorial_mesh_into_tn`] plus [`CayleyEmbedding::build`] failures.
pub fn factorial_mesh_into_scg(
    host: &SuperCayleyGraph,
    cap: u64,
) -> Result<EmbeddingIr, EmbedError> {
    let k = host.degree_k();
    let mesh_in_tn = factorial_mesh_into_tn(k, cap)?;
    let tn = TranspositionNetwork::new(k)?;
    let tn_in_host = CayleyEmbedding::build(&tn, host, cap)?;
    mesh_in_tn.compose(tn_in_host.embedding())
}

/// Corollary 6 composed: an `m1 × m2` mesh into a super Cayley host with
/// constant dilation.
///
/// # Errors
///
/// As [`mesh2d_into_tn`] plus [`CayleyEmbedding::build`] failures.
pub fn mesh2d_into_scg(
    host: &SuperCayleyGraph,
    row_dims: &[usize],
    cap: u64,
) -> Result<EmbeddingIr, EmbedError> {
    let k = host.degree_k();
    let mesh_in_tn = mesh2d_into_tn(k, row_dims, cap)?;
    let tn = TranspositionNetwork::new(k)?;
    let tn_in_host = CayleyEmbedding::build(&tn, host, cap)?;
    mesh_in_tn.compose(tn_in_host.embedding())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_factorization_reconstructs() {
        for r in [0u64, 1, 100, 719] {
            let w = Perm::from_rank(6, r * 7 % 720).unwrap();
            let seq = factor_into_exchanges(&w);
            let rebuilt = scg_core::apply_path(&Perm::identity(6), &seq).unwrap();
            assert_eq!(rebuilt, w);
            // Length equals TN distance: k - #cycles(incl. fixed).
            let nontrivial: usize = w.cycles().iter().map(Vec::len).sum();
            let cycles = w.cycles().len();
            assert_eq!(seq.len(), nontrivial - cycles);
        }
    }

    #[test]
    fn coordinate_map_is_a_bijection() {
        let mr = MixedRadix::factorial_system(5);
        let mut seen = std::collections::HashSet::new();
        for x in 0..mr.capacity() {
            let p = factorial_coords_to_perm(&mr.digits(x), 5);
            assert!(seen.insert(p));
        }
        assert_eq!(seen.len() as u64, factorial(5));
    }

    #[test]
    fn factorial_mesh_into_tn_has_dilation_2() {
        let e = factorial_mesh_into_tn(5, 1_000).unwrap();
        assert_eq!(e.load(), 1);
        assert!((e.expansion() - 1.0).abs() < 1e-12);
        assert!(e.dilation() <= 2);
        assert!(e.dilation() >= 1);
    }

    #[test]
    fn mesh2d_into_tn_has_dilation_2() {
        // 6 × 20 = 5! ... m1 = 2·3 = 6, m2 = 4·5 = 20.
        let e = mesh2d_into_tn(5, &[2, 3], 1_000).unwrap();
        assert_eq!(e.guest().num_nodes(), 120);
        assert_eq!(e.load(), 1);
        assert!(e.dilation() <= 2);
        // Degenerate splits: 1 × k! (all columns) is the snake linear array.
        let snake = mesh2d_into_tn(5, &[], 1_000).unwrap();
        assert!(snake.dilation() <= 2);
    }

    #[test]
    fn mesh2d_rejects_bad_rows() {
        assert!(mesh2d_into_tn(5, &[7], 1_000).is_err());
        assert!(mesh2d_into_tn(5, &[2, 2], 1_000).is_err());
    }

    #[test]
    fn corollary_7_composed_into_hosts() {
        let ms = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let e = factorial_mesh_into_scg(&ms, 1_000).unwrap();
        assert!(e.dilation() <= 10, "≤ 2 × 5 on MS(2,n)");
        assert_eq!(e.load(), 1);
        let is5 = SuperCayleyGraph::insertion_selection(5).unwrap();
        let e2 = factorial_mesh_into_scg(&is5, 1_000).unwrap();
        assert!(e2.dilation() <= 12, "≤ 2 × 6 on IS");
    }

    #[test]
    fn corollary_6_composed_into_ms() {
        let ms = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let e = mesh2d_into_scg(&ms, &[5], 1_000).unwrap();
        assert_eq!(e.guest().num_nodes(), 120); // 5 × 24 mesh
        assert!(e.dilation() <= 10);
    }

    #[test]
    fn linear_array_along_hamiltonian_path() {
        let e = linear_array_into_star(4, 1_000, &mut SearchBudget::new(10_000_000)).unwrap();
        assert_eq!(e.guest().num_nodes(), 24);
        assert_eq!(e.dilation(), 1);
        assert_eq!(e.load(), 1);
    }
}
