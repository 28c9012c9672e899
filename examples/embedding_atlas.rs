//! An atlas of the paper's §5 embeddings: stars, transposition networks,
//! trees, hypercubes and meshes into super Cayley hosts, with all four
//! quality metrics measured from the validated embedding objects.
//!
//! Run with `cargo run --release --example embedding_atlas`.

use supercayley::core::{CayleyNetwork, StarGraph, SuperCayleyGraph, TranspositionNetwork};
use supercayley::embed::{
    factorial_mesh_into_scg, hypercube_into_scg, tree_into_scg, CayleyEmbedding, EmbeddingIr,
};
use supercayley::graph::SearchBudget;

fn show(guest: &str, host: &str, e: &EmbeddingIr) {
    println!(
        "{guest:<22} -> {host:<18} dilation {:<2} congestion {:<3} load {} expansion {:.1}",
        e.dilation(),
        e.congestion(),
        e.load(),
        e.expansion()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CAP: u64 = 50_000;
    println!("== Cayley guests (Theorems 1-3, 6-7) ==");
    let star7 = StarGraph::new(7)?;
    for host in [
        SuperCayleyGraph::macro_star(3, 2)?,
        SuperCayleyGraph::complete_rotation_star(3, 2)?,
        SuperCayleyGraph::insertion_selection(7)?,
        SuperCayleyGraph::macro_is(3, 2)?,
    ] {
        let ce = CayleyEmbedding::build(&star7, &host, CAP)?;
        show("7-star", &host.name(), ce.embedding());
    }
    let tn7 = TranspositionNetwork::new(7)?;
    for host in [
        SuperCayleyGraph::macro_star(2, 3)?, // l = 2: dilation 5
        SuperCayleyGraph::macro_star(3, 2)?, // l >= 3: dilation 7
    ] {
        let ce = CayleyEmbedding::build(&tn7, &host, CAP)?;
        show("7-TN", &host.name(), ce.embedding());
    }

    println!("\n== Trees (Corollary 4) ==");
    for host in [
        SuperCayleyGraph::insertion_selection(5)?,
        SuperCayleyGraph::macro_star(2, 2)?,
        SuperCayleyGraph::macro_is(2, 2)?,
    ] {
        let e = tree_into_scg(4, &host, &mut SearchBudget::new(1_000_000_000))?;
        show("binary tree h=4", &host.name(), &e);
    }

    println!("\n== Hypercubes (Corollary 5) ==");
    for host in [
        SuperCayleyGraph::macro_star(3, 2)?,
        SuperCayleyGraph::insertion_selection(7)?,
    ] {
        let e = hypercube_into_scg(&host, CAP)?;
        show("3-cube", &host.name(), &e);
    }

    println!("\n== Meshes (Corollary 7) ==");
    for host in [
        SuperCayleyGraph::macro_star(2, 2)?,
        SuperCayleyGraph::insertion_selection(5)?,
    ] {
        let e = factorial_mesh_into_scg(&host, CAP)?;
        show("2x3x4x5 mesh", &host.name(), &e);
    }
    Ok(())
}
