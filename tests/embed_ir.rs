//! The arena-backed embedding IR across crate boundaries: auditor
//! agreement, composition bounds on all ten Table II classes, and
//! fault-aware re-embedding.

use std::collections::HashSet;

use supercayley::core::{
    materialize, CayleyNetwork, SuperCayleyGraph, TranspositionNetwork, SMALL_NET_CAP,
};
use supercayley::embed::{
    factorial_mesh_into_tn, hypercube_into_scg, hypercube_into_tn, reembed_scg, CayleyEmbedding,
    EmbedError,
};
use supercayley::graph::{FaultSet, NodeId, SurvivorView};

/// All ten classes of Table II at k = nl + 1 = 5.
fn ten_classes() -> Vec<SuperCayleyGraph> {
    vec![
        SuperCayleyGraph::macro_star(2, 2).unwrap(),
        SuperCayleyGraph::rotation_star(2, 2).unwrap(),
        SuperCayleyGraph::complete_rotation_star(2, 2).unwrap(),
        SuperCayleyGraph::macro_rotator(2, 2).unwrap(),
        SuperCayleyGraph::rotation_rotator(2, 2).unwrap(),
        SuperCayleyGraph::complete_rotation_rotator(2, 2).unwrap(),
        SuperCayleyGraph::insertion_selection(5).unwrap(),
        SuperCayleyGraph::macro_is(2, 2).unwrap(),
        SuperCayleyGraph::rotation_is(2, 2).unwrap(),
        SuperCayleyGraph::complete_rotation_is(2, 2).unwrap(),
    ]
}

#[test]
fn compose_dilation_bounded_by_product_on_all_ten_classes() {
    for net in ten_classes() {
        let k = net.degree_k();
        let tn = TranspositionNetwork::new(k).unwrap();
        let outer = CayleyEmbedding::build(&tn, &net, SMALL_NET_CAP).unwrap();
        let outer_dil = outer.embedding().dilation();

        let cube = hypercube_into_tn(k, SMALL_NET_CAP).unwrap();
        let composed = cube.compose(outer.embedding()).unwrap();
        assert!(
            composed.dilation() <= cube.dilation() * outer_dil,
            "{}: cube dilation {} > {} * {}",
            net.name(),
            composed.dilation(),
            cube.dilation(),
            outer_dil
        );
        assert_eq!(composed.load(), 1, "{}", net.name());

        let mesh = factorial_mesh_into_tn(k, SMALL_NET_CAP).unwrap();
        let composed = mesh.compose(outer.embedding()).unwrap();
        assert!(
            composed.dilation() <= mesh.dilation() * outer_dil,
            "{}: mesh dilation {} > {} * {}",
            net.name(),
            composed.dilation(),
            mesh.dilation(),
            outer_dil
        );
    }
}

#[test]
fn audit_matches_individual_metrics_on_composed_cube() {
    let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
    let ir = hypercube_into_scg(&net, SMALL_NET_CAP).unwrap();
    // The one-pass auditor agrees with the individual metrics.
    let audit = ir.audit();
    assert_eq!(audit.load, ir.load());
    assert_eq!(audit.dilation, ir.dilation());
    assert_eq!(audit.congestion, ir.congestion());
    assert!((audit.expansion - ir.expansion()).abs() < 1e-12);
    assert!((audit.mean_path_length - ir.mean_path_length()).abs() < 1e-12);
}

#[test]
fn reembed_survives_single_faults_on_all_ten_classes() {
    for net in ten_classes() {
        let ir = hypercube_into_scg(&net, SMALL_NET_CAP).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let mapped: HashSet<NodeId> = ir.node_map().iter().copied().collect();

        // A victim in the interior of some hyperpath forces a re-route.
        let victim = (0..ir.num_program_edges())
            .flat_map(|edge| {
                let p = ir.hyperpath_at(edge);
                p[1..p.len() - 1].to_vec()
            })
            .find(|v| !mapped.contains(v))
            .expect("cube hyperpaths have unmapped interiors");
        let mut faults = FaultSet::new();
        faults.fail_node(victim);
        let r = reembed_scg(&ir, &net, &mat, &faults).unwrap();
        assert_eq!(r.node_map(), ir.node_map(), "{}", net.name());
        assert_eq!(r.load(), ir.load(), "{}", net.name());
        let view = SurvivorView::new(mat.graph(), &faults);
        for edge in 0..r.num_program_edges() {
            assert!(
                view.path_is_live(r.hyperpath_at(edge)),
                "{}: edge {edge} still crosses the fault",
                net.name()
            );
        }

        // A fault on a mapped host node is refused structurally.
        let carried = ir.node_map()[0];
        let mut faults = FaultSet::new();
        faults.fail_node(carried);
        match reembed_scg(&ir, &net, &mat, &faults) {
            Err(EmbedError::MappedNodeFailed {
                program_node,
                host_node,
            }) => {
                assert_eq!(host_node, carried, "{}", net.name());
                assert_eq!(ir.node_map()[program_node], carried, "{}", net.name());
            }
            other => panic!("{}: expected MappedNodeFailed, got {other:?}", net.name()),
        }
    }
}

#[test]
fn reembed_rejects_mismatched_host() {
    let ms = SuperCayleyGraph::macro_star(2, 2).unwrap();
    let is5 = SuperCayleyGraph::insertion_selection(5).unwrap();
    let ir = hypercube_into_scg(&ms, SMALL_NET_CAP).unwrap();
    let other_mat = materialize(&is5, SMALL_NET_CAP).unwrap();
    let r = reembed_scg(&ir, &is5, &other_mat, &FaultSet::new());
    assert!(
        matches!(r, Err(EmbedError::Unsupported { .. })),
        "foreign materialization must be refused"
    );
}
