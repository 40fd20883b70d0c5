//! The modelled completion estimator, pinned bit for bit: every family's
//! all-reduce (pairwise: all-to-all, and recursive-doubling all-reduce in a
//! table of its own) over n in {2, 4, 8} ranks x {64 B, 16 KiB, 4 MiB} x
//! K in {1, 2} channels, on a flat node and on two equal nodes, at the
//! default chunk size under the Table 2 link model.
//! The values are `f64` bit patterns; a change to the estimator's walk that
//! moves any of them changes what the selector picks.

use dfccl_collectives::{
    estimate_family_ns, AlgorithmKind, CollectiveDescriptor, DataType, ReduceOp,
    DEFAULT_CHUNK_ELEMS,
};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::GpuId;

use AlgorithmKind::{DoubleBinaryTree, Hierarchical, Pairwise, Ring};

/// (family, ranks, bytes, channels, topology, `f64::to_bits` of the estimate
/// in ns). Topology "flat" is `Topology::flat(n)`, "cluster" is
/// `Topology::uniform_cluster(2, n / 2)`; combinations a family cannot
/// schedule (hierarchical on one node) are absent.
#[rustfmt::skip]
const GOLDEN: &[(AlgorithmKind, usize, usize, usize, &str, u64)] = &[
    (Ring, 2, 64, 1, "flat", 0x40ac2ba2e8ba2e8c), // 3605.818181818182
    (Ring, 2, 64, 1, "cluster", 0x40c199d1745d1746), // 9011.636363636364
    (Ring, 2, 64, 2, "flat", 0x40ac2ba2e8ba2e8c), // 3605.818181818182
    (Ring, 2, 64, 2, "cluster", 0x40c199d1745d1746), // 9011.636363636364
    (Ring, 2, 16384, 1, "flat", 0x40b3e1745d1745d2), // 5089.454545454546
    (Ring, 2, 16384, 1, "cluster", 0x40c765745d1745d2), // 11978.909090909092
    (Ring, 2, 16384, 2, "flat", 0x40b3e1745d1745d2), // 5089.454545454546
    (Ring, 2, 16384, 2, "cluster", 0x40c765745d1745d2), // 11978.909090909092
    (Ring, 2, 4194304, 1, "flat", 0x411ac9d1745d1742), // 438900.3636363634
    (Ring, 2, 4194304, 1, "cluster", 0x412baad1745d1742), // 906600.7272727268
    (Ring, 2, 4194304, 2, "flat", 0x410ac9d1745d1744), // 219450.18181818177
    (Ring, 2, 4194304, 2, "cluster", 0x411baad1745d1744), // 453300.36363636353
    (Ring, 4, 64, 1, "flat", 0x40c51c5d1745d175), // 10808.727272727274
    (Ring, 4, 64, 1, "cluster", 0x40da625d1745d175), // 27017.454545454548
    (Ring, 4, 64, 2, "flat", 0x40c51c5d1745d175), // 10808.727272727274
    (Ring, 4, 64, 2, "cluster", 0x40da625d1745d175), // 27017.454545454548
    (Ring, 4, 16384, 1, "flat", 0x40c9751745d1745d), // 13034.181818181818
    (Ring, 4, 16384, 1, "cluster", 0x40debb1745d1745d), // 31468.363636363636
    (Ring, 4, 16384, 2, "flat", 0x40c9751745d1745d), // 13034.181818181818
    (Ring, 4, 16384, 2, "cluster", 0x40debb1745d1745d), // 31468.363636363636
    (Ring, 4, 4194304, 1, "flat", 0x4124175d1745d171), // 658350.5454545451
    (Ring, 4, 4194304, 1, "cluster", 0x4134c01d1745d171), // 1359901.0909090901
    (Ring, 4, 4194304, 2, "flat", 0x4114175d1745d172), // 329175.2727272726
    (Ring, 4, 4194304, 2, "cluster", 0x4124c01d1745d172), // 679950.5454545452
    (Ring, 8, 64, 1, "flat", 0x40d89e8ba2e8ba2d), // 25210.181818181813
    (Ring, 8, 64, 1, "cluster", 0x40eec58ba2e8ba2d), // 63020.363636363625
    (Ring, 8, 64, 2, "flat", 0x40d89e8ba2e8ba2d), // 25210.181818181813
    (Ring, 8, 64, 2, "cluster", 0x40eec58ba2e8ba2d), // 63020.363636363625
    (Ring, 8, 16384, 1, "flat", 0x40db27a2e8ba2e8e), // 27806.545454545463
    (Ring, 8, 16384, 1, "cluster", 0x40f0a751745d1744), // 68213.09090909088
    (Ring, 8, 16384, 2, "flat", 0x40db27a2e8ba2e8e), // 27806.545454545463
    (Ring, 8, 16384, 2, "cluster", 0x40f0a751745d1744), // 68213.09090909088
    (Ring, 8, 4194304, 1, "flat", 0x4127709745d17459), // 768075.6363636359
    (Ring, 8, 4194304, 1, "cluster", 0x4138357745d17459), // 1586551.2727272718
    (Ring, 8, 4194304, 2, "flat", 0x4117709745d1745a), // 384037.818181818
    (Ring, 8, 4194304, 2, "cluster", 0x4128357745d1745a), // 793275.636363636
    (DoubleBinaryTree, 2, 64, 1, "flat", 0x40bc2ba2e8ba2e8c), // 7211.636363636364
    (DoubleBinaryTree, 2, 64, 1, "cluster", 0x40d199d1745d1746), // 18023.272727272728
    (DoubleBinaryTree, 2, 64, 2, "flat", 0x40bc2ba2e8ba2e8c), // 7211.636363636364
    (DoubleBinaryTree, 2, 64, 2, "cluster", 0x40d199d1745d1746), // 18023.272727272728
    (DoubleBinaryTree, 2, 16384, 1, "flat", 0x40c3e1745d1745d2), // 10178.909090909092
    (DoubleBinaryTree, 2, 16384, 1, "cluster", 0x40d765745d1745d2), // 23957.818181818184
    (DoubleBinaryTree, 2, 16384, 2, "flat", 0x40c3e1745d1745d2), // 10178.909090909092
    (DoubleBinaryTree, 2, 16384, 2, "cluster", 0x40d765745d1745d2), // 23957.818181818184
    (DoubleBinaryTree, 2, 4194304, 1, "flat", 0x412ac9d1745d1741), // 877800.7272727267
    (DoubleBinaryTree, 2, 4194304, 1, "cluster", 0x413baad1745d1741), // 1813201.4545454534
    (DoubleBinaryTree, 2, 4194304, 2, "flat", 0x411ac9d1745d1742), // 438900.3636363634
    (DoubleBinaryTree, 2, 4194304, 2, "cluster", 0x412baad1745d1742), // 906600.7272727268
    (DoubleBinaryTree, 4, 64, 1, "flat", 0x40cc2ba2e8ba2e8e), // 14423.272727272732
    (DoubleBinaryTree, 4, 64, 1, "cluster", 0x40d8a4ba2e8ba2ea), // 25234.909090909096
    (DoubleBinaryTree, 4, 64, 2, "flat", 0x40cc2ba2e8ba2e8e), // 14423.272727272732
    (DoubleBinaryTree, 4, 64, 2, "cluster", 0x40d8a4ba2e8ba2ea), // 25234.909090909096
    (DoubleBinaryTree, 4, 16384, 1, "flat", 0x40d3e1745d1745d1), // 20357.81818181818
    (DoubleBinaryTree, 4, 16384, 1, "cluster", 0x40e0ab1745d1745d), // 34136.72727272727
    (DoubleBinaryTree, 4, 16384, 2, "flat", 0x40d3e1745d1745d1), // 20357.81818181818
    (DoubleBinaryTree, 4, 16384, 2, "cluster", 0x40e0ab1745d1745d), // 34136.72727272727
    (DoubleBinaryTree, 4, 4194304, 1, "flat", 0x413ac9d1745d175a), // 1755601.4545454592
    (DoubleBinaryTree, 4, 4194304, 1, "cluster", 0x414487dd1745d17b), // 2691002.181818185
    (DoubleBinaryTree, 4, 4194304, 2, "flat", 0x412ac9d1745d1741), // 877800.7272727267
    (DoubleBinaryTree, 4, 4194304, 2, "cluster", 0x413487dd1745d175), // 1345501.090909091
    (DoubleBinaryTree, 8, 64, 1, "flat", 0x40d6e3745d1745d4), // 23437.81818181819
    (DoubleBinaryTree, 8, 64, 1, "cluster", 0x40e35ce8ba2e8ba4), // 39655.272727272735
    (DoubleBinaryTree, 8, 64, 2, "flat", 0x40d6e3745d1745d4), // 23437.81818181819
    (DoubleBinaryTree, 8, 64, 2, "cluster", 0x40e35ce8ba2e8ba4), // 39655.272727272735
    (DoubleBinaryTree, 8, 16384, 1, "flat", 0x40e0272e8ba2e8ba), // 33081.454545454544
    (DoubleBinaryTree, 8, 16384, 1, "cluster", 0x40ea3eba2e8ba2e8), // 53749.81818181818
    (DoubleBinaryTree, 8, 16384, 2, "flat", 0x40e0272e8ba2e8ba), // 33081.454545454544
    (DoubleBinaryTree, 8, 16384, 2, "cluster", 0x40ea3eba2e8ba2e8), // 53749.81818181818
    (DoubleBinaryTree, 8, 4194304, 1, "flat", 0x41443226e8ba2e90), // 2647117.81818182
    (DoubleBinaryTree, 8, 4194304, 1, "cluster", 0x414ee695745d1753), // 4050218.909090915
    (DoubleBinaryTree, 8, 4194304, 2, "flat", 0x41344cf0ba2e8ba9), // 1330416.7272727287
    (DoubleBinaryTree, 8, 4194304, 2, "cluster", 0x413f015f45d17464), // 2031967.2727272743
    (Hierarchical, 2, 64, 1, "cluster", 0x40c199d1745d1746), // 9011.636363636364
    (Hierarchical, 2, 64, 2, "cluster", 0x40c199d1745d1746), // 9011.636363636364
    (Hierarchical, 2, 16384, 1, "cluster", 0x40c765745d1745d2), // 11978.909090909092
    (Hierarchical, 2, 16384, 2, "cluster", 0x40c765745d1745d2), // 11978.909090909092
    (Hierarchical, 2, 4194304, 1, "cluster", 0x412baad1745d1742), // 906600.7272727268
    (Hierarchical, 2, 4194304, 2, "cluster", 0x411baad1745d1744), // 453300.36363636353
    (Hierarchical, 4, 64, 1, "cluster", 0x40c8a1d1745d1746), // 12611.636363636364
    (Hierarchical, 4, 64, 2, "cluster", 0x40c8a1d1745d1746), // 12611.636363636364
    (Hierarchical, 4, 16384, 1, "cluster", 0x40ce6d745d1745d2), // 15578.909090909092
    (Hierarchical, 4, 16384, 2, "cluster", 0x40ce6d745d1745d2), // 15578.909090909092
    (Hierarchical, 4, 4194304, 1, "cluster", 0x411f040ba2e8ba2c), // 508162.90909090894
    (Hierarchical, 4, 4194304, 2, "cluster", 0x41112ea2e8ba2e8c), // 281512.7272727273
    (Hierarchical, 8, 64, 1, "cluster", 0x40d358e8ba2e8ba2), // 19811.63636363636
    (Hierarchical, 8, 64, 2, "cluster", 0x40d358e8ba2e8ba2), // 19811.63636363636
    (Hierarchical, 8, 16384, 1, "cluster", 0x40d63eba2e8ba2e9), // 22778.909090909092
    (Hierarchical, 8, 16384, 2, "cluster", 0x40d63eba2e8ba2e9), // 22778.909090909092
    (Hierarchical, 8, 4194304, 1, "cluster", 0x4124175d1745d171), // 658350.5454545451
    (Hierarchical, 8, 4194304, 2, "cluster", 0x4114175d1745d172), // 329175.2727272726
    (Pairwise, 2, 64, 1, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (Pairwise, 2, 64, 1, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (Pairwise, 2, 64, 2, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (Pairwise, 2, 64, 2, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (Pairwise, 2, 16384, 1, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (Pairwise, 2, 16384, 1, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (Pairwise, 2, 16384, 2, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (Pairwise, 2, 16384, 2, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (Pairwise, 2, 4194304, 1, "flat", 0x411ac9d1745d1742), // 438900.3636363634
    (Pairwise, 2, 4194304, 1, "cluster", 0x412baad1745d1742), // 906600.7272727268
    (Pairwise, 2, 4194304, 2, "flat", 0x410ac9d1745d1744), // 219450.18181818177
    (Pairwise, 2, 4194304, 2, "cluster", 0x411baad1745d1744), // 453300.36363636353
    (Pairwise, 4, 64, 1, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (Pairwise, 4, 64, 1, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (Pairwise, 4, 64, 2, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (Pairwise, 4, 64, 2, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (Pairwise, 4, 16384, 1, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (Pairwise, 4, 16384, 1, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (Pairwise, 4, 16384, 2, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (Pairwise, 4, 16384, 2, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (Pairwise, 4, 4194304, 1, "flat", 0x411ac9d1745d1742), // 438900.3636363634
    (Pairwise, 4, 4194304, 1, "cluster", 0x412baad1745d1742), // 906600.7272727268
    (Pairwise, 4, 4194304, 2, "flat", 0x410ac9d1745d1744), // 219450.18181818177
    (Pairwise, 4, 4194304, 2, "cluster", 0x411baad1745d1744), // 453300.36363636353
    (Pairwise, 8, 64, 1, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (Pairwise, 8, 64, 1, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (Pairwise, 8, 64, 2, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (Pairwise, 8, 64, 2, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (Pairwise, 8, 16384, 1, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (Pairwise, 8, 16384, 1, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (Pairwise, 8, 16384, 2, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (Pairwise, 8, 16384, 2, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (Pairwise, 8, 4194304, 1, "flat", 0x411ac9d1745d1742), // 438900.3636363634
    (Pairwise, 8, 4194304, 1, "cluster", 0x412baad1745d1742), // 906600.7272727268
    (Pairwise, 8, 4194304, 2, "flat", 0x410ac9d1745d1744), // 219450.18181818177
    (Pairwise, 8, 4194304, 2, "cluster", 0x411baad1745d1744), // 453300.36363636353
];

/// The pairwise family's recursive-doubling all-reduce, in the layout of
/// [`GOLDEN`] without the family column.
#[rustfmt::skip]
const PAIRWISE_ALL_REDUCE: &[(usize, usize, usize, &str, u64)] = &[
    (2, 64, 1, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (2, 64, 1, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (2, 64, 2, "flat", 0x409c3745d1745d17), // 1805.8181818181818
    (2, 64, 2, "cluster", 0x40b19fa2e8ba2e8c), // 4511.636363636364
    (2, 16384, 1, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (2, 16384, 1, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (2, 16384, 2, "flat", 0x40a9b2e8ba2e8ba3), // 3289.4545454545455
    (2, 16384, 2, "cluster", 0x40bd36e8ba2e8ba3), // 7478.909090909091
    (2, 4194304, 1, "flat", 0x411ac9d1745d1742), // 438900.3636363634
    (2, 4194304, 1, "cluster", 0x412baad1745d1742), // 906600.7272727268
    (2, 4194304, 2, "flat", 0x410ac9d1745d1744), // 219450.18181818177
    (2, 4194304, 2, "cluster", 0x411baad1745d1744), // 453300.36363636353
    (4, 64, 1, "flat", 0x40ac3745d1745d17), // 3611.6363636363635
    (4, 64, 1, "cluster", 0x40b8ad745d1745d2), // 6317.454545454546
    (4, 64, 2, "flat", 0x40ac3745d1745d17), // 3611.6363636363635
    (4, 64, 2, "cluster", 0x40b8ad745d1745d2), // 6317.454545454546
    (4, 16384, 1, "flat", 0x40b9b2e8ba2e8ba3), // 6578.909090909091
    (4, 16384, 1, "cluster", 0x40c5082e8ba2e8ba), // 10768.363636363636
    (4, 16384, 2, "flat", 0x40b9b2e8ba2e8ba3), // 6578.909090909091
    (4, 16384, 2, "cluster", 0x40c5082e8ba2e8ba), // 10768.363636363636
    (4, 4194304, 1, "flat", 0x412ac9d1745d1741), // 877800.7272727267
    (4, 4194304, 1, "cluster", 0x413487dd1745d175), // 1345501.090909091
    (4, 4194304, 2, "flat", 0x411ac9d1745d1742), // 438900.3636363634
    (4, 4194304, 2, "cluster", 0x412487dd1745d172), // 672750.5454545452
    (8, 64, 1, "flat", 0x40b529745d1745d1), // 5417.454545454545
    (8, 64, 1, "cluster", 0x40bfbb45d1745d18), // 8123.272727272728
    (8, 64, 2, "flat", 0x40b529745d1745d1), // 5417.454545454545
    (8, 64, 2, "cluster", 0x40bfbb45d1745d18), // 8123.272727272728
    (8, 16384, 1, "flat", 0x40c3462e8ba2e8ba), // 9868.363636363636
    (8, 16384, 1, "cluster", 0x40cb74e8ba2e8ba3), // 14057.818181818182
    (8, 16384, 2, "flat", 0x40c3462e8ba2e8ba), // 9868.363636363636
    (8, 16384, 2, "cluster", 0x40cb74e8ba2e8ba3), // 14057.818181818182
    (8, 4194304, 1, "flat", 0x4134175d1745d17a), // 1316701.0909090922
    (8, 4194304, 1, "cluster", 0x413b3a51745d174e), // 1784401.4545454565
    (8, 4194304, 2, "flat", 0x4124175d1745d171), // 658350.5454545451
    (8, 4194304, 2, "cluster", 0x412b3a51745d1742), // 892200.7272727268
];

/// `f64::to_bits` of the estimate for `kind` over the descriptor `make`
/// returns for `n` ranks and `bytes`, striped over `k` channels.
fn estimate_bits(
    kind: AlgorithmKind,
    make: fn(usize, Vec<GpuId>) -> CollectiveDescriptor,
    (n, bytes, k, topo_name): (usize, usize, usize, &str),
) -> u64 {
    let topo = match topo_name {
        "flat" => Topology::flat(n),
        _ => Topology::uniform_cluster(2, n / 2),
    };
    let desc = make(bytes / 4, (0..n).map(GpuId).collect()).with_channels(k);
    estimate_family_ns(
        &desc,
        kind,
        DEFAULT_CHUNK_ELEMS,
        &topo,
        &LinkModel::table2_testbed(),
    )
    .unwrap_or_else(|e| panic!("{kind} n={n} {bytes} B K={k} {topo_name}: {e:?}"))
    .to_bits()
}

fn all_reduce(count: usize, devices: Vec<GpuId>) -> CollectiveDescriptor {
    CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices)
}

fn all_to_all(count: usize, devices: Vec<GpuId>) -> CollectiveDescriptor {
    CollectiveDescriptor::all_to_all(count, DataType::F32, devices)
}

#[test]
fn estimates_match_the_golden_values_bit_for_bit() {
    for &(kind, n, bytes, k, topo_name, bits) in GOLDEN {
        let make = if kind == Pairwise {
            all_to_all
        } else {
            all_reduce
        };
        let got = estimate_bits(kind, make, (n, bytes, k, topo_name));
        assert_eq!(
            got,
            bits,
            "{kind} n={n} {bytes} B K={k} {topo_name}: {:?} vs golden {:?}",
            f64::from_bits(got),
            f64::from_bits(bits)
        );
    }
    // Every family is pinned.
    for kind in [Ring, DoubleBinaryTree, Hierarchical, Pairwise] {
        assert!(GOLDEN.iter().any(|g| g.0 == kind), "{kind} missing");
    }
}

#[test]
fn pairwise_all_reduce_estimates_match_the_golden_values_bit_for_bit() {
    for &(n, bytes, k, topo_name, bits) in PAIRWISE_ALL_REDUCE {
        let got = estimate_bits(Pairwise, all_reduce, (n, bytes, k, topo_name));
        assert_eq!(
            got,
            bits,
            "n={n} {bytes} B K={k} {topo_name}: {:?} vs golden {:?}",
            f64::from_bits(got),
            f64::from_bits(bits)
        );
    }
}
