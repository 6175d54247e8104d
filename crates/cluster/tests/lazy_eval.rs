//! Lazy slot evaluation at cluster level: a 7-keyword SGKQ stream on an
//! 8-fragment grid, with the coverage cache on and off. Every answer equals
//! the centralized oracle, and the nodes the workers settle sum to strictly
//! less than the eager cost — one `FragmentEngine::coverage` search per slot
//! per fragment — because a fragment stops searching once its ∩ chain is
//! empty.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_cluster::{Cluster, ClusterConfig, HedgeMode, NetworkModel};
use disks_core::{
    build_all_indexes, CentralizedCoverage, FragmentEngine, IndexConfig, QueryPlan, SgkQuery,
};
use disks_partition::{MultilevelPartitioner, Partitioner};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::KeywordId;

#[test]
fn seven_keyword_stream_is_exact_and_settles_less_than_eager() {
    let net = GridNetworkConfig::small(0x1A2F).generate();
    let p = MultilevelPartitioner::default().partition(&net, 8);
    let freqs = net.keyword_frequencies();
    let vocab: Vec<u32> = (0..freqs.len() as u32).filter(|&k| freqs[k as usize] > 0).collect();
    let e = net.avg_edge_weight();
    let mut rng = StdRng::seed_from_u64(0x7E7);
    let stream: Vec<SgkQuery> = (0..40)
        .map(|_| {
            let kws = (0..7).map(|_| KeywordId(vocab[rng.gen_range(0..vocab.len())])).collect();
            SgkQuery::new(kws, e * rng.gen_range(1..=8))
        })
        .collect();

    // The eager cost: every slot searched on every fragment.
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let mut engines: Vec<FragmentEngine> =
        indexes.iter().map(|idx| FragmentEngine::new(&net, &p, idx).unwrap()).collect();
    let eager: u64 = stream
        .iter()
        .map(|q| {
            let plan = QueryPlan::lower(&q.to_dfunction());
            let mut settled = 0;
            for engine in &mut engines {
                for slot in plan.slots() {
                    settled += engine.coverage(slot.term, slot.radius).unwrap().1.settled as u64;
                }
            }
            settled
        })
        .sum();

    let mut oracle = CentralizedCoverage::new(&net);
    for cache_bytes in [64 << 20, 0] {
        let cluster = Cluster::build(
            &net,
            &p,
            indexes.clone(),
            ClusterConfig {
                network: NetworkModel::instant(),
                deadline: Duration::from_secs(5),
                coverage_cache_bytes: cache_bytes,
                // Pinned: a hedge would add a duplicate evaluation's work.
                hedge: HedgeMode::Off,
                ..ClusterConfig::default()
            },
        );
        let mut lazy = 0;
        for (i, q) in stream.iter().enumerate() {
            let out = cluster.run_sgkq(q).unwrap_or_else(|err| panic!("query {i}: {err}"));
            assert_eq!(out.results, oracle.sgkq(q).unwrap(), "query {i} not exact");
            lazy += out.stats.total_settled();
        }
        assert!(lazy < eager, "cache {cache_bytes}: lazy settled {lazy}, eager {eager}");
        cluster.shutdown();
    }
}
