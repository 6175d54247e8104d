//! Properties of lazy, selectivity-ordered plan evaluation:
//!
//! 1. `QueryPlan::combine_lazy` returns exactly `QueryPlan::combine` over
//!    every slot's coverage, for random ∪/∩/− programs with repeated slots,
//!    random (often empty) coverages and random cached subsets; it fetches
//!    each slot at most once, and every slot it skips is irrelevant: any
//!    other coverage for it gives the same answer.
//! 2. On a real fragment engine, lazy evaluation through a coverage store
//!    equals the eager combine over `FragmentEngine::coverage`, looks up
//!    only the slots it evaluates (each once), stores exactly its misses,
//!    and leaves skipped slots untouched — hits + misses = slots evaluated.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_core::bitset::BitSet;
use disks_core::{
    build_all_indexes, CoverageStore, DFunction, DTerm, FragmentEngine, IndexConfig, QueryPlan,
    SetOp, SlotSource, Term,
};
use disks_partition::{MultilevelPartitioner, Partitioner};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::KeywordId;

/// A random program over a small `(keyword, radius)` space, so slots repeat.
fn random_plan(rng: &mut StdRng, keywords: u32, radii: &[u64]) -> QueryPlan {
    let term = |rng: &mut StdRng| {
        (Term::Keyword(KeywordId(rng.gen_range(0..keywords))), radii[rng.gen_range(0..radii.len())])
    };
    let (t, r) = term(rng);
    let mut f = DFunction::single(t, r);
    for _ in 0..rng.gen_range(0..6) {
        let op = match rng.gen_range(0..4) {
            0 => SetOp::Union,
            1 => SetOp::Subtract,
            _ => SetOp::Intersect,
        };
        let (t, r) = term(rng);
        f = f.then(op, t, r);
    }
    QueryPlan::lower(&f)
}

/// Coverages handed out by slot index, with a record of what was fetched.
struct Fake {
    covs: Vec<Arc<BitSet>>,
    cached: Vec<bool>,
    seeds: Vec<usize>,
    fetches: Vec<u32>,
}

impl SlotSource for Fake {
    type Error = ();
    fn is_cached(&self, slot: u32) -> bool {
        self.cached[slot as usize]
    }
    fn seeds(&self, slot: u32) -> usize {
        self.seeds[slot as usize]
    }
    fn fetch(&mut self, slot: u32) -> Result<Arc<BitSet>, ()> {
        self.fetches.push(slot);
        Ok(Arc::clone(&self.covs[slot as usize]))
    }
}

fn random_set(rng: &mut StdRng, cap: usize) -> BitSet {
    let mut s = BitSet::new(cap);
    // One in three coverages is empty; the rest are sparse or dense.
    if rng.gen_range(0..3) > 0 {
        let density = rng.gen_range(1..=4);
        for i in 0..cap {
            if rng.gen_range(0..5) < density {
                s.insert(i);
            }
        }
    }
    s
}

/// A coverage store over a map that counts every lookup and store.
#[derive(Default)]
struct CountingStore {
    map: HashMap<DTerm, Arc<BitSet>>,
    looked_up: Vec<DTerm>,
    hits: usize,
    stored: Vec<DTerm>,
}

impl CoverageStore for CountingStore {
    fn lookup(&mut self, slot: &DTerm) -> Option<Arc<BitSet>> {
        self.looked_up.push(*slot);
        let hit = self.map.get(slot).cloned();
        self.hits += usize::from(hit.is_some());
        hit
    }
    fn store(&mut self, slot: &DTerm, coverage: &Arc<BitSet>) {
        self.stored.push(*slot);
        self.map.insert(*slot, Arc::clone(coverage));
    }
    fn peek(&self, slot: &DTerm) -> bool {
        self.map.contains_key(slot)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_combine_equals_eager_and_skips_only_irrelevant_slots(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = random_plan(&mut rng, 5, &[1, 2]);
        let n = plan.num_slots();
        let cap = 40;
        let covs: Vec<Arc<BitSet>> = (0..n).map(|_| Arc::new(random_set(&mut rng, cap))).collect();
        let mut fake = Fake {
            covs: covs.clone(),
            cached: (0..n).map(|_| rng.gen_bool(0.4)).collect(),
            seeds: covs.iter().map(|c| if c.is_empty() { 0 } else { rng.gen_range(1..50) }).collect(),
            fetches: Vec::new(),
        };
        let lazy = plan.combine_lazy(&mut fake).unwrap();
        let eager = plan.combine(&covs);
        prop_assert_eq!(&*lazy, &eager);

        let fetched: HashSet<u32> = fake.fetches.iter().copied().collect();
        prop_assert_eq!(fetched.len(), fake.fetches.len(), "a slot was fetched twice");
        // Skipped slots cannot matter: replace each by its complement or by
        // the full set and the eager answer stays the same.
        for fill in [false, true] {
            let other: Vec<Arc<BitSet>> = (0..n)
                .map(|s| {
                    if fetched.contains(&(s as u32)) {
                        return Arc::clone(&covs[s]);
                    }
                    let mut x = BitSet::new(cap);
                    for i in (0..cap).filter(|&i| fill || !covs[s].contains(i)) {
                        x.insert(i);
                    }
                    Arc::new(x)
                })
                .collect();
            prop_assert_eq!(plan.combine(&other), eager.clone());
        }
    }
}

/// Property 2 on the fragments of one small grid; returns how many slots
/// were skipped and how many were served as hits, so a test can check the
/// seeds exercise both.
fn check_engine_case(seed: u64) -> Result<(usize, usize), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = GridNetworkConfig::tiny(seed % 7 + 80).generate();
    let p = MultilevelPartitioner::default().partition(&net, 3);
    let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
    let e = net.avg_edge_weight();
    // Rare keywords and radius 0 make empty per-fragment coverages common.
    let keywords = net.keyword_frequencies().len() as u32;
    let (mut skipped, mut hits) = (0, 0);
    for idx in &indexes {
        let mut engine = FragmentEngine::new(&net, &p, idx).unwrap();
        let plan = random_plan(&mut rng, keywords.min(12), &[0, e, 4 * e]);
        let eager: Vec<(Arc<BitSet>, usize)> = plan
            .slots()
            .iter()
            .map(|s| {
                let (cov, cost) = engine.coverage(s.term, s.radius).unwrap();
                (cov, cost.settled)
            })
            .collect();
        let covs: Vec<Arc<BitSet>> = eager.iter().map(|(c, _)| Arc::clone(c)).collect();
        let expect = engine.to_global(&plan.combine(&covs));

        let mut store = CountingStore::default();
        for (slot, cov) in plan.slots().iter().zip(&covs) {
            if rng.gen_bool(0.3) {
                store.map.insert(*slot, Arc::clone(cov));
            }
        }
        let pre_cached: HashSet<DTerm> = store.map.keys().copied().collect();
        let (got, cost) = engine.evaluate_plan_with_cache(&plan, &mut store).unwrap();
        prop_assert_eq!(&got, &expect);

        let looked: HashSet<DTerm> = store.looked_up.iter().copied().collect();
        prop_assert_eq!(looked.len(), store.looked_up.len(), "a slot was looked up twice");
        let misses = store.looked_up.len() - store.hits;
        prop_assert_eq!(cost.per_slot.len(), store.hits + misses);
        prop_assert_eq!(cost.per_slot.iter().filter(|s| s.cached).count(), store.hits);
        let evaluated: HashSet<DTerm> =
            cost.per_slot.iter().map(|s| DTerm { term: s.term, radius: s.radius }).collect();
        prop_assert_eq!(&evaluated, &looked);
        // Exactly the misses are stored; skipped slots are never touched.
        let stored: HashSet<DTerm> = store.stored.iter().copied().collect();
        let missed: HashSet<DTerm> = looked.difference(&pre_cached).copied().collect();
        prop_assert_eq!(stored.len(), store.stored.len());
        prop_assert_eq!(&stored, &missed);
        // The lazy search work never exceeds the eager work.
        prop_assert!(cost.settled <= eager.iter().map(|(_, s)| s).sum::<usize>());
        skipped += plan.num_slots() - looked.len();
        hits += store.hits;
    }
    Ok((skipped, hits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_lazy_evaluation_touches_only_evaluated_slots(seed in 0u64..1_000_000) {
        check_engine_case(seed)?;
    }
}

#[test]
fn engine_cases_exercise_skips_and_hits() {
    let (mut skipped, mut hits) = (0, 0);
    for seed in 0..16 {
        let (s, h) = check_engine_case(seed).unwrap();
        skipped += s;
        hits += h;
    }
    assert!(skipped > 0 && hits > 0, "skipped {skipped}, hits {hits}");
}
