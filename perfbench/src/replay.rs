//! Layer replays for the traced run: each answered query is evaluated again
//! through the public functions of the plan, engine and message layers —
//! against engines built with `FragmentEngine::new` from the same indexes
//! the cluster serves — so each layer's time and work is measured from
//! outside the program.

use std::collections::HashMap;
use std::sync::Arc;

use disks_cluster::message::{decode_frame, encode_frame};
use disks_cluster::{Request, Response, WireCost};
use disks_core::bitset::BitSet;
use disks_core::{merge_topk, DFunction, DTerm, FragmentEngine, NpdIndex, QueryPlan, SuperPlan};
use disks_partition::Partitioning;
use disks_roadnet::{NodeId, RoadNetwork};

use crate::oracle::Answer;
use crate::trace::Tracer;
use crate::workload::Query;

/// Plans per `SuperPlan::merge` window for `core.plan.dedup_ratio`: the
/// default batch window.
const DEDUP_WINDOW: usize = 16;

/// Bytes of replayed coverages kept before the store is cleared: the
/// cluster's default per-worker cache budget.
const STORE_BYTES: usize = 64 << 20;

/// Work counted by the replays (times come from the spans).
#[derive(Debug, Default, Clone)]
pub struct ReplayCounts {
    /// Queries replayed.
    pub queries: u64,
    /// Plans lowered, and the slots they hold.
    pub plans: u64,
    pub plan_slots: u64,
    /// Slots evaluated on every fragment because the replay's store had not
    /// seen them, and the heap pushes of those searches.
    pub slots_computed: u64,
    pub pushed: u64,
    /// Coverage queries combined, top-k queries ranked.
    pub combined: u64,
    pub topk: u64,
    /// Over full `DEDUP_WINDOW` windows: slots requested, and distinct.
    pub window_slots: u64,
    pub window_distinct: u64,
    /// Replayed answers that differ from the cluster's.
    pub mismatches: u64,
}

pub struct Replay {
    engines: Vec<FragmentEngine>,
    /// Coverages per slot, one per fragment: a stand-in for the workers'
    /// caches, so only slots that would miss are searched again.
    store: HashMap<DTerm, Vec<Arc<BitSet>>>,
    store_bytes: usize,
    window: Vec<QueryPlan>,
    pub counts: ReplayCounts,
}

impl Replay {
    pub fn new(net: &RoadNetwork, part: &Partitioning, indexes: &[NpdIndex]) -> Self {
        let engines = indexes
            .iter()
            .map(|idx| FragmentEngine::new(net, part, idx).expect("engine loads its index"))
            .collect();
        Replay {
            engines,
            store: HashMap::new(),
            store_bytes: 0,
            window: Vec::new(),
            counts: ReplayCounts::default(),
        }
    }

    /// Forget the counts (the store stays warm, like the workers' caches).
    pub fn reset_counts(&mut self) {
        self.counts = ReplayCounts::default();
        self.window.clear();
    }

    /// Replay one answered query; `expect` is the cluster's answer.
    pub fn replay(&mut self, tr: &mut Tracer, qid: u64, q: &Query, expect: &Answer) {
        let span = tr.begin("replay", qid);
        self.counts.queries += 1;
        let got = match q {
            Query::TopK(t) => {
                // The cluster lowers a top-k query only to price it.
                let s = tr.begin("core.plan.lower", qid);
                let plan = QueryPlan::lower(&DFunction::intersection_of(&t.keywords, t.horizon));
                tr.end(s);
                self.counts.plans += 1;
                self.counts.plan_slots += plan.num_slots() as u64;

                let s = tr.begin("core.engine.topk_local", qid);
                let lists: Vec<_> = self
                    .engines
                    .iter_mut()
                    .map(|e| e.topk_local(t).expect("admitted top-k query").0)
                    .collect();
                tr.end(s);
                self.counts.topk += 1;

                let s = tr.begin("cluster.message.encode", qid);
                let req = encode_frame(&Request::TopK {
                    query_id: qid,
                    query: t.clone(),
                    fragments: vec![],
                });
                let resps: Vec<_> = lists
                    .into_iter()
                    .enumerate()
                    .map(|(f, ranked)| {
                        encode_frame(&Response::TopKResults {
                            query_id: qid,
                            fragment: f as u32,
                            ranked,
                            cost: WireCost::default(),
                        })
                    })
                    .collect();
                tr.end(s);

                let s = tr.begin("cluster.message.decode", qid);
                decode_frame::<Request>(req).expect("request frame decodes");
                let lists: Vec<_> = resps
                    .into_iter()
                    .map(|r| match decode_frame::<Response>(r).expect("response frame decodes") {
                        Response::TopKResults { ranked, .. } => ranked,
                        other => panic!("unexpected response {other:?}"),
                    })
                    .collect();
                tr.end(s);
                Answer::Ranked(merge_topk(lists, t.k))
            }
            _ => {
                let f = q.dfunction().expect("coverage query");
                let s = tr.begin("core.plan.lower", qid);
                let plan = QueryPlan::lower(&f);
                tr.end(s);
                self.counts.plans += 1;
                self.counts.plan_slots += plan.num_slots() as u64;
                self.note_window(&plan);

                if self.store_bytes > STORE_BYTES {
                    self.store.clear();
                    self.store_bytes = 0;
                }
                for slot in plan.slots() {
                    if self.store.contains_key(slot) {
                        continue;
                    }
                    let s = tr.begin("core.engine.coverage", qid);
                    let covs: Vec<_> = self
                        .engines
                        .iter_mut()
                        .map(|e| e.coverage(slot.term, slot.radius).expect("admitted slot"))
                        .collect();
                    tr.end(s);
                    self.counts.slots_computed += 1;
                    let mut per_fragment = Vec::with_capacity(covs.len());
                    for (cov, cost) in covs {
                        self.counts.pushed += cost.pushed as u64;
                        self.store_bytes += cov.memory_bytes();
                        per_fragment.push(cov);
                    }
                    self.store.insert(*slot, per_fragment);
                }

                let s = tr.begin("core.engine.combine", qid);
                let answers: Vec<Vec<NodeId>> = self
                    .engines
                    .iter()
                    .enumerate()
                    .map(|(i, e)| {
                        let covs: Vec<&BitSet> =
                            plan.slots().iter().map(|slot| &*self.store[slot][i]).collect();
                        e.to_global(&plan.combine(&covs))
                    })
                    .collect();
                tr.end(s);
                self.counts.combined += 1;

                let s = tr.begin("cluster.message.encode", qid);
                let req =
                    encode_frame(&Request::Evaluate { query_id: qid, plan, fragments: vec![] });
                let resps: Vec<_> = answers
                    .into_iter()
                    .enumerate()
                    .map(|(f, nodes)| {
                        encode_frame(&Response::Results {
                            query_id: qid,
                            fragment: f as u32,
                            nodes,
                            cost: WireCost::default(),
                        })
                    })
                    .collect();
                tr.end(s);

                let s = tr.begin("cluster.message.decode", qid);
                decode_frame::<Request>(req).expect("request frame decodes");
                let mut nodes: Vec<NodeId> = Vec::new();
                for r in resps {
                    match decode_frame::<Response>(r).expect("response frame decodes") {
                        Response::Results { nodes: n, .. } => nodes.extend(n),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                tr.end(s);
                nodes.sort_unstable();
                Answer::of_nodes(&nodes)
            }
        };
        if &got != expect {
            self.counts.mismatches += 1;
        }
        tr.end(span);
    }

    fn note_window(&mut self, plan: &QueryPlan) {
        self.window.push(plan.clone());
        if self.window.len() == DEDUP_WINDOW {
            let merged = SuperPlan::merge(&self.window);
            self.counts.window_distinct += merged.num_slots() as u64;
            self.counts.window_slots +=
                self.window.iter().map(|p| p.num_slots() as u64).sum::<u64>();
            self.window.clear();
        }
    }
}
