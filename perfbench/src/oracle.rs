//! Answer digests and the centralized-oracle check, run after the measured
//! phase so it never shares the clock with the system under test.

use std::collections::HashMap;

use disks_core::bitset::BitSet;
use disks_core::{centralized_topk, CentralizedCoverage, DTerm, Ranked};
use disks_roadnet::{NodeId, RoadNetwork};

use crate::workload::Query;

/// What the benchmark keeps of one answer: a digest of a coverage answer
/// (answers of `sgkq-hot` run to ~5k nodes, too many to keep) or a top-k
/// list in full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Nodes { digest: u64, len: usize },
    Ranked(Vec<Ranked>),
}

impl Answer {
    /// Digest of a node set given in ascending order.
    pub fn of_sorted(ids: impl IntoIterator<Item = u32>) -> Answer {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut len = 0usize;
        for id in ids {
            for b in id.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            len += 1;
        }
        Answer::Nodes { digest: h, len }
    }

    pub fn of_nodes(nodes: &[NodeId]) -> Answer {
        Answer::of_sorted(nodes.iter().map(|n| n.0))
    }
}

/// Entries kept in the oracle's per-term coverage memo before it is
/// cleared: repeated Zipf terms are computed once, while distinct cold
/// slots cannot grow the memo without bound.
const MEMO_ENTRIES: usize = 2048;

struct Oracle<'a> {
    net: &'a RoadNetwork,
    cc: CentralizedCoverage<'a>,
    memo: HashMap<DTerm, BitSet>,
}

impl<'a> Oracle<'a> {
    fn answer(&mut self, q: &Query) -> Answer {
        let Some(f) = q.dfunction() else {
            let Query::TopK(t) = q else { unreachable!("only top-k has no D-function") };
            return Answer::Ranked(centralized_topk(self.net, t).expect("valid top-k query"));
        };
        if self.memo.len() > MEMO_ENTRIES {
            self.memo.clear();
        }
        // `CentralizedCoverage::evaluate`, with each coverage memoized.
        let coverages: Vec<BitSet> = f
            .terms()
            .map(|t| {
                self.memo.entry(*t).or_insert_with(|| self.cc.coverage(t.term, t.radius)).clone()
            })
            .collect();
        Answer::of_sorted(f.combine(&coverages).iter().map(|i| i as u32))
    }
}

/// Every top-k answer costs the oracle three whole-graph Dijkstras, so only
/// every `TOPK_SAMPLE`-th top-k answer (in arrival order) is checked;
/// coverage answers are all checked.
pub const TOPK_SAMPLE: usize = 4;

/// Indexes of the answers the oracle checks.
pub fn sample(answers: &[(Query, Answer)]) -> Vec<usize> {
    let mut topk_seen = 0usize;
    (0..answers.len())
        .filter(|&i| {
            if !matches!(answers[i].0, Query::TopK(_)) {
                return true;
            }
            topk_seen += 1;
            (topk_seen - 1).is_multiple_of(TOPK_SAMPLE)
        })
        .collect()
}

/// Compare the answers at `check` with the centralized oracle on up to
/// `threads` threads; returns the indexes of the answers that differ.
pub fn mismatches(
    net: &RoadNetwork,
    answers: &[(Query, Answer)],
    check: &[usize],
    threads: usize,
) -> Vec<usize> {
    let threads = threads.clamp(1, check.len().max(1));
    let mut bad: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut o =
                        Oracle { net, cc: CentralizedCoverage::new(net), memo: HashMap::new() };
                    check
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .copied()
                        .filter(|&i| o.answer(&answers[i].0) != answers[i].1)
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    bad.sort_unstable();
    bad
}
