//! The three workloads and their seeded query sources.
//!
//! Each workload is chosen to load a different set of layers (see
//! `README.md`): `sgkq-cold` makes coverage search do nearly all the work,
//! `sgkq-hot` makes every slot a cache hit so dispatch, gather and the wire
//! dominate, and `mixed-serial` drives the standalone entry points one query
//! at a time. The program under test only ever receives the generated
//! queries; the seed never reaches it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use disks_bench::QueryGenerator;
use disks_core::{
    DFunction, QClassQuery, RangeKeywordQuery, ScoreCombine, SetOp, SgkQuery, Term, TopKQuery,
};
use disks_roadnet::zipf::Zipf;
use disks_roadnet::{KeywordId, RoadNetwork};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SgkqCold,
    SgkqHot,
    MixedSerial,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SgkqCold, Workload::SgkqHot, Workload::MixedSerial];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SgkqCold => "sgkq-cold",
            Workload::SgkqHot => "sgkq-hot",
            Workload::MixedSerial => "mixed-serial",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Queries the closed-loop client keeps outstanding. 32 is two default
    /// batch windows of `Cluster::run_stream`.
    pub fn outstanding(self) -> usize {
        match self {
            Workload::MixedSerial => 1,
            _ => 32,
        }
    }

    /// Unmeasured queries run before the measured phase. The hot warm-up
    /// draws ~6k Zipf keywords, enough to cache nearly all of the mass of a
    /// 750-keyword vocabulary.
    pub fn warmup_queries(self) -> usize {
        match self {
            Workload::SgkqCold => 64,
            Workload::SgkqHot => 2048,
            Workload::MixedSerial => 64,
        }
    }

    /// Queries of the traced run: a fixed count, so the per-layer counts of
    /// one seed repeat exactly whatever the host's speed.
    pub fn traced_queries(self) -> usize {
        match self {
            Workload::SgkqCold => 640,
            Workload::SgkqHot => 4096,
            Workload::MixedSerial => 512,
        }
    }
}

/// One generated query, tagged with the entry point that serves it.
#[derive(Debug, Clone)]
pub enum Query {
    /// SGKQ through `Cluster::run` (or a `run_stream` round).
    Sgkq(SgkQuery),
    Rkq(RangeKeywordQuery),
    QClass(QClassQuery),
    TopK(TopKQuery),
}

impl Query {
    /// The D-function a coverage query lowers from; `None` for top-k.
    pub fn dfunction(&self) -> Option<DFunction> {
        match self {
            Query::Sgkq(q) => Some(q.to_dfunction()),
            Query::Rkq(q) => Some(q.to_dfunction()),
            Query::QClass(q) => Some(q.to_dfunction()),
            Query::TopK(_) => None,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Query::Sgkq(_) => "sgkq",
            Query::Rkq(_) => "rkq",
            Query::QClass(_) => "qclass",
            Query::TopK(_) => "topk",
        }
    }
}

/// Entry points of `mixed-serial`, in the proportions of one block of 20
/// queries: 40 % `run`, 25 % `run_rkq`, 15 % `run_qclass`, 20 % `run_topk`.
const MIXED_BLOCK: [Kind; 20] = {
    use Kind::*;
    [
        Sgkq, Sgkq, Sgkq, Sgkq, Sgkq, Sgkq, Sgkq, Sgkq, Rkq, Rkq, Rkq, Rkq, Rkq, QClass, QClass,
        QClass, TopK, TopK, TopK, TopK,
    ]
};

/// Radius strata of one `sgkq-cold` block: one default batch window.
const COLD_STRATA: usize = 16;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Sgkq,
    Rkq,
    QClass,
    TopK,
}

/// Seeded, endless query stream of one workload.
///
/// Draws are stratified in blocks — a block of 16 cold radii covers the 16
/// equal strata of [maxR/4, maxR] once each, a block of 20 mixed queries
/// holds the exact entry-point mix and half of each radius — then shuffled,
/// so each workload keeps its stated distribution while the composition of
/// a run varies less from seed to seed.
pub struct QuerySource<'a> {
    workload: Workload,
    /// The rest of the current block: (entry point, radius).
    block: Vec<(Kind, u64)>,
    gen: QueryGenerator<'a>,
    rng: StdRng,
    zipf: Zipf,
    /// Keywords that occur in the network, most frequent first.
    ranked: Vec<KeywordId>,
    max_r: u64,
}

impl<'a> QuerySource<'a> {
    pub fn new(net: &'a RoadNetwork, workload: Workload, max_r: u64, seed: u64) -> Self {
        let freq = net.keyword_frequencies();
        let mut ranked: Vec<KeywordId> =
            (0..freq.len()).filter(|&k| freq[k] > 0).map(|k| KeywordId(k as u32)).collect();
        ranked.sort_by_key(|k| (std::cmp::Reverse(freq[k.0 as usize]), k.0));
        QuerySource {
            workload,
            block: Vec::new(),
            gen: QueryGenerator::new(net, seed),
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            zipf: Zipf::new(ranked.len(), 1.0),
            ranked,
            max_r,
        }
    }

    /// `n` distinct keywords drawn Zipf(1.0) over the frequency ranking.
    fn zipf_keywords(&mut self, n: usize) -> Vec<KeywordId> {
        let mut out: Vec<KeywordId> = Vec::with_capacity(n);
        while out.len() < n {
            let k = self.ranked[self.zipf.sample(&mut self.rng)];
            if !out.contains(&k) {
                out.push(k);
            }
        }
        out
    }

    fn refill(&mut self) {
        let max_r = self.max_r;
        let rng = &mut self.rng;
        self.block = match self.workload {
            Workload::SgkqCold => {
                let span = (max_r - max_r / 4) as f64;
                (0..COLD_STRATA)
                    .map(|j| {
                        let u: f64 = rng.gen();
                        let r = max_r / 4 + ((j as f64 + u) / COLD_STRATA as f64 * span) as u64;
                        (Kind::Sgkq, r)
                    })
                    .collect()
            }
            Workload::SgkqHot => vec![(Kind::Sgkq, max_r / 2)],
            Workload::MixedSerial => {
                let mut radii: Vec<u64> = [max_r / 4, max_r / 2].repeat(MIXED_BLOCK.len() / 2);
                radii.shuffle(rng);
                MIXED_BLOCK.iter().copied().zip(radii).collect()
            }
        };
        self.block.shuffle(rng);
    }

    pub fn next_query(&mut self) -> Query {
        if self.block.is_empty() {
            self.refill();
        }
        let (kind, r) = self.block.pop().expect("refilled block is non-empty");
        match (self.workload, kind) {
            // The paper's §6 generator with 7 keywords: (keyword, radius)
            // slots essentially never repeat.
            (Workload::SgkqCold, _) => loop {
                if let Some(q) = self.gen.gen_sgkq(7, r) {
                    return Query::Sgkq(q);
                }
            },
            (_, Kind::Sgkq) => Query::Sgkq(SgkQuery::new(self.zipf_keywords(3), r)),
            (_, Kind::Rkq) => {
                // The location is an object node from the paper's generator
                // (objects are DL-indexed).
                let location = loop {
                    if let Some(q) = self.gen.gen_rkq(1, r) {
                        break q.location;
                    }
                };
                Query::Rkq(RangeKeywordQuery::new(location, self.zipf_keywords(2), r))
            }
            (_, Kind::QClass) => {
                // Near a and b, far from c: R(a,r) ∩ R(b,r) − R(c,r).
                let k = self.zipf_keywords(3);
                let f = DFunction::single(Term::Keyword(k[0]), r)
                    .then(SetOp::Intersect, Term::Keyword(k[1]), r)
                    .then(SetOp::Subtract, Term::Keyword(k[2]), r);
                Query::QClass(QClassQuery::new(f))
            }
            (_, Kind::TopK) => Query::TopK(TopKQuery::new(
                self.zipf_keywords(3),
                10,
                self.max_r / 2,
                ScoreCombine::Sum,
            )),
        }
    }
}
