//! Reusable Dijkstra toolkit.
//!
//! Every shortest-path computation in the system — NPD-index construction
//! (Alg. 1), fragment query evaluation (Alg. 2), centralized ground truth,
//! and the baselines — goes through [`DijkstraWorkspace`]. The workspace owns
//! the distance array and the heap and is reused across runs with epoch
//! stamping, so repeated searches on a large graph do not pay O(n)
//! re-initialization (a pattern recommended by the Rust perf guides for hot
//! database loops).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::Weight;
use crate::INF;

/// Minimal directed-graph abstraction used by the Dijkstra toolkit.
///
/// Implementations include [`crate::RoadNetwork`] (undirected: both arcs) and
/// the query engine's extended fragment graph (mixed directed/undirected).
pub trait Graph {
    /// Number of nodes; node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;
    /// Invoke `f(neighbor, weight)` for every outgoing arc of `node`.
    fn for_each_neighbor(&self, node: u32, f: &mut dyn FnMut(u32, Weight));
}

/// What the settle callback tells the search to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep relaxing this node's edges and continue.
    Continue,
    /// Do not relax this node's edges, but continue the search. Useful for
    /// pruned expansions (e.g. virtual keyword nodes must not be re-entered).
    SkipNeighbors,
    /// Stop the whole search now.
    Stop,
}

/// Per-run statistics, used by the Theorem 5 cost-model instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes settled (popped with their final distance).
    pub settled: usize,
    /// Heap pushes performed (relaxations that improved a distance).
    pub pushed: usize,
}

/// Largest `bound + 1` for which the Dial bucket-queue fast path is used.
///
/// Every production coverage search is bounded by its slot radius, which the
/// bench datasets keep well under this (radii are a few tens of average edge
/// lengths); a bucket costs a 4-byte head plus one occupancy bit per
/// distance unit, reused across runs, so the cap bounds the bucket arrays at
/// ~264 KiB worst case (the entry arena grows with pushes, 8 bytes each).
const DIAL_MAX_BUCKETS: u64 = 1 << 16;

/// End of a Dial bucket's entry list.
const NIL: u32 = u32::MAX;

/// The queue kernel behind a bounded search (see [`DijkstraWorkspace`]).
/// [`DijkstraWorkspace::run`] picks one from the bound alone; benchmarks
/// pit them against each other explicitly via
/// [`DijkstraWorkspace::run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dial bucket queue (`bound < 2^16`).
    Dial,
    /// Binary heap over packed `(dist << 32) | node` keys (`bound < 2^32`).
    PackedHeap,
    /// Binary heap over `(u64, u32)` tuples (any bound).
    WideHeap,
}

/// The kernel [`DijkstraWorkspace::run`] selects for `bound` —
/// deterministic and bound-only, so serial and parallel evaluations of the
/// same slot always take the same code path.
pub fn kernel_for(bound: u64) -> Kernel {
    if bound < DIAL_MAX_BUCKETS {
        Kernel::Dial
    } else if bound < (1 << 32) {
        Kernel::PackedHeap
    } else {
        Kernel::WideHeap
    }
}

/// A reusable single-source / multi-source Dijkstra workspace.
///
/// Distances are valid only for nodes whose stamp equals the current epoch;
/// `reset` is O(1) (bumps the epoch) except on epoch wrap, where it clears in
/// O(n) (happens once every ~4 billion runs).
///
/// Three kernels sit behind [`DijkstraWorkspace::run`], picked by the search
/// bound alone (so the choice is deterministic for a given slot):
///
/// * `bound < DIAL_MAX_BUCKETS`: a Dial bucket queue — O(1) decrease-key and
///   pop, no comparisons. Settles in nondecreasing distance order like the
///   heaps, but breaks equal-distance ties in bucket (LIFO) order rather
///   than node-id order, so `pushed` may differ from the heap kernels —
///   deterministically — while the settled set and distances are identical.
/// * `bound < 2^32`: a binary heap over packed `(dist << 32) | node` u64
///   keys — same pop order as the tuple heap (distance, then node id) with
///   half the key width and cheaper comparisons.
/// * otherwise (unbounded searches): the original `(u64, u32)` tuple heap.
#[derive(Debug)]
pub struct DijkstraWorkspace {
    dist: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    packed: BinaryHeap<Reverse<u64>>,
    /// Dial bucket heads indexed by distance: the arena index of the
    /// bucket's newest entry, meaningful only while its `occupied` bit is
    /// set (so no head ever needs resetting).
    head: Vec<u32>,
    /// One bit per Dial bucket, set while the bucket is non-empty; all clear
    /// between runs (the run either drains them or clears the touched words
    /// on early stop). The next non-empty bucket is a `trailing_zeros` away.
    occupied: Vec<u64>,
    /// Dial entry arena: `(node, next entry in the same bucket)`.
    entries: Vec<(u32, u32)>,
}

impl DijkstraWorkspace {
    /// Create a workspace able to address `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        DijkstraWorkspace {
            dist: vec![INF; num_nodes],
            stamp: vec![0; num_nodes],
            epoch: 0,
            heap: BinaryHeap::new(),
            packed: BinaryHeap::new(),
            head: Vec::new(),
            occupied: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Grow to accommodate `num_nodes` nodes (no-op if already large enough).
    pub fn ensure_capacity(&mut self, num_nodes: usize) {
        if self.dist.len() < num_nodes {
            self.dist.resize(num_nodes, INF);
            self.stamp.resize(num_nodes, 0);
        }
    }

    fn begin_epoch(&mut self) {
        self.heap.clear();
        self.packed.clear();
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    #[inline]
    fn current_dist(&self, node: u32) -> u64 {
        if self.stamp[node as usize] == self.epoch {
            self.dist[node as usize]
        } else {
            INF
        }
    }

    #[inline]
    fn set_dist(&mut self, node: u32, d: u64) {
        self.dist[node as usize] = d;
        self.stamp[node as usize] = self.epoch;
    }

    /// Distance computed by the **last** run for `node` (INF if untouched).
    /// Only settled nodes have final distances; unsettled stamped nodes hold
    /// tentative values that are still upper bounds.
    pub fn last_dist(&self, node: u32) -> u64 {
        self.current_dist(node)
    }

    /// Run Dijkstra from `sources` (each with an initial distance), bounded
    /// by `bound` (nodes farther than `bound` are neither settled nor
    /// reported). `on_settle(node, dist)` fires exactly once per settled node
    /// in nondecreasing distance order and steers the search via [`Control`].
    pub fn run<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: &[(u32, u64)],
        bound: u64,
        on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        self.run_with(kernel_for(bound), graph, sources, bound, on_settle)
    }

    /// [`Self::run`] with an explicitly chosen kernel — the benchmark seam
    /// for pitting the kernels against each other on identical searches.
    /// The caller owns the validity contract [`kernel_for`] encodes:
    /// `Dial` requires `bound < 2^16`, `PackedHeap` requires
    /// `bound < 2^32`.
    pub fn run_with<G: Graph + ?Sized>(
        &mut self,
        kernel: Kernel,
        graph: &G,
        sources: &[(u32, u64)],
        bound: u64,
        on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        self.ensure_capacity(graph.num_nodes());
        self.begin_epoch();
        match kernel {
            Kernel::Dial => {
                assert!(bound < DIAL_MAX_BUCKETS, "Dial needs bound < 2^16");
                self.run_dial(graph, sources, bound, on_settle)
            }
            Kernel::PackedHeap => {
                assert!(bound < (1 << 32), "PackedHeap needs bound < 2^32");
                self.run_packed(graph, sources, bound, on_settle)
            }
            Kernel::WideHeap => self.run_wide(graph, sources, bound, on_settle),
        }
    }

    /// Dial bucket-queue kernel: one bucket per distance unit, drained in
    /// order. Entries carry no distance (the bucket index is the distance);
    /// staleness is detected by comparing against the settled distance.
    /// Each bucket is a LIFO list threaded through the entry arena.
    fn run_dial<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: &[(u32, u64)],
        bound: u64,
        mut on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        let nb = bound as usize + 1;
        if self.head.len() < nb {
            self.head.resize(nb, NIL);
            self.occupied.resize(nb.div_ceil(64), 0);
        }
        self.entries.clear();
        let mut stats = SearchStats::default();
        let mut remaining = 0usize; // queued entries, stale included
        let mut lo = nb; // lowest touched bucket
        let mut hi = 0usize; // highest touched bucket
        for &(s, d0) in sources {
            if d0 <= bound && d0 < self.current_dist(s) {
                self.set_dist(s, d0);
                dial_push(&mut self.head, &mut self.occupied, &mut self.entries, d0 as usize, s);
                stats.pushed += 1;
                remaining += 1;
                lo = lo.min(d0 as usize);
                hi = hi.max(d0 as usize);
            }
        }
        let mut i = lo;
        let mut stopped = false;
        while remaining > 0 {
            // Non-negative weights mean every queued entry sits at >= i, so
            // the scan never restarts.
            let mut wi = i / 64;
            let mut word = self.occupied[wi] & (!0u64 << (i % 64));
            while word == 0 {
                wi += 1;
                word = self.occupied[wi];
            }
            i = wi * 64 + word.trailing_zeros() as usize;
            let (u, next) = self.entries[self.head[i] as usize];
            if next == NIL {
                self.occupied[wi] &= !(1u64 << (i % 64));
            } else {
                self.head[i] = next;
            }
            remaining -= 1;
            let d = i as u64;
            if d > self.current_dist(u) {
                continue; // stale entry — u settled at a smaller distance
            }
            stats.settled += 1;
            match on_settle(u, d) {
                Control::Stop => {
                    stopped = true;
                    break;
                }
                Control::SkipNeighbors => continue,
                Control::Continue => {}
            }
            // Relax in place: split borrows so the adjacency closure can
            // update the distance arrays without a temporary allocation.
            let (dist, stamp) = (&mut self.dist, &mut self.stamp);
            let (head, occupied, entries) = (&mut self.head, &mut self.occupied, &mut self.entries);
            let epoch = self.epoch;
            let pushed = &mut stats.pushed;
            graph.for_each_neighbor(u, &mut |v, w| {
                let nd = d + u64::from(w);
                if nd <= bound {
                    let vi = v as usize;
                    let cur = if stamp[vi] == epoch { dist[vi] } else { INF };
                    if nd < cur {
                        dist[vi] = nd;
                        stamp[vi] = epoch;
                        dial_push(head, occupied, entries, nd as usize, v);
                        *pushed += 1;
                        remaining += 1;
                        hi = hi.max(nd as usize);
                    }
                }
            });
        }
        // Leave every bucket empty for the next run: a completed search
        // drained them all; an early stop clears the still-touched words.
        if stopped && remaining > 0 {
            self.occupied[i / 64..=hi / 64].fill(0);
        }
        stats
    }

    /// Binary-heap kernel over packed `(dist << 32) | node` keys — valid
    /// whenever `bound < 2^32`, with pop order identical to the tuple heap.
    fn run_packed<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: &[(u32, u64)],
        bound: u64,
        mut on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        for &(s, d0) in sources {
            if d0 <= bound && d0 < self.current_dist(s) {
                self.set_dist(s, d0);
                self.packed.push(Reverse((d0 << 32) | u64::from(s)));
                stats.pushed += 1;
            }
        }
        while let Some(Reverse(key)) = self.packed.pop() {
            let (d, u) = (key >> 32, key as u32);
            if d > self.current_dist(u) {
                continue; // stale heap entry
            }
            stats.settled += 1;
            match on_settle(u, d) {
                Control::Stop => break,
                Control::SkipNeighbors => continue,
                Control::Continue => {}
            }
            let (dist, stamp, packed) = (&mut self.dist, &mut self.stamp, &mut self.packed);
            let epoch = self.epoch;
            let pushed = &mut stats.pushed;
            graph.for_each_neighbor(u, &mut |v, w| {
                let nd = d + u64::from(w);
                if nd <= bound {
                    let vi = v as usize;
                    let cur = if stamp[vi] == epoch { dist[vi] } else { INF };
                    if nd < cur {
                        dist[vi] = nd;
                        stamp[vi] = epoch;
                        packed.push(Reverse((nd << 32) | u64::from(v)));
                        *pushed += 1;
                    }
                }
            });
        }
        stats
    }

    /// Tuple-heap kernel for unbounded (or absurdly wide) searches, where
    /// distances may not fit in 32 bits.
    fn run_wide<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: &[(u32, u64)],
        bound: u64,
        mut on_settle: impl FnMut(u32, u64) -> Control,
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        for &(s, d0) in sources {
            if d0 <= bound && d0 < self.current_dist(s) {
                self.set_dist(s, d0);
                self.heap.push(Reverse((d0, s)));
                stats.pushed += 1;
            }
        }
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.current_dist(u) {
                continue; // stale heap entry
            }
            stats.settled += 1;
            match on_settle(u, d) {
                Control::Stop => break,
                Control::SkipNeighbors => continue,
                Control::Continue => {}
            }
            // Relax in place: split borrows so the adjacency closure can
            // update the distance arrays without a temporary allocation.
            let (dist, stamp, heap) = (&mut self.dist, &mut self.stamp, &mut self.heap);
            let epoch = self.epoch;
            let pushed = &mut stats.pushed;
            graph.for_each_neighbor(u, &mut |v, w| {
                let nd = d.saturating_add(u64::from(w));
                if nd <= bound {
                    let vi = v as usize;
                    let cur = if stamp[vi] == epoch { dist[vi] } else { INF };
                    if nd < cur {
                        dist[vi] = nd;
                        stamp[vi] = epoch;
                        heap.push(Reverse((nd, v)));
                        *pushed += 1;
                    }
                }
            });
        }
        stats
    }

    /// All-destinations distances from a single source, bounded by `bound`.
    /// Returns `(node, dist)` pairs for every reachable node within the
    /// bound, in nondecreasing distance order.
    pub fn distances_from<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        source: u32,
        bound: u64,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        self.run(graph, &[(source, 0)], bound, |n, d| {
            out.push((n, d));
            Control::Continue
        });
        out
    }

    /// Point-to-point distance with early termination.
    pub fn distance<G: Graph + ?Sized>(&mut self, graph: &G, source: u32, target: u32) -> u64 {
        let mut found = INF;
        self.run(graph, &[(source, 0)], INF - 1, |n, d| {
            if n == target {
                found = d;
                Control::Stop
            } else {
                Control::Continue
            }
        });
        found
    }

    /// Distance from `source` to the nearest member of `targets`.
    pub fn distance_to_any<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        source: u32,
        targets: &[u32],
    ) -> u64 {
        if targets.is_empty() {
            return INF;
        }
        let mut marks = std::collections::HashSet::with_capacity(targets.len());
        marks.extend(targets.iter().copied());
        let mut found = INF;
        self.run(graph, &[(source, 0)], INF - 1, |n, d| {
            if marks.contains(&n) {
                found = d;
                Control::Stop
            } else {
                Control::Continue
            }
        });
        found
    }

    /// Multi-source coverage: all nodes within `radius` of any source
    /// (sources seeded at distance 0). This is the direct form of the
    /// paper's *keyword coverage* when sources are the nodes containing the
    /// keyword.
    pub fn coverage<G: Graph + ?Sized>(
        &mut self,
        graph: &G,
        sources: &[u32],
        radius: u64,
    ) -> Vec<(u32, u64)> {
        let seeded: Vec<(u32, u64)> = sources.iter().map(|&s| (s, 0)).collect();
        let mut out = Vec::new();
        self.run(graph, &seeded, radius, |n, d| {
            out.push((n, d));
            Control::Continue
        });
        out
    }
}

/// Push `node` onto Dial bucket `b` (LIFO: it becomes the bucket's head).
#[inline]
fn dial_push(
    head: &mut [u32],
    occupied: &mut [u64],
    entries: &mut Vec<(u32, u32)>,
    b: usize,
    node: u32,
) {
    let bit = 1u64 << (b % 64);
    let next = if occupied[b / 64] & bit != 0 { head[b] } else { NIL };
    occupied[b / 64] |= bit;
    head[b] = entries.len() as u32;
    entries.push((node, next));
}

/// Dijkstra with predecessor tracking, for extracting actual shortest paths.
/// Kept separate from [`DijkstraWorkspace`] because predecessor arrays are
/// only needed in tests, diagnostics and the generator.
pub fn shortest_path<G: Graph + ?Sized>(
    graph: &G,
    source: u32,
    target: u32,
) -> Option<(Vec<u32>, u64)> {
    let n = graph.num_nodes();
    let mut dist = vec![INF; n];
    let mut pred = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == target {
            break;
        }
        let mut relaxed = Vec::new();
        graph.for_each_neighbor(u, &mut |v, w| {
            relaxed.push((v, d.saturating_add(u64::from(w))));
        });
        for (v, nd) in relaxed {
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                pred[v as usize] = u;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    if dist[target as usize] == INF {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = pred[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some((path, dist[target as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure1_network;

    #[test]
    fn figure1_distances_match_paper() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Paper Example 1 geometry: B and E are within 3 of both "museum"
        // (node D) and "school" (node A), while A, C, D are not.
        let d_a = |t: &str, ws: &mut DijkstraWorkspace| ws.distance(&g, names["A"].0, names[t].0);
        assert_eq!(d_a("B", &mut ws), 2);
        assert_eq!(d_a("E", &mut ws), 1);
        assert_eq!(d_a("D", &mut ws), 4);
        assert_eq!(d_a("C", &mut ws), 4);
        let d_d = |t: &str, ws: &mut DijkstraWorkspace| ws.distance(&g, names["D"].0, names[t].0);
        assert_eq!(d_d("B", &mut ws), 2);
        assert_eq!(d_d("E", &mut ws), 3);
        assert_eq!(d_d("C", &mut ws), 4);
    }

    #[test]
    fn bounded_search_respects_radius() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let within_2: Vec<u32> =
            ws.distances_from(&g, names["A"].0, 2).into_iter().map(|(n, _)| n).collect();
        // A(0), E(1), B(2) — D is at 3, C at 4.
        assert_eq!(within_2.len(), 3);
        assert!(within_2.contains(&names["A"].0));
        assert!(within_2.contains(&names["E"].0));
        assert!(within_2.contains(&names["B"].0));
    }

    #[test]
    fn settle_order_is_nondecreasing() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut last = 0u64;
        ws.run(&g, &[(names["A"].0, 0)], INF - 1, |_, d| {
            assert!(d >= last);
            last = d;
            Control::Continue
        });
    }

    #[test]
    fn multi_source_coverage_matches_definition() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Coverage of {A, D} (school ∪ museum sources) with radius 1:
        // A(0), D(0), E(1 via A).
        let cov = ws.coverage(&g, &[names["A"].0, names["D"].0], 1);
        let nodes: std::collections::HashSet<u32> = cov.iter().map(|&(n, _)| n).collect();
        assert_eq!(nodes, [names["A"].0, names["D"].0, names["E"].0].into_iter().collect());
    }

    #[test]
    fn workspace_reuse_across_epochs_is_correct() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        for _ in 0..100 {
            assert_eq!(ws.distance(&g, names["A"].0, names["C"].0), 4);
            assert_eq!(ws.distance(&g, names["C"].0, names["A"].0), 4);
        }
    }

    #[test]
    fn stop_control_halts_search() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut settled = 0;
        ws.run(&g, &[(names["A"].0, 0)], INF - 1, |_, _| {
            settled += 1;
            Control::Stop
        });
        assert_eq!(settled, 1);
    }

    #[test]
    fn skip_neighbors_prunes_expansion() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Refuse to expand anything: only sources get settled.
        let mut settled = Vec::new();
        ws.run(&g, &[(names["A"].0, 0), (names["D"].0, 0)], INF - 1, |n, _| {
            settled.push(n);
            Control::SkipNeighbors
        });
        settled.sort_unstable();
        let mut expect = vec![names["A"].0, names["D"].0];
        expect.sort_unstable();
        assert_eq!(settled, expect);
    }

    #[test]
    fn distance_to_any_picks_nearest_target() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let d = ws.distance_to_any(&g, names["E"].0, &[names["C"].0, names["B"].0]);
        // E→B = E→A→B(3) or E→D→B(3); C is farther.
        assert_eq!(d, 3);
        assert_eq!(ws.distance_to_any(&g, names["E"].0, &[]), INF);
    }

    #[test]
    fn unreachable_distance_is_inf() {
        use crate::graph::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &[]);
        let y = b.add_node(1.0, 0.0, &[]);
        let z = b.add_node(9.0, 9.0, &[]);
        b.add_edge(x, y, 1).unwrap();
        let g = b.build().unwrap();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(ws.distance(&g, x.0, z.0), INF);
    }

    #[test]
    fn shortest_path_extraction() {
        let (g, names) = figure1_network();
        let (path, d) = shortest_path(&g, names["A"].0, names["C"].0).unwrap();
        assert_eq!(d, 4);
        assert_eq!(path, vec![names["A"].0, names["B"].0, names["C"].0]);
        assert!(shortest_path(&g, names["A"].0, names["A"].0).is_some());
    }

    #[test]
    fn stats_count_settles_and_pushes() {
        let (g, names) = figure1_network();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let stats = ws.run(&g, &[(names["A"].0, 0)], INF - 1, |_, _| Control::Continue);
        assert_eq!(stats.settled, 5);
        assert!(stats.pushed >= 5);
    }

    /// Collect the settled (node, dist) set for one bound on one kernel by
    /// forcing the dispatch with an artificial bound.
    fn settled_at_bound(
        ws: &mut DijkstraWorkspace,
        g: &impl Graph,
        sources: &[(u32, u64)],
        bound: u64,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        ws.run(g, sources, bound, |n, d| {
            out.push((n, d));
            Control::Continue
        });
        out.sort_unstable();
        out
    }

    /// A deterministic pseudo-random sparse graph large enough that the
    /// three kernels genuinely diverge in traversal order.
    fn lcg_network(nodes: usize, edges: usize) -> crate::RoadNetwork {
        use crate::graph::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let ids: Vec<_> = (0..nodes).map(|i| b.add_node(i as f32, 0.0, &[])).collect();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut added = 0;
        while added < edges {
            let u = (next() as usize) % nodes;
            let v = (next() as usize) % nodes;
            let w = (next() % 50 + 1) as u32;
            if u != v && b.add_edge(ids[u], ids[v], w).is_ok() {
                added += 1;
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn dial_packed_and_wide_kernels_agree_on_settled_sets() {
        let g = lcg_network(200, 600);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let sources = [(0u32, 0u64), (17, 3), (42, 11)];
        for bound in [0u64, 1, 7, 40, 200, 1000] {
            // `bound` < DIAL_MAX_BUCKETS dispatches to the Dial kernel; the
            // heap kernels are reached through private entry points here so
            // the same bound exercises all three.
            ws.begin_epoch();
            let dial = {
                let mut out = Vec::new();
                ws.ensure_capacity(g.num_nodes());
                ws.run_dial(&g, &sources, bound, |n, d| {
                    out.push((n, d));
                    Control::Continue
                });
                out.sort_unstable();
                out
            };
            ws.begin_epoch();
            let packed = {
                let mut out = Vec::new();
                ws.run_packed(&g, &sources, bound, |n, d| {
                    out.push((n, d));
                    Control::Continue
                });
                out.sort_unstable();
                out
            };
            ws.begin_epoch();
            let wide = {
                let mut out = Vec::new();
                ws.run_wide(&g, &sources, bound, |n, d| {
                    out.push((n, d));
                    Control::Continue
                });
                out.sort_unstable();
                out
            };
            assert_eq!(dial, packed, "dial vs packed at bound {bound}");
            assert_eq!(packed, wide, "packed vs wide at bound {bound}");
        }
    }

    #[test]
    fn packed_heap_matches_wide_heap_pushed_exactly() {
        // The packed key orders by (dist, node) exactly like the tuple heap,
        // so even tie-dependent stats must match between the two heap paths.
        let g = lcg_network(150, 400);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        for bound in [5u64, 33, 250, 4000] {
            ws.begin_epoch();
            let p = ws.run_packed(&g, &[(3, 0), (99, 2)], bound, |_, _| Control::Continue);
            ws.begin_epoch();
            let w = ws.run_wide(&g, &[(3, 0), (99, 2)], bound, |_, _| Control::Continue);
            assert_eq!(p, w, "packed vs wide stats at bound {bound}");
        }
    }

    #[test]
    fn dial_early_stop_leaves_workspace_clean() {
        let g = lcg_network(100, 300);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Stop mid-search (Dial path), then verify a fresh bounded run still
        // produces the exact settled set — stale bucket entries would
        // corrupt it.
        let mut seen = 0;
        ws.run(&g, &[(0, 0)], 500, |_, _| {
            seen += 1;
            if seen == 3 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        let after = settled_at_bound(&mut ws, &g, &[(0, 0)], 120);
        ws.begin_epoch();
        let mut reference = Vec::new();
        ws.run_wide(&g, &[(0, 0)], 120, |n, d| {
            reference.push((n, d));
            Control::Continue
        });
        reference.sort_unstable();
        assert_eq!(after, reference);
    }

    /// The per-bucket `Vec<u32>` Dial queue the arena layout replaced: a
    /// reference for the exact settle sequence and stats.
    fn vec_bucket_dial(
        g: &impl Graph,
        sources: &[(u32, u64)],
        bound: u64,
    ) -> (Vec<(u32, u64)>, SearchStats) {
        let mut dist = vec![INF; g.num_nodes()];
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); bound as usize + 1];
        let mut stats = SearchStats::default();
        for &(s, d0) in sources {
            if d0 <= bound && d0 < dist[s as usize] {
                dist[s as usize] = d0;
                buckets[d0 as usize].push(s);
                stats.pushed += 1;
            }
        }
        let mut order = Vec::new();
        for i in 0..buckets.len() {
            while let Some(u) = buckets[i].pop() {
                let d = i as u64;
                if d > dist[u as usize] {
                    continue;
                }
                stats.settled += 1;
                order.push((u, d));
                g.for_each_neighbor(u, &mut |v, w| {
                    let nd = d + u64::from(w);
                    if nd <= bound && nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        buckets[nd as usize].push(v);
                        stats.pushed += 1;
                    }
                });
            }
        }
        (order, stats)
    }

    #[test]
    fn dial_arena_keeps_the_vec_bucket_settle_order_and_stats() {
        let g = lcg_network(300, 900);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let sources = [(0u32, 0u64), (17, 3), (42, 11), (99, 64), (150, 200)];
        for bound in [0u64, 1, 63, 64, 65, 127, 400, 3000, 65_535] {
            let mut order = Vec::new();
            let stats = ws.run(&g, &sources, bound, |n, d| {
                order.push((n, d));
                Control::Continue
            });
            assert_eq!(kernel_for(bound), Kernel::Dial);
            assert_eq!((order, stats), vec_bucket_dial(&g, &sources, bound), "bound {bound}");
        }
    }

    #[test]
    fn kernel_choice_compares_the_bound_as_u64() {
        assert_eq!(kernel_for(DIAL_MAX_BUCKETS - 1), Kernel::Dial);
        assert_eq!(kernel_for(DIAL_MAX_BUCKETS), Kernel::PackedHeap);
        // Truncated to 32 bits, 2^32 would read as 0 and pick Dial.
        assert_eq!(kernel_for(1 << 32), Kernel::WideHeap);
        assert_eq!(kernel_for((1 << 32) + 5), Kernel::WideHeap);
    }

    #[test]
    fn dial_settle_order_is_nondecreasing() {
        let g = lcg_network(120, 350);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut last = 0u64;
        ws.run(&g, &[(0, 0), (60, 5)], 800, |_, d| {
            assert!(d >= last, "settle order regressed: {d} after {last}");
            last = d;
            Control::Continue
        });
    }
}
