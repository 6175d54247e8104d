//! The repository's canonical benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sgkq-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Builds the paper-scale AUS preset (16 fragments from the default
//! `MultilevelPartitioner`, maxR = 40ē), hosts it on 2 worker machines over
//! the channel transport, drives one workload from one closed-loop client
//! thread, checks every answer against the centralized oracle, and prints
//! every metric with its unit. The last stdout line is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! A traced run first repeats the untraced run, then runs a fixed number
//! of queries again on a fresh cluster with spans around each call and a
//! replay of every query through the plan, engine and message layers.
//! See `README.md` for the workloads and the layer → metric map.

mod oracle;
mod replay;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use disks_bench::datasets::{self, DatasetId, Scale};
use disks_cluster::{Cluster, ClusterConfig, QueryStats, TransportKind};
use disks_core::{build_all_indexes, IndexConfig, NpdIndex, QueryError};
use disks_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use disks_roadnet::RoadNetwork;

use oracle::Answer;
use replay::Replay;
use trace::{Tracer, NO_QUERY};
use workload::{Query, QuerySource, Workload};

/// Table 2 defaults: 16 fragments, maxR = 40ē.
const FRAGMENTS: usize = 16;
const MAX_R_FACTOR: u64 = 40;
/// Worker machines hosting the 16 fragments (§5.2 fewer-machines schedule).
const MACHINES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Mixed into the seed of the warm-up stream, so warm-up and measurement
/// never draw the same queries.
const WARMUP_SEED: u64 = 0x5741_524D_5550;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Paper;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "paper" => Scale::Paper,
                    "smoke" => Scale::Smoke,
                    _ => return Err("--scale takes paper or smoke".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

/// The data and indexes of one set-up, plus its stage times.
struct Setup {
    net: RoadNetwork,
    part: Partitioning,
    indexes: Vec<NpdIndex>,
    max_r: u64,
    partition_s: f64,
    index_s: f64,
    total_s: f64,
}

/// Generate, partition, index and start the cluster. `setup_s` sums the
/// four stages; cloning the indexes kept for the replays is not timed.
fn setup(scale: Scale, cfg: &ClusterConfig, tr: &mut Tracer) -> (Setup, Cluster) {
    let root = tr.begin("setup", NO_QUERY);
    let t = Instant::now();
    let s = tr.begin("setup.generate", NO_QUERY);
    let ds = datasets::load(DatasetId::Aus, scale);
    tr.end(s);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let s = tr.begin("setup.partition", NO_QUERY);
    let part = MultilevelPartitioner::default().partition(&ds.net, FRAGMENTS);
    tr.end(s);
    let partition_s = t.elapsed().as_secs_f64();

    let max_r = MAX_R_FACTOR * ds.net.avg_edge_weight();
    let t = Instant::now();
    let s = tr.begin("setup.index", NO_QUERY);
    let indexes = build_all_indexes(&ds.net, &part, &IndexConfig::with_max_r(max_r));
    tr.end(s);
    let index_s = t.elapsed().as_secs_f64();

    let kept = indexes.clone();
    let t = Instant::now();
    let s = tr.begin("setup.cluster", NO_QUERY);
    let cluster = Cluster::build(&ds.net, &part, indexes, cfg.clone());
    tr.end(s);
    let cluster_s = t.elapsed().as_secs_f64();
    tr.end(root);
    let total_s = generate_s + partition_s + index_s + cluster_s;
    let setup = Setup { net: ds.net, part, indexes: kept, max_r, partition_s, index_s, total_s };
    (setup, cluster)
}

/// Aggregates of the cluster's own per-query statistics.
#[derive(Debug, Default, Clone)]
struct Agg {
    n: u64,
    settled: u64,
    alpha: u64,
    beta: u64,
    c2w: u64,
    w2c: u64,
    hits: u64,
    misses: u64,
    bypassed: u64,
    evictions: u64,
    results: u64,
    coverage_nodes: u64,
    retries: u64,
    compute_us: f64,
    slowest_us: f64,
    wait_us: f64,
    latency_us: f64,
    unbalance: f64,
}

impl Agg {
    fn add(&mut self, st: &QueryStats, latency_us: f64) {
        self.n += 1;
        for m in &st.per_machine {
            self.settled += m.settled;
            self.alpha += m.alpha;
            self.beta += m.beta;
            self.results += m.results;
            self.coverage_nodes += m.coverage_nodes;
            self.compute_us += m.compute.as_secs_f64() * 1e6;
        }
        self.c2w += st.coordinator_to_worker_bytes;
        self.w2c += st.worker_to_coordinator_bytes;
        self.hits += st.cache_hits;
        self.misses += st.cache_misses;
        self.bypassed += st.cache_bypassed;
        self.evictions += st.cache_evictions;
        self.retries += st.retries as u64;
        let slowest = st.slowest_task.as_secs_f64() * 1e6;
        self.slowest_us += slowest;
        self.wait_us += (latency_us - slowest).max(0.0);
        self.latency_us += latency_us;
        self.unbalance += st.unbalance_factor;
    }

    fn per_query(&self, x: f64) -> f64 {
        x / self.n.max(1) as f64
    }

    fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses.saturating_sub(self.bypassed);
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The per-query counts that must repeat exactly between the timed and the
/// traced run of one seed.
const COUNT_NAMES: [&str; 7] =
    ["settled", "alpha", "beta", "c2w_bytes", "w2c_bytes", "cache_hits", "cache_misses"];

fn counts_of(st: &QueryStats) -> [u64; 7] {
    let sum = |f: fn(&disks_cluster::MachineCost) -> u64| st.per_machine.iter().map(f).sum();
    [
        sum(|m| m.settled),
        sum(|m| m.alpha),
        sum(|m| m.beta),
        st.coordinator_to_worker_bytes,
        st.worker_to_coordinator_bytes,
        st.cache_hits,
        st.cache_misses,
    ]
}

/// One closed-loop pass of a workload.
#[derive(Default)]
struct Pass {
    /// (client-timed wall time in s, queries) of every round, in order; a
    /// query's latency is its round's wall time.
    rounds: Vec<(f64, usize)>,
    /// Sum of the client-timed calls: the measured phase.
    measured_s: f64,
    attempted: u64,
    errors: u64,
    degraded: u64,
    first_error: Option<QueryError>,
    /// Answered queries, kept for the oracle.
    answers: Vec<(Query, Answer)>,
    /// Per-query counts of the first `keep_counts` queries.
    counts: Vec<[u64; 7]>,
    kinds: BTreeMap<&'static str, u64>,
    agg: Agg,
}

/// A query's answer and statistics, or its error.
type Outcome = Result<(Answer, QueryStats), QueryError>;

enum Stop {
    Seconds(f64),
    Queries(u64),
}

fn run_pass(
    cluster: &Cluster,
    src: &mut QuerySource,
    w: Workload,
    stop: Stop,
    keep_counts: usize,
    tr: &mut Tracer,
    mut replay: Option<&mut Replay>,
) -> Pass {
    let mut pass = Pass::default();
    loop {
        let done = match stop {
            Stop::Seconds(s) => pass.measured_s >= s,
            Stop::Queries(n) => pass.attempted >= n,
        };
        if done {
            break;
        }
        let round: Vec<Query> = (0..w.outstanding()).map(|_| src.next_query()).collect();
        let base = pass.attempted;
        let span = tr.begin("query", base);
        let (outs, latency): (Vec<Outcome>, Duration) = if w.outstanding() > 1 {
            let fs: Vec<_> = round
                .iter()
                .map(|q| q.dfunction().expect("stream workloads are coverage queries"))
                .collect();
            let ((res, _), latency) = timed(|| cluster.run_stream(&fs));
            let outs = res
                .into_iter()
                .map(|r| r.map(|o| (Answer::of_nodes(&o.results), o.stats)))
                .collect();
            (outs, latency)
        } else {
            let nodes = |r: Result<disks_cluster::QueryOutcome, QueryError>| {
                r.map(|o| (Answer::of_nodes(&o.results), o.stats))
            };
            let (out, latency) = match &round[0] {
                Query::Sgkq(q) => {
                    let f = q.to_dfunction();
                    let (r, latency) = timed(|| cluster.run(&f));
                    (nodes(r), latency)
                }
                Query::Rkq(q) => {
                    let (r, latency) = timed(|| cluster.run_rkq(q));
                    (nodes(r), latency)
                }
                Query::QClass(q) => {
                    let (r, latency) = timed(|| cluster.run_qclass(q));
                    (nodes(r), latency)
                }
                Query::TopK(q) => {
                    let (r, latency) = timed(|| cluster.run_topk(q));
                    (r.map(|(ranked, stats)| (Answer::Ranked(ranked), stats)), latency)
                }
            };
            (vec![out], latency)
        };
        let latency_us = latency.as_secs_f64() * 1e6;
        pass.measured_s += latency.as_secs_f64();
        pass.rounds.push((latency.as_secs_f64(), round.len()));
        for (q, out) in round.into_iter().zip(outs) {
            let qid = pass.attempted;
            pass.attempted += 1;
            *pass.kinds.entry(q.kind()).or_default() += 1;
            match out {
                Err(e) => {
                    pass.errors += 1;
                    pass.first_error.get_or_insert(e);
                }
                Ok((answer, stats)) => {
                    if !stats.degraded_fragments.is_empty() {
                        pass.degraded += 1;
                        continue;
                    }
                    if pass.counts.len() < keep_counts {
                        pass.counts.push(counts_of(&stats));
                    }
                    pass.agg.add(&stats, latency_us);
                    if let Some(r) = replay.as_deref_mut() {
                        r.replay(tr, qid, &q, &answer);
                    }
                    pass.answers.push((q, answer));
                }
            }
        }
        tr.end(span);
    }
    pass
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Warm up on a stream drawn from `seed ^ WARMUP_SEED`, then run the
/// measured pass on the stream drawn from `seed`. A run with a replay is the
/// traced run: its measured pass records spans.
fn drive(
    s: &Setup,
    cluster: &Cluster,
    w: Workload,
    seed: u64,
    stop: Stop,
    tr: &mut Tracer,
    mut replay: Option<&mut Replay>,
) -> Result<Pass, String> {
    tr.set_enabled(false);
    let mut warm = QuerySource::new(&s.net, w, s.max_r, seed ^ WARMUP_SEED);
    let wp = run_pass(
        cluster,
        &mut warm,
        w,
        Stop::Queries(w.warmup_queries() as u64),
        0,
        tr,
        replay.as_deref_mut(),
    );
    if wp.errors + wp.degraded > 0 {
        return Err(format!(
            "warm-up: {} errors, {} degraded; first error {:?}",
            wp.errors, wp.degraded, wp.first_error
        ));
    }
    if let Some(r) = replay.as_deref_mut() {
        if r.counts.mismatches > 0 {
            return Err(format!("warm-up: {} replayed answers differ", r.counts.mismatches));
        }
        r.reset_counts();
    }
    let mut src = QuerySource::new(&s.net, w, s.max_r, seed);
    tr.set_enabled(replay.is_some());
    let pass = run_pass(cluster, &mut src, w, stop, w.traced_queries(), tr, replay);
    tr.set_enabled(false);
    Ok(pass)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample, with the number of
/// samples above it.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Fifths the measured phase is cut into for `latency_p99_ms`: the p99 of
/// each fifth, median over the fifths, so one burst of interference from
/// outside the program moves at most a minority of them.
const P99_SEGMENTS: usize = 5;

/// End-to-end figures of one pass.
struct E2e {
    failed: u64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    /// Fewest samples beyond p99 in any segment.
    beyond_p99: usize,
}

fn e2e(pass: &Pass, mismatches: u64) -> E2e {
    let failed = pass.errors + pass.degraded + mismatches;
    let ok = pass.attempted - failed.min(pass.attempted);
    let latencies = |rounds: &[(f64, usize)]| {
        let mut lat: Vec<f64> =
            rounds.iter().flat_map(|&(l, n)| std::iter::repeat_n(l, n)).collect();
        lat.sort_by(f64::total_cmp);
        lat
    };
    let lat = latencies(&pass.rounds);
    let mut p99s = Vec::new();
    let mut beyond_p99 = usize::MAX;
    let (mut from, mut elapsed) = (0, 0.0);
    for (i, &(l, _)) in pass.rounds.iter().enumerate() {
        elapsed += l;
        let boundary = pass.measured_s * (p99s.len() + 1) as f64 / P99_SEGMENTS as f64;
        if elapsed >= boundary || i + 1 == pass.rounds.len() {
            let (p99, beyond) = percentile(&latencies(&pass.rounds[from..=i]), 0.99);
            p99s.push(p99);
            beyond_p99 = beyond_p99.min(beyond);
            from = i + 1;
        }
    }
    E2e {
        failed,
        qps: ok as f64 / pass.measured_s.max(1e-9),
        p50_ms: percentile(&lat, 0.50).0 * 1e3,
        p99_ms: median(p99s) * 1e3,
        samples: lat.len(),
        beyond_p99: if beyond_p99 == usize::MAX { 0 } else { beyond_p99 },
    }
}

/// High-water resident set of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo")
        .to_path_buf()
}

/// The git revision when the sources are a git checkout, else `null`.
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "null".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("null".into(), |o| format!("\"{}\"", String::from_utf8_lossy(&o.stdout).trim()))
}

/// FNV-1a digest of the program's sources (the crates, the root package
/// and the vendored dependencies), identifying the code measured even in a
/// checkout without git metadata.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for d in ["crates", "src", "third_party"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for x in metrics {
        println!("metric {} = {} {}", x.name, json_number(x.value), x.unit);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sgkq-cold|sgkq-hot|mixed-serial> --seed <n> \
                 --seconds <s> --trace <0|1> [--scale <paper|smoke>]"
            );
            std::process::exit(2);
        }
    };
    // Environment knobs silently change `ClusterConfig::default()`; a figure
    // taken under one would measure a different program.
    let mut knobs: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("DISKS_"))
        .collect();
    if !knobs.is_empty() {
        knobs.sort();
        eprintln!("perfbench: refusing to run with {} set", knobs.join(", "));
        std::process::exit(2);
    }
    let cfg = ClusterConfig {
        machines: Some(MACHINES),
        transport: TransportKind::Channel,
        ..ClusterConfig::default()
    };
    println!("config {cfg:?}");
    std::process::exit(run(&args, &cfg));
}

fn run(args: &Args, cfg: &ClusterConfig) -> i32 {
    let w = args.workload;
    let started = Instant::now();
    let mut tr = Tracer::new(args.trace);
    let mut setups: Vec<(f64, f64, f64)> = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take()); // shut the previous cluster down first
        let (s, c) = setup(args.scale, cfg, &mut tr);
        setups.push((s.total_s, s.partition_s, s.index_s));
        last = Some((s, c));
    }
    let (s, cluster) = last.expect("at least one set-up");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let timed = match drive(&s, &cluster, w, args.seed, Stop::Seconds(args.seconds), &mut tr, None)
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let rss_mb = peak_rss_mb();
    drop(cluster);
    let measured_at = started.elapsed().as_secs_f64();
    let check = oracle::sample(&timed.answers);
    let bad = oracle::mismatches(&s.net, &timed.answers, &check, threads);
    let checked_at = started.elapsed().as_secs_f64();
    let t = e2e(&timed, bad.len() as u64);

    let index_bytes: usize = s.indexes.iter().map(|i| i.stats().encoded_bytes).sum();
    let setup_s = median(setups.iter().map(|x| x.0).collect());

    let rev = git_rev(&repo_root());
    let header = format!(
        "{{\"rev\": {rev}, \"src_digest\": \"{:016x}\", \"host_cores\": {threads}, \
         \"dataset\": \"AUS\", \"scale\": \"{}\", \"nodes\": {}, \"edges\": {}, \
         \"fragments\": {FRAGMENTS}, \"machines\": {MACHINES}, \"max_r\": {}, \
         \"workload\": \"{}\", \"outstanding\": {}, \"queries\": {}, \"traced_queries\": {}, \
         \"query_seed\": {}, \"seconds\": {}, \"traced\": {}}}",
        source_digest(&repo_root()),
        if args.scale == Scale::Paper { "paper" } else { "smoke" },
        s.net.num_nodes(),
        s.net.num_edges(),
        s.max_r,
        w.name(),
        w.outstanding(),
        timed.attempted,
        if args.trace { w.traced_queries() } else { 0 },
        args.seed,
        args.seconds,
        args.trace
    );
    println!("header {header}");
    println!(
        "run workload={} queries={} kinds={:?} measured_s={:.3} latency_samples={} \
         beyond_p99_per_fifth>={} oracle_checked={} of {} answers (all coverage answers, every {}th top-k \
         answer)",
        w.name(),
        timed.attempted,
        timed.kinds,
        timed.measured_s,
        t.samples,
        t.beyond_p99,
        check.len(),
        timed.answers.len(),
        oracle::TOPK_SAMPLE
    );
    if let Some(e) = &timed.first_error {
        println!("first error: {e:?}");
    }
    for &i in bad.iter().take(5) {
        println!("oracle mismatch: query {:?}", timed.answers[i].0);
    }
    let failed_frac = ratio(t.failed as f64, timed.attempted as f64);
    let e2e_metrics = vec![
        m("qps", t.qps, "1/s"),
        m("latency_p50_ms", t.p50_ms, "ms"),
        m("latency_p99_ms", t.p99_ms, "ms"),
        m("setup_s", setup_s, "s"),
        m("index_mb", index_bytes as f64 / 1e6, "MB"),
        m("peak_rss_mb", rss_mb, "MB"),
    ];
    print_metrics("end-to-end (untraced)", &e2e_metrics);
    println!("metric failed_frac = {} fraction", json_number(failed_frac));
    let mut correct = bad.is_empty();

    let mut reported = e2e_metrics;
    if args.trace {
        let cluster = Cluster::build(&s.net, &s.part, s.indexes.clone(), cfg.clone());
        let mut replay = Replay::new(&s.net, &s.part, &s.indexes);
        let stop = Stop::Queries(w.traced_queries() as u64);
        let tp = match drive(&s, &cluster, w, args.seed, stop, &mut tr, Some(&mut replay)) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: traced run: {e}");
                return 1;
            }
        };
        drop(cluster);
        let (layers, ok) = traced_report(args, &s, &setups, &timed, &t, &tp, &replay, &tr);
        correct &= ok;
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        match tr.write_jsonl(&path, &header) {
            Ok(()) => println!("spans {} written to {}", tr.spans().len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return 1;
            }
        }
        reported = layers;
    }

    println!(
        "wall clock: set-up and measured run {measured_at:.1} s, oracle {:.1} s, total {:.1} s",
        checked_at - measured_at,
        started.elapsed().as_secs_f64()
    );
    let metrics: Vec<String> = reported
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        timed.attempted,
        t.failed,
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Print the traced run's report; returns the per-layer metrics and
/// whether its answers and counts agree with the untraced run.
#[allow(clippy::too_many_arguments)]
fn traced_report(
    args: &Args,
    s: &Setup,
    setups: &[(f64, f64, f64)],
    timed: &Pass,
    t: &E2e,
    tp: &Pass,
    replay: &Replay,
    tr: &Tracer,
) -> (Vec<Metric>, bool) {
    let w = args.workload;
    let rc = &replay.counts;
    let a = &tp.agg;
    let mut ok = true;

    // Exact-count identity between the untraced and the traced run.
    let n = timed.counts.len().min(tp.counts.len());
    let same_counts = timed.counts[..n] == tp.counts[..n];
    let na = timed.answers.len().min(tp.answers.len()).min(n);
    let same_answers = timed.answers[..na].iter().zip(&tp.answers[..na]).all(|(x, y)| x.1 == y.1);
    println!(
        "identity over the first {n} queries: counts {} answers {}",
        if same_counts { "identical" } else { "DIFFER" },
        if same_answers { "identical" } else { "DIFFER" }
    );
    ok &= same_counts && same_answers && tp.errors + tp.degraded == 0 && rc.mismatches == 0;
    let totals: Vec<u64> =
        (0..COUNT_NAMES.len()).map(|i| tp.counts.iter().map(|c| c[i]).sum()).collect();
    for (name, v) in COUNT_NAMES.iter().zip(&totals) {
        println!("count {name} = {v} over {} queries", tp.counts.len());
    }
    println!("replay mismatches = {}", rc.mismatches);

    // Self time per span name.
    let st = tr.self_times();
    let self_us = |name: &str| st.get(name).map_or(0.0, |x| x.2);
    println!("self-times (span: count, total ms, self ms)");
    for (name, (count, total, own)) in &st {
        println!("self {name}: {count} {:.3} {:.3}", total / 1e3, own / 1e3);
    }

    // Tracing overhead: traced minus untraced end-to-end figures.
    let tt = e2e(tp, 0);
    println!(
        "tracing overhead: qps {:+.3} 1/s ({:+.2}%), latency_p50_ms {:+.4}, latency_p99_ms {:+.4} \
         (traced {} queries vs untraced {})",
        tt.qps - t.qps,
        100.0 * ratio(tt.qps - t.qps, t.qps),
        tt.p50_ms - t.p50_ms,
        tt.p99_ms - t.p99_ms,
        tp.attempted,
        timed.attempted
    );

    let portals: usize = s.part.fragment_ids().map(|f| s.part.portals(f).len()).sum();
    let stats: Vec<_> = s.indexes.iter().map(|i| i.stats()).collect();
    let busy_share = ratio(a.compute_us, MACHINES as f64 * tp.measured_s * 1e6);
    let wait_share = ratio(a.wait_us, a.latency_us);
    let metrics = vec![
        m("roadnet.settled_per_query", a.per_query(a.settled as f64), "count"),
        m("roadnet.pushed_per_slot", ratio(rc.pushed as f64, rc.slots_computed as f64), "count"),
        m("partition.time_s", median(setups.iter().map(|x| x.1).collect()), "s"),
        m("partition.cut_edges", s.part.cut_edges() as f64, "count"),
        m("partition.portals", portals as f64, "count"),
        m("core.index.build_s", median(setups.iter().map(|x| x.2).collect()), "s"),
        m("core.index.bytes", stats.iter().map(|x| x.encoded_bytes).sum::<usize>() as f64, "B"),
        m("core.index.shortcuts", stats.iter().map(|x| x.shortcuts).sum::<usize>() as f64, "count"),
        m("core.index.dl_pairs", stats.iter().map(|x| x.dl_pairs).sum::<usize>() as f64, "count"),
        m("core.plan.lower_us_per_query", ratio(self_us("core.plan.lower"), rc.plans as f64), "us"),
        m("core.plan.slots_per_query", ratio(rc.plan_slots as f64, rc.plans as f64), "count"),
        m(
            "core.plan.dedup_ratio",
            ratio(rc.window_distinct as f64, rc.window_slots as f64),
            "ratio",
        ),
        m(
            "core.engine.coverage_us_per_slot",
            ratio(self_us("core.engine.coverage"), rc.slots_computed as f64),
            "us",
        ),
        m("core.engine.alpha_per_query", a.per_query(a.alpha as f64), "count"),
        m(
            "core.engine.combine_us_per_query",
            ratio(self_us("core.engine.combine"), rc.combined as f64),
            "us",
        ),
        m(
            "core.engine.result_per_coverage",
            ratio(a.results as f64, a.coverage_nodes as f64),
            "ratio",
        ),
        m(
            "core.engine.topk_us_per_query",
            ratio(self_us("core.engine.topk_local"), rc.topk as f64),
            "us",
        ),
        m("cluster.cache.hit_rate", a.hit_rate(), "ratio"),
        m("cluster.cache.evictions_per_query", a.per_query(a.evictions as f64), "count"),
        m("cluster.message.c2w_bytes_per_query", a.per_query(a.c2w as f64), "B"),
        m("cluster.message.w2c_bytes_per_query", a.per_query(a.w2c as f64), "B"),
        m(
            "cluster.message.codec_us_per_query",
            ratio(
                self_us("cluster.message.encode") + self_us("cluster.message.decode"),
                rc.queries as f64,
            ),
            "us",
        ),
        m("cluster.worker.compute_us_per_query", a.per_query(a.compute_us), "us"),
        m("cluster.worker.slowest_us_per_query", a.per_query(a.slowest_us), "us"),
        m("cluster.worker.unbalance_u", a.per_query(a.unbalance), "ratio"),
        m("cluster.worker.busy_share", busy_share, "ratio"),
        m("cluster.wait_us_per_query", a.per_query(a.wait_us), "us"),
        m("cluster.wait_share", wait_share, "ratio"),
        m("cluster.retries_per_query", a.per_query(a.retries as f64), "count"),
    ];
    print_metrics("per-layer (traced)", &metrics);

    // The layer separation each stream workload is designed for.
    let check = |what: &str, pass: bool| {
        println!(
            "separation {}: {what}: {}",
            w.name(),
            if pass { "holds" } else { "DOES NOT HOLD" }
        )
    };
    match w {
        Workload::SgkqCold => {
            check("cluster.cache.hit_rate <= 0.05", a.hit_rate() <= 0.05);
            check("worker compute is the majority of wall time", busy_share > 0.5);
        }
        Workload::SgkqHot => {
            check("cluster.cache.hit_rate >= 0.95", a.hit_rate() >= 0.95);
            check("cluster.wait_us_per_query is the majority of latency", wait_share > 0.5);
        }
        Workload::MixedSerial => {}
    }
    (metrics, ok)
}
