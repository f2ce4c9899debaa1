//! `cover-hypercube` and `cover-lollipop`: COBRA b=2 cover time from
//! vertex 0 through `SimSpec::measure`, one batch of trials per
//! operation, the same batch repeated for the whole run.

use crate::bench::{self, attempt, median, mix, repeated_setup, Ctx, Outcome};
use crate::reference::{self, Goal, RefCobra, RefGraph, RefRng};
use crate::trace::Spans;
use cobra::{Backend, SimSpec, StoppingEstimate};
use cobra_graph::{with_topology, BuiltTopology, GraphSpec, Topology};
use cobra_obs::{Phase, RoundRecord, RoundSink, TrialTotals};
use cobra_process::ProcessSpec;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub enum Graph {
    Hypercube,
    Lollipop,
}

/// One workload's fixed make-up.
struct Config {
    spec: &'static str,
    reference: RefGraph,
    /// Trials per measured batch (one operation).
    trials: usize,
    /// Warm-up batch during set-up: trials and round cap.
    warmup: (usize, usize),
    /// Reference-simulator trials for the law check.
    reference_trials: usize,
}

impl Graph {
    fn config(self) -> Config {
        match self {
            // Expander regime; implicit backend, kernel-bound.
            Graph::Hypercube => Config {
                spec: "hypercube:18",
                reference: RefGraph::Hypercube { d: 18 },
                trials: 16,
                warmup: (2, 64),
                reference_trials: 8,
            },
            // Theorem 1.1's worst case; CSR backend, about a thousand
            // rounds per trial with heavy-tailed lengths. The adjacency
            // (1.9 MB) fits a core's L2, so the run measures the kernel
            // rather than the host's shared-cache contention.
            Graph::Lollipop => Config {
                spec: "lollipop:1024",
                reference: RefGraph::lollipop(1024),
                trials: 48,
                warmup: (8, 1000),
                reference_trials: 16,
            },
        }
    }
}

/// Engine threads (the machine's two cores).
const THREADS: usize = 2;
/// A batch that takes longer than this has hung.
const BATCH_DEADLINE: Duration = Duration::from_secs(60);
/// |z| beyond which the program's mean cover time disagrees with the
/// reference simulator's.
const Z_BOUND: f64 = 5.0;

struct Prepared {
    topology: BuiltTopology,
    gspec: GraphSpec,
    process: ProcessSpec,
    /// Start vertex eccentricity by the benchmark's BFS.
    ecc: u32,
}

/// The workload graph on the backend `Backend::Auto` picks.
fn build(cfg: &Config) -> BuiltTopology {
    let gspec: GraphSpec = cfg.spec.parse().expect("workload graph spec parses");
    gspec
        .build_topology(0, Backend::Auto)
        .expect("workload graph builds")
}

impl Prepared {
    fn new(cfg: &Config, topology: BuiltTopology) -> Prepared {
        let gspec: GraphSpec = cfg.spec.parse().expect("workload graph spec parses");
        let ecc = reference::eccentricity(&reference::bfs_ref(&cfg.reference, 0))
            .expect("reference graph is connected");
        Prepared {
            topology,
            gspec,
            process: "cobra:b2".parse().expect("process spec parses"),
            ecc,
        }
    }

    /// The batch spec: the structured family by spec (the implicit
    /// backend), other families on the CSR graph built once.
    fn sim(&self, trials: usize, seed: u64, threads: usize) -> SimSpec<'_> {
        let base = match &self.topology {
            BuiltTopology::Csr(g) => SimSpec::new(g, self.process.clone()),
            _ => SimSpec::new(self.gspec.clone(), self.process.clone()),
        };
        base.with_trials(trials)
            .with_seed(seed)
            .with_threads(threads)
    }

    fn n(&self) -> usize {
        self.topology.n()
    }
}

fn setup(cfg: &Config, seed: u64) -> Prepared {
    let prepared = Prepared::new(cfg, build(cfg));
    warm_up(cfg, &prepared, seed);
    prepared
}

/// A short capped batch, so the first measured batch does not pay for
/// first-touch page faults and thread start-up.
fn warm_up(cfg: &Config, prepared: &Prepared, seed: u64) {
    let (trials, cap) = cfg.warmup;
    let warm = prepared
        .sim(trials, mix(seed, 0x3a7), THREADS)
        .with_cap(cap)
        .measure()
        .expect("warm-up batch runs");
    black_box(warm);
}

/// Exact counts of one batch: (rounds, transmissions).
fn counts(est: &StoppingEstimate) -> (u64, u64) {
    let completed = (est.trials - est.censored) as f64;
    (
        (est.mean * completed).round() as u64,
        (est.mean_transmissions * est.trials as f64).round() as u64,
    )
}

/// Property checks every batch must pass.
fn check_batch(out: &mut Outcome, est: &StoppingEstimate, p: &Prepared) {
    out.check(est.censored == 0, || {
        format!("{} of {} trials censored", est.censored, est.trials)
    });
    out.check((est.mean_reached - p.n() as f64).abs() < 1e-6, || {
        format!("mean reached {} != n = {}", est.mean_reached, p.n())
    });
    out.check(est.min >= p.ecc as f64, || {
        format!("shortest trial {} rounds < eccentricity {}", est.min, p.ecc)
    });
}

/// Mean cover time against the reference simulator: a two-sample z
/// with the pooled variance (under agreement both samples share it).
fn check_reference(out: &mut Outcome, cfg: &Config, seed: u64, est: &StoppingEstimate) {
    let mut sim = RefCobra::new(cfg.reference);
    let mut rng = RefRng::new(mix(seed, 0x4ef));
    let times: Vec<f64> = (0..cfg.reference_trials)
        .map(|_| {
            sim.run(0, Goal::Cover, u32::MAX, &mut rng)
                .expect("reference trial covers") as f64
        })
        .collect();
    let r = times.len() as f64;
    let r_mean = times.iter().sum::<f64>() / r;
    let r_var = times.iter().map(|t| (t - r_mean).powi(2)).sum::<f64>() / (r - 1.0);
    let t = est.trials as f64;
    let pooled = ((t - 1.0) * est.std_dev.powi(2) + (r - 1.0) * r_var) / (t + r - 2.0);
    let z = (est.mean - r_mean) / (pooled * (1.0 / t + 1.0 / r)).sqrt().max(1e-9);
    eprintln!(
        "perfbench: cover time {:.2} (program, {} trials) vs {:.2} (reference, {} trials), z = {:.2}",
        est.mean, est.trials, r_mean, cfg.reference_trials, z
    );
    out.check(z.abs() <= Z_BOUND, || {
        format!(
            "mean cover time {:.2} disagrees with the reference simulator's {:.2} (z = {z:.2})",
            est.mean, r_mean
        )
    });
}

/// The end-to-end run: set up repeatedly, then repeat one batch for
/// the measuring time.
pub fn run(ctx: &Ctx, graph: Graph) -> Outcome {
    let cfg = graph.config();
    let mut out = Outcome::default();
    let (prepared, setup_s) = repeated_setup(|| setup(&cfg, ctx.seed));
    let sim = prepared.sim(cfg.trials, mix(ctx.seed, 0xba7c), THREADS);

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<(StoppingEstimate, (u64, u64))> = None;
    let started = Instant::now();
    while bench::another_rep(started, ctx.seconds, &walls) {
        let t = Instant::now();
        let Some(result) = attempt("cover batch", BATCH_DEADLINE, || sim.measure()) else {
            break;
        };
        let wall = t.elapsed().as_secs_f64();
        let est = match result.map(|m| m.into_stopping()) {
            Ok(Some(est)) => est,
            other => {
                out.check(false, || format!("batch did not measure: {other:?}"));
                break;
            }
        };
        check_batch(&mut out, &est, &prepared);
        let c = counts(&est);
        match &first {
            None => first = Some((est, c)),
            Some((_, c0)) => out.check(c == *c0, || {
                format!("exact counts (rounds, transmissions) {c:?} differ from the first batch's {c0:?}")
            }),
        }
        eprintln!(
            "perfbench: batch {}: {} rounds in {wall:.3} s, {:.1} rounds/s",
            walls.len(),
            c.0,
            c.0 as f64 / wall
        );
        walls.push(wall);
        rates.push(c.0 as f64 / wall);
    }
    let peak = bench::peak_rss_mib();
    if let Some((est, _)) = &first {
        check_reference(&mut out, &cfg, ctx.seed, est);
    }
    if walls.is_empty() {
        return out;
    }
    out.set("setup_s", setup_s);
    out.set("rounds_per_s", median(&rates));
    out.set("peak_rss_mib", peak);
    out
}

/// Collects what the per-layer metrics need from a traced batch.
#[derive(Default)]
struct LayerSink {
    rounds: u64,
    frontier_sum: u64,
    transmissions: u64,
    coalesced: u64,
    trial_ends: Vec<Instant>,
    kernel_ns: Vec<u64>,
}

impl RoundSink for LayerSink {
    fn on_round(&mut self, _trial: usize, r: &RoundRecord<'_>) {
        self.rounds += 1;
        self.frontier_sum += r.frontier as u64;
        self.transmissions += r.transmissions;
        self.coalesced += r.coalesced;
    }

    fn on_trial_end(&mut self, _trial: usize, _totals: &TrialTotals) {
        self.trial_ends.push(Instant::now());
    }

    fn on_trial_phases(&mut self, _trial: usize, phase_nanos: &[(Phase, u64)]) {
        self.kernel_ns
            .push(phase_nanos.iter().map(|(_, ns)| ns).sum());
    }
}

/// Times `Topology::neighbor`, `Topology::resolve_pick` and the
/// vendored generator's `random_range(0..deg)` at vertex/index pairs
/// drawn by the benchmark.
pub fn micro<T: Topology>(g: &T, seed: u64, spans: &mut Spans, out: &mut Outcome) {
    const K: usize = 1 << 20;
    let mut rng = RefRng::new(mix(seed, 0x111c));
    let mut pairs = Vec::with_capacity(K);
    let mut tokens = Vec::with_capacity(K);
    let mut degrees = Vec::with_capacity(K);
    for _ in 0..K {
        let v = rng.below(g.n() as u64) as u32;
        let (base, deg) = g.neighbor_range(v);
        let i = rng.below(deg as u64) as usize;
        pairs.push((v, i));
        tokens.push(base + i);
        degrees.push(deg);
    }
    let id = spans.enter("graph", "Topology::neighbor x 2^20");
    let mut acc = 0u64;
    for &(v, i) in &pairs {
        acc = acc.wrapping_add(u64::from(g.neighbor(black_box(v), black_box(i))));
    }
    black_box(acc);
    spans.exit(id);
    out.set("graph.neighbor_ns", spans.duration_s(id) * 1e9 / K as f64);

    let id = spans.enter("graph", "Topology::resolve_pick x 2^20");
    for &k in &tokens {
        acc = acc.wrapping_add(u64::from(g.resolve_pick(black_box(k))));
    }
    black_box(acc);
    spans.exit(id);
    out.set(
        "graph.resolve_pick_ns",
        spans.duration_s(id) * 1e9 / K as f64,
    );

    let mut small = SmallRng::seed_from_u64(seed);
    let id = spans.enter("rand", "SmallRng::random_range x 2^20");
    for &deg in &degrees {
        acc = acc.wrapping_add(small.random_range(0..black_box(deg)) as u64);
    }
    black_box(acc);
    spans.exit(id);
    out.set("rng.draw_ns", spans.duration_s(id) * 1e9 / K as f64);
    out.set("graph.resident_bytes", g.memory_bytes() as f64);
}

/// The traced run: layer microbenchmarks, the batch at one and two
/// threads untraced, then the batch through `measure_traced` with phase
/// timers, with the exact counts of all three compared.
pub fn run_traced(ctx: &Ctx, graph: Graph) -> Outcome {
    let cfg = graph.config();
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut spans = Spans::new(origin, 0);

    let id = spans.enter("graph", format!("GraphSpec::build_topology {}", cfg.spec));
    let topology = build(&cfg);
    spans.exit(id);
    out.set("graph.build_s", spans.duration_s(id));
    let prepared = Prepared::new(&cfg, topology);
    warm_up(&cfg, &prepared, ctx.seed);
    with_topology!(&prepared.topology, |g| micro(
        g, ctx.seed, &mut spans, &mut out
    ));

    let seed = mix(ctx.seed, 0xba7c);
    let mut rates = Vec::new();
    let mut exact = Vec::new();
    for threads in [1, THREADS] {
        let sim = prepared.sim(cfg.trials, seed, threads);
        let id = spans.enter("mc", format!("SimSpec::measure threads={threads}"));
        let result = attempt("cover batch", BATCH_DEADLINE, || sim.measure());
        spans.exit(id);
        let Some(Ok(m)) = result else {
            out.check(false, || format!("batch at threads={threads} failed"));
            return out;
        };
        let est = m.into_stopping().expect("cover is a stopping objective");
        check_batch(&mut out, &est, &prepared);
        let c = counts(&est);
        rates.push(c.0 as f64 / spans.duration_s(id));
        exact.push(c);
    }

    let mut sink = LayerSink::default();
    let sim = prepared.sim(cfg.trials, seed, 1);
    let id = spans.enter("mc", "SimSpec::measure_traced");
    let start = Instant::now();
    let result = attempt("traced cover batch", BATCH_DEADLINE, || {
        sim.measure_traced(&mut sink, true)
    });
    spans.exit(id);
    let Some(Ok((m, timers))) = result else {
        out.check(false, || "traced batch failed".to_string());
        return out;
    };
    let traced_rate = sink.rounds as f64 / spans.duration_s(id);
    let est = m.into_stopping().expect("cover is a stopping objective");
    check_batch(&mut out, &est, &prepared);
    let c = counts(&est);
    exact.push(c);
    exact.push((sink.rounds, sink.transmissions));
    out.check(exact.iter().all(|e| *e == exact[0]), || {
        format!("exact counts differ across threads=1, threads=2, traced, sink: {exact:?}")
    });

    // Trial spans from the sink's trial-end times; inside each, a span
    // as long as the kernel's phase-timer total for that trial, so the
    // trial loop's self time is what the kernel does not account for.
    let mut trial_ms = Vec::new();
    let mut prev = start;
    for (i, (&end, &kernel_ns)) in sink.trial_ends.iter().zip(&sink.kernel_ns).enumerate() {
        trial_ms.push(end.duration_since(prev).as_secs_f64() * 1e3);
        let trial = spans.record("mc", format!("trial {i}"), prev, end, id);
        let kernel_start = end - Duration::from_nanos(kernel_ns).min(end - prev);
        spans.record("process", "kernel phases".into(), kernel_start, end, trial);
        prev = end;
    }
    let timers = timers.expect("phase timing was requested");
    let phase = |p: Phase| timers.histogram(p).sum() as f64;
    let rounds = sink.rounds as f64;
    let kernel = phase(Phase::Draw) + phase(Phase::Gather) + phase(Phase::Coalesce);
    out.set("process.draw_ns_per_round", phase(Phase::Draw) / rounds);
    out.set("process.gather_ns_per_round", phase(Phase::Gather) / rounds);
    out.set(
        "process.coalesce_ns_per_round",
        phase(Phase::Coalesce) / rounds,
    );
    out.set(
        "process.ns_per_transmission",
        kernel / sink.transmissions as f64,
    );
    out.set("process.frontier_mean", sink.frontier_sum as f64 / rounds);
    out.set("process.transmissions", sink.transmissions as f64);
    out.set("process.coalesced", sink.coalesced as f64);
    out.set("mc.rounds", rounds);
    out.set("mc.trial_ms_p50", median(&trial_ms));
    out.set(
        "mc.trial_ms_max",
        trial_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set("mc.rounds_per_s_1t", rates[0]);
    out.set("mc.rounds_per_s_2t", rates[1]);
    out.set("mc.parallel_efficiency", rates[1] / (2.0 * rates[0]));
    out.set("obs.trace_overhead", rates[0] / traced_rate - 1.0);
    eprintln!(
        "perfbench: kernel phases {:.1} ms of {:.1} ms traced",
        kernel / 1e6,
        spans.duration_s(id) * 1e3
    );
    spans.finish(&mut out);
    out
}
