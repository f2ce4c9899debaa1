//! `campaign-grid`: a ~1.3k-point sweep run cold into a fresh on-disk
//! store, then warm from the reopened store, repeated with fresh stores
//! for the measuring time.

use crate::bench::{self, attempt, median, mix, repeated_setup, Ctx, Outcome};
use crate::reference;
use crate::trace::Spans;
use cobra_campaign::runner::graph_build_seed;
use cobra_campaign::{
    default_cap, plan_sweep, run_sweep, HitTarget, Objective, Plan, PlannedTopology, PointRecord,
    RunOutcome, Store, SweepSpec,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Three objectives × three processes on 144 graphs of up to a few
/// hundred vertices from families with no isolated vertex: 1296 points
/// of well under a millisecond each, so per-point costs (planning, graph
/// build, seeding, accumulation, store append) weigh beside the kernels.
/// Sixteen trials per point keep the random-walk round totals, which
/// dominate `rounds_per_s` here, steady from seed to seed.
const GRID: &str = "objective={cover,hit:far,infection:0.5}; \
    graph=rreg:{300..347}:4|rreg:{300..347}:6|lollipop:{20..67}; \
    process=cobra:b2|bips:b2|rw; trials=16";

const THREADS: usize = 2;
const SWEEP_DEADLINE: Duration = Duration::from_secs(60);

/// Lower bound on each point's stopping time, in plan order, from the
/// benchmark's BFS over the planned graphs; `Err` names a graph that is
/// not connected (its points could never finish).
pub fn point_bounds(plan: &Plan) -> Result<Vec<u32>, String> {
    let mut dists: HashMap<String, Vec<u32>> = HashMap::new();
    let mut bounds = Vec::with_capacity(plan.len());
    for planned in &plan.points {
        let point = &planned.point;
        let key = format!("{}@{}", point.graph.key_string(), point.start);
        let dist = match dists.get(&key) {
            Some(d) => d,
            None => {
                let d = match &planned.topology {
                    PlannedTopology::Csr(g) => reference::bfs(&**g, point.start),
                    other => {
                        return Err(format!("unexpected backend for {}: {other:?}", point.graph))
                    }
                };
                if reference::eccentricity(&d).is_none() {
                    return Err(format!("graph {} is not connected", point.graph));
                }
                dists.entry(key).or_insert(d)
            }
        };
        let bound = match &point.objective {
            Objective::Cover | Objective::Hit(HitTarget::Far) => {
                reference::eccentricity(dist).expect("checked connected")
            }
            Objective::Hit(HitTarget::Vertex(v)) => dist[*v as usize],
            Objective::Infection { threshold } => {
                let need = (threshold * dist.len() as f64).ceil() as usize;
                reference::ball_radius(dist, need)
            }
            other => return Err(format!("objective {other} is not a stopping objective")),
        };
        bounds.push(bound);
    }
    Ok(bounds)
}

/// Checks every record against the properties a stopping estimate must
/// have and its point's BFS bound.
pub fn check_records(out: &mut Outcome, records: &[PointRecord], bounds: &[u32]) {
    out.check(records.len() == bounds.len(), || {
        format!("{} records for {} points", records.len(), bounds.len())
    });
    for (rec, &bound) in records.iter().zip(bounds) {
        let ok = rec.completed + rec.censored == rec.trials
            && rec.censored == 0
            && rec.min <= rec.mean
            && rec.mean <= rec.max
            && rec.min >= bound as f64;
        out.check(ok, || {
            format!(
                "record {} / {} / {}: completed {} censored {} of {} trials, min {} mean {} max {}, BFS bound {bound}",
                rec.objective, rec.graph, rec.process, rec.completed, rec.censored, rec.trials,
                rec.min, rec.mean, rec.max
            )
        });
    }
}

/// Exact counts of a set of records: (rounds, transmissions).
pub fn record_counts<'a>(records: impl IntoIterator<Item = &'a PointRecord>) -> (u64, u64) {
    records.into_iter().fold((0, 0), |(r, t), rec| {
        (
            r + (rec.mean * rec.completed as f64).round() as u64,
            t + rec.total_transmissions,
        )
    })
}

struct Prepared {
    spec: SweepSpec,
    text: String,
    bounds: Vec<u32>,
    /// Distinct content keys: what a cold run must compute.
    distinct: usize,
    total: usize,
}

/// Picks the first campaign seed derived from the workload seed whose
/// graphs are all connected, and plans it.
fn prepare(seed: u64) -> Prepared {
    for k in 0..16 {
        let text = format!("{GRID}; seed={}; name=grid", mix(seed, k) >> 1);
        let spec: SweepSpec = text.parse().expect("grid spec parses");
        let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).expect("grid plans");
        match point_bounds(&plan) {
            Ok(bounds) => {
                return Prepared {
                    spec,
                    text,
                    bounds,
                    distinct: plan.missing.len(),
                    total: plan.len(),
                }
            }
            Err(e) => eprintln!("perfbench: skipping campaign seed: {e}"),
        }
    }
    panic!("no campaign seed with connected graphs among 16 candidates");
}

fn setup(seed: u64, tmp: &Path) -> Prepared {
    let prepared = prepare(seed);
    // Warm-up: one small sweep through the same on-disk path.
    let dir = tmp.join("grid-warmup");
    let warm: SweepSpec = format!(
        "cover; graph=rreg:300:4; process=cobra:b2|bips:b2|rw; trials=4; seed={}",
        mix(seed, 99) >> 1
    )
    .parse()
    .expect("warm-up spec parses");
    let mut store = Store::open(&dir).expect("warm-up store opens");
    run_sweep(&warm, &mut store, THREADS, &default_cap).expect("warm-up sweep runs");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    prepared
}

fn sweep(spec: &SweepSpec, dir: &Path, threads: usize) -> Option<RunOutcome> {
    let mut store = Store::open(dir).expect("campaign store opens");
    attempt("sweep", SWEEP_DEADLINE, || {
        run_sweep(spec, &mut store, threads, &default_cap)
    })?
    .map_err(|e| eprintln!("perfbench: sweep failed: {e}"))
    .ok()
}

/// Checks a cold/warm pair and returns the cold run's exact counts.
fn check_pair(out: &mut Outcome, p: &Prepared, cold: &RunOutcome, warm: &RunOutcome) -> (u64, u64) {
    out.check(cold.computed == p.distinct, || {
        format!(
            "cold run computed {} of {} distinct points",
            cold.computed, p.distinct
        )
    });
    out.check(warm.computed == 0 && warm.cached == p.total, || {
        format!(
            "warm run computed {} and served {} of {}",
            warm.computed, warm.cached, p.total
        )
    });
    out.check(warm.records == cold.records, || {
        "warm records differ from the cold ones".to_string()
    });
    check_records(out, &cold.records, &p.bounds);
    record_counts(&cold.records)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (prepared, setup_s) = repeated_setup(|| setup(ctx.seed, ctx.tmp.path()));
    eprintln!("perfbench: {} ({} points)", prepared.text, prepared.total);

    let mut reps = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<(Vec<PointRecord>, (u64, u64))> = None;
    let started = Instant::now();
    while bench::another_rep(started, ctx.seconds, &reps) {
        let dir = ctx.tmp.path().join(format!("grid-{}", reps.len()));
        let t = Instant::now();
        let Some(cold) = sweep(&prepared.spec, &dir, THREADS) else {
            break;
        };
        let wall = t.elapsed().as_secs_f64();
        let Some(warm) = sweep(&prepared.spec, &dir, THREADS) else {
            break;
        };
        let _ = std::fs::remove_dir_all(&dir);
        let counts = check_pair(&mut out, &prepared, &cold, &warm);
        match &first {
            None => first = Some((cold.records, counts)),
            Some((records, c0)) => {
                out.check(cold.records == *records && counts == *c0, || {
                    format!("repetition's records or exact counts {counts:?} differ from the first's {c0:?}")
                })
            }
        }
        reps.push(t.elapsed().as_secs_f64());
        eprintln!(
            "perfbench: repetition {}: cold {wall:.3} s ({} rounds), cold + warm {:.3} s",
            rates.len(),
            counts.0,
            reps.last().expect("just pushed")
        );
        rates.push(counts.0 as f64 / wall);
    }
    if rates.is_empty() {
        return out;
    }
    out.set("setup_s", setup_s);
    out.set("rounds_per_s", median(&rates));
    out.set("peak_rss_mib", bench::peak_rss_mib());
    out
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let prepared = setup(ctx.seed, ctx.tmp.path());
    let mut spans = Spans::new(Instant::now(), 0);

    let id = spans.enter("campaign", "SweepSpec::from_str");
    let spec: SweepSpec = prepared.text.parse().expect("grid spec parses");
    spans.exit(id);
    out.set("campaign.parse_ms", spans.duration_s(id) * 1e3);
    let id = spans.enter("campaign", "plan_sweep");
    let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).expect("grid plans");
    spans.exit(id);
    out.set("campaign.plan_ms", spans.duration_s(id) * 1e3);
    out.set("graph.cache_hits", plan.cache_stats.hits as f64);
    out.set("graph.cache_misses", plan.cache_stats.misses as f64);

    // Graph builds on their own, once per distinct graph.
    let mut built = HashMap::new();
    let mut build_s = 0.0;
    for planned in &plan.points {
        let g = &planned.point.graph;
        if let std::collections::hash_map::Entry::Vacant(slot) = built.entry(g.key_string()) {
            let id = spans.enter("graph", format!("GraphSpec::build {g}"));
            let graph = g
                .build(graph_build_seed(spec.seed, g))
                .expect("grid graph builds");
            spans.exit(id);
            build_s += spans.duration_s(id);
            slot.insert(graph);
        }
    }
    out.set("graph.build_s", build_s);
    let largest = built
        .values()
        .max_by_key(|g| g.m())
        .expect("grid has graphs");
    crate::cover::micro(largest, ctx.seed, &mut spans, &mut out);

    // Cold at one and two threads, then warm from the reopened store.
    let mut runs = Vec::new();
    for threads in [1, THREADS] {
        let dir = ctx.tmp.path().join(format!("grid-t{threads}"));
        let id = spans.enter("campaign", format!("run_sweep cold threads={threads}"));
        let cold = sweep(&spec, &dir, threads);
        spans.exit(id);
        let Some(cold) = cold else {
            out.check(false, || format!("cold sweep at threads={threads} failed"));
            return out;
        };
        runs.push((cold, spans.duration_s(id), dir));
    }
    let dir = &runs[1].2;
    let id = spans.enter("campaign", "Store::open (reload)");
    let mut store = Store::open(dir).expect("store reopens");
    spans.exit(id);
    let open_s = spans.duration_s(id);
    out.set("campaign.store_open_ms", open_s * 1e3);
    let id = spans.enter("campaign", "run_sweep warm");
    let warm = attempt("sweep", SWEEP_DEADLINE, || {
        run_sweep(&spec, &mut store, THREADS, &default_cap)
    });
    spans.exit(id);
    drop(store);
    let Some(Ok(warm)) = warm else {
        out.check(false, || "warm sweep failed".to_string());
        return out;
    };
    out.set(
        "warm_points_per_s",
        prepared.total as f64 / (open_s + spans.duration_s(id)),
    );
    let store_file = dir.join("results.jsonl");
    out.set(
        "campaign.store_bytes",
        std::fs::metadata(&store_file)
            .map(|m| m.len() as f64)
            .unwrap_or(0.0),
    );

    let counts: Vec<(u64, u64)> = runs
        .iter()
        .map(|(c, _, _)| record_counts(&c.records))
        .collect();
    out.check(
        runs[0].0.records == runs[1].0.records && counts[0] == counts[1],
        || format!("threads=1 and threads=2 differ: exact counts {counts:?}"),
    );
    let counts = check_pair(&mut out, &prepared, &runs[1].0, &warm);
    let cold = &runs[1].0;
    out.set("campaign.computed_points", cold.computed as f64);
    out.set("points_per_s", cold.computed as f64 / runs[1].1);
    out.set("campaign.cold_sweep_ms", runs[1].1 * 1e3);
    out.set(
        "campaign.point_ms_p50",
        median(
            &cold
                .records
                .iter()
                .map(|r| r.wall_seconds * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("mc.rounds", counts.0 as f64);
    out.set("process.transmissions", counts.1 as f64);
    let rate = |i: usize| counts.0 as f64 / runs[i].1;
    out.set("mc.rounds_per_s_1t", rate(0));
    out.set("mc.rounds_per_s_2t", rate(1));
    out.set("mc.parallel_efficiency", rate(1) / (2.0 * rate(0)));

    // Appends on their own: every cold record into a fresh store.
    let append_dir = ctx.tmp.path().join("grid-append");
    let store = Store::open(&append_dir).expect("append store opens");
    let id = spans.enter("campaign", "Store::append x records");
    for rec in &cold.records {
        store.append(rec).expect("append succeeds");
    }
    spans.exit(id);
    out.set(
        "campaign.store_append_us",
        spans.duration_s(id) * 1e6 / cold.records.len() as f64,
    );
    spans.finish(&mut out);
    out
}
