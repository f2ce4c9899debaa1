//! The repository benchmark: four workloads that drive the workspace
//! crates through their public functions, time them from outside, check
//! the outputs against properties and independent references, and print
//! one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with nothing
//! traced; `--trace 1` prints the per-layer metrics of a separate traced
//! run. See `README.md` for the workloads, the metric table and the
//! known faults the benchmark makes visible.

mod bench;
mod cover;
mod grid;
mod reference;
mod serve;
mod trace;

use bench::{Ctx, Outcome};
use std::time::Duration;

/// End-to-end metrics: every workload reports each of them when
/// `--trace 0`. Only work-normalised figures are steady across seeds on
/// every workload: a lollipop trial's length varies by a factor of six
/// from seed to seed, so time per estimate or per campaign is reported
/// with the per-layer metrics, on the workloads it applies to.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every workload reports each of them when
/// `--trace 1`; a layer the workload does not exercise reads 0. The
/// first four are the sweep and service figures users see:
/// `points_per_s` counts computed points on `campaign-grid` and resolved
/// points on `serve-mixed`; the campaign latencies are `serve-mixed`'s.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("points_per_s", "points/s"),
    ("warm_points_per_s", "points/s"),
    ("campaign_p50_ms", "ms"),
    ("campaign_p90_ms", "ms"),
    ("graph.build_s", "s"),
    ("graph.neighbor_ns", "ns"),
    ("graph.resolve_pick_ns", "ns"),
    ("graph.resident_bytes", "bytes"),
    ("graph.cache_hits", "count"),
    ("graph.cache_misses", "count"),
    ("rng.draw_ns", "ns"),
    ("process.draw_ns_per_round", "ns"),
    ("process.gather_ns_per_round", "ns"),
    ("process.coalesce_ns_per_round", "ns"),
    ("process.ns_per_transmission", "ns"),
    ("process.frontier_mean", "count"),
    ("process.transmissions", "count"),
    ("process.coalesced", "count"),
    ("mc.rounds", "count"),
    ("mc.trial_ms_p50", "ms"),
    ("mc.trial_ms_max", "ms"),
    ("mc.rounds_per_s_1t", "rounds/s"),
    ("mc.rounds_per_s_2t", "rounds/s"),
    ("mc.parallel_efficiency", "ratio"),
    ("campaign.parse_ms", "ms"),
    ("campaign.plan_ms", "ms"),
    ("campaign.point_ms_p50", "ms"),
    ("campaign.store_append_us", "us"),
    ("campaign.store_open_ms", "ms"),
    ("campaign.store_bytes", "bytes"),
    ("campaign.computed_points", "count"),
    ("campaign.cold_sweep_ms", "ms"),
    ("serve.http_rtt_ms", "ms"),
    ("serve.post_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.computed", "count"),
    ("serve.cached", "count"),
    ("serve.deduped", "count"),
    ("serve.campaigns", "count"),
    ("obs.trace_overhead", "ratio"),
    ("trace.spans", "count"),
    ("self_ms.graph", "ms"),
    ("self_ms.rand", "ms"),
    ("self_ms.process", "ms"),
    ("self_ms.mc", "ms"),
    ("self_ms.campaign", "ms"),
    ("self_ms.serve", "ms"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "cover-hypercube",
    "cover-lollipop",
    "campaign-grid",
    "serve-mixed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    eprintln!("perfbench: {}", bench::fingerprint());
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let ctx = match Ctx::new(args.seed, Duration::from_secs_f64(args.seconds)) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(2);
        }
    };
    bench::start_watchdog(ctx.tmp.path().to_path_buf());
    let mut outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("cover-hypercube", false) => cover::run(&ctx, cover::Graph::Hypercube),
        ("cover-hypercube", true) => cover::run_traced(&ctx, cover::Graph::Hypercube),
        ("cover-lollipop", false) => cover::run(&ctx, cover::Graph::Lollipop),
        ("cover-lollipop", true) => cover::run_traced(&ctx, cover::Graph::Lollipop),
        ("campaign-grid", false) => grid::run(&ctx),
        ("campaign-grid", true) => grid::run_traced(&ctx),
        ("serve-mixed", false) => serve::run(&ctx),
        ("serve-mixed", true) => serve::run_traced(&ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = outcome.result_line(expected, args.trace);
    for problem in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    drop(ctx);
    println!("{line}");
    std::process::exit(if outcome.problems.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_util::Json;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program reports, in the same order and units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Json::as_str)
                        .expect("field")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let expected: Vec<_> = declared.iter().map(|(n, _)| n.to_string()).collect();
            let units: Vec<_> = declared.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(names(key, "name"), expected, "{key} names");
            assert_eq!(names(key, "unit"), units, "{key} units");
        }
    }
}
