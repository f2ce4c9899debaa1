//! `serve-mixed`: an in-process `cobra-serve` daemon on a loopback port
//! with two workers, driven by two closed-loop clients that each submit
//! small campaigns (`POST /campaigns`, then `GET /campaigns/<id>/events`
//! to the done marker), alternating grids both clients submit (served
//! cached or deduped in flight) with grids of their own (computed).

use crate::bench::{self, attempt, median, mix, quantile, repeated_setup, Ctx, Outcome};
use crate::grid::{check_records, point_bounds};
use crate::reference;
use crate::trace::Spans;
use cobra_campaign::runner::graph_build_seed;
use cobra_campaign::{default_cap, plan_sweep, run_sweep, Store, SweepSpec};
use cobra_graph::GraphSpec;
use cobra_serve::{CampaignService, ServeConfig, Server};
use cobra_util::Json;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Socket timeout: a campaign whose events stall this long has hung
/// and counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Graph sizes of the `rreg:N:4` grids (N = 64, 68, …, 124).
const SIZES: usize = 16;
/// Campaign-seed streams: one per client's own grids, one shared.
const STREAMS: usize = CLIENTS + 1;

/// The `k`-th campaign of `client`. Even steps submit the shared grid
/// both clients submit at that step; odd steps a grid of the client's
/// own. Each is 2 objectives × 2 processes = 4 points on one connected
/// `rreg` graph; start vertex and trial count vary so keys stay
/// distinct for thousands of steps.
fn spec_text(stream_seeds: &[u64; STREAMS], client: usize, k: usize) -> String {
    let stream = if k.is_multiple_of(2) { CLIENTS } else { client };
    let j = k / 2;
    let n = 64 + 4 * (j % SIZES);
    let start = (j / SIZES) % 64;
    let trials = 3 + (j / (SIZES * 64)) % 4;
    format!(
        "objective={{cover,hit:far}}; graph=rreg:{n}:4; process=cobra:b{{2,3}}; \
         trials={trials}; start={start}; seed={}; name=mix",
        stream_seeds[stream]
    )
}

/// Campaign seeds per stream whose 16 graphs are all connected, by the
/// benchmark's BFS over the graphs the daemon will build.
fn stream_seeds(seed: u64) -> [u64; STREAMS] {
    let mut seeds = [0; STREAMS];
    for (stream, slot) in seeds.iter_mut().enumerate() {
        *slot = (0..16)
            .map(|k| mix(seed, (stream as u64) << 8 | k) >> 1)
            .find(|&s| {
                (0..SIZES).all(|i| {
                    let g: GraphSpec = format!("rreg:{}:4", 64 + 4 * i).parse().expect("spec");
                    let built = g.build(graph_build_seed(s, &g)).expect("rreg builds");
                    reference::eccentricity(&reference::bfs(&built, 0)).is_some()
                })
            })
            .expect("a campaign seed with connected graphs among 16 candidates");
    }
    seeds
}

/// One HTTP/1.1 exchange with connect, read and write timeouts; the
/// response body is de-chunked by the daemon's own decoder.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
        })?;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        chunked |= lower.starts_with("transfer-encoding:") && lower.contains("chunked");
    }
    let body = if chunked {
        cobra_serve::http::read_chunked_body(&mut reader)?
    } else {
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf)?;
        buf
    };
    Ok((status, body))
}

/// A daemon serving on an ephemeral loopback port; stopped on drop.
struct Daemon {
    service: Arc<CampaignService>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<io::Result<()>>>,
    root: PathBuf,
}

impl Daemon {
    fn start(root: PathBuf) -> Daemon {
        let service = Arc::new(CampaignService::new(ServeConfig {
            threads: WORKERS,
            store_root: Some(root.clone()),
            ..ServeConfig::default()
        }));
        service.spawn_workers(WORKERS);
        let server = Server::bind(
            "127.0.0.1:0".parse().expect("loopback address"),
            Arc::clone(&service),
        )
        .expect("daemon binds a loopback port");
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let server = std::thread::spawn(move || server.run(&flag));
        Daemon {
            service,
            addr,
            stop,
            server: Some(server),
            root,
        }
    }

    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            self.stop.store(true, Ordering::Release);
            match server.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("perfbench: daemon accept loop failed: {e}"),
                Err(_) => eprintln!("perfbench: daemon accept loop panicked"),
            }
            self.service.shutdown();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Prepared {
    daemon: Daemon,
    seeds: [u64; STREAMS],
}

fn setup(seed: u64, tmp: &Path, round: &AtomicUsize) -> Prepared {
    let seeds = stream_seeds(seed);
    let root = tmp.join(format!("serve-{}", round.fetch_add(1, Ordering::Relaxed)));
    let daemon = Daemon::start(root);
    // Warm-up: a health check and one campaign with a trial count no
    // measured campaign uses, so no measured point is pre-computed.
    let (status, _) = http(daemon.addr, "GET", "/healthz", b"").expect("daemon answers");
    assert_eq!(status, 200, "healthz");
    let warm = spec_text(&seeds, 0, 1).replace("trials=3", "trials=2");
    let result = run_campaign(daemon.addr, &warm);
    assert!(
        result.error.is_none(),
        "warm-up campaign: {:?}",
        result.error
    );
    Prepared { daemon, seeds }
}

/// What one campaign returned, validated after the measured window.
struct Campaign {
    spec: String,
    latency_s: f64,
    post_s: f64,
    stream_s: f64,
    events: String,
    error: Option<String>,
}

fn run_campaign(addr: SocketAddr, spec: &str) -> Campaign {
    let t = Instant::now();
    let mut c = Campaign {
        spec: spec.to_string(),
        latency_s: 0.0,
        post_s: 0.0,
        stream_s: 0.0,
        events: String::new(),
        error: None,
    };
    let id = match http(addr, "POST", "/campaigns", spec.as_bytes()) {
        Ok((200, body)) => Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|r| r.get("campaign").and_then(Json::as_u64)),
        Ok((status, body)) => {
            c.error = Some(format!(
                "POST returned {status}: {}",
                String::from_utf8_lossy(&body)
            ));
            None
        }
        Err(e) => {
            c.error = Some(format!("POST failed: {e}"));
            None
        }
    };
    c.post_s = t.elapsed().as_secs_f64();
    let Some(id) = id else {
        c.error
            .get_or_insert_with(|| "receipt without a campaign id".into());
        return c;
    };
    let s = Instant::now();
    match http(addr, "GET", &format!("/campaigns/{id}/events"), b"") {
        Ok((200, body)) => c.events = String::from_utf8_lossy(&body).into_owned(),
        Ok((status, _)) => c.error = Some(format!("events returned {status}")),
        Err(e) => c.error = Some(format!("events failed: {e}")),
    }
    c.stream_s = s.elapsed().as_secs_f64();
    c.latency_s = t.elapsed().as_secs_f64();
    c
}

/// Both clients' campaigns (the first client's, then the second's, each
/// in submission order), the load's wall time, and the client spans.
struct Load {
    campaigns: Vec<Campaign>,
    wall_s: f64,
    spans: Vec<Spans>,
}

fn drive(
    addr: SocketAddr,
    seeds: &[u64; STREAMS],
    seconds: Duration,
    origin: Option<Instant>,
) -> Load {
    let started = Instant::now();
    let results: Vec<(Vec<Campaign>, Option<Spans>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut spans = origin.map(|o| Spans::new(o, client + 1));
                    let mut done = Vec::new();
                    for k in 0.. {
                        if started.elapsed() >= seconds && k >= 2 {
                            break;
                        }
                        let spec = spec_text(seeds, client, k);
                        let id = spans
                            .as_mut()
                            .map(|s| s.enter("serve", format!("campaign {client}.{k}")));
                        let c = run_campaign(addr, &spec);
                        if let (Some(s), Some(id)) = (spans.as_mut(), id) {
                            s.exit(id);
                        }
                        bench::count(c.error.is_none());
                        if let Some(e) = &c.error {
                            eprintln!("perfbench: campaign failed: {e}");
                        }
                        done.push(c);
                    }
                    (done, spans)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut load = Load {
        campaigns: Vec::new(),
        wall_s,
        spans: Vec::new(),
    };
    for (done, spans) in results {
        load.campaigns.extend(done);
        load.spans.extend(spans);
    }
    load
}

/// Totals over the campaigns' done markers and computed events.
#[derive(Default, Debug)]
struct Totals {
    computed: usize,
    cached: usize,
    deduped: usize,
    resolved: usize,
    rounds_computed: u64,
}

/// Validates every campaign's event stream against its plan, the
/// distinct-key count, and a sample of daemon records against direct
/// `run_sweep`s of the same specs.
fn verify(out: &mut Outcome, load: &Load, root: &Path) -> Totals {
    let mut plans = HashMap::new();
    let mut keys = HashSet::new();
    let mut totals = Totals::default();
    for c in load.campaigns.iter().filter(|c| c.error.is_none()) {
        if !plans.contains_key(&c.spec) {
            let spec: SweepSpec = c.spec.parse().expect("generated spec parses");
            let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).expect("plans");
            let bounds = point_bounds(&plan).expect("stream seeds were checked connected");
            keys.extend(plan.points.iter().map(|p| p.point.digest_hex()));
            plans.insert(c.spec.clone(), (plan.len(), bounds));
        }
        let (total, bounds) = &plans[&c.spec];
        let mut done = None;
        for line in c.events.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(event) = Json::parse(line) else {
                out.check(false, || format!("event line does not parse: {line}"));
                continue;
            };
            let field = |k: &str| event.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            match event.get("type").and_then(Json::as_str) {
                Some("done") => done = Some(event.clone()),
                Some("point") => {
                    let status = event.get("status").and_then(Json::as_str).unwrap_or("");
                    if !matches!(status, "computed" | "cached" | "deduped") {
                        continue;
                    }
                    let index = field("index") as usize;
                    let bound = bounds.get(index).copied().unwrap_or(u32::MAX) as f64;
                    let ok = field("completed") + field("censored") == field("trials")
                        && field("censored") == 0.0
                        && field("q25") <= field("median")
                        && field("median") <= field("q75")
                        && field("q25") >= bound;
                    out.check(ok, || {
                        format!("point event fails its checks (BFS bound {bound}): {line}")
                    });
                    if status == "computed" {
                        totals.rounds_computed +=
                            (field("mean") * field("completed")).round() as u64;
                    }
                }
                _ => out.check(false, || format!("unknown event: {line}")),
            }
        }
        let Some(done) = done else {
            out.check(false, || {
                format!("campaign without a done marker: {}", c.spec)
            });
            continue;
        };
        let count = |k: &str| done.get(k).and_then(Json::as_usize).unwrap_or(usize::MAX);
        let (computed, cached, deduped) = (count("computed"), count("cached"), count("deduped"));
        out.check(
            computed + cached + deduped == *total && count("total") == *total,
            || format!("done marker does not account for {total} points: {done:?}"),
        );
        totals.computed += computed;
        totals.cached += cached;
        totals.deduped += deduped;
        totals.resolved += *total;
    }
    out.check(totals.computed == keys.len(), || {
        format!(
            "daemon computed {} points for {} distinct keys",
            totals.computed,
            keys.len()
        )
    });

    // Daemon records against direct sweeps: the first client's first
    // four campaigns (two shared grids, two of its own).
    let stored = Store::load(root.join("mix"));
    for c in load.campaigns.iter().filter(|c| c.error.is_none()).take(4) {
        let spec: SweepSpec = c.spec.parse().expect("generated spec parses");
        let direct =
            run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap).expect("direct sweep");
        let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).expect("plans");
        for (planned, rec) in plan.points.iter().zip(&direct.records) {
            let served = stored.get(&planned.point.digest_hex(), &planned.point.full_key());
            out.check(served == Some(rec), || {
                format!(
                    "daemon record for {} differs from a direct run_sweep",
                    planned.point.full_key()
                )
            });
        }
        check_records(out, &direct.records, &plans[&c.spec].1);
    }
    totals
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let round = AtomicUsize::new(0);
    let (mut prepared, setup_s) = repeated_setup(|| setup(ctx.seed, ctx.tmp.path(), &round));
    let load = drive(prepared.daemon.addr, &prepared.seeds, ctx.seconds, None);
    let peak = bench::peak_rss_mib();
    let root = prepared.daemon.root.clone();
    attempt("daemon shutdown", Duration::from_secs(20), || {
        prepared.daemon.shutdown()
    });
    let totals = verify(&mut out, &load, &root);
    eprintln!(
        "perfbench: {} campaigns, {totals:?}, wall {:.2} s",
        load.campaigns.len(),
        load.wall_s
    );
    if totals.rounds_computed == 0 {
        return out;
    }
    out.set("setup_s", setup_s);
    out.set("rounds_per_s", totals.rounds_computed as f64 / load.wall_s);
    out.set("peak_rss_mib", peak);
    out
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut spans = Spans::new(origin, 0);
    let seeds = stream_seeds(ctx.seed);

    let g: GraphSpec = "rreg:124:4".parse().expect("spec");
    let id = spans.enter("graph", format!("GraphSpec::build {g}"));
    let graph = g
        .build(graph_build_seed(seeds[CLIENTS], &g))
        .expect("rreg builds");
    spans.exit(id);
    out.set("graph.build_s", spans.duration_s(id));
    crate::cover::micro(&graph, ctx.seed, &mut spans, &mut out);

    let mut daemon = Daemon::start(ctx.tmp.path().join("serve-traced"));
    // Requests sent back to back lock onto the accept loop's poll phase
    // (every one waits a whole poll, or none does); a pause drawn from
    // the seed before each request samples an idle daemon at random
    // phases instead.
    let mut rtt = Vec::new();
    let mut pauses = reference::RefRng::new(mix(ctx.seed, 0x277));
    for _ in 0..40 {
        std::thread::sleep(Duration::from_micros(pauses.below(30_000)));
        let id = spans.enter("serve", "GET /healthz (idle)");
        let ok = matches!(http(daemon.addr, "GET", "/healthz", b""), Ok((200, _)));
        spans.exit(id);
        out.check(ok, || "idle healthz failed".to_string());
        rtt.push(spans.duration_s(id) * 1e3);
    }
    eprintln!("perfbench: idle GET /healthz round trips (ms): {rtt:.2?}");
    out.set("serve.http_rtt_ms", median(&rtt));

    let stop = AtomicBool::new(false);
    let depth_max = AtomicUsize::new(0);
    let load = std::thread::scope(|scope| {
        let service = &daemon.service;
        let (stop, depth_max) = (&stop, &depth_max);
        scope.spawn(move || {
            while !stop.load(Ordering::Acquire) {
                depth_max.fetch_max(service.queue_stats().depth, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let load = drive(daemon.addr, &seeds, ctx.seconds, Some(origin));
        stop.store(true, Ordering::Release);
        load
    });
    let root = daemon.root.clone();
    attempt("daemon shutdown", Duration::from_secs(20), || {
        daemon.shutdown()
    });
    let totals = verify(&mut out, &load, &root);
    let ok: Vec<&Campaign> = load
        .campaigns
        .iter()
        .filter(|c| c.error.is_none())
        .collect();
    if ok.is_empty() {
        return out;
    }
    let ms = |f: fn(&Campaign) -> f64| ok.iter().map(|c| 1e3 * f(c)).collect::<Vec<_>>();
    out.set("points_per_s", totals.resolved as f64 / load.wall_s);
    out.set("campaign_p50_ms", median(&ms(|c| c.latency_s)));
    out.set("serve.post_ms", median(&ms(|c| c.post_s)));
    out.set("serve.stream_ms", median(&ms(|c| c.stream_s)));
    out.set(
        "serve.queue_depth_max",
        depth_max.load(Ordering::Relaxed) as f64,
    );
    out.set("serve.computed", totals.computed as f64);
    out.set("serve.cached", totals.cached as f64);
    out.set("serve.deduped", totals.deduped as f64);
    out.set("serve.campaigns", ok.len() as f64);
    // The highest percentile with ten samples beyond it.
    if ok.len() >= 100 {
        out.set("campaign_p90_ms", quantile(&ms(|c| c.latency_s), 0.9));
    }
    out.set("mc.rounds", totals.rounds_computed as f64);
    for client_spans in load.spans {
        spans.absorb(client_spans);
    }
    spans.finish(&mut out);
    out
}
