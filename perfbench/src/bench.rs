//! Shared harness pieces: the run context and its scratch directory,
//! operation accounting with deadlines, the result line, small
//! statistics, and the machine fingerprint.

use cobra_util::Json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A whole run must end well inside the 180 s a run is allowed.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Inputs every workload receives: the workload seed, the measuring
/// time, and a scratch directory removed when the context drops.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub tmp: TempDir,
}

impl Ctx {
    pub fn new(seed: u64, seconds: Duration) -> std::io::Result<Ctx> {
        Ok(Ctx {
            seed,
            seconds,
            tmp: TempDir::new()?,
        })
    }
}

/// A fresh directory beside the benchmark's own build output (so inside
/// the checkout it was built in), removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new() -> std::io::Result<TempDir> {
        let exe = std::env::current_exe()?;
        let build_dir = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| std::io::Error::other("executable has no build directory"))?;
        let path = build_dir
            .join("perfbench-tmp")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        remove_scratch(&self.path);
    }
}

fn remove_scratch(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = path.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);
/// The deadline of the operation in progress on the main thread.
static DEADLINE: Mutex<Option<(Instant, String)>> = Mutex::new(None);

/// Runs one counted operation under a deadline. A panic counts the
/// operation as failed and returns `None`; an operation that overruns
/// its deadline is reported by the watchdog, which ends the run.
pub fn attempt<T>(name: &str, deadline: Duration, op: impl FnOnce() -> T) -> Option<T> {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    *DEADLINE.lock().expect("deadline slot") = Some((Instant::now() + deadline, name.to_string()));
    let result = catch_unwind(AssertUnwindSafe(op));
    *DEADLINE.lock().expect("deadline slot") = None;
    match result {
        Ok(value) => Some(value),
        Err(_) => {
            FAILED.fetch_add(1, Ordering::Relaxed);
            eprintln!("perfbench: operation {name} panicked; counted as failed");
            None
        }
    }
}

/// Counts an operation that ran outside [`attempt`] (a serve client's
/// campaign), with its outcome.
pub fn count(ok: bool) {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    if !ok {
        FAILED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts the thread that ends the run when an operation misses its
/// deadline or the whole run overruns: it prints a result line with the
/// overrunning operation counted as failed, removes the scratch
/// directory, and exits with code 3.
pub fn start_watchdog(tmp: PathBuf) {
    let started = Instant::now();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(100));
        let missed = match &*DEADLINE.lock().expect("deadline slot") {
            Some((until, name)) if Instant::now() > *until => Some(name.clone()),
            _ if started.elapsed() > RUN_LIMIT => Some("the whole run".to_string()),
            _ => None,
        };
        if let Some(name) = missed {
            eprintln!("perfbench: {name} missed its deadline; counted as failed, ending the run");
            let line = Json::Object(vec![
                ("correct".into(), Json::Bool(false)),
                (
                    "attempted".into(),
                    Json::Int(ATTEMPTED.load(Ordering::Relaxed).max(1) as i128),
                ),
                (
                    "failed".into(),
                    Json::Int(FAILED.load(Ordering::Relaxed) as i128 + 1),
                ),
                ("metrics".into(), Json::Object(Vec::new())),
            ]);
            println!("{}", line.to_string_compact());
            remove_scratch(&tmp);
            std::process::exit(3);
        }
    });
}

/// What a workload hands back: its metrics and every failed check.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line. Traced runs report 0 for the layers the workload
    /// does not exercise; an end-to-end metric left unmeasured (every
    /// repetition failed) fails the run.
    pub fn result_line(&mut self, expected: &[(&str, &str)], traced: bool) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in expected {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => {
                    self.problems
                        .push(format!("end-to-end metric {name} was not measured"));
                    continue;
                }
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            metrics.push((
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        for name in self.metrics.keys() {
            assert!(
                expected.iter().any(|(n, _)| n == name),
                "metric {name} is not declared for this mode"
            );
        }
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.problems.is_empty())),
            (
                "attempted".into(),
                Json::Int(ATTEMPTED.load(Ordering::Relaxed) as i128),
            ),
            (
                "failed".into(),
                Json::Int(FAILED.load(Ordering::Relaxed) as i128),
            ),
            ("metrics".into(), Json::Object(metrics)),
        ])
        .to_string_compact()
    }
}

/// Median of a nonempty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a nonempty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Whether a measuring loop starts another repetition: always until
/// `MIN_REPS` are done, then only if one more repetition as long as the
/// last is expected to end within the measuring time.
pub fn another_rep(started: Instant, seconds: Duration, reps: &[f64]) -> bool {
    const MIN_REPS: usize = 2;
    match reps.last() {
        _ if reps.len() < MIN_REPS => true,
        Some(last) => started.elapsed().as_secs_f64() + last <= seconds.as_secs_f64(),
        None => true,
    }
}

/// Runs `setup` at least `MIN` times and until the set-ups have taken
/// `BUDGET` seconds (at most `MAX` times), keeping the last result;
/// returns it with the median set-up time in seconds. A fast set-up is
/// repeated more often, so its median is as steady as a slow one's.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    const MIN: usize = 5;
    const MAX: usize = 31;
    const BUDGET: f64 = 1.5;
    let mut secs = Vec::with_capacity(MAX);
    let mut last = None;
    while secs.len() < MIN || (secs.iter().sum::<f64>() < BUDGET && secs.len() < MAX) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    let shown: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("perfbench: set-ups {} s", shown.join(" "));
    (last.expect("at least one set-up"), median(&secs))
}

/// The benchmark's own seed derivation: one SplitMix64 output for a
/// (workload seed, purpose) pair.
pub fn mix(seed: u64, salt: u64) -> u64 {
    crate::reference::RefRng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// `nproc`, CPU model and git revision of the checkout.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rev={}", git_rev())
}

/// The commit `.git/HEAD` names, read without running git; "unknown"
/// outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_operation_counts_as_failed_and_the_run_goes_on() {
        let (attempted, failed) = (
            ATTEMPTED.load(Ordering::Relaxed),
            FAILED.load(Ordering::Relaxed),
        );
        assert_eq!(attempt("ok", Duration::from_secs(5), || 7), Some(7));
        let panicked: Option<()> = attempt("panics", Duration::from_secs(5), || {
            panic!("isolated vertex")
        });
        assert_eq!(panicked, None);
        assert_eq!(ATTEMPTED.load(Ordering::Relaxed) - attempted, 2);
        assert_eq!(FAILED.load(Ordering::Relaxed) - failed, 1);
        assert!(
            DEADLINE.lock().unwrap().is_none(),
            "deadline cleared after the operation"
        );
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }
}
