//! Serena PEMS benchmark: end-to-end metrics per workload, and a traced
//! run that attributes tick time to the layers below from the outside.
//!
//! ```text
//! perfbench --workload <window_analytics|beta_fleet|e16_console>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The load is a closed loop on one client thread: the next instant starts
//! when `Pems::tick` returns, and between instants the client applies the
//! workload's fleet churn and serves the console's one-shot statements. The
//! scheduler runs one worker per core; simulated device sleeps are off, and
//! faults come from the seed's pure per-instant failure schedule.
//!
//! Every run checks every instant's output against a model derived from the
//! generated inputs (see `check`), and replays its first instants on a
//! fresh single-worker deployment, which must produce the same exact counts
//! and digest. A mismatch exits with status 1 and prints no metrics.
//!
//! The last stdout line is the result: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`). The
//! line before it is the provenance header: host, build, sizes, sample
//! counts, the steadiness guard and the output digest.

mod check;
mod node;
mod probe;
mod stats;
mod traced;
mod workload;

use std::time::Instant as Clock;

use check::Tally;
use node::{measure, replay, same_prefix, ConsoleTally, Node};
use stats::{mean, median, ms, quantile, ratio, Json, Metrics};
use workload::{Kind, Workload};

const USAGE: &str = "usage: perfbench --workload <window_analytics|beta_fleet|e16_console> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Share of the measured run's wall time spent on recovery rounds: a
/// snapshot of the running node, then a fresh set-up restored from it.
/// Spreading the rounds over the run lets their samples see the host as the
/// ticks do, rather than in one burst at the end.
const RECOVERY_SHARE: f64 = 0.2;
/// Share of the measured run's wall time spent on further snapshots between
/// recovery rounds: a snapshot is much cheaper than a round, so rounds
/// alone leave too few snapshot samples on a large state.
const SNAPSHOT_SHARE: f64 = 0.1;
/// Recovery rounds a timed run makes even when `--seconds` has passed.
const MIN_RECOVERIES: usize = 3;
/// Measured instants a run makes even when `--seconds` has passed.
const MIN_INSTANTS: usize = 20;
/// Median-tick ratio of the last to the first quarter of the measured
/// instants above which the run is flagged as still trending.
const TREND_LIMIT: f64 = 1.1;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn provenance(w: &Workload, args: &Args, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(w.kind.name().into())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(stats::nproc() as u64)),
        ("workers", Json::Int(stats::nproc() as u64)),
        ("git_rev", Json::Str(stats::git_rev())),
        ("profile", Json::Str(stats::profile().into())),
        (
            "sizes",
            Json::obj([
                ("sensors", Json::Int(w.sensors as u64)),
                ("cameras", Json::Int(w.cameras as u64)),
                ("messengers", Json::Int(w.messengers as u64)),
                ("arrivals_per_instant", Json::Int(w.arrivals as u64)),
                ("queries", Json::Int(w.queries.len() as u64)),
                ("churn_per_instant", Json::Int(2 * w.churn as u64)),
            ]),
        ),
        ("warmup_instants", Json::Int(w.warmup())),
        ("known_defects", check::stale_table_probe(w.seed, 4)),
    ];
    fields.extend(extra);
    Json::obj([("provenance", Json::obj(fields))])
}

fn tally_json(t: &Tally) -> Json {
    Json::obj([
        ("instants", Json::Int(t.instants)),
        ("tuples_in", Json::Int(t.tuples_in)),
        ("tuples_out", Json::Int(t.tuples_out)),
        ("errors", Json::Int(t.errors)),
        ("beta_requests", Json::Int(t.beta_requests)),
        ("digest", Json::Str(format!("{:016x}", t.digest))),
    ])
}

/// Median tick of the first and last quarter of a stretch, and whether the
/// last exceeds the first by more than [`TREND_LIMIT`].
fn steadiness(ticks: &[f64]) -> Json {
    let q = (ticks.len() / 4).max(1);
    let first = median(&ticks[..q]);
    let last = median(&ticks[ticks.len() - q..]);
    Json::obj([
        ("first_quarter_p50_ms", Json::Num(first)),
        ("last_quarter_p50_ms", Json::Num(last)),
        ("trend", Json::Bool(last > first * TREND_LIMIT)),
    ])
}

struct Outcome {
    header: Json,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Timed samples of recovery rounds.
#[derive(Default)]
struct Recovery {
    setups: Vec<f64>,
    snapshot_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    snapshot_bytes: usize,
}

impl Recovery {
    /// One round: snapshot `node`, set up a fresh deployment as a
    /// recovering node would and restore the snapshot into it. The restored
    /// runtime must snapshot to the same bytes.
    fn round(&mut self, node: &Node<'_>) -> Result<(), String> {
        let snapshot = self.snapshot(node);
        let (mut fresh, setup) = Node::setup(node.w, stats::nproc(), None, None)?;
        self.setups.push(setup.total.as_secs_f64());
        let started = Clock::now();
        fresh
            .pems
            .restore_bytes(&snapshot)
            .map_err(|e| format!("restore: {e}"))?;
        self.restore_ms.push(ms(started.elapsed()));
        if fresh.pems.snapshot_bytes() != snapshot {
            return Err("the restored runtime snapshots differently".into());
        }
        self.snapshot_bytes = snapshot.len();
        Ok(())
    }

    /// A timed snapshot of `node`.
    fn snapshot(&mut self, node: &Node<'_>) -> Vec<u8> {
        let started = Clock::now();
        let snapshot = node.pems.snapshot_bytes();
        self.snapshot_ms.push(ms(started.elapsed()));
        snapshot
    }
}

/// Mean, median, p90 and sample count of a metric's samples.
fn spread_json(samples: &[f64]) -> Json {
    Json::obj([
        ("n", Json::Int(samples.len() as u64)),
        ("mean", Json::Num(mean(samples))),
        ("p50", Json::Num(median(samples))),
        ("p90", Json::Num(quantile(samples, 0.9))),
    ])
}

/// The end-to-end run.
fn timed(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let (mut node, setup) = Node::setup(w, stats::nproc(), None, None)?;
    let mut recovery = Recovery::default();
    recovery.setups.push(setup.total.as_secs_f64());
    while node.check.tally.instants < w.warmup() {
        node.step()?;
    }

    let mut latencies = Vec::new();
    let mut console = ConsoleTally::default();
    let (mut next_round, mut next_snapshot) = (Clock::now(), Clock::now());
    let run = measure(&mut node, args.seconds, MIN_INSTANTS, |node| {
        node.console(&mut latencies, &mut console);
        let started = Clock::now();
        if started >= next_round {
            recovery.round(node)?;
            next_round = Clock::now() + started.elapsed().div_f64(RECOVERY_SHARE);
        } else if started >= next_snapshot {
            std::hint::black_box(recovery.snapshot(node));
            next_snapshot = Clock::now() + started.elapsed().div_f64(SNAPSHOT_SHARE);
        }
        Ok(())
    })?;
    while recovery.restore_ms.len() < MIN_RECOVERIES {
        recovery.round(&node)?;
    }
    if node.pems.snapshot_bytes() != node.pems.snapshot_bytes() {
        return Err("two snapshots of an idle runtime differ".into());
    }
    let measured = node.check.tally;
    let measured_prefix = node.check.prefix.clone();
    drop(node);

    let (replayed, setup) = replay(w)?;
    recovery.setups.push(setup.total.as_secs_f64());
    let (prefix, rounding_only) = same_prefix(w, measured_prefix, &replayed)?;

    let delta = |f: fn(&Tally) -> u64| f(&run.after) - f(&run.before);
    let beta_requests = delta(|t| t.beta_requests) + console.beta_requests;
    let beta_failures = delta(|t| t.errors) + console.beta_failures;
    let mut metrics = Metrics::default();
    metrics.put("tuples_per_s", run.throughput(), "1/s");
    metrics.put("tick_p50_ms", median(&run.ticks), "ms");
    metrics.put("tick_p90_ms", quantile(&run.ticks, 0.9), "ms");
    metrics.put("setup_s", median(&recovery.setups), "s");
    metrics.put("snapshot_ms", mean(&recovery.snapshot_ms), "ms");
    metrics.put("restore_ms", mean(&recovery.restore_ms), "ms");
    metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    metrics.put(
        "failed_ratio",
        ratio(
            (beta_failures + console.failed) as f64,
            (beta_requests + console.attempted) as f64,
        ),
        "ratio",
    );
    metrics.put("oneshot_p50_ms", median(&latencies), "ms");
    metrics.put("oneshot_p90_ms", quantile(&latencies, 0.9), "ms");

    let header = provenance(
        w,
        args,
        vec![
            ("measured_instants", Json::Int(run.ticks.len() as u64)),
            (
                "samples",
                Json::obj([
                    ("tick_ms", spread_json(&run.ticks)),
                    ("oneshot_ms", spread_json(&latencies)),
                    ("setup_s", spread_json(&recovery.setups)),
                    ("snapshot_ms", spread_json(&recovery.snapshot_ms)),
                    ("restore_ms", spread_json(&recovery.restore_ms)),
                ]),
            ),
            ("steadiness", steadiness(&run.ticks)),
            ("snapshot_bytes", Json::Int(recovery.snapshot_bytes as u64)),
            ("check", tally_json(&measured)),
            ("replay", tally_json(&prefix)),
            (
                "replay_real_rounding_only",
                Json::Arr(rounding_only.into_iter().map(Json::Str).collect()),
            ),
            ("console_failures", console.failures_json()),
        ],
    );
    Ok(Outcome {
        header,
        attempted: run.ticks.len() as u64 + console.attempted,
        failed: console.failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = Workload::new(args.kind, args.seed);
    let outcome = if args.trace {
        traced::traced(&w, &args)
    } else {
        timed(&w, &args)
    };
    match outcome {
        Ok(out) => {
            println!("{}", out.header.render());
            let result = Json::obj([
                ("correct", Json::Bool(true)),
                ("attempted", Json::Int(out.attempted)),
                ("failed", Json::Int(out.failed)),
                ("metrics", out.metrics.to_json()),
            ]);
            println!("{}", result.render());
        }
        Err(e) => {
            eprintln!("perfbench: output check failed: {e}");
            std::process::exit(1);
        }
    }
}
