//! The closed loop: one deployment stepped instant by instant, with
//! the workload's churn between instants, the console client, the measured
//! stretches and the single-worker replay that checks them.

use std::time::{Duration, Instant as Clock};

use serena_core::metrics::MetricsSink;
use serena_core::time::Instant;
use serena_pems::pems::{ExecOutcome, Pems};
use serena_pems::scheduler::SchedulerConfig;
use serena_services::bus::LocalErm;
use std::sync::Arc;

use crate::check::{Checker, Prefix, Tally};
use crate::probe::{LayerSink, ServiceProbe};
use crate::stats::{self, ms, ratio, Json};
use crate::workload::{Workload, BOOTSTRAP, CONSOLE};

/// Instants past warm-up covered by the single-worker replay.
const REPLAY_PAST_WARMUP: u64 = 2;

/// One deployment driven instant by instant.
pub struct Node<'w> {
    pub w: &'w Workload,
    pub pems: Pems,
    pub check: Checker,
    /// Whether reports are checked; off once the queries are unregistered.
    pub checking: bool,
    lerm: LocalErm,
    /// Sensors that left at the last churn instant; they rejoin at the next.
    away: Vec<usize>,
    /// Decorates rejoining sensors in the traced run.
    probe: Option<Arc<ServiceProbe>>,
    pub churn_calls: u64,
    pub churn_time: Duration,
}

/// What a deployment's set-up cost.
pub struct Setup {
    pub total: Duration,
    pub register: Duration,
}

impl<'w> Node<'w> {
    /// Deploy `w` and run the bootstrap instants.
    pub fn setup(
        w: &'w Workload,
        workers: usize,
        sink: Option<Arc<LayerSink>>,
        probe: Option<Arc<ServiceProbe>>,
    ) -> Result<(Node<'w>, Setup), String> {
        let started = Clock::now();
        let (pems, register) = w.deploy(workers, sink.map(|s| s as Arc<dyn MetricsSink>));
        let lerm = w.lerm(&pems);
        let mut node = Node {
            w,
            pems,
            check: Checker::new(w, w.warmup() + REPLAY_PAST_WARMUP),
            checking: true,
            lerm,
            away: Vec::new(),
            probe,
            churn_calls: 0,
            churn_time: Duration::ZERO,
        };
        for _ in 0..BOOTSTRAP {
            node.step()?;
        }
        let total = started.elapsed();
        Ok((node, Setup { total, register }))
    }

    /// One instant: the timed tick, the output check, then the churn the
    /// next instant will see.
    pub fn step(&mut self) -> Result<Duration, String> {
        let at = self.pems.clock();
        let started = Clock::now();
        let reports = self.pems.tick();
        let took = started.elapsed();
        if self.checking {
            self.check.instant(self.w, at, &reports)?;
        }
        drop(reports);
        self.churn();
        Ok(took)
    }

    fn churn(&mut self) {
        let now = self.pems.clock();
        if self.w.churn == 0 || now.ticks() < BOOTSTRAP {
            return;
        }
        let back = std::mem::take(&mut self.away);
        let leave = self.w.churn_at(now, &back.iter().copied().collect());
        for &i in &back {
            let mut svc = self.w.sensor_service(i);
            if let Some(probe) = &self.probe {
                svc = ServiceProbe::wrap(probe, svc);
            }
            let name = self.w.sensor_name(i);
            let started = Clock::now();
            self.lerm.register_service(name, svc, now);
            self.churn_time += started.elapsed();
        }
        for &i in &leave {
            let name = self.w.sensor_name(i);
            let started = Clock::now();
            self.lerm.unregister_service(name, now);
            self.churn_time += started.elapsed();
        }
        self.churn_calls += (back.len() + leave.len()) as u64;
        self.check.sensors_leave(now, &leave);
        self.away = leave;
    }

    /// Run instants until the replay prefix is complete.
    pub fn run_to_prefix(&mut self) -> Result<Prefix, String> {
        while self.check.prefix.is_none() {
            self.step()?;
        }
        Ok(self.check.prefix.clone().expect("prefix just completed"))
    }

    /// Serve the console's statements once, appending each latency.
    pub fn console(&mut self, latencies: &mut Vec<f64>, tally: &mut ConsoleTally) {
        let now = self.pems.clock();
        for (i, sql) in CONSOLE.iter().enumerate() {
            let expected = self.console_expectation(i);
            let started = Clock::now();
            let outcome = self.pems.run_sql(None, sql);
            latencies.push(ms(started.elapsed()));
            let rows = match outcome {
                Ok(ExecOutcome::OneShot(out)) => Ok(out.relation.len()),
                Ok(_) => Err("did not run one-shot".to_string()),
                Err(e) => Err(e.to_string()),
            };
            tally.record(i, now, expected, rows);
        }
    }

    /// `(β requests, expected failures)` of console statement `i` at the
    /// current instant, from the fleet model.
    pub fn console_expectation(&self, i: usize) -> (usize, usize) {
        if i == 0 {
            self.check.console_reading(self.w, self.pems.clock())
        } else {
            (self.w.office_cameras(), 0)
        }
    }

    /// Re-register every discovered service behind a timing decorator.
    pub fn decorate(&self, probe: &Arc<ServiceProbe>) {
        let directory = self.pems.directory();
        let registry = directory.registry();
        for reference in registry.references() {
            if let Some(svc) = registry.resolve(&reference) {
                let origin = registry.origin_of(&reference).unwrap_or_default();
                registry.register_from(reference, ServiceProbe::wrap(probe, svc), origin);
            }
        }
    }
}

#[derive(Default)]
pub struct ConsoleTally {
    pub attempted: u64,
    pub failed: u64,
    pub beta_requests: u64,
    pub beta_failures: u64,
    /// Per console statement: failed executions and the first failure.
    pub wrong: std::collections::BTreeMap<usize, (u64, String)>,
}

impl ConsoleTally {
    /// Judge console statement `i`'s outcome at `now` against its
    /// `(β requests, expected failures)`. A wrong result counts as a failed
    /// operation, like an error: it is reported in `failed` and
    /// `failed_ratio` and itemised in the provenance header.
    pub fn record(
        &mut self,
        i: usize,
        now: Instant,
        (requests, failing): (usize, usize),
        rows: Result<usize, String>,
    ) {
        self.attempted += 1;
        self.beta_requests += requests as u64;
        let wrong = match rows {
            Ok(n) if n == requests - failing => {
                self.beta_failures += failing as u64;
                return;
            }
            Ok(n) => format!("returned {n} rows, expected {}", requests - failing),
            Err(e) => format!("failed: {e}"),
        };
        self.failed += 1;
        let first = self.wrong.entry(i).or_insert((0, String::new()));
        if first.0 == 0 {
            eprintln!(
                "perfbench: instant {}: console statement {i} {wrong}",
                now.ticks()
            );
            first.1 = wrong;
        }
        first.0 += 1;
    }

    pub fn failures_json(&self) -> Json {
        Json::obj(self.wrong.iter().map(|(i, (n, first))| {
            (
                format!("statement{i}"),
                Json::obj([
                    ("sql", Json::Str(CONSOLE[*i].into())),
                    ("failed", Json::Int(*n)),
                    ("first", Json::Str(first.clone())),
                ]),
            )
        }))
    }
}

/// Ticks of one measured stretch, with the tally before and after it.
pub struct Stretch {
    pub ticks: Vec<f64>,
    /// Tuples ingested at each instant.
    pub tuples: Vec<u64>,
    pub before: Tally,
    pub after: Tally,
}

impl Stretch {
    pub fn instants(&self) -> f64 {
        self.ticks.len() as f64
    }

    /// Tuples ingested per second of tick over the whole stretch.
    pub fn throughput(&self) -> f64 {
        let tuples: u64 = self.tuples.iter().sum();
        ratio(tuples as f64 * 1e3, self.ticks.iter().sum())
    }
}

/// Drive `node` for `seconds` (and at least `min` instants), calling
/// `between` after each instant.
pub fn measure(
    node: &mut Node<'_>,
    seconds: f64,
    min: usize,
    mut between: impl FnMut(&mut Node<'_>) -> Result<(), String>,
) -> Result<Stretch, String> {
    let before = node.check.tally;
    let mut ticks = Vec::new();
    let mut tuples = Vec::new();
    let started = Clock::now();
    while ticks.len() < min || started.elapsed().as_secs_f64() < seconds {
        let ingested = node.check.tally.tuples_in;
        ticks.push(ms(node.step()?));
        tuples.push(node.check.tally.tuples_in - ingested);
        between(node)?;
    }
    Ok(Stretch {
        ticks,
        tuples,
        before,
        after: node.check.tally,
    })
}

/// Compare a replay's prefix with the measured deployment's. Returns the
/// prefix tally and the queries whose outputs agree only up to REAL
/// rounding (see `check::tuple_hash`).
pub fn same_prefix(
    w: &Workload,
    measured: Option<Prefix>,
    replay: &Prefix,
) -> Result<(Tally, Vec<String>), String> {
    let prefix = measured.ok_or("the measured run ended before its replay prefix")?;
    let names = w.queries.iter().map(|q| q.name.clone());
    let pairs: Vec<_> = names
        .zip(prefix.per_query.iter().zip(&replay.per_query))
        .collect();
    let differing: Vec<&str> = pairs
        .iter()
        .filter(|(_, (a, b))| a.0 != b.0)
        .map(|(n, _)| n.as_str())
        .collect();
    if prefix.tally != replay.tally || !differing.is_empty() {
        return Err(format!(
            "single-worker replay differs from the measured run over the first {} instants \
             in {differing:?}: {:?} vs {:?}",
            prefix.tally.instants, replay.tally, prefix.tally
        ));
    }
    let rounding_only = pairs
        .into_iter()
        .filter(|(_, (a, b))| a.1 != b.1)
        .map(|(n, _)| n)
        .collect();
    Ok((prefix.tally, rounding_only))
}

/// Replay the first instants of `w` on a fresh single-worker deployment.
pub fn replay(w: &Workload) -> Result<(Prefix, Setup), String> {
    let (mut node, setup) = Node::setup(w, stats::nproc(), None, None)?;
    node.pems.set_scheduler(SchedulerConfig::new(1));
    Ok((node.run_to_prefix()?, setup))
}
