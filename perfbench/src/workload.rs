//! The three workloads: fleet sizes, continuous-query mixes, fleet churn
//! and the console's one-shot statements. Each workload loads one layer
//! heavily and the others lightly:
//!
//! * `window_analytics` — a fast arrival trace under σ/π over `W[8]`, γ per
//!   location over `W[64]` and renamed windows joined with `cameras`, with
//!   no continuous β: stream operators do almost all the work.
//! * `beta_fleet` — eight overlapping `βˢ getTemperature[sensor]` queries
//!   at period 1 over 4·10³ flaky sensors and a trickle of arrivals: the β
//!   path (dedup, resilience, registry, device body) and the scheduler do
//!   almost all the work.
//! * `e16_console` — the 120-query, 10⁴-sensor headline mix with 1% of the
//!   sensors leaving or rejoining each instant: the only workload where
//!   discovery writes run beside continuous reads at scale.
//!
//! Every workload also serves the console's one-shot statements between
//! instants. `BENCHMARK.json` runs `window_analytics` and `e16_console`,
//! which between them reach every layer; `beta_fleet` isolates the β path
//! for runs by hand, since on a small shared host a third workload leaves
//! too little time per run for steady figures.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use serena_core::formula::Formula;
use serena_core::metrics::MetricsSink;
use serena_core::ops::{AggFun, AggSpec, DegradePolicy};
use serena_core::physical::ExecOptions;
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_pems::envspec::{ArrivalTrace, EnvSpec, MessengerFleet};
use serena_pems::pems::Pems;
use serena_pems::scheduler::SchedulerConfig;
use serena_services::bus::{BusConfig, LocalErm};
use serena_services::devices::temperature::SimTemperatureSensor;
use serena_services::fleet::{mix64, FailureProfile, FlakyService};
use serena_services::resilience::ResiliencePolicy;
use serena_stream::plan::StreamPlan;

/// Instants before discovery has landed: services announced at instant 0
/// reach the registry at instant 1 (bus announce latency 1), and the
/// provider tables are refreshed in that same tick.
pub const BOOTSTRAP: u64 = 2;

/// The LERM every fleet registers behind (the `EnvSpec` default).
const LERM: &str = "building";

/// Zipf failure profile shared by every workload: the flakiest sensor fails
/// 20% of its instants. The exponent 0.5 spreads faults over ~1.6·10³ ranks,
/// so the failure count of a run does not hinge on whether one seed happens
/// to draw the rank-1 device.
pub const FAILURES: FailureProfile = FailureProfile {
    max_rate: 0.2,
    exponent: 0.5,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WindowAnalytics,
    BetaFleet,
    E16Console,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WindowAnalytics, Kind::BetaFleet, Kind::E16Console];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WindowAnalytics => "window_analytics",
            Kind::BetaFleet => "beta_fleet",
            Kind::E16Console => "e16_console",
        }
    }
}

/// What the output check expects of one continuous query, derived from the
/// generated inputs alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `σ_{temperature > θ}(W[w](temperatures))`.
    Hot { window: u64, theta: f64 },
    /// `σ_{location = area}(W[w](temperatures))`.
    Area { window: u64, area: String },
    /// Any other query over the `temperatures` stream: only its source
    /// count is predicted.
    Stream,
    /// The discovered-sensor inventory: `sensors` as a relation.
    Inventory,
    /// The discovered-camera inventory: `cameras` as a relation.
    Cameras,
    /// `βˢ getTemperature[sensor]` at period 1 over `sensors`.
    Sampled,
}

pub struct Query {
    pub name: String,
    pub plan: StreamPlan,
    pub expect: Expect,
}

/// One workload at one seed.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub sensors: usize,
    pub cameras: usize,
    pub messengers: usize,
    /// Mean `temperatures` arrivals per instant.
    pub arrivals: usize,
    /// Sensors that leave (and, one instant later, rejoin) per instant.
    pub churn: usize,
    /// The largest window period of any query.
    pub largest_window: u64,
    pub queries: Vec<Query>,
    pub spec: EnvSpec,
}

fn q(name: String, plan: StreamPlan, expect: Expect) -> Query {
    Query { name, plan, expect }
}

fn temps(window: u64) -> StreamPlan {
    StreamPlan::source("temperatures").window(window)
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let areas = EnvSpec::new(seed).area_names().to_vec();
        let area = |i: usize| areas[i % areas.len()].clone();
        let mut queries = Vec::new();
        let (sensors, cameras, messengers, arrivals, churn, largest_window) = match kind {
            Kind::WindowAnalytics => {
                for i in 0..8 {
                    let theta = 20.0 + 1.5 * i as f64;
                    let plan = temps(8).select(Formula::gt_const("temperature", theta));
                    queries.push(q(
                        format!("hot{i:03}"),
                        plan,
                        Expect::Hot { window: 8, theta },
                    ));
                }
                for i in 0..4 {
                    let plan = temps(8).select(Formula::eq_const("location", area(i).as_str()));
                    let expect = Expect::Area {
                        window: 8,
                        area: area(i),
                    };
                    queries.push(q(format!("area{i:03}"), plan, expect));
                }
                for i in 0..4 {
                    let attr = if i % 2 == 0 {
                        "location"
                    } else {
                        "temperature"
                    };
                    let plan = temps(8).project([attr]);
                    queries.push(q(format!("recent{i:03}"), plan, Expect::Stream));
                }
                for i in 0..6 {
                    let aggs = match i % 3 {
                        0 => vec![AggSpec::new(AggFun::Count, "temperature")],
                        1 => vec![AggSpec::new(AggFun::Avg, "temperature")],
                        _ => vec![
                            AggSpec::new(AggFun::Min, "temperature"),
                            AggSpec::new(AggFun::Max, "temperature"),
                        ],
                    };
                    let plan = temps(64).aggregate(["location"], aggs);
                    queries.push(q(format!("stats{i:03}"), plan, Expect::Stream));
                }
                for i in 0..6 {
                    let plan = temps(1 + i as u64 % 2)
                        .rename("location", "area")
                        .join(StreamPlan::source("cameras"));
                    queries.push(q(format!("join{i:03}"), plan, Expect::Stream));
                }
                queries.push(q(
                    "inventory000".into(),
                    StreamPlan::source("sensors"),
                    Expect::Inventory,
                ));
                (500, 10, 3, 4096, 0, 64)
            }
            Kind::BetaFleet => {
                for i in 0..8 {
                    let plan =
                        StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1);
                    queries.push(q(format!("sampled{i:03}"), plan, Expect::Sampled));
                }
                let plan = temps(4).select(Formula::gt_const("temperature", 30.0));
                queries.push(q(
                    "hot000".into(),
                    plan,
                    Expect::Hot {
                        window: 4,
                        theta: 30.0,
                    },
                ));
                queries.push(q(
                    "inventory000".into(),
                    StreamPlan::source("sensors"),
                    Expect::Inventory,
                ));
                queries.push(q(
                    "cameras000".into(),
                    StreamPlan::source("cameras"),
                    Expect::Cameras,
                ));
                (4000, 10, 3, 16, 0, 4)
            }
            Kind::E16Console => {
                // The scale bench's 120-query headline mix, with βˢ at
                // period 1 so every instant does the same work.
                let counts = [
                    ("hot", 44),
                    ("area", 36),
                    ("recent", 30),
                    ("inventory", 3),
                    ("cameras", 1),
                    ("sampled", 6),
                ];
                for (prefix, n) in counts {
                    for i in 0..n {
                        let name = format!("{prefix}{i:03}");
                        let (plan, expect) = match prefix {
                            "hot" => {
                                let theta = 30.0 + (i % 4) as f64;
                                let plan = temps(4).select(Formula::gt_const("temperature", theta));
                                (plan, Expect::Hot { window: 4, theta })
                            }
                            "area" => {
                                let plan = temps(4)
                                    .select(Formula::eq_const("location", area(i).as_str()));
                                (
                                    plan,
                                    Expect::Area {
                                        window: 4,
                                        area: area(i),
                                    },
                                )
                            }
                            "recent" => (temps(8).project(["location"]), Expect::Stream),
                            "inventory" => (StreamPlan::source("sensors"), Expect::Inventory),
                            "cameras" => (StreamPlan::source("cameras"), Expect::Cameras),
                            _ => (
                                StreamPlan::source("sensors").sample_invoke(
                                    "getTemperature",
                                    "sensor",
                                    1,
                                ),
                                Expect::Sampled,
                            ),
                        };
                        queries.push(q(name, plan, expect));
                    }
                }
                (10_000, 200, 30, 256, 50, 8)
            }
        };
        let spec = EnvSpec::new(seed)
            .sensors(sensors)
            .cameras(cameras)
            .messengers(MessengerFleet::Indexed(messengers))
            .failures(FAILURES)
            .arrivals(
                ArrivalTrace::new(seed)
                    .mean_per_tick(arrivals)
                    .activity_exponent(2.0),
            )
            .bus(BusConfig::default());
        Workload {
            kind,
            seed,
            spec,
            sensors,
            cameras,
            messengers,
            arrivals,
            churn,
            largest_window,
            queries,
        }
    }

    /// Instants run before any is measured: discovery landing plus the
    /// largest window period, so windows hold their steady-state content.
    pub fn warmup(&self) -> u64 {
        BOOTSTRAP + self.largest_window
    }

    /// The sensor service exactly as `EnvSpec::deploy_into` builds it, for
    /// churned sensors that rejoin.
    pub fn sensor_service(&self, index: usize) -> Arc<dyn Service> {
        let svc = SimTemperatureSensor::room(self.seed.wrapping_add(index as u64)).into_service();
        FlakyService::wrap(
            svc,
            mix64(self.seed, index as u64, 0xF1EE7),
            FAILURES.rate_for(self.seed, index as u64, self.sensors as u64),
        )
    }

    /// Whether sensor `index` fails at `at` — the fault schedule the spec
    /// realizes through `FlakyService`, predicted from the seed alone.
    pub fn sensor_fails(&self, index: usize, at: Instant) -> bool {
        let rate = FAILURES.rate_for(self.seed, index as u64, self.sensors as u64);
        let pct = (rate.clamp(0.0, 1.0) * 100.0).round() as u64;
        pct > 0 && mix64(mix64(self.seed, index as u64, 0xF1EE7), at.ticks(), 0xF1A6) % 100 < pct
    }

    /// The sensors that leave at instant `at`: `churn` distinct indices
    /// drawn from the seed among the sensors `present` (those not already
    /// away). They rejoin one instant later.
    pub fn churn_at(&self, at: Instant, away: &BTreeSet<usize>) -> Vec<usize> {
        let mut picked = BTreeSet::new();
        let mut k = 0u64;
        while picked.len() < self.churn.min(self.sensors.saturating_sub(away.len())) {
            let i = (mix64(self.seed, at.ticks(), 0xC4_0000 + k) % self.sensors as u64) as usize;
            k += 1;
            if !away.contains(&i) {
                picked.insert(i);
            }
        }
        picked.into_iter().collect()
    }

    /// Deploy the workload: runtime, catalog, fleet and queries, with the
    /// scheduler at `workers`. Discovery has not landed yet; see
    /// [`BOOTSTRAP`]. Returns the runtime and the time spent registering the
    /// queries.
    pub fn deploy(&self, workers: usize, sink: Option<Arc<dyn MetricsSink>>) -> (Pems, Duration) {
        let spec = &self.spec;
        let mut builder = Pems::builder()
            .bus(BusConfig::default())
            .scheduler(SchedulerConfig::new(workers))
            .dedup(true)
            .tracing(false)
            .resilience(ResiliencePolicy::disabled().with_retries(1))
            .exec_options(ExecOptions::default().with_degrade(DegradePolicy::DropTuple));
        if let Some(sink) = sink {
            builder = builder.metrics(sink);
        }
        let mut pems = builder.build();
        spec.install_catalog(&mut pems)
            .expect("standard catalog installs");
        spec.deploy_into(&pems);
        let started = std::time::Instant::now();
        pems.register_queries(
            self.queries
                .iter()
                .map(|q| (q.name.clone(), q.plan.clone())),
        )
        .expect("workload queries register");
        (pems, started.elapsed())
    }

    pub fn lerm(&self, pems: &Pems) -> LocalErm {
        pems.local_erm(LERM)
    }

    /// Cameras the console's photo check reaches.
    pub fn office_cameras(&self) -> usize {
        (0..self.cameras)
            .filter(|i| self.spec.area_of(*i) == "office")
            .count()
    }

    pub fn sensor_name(&self, index: usize) -> String {
        self.spec.sensor_name(index)
    }
}

/// The console client's statements: a Q1-like live reading of the office
/// sensors and a Q2-like photo check of the office cameras. Every workload
/// keeps both tables under a continuous query, which commits each refresh
/// (see `check::stale_table_probe` for why that matters). The check runs
/// three times per reading so that the median falls inside the check's
/// latency mode and p90 inside the reading's, never between the two.
pub const CONSOLE: [&str; 4] = [
    "SELECT sensor, temperature FROM sensors USING getTemperature[sensor] WHERE location = 'office';",
    "SELECT camera, quality FROM cameras USING checkPhoto[camera] WHERE area = 'office';",
    "SELECT camera, quality FROM cameras USING checkPhoto[camera] WHERE area = 'office';",
    "SELECT camera, quality FROM cameras USING checkPhoto[camera] WHERE area = 'office';",
];
