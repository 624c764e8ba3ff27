//! The traced run: per-layer metrics measured from outside, by timing calls
//! into each layer's public functions and reading the counts they return.

use std::sync::Arc;
use std::time::{Duration, Instant as Clock};

use serena_core::metrics::OpKind;
use serena_ddl::resolve::to_one_shot;
use serena_ddl::Statement;
use serena_pems::scheduler::SchedulerConfig;

use crate::node::{measure, replay, same_prefix, ConsoleTally, Node, Stretch};
use crate::probe::{Fold, LayerSink, ServiceProbe};
use crate::stats::{self, median, ms, ratio, Json, Metrics};
use crate::workload::{Workload, CONSOLE};
use crate::{provenance, steadiness, tally_json, Args, Outcome, MIN_INSTANTS};

/// One traced stretch: its ticks plus what the instruments folded.
struct Traced {
    stretch: Stretch,
    fold: Fold,
    calls: u64,
    call_failures: u64,
    body: Duration,
    dedup: (u64, u64),
    retries: u64,
    breaker_opens: u64,
}

fn traced_stretch(
    node: &mut Node<'_>,
    sink: &LayerSink,
    probe: &ServiceProbe,
    seconds: f64,
) -> Result<Traced, String> {
    let dedup0 = node.pems.dedup_stats();
    let res0 = node.pems.resilience_counters();
    sink.take();
    probe.take();
    sink.arm(true);
    probe.arm(true);
    let stretch = measure(node, seconds, MIN_INSTANTS / 2, |_| Ok(()))?;
    sink.arm(false);
    probe.arm(false);
    let (calls, call_failures, body) = probe.take();
    let dedup1 = node.pems.dedup_stats();
    let res1 = node.pems.resilience_counters();
    Ok(Traced {
        stretch,
        fold: sink.take(),
        calls,
        call_failures,
        body,
        dedup: (dedup1.0 - dedup0.0, dedup1.1 - dedup0.1),
        retries: res1.retries - res0.retries,
        breaker_opens: res1.breaker_opened - res0.breaker_opened,
    })
}

/// The per-layer run.
pub fn traced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let workers = stats::nproc();
    let sink = Arc::new(LayerSink::default());
    let probe = Arc::new(ServiceProbe::default());
    let (mut node, setup) = Node::setup(
        w,
        workers,
        Some(Arc::clone(&sink)),
        Some(Arc::clone(&probe)),
    )?;
    node.decorate(&probe);
    // warm up armed, so the replayed prefix covers traced instants
    sink.arm(true);
    probe.arm(true);
    while node.check.tally.instants < w.warmup() {
        node.step()?;
    }
    sink.arm(false);
    probe.arm(false);
    let quarter = args.seconds / 4.0;
    let untraced = measure(&mut node, quarter, MIN_INSTANTS / 2, |_| Ok(()))?;
    let wide = traced_stretch(&mut node, &sink, &probe, quarter)?;
    node.pems.set_scheduler(SchedulerConfig::new(1));
    let churn0 = (node.churn_calls, node.churn_time);
    let serial = traced_stretch(&mut node, &sink, &probe, quarter)?;
    let churn_calls = node.churn_calls - churn0.0;
    let churn_time = node.churn_time - churn0.1;

    // console layers, with the continuous-query sink disarmed
    let oneshot_sink = LayerSink::default();
    oneshot_sink.arm(true);
    let (mut compile_us, mut env_ms, mut exec_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut console = ConsoleTally::default();
    let console_started = Clock::now();
    while console.attempted < 4 * CONSOLE.len() as u64
        || console_started.elapsed().as_secs_f64() < quarter / 2.0
    {
        for (i, sql) in CONSOLE.iter().enumerate() {
            let started = Clock::now();
            let compiled = serena_ddl::sql::compile_select(sql, node.pems.tables())
                .map_err(|e| format!("compile: {e}"))?;
            compile_us.push(started.elapsed().as_secs_f64() * 1e6);
            let plan = to_one_shot(&compiled).ok_or("console statement is not one-shot")?;
            let started = Clock::now();
            let env = std::hint::black_box(node.pems.snapshot_environment());
            let env_took = ms(started.elapsed());
            env_ms.push(env_took);
            drop(env);
            let expected = node.console_expectation(i);
            let started = Clock::now();
            let result = node.pems.one_shot_with(&plan, &oneshot_sink);
            exec_ms.push((ms(started.elapsed()) - env_took).max(0.0));
            let rows = result
                .map(|out| out.relation.len())
                .map_err(|e| e.to_string());
            console.record(i, node.pems.clock(), expected, rows);
        }
    }
    let oneshots = console.attempted;
    let oneshot_fold = oneshot_sink.take();

    let snapshot_started = Clock::now();
    let snapshot = node.pems.snapshot_bytes();
    let snapshot_took = snapshot_started.elapsed();

    // idle calibration: the same deployment with every query unregistered
    node.checking = false;
    for q in &w.queries {
        node.pems
            .run_statement(&Statement::UnregisterQuery {
                name: q.name.clone(),
            })
            .map_err(|e| format!("unregister: {e}"))?;
    }
    let idle = measure(&mut node, quarter / 2.0, MIN_INSTANTS / 2, |_| Ok(()))?;
    let traced_instants = wide.stretch.ticks.len() + serial.stretch.ticks.len();

    let (replayed, _) = replay(w)?;
    let (prefix, rounding_only) = same_prefix(w, node.check.prefix.clone(), &replayed)?;

    let per = |total: f64, s: &Stretch| ratio(total, s.instants());
    let s = &serial.stretch;
    let tick_ms = per(s.ticks.iter().sum(), s);
    let idle_ms = per(idle.ticks.iter().sum(), &idle);
    let ops_ms = per(ms(serial.fold.total_self()), s);
    let beta_ops = [OpKind::Invoke, OpKind::SampleInvoke];
    let beta_self_ms = per(
        beta_ops
            .iter()
            .map(|k| ms(serial.fold.kind(*k).self_time))
            .sum(),
        s,
    );
    let beta_requests = per(
        beta_ops
            .iter()
            .map(|k| serial.fold.kind(*k).invocations as f64)
            .sum(),
        s,
    );
    let cache = beta_ops.iter().fold((0u64, 0u64), |(h, m), k| {
        let t = serial.fold.kind(*k);
        (h + t.cache_hits, m + t.cache_misses)
    });
    let body_ms = per(ms(serial.body), s);

    let mut m = Metrics::default();
    m.put("pems.tick_ms", tick_ms, "ms");
    m.put("pems.idle_tick_ms", idle_ms, "ms");
    m.put("pems.residual_ms", tick_ms - idle_ms - ops_ms, "ms");
    m.put("pems.coverage", ratio(idle_ms + ops_ms, tick_ms), "ratio");
    m.put("pems.register_ms", ms(setup.register), "ms");
    m.put(
        "pems.trace_overhead",
        ratio(median(&wide.stretch.ticks), median(&untraced.ticks)) - 1.0,
        "ratio",
    );

    let wide_wall_ms: f64 = wide.stretch.ticks.iter().sum();
    let lanes: Vec<f64> = wide.fold.lanes.values().map(|d| ms(*d)).collect();
    let mean_lane = ratio(lanes.iter().sum(), lanes.len() as f64);
    m.put("scheduler.lanes", lanes.len() as f64, "count");
    m.put(
        "scheduler.lane_busy",
        ratio(mean_lane, wide_wall_ms),
        "ratio",
    );
    m.put(
        "scheduler.lane_skew",
        ratio(lanes.iter().copied().fold(0.0, f64::max), mean_lane),
        "ratio",
    );
    m.put(
        "scheduler.speedup",
        ratio(wide.stretch.throughput(), s.throughput()),
        "ratio",
    );

    for (name, op) in STREAM_KINDS {
        let k = serial.fold.kind(op);
        m.put(
            format!("stream.{name}.self_ms"),
            per(ms(k.self_time), s),
            "ms",
        );
        m.put(
            format!("stream.{name}.tuples_in"),
            per(k.tuples_in as f64, s),
            "count",
        );
        m.put(
            format!("stream.{name}.tuples_out"),
            per(k.tuples_out as f64, s),
            "count",
        );
        m.put(
            format!("stream.{name}.ns_per_tuple"),
            ratio(
                k.self_time.as_nanos() as f64,
                k.tuples_in.max(k.tuples_out) as f64,
            ),
            "ns",
        );
    }

    m.put("beta.requests", beta_requests, "count");
    m.put("beta.self_ms", beta_self_ms, "ms");
    m.put(
        "beta.dedup_hit_ratio",
        ratio(
            serial.dedup.0 as f64,
            (serial.dedup.0 + serial.dedup.1) as f64,
        ),
        "ratio",
    );
    m.put(
        "beta.cache_hit_ratio",
        ratio(cache.0 as f64, (cache.0 + cache.1) as f64),
        "ratio",
    );
    m.put(
        "beta.failures",
        per(
            beta_ops
                .iter()
                .map(|k| serial.fold.kind(*k).failures as f64)
                .sum(),
            s,
        ),
        "count",
    );
    m.put(
        "beta.stack_us",
        ratio((beta_self_ms - body_ms) * 1e3, beta_requests),
        "us",
    );

    m.put("services.calls", per(serial.calls as f64, s), "count");
    m.put("services.body_ms", body_ms, "ms");
    m.put(
        "services.body_us",
        ratio(serial.body.as_secs_f64() * 1e6, serial.calls as f64),
        "us",
    );
    m.put(
        "services.failed_ratio",
        ratio(serial.call_failures as f64, serial.calls as f64),
        "ratio",
    );
    m.put("services.retries", per(serial.retries as f64, s), "count");
    m.put(
        "services.breaker_opens",
        serial.breaker_opens as f64,
        "count",
    );
    m.put(
        "services.churn_us",
        ratio(churn_time.as_secs_f64() * 1e6, churn_calls as f64),
        "us",
    );

    m.put("ddl.compile_us", median(&compile_us), "us");
    m.put("tables.env_snapshot_ms", median(&env_ms), "ms");
    m.put("oneshot.exec_ms", median(&exec_ms), "ms");
    let oneshot_requests: u64 = beta_ops
        .iter()
        .map(|k| oneshot_fold.kind(*k).invocations)
        .sum();
    m.put(
        "oneshot.beta.requests",
        ratio(oneshot_requests as f64, oneshots as f64),
        "count",
    );

    m.put("snapshot.bytes", snapshot.len() as f64, "bytes");
    m.put(
        "snapshot.ns_per_byte",
        ratio(snapshot_took.as_nanos() as f64, snapshot.len() as f64),
        "ns",
    );

    let layers = [
        ("pems.idle_tick_ms", idle_ms),
        ("beta.self_ms", beta_self_ms),
        ("stream.non_beta_ms", ops_ms - beta_self_ms),
    ];
    let largest = layers
        .iter()
        .copied()
        .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    let header = provenance(
        w,
        args,
        vec![
            (
                "samples",
                Json::obj([
                    ("untraced_ticks", Json::Int(untraced.ticks.len() as u64)),
                    (
                        "traced_ticks_wide",
                        Json::Int(wide.stretch.ticks.len() as u64),
                    ),
                    ("traced_ticks_serial", Json::Int(s.ticks.len() as u64)),
                    ("idle_ticks", Json::Int(idle.ticks.len() as u64)),
                    ("oneshots", Json::Int(oneshots)),
                ]),
            ),
            ("untraced_tick_p50_ms", Json::Num(median(&untraced.ticks))),
            ("traced_tick_p50_ms", Json::Num(median(&wide.stretch.ticks))),
            (
                "coverage_gate",
                Json::Bool(ratio(idle_ms + ops_ms, tick_ms) >= 0.9),
            ),
            ("largest_layer", Json::Str(largest.0.into())),
            ("steadiness", steadiness(&s.ticks)),
            ("check", tally_json(&node.check.tally)),
            ("replay", tally_json(&prefix)),
            ("console_failures", console.failures_json()),
            (
                "replay_real_rounding_only",
                Json::Arr(rounding_only.into_iter().map(Json::Str).collect()),
            ),
        ],
    );
    Ok(Outcome {
        header,
        attempted: (traced_instants + idle.ticks.len()) as u64 + oneshots,
        failed: console.failed,
        metrics: m,
    })
}

/// Operator kinds reported under `stream.<name>`.
const STREAM_KINDS: [(&str, OpKind); 9] = [
    ("source", OpKind::Source),
    ("window", OpKind::Window),
    ("select", OpKind::Select),
    ("project", OpKind::Project),
    ("rename", OpKind::Rename),
    ("join", OpKind::Join),
    ("aggregate", OpKind::Aggregate),
    ("relation", OpKind::Relation),
    ("sample_invoke", OpKind::SampleInvoke),
];
