//! Resilience-stage overhead: the same β-heavy plan executed through a
//! bare invoker vs the β pipeline's retry/breaker stage (retry budget +
//! deadline accounting + circuit breaker, no dedup and no telemetry on
//! either arm) with *no faults injected* — the price paid on the happy
//! path.
//!
//! ```sh
//! cargo bench -p serena-bench --bench resilience_overhead
//! ```
//!
//! Writes `BENCH_resilience.json` (override with `SERENA_BENCH_OUT`). When
//! `SERENA_BENCH_ASSERT_OVERHEAD_PCT` is set (CI smoke), the process exits
//! nonzero if the measured relative overhead exceeds that bound.

use std::time::Duration;

use serena_bench::criterion_group;
use serena_bench::harness::{take_records, BenchRecord, BenchmarkId, Criterion, Throughput};
use serena_bench::workload;

use serena_core::exec::ExecContext;
use serena_core::plan::Plan;
use serena_core::service::Invoker;
use serena_core::time::Instant;
use serena_services::pipeline::BetaPipeline;
use serena_services::resilience::{ResiliencePolicy, ResilienceState};

/// Sensors invoked per pass: every row is a live β call (the one-shot
/// operator does not cache), so the denominator is pure invocation work.
const SENSORS: usize = 200;

/// The gated configuration: the documented recommended policy — retry
/// budget + circuit breaker armed, no deadline.
fn active_policy() -> ResiliencePolicy {
    ResiliencePolicy::standard()
}

/// Informational variant: same policy with a per-call deadline armed, which
/// adds two wall-clock reads per invocation.
fn deadline_policy() -> ResiliencePolicy {
    ResiliencePolicy::standard().with_deadline(Duration::from_secs(1))
}

fn beta_plan() -> Plan {
    Plan::relation("sensors").invoke("getTemperature", "sensor")
}

/// The identical β fan-out through the bare registry vs the no-fault
/// resilient pipeline.
fn bench_resilience_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("resilience_overhead");
    let env = workload::scaled_environment(SENSORS, 0, 0);
    let reg = workload::scaled_registry(SENSORS, 0);
    let plan = beta_plan();
    group.throughput(Throughput::Elements(SENSORS as u64));

    let ctx = ExecContext::new(&env, &reg, Instant(1));
    // warm caches/allocator before the first measured group, so ordering
    // does not bias the comparison
    let warmup = std::time::Instant::now();
    while warmup.elapsed() < std::time::Duration::from_millis(200) {
        ctx.execute(&plan).unwrap();
    }
    group.bench_with_input(BenchmarkId::new("invoker", "bare"), &plan, |b, p| {
        b.iter(|| ctx.execute(p).unwrap())
    });

    let state = ResilienceState::new();
    let resilient = BetaPipeline::new(&reg, active_policy(), &state);
    let ctx = ExecContext::new(&env, &resilient, Instant(1));
    group.bench_with_input(BenchmarkId::new("invoker", "resilient"), &plan, |b, p| {
        b.iter(|| ctx.execute(p).unwrap())
    });

    let deadline_state = ResilienceState::new();
    let with_deadline = BetaPipeline::new(&reg, deadline_policy(), &deadline_state);
    let ctx = ExecContext::new(&env, &with_deadline, Instant(1));
    group.bench_with_input(BenchmarkId::new("invoker", "deadline"), &plan, |b, p| {
        b.iter(|| ctx.execute(p).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_resilience_overhead);

fn find<'a>(records: &'a [BenchRecord], label: &str) -> &'a BenchRecord {
    records
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("missing record {label}"))
}

/// The headline overhead number. Sequential A-then-B benchmarking is biased
/// by clock/allocator drift, so this interleaves short batches of both
/// variants and takes the median of paired per-round ratios.
fn interleaved_overhead_pct() -> (f64, f64, f64) {
    const ROUNDS: usize = 100;
    const PASSES: usize = 10;
    let env = workload::scaled_environment(SENSORS, 0, 0);
    let reg = workload::scaled_registry(SENSORS, 0);
    let plan = beta_plan();
    let ctx_bare = ExecContext::new(&env, &reg, Instant(1));
    let state = ResilienceState::new();
    let resilient = BetaPipeline::new(&reg, active_policy(), &state);
    let ctx_resilient = ExecContext::new(&env, &resilient, Instant(1));

    for _ in 0..PASSES * 4 {
        ctx_bare.execute(&plan).unwrap();
        ctx_resilient.execute(&plan).unwrap();
    }
    let mut ratios = Vec::with_capacity(ROUNDS);
    let mut bare_rounds = Vec::with_capacity(ROUNDS);
    let mut resilient_rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = std::time::Instant::now();
        for _ in 0..PASSES {
            ctx_bare.execute(&plan).unwrap();
        }
        let bare_ns = start.elapsed().as_nanos() as f64;
        let start = std::time::Instant::now();
        for _ in 0..PASSES {
            ctx_resilient.execute(&plan).unwrap();
        }
        let resilient_ns = start.elapsed().as_nanos() as f64;
        ratios.push(resilient_ns / bare_ns);
        bare_rounds.push(bare_ns / PASSES as f64);
        resilient_rounds.push(resilient_ns / PASSES as f64);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (
        (median(&mut ratios) - 1.0) * 100.0,
        median(&mut bare_rounds),
        median(&mut resilient_rounds),
    )
}

fn main() {
    benches();
    let records = take_records();

    let bare = find(&records, "resilience_overhead/invoker/bare");
    let resilient = find(&records, "resilience_overhead/invoker/resilient");
    let sequential_pct =
        (resilient.mean_ns as f64 - bare.mean_ns as f64) / bare.mean_ns.max(1) as f64 * 100.0;
    let (overhead_pct, bare_ns, resilient_ns) = interleaved_overhead_pct();
    println!(
        "resilience stage overhead vs bare invoker (no faults): {overhead_pct:.2}% interleaved \
         ({bare_ns:.0} ns → {resilient_ns:.0} ns/pass; sequential: {sequential_pct:.2}%)"
    );

    // sanity: the resilient pass really ran with an armed policy; the
    // happy path must never retry or trip a breaker
    let reg = workload::scaled_registry(4, 0);
    let state = ResilienceState::new();
    let inv = BetaPipeline::new(&reg, active_policy(), &state);
    let sref = serena_core::value::ServiceRef::new("s0");
    inv.invoke(
        &serena_core::prototype::examples::get_temperature(),
        &sref,
        &serena_core::tuple::Tuple::empty(),
        Instant(1),
    )
    .unwrap();
    let counters = state.counters();
    assert_eq!((counters.retries, counters.rejected), (0, 0));

    let mut json = String::from("{\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 < records.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"mean_ns\": {}, \"best_ns\": {}}}{sep}\n",
            r.label, r.mean_ns, r.best_ns
        ));
    }
    json.push_str("  ]");
    json.push_str(&format!(",\n  \"overhead_pct\": {overhead_pct:.3}"));
    json.push_str(&format!(
        ",\n  \"bare_ns_per_pass\": {bare_ns:.0},\n  \"resilient_ns_per_pass\": {resilient_ns:.0}"
    ));
    json.push_str(&format!(",\n  \"sensors\": {SENSORS}\n}}\n"));

    let path =
        std::env::var("SERENA_BENCH_OUT").unwrap_or_else(|_| "BENCH_resilience.json".to_string());
    std::fs::write(&path, json).expect("write bench results");
    println!("wrote {path}");

    if let Ok(bound) = std::env::var("SERENA_BENCH_ASSERT_OVERHEAD_PCT") {
        let bound: f64 = bound.parse().expect("numeric overhead bound");
        if overhead_pct > bound {
            eprintln!("resilience overhead {overhead_pct:.2}% exceeds bound {bound}%");
            std::process::exit(1);
        }
        println!("overhead within {bound}% bound");
    }
}
