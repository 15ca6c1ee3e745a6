//! The traced run and its per-layer ledger.
//!
//! One traced run (`--trace 1`) of workload W:
//!
//! 1. sets every workload up a few times with spans on (`setup` →
//!    `core.*` → `generator.*`);
//! 2. runs W untraced, then traced, and reports the difference of their
//!    medians as the tracing overhead;
//! 3. runs each other workload briefly, traced, so the metrics whose home
//!    is another workload (reconfiguration spans on `reconfig-churn`,
//!    timer spans on `relay32-merge`, drain figures on `shard2-fanout`)
//!    are measured in every traced run;
//! 4. runs the probes: relay depth sweep, `run_ticks(n)` sweep, the
//!    SOLEIL/MERGE-ALL and contract ablations, and standalone timings of
//!    the timer queue, latency monitor, scope enter/exit, SPSC ring and
//!    clock read.
//!
//! Work counts (activations, sync calls, … per transaction) come from W's
//! untraced pass. `perfbench/ledger.json` states each metric's home and
//! which end-to-end metric it should move.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use rtsj::memory::{MemoryManager, ScopedMemoryParams};
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::AbsoluteTime;
use soleil_membrane::monitor::LatencyMonitor;
use soleil_patterns::spsc::spsc_ring;
use soleil_runtime::TimerQueue;

use crate::fixtures::FAN_RING;
use crate::stats::{fit_line, median_f64, median_u64, percentile};
use crate::trace::{Clock, Tracer};
use crate::workloads::*;
use crate::{Config, Metric, Report};

/// Per-layer metrics, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.parse_ns", "ns"),
    ("core.design_ns", "ns"),
    ("core.validate_ns", "ns"),
    ("generator.compile_ns", "ns"),
    ("generator.deploy_ns", "ns"),
    ("generator.first_txn_ns", "ns"),
    ("runtime.activations_per_txn", "count/txn"),
    ("runtime.sync_calls_per_txn", "count/txn"),
    ("runtime.async_msgs_per_txn", "count/txn"),
    ("runtime.ns_per_activation", "ns"),
    ("runtime.stage_slope_ns", "ns"),
    ("runtime.stage_intercept_ns", "ns"),
    ("runtime.string_compares_per_txn", "count/txn"),
    ("runtime.arc_clones_per_txn", "count/txn"),
    ("rtsj.substrate_allocs_per_txn", "count/txn"),
    ("timer.schedule_ns", "ns"),
    ("timer.queue_op_ns", "ns"),
    ("timer.fires_per_txn", "count/txn"),
    ("membrane.soleil_minus_merge_ns", "ns"),
    ("membrane.contract_ns", "ns"),
    ("membrane.monitor_observe_ns", "ns"),
    ("membrane.deadline_misses", "count"),
    ("rtsj.scope_enter_exit_ns", "ns"),
    ("rtsj.scoped_calls_per_txn", "count/txn"),
    ("patterns.ring_push_pop_ns", "ns"),
    ("patterns.ring_rejections", "count"),
    ("parallel.call_fixed_ns", "ns"),
    ("parallel.ns_per_tick", "ns"),
    ("parallel.drain_passes_per_tick", "count/tick"),
    ("parallel.msgs_per_drain_pass", "count"),
    ("parallel.max_drain_batch", "count"),
    ("parallel.shard_busy_share", "ratio"),
    ("reconf.stage_ns", "ns"),
    ("reconf.commit_ns", "ns"),
    ("reconf.rollback_ns", "ns"),
    ("reconf.first_txn_after_ns", "ns"),
    ("bench.clock_floor_ns", "ns"),
    ("bench.trace_overhead_ns", "ns"),
];

/// Span buffer of a traced run.
const SPAN_CAP: usize = 400_000;
/// Spans W's traced pass may use; each other workload's pass gets
/// [`HOME_SPANS`].
const W_SPANS: usize = 200_000;
const HOME_SPANS: usize = 40_000;
/// Traced set-ups per workload.
const TRACED_SETUPS: usize = 7;
/// Transactions per ablation / sweep chunk.
const CHUNK: usize = 1000;
/// Relay depths of the stage sweep and tick counts of the `run_ticks` sweep.
const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const TICKS: [u64; 4] = [1, 4, 16, 64];

fn ix(w: Workload) -> usize {
    Workload::ALL.iter().position(|&x| x == w).expect("listed")
}

/// Median of integer samples, with their count.
fn med(v: &[u64]) -> (f64, u64) {
    (median_u64(v), v.len() as u64)
}

/// What the traced passes of one workload recorded.
#[derive(Default)]
struct Traced {
    spans: Range<usize>,
    /// Per-pass transaction medians.
    p50s: Vec<f64>,
    txns: u64,
    first_after: Vec<u64>,
    agg: ParallelAgg,
}

impl Traced {
    fn add(&mut self, p: &Pass) {
        self.p50s.extend(p.txn.map(|s| s.p50));
        self.txns += p.txns;
        self.first_after.extend_from_slice(&p.first_after);
        if let Some(a) = &p.parallel {
            self.agg.merge(a);
        }
    }
}

/// Untraced and traced passes of W alternate this many times, so machine
/// noise hits both sides alike.
const OVERHEAD_PAIRS: usize = 8;

pub fn run_traced(cfg: &Config) -> Result<Report, String> {
    let w = cfg.workload;
    let wi = ix(w);
    let s_ns = |share: f64| (cfg.seconds * share * 1e9) as u64;
    let clock = Clock::new();
    let mut tr = Tracer::with_capacity(clock, true, SPAN_CAP);
    let mut off = Tracer::off(clock);
    let mut bufs = Bufs::new();
    let inputs = Inputs::from_seed(cfg.seed);
    let mut rep = Report {
        workload: w.name().into(),
        ..Report::default()
    };

    // 1. Traced set-ups of every workload.
    let mut fixtures = Vec::with_capacity(4);
    let mut setup_spans = Vec::with_capacity(4);
    for x in Workload::ALL {
        let mark = tr.mark();
        let mut last: Option<Fixture> = None;
        for _ in 0..TRACED_SETUPS {
            let (f, _) = Fixture::setup(x, &inputs, &mut tr)?;
            rep.attempted += 1;
            if let Some(old) = last.replace(f) {
                rep.failures.merge(old.check());
            }
        }
        fixtures.push(last.expect("at least one set-up"));
        setup_spans.push(mark..tr.mark());
    }

    // 2. W: untraced and traced passes, alternating.
    let take = |rep: &mut Report, mut p: Pass| {
        rep.attempted += p.attempted;
        rep.failures.merge(std::mem::take(&mut p.fails));
        p
    };
    let budget = |clock: &Clock, tr: &Tracer, ns: u64, spans: usize| Budget {
        span_limit: tr.mark() + spans,
        ..Budget::for_ns(clock, ns)
    };
    let warm = fixtures[wi].pass(Budget::for_ns(&clock, s_ns(0.05)), &mut off, &mut bufs);
    take(&mut rep, warm);
    let mut traced: Vec<Traced> = (0..4).map(|_| Traced::default()).collect();
    let mut untraced_p50s = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut counts: Option<Pass> = None;
    let mark = tr.mark();
    for _ in 0..OVERHEAD_PAIRS {
        let b = Budget::for_ns(&clock, s_ns(0.25 / OVERHEAD_PAIRS as f64));
        let p = fixtures[wi].pass(b, &mut off, &mut bufs);
        let p = take(&mut rep, p);
        untraced_p50s.extend(p.txn.map(|s| s.p50));
        counts.get_or_insert(p);
        let b = budget(
            &clock,
            &tr,
            s_ns(0.2 / OVERHEAD_PAIRS as f64),
            W_SPANS / OVERHEAD_PAIRS,
        );
        let p = fixtures[wi].pass(b, &mut tr, &mut bufs);
        traced[wi].add(&take(&mut rep, p));
    }
    traced[wi].spans = mark..tr.mark();
    let untraced = counts.expect("at least one pass");

    // 3. The other workloads, briefly and traced.
    for (i, fx) in fixtures.iter_mut().enumerate() {
        if i == wi {
            continue;
        }
        let warm = fx.pass(Budget::for_ns(&clock, s_ns(0.01)), &mut off, &mut bufs);
        take(&mut rep, warm);
        let mark = tr.mark();
        let b = budget(&clock, &tr, s_ns(0.04), HOME_SPANS);
        let p = fx.pass(b, &mut tr, &mut bufs);
        traced[i].add(&take(&mut rep, p));
        traced[i].spans = mark..tr.mark();
    }

    // 4. Probes.
    let (stage_intercept, stage_slope, stage_points) =
        stage_sweep(&inputs, &clock, s_ns(0.15), &mut rep)?;
    let Fixture::Fanout(fan) = &mut fixtures[ix(Workload::Shard2Fanout)] else {
        unreachable!("fixtures follow Workload::ALL")
    };
    let mut sweep = Pass::default();
    let (call_fixed, per_tick) = ticks_sweep(fan, &mut tr, s_ns(0.15), &mut sweep);
    take(&mut rep, sweep);
    let Fixture::Fig4(fig4) = &mut fixtures[ix(Workload::Fig4Soleil)] else {
        unreachable!("fixtures follow Workload::ALL")
    };
    let mode_gap = mode_ablation(&inputs, fig4, &clock, s_ns(0.15), &mut rep)?;
    let contract_gap = contract_ablation(fig4, &clock, s_ns(0.15), &mut rep)?;
    let depth = fixtures[wi].armed_timers();
    for f in &fixtures {
        rep.failures.merge(f.check());
    }

    // The ledger.
    let get = |x: Workload| &traced[ix(x)];
    let w_traced = get(w);
    let relay = get(Workload::Relay32Merge);
    let churn = get(Workload::ReconfigChurn);
    let fan = get(Workload::Shard2Fanout);
    let span_med = |range: &Range<usize>, name| med(&tr.durations(range.clone(), name));
    let fig4_setup = &setup_spans[ix(Workload::Fig4Soleil)];
    let relay_setup = &setup_spans[ix(Workload::Relay32Merge)];
    let w_setup = &setup_spans[wi];
    let work = untraced.work;
    let per = |x: u64| x as f64 / untraced.txns.max(1) as f64;
    let u50 = median_f64(&untraced_p50s);
    let t50 = median_f64(&w_traced.p50s);
    let agg = &fan.agg;
    let churn_p50 = median_f64(&churn.p50s);
    let on = |x: Workload| format!("on {}", x.name());
    let on_w = on(w);

    let mut metrics: Vec<Metric> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, v: (f64, u64), note: String| {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("every ledger metric is listed in PER_LAYER");
        metrics.push(Metric::new(name, unit, v.0, v.1, note));
    };
    put(
        "core.parse_ns",
        span_med(fig4_setup, "core.parse"),
        on(Workload::Fig4Soleil),
    );
    put(
        "core.design_ns",
        span_med(relay_setup, "core.design"),
        on(Workload::Relay32Merge),
    );
    put(
        "core.validate_ns",
        span_med(w_setup, "core.validate"),
        on_w.clone(),
    );
    put(
        "generator.compile_ns",
        span_med(w_setup, "generator.compile"),
        on_w.clone(),
    );
    put(
        "generator.deploy_ns",
        span_med(w_setup, "generator.deploy"),
        on_w.clone(),
    );
    put(
        "generator.first_txn_ns",
        span_med(w_setup, "generator.first_txn"),
        on_w.clone(),
    );
    put(
        "runtime.activations_per_txn",
        (per(work.activations), untraced.txns),
        on_w.clone(),
    );
    put(
        "runtime.sync_calls_per_txn",
        (per(work.sync_calls), untraced.txns),
        on_w.clone(),
    );
    put(
        "runtime.async_msgs_per_txn",
        (per(work.async_msgs), untraced.txns),
        on_w.clone(),
    );
    put(
        "runtime.ns_per_activation",
        (u50 / per(work.activations), untraced.txns),
        format!("txn_p50_ns / activations {on_w}"),
    );
    put(
        "runtime.stage_slope_ns",
        (stage_slope, 0),
        format!("relay depths {stage_points}"),
    );
    put(
        "runtime.stage_intercept_ns",
        (stage_intercept, 0),
        "relay depth sweep".into(),
    );
    put(
        "runtime.string_compares_per_txn",
        (per(work.string_compares), untraced.txns),
        on_w.clone(),
    );
    put(
        "runtime.arc_clones_per_txn",
        (per(work.arc_clones), untraced.txns),
        on_w.clone(),
    );
    put(
        "rtsj.substrate_allocs_per_txn",
        (per(work.substrate_allocs), untraced.txns),
        on_w.clone(),
    );
    put(
        "timer.schedule_ns",
        span_med(&relay.spans, "timer.schedule"),
        on(Workload::Relay32Merge),
    );
    put(
        "timer.queue_op_ns",
        (timer_queue_op_ns(depth), 0),
        format!("standalone, {depth} armed ({})", w.name()),
    );
    put(
        "timer.fires_per_txn",
        (per(work.timer_fires), untraced.txns),
        on_w.clone(),
    );
    put(
        "membrane.soleil_minus_merge_ns",
        (mode_gap, 0),
        "ablation on fig4-soleil".into(),
    );
    put(
        "membrane.contract_ns",
        (contract_gap, 0),
        "ablation on fig4-soleil".into(),
    );
    put(
        "membrane.monitor_observe_ns",
        (monitor_observe_ns(), 0),
        "standalone".into(),
    );
    put(
        "membrane.deadline_misses",
        (work.deadline_misses as f64, 0),
        on_w.clone(),
    );
    put(
        "rtsj.scope_enter_exit_ns",
        (scope_enter_exit_ns(), 0),
        "standalone, 28 KB scope, NHRT context".into(),
    );
    put(
        "rtsj.scoped_calls_per_txn",
        (per(work.scoped_calls), untraced.txns),
        on_w.clone(),
    );
    put(
        "patterns.ring_push_pop_ns",
        (ring_push_pop_ns(), 0),
        format!("standalone, capacity {FAN_RING}"),
    );
    put(
        "patterns.ring_rejections",
        (work.ring_rejections as f64, 0),
        on_w.clone(),
    );
    put(
        "parallel.call_fixed_ns",
        (call_fixed, 0),
        format!("run_ticks(n), n in {TICKS:?}"),
    );
    put(
        "parallel.ns_per_tick",
        (per_tick, 0),
        format!("run_ticks(n), n in {TICKS:?}"),
    );
    put(
        "parallel.drain_passes_per_tick",
        (agg.drain_passes as f64 / agg.ticks.max(1) as f64, agg.ticks),
        on(Workload::Shard2Fanout),
    );
    put(
        "parallel.msgs_per_drain_pass",
        (
            agg.drained as f64 / agg.drain_passes.max(1) as f64,
            agg.drain_passes,
        ),
        on(Workload::Shard2Fanout),
    );
    put(
        "parallel.max_drain_batch",
        (agg.max_drain_batch as f64, 0),
        on(Workload::Shard2Fanout),
    );
    put(
        "parallel.shard_busy_share",
        (agg.busiest_share(), agg.calls),
        format!("busiest shard {}", on(Workload::Shard2Fanout)),
    );
    put(
        "reconf.stage_ns",
        span_med(&churn.spans, "reconf.stage"),
        on(Workload::ReconfigChurn),
    );
    put(
        "reconf.commit_ns",
        med(&tr.self_times(churn.spans.clone(), "reconf")),
        format!("self time {}", on(Workload::ReconfigChurn)),
    );
    put(
        "reconf.rollback_ns",
        span_med(&churn.spans, "reconf.probe"),
        on(Workload::ReconfigChurn),
    );
    let (after, n_after) = med(&churn.first_after);
    put(
        "reconf.first_txn_after_ns",
        (after - churn_p50, n_after),
        format!("minus steady p50 {}", on(Workload::ReconfigChurn)),
    );
    put(
        "bench.clock_floor_ns",
        (clock_floor_ns(), 0),
        "standalone".into(),
    );
    put("bench.trace_overhead_ns", (t50 - u50, w_traced.txns), format!("traced {t50:.1} - untraced {u50:.1}, medians of {OVERHEAD_PAIRS} alternating passes {on_w}"));

    rep.metrics = metrics;
    rep.extra.push(Metric::new(
        "spans",
        "count",
        tr.mark() as f64,
        0,
        format!("{} dropped", tr.dropped),
    ));
    if let Some(dir) = &cfg.trace_out {
        let path = dir.join(format!("{}.csv", w.name()));
        tr.write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        rep.extra.push(Metric::new(
            "spans_written",
            "count",
            tr.mark() as f64,
            0,
            path.display().to_string(),
        ));
    }
    Ok(rep)
}

/// Relay closed-loop median per depth, rounds rotating the depth order;
/// returns the least-squares (intercept, slope) of median vs depth.
fn stage_sweep(
    inputs: &Inputs,
    clock: &Clock,
    ns: u64,
    rep: &mut Report,
) -> Result<(f64, f64, String), String> {
    let mut off = Tracer::off(*clock);
    let mut relays = Vec::with_capacity(DEPTHS.len());
    for d in DEPTHS {
        relays.push(Relay::setup(inputs, d, &mut off)?.0);
        rep.attempted += 1;
    }
    let mut buf = Vec::with_capacity(CHUNK);
    let mut medians: Vec<Vec<u64>> = vec![Vec::new(); DEPTHS.len()];
    for r in relays.iter_mut() {
        r.closed_chunk(CHUNK, &mut buf, &mut rep.failures, clock);
    }
    let end = clock.now() + ns;
    let mut round = 0;
    while round < 3 || clock.now() < end {
        for k in 0..DEPTHS.len() {
            let i = (k + round) % DEPTHS.len();
            relays[i].closed_chunk(CHUNK, &mut buf, &mut rep.failures, clock);
            rep.attempted += CHUNK as u64;
            medians[i].push(percentile(&mut buf, 500));
        }
        round += 1;
    }
    for r in &relays {
        rep.failures.merge(r.check());
    }
    let points: Vec<(f64, f64)> = DEPTHS
        .iter()
        .zip(&medians)
        .map(|(&d, m)| (d as f64, median_u64(m)))
        .collect();
    let (a, b) = fit_line(&points);
    let shown: Vec<String> = points.iter().map(|(d, m)| format!("{d}:{m:.0}")).collect();
    Ok((a, b, shown.join(",")))
}

/// `run_ticks(n)` call time per n, rounds rotating the order; returns the
/// least-squares (intercept, slope) of median call time vs n.
fn ticks_sweep(fan: &mut Fanout, tr: &mut Tracer, ns: u64, pass: &mut Pass) -> (f64, f64) {
    let mut agg = ParallelAgg::default();
    let mut times: Vec<Vec<u64>> = vec![Vec::new(); TICKS.len()];
    let clock = tr.clock;
    let end = clock.now() + ns;
    let mut round = 0;
    while round < 5 || clock.now() < end {
        for k in 0..TICKS.len() {
            let i = (k + round) % TICKS.len();
            tr.begin_request();
            times[i].push(fan.call(TICKS[i], &mut agg, pass, tr));
            pass.attempted += TICKS[i];
        }
        round += 1;
    }
    let points: Vec<(f64, f64)> = TICKS
        .iter()
        .zip(&times)
        .map(|(&n, t)| (n as f64, median_u64(t)))
        .collect();
    fit_line(&points)
}

/// Median over rounds of `p50(fig4 in SOLEIL) - p50(fig4 in MERGE-ALL)`,
/// alternating which mode runs first.
fn mode_ablation(
    inputs: &Inputs,
    soleil: &mut Fig4,
    clock: &Clock,
    ns: u64,
    rep: &mut Report,
) -> Result<f64, String> {
    let mut off = Tracer::off(*clock);
    let (mut merged, _) = Fig4::setup(inputs, soleil_runtime::Mode::MergeAll, &mut off)?;
    let mut buf = Vec::with_capacity(CHUNK);
    merged.closed_chunk(CHUNK, &mut buf, &mut rep.failures, clock);
    let mut gaps = Vec::new();
    let end = clock.now() + ns;
    let mut round = 0;
    while round < 3 || clock.now() < end {
        let mut p = [0.0; 2];
        for k in 0..2 {
            let i = (k + round) % 2;
            let f = if i == 0 { &mut *soleil } else { &mut merged };
            f.closed_chunk(CHUNK, &mut buf, &mut rep.failures, clock);
            rep.attempted += CHUNK as u64;
            p[i] = percentile(&mut buf, 500) as f64;
        }
        gaps.push(p[0] - p[1]);
        round += 1;
    }
    rep.failures.merge(merged.check());
    Ok(median_f64(&gaps))
}

/// Median over rounds of `p50(contract attached) - p50(detached)` on the
/// SOLEIL Fig. 4 deployment; leaves the contract attached.
fn contract_ablation(
    f: &mut Fig4,
    clock: &Clock,
    ns: u64,
    rep: &mut Report,
) -> Result<f64, String> {
    let mut buf = Vec::with_capacity(CHUNK);
    let mut gaps = Vec::new();
    let end = clock.now() + ns;
    let mut round = 0;
    while round < 3 || clock.now() < end {
        let mut p = [0.0; 2];
        for k in 0..2 {
            let attached = (k + round) % 2 == 0;
            if attached {
                f.dep
                    .attach_contract(f.head, baseline_contract())
                    .map_err(|e| e.to_string())?;
            } else {
                f.dep.detach_contract(f.head).map_err(|e| e.to_string())?;
            }
            f.closed_chunk(CHUNK, &mut buf, &mut rep.failures, clock);
            rep.attempted += CHUNK as u64;
            p[usize::from(!attached)] = percentile(&mut buf, 500) as f64;
        }
        gaps.push(p[0] - p[1]);
        round += 1;
    }
    f.dep
        .attach_contract(f.head, baseline_contract())
        .map_err(|e| e.to_string())?;
    Ok(median_f64(&gaps))
}

/// Median over five batches of the mean time of one `op` call, timed as a
/// batch so the clock read is not charged to each call.
fn per_op_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                op(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// One clock read, timed in an otherwise empty loop.
fn clock_floor_ns() -> f64 {
    per_op_ns(1 << 20, |_| {
        black_box(Instant::now());
    })
}

/// A standalone `TimerQueue::schedule` + `pop_due` pair with `depth`
/// other timers armed.
fn timer_queue_op_ns(depth: usize) -> f64 {
    let mut q: TimerQueue<u32> = TimerQueue::with_capacity(depth + 1);
    let prio = Priority::new(30);
    for _ in 0..depth {
        q.schedule(AbsoluteTime::MAX, prio, 0)
            .expect("capacity covers depth");
    }
    let now = AbsoluteTime::from_nanos(1);
    per_op_ns(1 << 18, |i| {
        q.schedule(now, prio, i as u32).expect("one free slot");
        black_box(q.pop_due(now).expect("just scheduled"));
    })
}

/// A direct `LatencyMonitor::observe`.
fn monitor_observe_ns() -> f64 {
    let mut m = LatencyMonitor::new(Some(500_000_000), None);
    let start = Instant::now();
    per_op_ns(1 << 20, |i| {
        black_box(m.observe(start, black_box(i & 1023)));
    })
}

/// A `MemoryManager::enter` + `exit` pair on a 28 KB scope from an NHRT
/// context (the shape of the Fig. 4 `S1` crossing).
fn scope_enter_exit_ns() -> f64 {
    let mut mm = MemoryManager::new(0, 1 << 20);
    let s1 = mm
        .create_scoped(ScopedMemoryParams::new("S1", 28 * 1024))
        .expect("fresh manager");
    let mut ctx = mm.context(ThreadKind::NoHeapRealtime);
    per_op_ns(1 << 18, |_| {
        mm.enter(&mut ctx, s1).expect("scope enter");
        mm.exit(&mut ctx).expect("scope exit");
    })
}

/// An `spsc_ring` push + pop pair at the fan-out's ring capacity.
fn ring_push_pop_ns() -> f64 {
    let (mut tx, mut rx) = spsc_ring::<u64>(FAN_RING).expect("capacity > 0");
    per_op_ns(1 << 20, |i| {
        black_box(tx.push(i));
        black_box(rx.pop());
    })
}
