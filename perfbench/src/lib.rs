//! The soleil benchmark: four framework-only workloads driven through the
//! public API of every layer, named end-to-end metrics from an untraced
//! run, and a per-layer ledger from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-soleil --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! human-readable report. `perfbench/ledger.json` records, for each
//! per-layer metric, where it is measured, which end-to-end metric it
//! should move on which workload, and where it should not move.

pub mod alloc;
pub mod fixtures;
pub mod ledger;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;

use stats::{best, median_f64, Summary};
use trace::{Clock, Tracer};
use workloads::{Budget, Bufs, Failures, Fixture, Inputs, Pass, Workload};

/// End-to-end metrics every workload reports in its result line.
///
/// A run is cut into slices of about 0.1 s, each preceded by one extra
/// timed set-up, and every figure is taken per slice (a median, a p99, a
/// throughput). `setup_s` is the median of the set-ups; the other timings
/// report the best slice: the lowest time, the highest throughput. Other
/// tenants of a shared machine slow whole seconds of a run by up to 1.9x,
/// and for minutes at a time; the best slice is the figure that does not
/// depend on how much of the run they happened to share.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("txn_p50_ns", "ns"),
    ("throughput_per_s", "1/s"),
    ("framework_bytes", "bytes"),
];

/// End-to-end metrics printed in the report only: the tails are too noisy
/// on a shared machine to gate on, and the rest are 0 or undefined on some
/// workload.
pub const REPORTED_END_TO_END: [(&str, &str); 6] = [
    ("txn_p99_ns", "ns"),
    ("lag_p99_ns", "ns"),
    ("reconf_p50_ns", "ns"),
    ("reconf_p99_ns", "ns"),
    ("fail_ratio", "ratio"),
    ("heap_allocs_per_txn", "count/txn"),
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the figure (0 for counts and derived values).
    pub n: u64,
    /// How it was obtained.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        n: u64,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            unit,
            value,
            n,
            note: note.into(),
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub attempted: u64,
    pub failures: Failures,
    /// Result-line metrics.
    pub metrics: Vec<Metric>,
    /// Printed only.
    pub extra: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.count == 0
    }

    /// The human-readable report (every line but the result line).
    pub fn text(&self, title: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{title}");
        let row = |s: &mut String, m: &Metric| {
            let n = if m.n > 0 {
                format!("n={}", m.n)
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  {:<34} {:>16.4} {:<10} {:<10} {}",
                m.name, m.value, m.unit, n, m.note
            );
        };
        for m in &self.metrics {
            row(&mut s, m);
        }
        if !self.extra.is_empty() {
            let _ = writeln!(s, "also measured:");
            for m in &self.extra {
                row(&mut s, m);
            }
        }
        let _ = writeln!(
            s,
            "checks: {} failed of {} attempted",
            self.failures.count, self.attempted
        );
        for n in &self.failures.notes {
            let _ = writeln!(s, "  FAILED: {n}");
        }
        s
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.count,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans (none: not written).
    pub trace_out: Option<std::path::PathBuf>,
}

impl Config {
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: Workload::Fig4Soleil,
            seed: 1,
            seconds: 10.0,
            trace: false,
            trace_out: Some("perfbench/trace-out".into()),
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
                }
                "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    cfg.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                    }
                }
                "--trace-out" => cfg.trace_out = Some(value()?.into()),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        cfg.workload = workload.ok_or("--workload is required")?;
        Ok(cfg)
    }
}

/// Runs the benchmark as configured: the untraced end-to-end run, or the
/// traced per-layer run.
pub fn run(cfg: &Config) -> Result<Report, String> {
    if cfg.trace {
        ledger::run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn secs_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// The figures of one slice: its set-up and its pass (NaN where the
/// pass has no such figure).
#[derive(Debug, Clone, Copy)]
pub struct SliceFig {
    pub setup_ns: f64,
    pub p50: f64,
    pub p99: f64,
    pub throughput: f64,
    pub lag_p99: f64,
    pub reconf_p50: f64,
    pub reconf_p99: f64,
}

/// A p99, or NaN when the summary cannot support one.
fn p99_of(s: Option<Summary>) -> f64 {
    s.filter(|s| s.tail_pm == Some(990))
        .map_or(f64::NAN, |s| s.tail)
}

impl SliceFig {
    pub fn of(setup_ns: u64, p: &Pass) -> SliceFig {
        SliceFig {
            setup_ns: setup_ns as f64,
            p50: p.txn.map_or(f64::NAN, |s| s.p50),
            p99: p99_of(p.txn),
            throughput: p.throughput_per_s(),
            lag_p99: p99_of(p.lag),
            reconf_p50: p.reconf.map_or(f64::NAN, |s| s.p50),
            reconf_p99: p99_of(p.reconf),
        }
    }
}

/// Slice length of a workload: about a tenth of a second, long enough for
/// a p99 (1000 samples) everywhere; the fan-out ticks 5 000 times a second,
/// so its slices are longer.
pub fn slice_s(w: Workload) -> f64 {
    match w {
        Workload::Shard2Fanout => 0.4,
        _ => 0.1,
    }
}

/// Slices in a run of `seconds`.
pub fn slice_count(w: Workload, seconds: f64) -> usize {
    ((seconds / slice_s(w)).round() as usize).clamp(4, 10_000)
}

/// The end-to-end run: a set-up and a warm-up, then the timed phase in
/// slices, each preceded by one more timed set-up.
pub fn run_untraced(cfg: &Config) -> Result<Report, String> {
    let w = cfg.workload;
    let clock = Clock::new();
    let mut tr = Tracer::off(clock);
    let mut bufs = Bufs::new();
    let inputs = Inputs::from_seed(cfg.seed);
    let mut rep = Report {
        workload: w.name().into(),
        ..Report::default()
    };
    let (mut fx, _) = Fixture::setup(w, &inputs, &mut tr)?;
    rep.attempted += 1;

    // Warm-up: interning, lazy ring and slab provisioning finish here.
    let warm_ns = secs_ns((cfg.seconds / 10.0).min(1.0));
    let warm = fx.pass(Budget::for_ns(&clock, warm_ns), &mut tr, &mut bufs);
    rep.attempted += warm.attempted;
    rep.failures.merge(warm.fails);

    let slices_n = slice_count(w, cfg.seconds);
    let slice_ns = secs_ns(cfg.seconds) / slices_n as u64;
    let mut slices = Vec::with_capacity(slices_n);
    let (mut txns, mut heap_allocs, mut txn_n, mut lag_n, mut reconf_n) = (0, 0, 0, 0, 0);
    for _ in 0..slices_n {
        let (fresh, setup_ns) = Fixture::setup(w, &inputs, &mut tr)?;
        rep.attempted += 1;
        rep.failures.merge(fresh.check());
        drop(fresh);
        let mut pass = fx.pass(Budget::for_ns(&clock, slice_ns), &mut tr, &mut bufs);
        rep.attempted += pass.attempted;
        rep.failures.merge(std::mem::take(&mut pass.fails));
        slices.push(SliceFig::of(setup_ns, &pass));
        txns += pass.txns;
        heap_allocs += pass.heap_allocs;
        txn_n += pass.txn.map_or(0, |s| s.n);
        lag_n += pass.lag.map_or(0, |s| s.n);
        reconf_n += pass.reconf.map_or(0, |s| s.n);
    }
    rep.failures.merge(fx.check());
    if txn_n == 0 {
        return Err("the timed phase completed no transaction".into());
    }
    let setups: Vec<f64> = slices.iter().map(|s| s.setup_ns).collect();
    let calm = |f: fn(&SliceFig) -> f64| {
        let v: Vec<f64> = slices.iter().map(f).collect();
        best(&v, true)
    };
    let busy = |f: fn(&SliceFig) -> f64| {
        let v: Vec<f64> = slices.iter().map(f).collect();
        best(&v, false)
    };

    let note = format!("best of {slices_n} slices");
    rep.metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median_f64(&setups) / 1e9,
            slices_n as u64,
            "median of one set-up per slice",
        ),
        Metric::new("txn_p50_ns", "ns", calm(|s| s.p50), txn_n, note.clone()),
        Metric::new(
            "throughput_per_s",
            "1/s",
            busy(|s| s.throughput),
            txns,
            note.clone(),
        ),
        Metric::new(
            "framework_bytes",
            "bytes",
            fx.framework_bytes() as f64,
            0,
            "footprint().framework_bytes",
        ),
    ];
    rep.extra.push(Metric::new(
        "txn_p99_ns",
        "ns",
        calm(|s| s.p99),
        txn_n,
        note.clone(),
    ));
    if lag_n > 0 {
        rep.extra.push(Metric::new(
            "lag_p99_ns",
            "ns",
            calm(|s| s.lag_p99),
            lag_n,
            format!("generator lateness, {note}"),
        ));
    }
    if reconf_n > 0 {
        rep.extra.push(Metric::new(
            "reconf_p50_ns",
            "ns",
            calm(|s| s.reconf_p50),
            reconf_n,
            format!("committed and refused, {note}"),
        ));
        rep.extra.push(Metric::new(
            "reconf_p99_ns",
            "ns",
            calm(|s| s.reconf_p99),
            reconf_n,
            note.clone(),
        ));
    }
    rep.extra.push(Metric::new(
        "fail_ratio",
        "ratio",
        rep.failures.count as f64 / rep.attempted.max(1) as f64,
        rep.attempted,
        "functional failures / operations attempted",
    ));
    rep.extra.push(Metric::new(
        "heap_allocs_per_txn",
        "count/txn",
        heap_allocs as f64 / txns.max(1) as f64,
        txns,
        "Rust-heap allocations per timed transaction",
    ));
    Ok(rep)
}
