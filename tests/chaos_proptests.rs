//! Chaos property tests: deterministic seeded fault schedules over
//! randomly generated fan-out architectures. Whatever the schedule does —
//! errors, panics, quarantines, supervised restarts — the engine must
//! keep its books: every pushed message is either delivered or
//! counted-dropped, quarantine is monotonic until a restart, and the
//! whole run replays bit-identically from the same seeds.
//!
//! The control-plane properties at the end fail random reconfiguration
//! batches instead: whatever step fails, the deployment must come back
//! exactly as it was, and a failed operation must leave no trace in a
//! batch that commits.

use proptest::prelude::*;
use soleil::prelude::*;

/// One consumer's supervision configuration, drawn at random.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkerPlan {
    /// 0 = Escalate (injector forced idle), 1 = Isolate, 2 = Restart.
    policy: u8,
    /// Injector seed — the only source of chaos.
    seed: u64,
    /// Fire roughly every `rate` activations; 0 = idle.
    rate: u32,
    /// 0 = errors, 1 = panics, 2 = both.
    menu: u8,
}

#[derive(Debug, Clone)]
struct ChaosPlan {
    workers: Vec<WorkerPlan>,
    ticks: u64,
    /// 0 = SOLEIL, 1 = MERGE-ALL, 2 = ULTRA-MERGE.
    mode: u8,
}

fn worker_strategy() -> impl Strategy<Value = WorkerPlan> {
    (0u8..3, 0u64..u64::MAX, 0u32..5, 0u8..3).prop_map(|(policy, seed, rate, menu)| WorkerPlan {
        policy,
        seed,
        // Escalate workers keep their injector idle: a firing injector
        // under Escalate aborts the tick, which is the unit-tested path;
        // chaos runs probe containment.
        rate: if policy == 0 { 0 } else { rate },
        menu,
    })
}

fn plan_strategy() -> impl Strategy<Value = ChaosPlan> {
    (
        proptest::collection::vec(worker_strategy(), 1..5),
        4u64..28,
        0u8..3,
    )
        .prop_map(|(workers, ticks, mode)| ChaosPlan {
            workers,
            ticks,
            mode,
        })
}

fn mode_of(plan: &ChaosPlan) -> Mode {
    match plan.mode {
        0 => Mode::Soleil,
        1 => Mode::MergeAll,
        _ => Mode::UltraMerge,
    }
}

fn policy_of(w: &WorkerPlan) -> FaultPolicy {
    match w.policy {
        0 => FaultPolicy::Escalate,
        1 => FaultPolicy::Isolate,
        // A budget far above any fault count this run can produce: the
        // supervisor must keep re-arming, never escalate.
        _ => FaultPolicy::Restart {
            max_restarts: 1_000,
            window: RelativeTime::from_millis(3_600_000),
            backoff: RelativeTime::from_millis(1),
        },
    }
}

fn injector_of(name: &str, w: &WorkerPlan) -> FaultInjector {
    let menu = match w.menu {
        0 => FaultInjector::MENU_ERROR,
        1 => FaultInjector::MENU_PANIC,
        _ => FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC,
    };
    FaultInjector::new(name, w.seed, w.rate).with_menu(menu)
}

/// A periodic source fanning out async to one sporadic worker per plan
/// entry. The source runs NHRT/immortal; workers share an RT/heap domain.
fn build_arch(n_workers: usize) -> Architecture {
    let mut b = BusinessView::new("chaos-fan");
    b.active_periodic("source", "10ms").unwrap();
    b.content("source", "Fan").unwrap();
    let worker_names: Vec<String> = (0..n_workers).map(|i| format!("worker{i}")).collect();
    for (i, w) in worker_names.iter().enumerate() {
        b.active_sporadic(w).unwrap();
        b.content(w, "Count").unwrap();
        b.require("source", &format!("out{i}"), "I").unwrap();
        b.provide(w, "in", "I").unwrap();
        b.bind_async("source", &format!("out{i}"), w, "in", 8)
            .unwrap();
    }
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("dhead", ThreadKind::NoHeapRealtime, 30, &["source"])
        .unwrap();
    flow.memory_area("mhead", MemoryKind::Immortal, Some(128 * 1024), &["dhead"])
        .unwrap();
    let refs: Vec<&str> = worker_names.iter().map(String::as_str).collect();
    flow.thread_domain("dwork", ThreadKind::NoHeapRealtime, 20, &refs)
        .unwrap();
    flow.memory_area("mwork", MemoryKind::Immortal, Some(256 * 1024), &["dwork"])
        .unwrap();
    flow.merge().unwrap()
}

fn registry(n_workers: usize) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("Fan", move || {
        #[derive(Debug)]
        struct Fan(usize);
        impl Content<u64> for Fan {
            fn on_invoke(
                &mut self,
                _p: &str,
                msg: &mut u64,
                out: &mut dyn Ports<u64>,
            ) -> InvokeResult {
                for i in 0..self.0 {
                    out.send(&format!("out{i}"), *msg)?;
                }
                Ok(())
            }
        }
        Box::new(Fan(n_workers))
    });
    r.register("Count", || {
        #[derive(Debug, Default)]
        struct Count(u64);
        impl Content<u64> for Count {
            fn on_invoke(
                &mut self,
                _p: &str,
                _msg: &mut u64,
                _out: &mut dyn Ports<u64>,
            ) -> InvokeResult {
                self.0 += 1;
                Ok(())
            }
        }
        Box::<Count>::default()
    });
    r
}

/// Everything a chaos run observes — compared across replays for the
/// determinism property.
#[derive(Debug, PartialEq, Eq)]
struct RunRecord {
    stats: EngineStats,
    /// Per worker: (faults contained, restarts, suppressed activations).
    supervision: Vec<(u64, u64, u64)>,
    /// Per worker: (activations seen, faults injected) by the injector.
    injections: Vec<(u64, u64)>,
    /// Per worker: quarantine flag at the end of the driving phase.
    quarantined: Vec<bool>,
}

/// Deploys the plan, drives `ticks` transactions under fault injection,
/// then disarms every injector and settles so deferred messages drain.
/// Panics inside are test failures; `prop_assert` happens in the caller.
fn run_chaos(plan: &ChaosPlan) -> RunRecord {
    let n = plan.workers.len();
    let arch = build_arch(n).into_validated().expect("chaos fan validates");
    let mut dep = deploy(&arch, mode_of(plan), &registry(n)).expect("chaos fan deploys");
    let workers: Vec<ComponentRef> = (0..n)
        .map(|i| dep.resolve(&format!("worker{i}")).unwrap())
        .collect();
    for (w, cfg) in workers.iter().zip(&plan.workers) {
        dep.set_fault_policy(*w, policy_of(cfg)).unwrap();
        let name = dep.name_of(*w).unwrap().to_string();
        dep.install_fault_injector(*w, injector_of(&name, cfg))
            .unwrap();
    }

    // Drive. Containment means no tick may error: Escalate workers have
    // idle injectors, Isolate contains, Restart never exhausts its budget.
    // Along the way, Isolate quarantine must be monotonic — it can only
    // be lifted by an explicit restart, which this run never issues.
    let mut was_quarantined = vec![false; n];
    for tick in 0..plan.ticks {
        dep.run_tick()
            .unwrap_or_else(|e| panic!("tick {tick} escaped containment: {e}"));
        for (i, (w, cfg)) in workers.iter().zip(&plan.workers).enumerate() {
            let q = dep.quarantined(*w).unwrap();
            if cfg.policy == 1 && was_quarantined[i] {
                assert!(
                    q,
                    "worker{i}: Isolate quarantine lifted without a restart (tick {tick})"
                );
            }
            was_quarantined[i] = q;
        }
    }

    // Capture the chaos-phase observations, then settle: disarm every
    // injector and flush. A contained fault during a drain defers the
    // rest of the pending heap to the next transaction, so a couple of
    // fault-free ticks guarantee quiescence — every deferred message is
    // delivered or count-dropped at a quarantine gate.
    let injections: Vec<(u64, u64)> = workers
        .iter()
        .map(|w| dep.injector_counts(*w).unwrap().unwrap_or((0, 0)))
        .collect();
    let quarantined: Vec<bool> = workers
        .iter()
        .map(|w| dep.quarantined(*w).unwrap())
        .collect();
    for w in &workers {
        dep.remove_fault_injector(*w).unwrap();
    }
    for _ in 0..2 {
        dep.run_tick().expect("settling ticks are fault-free");
    }

    RunRecord {
        stats: dep.stats(),
        supervision: workers
            .iter()
            .map(|w| dep.supervision_counts(*w).unwrap())
            .collect(),
        injections,
        quarantined,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The conservation ledger survives arbitrary fault schedules: after
    /// quiescence, every async push was either delivered to an activation
    /// boundary or counted-dropped — nothing silently lost, in any mode,
    /// under any mix of policies, seeds and fault menus.
    #[test]
    fn chaos_conserves_every_message(plan in plan_strategy()) {
        let r = run_chaos(&plan);
        prop_assert_eq!(
            r.stats.async_messages,
            r.stats.delivered_messages + r.stats.dropped_messages,
            "ledger leak: {:?} (plan {:?})", r.stats, plan
        );
        // The books cross-check the supervisors: a quarantined worker at
        // end-of-chaos implies its policy allowed quarantine and at least
        // one contained fault; contained faults imply injected ones.
        for (i, cfg) in plan.workers.iter().enumerate() {
            let (faults, restarts, _suppressed) = r.supervision[i];
            let (_seen, injected) = r.injections[i];
            prop_assert!(faults <= injected,
                "worker{}: contained {} faults but injected only {}", i, faults, injected);
            if r.quarantined[i] {
                prop_assert!(cfg.policy != 0, "worker{}: Escalate never quarantines", i);
                prop_assert!(faults > 0, "worker{}: quarantined without a fault", i);
            }
            if cfg.policy == 1 {
                prop_assert_eq!(restarts, 0u64,
                    "worker{}: Isolate must never self-restart", i);
            }
            if cfg.policy == 0 {
                prop_assert_eq!((faults, injected), (0, 0),
                    "worker{}: idle injector fired", i);
            }
        }
        // Quarantine findings and the ledger agree.
        let report = {
            let n = plan.workers.len();
            let arch = build_arch(n).into_validated().unwrap();
            let mut dep = deploy(&arch, mode_of(&plan), &registry(n)).unwrap();
            for (i, cfg) in plan.workers.iter().enumerate() {
                let w = dep.resolve(&format!("worker{i}")).unwrap();
                dep.set_fault_policy(w, policy_of(cfg)).unwrap();
                dep.install_fault_injector(w, injector_of(&format!("worker{i}"), cfg)).unwrap();
            }
            for _ in 0..plan.ticks { dep.run_tick().unwrap(); }
            dep.health_report()
        };
        for (i, q) in r.quarantined.iter().enumerate() {
            let name = format!("worker{i}");
            prop_assert_eq!(
                report.by_code("SOL-020").any(|d| d.subject == name), *q,
                "worker{}: SOL-020 disagrees with quarantined()", i
            );
        }
    }

    /// Chaos replays: the same plan (same seeds) produces bit-identical
    /// engine statistics, supervision counters, injector counters and
    /// quarantine flags — the injector schedule is a pure function of
    /// `(seed, activation index)`, never of wall-clock or iteration order.
    #[test]
    fn chaos_replays_bit_identically(plan in plan_strategy()) {
        let first = run_chaos(&plan);
        let second = run_chaos(&plan);
        prop_assert_eq!(first, second, "replay diverged (plan {:?})", plan);
    }
}

// ---------------------------------------------------------------------------
// Warm-state and supervision-tree properties
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-worker observation pair: total invocations ever (across every
/// instance) and the last value of the *instance* counter.
#[derive(Debug, Clone, Default)]
struct CkProbe {
    invocations: Arc<AtomicU64>,
    last_count: Arc<AtomicU64>,
}

/// A counter whose state rides the Checkpoint capability. Observational
/// equivalence modulo counted drops: if every restart restores the warm
/// image, the instance counter equals the total invocation count at all
/// times — a cold restart would reset it and leave it lagging forever.
#[derive(Debug)]
struct CkCount {
    count: u64,
    probe: CkProbe,
}

impl Content<u64> for CkCount {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        self.count += 1;
        self.probe.invocations.fetch_add(1, Ordering::Relaxed);
        self.probe.last_count.store(self.count, Ordering::Relaxed);
        Ok(())
    }
    fn state_bytes(&self) -> usize {
        64
    }
    fn checkpoint(&self, image: &mut StateImage) -> bool {
        image.write_u64(self.count)
    }
    fn restore(&mut self, image: &StateImage) {
        if let Some(v) = image.read_u64(0) {
            self.count = v;
        }
    }
}

/// Like [`build_arch`], but each worker gets its own content class so its
/// factory can carry a per-worker probe.
fn build_arch_per_worker(n_workers: usize) -> Architecture {
    let mut b = BusinessView::new("chaos-warm");
    b.active_periodic("source", "10ms").unwrap();
    b.content("source", "Fan").unwrap();
    for i in 0..n_workers {
        let w = format!("worker{i}");
        b.active_sporadic(&w).unwrap();
        b.content(&w, &format!("CkCount{i}")).unwrap();
        b.require("source", &format!("out{i}"), "I").unwrap();
        b.provide(&w, "in", "I").unwrap();
        b.bind_async("source", &format!("out{i}"), &w, "in", 8)
            .unwrap();
    }
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("dhead", ThreadKind::NoHeapRealtime, 30, &["source"])
        .unwrap();
    flow.memory_area("mhead", MemoryKind::Immortal, Some(128 * 1024), &["dhead"])
        .unwrap();
    let worker_names: Vec<String> = (0..n_workers).map(|i| format!("worker{i}")).collect();
    let refs: Vec<&str> = worker_names.iter().map(String::as_str).collect();
    flow.thread_domain("dwork", ThreadKind::NoHeapRealtime, 20, &refs)
        .unwrap();
    flow.memory_area("mwork", MemoryKind::Immortal, Some(256 * 1024), &["dwork"])
        .unwrap();
    flow.merge().unwrap()
}

fn registry_ck(n_workers: usize, probes: &[CkProbe]) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("Fan", move || {
        #[derive(Debug)]
        struct Fan(usize);
        impl Content<u64> for Fan {
            fn on_invoke(
                &mut self,
                _p: &str,
                msg: &mut u64,
                out: &mut dyn Ports<u64>,
            ) -> InvokeResult {
                for i in 0..self.0 {
                    out.send(&format!("out{i}"), *msg)?;
                }
                Ok(())
            }
        }
        Box::new(Fan(n_workers))
    });
    for (i, probe) in probes.iter().enumerate() {
        let p = probe.clone();
        r.register(format!("CkCount{i}"), move || {
            Box::new(CkCount {
                count: 0,
                probe: p.clone(),
            })
        });
    }
    r
}

/// A restart policy whose short window keeps the exponential backoff from
/// outliving the settling phase no matter how many faults a plan lands.
fn short_window_restart() -> FaultPolicy {
    FaultPolicy::Restart {
        max_restarts: 1_000,
        window: RelativeTime::from_millis(30),
        backoff: RelativeTime::from_millis(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint/restore round-trips are observationally equivalent
    /// modulo counted drops: under an arbitrary error/panic schedule with
    /// every worker checkpointing at cadence 1 under a restart policy,
    /// each worker's instance counter always equals its all-instances
    /// invocation total — warm state is never lost (a panic restores the
    /// last healthy cadence image; the poisoned activation itself never
    /// ran the content) — and restores track supervised restarts exactly.
    #[test]
    fn checkpointed_restarts_preserve_observational_state(
        n in 1usize..4,
        seeds in proptest::collection::vec(0u64..u64::MAX, 3..4),
        rates in proptest::collection::vec(1u32..4, 3..4),
        menus in proptest::collection::vec(0u8..3, 3..4),
        ticks in 6u64..24,
        mode in 0u8..3,
    ) {
        let mode = match mode {
            0 => Mode::Soleil,
            1 => Mode::MergeAll,
            _ => Mode::UltraMerge,
        };
        let probes: Vec<CkProbe> = (0..n).map(|_| CkProbe::default()).collect();
        let arch = build_arch_per_worker(n).into_validated().expect("validates");
        let mut dep = deploy(&arch, mode, &registry_ck(n, &probes)).expect("deploys");
        let workers: Vec<ComponentRef> = (0..n)
            .map(|i| dep.resolve(&format!("worker{i}")).unwrap())
            .collect();
        for (i, w) in workers.iter().enumerate() {
            dep.set_fault_policy(*w, short_window_restart()).unwrap();
            dep.enable_checkpoint(*w, 1).unwrap();
            let menu = match menus[i] {
                0 => FaultInjector::MENU_ERROR,
                1 => FaultInjector::MENU_PANIC,
                _ => FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC,
            };
            dep.install_fault_injector(
                *w,
                FaultInjector::new(format!("worker{i}"), seeds[i], rates[i]).with_menu(menu),
            )
            .unwrap();
        }
        for tick in 0..ticks {
            dep.run_tick()
                .unwrap_or_else(|e| panic!("tick {tick} escaped containment: {e}"));
        }
        for w in &workers {
            dep.remove_fault_injector(*w).unwrap();
        }
        // Settle generously: the short window keeps every pending backoff
        // under a few ms, so the timers all fire within these ticks.
        for _ in 0..6 {
            dep.run_tick().expect("settling ticks are fault-free");
        }

        // The exact post-quiescence ledger: every *accepted* message was
        // either delivered or counted-dropped at a quarantine gate.
        // Full-ring rejections (a backlogged worker mid-backoff) never
        // entered a queue — they are counted in `dropped_messages` but not
        // in `async_messages`, per the EngineStats contract.
        let stats = dep.stats();
        prop_assert_eq!(
            stats.async_messages,
            stats.delivered_messages + stats.quarantine_drops,
            "ledger leak under checkpointed restarts"
        );
        prop_assert!(
            stats.dropped_messages >= stats.quarantine_drops,
            "rejections are counted, never negative"
        );
        for (i, w) in workers.iter().enumerate() {
            prop_assert!(!dep.quarantined(*w).unwrap(), "worker{} still down", i);
            let invocations = probes[i].invocations.load(Ordering::Relaxed);
            let last = probes[i].last_count.load(Ordering::Relaxed);
            prop_assert_eq!(
                last, invocations,
                "worker{}: instance counter diverged from invocation total — \
                 a restart lost warm state", i
            );
            let (_, restarts, _) = dep.supervision_counts(*w).unwrap();
            let (_, restores) = dep.checkpoint_counts(*w).unwrap().expect("enabled");
            prop_assert_eq!(
                restores, restarts,
                "worker{}: every supervised restart must restore the image", i
            );
        }
    }

    /// Restarting a subtree touches only that subtree: with the declared
    /// tree worker0 → worker1 → worker2 and faults injected at worker0
    /// only, the containment quarantines and restarts workers 0 and 1 as
    /// a unit while worker2 (the handler) and every sibling keep running
    /// every single tick.
    #[test]
    fn subtree_restart_leaves_siblings_untouched(
        n in 3usize..6,
        seed in 0u64..u64::MAX,
        rate in 1u32..4,
        menu in 0u8..3,
        ticks in 6u64..24,
        mode in 0u8..3,
    ) {
        const SETTLE: u64 = 6;
        let mode = match mode {
            0 => Mode::Soleil,
            1 => Mode::MergeAll,
            _ => Mode::UltraMerge,
        };
        let probes: Vec<CkProbe> = (0..n).map(|_| CkProbe::default()).collect();
        let arch = build_arch_per_worker(n).into_validated().expect("validates");
        let mut dep = deploy(&arch, mode, &registry_ck(n, &probes)).expect("deploys");
        let workers: Vec<ComponentRef> = (0..n)
            .map(|i| dep.resolve(&format!("worker{i}")).unwrap())
            .collect();
        // Declared tree: worker0 and worker1 escalate, worker2 contains.
        dep.set_supervisor(workers[0], Some(workers[1])).unwrap();
        dep.set_supervisor(workers[1], Some(workers[2])).unwrap();
        dep.set_fault_policy(workers[2], short_window_restart()).unwrap();
        let menu = match menu {
            0 => FaultInjector::MENU_ERROR,
            1 => FaultInjector::MENU_PANIC,
            _ => FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC,
        };
        dep.install_fault_injector(
            workers[0],
            FaultInjector::new("worker0", seed, rate).with_menu(menu),
        )
        .unwrap();
        for tick in 0..ticks {
            dep.run_tick()
                .unwrap_or_else(|e| panic!("tick {tick} escaped the tree: {e}"));
        }
        dep.remove_fault_injector(workers[0]).unwrap();
        for _ in 0..SETTLE {
            dep.run_tick().expect("settling ticks are fault-free");
        }

        let (f0, r0, _) = dep.supervision_counts(workers[0]).unwrap();
        let (f1, r1, _) = dep.supervision_counts(workers[1]).unwrap();
        prop_assert!(f0 >= 1, "the storm must land at least one fault");
        prop_assert_eq!(f1, 0, "worker1 is co-quarantined, never the origin");
        prop_assert_eq!(r0, r1, "the subtree restarts as one unit");
        prop_assert_eq!(
            dep.escalation_path(workers[2]).unwrap().as_deref(),
            Some("worker0 -> worker1 -> worker2"),
            "the handler records the declared walk"
        );
        // The handler and every sibling branch never missed a delivery:
        // one invocation per tick, storm and settle alike.
        for (i, w) in workers.iter().enumerate().skip(2) {
            let (f, r, s) = dep.supervision_counts(*w).unwrap();
            prop_assert_eq!((f, r, s), (0, 0, 0), "worker{} was touched", i);
            prop_assert!(!dep.quarantined(*w).unwrap(), "worker{} was downed", i);
            prop_assert_eq!(
                probes[i].invocations.load(Ordering::Relaxed),
                ticks + SETTLE,
                "worker{}: sibling branches must keep running every tick", i
            );
        }
        // Same exact ledger as above: accepted == delivered + quarantine
        // drops, with any full-ring rejections counted on the side.
        let stats = dep.stats();
        prop_assert_eq!(
            stats.async_messages,
            stats.delivered_messages + stats.quarantine_drops,
            "ledger leak under subtree restarts"
        );
    }
}

// ---------------------------------------------------------------------------
// Control-plane chaos: random reconfiguration batches that fail
// ---------------------------------------------------------------------------

/// The control-plane fixture. Three shard groups when sharded:
/// `{producer}`, `{consumerB, consumerC, svc1, svc2, svcHeap}` (coupled
/// by synchronous bindings) and `{consumerD}`. `producer` fans out over
/// three rings; `consumerB` (NHRT) calls two immortal services,
/// `consumerC` (RT) calls a heap service — so rebinding an NHRT client
/// onto `svcHeap`, or moving `consumerC` into an NHRT domain, is refused
/// at commit by SOL-006.
const CTL_COMPONENTS: [&str; 7] = [
    "producer",
    "consumerB",
    "consumerC",
    "consumerD",
    "svc1",
    "svc2",
    "svcHeap",
];
const CTL_SYNC_PORTS: [(&str, &str); 3] = [
    ("consumerB", "svc"),
    ("consumerB", "aux"),
    ("consumerC", "log"),
];
const CTL_SYNC_SERVERS: [&str; 5] = ["svc1", "svc2", "svcHeap", "consumerC", "consumerD"];
const CTL_CONSUMERS: [&str; 3] = ["consumerB", "consumerC", "consumerD"];
/// `E` sits in no memory area: moving a component there fails after the
/// architectural edge moved, inside the operation.
const CTL_DOMAINS: [&str; 5] = ["A", "B", "C", "D", "E"];
const CTL_ACTIVES: [&str; 4] = ["producer", "consumerB", "consumerC", "consumerD"];

fn ctl_arch() -> ValidatedArchitecture {
    let mut b = BusinessView::new("ctl-chaos");
    b.active_periodic("producer", "10ms").unwrap();
    b.content("producer", "Fan").unwrap();
    for c in CTL_CONSUMERS {
        b.active_sporadic(c).unwrap();
        b.content(c, "Count").unwrap();
        b.provide(c, "in", "I").unwrap();
    }
    for s in ["svc1", "svc2", "svcHeap"] {
        b.passive(s).unwrap();
        b.content(s, "Count").unwrap();
        b.provide(s, "in", "I").unwrap();
    }
    for (i, c) in CTL_CONSUMERS.iter().enumerate() {
        let port = format!("out{i}");
        b.require("producer", &port, "I").unwrap();
        b.bind_async("producer", &port, c, "in", 8).unwrap();
    }
    for ((client, port), server) in CTL_SYNC_PORTS
        .into_iter()
        .zip(["svc1", "svc2", "svcHeap"])
        .chain([(("consumerB", "peer"), "consumerC")])
    {
        b.require(client, port, "I").unwrap();
        b.bind_sync(client, port, server, "in").unwrap();
    }
    let mut flow = DesignFlow::new(b);
    for (domain, kind, priority, member) in [
        ("A", ThreadKind::NoHeapRealtime, 30, "producer"),
        ("B", ThreadKind::NoHeapRealtime, 25, "consumerB"),
        ("C", ThreadKind::Realtime, 20, "consumerC"),
        ("D", ThreadKind::Realtime, 15, "consumerD"),
    ] {
        flow.thread_domain(domain, kind, priority, &[member])
            .unwrap();
        let members: &[&str] = if domain == "B" {
            &["B", "svc1", "svc2"]
        } else {
            &[domain]
        };
        flow.memory_area(
            &format!("Imm{domain}"),
            MemoryKind::Immortal,
            Some(64 * 1024),
            members,
        )
        .unwrap();
    }
    flow.memory_area("Heap", MemoryKind::Heap, None, &["svcHeap"])
        .unwrap();
    flow.thread_domain("E", ThreadKind::Realtime, 12, &[])
        .unwrap();
    flow.merge().unwrap().into_validated().unwrap()
}

/// One control-plane operation; component and port fields index the
/// `CTL_*` tables.
#[derive(Debug, Clone, Copy)]
enum CtlOp {
    Stop(usize),
    Start(usize),
    Rebind {
        port: usize,
        server: usize,
    },
    RebindAsync {
        port: usize,
        server: usize,
    },
    Reassign {
        active: usize,
        domain: usize,
    },
    InstallJitter(usize),
    RemoveJitter(usize),
    AttachContract(usize),
    DetachContract(usize),
    Policy {
        component: usize,
        isolate: bool,
    },
    Supervisor {
        component: usize,
        supervisor: Option<usize>,
    },
}

fn ctl_op_strategy() -> impl Strategy<Value = CtlOp> {
    let comp = 0..CTL_COMPONENTS.len();
    prop_oneof![
        comp.clone().prop_map(CtlOp::Stop),
        comp.clone().prop_map(CtlOp::Start),
        (0..CTL_SYNC_PORTS.len(), 0..CTL_SYNC_SERVERS.len())
            .prop_map(|(port, server)| CtlOp::Rebind { port, server }),
        (0..CTL_CONSUMERS.len(), 0..CTL_CONSUMERS.len())
            .prop_map(|(port, server)| CtlOp::RebindAsync { port, server }),
        (0..CTL_ACTIVES.len(), 0..CTL_DOMAINS.len())
            .prop_map(|(active, domain)| CtlOp::Reassign { active, domain }),
        comp.clone().prop_map(CtlOp::InstallJitter),
        comp.clone().prop_map(CtlOp::RemoveJitter),
        comp.clone().prop_map(CtlOp::AttachContract),
        comp.clone().prop_map(CtlOp::DetachContract),
        (comp.clone(), 0..2usize).prop_map(|(component, isolate)| CtlOp::Policy {
            component,
            isolate: isolate == 1
        }),
        // A supervisor index past the table clears the edge.
        (comp, 0..CTL_COMPONENTS.len() + 1).prop_map(|(component, supervisor)| {
            CtlOp::Supervisor {
                component,
                supervisor: (supervisor < CTL_COMPONENTS.len()).then_some(supervisor),
            }
        }),
    ]
}

/// A serial deployment or a three-shard partition of the fixture, behind
/// the one control plane both share.
enum CtlTarget {
    Serial(Deployment<u64>),
    Sharded(ParallelSystem<u64>),
}

impl CtlTarget {
    fn new(mode: Mode, sharded: bool) -> CtlTarget {
        let arch = ctl_arch();
        let registry = registry(CTL_CONSUMERS.len());
        if sharded {
            let sys = deploy_parallel(&arch, mode, &registry).unwrap();
            assert_eq!(sys.shard_count(), 3);
            CtlTarget::Sharded(sys)
        } else {
            CtlTarget::Serial(deploy(&arch, mode, &registry).unwrap())
        }
    }

    fn sys(&mut self) -> &mut ParallelSystem<u64> {
        match self {
            CtlTarget::Serial(dep) => dep,
            CtlTarget::Sharded(sys) => sys,
        }
    }

    /// What a reconfiguration may change, rendered: every shard's
    /// structural digest and substrate usage, the architecture's
    /// components, bindings and containment lists (everything its `Debug`
    /// shows but the name index, a `HashMap` whose order differs between
    /// two deployments), and each component's membrane (SOLEIL) and
    /// supervision edge.
    fn observe(&mut self) -> String {
        let sys = self.sys();
        let arch = sys.architecture();
        let containment: Vec<_> = arch
            .components()
            .iter()
            .map(|c| (arch.children_of(c.id()), arch.parents_of(c.id())))
            .collect();
        let mut out = format!(
            "{:?}\n{:?}\n{:?}\n{containment:?}\n",
            sys.structural_digests(),
            arch.components(),
            arch.bindings()
        );
        for shard in 0..sys.shard_count() {
            let stats = sys.shard_system(shard).memory().all_stats();
            out += &format!("{stats:?}\n");
        }
        for name in CTL_COMPONENTS {
            let c = sys.resolve(name).unwrap();
            let membrane = sys.membrane_info(c).ok();
            let supervisor = sys
                .supervisor_of(c)
                .unwrap()
                .map(|s| sys.name_of(s).unwrap());
            out += &format!("{name}: {membrane:?} ^{supervisor:?}\n");
        }
        out
    }
}

/// Applies `op` inside an open transaction.
fn apply_ctl(
    txn: &mut Reconfiguration<'_, u64>,
    refs: &[ComponentRef],
    op: CtlOp,
) -> Result<(), FrameworkError> {
    let of = |name: &str| refs[CTL_COMPONENTS.iter().position(|c| *c == name).unwrap()];
    match op {
        CtlOp::Stop(c) => txn.stop(refs[c]),
        CtlOp::Start(c) => txn.start(refs[c]),
        CtlOp::Rebind { port, server } => {
            let (client, port) = CTL_SYNC_PORTS[port];
            txn.rebind(of(client), port, of(CTL_SYNC_SERVERS[server]))
        }
        CtlOp::RebindAsync { port, server } => txn.rebind_async(
            of("producer"),
            &format!("out{port}"),
            of(CTL_CONSUMERS[server]),
        ),
        CtlOp::Reassign { active, domain } => {
            txn.reassign_domain(of(CTL_ACTIVES[active]), CTL_DOMAINS[domain])
        }
        CtlOp::InstallJitter(c) => txn.install_jitter_monitor(refs[c]),
        CtlOp::RemoveJitter(c) => txn.remove_jitter_monitor(refs[c]).map(drop),
        CtlOp::AttachContract(c) => txn.attach_contract(
            refs[c],
            TimingContract::new().with_deadline(RelativeTime::from_millis(5)),
        ),
        CtlOp::DetachContract(c) => txn.detach_contract(refs[c]).map(drop),
        CtlOp::Policy { component, isolate } => txn.set_fault_policy(
            refs[component],
            if isolate {
                FaultPolicy::Isolate
            } else {
                FaultPolicy::Escalate
            },
        ),
        CtlOp::Supervisor {
            component,
            supervisor,
        } => txn.set_supervisor(refs[component], supervisor.map(|s| refs[s])),
    }
}

fn ctl_refs(sys: &ParallelSystem<u64>) -> Vec<ComponentRef> {
    CTL_COMPONENTS
        .iter()
        .map(|n| sys.resolve(n).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A batch that fails — its closure errs at step `fail_at`, an
    /// operation is refused (and propagated), or the commit-time validator
    /// refuses the result — leaves every shard's structural digest and
    /// substrate usage, the architecture and every membrane exactly as
    /// they were.
    #[test]
    fn a_failed_batch_changes_nothing(
        ops in proptest::collection::vec(ctl_op_strategy(), 1..8),
        fail_at in 0usize..10,
        soleil in 0..2usize,
        sharded in 0..2usize,
    ) {
        let mode = if soleil == 1 { Mode::Soleil } else { Mode::MergeAll };
        let mut target = CtlTarget::new(mode, sharded == 1);
        let before = target.observe();
        let sys = target.sys();
        let arch = format!("{:?}", sys.architecture());
        let refs = ctl_refs(sys);
        let outcome = sys.reconfigure(|txn| {
            for (i, &op) in ops.iter().enumerate() {
                if i == fail_at {
                    return Err(FrameworkError::Content("chaos".into()));
                }
                apply_ctl(txn, &refs, op)?;
            }
            Ok(())
        });
        if outcome.is_err() {
            prop_assert_eq!(&format!("{:?}", target.sys().architecture()), &arch);
            prop_assert_eq!(target.observe(), before, "{:?}", outcome);
        }
    }

    /// Per-operation atomicity: a closure that ignores its failed
    /// operations gets the same commit verdict as a twin deployment that
    /// runs the batch without them, and leaves exactly what the twin
    /// leaves — the batch's result when both commit, the untouched
    /// deployment when the validator refuses both.
    #[test]
    fn ignored_failed_ops_leave_no_trace(
        ops in proptest::collection::vec(ctl_op_strategy(), 1..8),
        soleil in 0..2usize,
        sharded in 0..2usize,
    ) {
        let mode = if soleil == 1 { Mode::Soleil } else { Mode::MergeAll };
        let mut target = CtlTarget::new(mode, sharded == 1);
        let before = target.observe();
        let sys = target.sys();
        let refs = ctl_refs(sys);
        let mut failed = Vec::new();
        let outcome = sys.reconfigure(|txn| {
            for (i, &op) in ops.iter().enumerate() {
                if apply_ctl(txn, &refs, op).is_err() {
                    failed.push(i);
                }
            }
            Ok(())
        });
        if outcome.is_err() {
            // The commit refused the batch: nothing may remain of it.
            prop_assert_eq!(target.observe(), before, "{:?}", outcome);
        }
        let mut twin = CtlTarget::new(mode, sharded == 1);
        let sys = twin.sys();
        let refs = ctl_refs(sys);
        let twin_outcome = sys.reconfigure(|txn| {
            for (i, &op) in ops.iter().enumerate() {
                if !failed.contains(&i) {
                    apply_ctl(txn, &refs, op)?;
                }
            }
            Ok(())
        });
        prop_assert_eq!(
            outcome.is_ok(),
            twin_outcome.is_ok(),
            "verdicts differ: {:?} vs {:?} (failed ops {:?})",
            outcome,
            twin_outcome,
            failed
        );
        prop_assert_eq!(target.observe(), twin.observe(), "failed ops {:?}", failed);
    }
}
