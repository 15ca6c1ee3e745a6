//! One-shard parity: a serial [`Deployment`] and a [`ParallelSystem`]
//! built from the same one-domain spec and architecture behave identically
//! under the same seeded sequence of reconfiguration batches, each driven
//! through the one typed transaction with its own deployment's
//! `ComponentRef`s.
//!
//! Each batch mixes stop/start/rebind/contract/policy operations; a
//! rebind onto the heap-held service is refused at commit by SOL-006, and
//! some batches end in a closure error. Both sides must reach the same
//! commit or refusal outcome (same error text), every refusal must leave
//! the refused deployment's structural digest unchanged, and traffic
//! after each batch must activate every component the same number of
//! times on both sides.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;
use rtsj::time::RelativeTime;
use soleil_core::contract::TimingContract;
use soleil_core::views::{BusinessView, DesignFlow};
use soleil_core::Architecture;
use soleil_membrane::content::{Content, ContentRegistry, InvokeResult, Ports};
use soleil_membrane::FrameworkError;
use soleil_patterns::PatternKind;
use soleil_runtime::spec::{
    Activation, AreaSpec, BindingSpec, ComponentSpec, DomainSpec, ProtocolSpec, SystemSpec,
};
use soleil_runtime::{ComponentRef, Deployment, FaultPolicy, Mode, ParallelSystem};

type Counts = Arc<Mutex<HashMap<&'static str, u64>>>;

const NAMES: [&str; 4] = ["caller", "svc-a", "svc-b", "svc-heap"];

/// Counts its own activations; the caller also calls `svc` synchronously.
#[derive(Debug)]
struct Node {
    name: &'static str,
    counts: Counts,
}
impl Content<u64> for Node {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        *self.counts.lock().unwrap().entry(self.name).or_insert(0) += 1;
        if self.name == "caller" {
            out.call("svc", msg)?;
        }
        Ok(())
    }
}

fn registry(counts: &Counts) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    for name in NAMES {
        let c = counts.clone();
        r.register(name, move || {
            Box::new(Node {
                name,
                counts: c.clone(),
            })
        });
    }
    r
}

/// One NHRT domain releasing `caller`, which calls `svc-a` synchronously;
/// `svc-b` is an immortal alternative, `svc-heap` a heap-held one that
/// SOL-006 forbids the NHRT caller to reach.
fn architecture() -> Architecture {
    let mut bv = BusinessView::new("parity");
    bv.active_periodic("caller", "5ms").unwrap();
    for name in &NAMES[1..] {
        bv.passive(name).unwrap();
        bv.provide(name, "svc", "ISvc").unwrap();
    }
    for name in NAMES {
        bv.content(name, name).unwrap();
    }
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-a", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::NoHeapRealtime, 30, &["caller"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "svc-a", "svc-b"],
    )
    .unwrap();
    flow.memory_area("heap", MemoryKind::Heap, None, &["svc-heap"])
        .unwrap();
    flow.merge()
        .unwrap()
        .into_validated()
        .unwrap()
        .architecture()
        .clone()
}

/// The deployment plan matching [`architecture`], name for name.
fn spec() -> SystemSpec {
    let service = |name: &str, area: usize| ComponentSpec {
        name: name.into(),
        content_class: name.into(),
        activation: Activation::Passive,
        domain: None,
        area,
        server_ports: vec!["svc".into()],
        ceiling: None,
    };
    SystemSpec {
        name: "parity".into(),
        areas: vec![
            AreaSpec {
                name: "imm".into(),
                kind: MemoryKind::Immortal,
                size: Some(64 * 1024),
                parent: None,
            },
            AreaSpec {
                name: "heap".into(),
                kind: MemoryKind::Heap,
                size: None,
                parent: None,
            },
        ],
        domains: vec![DomainSpec {
            name: "rt".into(),
            kind: ThreadKind::NoHeapRealtime,
            priority: 30,
        }],
        components: vec![
            ComponentSpec {
                name: "caller".into(),
                content_class: "caller".into(),
                activation: Activation::Periodic {
                    period: RelativeTime::from_millis(5),
                },
                domain: Some(0),
                area: 0,
                server_ports: vec![],
                ceiling: None,
            },
            service("svc-a", 0),
            service("svc-b", 0),
            service("svc-heap", 1),
        ],
        bindings: vec![BindingSpec {
            client: 0,
            client_port: "svc".into(),
            server: 1,
            server_port: "svc".into(),
            protocol: ProtocolSpec::Sync,
            pattern: PatternKind::Direct,
            enter_path: vec![],
        }],
    }
}

/// One reconfiguration operation; `c` indexes [`NAMES`] (the first three
/// for lifecycle, contract and policy operations).
#[derive(Debug, Clone, Copy)]
enum Op {
    Stop(usize),
    Start(usize),
    /// Rebind `caller.svc` onto `NAMES[1 + target]`; target 2 is the heap
    /// service, refused at commit by SOL-006.
    Rebind(usize),
    Attach(usize),
    Detach(usize),
    Policy(usize, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..6usize, 0..3usize, 0..2usize).prop_map(|(kind, c, flag)| match kind {
        0 => Op::Stop(c),
        1 => Op::Start(c),
        2 => Op::Rebind(c),
        3 => Op::Attach(c),
        4 => Op::Detach(c),
        _ => Op::Policy(c, flag == 1),
    })
}

fn contract() -> TimingContract {
    TimingContract::new().with_deadline(RelativeTime::from_millis(500))
}

fn policy(isolate: bool) -> FaultPolicy {
    if isolate {
        FaultPolicy::Isolate
    } else {
        FaultPolicy::Escalate
    }
}

/// Runs one batch through a deployment's typed transaction (a serial
/// `Deployment` reaches it through `DerefMut`).
fn batch(
    sys: &mut ParallelSystem<u64>,
    refs: &[ComponentRef],
    ops: &[Op],
    abort: bool,
) -> Result<(), FrameworkError> {
    sys.reconfigure(|txn| {
        for &op in ops {
            match op {
                Op::Stop(c) => txn.stop(refs[c])?,
                Op::Start(c) => txn.start(refs[c])?,
                Op::Rebind(t) => txn.rebind(refs[0], "svc", refs[1 + t])?,
                Op::Attach(c) => txn.attach_contract(refs[c], contract())?,
                Op::Detach(c) => {
                    txn.detach_contract(refs[c])?;
                }
                Op::Policy(c, isolate) => txn.set_fault_policy(refs[c], policy(isolate))?,
            }
        }
        if abort {
            return Err(FrameworkError::Content("batch aborted".into()));
        }
        Ok(())
    })
}

fn snapshot(counts: &Counts) -> HashMap<&'static str, u64> {
    counts.lock().unwrap().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serial_deployment_matches_a_one_domain_parallel_system(
        batches in proptest::collection::vec(
            (proptest::collection::vec(op_strategy(), 1..5), 0..4usize),
            1..8,
        ),
        mode_merge in 0..2usize,
    ) {
        let mode = if mode_merge == 1 { Mode::MergeAll } else { Mode::Soleil };
        let serial_counts = Counts::default();
        let mut dep =
            Deployment::build(&spec(), mode, &registry(&serial_counts), architecture()).unwrap();
        let refs: Vec<ComponentRef> = NAMES.iter().map(|n| dep.resolve(n).unwrap()).collect();
        let parallel_counts = Counts::default();
        let mut sys =
            ParallelSystem::build_with_arch(&spec(), mode, &registry(&parallel_counts), architecture())
                .unwrap();
        prop_assert_eq!(sys.shard_count(), 1);
        let sys_refs: Vec<ComponentRef> = NAMES.iter().map(|n| sys.resolve(n).unwrap()).collect();

        for (ops, abort) in &batches {
            // One batch in four ends in a closure error.
            let abort = *abort == 0;
            let serial_digest = dep.system().structural_digest();
            let parallel_digests = sys.structural_digests();
            let serial = batch(&mut dep, &refs, ops, abort);
            let parallel = batch(&mut sys, &sys_refs, ops, abort);
            prop_assert_eq!(
                serial.as_ref().map_err(ToString::to_string),
                parallel.as_ref().map_err(ToString::to_string),
                "batch {:?} (abort {})", ops, abort
            );
            if serial.is_err() {
                prop_assert_eq!(dep.system().structural_digest(), serial_digest,
                    "a refused serial batch leaves its deployment unchanged");
                prop_assert_eq!(sys.structural_digests(), parallel_digests,
                    "a refused parallel batch leaves its deployment unchanged");
            }

            // Traffic: the same ticks succeed or fail on both sides and
            // activate every component the same number of times.
            for _ in 0..3 {
                let s = dep.run_tick();
                let p = sys.run_ticks(1);
                prop_assert_eq!(s.is_ok(), p.is_ok(), "tick outcome: {:?} vs {:?}", s, p);
            }
            prop_assert_eq!(snapshot(&serial_counts), snapshot(&parallel_counts));
            for c in 0..NAMES.len() {
                prop_assert_eq!(
                    dep.fault_policy(refs[c]).unwrap(),
                    sys.fault_policy(sys_refs[c]).unwrap()
                );
            }
        }
    }
}
