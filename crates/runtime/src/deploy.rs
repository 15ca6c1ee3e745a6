//! The typed deployment handle: resolved component tokens and
//! transactional reconfiguration.
//!
//! A [`Deployment`] is the sharded engine ([`ParallelSystem`]) on a
//! **one-shard plan**: every component on shard 0, no rings, the shard
//! engine keeping the spec's own name. It pairs that engine with the
//! validated architecture it was generated from and fixes the two
//! structural weaknesses of driving a `System` directly:
//!
//! * **Stringly-typed hot paths** — `slot_of("name")` and per-call port
//!   resolution are replaced by [`ComponentRef`]/[`PortRef`] tokens,
//!   resolved **once** at deploy time. The steady-state loop
//!   ([`run_transaction`](Deployment::run_transaction),
//!   [`inject`](Deployment::inject)) performs zero name lookups — a
//!   property [`System::name_lookups`] makes checkable.
//! * **Piecewise mutation** — ad-hoc `stop`/`rebind`/`start` calls could
//!   leave the system half-reconfigured on error, and nothing re-checked
//!   RTSJ conformance. [`Deployment::reconfigure`] replaces them with an
//!   all-or-nothing transaction: operations apply eagerly against the live
//!   engine while an undo journal accumulates; when the closure finishes,
//!   the resulting architecture is re-validated against the *same* rules
//!   the design-time validator enforces, and any failure (an operation
//!   error or a validator refusal) rolls everything back — engine,
//!   membranes and the architectural model.
//!
//! Reconfiguration runs on the sharded engine's transaction:
//! [`Reconfiguration`] is a typed wrapper over [`ParallelReconfiguration`]
//! that turns each `ComponentRef` into a global component index and calls
//! the same operation body the name-addressed API calls — one journal,
//! one rollback, one commit path. Commit compliance is decided by the
//! design-time validator alone; the SOL-015 coupling advisory is computed
//! only when a commit is refused. The hot path ([`run_transaction`],
//! [`run_tick`], [`inject`], the timer calls) runs inline on the shard's
//! engine on the caller's thread and never leases a worker.
//!
//! Tokens are deployment-scoped: every `ComponentRef`/`PortRef` carries the
//! identity of the deployment that minted it, so a token from one
//! deployment is refused by another instead of silently addressing the
//! wrong slot.
//!
//! [`run_transaction`]: Deployment::run_transaction
//! [`run_tick`]: Deployment::run_tick
//! [`inject`]: Deployment::inject

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::atomic::{AtomicU32, Ordering};

use rtsj::memory::MemoryManager;
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::AbsoluteTime;
use soleil_core::contract::TimingContract;
use soleil_core::{Architecture, ValidationReport};
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_membrane::interceptors::FaultInjector;
use soleil_membrane::monitor::LatencySnapshot;
use soleil_membrane::FrameworkError;

use crate::footprint::FootprintReport;
use crate::parallel::{ParallelReconfiguration, ParallelSystem};
use crate::spec::{Mode, SystemSpec};
use crate::system::{EngineStats, FaultPolicy, MembraneInfo, System};
use crate::timer::TimerHandle;

/// Mints a fresh deployment identity (token-scoping nonce).
static NEXT_DEPLOYMENT: AtomicU32 = AtomicU32::new(1);

/// A component resolved within one [`Deployment`]: a copyable token that
/// addresses the component's engine slot without any name resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentRef {
    deployment: u32,
    slot: u32,
}

/// A server port resolved within one [`Deployment`]: component slot plus
/// port index, the complete address an injection needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    deployment: u32,
    slot: u32,
    port_ix: u16,
}

/// The engine slot a token addresses, once it is checked to come from
/// deployment `nonce`. On a one-shard plan the slot is also the
/// component's global index, the address the shared transaction bodies
/// take.
fn slot_of(nonce: u32, r: ComponentRef) -> Result<usize, FrameworkError> {
    if r.deployment != nonce {
        return Err(FrameworkError::Content(
            "component ref was minted by a different deployment".into(),
        ));
    }
    Ok(r.slot as usize)
}

/// A deployed, runnable system with its architecture kept alive for
/// transactional reconfiguration. See the [module docs](self).
pub struct Deployment<P: Payload> {
    nonce: u32,
    /// The sharded engine on a one-shard plan; it also owns the
    /// architecture, kept in lock-step by reconfiguration.
    engine: ParallelSystem<P>,
}

impl<P: Payload> std::fmt::Debug for Deployment<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("name", &self.name())
            .field("mode", &self.mode())
            .field("components", &self.sys().node_count())
            .finish()
    }
}

impl<P: Payload> Deployment<P> {
    /// Materializes `spec` in `mode` and pairs the running system with the
    /// architecture it was compiled from (normally called through
    /// `soleil_generator::deploy`, which supplies a validated
    /// architecture).
    ///
    /// # Errors
    ///
    /// Build errors from [`System::build`], or
    /// [`FrameworkError::Content`] when `arch` does not describe the same
    /// components as `spec` (possible only through `assume_valid`-style
    /// escape hatches).
    pub fn build(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        arch: Architecture,
    ) -> Result<Deployment<P>, FrameworkError> {
        Ok(Deployment {
            nonce: NEXT_DEPLOYMENT.fetch_add(1, Ordering::Relaxed),
            engine: ParallelSystem::build_inner(spec, mode, registry, Some(arch), true)?,
        })
    }

    /// The one shard's engine.
    fn sys(&self) -> &System<P> {
        self.engine.shard_system(0)
    }

    fn sys_mut(&mut self) -> &mut System<P> {
        self.engine.shard_system_mut(0)
    }

    /// Resolves a component name to its token — once, at the cold edge;
    /// hold the `ComponentRef` for the hot loop.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown names.
    pub fn resolve(&self, name: &str) -> Result<ComponentRef, FrameworkError> {
        Ok(self.token(self.sys().slot_of(name)?))
    }

    /// The token of an engine slot of this deployment.
    fn token(&self, slot: usize) -> ComponentRef {
        ComponentRef {
            deployment: self.nonce,
            slot: slot as u32,
        }
    }

    /// Resolves a server port of a resolved component to its token.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unknown ports,
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn port(&self, component: ComponentRef, port: &str) -> Result<PortRef, FrameworkError> {
        let slot = self.slot(component)?;
        let port_ix = self.sys().port_ix_of(slot, port)?;
        Ok(PortRef {
            deployment: self.nonce,
            slot: component.slot,
            port_ix,
        })
    }

    /// Tokens of every periodic component, highest priority first (release
    /// order within one tick).
    pub fn periodic_heads(&self) -> Vec<ComponentRef> {
        self.sys()
            .periodic_heads()
            .into_iter()
            .map(|slot| self.token(slot))
            .collect()
    }

    /// The name a token resolves back to (diagnostics).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn name_of(&self, component: ComponentRef) -> Result<&str, FrameworkError> {
        Ok(self.sys().node_name(self.slot(component)?))
    }

    fn slot(&self, r: ComponentRef) -> Result<usize, FrameworkError> {
        slot_of(self.nonce, r)
    }

    fn port_slot(&self, r: PortRef) -> Result<(usize, u16), FrameworkError> {
        if r.deployment != self.nonce {
            return Err(FrameworkError::Content(
                "port ref was minted by a different deployment".into(),
            ));
        }
        Ok((r.slot as usize, r.port_ix))
    }

    // -----------------------------------------------------------------
    // Hot path: zero name resolution per call
    // -----------------------------------------------------------------

    /// Drives one complete transaction from the periodic component `head`
    /// (release + synchronous nesting + asynchronous cascade to
    /// quiescence). No name resolution, no allocation in steady state.
    ///
    /// # Errors
    ///
    /// Any framework or substrate error raised along the way.
    pub fn run_transaction(&mut self, head: ComponentRef) -> Result<(), FrameworkError> {
        let slot = self.slot(head)?;
        self.sys_mut().run_transaction(slot)
    }

    /// Releases every periodic component once, in priority order.
    ///
    /// # Errors
    ///
    /// The first transaction error aborts the tick.
    pub fn run_tick(&mut self) -> Result<(), FrameworkError> {
        self.sys_mut().run_tick()
    }

    /// Injects an external stimulus on a pre-resolved server port, then
    /// drains the cascade.
    ///
    /// # Errors
    ///
    /// Any framework or substrate error raised along the way.
    pub fn inject(&mut self, port: PortRef, msg: P) -> Result<(), FrameworkError> {
        let (slot, port_ix) = self.port_slot(port)?;
        self.sys_mut().inject_at(slot, port_ix, msg)
    }

    // -----------------------------------------------------------------
    // Introspection
    // -----------------------------------------------------------------

    /// The generation mode this deployment runs in.
    pub fn mode(&self) -> Mode {
        self.sys().mode()
    }

    /// The system name.
    pub fn name(&self) -> &str {
        self.sys().name()
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.sys().stats()
    }

    /// Name resolutions performed so far (see [`System::name_lookups`]).
    pub fn name_lookups(&self) -> u64 {
        self.sys().name_lookups()
    }

    /// String comparisons performed by port dispatch so far (see
    /// [`System::string_compares`]).
    pub fn string_compares(&self) -> u64 {
        self.sys().string_compares()
    }

    /// Arc clones performed by port dispatch so far (see
    /// [`System::arc_clones`]).
    pub fn arc_clones(&self) -> u64 {
        self.sys().arc_clones()
    }

    /// Direct access to the substrate (experiments, footprint).
    pub fn memory(&self) -> &MemoryManager {
        self.sys().memory()
    }

    /// Thread-domain roster: name, thread kind and priority per domain.
    pub fn domain_info(&self) -> Vec<(String, ThreadKind, Priority)> {
        self.sys().domain_info()
    }

    /// The footprint report of the running system.
    pub fn footprint(&self) -> FootprintReport {
        self.sys().footprint()
    }

    /// The architecture this deployment currently implements — kept in
    /// lock-step by [`reconfigure`](Self::reconfigure), so it always
    /// describes the live bindings.
    pub fn architecture(&self) -> &Architecture {
        self.engine.architecture()
    }

    /// The underlying engine (read-only; escape hatch for experiments).
    pub fn system(&self) -> &System<P> {
        self.sys()
    }

    /// Membrane-level introspection — SOLEIL mode only, per the paper.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn membrane_info(&self, component: ComponentRef) -> Result<MembraneInfo, FrameworkError> {
        let slot = self.slot(component)?;
        self.sys().membrane_info_at(slot)
    }

    /// The priority ceiling the validator assigned to a shared passive
    /// service, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn ceiling_of(&self, component: ComponentRef) -> Result<Option<Priority>, FrameworkError> {
        let sys = self.sys();
        sys.ceiling_of(sys.node_name(self.slot(component)?))
    }

    /// Inter-activation gaps recorded by a component's jitter monitor, in
    /// nanoseconds (empty when no monitor is installed).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn jitter_observations(&self, component: ComponentRef) -> Result<Vec<u64>, FrameworkError> {
        let slot = self.slot(component)?;
        self.sys().jitter_at(slot)
    }

    /// Installs a jitter monitor in a live membrane (SOLEIL only).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn enable_jitter_monitoring(
        &mut self,
        component: ComponentRef,
    ) -> Result<(), FrameworkError> {
        let slot = self.slot(component)?;
        self.sys_mut().enable_jitter_at(slot).map(|_| ())
    }

    /// Removes a previously installed jitter monitor; true when one was
    /// removed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn disable_jitter_monitoring(
        &mut self,
        component: ComponentRef,
    ) -> Result<bool, FrameworkError> {
        let slot = self.slot(component)?;
        self.sys_mut().disable_jitter_at(slot)
    }

    // -----------------------------------------------------------------
    // Release engine: scheduled releases + runtime contracts
    // -----------------------------------------------------------------

    /// Schedules an extra release of the periodic component `head` at
    /// absolute engine time `at`. The timer fires during the first
    /// [`run_tick`](Self::run_tick) whose clock reaches `at` (or an
    /// explicit [`fire_timers_until`](Self::fire_timers_until)), before
    /// the regular periodic releases of that tick. The handle cancels it.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Timer`] when the component is not periodic or
    /// the preallocated queue is full; [`FrameworkError::Content`] for
    /// foreign refs.
    pub fn schedule_release(
        &mut self,
        head: ComponentRef,
        at: AbsoluteTime,
    ) -> Result<TimerHandle, FrameworkError> {
        let slot = self.slot(head)?;
        self.sys_mut().schedule_release(slot, at)
    }

    /// Cancels a scheduled release; `false` when the handle is stale
    /// (already fired or cancelled) — generation-checked, always safe.
    pub fn cancel_release(&mut self, handle: TimerHandle) -> bool {
        self.sys_mut().cancel_release(handle)
    }

    /// Advances the engine clock to `now` and fires every due scheduled
    /// release as a full transaction. Returns the number fired.
    ///
    /// # Errors
    ///
    /// The first failing fired transaction aborts the advance.
    pub fn fire_timers_until(&mut self, now: AbsoluteTime) -> Result<u64, FrameworkError> {
        self.sys_mut().advance_clock_to(now)
    }

    /// The engine's virtual release clock.
    pub fn timer_clock(&self) -> AbsoluteTime {
        self.sys().clock()
    }

    /// Currently armed (scheduled, unfired, uncancelled) timers.
    pub fn armed_timers(&self) -> usize {
        self.sys().armed_timers()
    }

    /// Attaches a declarative timing contract to a component (any mode —
    /// engine-level observability, unlike the SOLEIL-only membrane
    /// interceptors), replacing any previous contract. From then on every
    /// activation of the component is stamped into an allocation-free
    /// latency histogram with online deadline/jitter checking; components
    /// without a contract keep paying a single integer compare.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn attach_contract(
        &mut self,
        component: ComponentRef,
        contract: TimingContract,
    ) -> Result<(), FrameworkError> {
        let slot = self.slot(component)?;
        self.sys_mut()
            .attach_contract_at(slot, contract)
            .map(|_| ())
    }

    /// Detaches a component's timing contract (discarding its recorded
    /// histogram); `true` when one was attached.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn detach_contract(&mut self, component: ComponentRef) -> Result<bool, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys_mut().detach_contract_at(slot).is_some())
    }

    /// The timing contract attached to a component, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn contract_of(
        &self,
        component: ComponentRef,
    ) -> Result<Option<TimingContract>, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().contract_at(slot).cloned())
    }

    /// A snapshot of a component's latency monitor (histogram quantiles,
    /// miss/violation counters); `None` when no contract is attached.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn latency_snapshot(
        &self,
        component: ComponentRef,
    ) -> Result<Option<LatencySnapshot>, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().latency_snapshot_at(slot))
    }

    /// Deadline misses observed across every monitored component (see
    /// [`System::deadline_misses`]).
    pub fn deadline_misses(&self) -> u64 {
        self.sys().deadline_misses()
    }

    /// Checks every attached contract against its observations and folds
    /// the verdicts into one report (SOL-016…SOL-019 violations; a
    /// compliant report means every contract holds).
    pub fn contract_report(&self) -> ValidationReport {
        self.sys().contract_report()
    }

    // -----------------------------------------------------------------
    // Fault containment & supervision
    // -----------------------------------------------------------------

    /// Declares a component's [`FaultPolicy`], returning the previous one.
    /// Allowed in **every** mode, ULTRA-MERGE included — supervision is
    /// engine-level recovery machinery like timing contracts, not
    /// structural reconfiguration.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn set_fault_policy(
        &mut self,
        component: ComponentRef,
        policy: FaultPolicy,
    ) -> Result<FaultPolicy, FrameworkError> {
        let slot = self.slot(component)?;
        self.sys_mut().set_fault_policy_at(slot, policy)
    }

    /// The fault policy declared for a component
    /// ([`FaultPolicy::Escalate`] by default).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn fault_policy(&self, component: ComponentRef) -> Result<FaultPolicy, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().fault_policy_at(slot))
    }

    /// True while a component is quarantined by its fault policy.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn quarantined(&self, component: ComponentRef) -> Result<bool, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().quarantined_at(slot))
    }

    /// Restarts a quarantined component **now** with a fresh content
    /// instance (the supervised-restart path without waiting for a backoff
    /// timer). Idempotent on healthy components.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn restart_component(&mut self, component: ComponentRef) -> Result<(), FrameworkError> {
        let slot = self.slot(component)?;
        self.sys_mut().restart_slot(slot)
    }

    /// Installs an engine-level deterministic [`FaultInjector`] at a
    /// component's activation boundary (any mode; replaces any previous
    /// injector). With `rate == 0` the injector is idle and the boundary
    /// pays one integer compare — the shape the zero-alloc gate deploys.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn install_fault_injector(
        &mut self,
        component: ComponentRef,
        injector: FaultInjector,
    ) -> Result<(), FrameworkError> {
        let slot = self.slot(component)?;
        self.sys_mut().install_fault_injector_at(slot, injector)?;
        Ok(())
    }

    /// Removes a component's engine-level fault injector; `true` when one
    /// was installed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn remove_fault_injector(
        &mut self,
        component: ComponentRef,
    ) -> Result<bool, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys_mut().remove_fault_injector_at(slot).is_some())
    }

    /// `(activations seen, faults injected)` of a component's engine-level
    /// injector; `None` when none is installed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn injector_counts(
        &self,
        component: ComponentRef,
    ) -> Result<Option<(u64, u64)>, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().injector_counts_at(slot))
    }

    /// Supervision counters of a component:
    /// `(faults contained, supervised restarts, suppressed releases)`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn supervision_counts(
        &self,
        component: ComponentRef,
    ) -> Result<(u64, u64, u64), FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().supervision_counts_at(slot))
    }

    /// Declares (or clears, with `None`) a component's supervisor,
    /// returning the previous edge. Supervisors form a tree: when a fault
    /// escalates out of a component whose policy is
    /// [`FaultPolicy::Escalate`], the engine walks up this tree and the
    /// first supervisor with a containing policy applies it to the
    /// **failed subtree** — isolating it with counted drops or restarting
    /// it as a unit through the timer queue — while the supervisor itself
    /// and its other branches keep running. Cycle and validity checks run
    /// eagerly here and again at every transactional commit. Allowed in
    /// every mode, ULTRA-MERGE included — supervision is engine-level
    /// recovery machinery, not structural reconfiguration.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs, self-supervision, or
    /// an edge that would close a cycle.
    pub fn set_supervisor(
        &mut self,
        component: ComponentRef,
        supervisor: Option<ComponentRef>,
    ) -> Result<Option<ComponentRef>, FrameworkError> {
        let slot = self.slot(component)?;
        let sup_slot = supervisor.map(|s| self.slot(s)).transpose()?;
        let prev = self.sys_mut().set_supervisor_at(slot, sup_slot)?;
        Ok(prev.map(|s| self.token(s)))
    }

    /// A component's declared supervisor, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn supervisor_of(
        &self,
        component: ComponentRef,
    ) -> Result<Option<ComponentRef>, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().supervisor_of_at(slot).map(|s| self.token(s)))
    }

    /// The rendered escalation path (`origin -> … -> supervisor`) of the
    /// last fault this component contained as a supervisor; `None` until
    /// an escalation walked through it. The same path is published as a
    /// SOL-023 verdict in [`health_report`](Self::health_report).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn escalation_path(
        &self,
        component: ComponentRef,
    ) -> Result<Option<String>, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().escalation_path_at(slot))
    }

    /// Opts a component into the warm-state **Checkpoint capability**: its
    /// content must implement [`Content::checkpoint`]
    /// (`soleil_membrane::content::Content::checkpoint`), and the engine
    /// preallocates two bounded state images (healthy + boundary scratch)
    /// sized by the content's `state_bytes()` bound. Both images are
    /// charged against the component's allocation area **immediately** —
    /// monotonic substrate accounting, like build — and a refused charge
    /// tears the capability back out, leaving the deployment unchanged.
    ///
    /// After enabling, the engine captures the live state every `cadence`
    /// successful activations and at every supervised-restart boundary;
    /// the fresh instance installed by a supervised restart then restores
    /// the boundary image (or, after a poisoning panic, the last healthy
    /// cadence image) before its first release.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs, a zero cadence, or
    /// content without the capability; substrate budget exhaustion when
    /// the area cannot hold the images.
    pub fn enable_checkpoint(
        &mut self,
        component: ComponentRef,
        cadence: u32,
    ) -> Result<(), FrameworkError> {
        let slot = self.slot(component)?;
        self.engine.enable_checkpoint_at(0, slot, cadence)
    }

    /// True when the Checkpoint capability is enabled for a component.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn checkpoint_enabled(&self, component: ComponentRef) -> Result<bool, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().checkpoint_enabled_at(slot))
    }

    /// `(captures, restores)` of a component's checkpoint storage; `None`
    /// when the capability is not enabled.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn checkpoint_counts(
        &self,
        component: ComponentRef,
    ) -> Result<Option<(u64, u64)>, FrameworkError> {
        let slot = self.slot(component)?;
        Ok(self.sys().checkpoint_counts_at(slot))
    }

    /// The full runtime health report: contract verdicts (SOL-016…019)
    /// plus supervision findings — SOL-020 per quarantined component,
    /// SOL-021 per exhausted restart budget, SOL-022 when messages were
    /// counted-dropped at quarantine gates, SOL-023 naming the supervision
    /// path of each contained escalation.
    pub fn health_report(&self) -> ValidationReport {
        self.sys().health_report()
    }

    /// Tears the deployment down (see [`System::shutdown`]).
    ///
    /// # Errors
    ///
    /// Substrate errors releasing pins.
    pub fn shutdown(&mut self) -> Result<(), FrameworkError> {
        self.sys_mut().shutdown()
    }

    // -----------------------------------------------------------------
    // Transactional reconfiguration
    // -----------------------------------------------------------------

    /// Runs a reconfiguration transaction: the closure applies lifecycle,
    /// binding and domain operations through the [`Reconfiguration`]
    /// handle; when it returns `Ok`, the resulting architecture is
    /// re-validated against the full RTSJ rule set and the transaction
    /// commits only if compliant. On a closure error *or* a validator
    /// refusal every applied operation is rolled back, leaving engine,
    /// membranes and architecture exactly as before the call.
    ///
    /// # Errors
    ///
    /// * [`FrameworkError::Unsupported`] under ULTRA-MERGE (purely
    ///   static).
    /// * The closure's error, after rollback.
    /// * [`FrameworkError::Rejected`] with the full validation report when
    ///   the resulting architecture violates RTSJ, after rollback.
    pub fn reconfigure<T>(
        &mut self,
        f: impl FnOnce(&mut Reconfiguration<'_, P>) -> Result<T, FrameworkError>,
    ) -> Result<T, FrameworkError> {
        let mut txn = Reconfiguration {
            nonce: self.nonce,
            txn: ParallelReconfiguration::begin(&mut self.engine)?,
        };
        let outcome = f(&mut txn);
        txn.txn.finish(outcome)
    }
}

/// The in-flight transaction handle passed to
/// [`Deployment::reconfigure`]'s closure: a typed wrapper over the sharded
/// engine's [`ParallelReconfiguration`]. Each operation checks its tokens,
/// then runs the same journaled body as the name-addressed operation of
/// the same name, whose documentation gives the full contract and errors;
/// a token minted by another deployment is refused with
/// [`FrameworkError::Content`]. Operations apply eagerly (later operations
/// observe earlier ones); the journal guarantees they all revert together
/// on failure.
pub struct Reconfiguration<'d, P: Payload> {
    nonce: u32,
    txn: ParallelReconfiguration<'d, P>,
}

impl<P: Payload> Reconfiguration<'_, P> {
    fn g(&self, r: ComponentRef) -> Result<usize, FrameworkError> {
        slot_of(self.nonce, r)
    }

    /// Stops a component (no-op if already stopped); see
    /// [`ParallelReconfiguration::stop`].
    pub fn stop(&mut self, component: ComponentRef) -> Result<(), FrameworkError> {
        self.txn.stop_at(self.g(component)?)
    }

    /// (Re)starts a component (no-op if already started); see
    /// [`ParallelReconfiguration::start`].
    pub fn start(&mut self, component: ComponentRef) -> Result<(), FrameworkError> {
        self.txn.start_at(self.g(component)?)
    }

    /// Rebinds `client`'s synchronous `port` to `new_server`, in the
    /// engine and in the architecture, so commit-time validation sees the
    /// rebound topology (an NHRT client rebound onto heap-held state is
    /// refused by SOL-006 and rolled back); see
    /// [`ParallelReconfiguration::rebind`].
    pub fn rebind(
        &mut self,
        client: ComponentRef,
        port: &str,
        new_server: ComponentRef,
    ) -> Result<(), FrameworkError> {
        let client = self.g(client)?;
        self.txn.rebind_at(client, port, self.g(new_server)?)
    }

    /// Re-homes a component onto another ThreadDomain, migrating its
    /// allocation region when its effective memory area changes; see
    /// [`ParallelReconfiguration::reassign_domain`].
    pub fn reassign_domain(
        &mut self,
        component: ComponentRef,
        domain: &str,
    ) -> Result<(), FrameworkError> {
        self.txn.reassign_domain_at(self.g(component)?, domain)
    }

    /// Installs a jitter monitor in a live membrane (SOLEIL only); see
    /// [`ParallelReconfiguration::install_jitter_monitor`].
    pub fn install_jitter_monitor(
        &mut self,
        component: ComponentRef,
    ) -> Result<(), FrameworkError> {
        self.txn.install_jitter_monitor_at(self.g(component)?)
    }

    /// Removes a jitter monitor from a live membrane (SOLEIL only); true
    /// when one was removed. See
    /// [`ParallelReconfiguration::remove_jitter_monitor`].
    pub fn remove_jitter_monitor(
        &mut self,
        component: ComponentRef,
    ) -> Result<bool, FrameworkError> {
        self.txn.remove_jitter_monitor_at(self.g(component)?)
    }

    /// Attaches (or replaces) a timing contract; see
    /// [`ParallelReconfiguration::attach_contract`].
    pub fn attach_contract(
        &mut self,
        component: ComponentRef,
        contract: TimingContract,
    ) -> Result<(), FrameworkError> {
        self.txn.attach_contract_at(self.g(component)?, contract)
    }

    /// Detaches a timing contract; `true` when one was attached. See
    /// [`ParallelReconfiguration::detach_contract`].
    pub fn detach_contract(&mut self, component: ComponentRef) -> Result<bool, FrameworkError> {
        self.txn.detach_contract_at(self.g(component)?)
    }

    /// Declares (or changes) a component's [`FaultPolicy`]; see
    /// [`ParallelReconfiguration::set_fault_policy`].
    pub fn set_fault_policy(
        &mut self,
        component: ComponentRef,
        policy: FaultPolicy,
    ) -> Result<(), FrameworkError> {
        self.txn.set_fault_policy_at(self.g(component)?, policy)
    }

    /// Declares (or clears) a component's supervisor edge; see
    /// [`ParallelReconfiguration::set_supervisor`].
    pub fn set_supervisor(
        &mut self,
        component: ComponentRef,
        supervisor: Option<ComponentRef>,
    ) -> Result<(), FrameworkError> {
        let g = self.g(component)?;
        let sup = supervisor.map(|s| self.g(s)).transpose()?;
        self.txn.set_supervisor_at(g, sup)
    }
}
