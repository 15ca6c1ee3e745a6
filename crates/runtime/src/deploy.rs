//! The serial deployment handle: a one-shard [`ParallelSystem`] whose hot
//! path runs inline on the caller's thread.
//!
//! A [`Deployment`] is the sharded engine on a **one-shard plan**: every
//! component on shard 0, no rings, the shard engine keeping the spec's own
//! name. Its control plane *is* the engine's: through
//! [`Deref`]/[`DerefMut`] to [`ParallelSystem`] it reaches the one typed
//! API every deployment shares. [`resolve`](ParallelSystem::resolve) a
//! name once into a [`ComponentRef`]; address timers, contracts, fault
//! policies, supervisors, checkpoints, injectors and introspection by
//! token; batch structural changes into an all-or-nothing
//! [`reconfigure`](ParallelSystem::reconfigure) transaction, re-validated
//! against the design-time rules and rolled back on any failure.
//!
//! What `Deployment` adds is what only a one-shard plan can offer: the
//! inline hot path ([`run_transaction`], [`run_tick`], [`inject`],
//! [`fire_timers_until`]) that drives the shard's engine on the caller's
//! thread and never leases a worker, and the shard-0 getters
//! ([`system`](Deployment::system), [`memory`](Deployment::memory),
//! [`footprint`](Deployment::footprint)) that have no sharded meaning.
//! Each hot-path call pays one token check, a shard/slot index and a
//! poison check — no name lookups, a property
//! [`name_lookups`](Deployment::name_lookups) makes checkable. A
//! deployment poisoned by a panicking
//! [`run_ticks_instrumented`](ParallelSystem::run_ticks_instrumented)
//! probe refuses its hot path like every other mutator.
//!
//! [`run_transaction`]: Deployment::run_transaction
//! [`run_tick`]: Deployment::run_tick
//! [`inject`]: Deployment::inject
//! [`fire_timers_until`]: Deployment::fire_timers_until

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::ops::{Deref, DerefMut};

use rtsj::memory::MemoryManager;
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::AbsoluteTime;
use soleil_core::Architecture;
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_membrane::FrameworkError;

use crate::footprint::FootprintReport;
use crate::parallel::{ComponentRef, ParallelSystem, PortRef};
use crate::spec::{Mode, SystemSpec};
use crate::system::System;

/// A deployed, runnable system with its architecture kept alive for
/// transactional reconfiguration. See the [module docs](self).
pub struct Deployment<P: Payload> {
    /// The sharded engine on a one-shard plan; it also owns the
    /// architecture, kept in lock-step by reconfiguration.
    engine: ParallelSystem<P>,
}

impl<P: Payload> std::fmt::Debug for Deployment<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("name", &self.name())
            .field("mode", &self.mode())
            .field("components", &self.system().node_count())
            .finish()
    }
}

impl<P: Payload> Deref for Deployment<P> {
    type Target = ParallelSystem<P>;

    fn deref(&self) -> &ParallelSystem<P> {
        &self.engine
    }
}

impl<P: Payload> DerefMut for Deployment<P> {
    fn deref_mut(&mut self) -> &mut ParallelSystem<P> {
        &mut self.engine
    }
}

impl<P: Payload> Deployment<P> {
    /// Materializes `spec` in `mode` on a one-shard plan and pairs the
    /// running system with the architecture it was compiled from
    /// (normally called through `soleil_generator::deploy`, which supplies
    /// a validated architecture).
    ///
    /// # Errors
    ///
    /// Build errors from [`ParallelSystem::build`], or
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
            engine: ParallelSystem::build_inner(spec, mode, registry, Some(arch), true)?,
        })
    }

    // -----------------------------------------------------------------
    // Hot path: inline on the caller's thread, zero name resolution
    // -----------------------------------------------------------------

    /// Drives one complete transaction from the periodic component `head`
    /// (release + synchronous nesting + asynchronous cascade to
    /// quiescence). No name resolution, no allocation in steady state.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs,
    /// [`FrameworkError::RunToCompletion`] once poisoned, and any
    /// framework or substrate error raised along the way.
    pub fn run_transaction(&mut self, head: ComponentRef) -> Result<(), FrameworkError> {
        let (system, slot) = self.engine.engine_mut(head)?;
        system.run_transaction(slot)
    }

    /// Releases every periodic component once, in priority order.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::RunToCompletion`] once poisoned; the first
    /// transaction error aborts the tick.
    pub fn run_tick(&mut self) -> Result<(), FrameworkError> {
        self.engine.shard_system_mut(0)?.run_tick()
    }

    /// Injects an external stimulus on a pre-resolved server port, then
    /// drains the cascade.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs,
    /// [`FrameworkError::RunToCompletion`] once poisoned, and any
    /// framework or substrate error raised along the way.
    pub fn inject(&mut self, port: PortRef, msg: P) -> Result<(), FrameworkError> {
        let (system, slot, port_ix) = self.engine.port_mut(port)?;
        system.inject_at(slot, port_ix, msg)
    }

    /// Advances the engine clock to `now` and fires every due scheduled
    /// release as a full transaction. Returns the number fired.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::RunToCompletion`] once poisoned; the first
    /// failing fired transaction aborts the advance.
    pub fn fire_timers_until(&mut self, now: AbsoluteTime) -> Result<u64, FrameworkError> {
        self.engine.shard_system_mut(0)?.advance_clock_to(now)
    }

    /// The engine's virtual release clock.
    pub fn timer_clock(&self) -> AbsoluteTime {
        self.system().clock()
    }

    /// Tokens of every periodic component, highest priority first (release
    /// order within one tick).
    pub fn periodic_heads(&self) -> Vec<ComponentRef> {
        // On a one-shard plan a slot is its component's global index.
        self.system()
            .periodic_heads()
            .into_iter()
            .map(|slot| self.engine.token(slot))
            .collect()
    }

    // -----------------------------------------------------------------
    // The one shard's engine
    // -----------------------------------------------------------------

    /// The one shard's engine, read-only: [`System`] exposes only its
    /// substrate, footprint and structural digest.
    pub fn system(&self) -> &System<P> {
        self.engine.shard_system(0)
    }

    /// Direct access to the substrate (experiments, footprint).
    pub fn memory(&self) -> &MemoryManager {
        self.system().memory()
    }

    /// The footprint report of the running system.
    pub fn footprint(&self) -> FootprintReport {
        self.system().footprint()
    }

    /// Thread-domain roster: name, thread kind and priority per domain.
    pub fn domain_info(&self) -> Vec<(String, ThreadKind, Priority)> {
        self.system().domain_info()
    }

    /// Name resolutions performed so far: [`resolve`](ParallelSystem::resolve)
    /// and the name-addressed cold paths count; a steady-state loop driven
    /// through [`ComponentRef`]s keeps this constant.
    pub fn name_lookups(&self) -> u64 {
        self.system().name_lookups()
    }
}
