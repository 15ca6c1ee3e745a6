//! The process-wide cache of idle worker threads behind
//! [`ParallelSystem`](crate::parallel::ParallelSystem)'s shards.
//!
//! A deployment leases one thread per shard beyond the first on its first
//! run — the caller drives shard 0 itself, so a one-shard plan leases none
//! — and keeps it for its whole life. When the deployment drops, each
//! thread parks back here and waits for its next lease, so a deployment
//! built after another one is dropped runs on warm threads instead of
//! spawning cold ones. Spawning is only the fallback for an empty cache.

use std::io;
use std::sync::mpsc::{sync_channel, SendError, SyncSender};
use std::sync::{Mutex, PoisonError};

/// Work handed to a leased thread. It receives the thread's [`Idle`]
/// token; dropping the token parks the thread back in the cache.
pub(crate) type Task = Box<dyn FnOnce(Idle) + Send>;

/// One entry per parked thread: the sender its next [`Task`] arrives on.
static IDLE: Mutex<Vec<SyncSender<Task>>> = Mutex::new(Vec::new());

/// A leased thread's way home. Dropping it parks the thread in the idle
/// cache — a task drops it *before* it signals its owner that it is
/// finished, so an owner that waits for that signal knows the thread is
/// already available to the next lease.
pub(crate) struct Idle(SyncSender<Task>);

impl Drop for Idle {
    fn drop(&mut self) {
        IDLE.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(self.0.clone());
    }
}

/// Runs `task` on a parked thread, or on a newly spawned one when none is
/// parked.
///
/// # Errors
///
/// The OS refused to spawn a thread.
pub(crate) fn lease(mut task: Task) -> io::Result<()> {
    loop {
        let parked = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let Some(tx) = parked else { break };
        match tx.send(task) {
            Ok(()) => return Ok(()),
            // That thread is gone (it died unwinding); try the next one.
            Err(SendError(back)) => task = back,
        }
    }
    let (tx, rx) = sync_channel::<Task>(1);
    std::thread::Builder::new()
        .name("soleil-shard".into())
        .spawn(move || {
            let mut task = task;
            loop {
                task(Idle(tx.clone()));
                // The thread holds its own sender: it waits here, parked,
                // for as long as the process lives.
                let Ok(next) = rx.recv() else { return };
                task = next;
            }
        })?;
    Ok(())
}
