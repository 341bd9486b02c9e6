//! The reactor: one thread per async facility whose single waiter
//! multiplexes every registered interest over the backend's wake signal.
//!
//! ## Lost-wakeup-free protocol
//!
//! A future first **watches** its signals (on the multi-process backend
//! that makes senders ring this process's doorbell), then takes each
//! signal's sequence **ticket**, then attempts the non-blocking operation.
//! If the operation would block it registers `(interest, ticket, waker)`
//! here.  Traffic that lands between the try and the registration has
//! already moved the sequence past the stored ticket, so the reactor's
//! next scan fires the waker immediately instead of sleeping on it.
//! Registration moves the backend's wake signal, and the reactor samples
//! that signal's ticket before each scan — the same protocol one level
//! up — so a registration landing mid-scan cuts the following wait short.
//!
//! Every registration carries its future's token.  A re-poll replaces
//! the future's previous entries, and resolving or dropping the future
//! removes them, so the lists hold only live interests.
//!
//! Wakes are allowed to be spurious (futures re-poll and re-register);
//! they are never allowed to be lost.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpf::Result;

/// What the reactor needs from a facility.  Implemented for the thread
/// backend (`mpf::Mpf`) and the multi-process backend
/// (`mpf_ipc::IpcMpf`).
pub trait Backend: Send + Sync + 'static {
    /// Conversation handle (`LnvcId` or `IpcLnvcId`).
    type Id: Copy + PartialEq + Send + Sync + Debug + Unpin + 'static;

    /// Non-blocking receive; `Ok(None)` when nothing is deliverable.
    fn try_recv(&self, id: Self::Id) -> Result<Option<Vec<u8>>>;
    /// Non-blocking send; `Ok(false)` when the region is exhausted and
    /// the caller should retry after capacity frees.
    fn try_send(&self, id: Self::Id, payload: &[u8]) -> Result<bool>;
    /// Current sequence of `id`'s receive signal.
    fn recv_ticket(&self, id: Self::Id) -> Result<u32>;
    /// Current sequence of the sender flow-control (memory) signal.
    fn mem_ticket(&self) -> u32;
    /// How long a blocked send may wait for the memory signal before the
    /// reactor wakes it to retry anyway; `None` waits for the signal.
    /// Needed where a rival sender's transient hold on the pools can fail
    /// a retry without a later signal.
    fn mem_recheck(&self) -> Option<Duration>;
    /// Makes traffic on `id` move the wake signal until the matching
    /// [`Backend::unwatch_recv`].  Called before the ticket a
    /// registration stores is taken.
    fn watch_recv(&self, id: Self::Id) -> Result<()>;
    /// Drops one [`Backend::watch_recv`].
    fn unwatch_recv(&self, id: Self::Id);
    /// Makes freed capacity move the wake signal until the matching
    /// [`Backend::unwatch_mem`].
    fn watch_mem(&self);
    /// Drops one [`Backend::watch_mem`].
    fn unwatch_mem(&self);
    /// Ticket of the reactor's wake signal(s).
    type Ticket: Copy;
    /// Current ticket of the reactor's wake signal.
    fn wake_ticket(&self) -> Self::Ticket;
    /// Moves the wake signal (a new registration, or shutdown).
    fn wake(&self);
    /// Blocks until any of the signals may have fired: a listed receive
    /// queue moves past its ticket, the memory signal moves past `mem`,
    /// or the wake signal moves past `wake`.  Early returns are fine.
    /// `until` is the earliest registered timer deadline: the wait must
    /// return by then (give or take scheduler latency) so the reactor
    /// can fire it.
    fn wait(
        &self,
        recv: &[(Self::Id, u32)],
        mem: Option<u32>,
        wake: Self::Ticket,
        until: Option<Instant>,
    );
}

/// Registrations, each tagged with its future's token.
struct State<Id> {
    recv: Vec<(u64, Id, u32, Waker)>,
    send: Vec<(u64, u32, Waker)>,
    /// Deadline registrations from `Deadline`-wrapped futures and send
    /// rechecks: fired (and dropped) once `Instant::now()` passes the
    /// stored instant.
    timers: Vec<(u64, Instant, Waker)>,
}

pub(crate) struct Reactor<B: Backend> {
    pub(crate) backend: Arc<B>,
    state: Mutex<State<B::Id>>,
    next_token: AtomicU64,
    shutdown: AtomicBool,
}

impl<B: Backend> Reactor<B> {
    pub(crate) fn start(backend: Arc<B>) -> (Arc<Self>, JoinHandle<()>) {
        let reactor = Arc::new(Reactor {
            backend,
            state: Mutex::new(State {
                recv: Vec::new(),
                send: Vec::new(),
                timers: Vec::new(),
            }),
            next_token: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let r = Arc::clone(&reactor);
        let thread = std::thread::Builder::new()
            .name("mpf-aio-reactor".into())
            .spawn(move || r.run())
            .expect("spawn mpf-aio reactor thread");
        (reactor, thread)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State<B::Id>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A fresh registration token for one future.
    pub(crate) fn token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers interest in each `(id, ticket)` receive signal moving
    /// past its ticket, replacing `token`'s previous receive entries.
    pub(crate) fn register_recv(&self, token: u64, interests: &[(B::Id, u32)], waker: &Waker) {
        let mut st = self.state();
        st.recv.retain(|e| e.0 != token);
        st.recv.extend(
            interests
                .iter()
                .map(|&(id, ticket)| (token, id, ticket, waker.clone())),
        );
        drop(st);
        self.backend.wake();
    }

    /// Registers interest in the memory signal moving past `ticket`,
    /// replacing `token`'s previous send entry, plus the backend's
    /// recheck wake ([`Backend::mem_recheck`]) as a timer of `token`.
    pub(crate) fn register_send(&self, token: u64, ticket: u32, waker: &Waker) {
        let recheck = self.backend.mem_recheck().map(|d| Instant::now() + d);
        let mut st = self.state();
        st.send.retain(|e| e.0 != token);
        st.send.push((token, ticket, waker.clone()));
        if let Some(at) = recheck {
            st.timers.retain(|e| e.0 != token);
            st.timers.push((token, at, waker.clone()));
        }
        drop(st);
        self.backend.wake();
    }

    /// Registers a wake at `at` (a `Deadline` future's expiry), replacing
    /// `token`'s previous timer.  The wake is allowed to be late by one
    /// scheduler quantum and, like every reactor wake, allowed to be
    /// spurious — the wrapped future re-checks the clock on poll.
    pub(crate) fn register_timer(&self, token: u64, at: Instant, waker: &Waker) {
        let mut st = self.state();
        st.timers.retain(|e| e.0 != token);
        st.timers.push((token, at, waker.clone()));
        drop(st);
        self.backend.wake();
    }

    /// Removes every registration of `token` (its future resolved or was
    /// dropped).
    pub(crate) fn deregister(&self, token: u64) {
        let mut st = self.state();
        st.recv.retain(|e| e.0 != token);
        st.send.retain(|e| e.0 != token);
        st.timers.retain(|e| e.0 != token);
    }

    /// Registrations currently held, of every kind.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        let st = self.state();
        st.recv.len() + st.send.len() + st.timers.len()
    }

    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.backend.wake();
    }

    fn run(&self) {
        loop {
            // Sampled before the shutdown check and the scan, so a `stop`
            // or a registration landing after it makes the wait below
            // return immediately.
            let wake_ticket = self.backend.wake_ticket();
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut fired: Vec<Waker> = Vec::new();
            let (recv_wait, mem_wait, next_timer) = {
                let mut st = self.state();
                st.recv.retain(|(_, id, ticket, waker)| {
                    match self.backend.recv_ticket(*id) {
                        Ok(cur) if cur == *ticket => true,
                        // Moved — or the conversation is gone, in which
                        // case the future surfaces the error on re-poll.
                        _ => {
                            fired.push(waker.clone());
                            false
                        }
                    }
                });
                let mem_now = self.backend.mem_ticket();
                st.send.retain(|(_, ticket, waker)| {
                    if mem_now == *ticket {
                        true
                    } else {
                        fired.push(waker.clone());
                        false
                    }
                });
                // Fire expired timers; the earliest survivor bounds the
                // wait below.
                let now = Instant::now();
                st.timers.retain(|(_, at, waker)| {
                    if now >= *at {
                        fired.push(waker.clone());
                        false
                    } else {
                        true
                    }
                });
                (
                    st.recv
                        .iter()
                        .map(|&(_, id, ticket, _)| (id, ticket))
                        .collect::<Vec<_>>(),
                    st.send.first().map(|&(_, ticket, _)| ticket),
                    st.timers.iter().map(|&(_, at, _)| at).min(),
                )
            };
            let woke_any = !fired.is_empty();
            for w in fired {
                w.wake();
            }
            if woke_any {
                continue;
            }
            self.backend
                .wait(&recv_wait, mem_wait, wake_ticket, next_timer);
        }
    }
}
