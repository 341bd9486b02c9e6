//! Async wrappers over the two MPF backends.
//!
//! [`AsyncMpf`] wraps the in-process facility (`mpf::Mpf`), [`AsyncIpc`]
//! the multi-process one (`mpf_ipc::IpcMpf`).  Both hand out the same
//! three futures — [`RecvFuture`], [`SendFuture`], [`SelectAny`] — and
//! own one [`Reactor`] thread that multiplexes every pending future over
//! the backend's wake signal (see the reactor module for the
//! lost-wakeup-free watch-then-ticket protocol).

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpf::{LnvcId, Mpf, MpfError, ProcessId, Protocol, Result};
use mpf_ipc::{IpcLnvcId, IpcMpf};
use mpf_shm::waitq::{WaitQueue, WaitStrategy};

use crate::reactor::{Backend, Reactor};

// ----------------------------------------------------------------------
// Backends
// ----------------------------------------------------------------------

/// In-process (thread) backend: signals are heap wait queues, so the
/// reactor's wait is a single `wait_many` over every registered
/// conversation plus the memory queue plus its own wake queue.  Watches
/// are no-ops: the wait already covers every registered queue.
pub struct ThreadBackend {
    mpf: Arc<Mpf>,
    pid: ProcessId,
    wake: WaitQueue,
}

impl Backend for ThreadBackend {
    type Id = LnvcId;

    fn try_recv(&self, id: LnvcId) -> Result<Option<Vec<u8>>> {
        self.mpf.try_message_receive_vec(self.pid, id)
    }

    fn try_send(&self, id: LnvcId, payload: &[u8]) -> Result<bool> {
        self.mpf.try_message_send(self.pid, id, payload)
    }

    fn recv_ticket(&self, id: LnvcId) -> Result<u32> {
        self.mpf.recv_signal_ticket(id)
    }

    fn mem_ticket(&self) -> u32 {
        self.mpf.mem_signal_ticket()
    }

    fn mem_recheck(&self) -> Option<Duration> {
        None
    }

    fn watch_recv(&self, _id: LnvcId) -> Result<()> {
        Ok(())
    }

    fn unwatch_recv(&self, _id: LnvcId) {}

    fn watch_mem(&self) {}

    fn unwatch_mem(&self) {}

    type Ticket = u32;

    fn wake_ticket(&self) -> u32 {
        self.wake.ticket()
    }

    fn wake(&self) {
        self.wake.notify_all();
    }

    fn wait(&self, recv: &[(LnvcId, u32)], mem: Option<u32>, wake: u32, until: Option<Instant>) {
        self.mpf
            .wait_signals_deadline(recv, mem, Some((&self.wake, wake)), until);
    }
}

/// Multi-process backend.  With futures registered, the reactor parks
/// on this process's doorbell in the shared region: their watches make
/// senders on every registered conversation, and frees while senders are
/// pending, ring it.  With none registered it parks on a process-local
/// queue instead, so rings meant for this process's other multi-waiters
/// (a serve worker's wait-any) do not wake it.  Registrations and
/// shutdown move both.
pub struct IpcBackend {
    ipc: Arc<IpcMpf>,
    idle: WaitQueue,
}

impl Backend for IpcBackend {
    type Id = IpcLnvcId;

    fn try_recv(&self, id: IpcLnvcId) -> Result<Option<Vec<u8>>> {
        self.ipc.try_message_receive_vec(id)
    }

    fn try_send(&self, id: IpcLnvcId, payload: &[u8]) -> Result<bool> {
        self.ipc.try_message_send(id, payload)
    }

    fn recv_ticket(&self, id: IpcLnvcId) -> Result<u32> {
        self.ipc.recv_signal_ticket(id)
    }

    fn mem_ticket(&self) -> u32 {
        self.ipc.free_ticket()
    }

    /// A retry can fail on another sender's partial allocation, whose
    /// rollback does not signal; the same bound `send_deadline` parks by.
    fn mem_recheck(&self) -> Option<Duration> {
        Some(IpcMpf::SWEEP_INTERVAL)
    }

    fn watch_recv(&self, id: IpcLnvcId) -> Result<()> {
        self.ipc.watch_recv(id)
    }

    fn unwatch_recv(&self, id: IpcLnvcId) {
        self.ipc.unwatch_recv(id);
    }

    fn watch_mem(&self) {
        self.ipc.watch_free();
    }

    fn unwatch_mem(&self) {
        self.ipc.unwatch_free();
    }

    /// `(idle queue, doorbell)`.
    type Ticket = (u32, u32);

    fn wake_ticket(&self) -> (u32, u32) {
        (self.idle.ticket(), self.ipc.doorbell_ticket())
    }

    fn wake(&self) {
        self.idle.notify_all();
        self.ipc.ring_doorbell();
    }

    fn wait(
        &self,
        recv: &[(IpcLnvcId, u32)],
        mem: Option<u32>,
        (idle, bell): (u32, u32),
        until: Option<Instant>,
    ) {
        if recv.is_empty() && mem.is_none() {
            self.idle.wait_deadline(idle, WaitStrategy::Futex, until);
        } else {
            // The doorbell stands in for every registered signal.
            self.ipc.wait_doorbell(bell, until);
        }
    }
}

// ----------------------------------------------------------------------
// Reactor lifetime
// ----------------------------------------------------------------------

/// Owns the reactor thread; dropping the last clone of a facility stops
/// and joins it.
struct Driver<B: Backend> {
    reactor: Arc<Reactor<B>>,
    thread: Option<JoinHandle<()>>,
}

impl<B: Backend> Driver<B> {
    fn start(backend: Arc<B>) -> Self {
        let (reactor, thread) = Reactor::start(backend);
        Driver {
            reactor,
            thread: Some(thread),
        }
    }
}

impl<B: Backend> Drop for Driver<B> {
    fn drop(&mut self) {
        self.reactor.stop();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

// ----------------------------------------------------------------------
// Futures
// ----------------------------------------------------------------------

/// A future's hold on the reactor: its registration token and the
/// watches it took.  Released when the future resolves or is dropped, so
/// nothing it registered outlives it.
struct Interest<B: Backend> {
    reactor: Arc<Reactor<B>>,
    token: u64,
    /// Whether the watches below were taken (the first poll that could
    /// not complete takes them).
    armed: bool,
    recv: Vec<B::Id>,
    mem: bool,
}

impl<B: Backend> Interest<B> {
    fn new(reactor: &Arc<Reactor<B>>) -> Self {
        Interest {
            reactor: Arc::clone(reactor),
            token: reactor.token(),
            armed: false,
            recv: Vec::new(),
            mem: false,
        }
    }

    fn backend(&self) -> &B {
        &self.reactor.backend
    }

    /// Watches every conversation in `ids` (kept on error, so release
    /// drops exactly what was taken).
    fn arm_recv(&mut self, ids: &[B::Id]) -> Result<()> {
        self.armed = true;
        for &id in ids {
            self.reactor.backend.watch_recv(id)?;
            self.recv.push(id);
        }
        Ok(())
    }

    fn arm_mem(&mut self) {
        self.armed = true;
        self.reactor.backend.watch_mem();
        self.mem = true;
    }

    /// Deregisters and drops the watches; idempotent.
    fn release(&mut self) {
        self.reactor.deregister(self.token);
        for id in self.recv.drain(..) {
            self.reactor.backend.unwatch_recv(id);
        }
        if std::mem::take(&mut self.mem) {
            self.reactor.backend.unwatch_mem();
        }
        self.armed = false;
    }

    /// Releases on a resolved poll.
    fn finish<T>(&mut self, r: T) -> Poll<T> {
        self.release();
        Poll::Ready(r)
    }

    /// The receive futures' poll: the first of `ids` with a message, or
    /// a registration on all of them.  A message already waiting needs
    /// no watch; otherwise watch, then take every ticket, then try every
    /// member again — traffic landing after its ticket moves that
    /// sequence, and the watch makes it ring the reactor.
    fn poll_recv(&mut self, ids: &[B::Id], cx: &mut Context<'_>) -> Poll<Result<(B::Id, Vec<u8>)>> {
        let try_any = |b: &B| -> Result<Option<(B::Id, Vec<u8>)>> {
            for &id in ids {
                if let Some(msg) = b.try_recv(id)? {
                    return Ok(Some((id, msg)));
                }
            }
            Ok(None)
        };
        if !self.armed {
            if let Some(r) = try_any(self.backend()).transpose() {
                return self.finish(r);
            }
            if let Err(e) = self.arm_recv(ids) {
                return self.finish(Err(e));
            }
        }
        let mut tickets = Vec::with_capacity(ids.len());
        for &id in ids {
            match self.backend().recv_ticket(id) {
                Ok(t) => tickets.push((id, t)),
                Err(e) => return self.finish(Err(e)),
            }
        }
        match try_any(self.backend()).transpose() {
            Some(r) => self.finish(r),
            None => {
                self.reactor.register_recv(self.token, &tickets, cx.waker());
                Poll::Pending
            }
        }
    }
}

impl<B: Backend> Drop for Interest<B> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Resolves to the next message on one conversation.
pub struct RecvFuture<B: Backend> {
    interest: Interest<B>,
    id: B::Id,
}

impl<B: Backend> Future for RecvFuture<B> {
    type Output = Result<Vec<u8>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let id = self.id;
        self.interest
            .poll_recv(&[id], cx)
            .map(|r| r.map(|(_, msg)| msg))
    }
}

/// Resolves when the owned payload has been enqueued on the
/// conversation; pends (with flow control) while the region's message
/// or block pool is exhausted.
pub struct SendFuture<B: Backend> {
    interest: Interest<B>,
    id: B::Id,
    payload: Vec<u8>,
}

impl<B: Backend> Future for SendFuture<B> {
    type Output = Result<()>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let it = &mut this.interest;
        if !it.armed {
            match it.backend().try_send(this.id, &this.payload) {
                Ok(false) => {}
                r => return it.finish(r.map(|_| ())),
            }
            it.arm_mem();
        }
        let ticket = it.backend().mem_ticket();
        match it.backend().try_send(this.id, &this.payload) {
            Ok(false) => {
                it.reactor.register_send(it.token, ticket, cx.waker());
                Poll::Pending
            }
            r => it.finish(r.map(|_| ())),
        }
    }
}

/// A future bounded by a wall-clock deadline: resolves to the inner
/// result if it completes first, or [`MpfError::TimedOut`] once the
/// deadline passes.  Built by the `.deadline(at)` combinator on
/// [`RecvFuture`], [`SendFuture`] and [`SelectAny`]; the reactor holds
/// the expiry as a timer registration, so the wake needs no extra
/// thread and no polling executor — plain [`crate::block_on`] works.
///
/// The inner future is polled *before* the clock check, so a completion
/// racing the deadline resolves, not times out.
pub struct Deadline<B: Backend, F> {
    interest: Interest<B>,
    inner: F,
    at: Instant,
}

impl<B: Backend, T, F> Future for Deadline<B, F>
where
    F: Future<Output = Result<T>> + Unpin,
{
    type Output = Result<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match Pin::new(&mut this.inner).poll(cx) {
            Poll::Ready(r) => this.interest.finish(r),
            Poll::Pending => {
                if Instant::now() >= this.at {
                    return this.interest.finish(Err(MpfError::TimedOut));
                }
                let it = &this.interest;
                it.reactor.register_timer(it.token, this.at, cx.waker());
                Poll::Pending
            }
        }
    }
}

macro_rules! deadline_combinator {
    ($future:ident) => {
        impl<B: Backend> $future<B> {
            /// Bounds this future by a wall-clock deadline
            /// ([`MpfError::TimedOut`] once it passes).
            pub fn deadline(self, at: Instant) -> Deadline<B, Self> {
                Deadline {
                    interest: Interest::new(&self.interest.reactor),
                    inner: self,
                    at,
                }
            }

            /// [`deadline`](Self::deadline) with a relative timeout.
            pub fn timeout(self, after: Duration) -> Deadline<B, Self> {
                self.deadline(Instant::now() + after)
            }
        }
    };
}

deadline_combinator!(RecvFuture);
deadline_combinator!(SendFuture);
deadline_combinator!(SelectAny);

/// Resolves to `(conversation, message)` for whichever registered
/// conversation delivers first.
pub struct SelectAny<B: Backend> {
    interest: Interest<B>,
    ids: Vec<B::Id>,
}

impl<B: Backend> Future for SelectAny<B> {
    type Output = Result<(B::Id, Vec<u8>)>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        this.interest.poll_recv(&this.ids, cx)
    }
}

// ----------------------------------------------------------------------
// Public facades
// ----------------------------------------------------------------------

macro_rules! future_ctors {
    ($backend:ty, $id:ty) => {
        /// Receives the next message on `id`.
        pub fn recv(&self, id: $id) -> RecvFuture<$backend> {
            RecvFuture {
                interest: Interest::new(&self.driver.reactor),
                id,
            }
        }

        /// Sends `payload` on `id`, pending while the region is full.
        pub fn send(&self, id: $id, payload: Vec<u8>) -> SendFuture<$backend> {
            SendFuture {
                interest: Interest::new(&self.driver.reactor),
                id,
                payload,
            }
        }

        /// Receives from whichever of `ids` delivers first.
        pub fn select_any(&self, ids: &[$id]) -> SelectAny<$backend> {
            assert!(
                !ids.is_empty(),
                "select_any needs at least one conversation"
            );
            SelectAny {
                interest: Interest::new(&self.driver.reactor),
                ids: ids.to_vec(),
            }
        }
    };
}

/// Async facade over the in-process facility, bound to one logical
/// process.  Clones share the reactor thread.
#[derive(Clone)]
pub struct AsyncMpf {
    mpf: Arc<Mpf>,
    pid: ProcessId,
    driver: Arc<Driver<ThreadBackend>>,
}

impl AsyncMpf {
    /// Wraps `mpf` for logical process `pid`, starting the reactor.
    pub fn new(mpf: Arc<Mpf>, pid: ProcessId) -> Self {
        let backend = Arc::new(ThreadBackend {
            mpf: Arc::clone(&mpf),
            pid,
            wake: WaitQueue::new(),
        });
        AsyncMpf {
            mpf,
            pid,
            driver: Arc::new(Driver::start(backend)),
        }
    }

    /// The wrapped facility, for the sync primitives.
    pub fn facility(&self) -> &Arc<Mpf> {
        &self.mpf
    }

    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    pub fn open_send(&self, name: &str) -> Result<LnvcId> {
        self.mpf.open_send(self.pid, name)
    }

    pub fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.mpf.open_receive(self.pid, name, protocol)
    }

    pub fn close_send(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_send(self.pid, id)
    }

    pub fn close_receive(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_receive(self.pid, id)
    }

    future_ctors!(ThreadBackend, LnvcId);
}

/// Async facade over the multi-process facility.  Clones share the
/// reactor thread.
#[derive(Clone)]
pub struct AsyncIpc {
    ipc: Arc<IpcMpf>,
    driver: Arc<Driver<IpcBackend>>,
}

impl AsyncIpc {
    /// Wraps an attached region view, starting the reactor.
    pub fn new(ipc: Arc<IpcMpf>) -> Self {
        let backend = Arc::new(IpcBackend {
            ipc: Arc::clone(&ipc),
            idle: WaitQueue::new(),
        });
        AsyncIpc {
            ipc,
            driver: Arc::new(Driver::start(backend)),
        }
    }

    /// The wrapped region view, for the sync primitives.
    pub fn facility(&self) -> &Arc<IpcMpf> {
        &self.ipc
    }

    pub fn open_send(&self, name: &str) -> Result<IpcLnvcId> {
        self.ipc.open_send(name)
    }

    pub fn open_receive(&self, name: &str, protocol: Protocol) -> Result<IpcLnvcId> {
        self.ipc.open_receive(name, protocol)
    }

    pub fn close_send(&self, id: IpcLnvcId) -> Result<()> {
        self.ipc.close_send(id)
    }

    pub fn close_receive(&self, id: IpcLnvcId) -> Result<()> {
        self.ipc.close_receive(id)
    }

    future_ctors!(IpcBackend, IpcLnvcId);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use std::task::Waker;

    /// Polls `fut` once with a waker that does nothing.
    fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        Pin::new(fut).poll(&mut Context::from_waker(Waker::noop()))
    }

    /// Drives `n` select-any rounds in which the future registers, one
    /// member then fires, and the future resolves; plus `n` futures
    /// dropped while pending and `n` deadlines that expire.  Nothing may
    /// stay registered beyond one live select's members.
    fn churn<B: Backend>(
        reactor: &Arc<Reactor<B>>,
        select: impl Fn() -> SelectAny<B>,
        fire: impl Fn(usize),
        n: usize,
    ) {
        for i in 0..n {
            let mut fut = select();
            assert!(poll_once(&mut fut).is_pending(), "nothing sent yet");
            fire(i);
            block_on(&mut fut).expect("fired member delivers");
            assert!(reactor.pending() <= fut.ids.len());
        }
        for _ in 0..n {
            let mut fut = select();
            assert!(poll_once(&mut fut).is_pending());
        }
        for _ in 0..n {
            let r = block_on(select().timeout(Duration::from_micros(10)));
            assert_eq!(r.unwrap_err(), MpfError::TimedOut);
        }
        assert_eq!(
            reactor.pending(),
            0,
            "resolved and dropped futures deregister"
        );
    }

    #[test]
    fn select_any_leaves_no_registrations_behind_thread_backend() {
        let m = Arc::new(Mpf::init(mpf::MpfConfig::new(8, 4)).unwrap());
        let (pa, pb) = (ProcessId::from_index(0), ProcessId::from_index(1));
        let a = AsyncMpf::new(Arc::clone(&m), pa);
        let tx = [
            m.open_send(pb, "m0").unwrap(),
            m.open_send(pb, "m1").unwrap(),
        ];
        let ids = [
            a.open_receive("m0", Protocol::Fcfs).unwrap(),
            a.open_receive("m1", Protocol::Fcfs).unwrap(),
        ];
        churn(
            &a.driver.reactor,
            || a.select_any(&ids),
            |i| m.message_send(pb, tx[i % 2], b"fire").unwrap(),
            1000,
        );
    }

    #[test]
    fn select_any_leaves_no_registrations_behind_ipc_backend() {
        if !mpf_shm::sys::HAVE_SYSCALLS {
            return;
        }
        let name = format!("aio-churn-{}", std::process::id());
        let ipc = Arc::new(IpcMpf::create(&name, &mpf::MpfConfig::new(8, 4)).unwrap());
        let peer = ipc.attach_view().unwrap();
        let a = AsyncIpc::new(Arc::clone(&ipc));
        let tx = [peer.open_send("m0").unwrap(), peer.open_send("m1").unwrap()];
        let ids = [
            a.open_receive("m0", Protocol::Fcfs).unwrap(),
            a.open_receive("m1", Protocol::Fcfs).unwrap(),
        ];
        churn(
            &a.driver.reactor,
            || a.select_any(&ids),
            |i| peer.message_send(tx[i % 2], b"fire").unwrap(),
            1000,
        );
        for id in ids {
            assert_eq!(ipc.lnvc_watchers(id).unwrap(), 0, "every watch dropped");
        }
    }
}
