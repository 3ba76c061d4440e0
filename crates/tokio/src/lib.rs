//! Self-contained stand-in for the subset of the tokio API this
//! workspace uses (see the workspace `Cargo.toml`: the build environment
//! has no registry access, so external dependencies are provided by
//! local crates implementing exactly the surface the repo consumes).
//!
//! What this provides:
//!
//! * [`runtime::Runtime`] — a **current-thread, readiness-driven
//!   executor**: `block_on` drives the main future plus every
//!   [`task::spawn`]ed task, polling a task only after its [`Waker`] was
//!   used, and parks between rounds in one `ppoll(2)` over the sockets
//!   tasks wait on, until the earliest armed timer.
//! * [`net::UdpSocket`] — async UDP over a nonblocking std socket.
//! * [`time`] — [`time::sleep`] and [`time::timeout`] against the OS
//!   monotonic clock.
//! * [`sync::mpsc`] — unbounded channels usable across tasks (and
//!   threads).
//!
//! # What wakes a task
//!
//! | waiting on | woken by |
//! |---|---|
//! | [`sync::mpsc::UnboundedReceiver::recv`] | a `send`, or the last sender dropping |
//! | [`task::JoinHandle`] | the task completing |
//! | [`task::yield_now`] | itself, for the next round |
//! | [`time::sleep`] / [`time::timeout`] | its entry in the ordered timer map coming due; dropping the future disarms the entry |
//! | [`net::UdpSocket::recv_from`] / `send_to` | `ppoll` reporting the descriptor readable / writable |
//!
//! A round polls the woken tasks — the main future first, then spawn
//! order; a task woken by an earlier one runs in the same round — and
//! then looks at the world. Two ordering rules hold there:
//!
//! 1. **Sockets before timers.** A due timer fires only when the look at
//!    the sockets found none ready. A burst of datagrams therefore
//!    drains hop by hop to the end of its path before a timer-driven
//!    generator feeds the next one in behind it, so a path sheds
//!    overload at its first hop rather than after paying for several.
//!    The price is that a due `sleep` waits for the sockets to go quiet:
//!    at most one burst's path length of rounds, unless datagrams keep
//!    arriving from outside the runtime.
//! 2. **Sockets every round.** The `ppoll` runs after every round, with
//!    a zero timeout while any task is runnable, so a task that keeps
//!    itself runnable (`yield_now` in a loop) cannot starve the readers.
//!
//! The safety net is the park cap (5 ms): a park that reaches it with
//! nothing ready re-polls every task. A hand-written future that returns
//! `Pending` without keeping its waker, or a wake from another thread
//! while this one is parked, is therefore late by at most the cap rather
//! than lost.
//!
//! Semantic differences from real tokio, chosen for simplicity and fine
//! for the loopback harness: everything runs on the caller's thread
//! (`spawn` requires being inside `block_on`), spawned tasks are dropped
//! when `block_on` returns, and the park is `ppoll(2)` declared
//! `extern "C"` against the platform libc, so the crate is Linux-only.

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::future::Future;
use std::os::fd::RawFd;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Longest park. One that reaches it with no socket ready and no timer
/// due re-polls every task (see the [crate docs](crate)).
const PARK_CAP: Duration = Duration::from_millis(5);

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

thread_local! {
    static EXEC: RefCell<Option<ExecState>> = const { RefCell::new(None) };
}

/// A task's wake flag and the [`Waker`] that sets it.
struct TaskWake {
    woken: Arc<Woken>,
    waker: Waker,
}

/// Set by the waker (from any thread), cleared by the run loop when it
/// polls the task. The `Release` store pairs with the `Acquire` swap, so
/// what the waking side wrote before the wake is visible to the poll.
struct Woken(AtomicBool);

impl Wake for Woken {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }
}

impl TaskWake {
    /// A new task is runnable: it has never been polled.
    fn new() -> TaskWake {
        let woken = Arc::new(Woken(AtomicBool::new(true)));
        TaskWake { waker: Waker::from(woken.clone()), woken }
    }

    fn is_woken(&self) -> bool {
        self.woken.0.load(Ordering::Acquire)
    }

    /// Polls `fut` if the task was woken since its last poll, clearing
    /// the flag first so a wake during the poll is kept.
    fn poll_if_woken<F: Future + ?Sized>(&self, fut: Pin<&mut F>) -> Poll<F::Output> {
        if self.woken.0.swap(false, Ordering::Acquire) {
            fut.poll(&mut Context::from_waker(&self.waker))
        } else {
            Poll::Pending
        }
    }
}

/// A spawned task.
struct Task {
    wake: TaskWake,
    fut: Pin<Box<dyn Future<Output = ()>>>,
}

/// Executor bookkeeping shared (via thread-local) with leaf futures.
#[derive(Default)]
struct ExecState {
    /// Tasks spawned while a round is in progress; they join the set,
    /// runnable, when it ends.
    incoming: Vec<Task>,
    /// Armed [`time::Sleep`]s by `(deadline, id)`, earliest first.
    timers: BTreeMap<(Instant, u64), Waker>,
    /// Id of the next timer armed (tells equal deadlines apart).
    next_timer: u64,
    /// Sockets a future is waiting on; `io_wakers[i]` belongs to
    /// `fds[i]`. At most one entry per `(fd, events)`, forgotten when
    /// `ppoll` reports it.
    fds: Vec<PollFd>,
    io_wakers: Vec<Waker>,
}

impl ExecState {
    /// Has `waker` woken once `fd` is ready for `events`.
    fn register_io(&mut self, fd: RawFd, events: c_short, waker: &Waker) {
        match self.fds.iter().position(|p| p.fd == fd && p.events == events) {
            Some(i) => self.io_wakers[i].clone_from(waker),
            None => {
                self.fds.push(PollFd { fd, events, revents: 0 });
                self.io_wakers.push(waker.clone());
            }
        }
    }

    /// Waits up to `timeout` for a registered socket, then wakes and
    /// forgets every one that is ready. Returns whether any was.
    fn poll_sockets(&mut self, timeout: Duration) -> bool {
        let timeout = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` points at `fds.len()` initialised `pollfd`s that
        // nothing else touches during the call, `timeout` at a live
        // `timespec`, and a null signal mask leaves the mask alone.
        let ready = unsafe {
            ppoll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, &timeout, std::ptr::null())
        };
        if ready < 0 {
            let err = std::io::Error::last_os_error();
            assert!(err.kind() == std::io::ErrorKind::Interrupted, "ppoll failed: {err}");
            return false;
        }
        let (mut i, mut unseen) = (0, ready);
        while unseen > 0 {
            // Any report ends the wait, errors and hang-ups included:
            // the woken task's next syscall on the socket sees them.
            if self.fds[i].revents != 0 {
                self.fds.swap_remove(i);
                self.io_wakers.swap_remove(i).wake();
                unseen -= 1;
            } else {
                i += 1;
            }
        }
        ready > 0
    }

    /// Wakes and forgets every timer due at `now`. Returns whether any
    /// was.
    fn fire_timers(&mut self, now: Instant) -> bool {
        let mut fired = false;
        while let Some(first) = self.timers.first_entry() {
            if first.key().0 > now {
                break;
            }
            first.remove().wake();
            fired = true;
        }
        fired
    }

    /// The look at the world between two rounds: sockets, then — only if
    /// those are quiet — timers, waiting for either when no task is
    /// `runnable`. Returns whether the wait reached [`PARK_CAP`] with
    /// nothing to show for it, in which case the caller re-polls
    /// every task.
    fn park(&mut self, runnable: bool) -> bool {
        let timeout = if runnable {
            Duration::ZERO
        } else {
            self.timers.first_key_value().map_or(PARK_CAP, |(&(at, _), _)| {
                at.saturating_duration_since(Instant::now()).min(PARK_CAP)
            })
        };
        if self.poll_sockets(timeout) {
            return false;
        }
        !self.fire_timers(Instant::now()) && timeout == PARK_CAP
    }
}

fn with_exec<R>(f: impl FnOnce(&mut ExecState) -> R) -> R {
    EXEC.with(|e| {
        let mut e = e.borrow_mut();
        let state = e.as_mut().expect("must be called from within a tokio runtime");
        f(state)
    })
}

/// The executor. See the [crate docs](crate) for the execution model.
pub mod runtime {
    use super::*;

    /// A current-thread runtime.
    pub struct Runtime {
        _priv: (),
    }

    impl Runtime {
        /// Creates a runtime. Never fails (the `Result` mirrors tokio's
        /// signature so call sites read identically).
        pub fn new() -> std::io::Result<Runtime> {
            Ok(Runtime { _priv: () })
        }

        /// Runs `fut` to completion on the calling thread, driving every
        /// task spawned from it. Outstanding spawned tasks are dropped
        /// when the main future finishes.
        ///
        /// # Panics
        ///
        /// Panics when nested inside another `block_on` on this thread.
        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            EXEC.with(|e| {
                let mut e = e.borrow_mut();
                assert!(e.is_none(), "nested Runtime::block_on on one thread");
                *e = Some(ExecState::default());
            });
            // Ensure the executor slot is cleared even if a task panics.
            // Declared first, so it runs after the futures below are
            // gone: a `Sleep` dropped with them still finds its timer
            // map.
            struct Reset;
            impl Drop for Reset {
                fn drop(&mut self) {
                    // Taken out first: dropping a never-polled task must
                    // not find the slot borrowed.
                    let state = EXEC.with(|e| e.borrow_mut().take());
                    drop(state);
                }
            }
            let _reset = Reset;

            let mut main = std::pin::pin!(fut);
            let main_wake = TaskWake::new();
            let mut tasks: Vec<Task> = Vec::new();
            loop {
                if let Poll::Ready(v) = main_wake.poll_if_woken(main.as_mut()) {
                    return v;
                }
                tasks.retain_mut(|t| t.wake.poll_if_woken(t.fut.as_mut()).is_pending());
                // Tasks spawned during this round get their first poll
                // in the next one (matches tokio: spawn returns before
                // the task runs).
                tasks.append(&mut with_exec(|e| std::mem::take(&mut e.incoming)));
                let runnable = main_wake.is_woken() || tasks.iter().any(|t| t.wake.is_woken());
                if with_exec(|e| e.park(runnable)) {
                    main_wake.waker.wake_by_ref();
                    tasks.iter().for_each(|t| t.wake.waker.wake_by_ref());
                }
            }
        }
    }
}

/// Task spawning.
pub mod task {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Error type of [`JoinHandle`]. This executor never cancels or
    /// loses a task (panics propagate out of `block_on` instead), so a
    /// `JoinError` is never actually produced; the type exists so call
    /// sites match tokio's `handle.await?` shape.
    #[derive(Debug)]
    pub struct JoinError(());

    impl std::fmt::Display for JoinError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "task join error")
        }
    }
    impl std::error::Error for JoinError {}

    /// Where a task leaves its output, and who to tell.
    struct JoinState<T> {
        value: Cell<Option<T>>,
        joiner: Cell<Option<Waker>>,
    }

    /// Handle to a spawned task; awaiting it yields the task's output.
    pub struct JoinHandle<T> {
        state: Rc<JoinState<T>>,
    }

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            match self.state.value.take() {
                Some(v) => Poll::Ready(Ok(v)),
                None => {
                    self.state.joiner.set(Some(cx.waker().clone()));
                    Poll::Pending
                }
            }
        }
    }

    /// Spawns `fut` onto the current runtime. The task gets its first
    /// poll on the next executor round.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`runtime::Runtime::block_on`].
    pub fn spawn<T: 'static>(fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(JoinState { value: Cell::new(None), joiner: Cell::new(None) });
        let out = state.clone();
        let fut = Box::pin(async move {
            out.value.set(Some(fut.await));
            if let Some(joiner) = out.joiner.take() {
                joiner.wake();
            }
        });
        with_exec(|e| e.incoming.push(Task { wake: TaskWake::new(), fut }));
        JoinHandle { state }
    }

    /// Yields once: the current task goes to the back of this round and
    /// resumes on the next one.
    pub async fn yield_now() {
        let mut yielded = false;
        std::future::poll_fn(|cx| {
            if yielded {
                Poll::Ready(())
            } else {
                yielded = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        })
        .await
    }
}

/// Async networking over nonblocking std sockets.
pub mod net {
    use super::*;
    use std::io;
    use std::net::{SocketAddr, ToSocketAddrs};
    use std::os::fd::AsRawFd;

    /// An async UDP socket.
    #[derive(Debug)]
    pub struct UdpSocket {
        inner: std::net::UdpSocket,
    }

    impl UdpSocket {
        /// Binds a UDP socket to `addr` (async for tokio API parity;
        /// binding itself does not block).
        pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<UdpSocket> {
            let inner = std::net::UdpSocket::bind(addr)?;
            inner.set_nonblocking(true)?;
            Ok(UdpSocket { inner })
        }

        /// Wraps an already-bound std socket (switched to nonblocking).
        pub fn from_std(inner: std::net::UdpSocket) -> io::Result<UdpSocket> {
            inner.set_nonblocking(true)?;
            Ok(UdpSocket { inner })
        }

        /// The socket's local address.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.inner.local_addr()
        }

        /// A cloned nonblocking std handle to the same socket (shares
        /// the OS descriptor) — lets synchronous code transmit while an
        /// async task owns the receive side.
        pub fn std_clone(&self) -> io::Result<std::net::UdpSocket> {
            self.inner.try_clone()
        }

        /// Runs the nonblocking `op`; on `WouldBlock` has the task woken
        /// when the socket is ready for `events`.
        fn poll_io<T>(
            &self,
            cx: &mut Context<'_>,
            events: c_short,
            op: impl FnOnce() -> io::Result<T>,
        ) -> Poll<io::Result<T>> {
            match op() {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    with_exec(|x| x.register_io(self.inner.as_raw_fd(), events, cx.waker()));
                    Poll::Pending
                }
                done => Poll::Ready(done),
            }
        }

        /// Receives a datagram, waiting until one arrives.
        pub async fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            std::future::poll_fn(|cx| self.poll_io(cx, POLLIN, || self.inner.recv_from(buf))).await
        }

        /// Sends a datagram to `addr`, waiting while the socket buffer
        /// is full.
        pub async fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
            std::future::poll_fn(|cx| self.poll_io(cx, POLLOUT, || self.inner.send_to(buf, addr)))
                .await
        }

        /// Attempts a send without waiting (`WouldBlock` on a full
        /// buffer — on loopback effectively never).
        pub fn try_send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
            self.inner.send_to(buf, addr)
        }
    }
}

/// Timers against the OS monotonic clock.
pub mod time {
    use super::*;
    pub use std::time::{Duration, Instant};

    /// Future returned by [`sleep`].
    pub struct Sleep {
        deadline: Instant,
        /// Id of this sleep's entry in the executor's timer map, once a
        /// poll found the deadline still ahead.
        armed: Option<u64>,
    }

    impl Future for Sleep {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if Instant::now() >= self.deadline {
                return Poll::Ready(());
            }
            let deadline = self.deadline;
            with_exec(|e| {
                let id = *self.armed.get_or_insert_with(|| {
                    e.next_timer += 1;
                    e.next_timer
                });
                e.timers
                    .entry((deadline, id))
                    .and_modify(|w| w.clone_from(cx.waker()))
                    .or_insert_with(|| cx.waker().clone());
            });
            Poll::Pending
        }
    }

    impl Drop for Sleep {
        /// Disarms the timer, so a `timeout` that completed early leaves
        /// nothing behind to wake the task later.
        fn drop(&mut self) {
            let Some(id) = self.armed else { return };
            // Outside a runtime (or during thread teardown) the map is
            // already gone.
            let _ = EXEC.try_with(|e| {
                if let Ok(mut e) = e.try_borrow_mut() {
                    if let Some(e) = e.as_mut() {
                        e.timers.remove(&(self.deadline, id));
                    }
                }
            });
        }
    }

    /// Completes `d` from now.
    pub fn sleep(d: Duration) -> Sleep {
        sleep_until(Instant::now() + d)
    }

    /// Completes at `deadline`.
    pub fn sleep_until(deadline: Instant) -> Sleep {
        Sleep { deadline, armed: None }
    }

    /// Timeout errors.
    pub mod error {
        /// The future did not complete before the deadline.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct Elapsed(pub(crate) ());

        impl std::fmt::Display for Elapsed {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "deadline has elapsed")
            }
        }
        impl std::error::Error for Elapsed {}
    }

    /// Future returned by [`timeout`].
    pub struct Timeout<F: Future> {
        fut: F,
        sleep: Sleep,
    }

    impl<F: Future> Future for Timeout<F> {
        type Output = Result<F::Output, error::Elapsed>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            // SAFETY: `fut` is pinned with `self`: the field is private,
            // this is its only use, and it is neither moved out nor lent
            // as `&mut F` here or in a `Drop` (there is none). `Timeout`
            // is `Unpin` only when `F` is, `Sleep` being `Unpin`.
            let this = unsafe { self.get_unchecked_mut() };
            let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
            if let Poll::Ready(v) = fut.poll(cx) {
                return Poll::Ready(Ok(v));
            }
            Pin::new(&mut this.sleep).poll(cx).map(|()| Err(error::Elapsed(())))
        }
    }

    /// Requires `fut` to complete within `d`; yields `Err(Elapsed)`
    /// otherwise.
    pub fn timeout<F: Future>(d: Duration, fut: F) -> Timeout<F> {
        Timeout { fut, sleep: sleep(d) }
    }
}

/// Synchronization primitives.
pub mod sync {
    /// Multi-producer single-consumer channels.
    pub mod mpsc {
        use super::super::*;
        use std::collections::VecDeque;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};

        struct Chan<T> {
            inner: Mutex<Inner<T>>,
            senders: AtomicUsize,
        }

        struct Inner<T> {
            queue: VecDeque<T>,
            /// The task whose `recv` last found the queue empty.
            receiver: Option<Waker>,
        }

        impl<T> Inner<T> {
            fn wake_receiver(&self) {
                if let Some(receiver) = &self.receiver {
                    receiver.wake_by_ref();
                }
            }
        }

        /// The sending half of an unbounded channel.
        pub struct UnboundedSender<T> {
            chan: Arc<Chan<T>>,
        }

        /// The receiving half of an unbounded channel.
        pub struct UnboundedReceiver<T> {
            chan: Arc<Chan<T>>,
        }

        /// Error returned when the receiver is gone.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct SendError<T>(pub T);

        impl<T> std::fmt::Display for SendError<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "channel closed")
            }
        }
        impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

        impl<T> Clone for UnboundedSender<T> {
            fn clone(&self) -> Self {
                self.chan.senders.fetch_add(1, Ordering::Relaxed);
                UnboundedSender { chan: self.chan.clone() }
            }
        }

        impl<T> Drop for UnboundedSender<T> {
            fn drop(&mut self) {
                // The last sender gone is an event for `recv`: it ends
                // with `None`. A poisoned lock has no one left to tell.
                if self.chan.senders.fetch_sub(1, Ordering::Release) == 1 {
                    if let Ok(inner) = self.chan.inner.lock() {
                        inner.wake_receiver();
                    }
                }
            }
        }

        impl<T> UnboundedSender<T> {
            /// Sends a value; fails only if the receiver was dropped.
            pub fn send(&self, value: T) -> Result<(), SendError<T>> {
                // 2 = this sender + the receiver's Arc. No receiver (it
                // holds exactly one Arc) can only mean it was dropped
                // when the strong count equals the sender count + 0.
                if Arc::strong_count(&self.chan) <= self.chan.senders.load(Ordering::Relaxed) {
                    return Err(SendError(value));
                }
                let mut inner = self.chan.inner.lock().expect("mpsc poisoned");
                inner.queue.push_back(value);
                inner.wake_receiver();
                Ok(())
            }
        }

        impl<T> UnboundedReceiver<T> {
            /// Receives the next value, waiting for one; `None` once
            /// every sender is dropped and the queue is drained.
            pub async fn recv(&mut self) -> Option<T> {
                std::future::poll_fn(|cx| {
                    let mut inner = self.chan.inner.lock().expect("mpsc poisoned");
                    if let Some(v) = inner.queue.pop_front() {
                        return Poll::Ready(Some(v));
                    }
                    if self.chan.senders.load(Ordering::Acquire) == 0 {
                        return Poll::Ready(None);
                    }
                    match &mut inner.receiver {
                        Some(w) => w.clone_from(cx.waker()),
                        empty => *empty = Some(cx.waker().clone()),
                    }
                    Poll::Pending
                })
                .await
            }

            /// Non-blocking receive.
            pub fn try_recv(&mut self) -> Option<T> {
                self.chan.inner.lock().expect("mpsc poisoned").queue.pop_front()
            }
        }

        /// Creates an unbounded channel.
        pub fn unbounded_channel<T>() -> (UnboundedSender<T>, UnboundedReceiver<T>) {
            let chan = Arc::new(Chan {
                inner: Mutex::new(Inner { queue: VecDeque::new(), receiver: None }),
                senders: AtomicUsize::new(1),
            });
            (UnboundedSender { chan: chan.clone() }, UnboundedReceiver { chan })
        }
    }
}

/// Entries in the running executor's timer map.
#[cfg(test)]
fn armed_timers() -> usize {
    with_exec(|e| e.timers.len())
}

#[cfg(test)]
mod tests;
