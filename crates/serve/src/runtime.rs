//! A minimal hand-rolled async runtime: just enough executor machinery
//! to await a [`FairRankService`](crate::FairRankService) answer without
//! an external runtime dependency.
//!
//! This build environment vendors every dependency offline, so instead
//! of pulling in a full reactor the crate ships the three primitives the
//! serving pipeline actually needs:
//!
//! * [`block_on`] — drive any future to completion on the current
//!   thread, parking between polls (a thread-parking [`Waker`]).
//! * [`oneshot`] — a `Waker`-integrated single-value channel: whoever
//!   serves a request's batch completes one, and the caller either
//!   `.await`s the receiver (it is a [`Future`]) or blocks on
//!   [`oneshot::Receiver::wait`].
//! * [`Deadline`] — the admission timer: a monotonic expiry point with
//!   saturating remaining-time queries, driven by
//!   [`Condvar::wait_timeout`](std::sync::Condvar::wait_timeout) while a
//!   submitter waits for queue space.
//!
//! Everything here is runtime-agnostic: the oneshot receivers are plain
//! futures, so they compose with any executor a downstream application
//! already runs — `block_on` is merely the built-in fallback.

use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Thread-parking waker: `wake` unparks the thread that is blocked
/// inside [`block_on`].
struct ThreadWaker(Thread);

impl std::task::Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drive `future` to completion on the current thread.
///
/// Polls once, then parks until the future's waker fires — no spinning.
/// Spurious unparks (allowed by [`std::thread::park`]) simply trigger a
/// redundant poll, which every well-formed future tolerates.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut future = pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// A monotonic expiry point — the admission deadline of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `delay` from now (saturating at the far future).
    #[must_use]
    pub fn after(delay: Duration) -> Self {
        Deadline {
            at: Instant::now()
                .checked_add(delay)
                .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400)),
        }
    }

    /// Time left until expiry; [`Duration::ZERO`] once expired.
    #[must_use]
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Has the deadline passed?
    #[must_use]
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }
}

/// A `Waker`-based single-value channel: the bridge between whoever
/// serves a batch (and completes its answers) and callers (which await
/// them).
pub mod oneshot {
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Condvar, Mutex};
    use std::task::{Context, Poll, Waker};

    /// The sending half vanished without producing a value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Canceled;

    impl std::fmt::Display for Canceled {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "oneshot sender dropped without sending")
        }
    }

    impl std::error::Error for Canceled {}

    struct State<T> {
        value: Option<T>,
        waker: Option<Waker>,
        tx_alive: bool,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Completes the channel with one value. Dropping without sending
    /// cancels the receiver.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The awaitable half: a [`Future`] resolving to the sent value, or
    /// [`Canceled`] when the sender vanished.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Create a connected sender/receiver pair.
    #[must_use]
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                value: None,
                waker: None,
                tx_alive: true,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Deliver `value`, waking the receiver. Consumes the sender;
        /// returns the value back if the receiver is already gone.
        pub fn send(self, value: T) -> Result<(), T> {
            // Sole owner check: receiver dropped ⇒ its Arc is gone.
            if Arc::strong_count(&self.inner) == 1 {
                return Err(value);
            }
            let waker = {
                let mut state = self.inner.state.lock().expect("oneshot lock poisoned");
                state.value = Some(value);
                state.waker.take()
            };
            self.inner.ready.notify_all();
            if let Some(w) = waker {
                w.wake();
            }
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let waker = {
                let mut state = self.inner.state.lock().expect("oneshot lock poisoned");
                state.tx_alive = false;
                state.waker.take()
            };
            self.inner.ready.notify_all();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Has the value (or cancellation) arrived? A peek: a `true`
        /// means [`wait`](Receiver::wait) returns without blocking.
        #[must_use]
        pub fn is_ready(&self) -> bool {
            let state = self.inner.state.lock().expect("oneshot lock poisoned");
            state.value.is_some() || !state.tx_alive
        }

        /// Block the current thread until the value (or cancellation)
        /// arrives — the synchronous twin of `.await`.
        ///
        /// # Errors
        /// [`Canceled`] when the sender was dropped without sending.
        pub fn wait(self) -> Result<T, Canceled> {
            let mut state = self.inner.state.lock().expect("oneshot lock poisoned");
            loop {
                if let Some(v) = state.value.take() {
                    return Ok(v);
                }
                if !state.tx_alive {
                    return Err(Canceled);
                }
                state = self.inner.ready.wait(state).expect("oneshot lock poisoned");
            }
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, Canceled>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut state = self.inner.state.lock().expect("oneshot lock poisoned");
            if let Some(v) = state.value.take() {
                return Poll::Ready(Ok(v));
            }
            if !state.tx_alive {
                return Poll::Ready(Err(Canceled));
            }
            // Replace (not accumulate) the waker: only the latest
            // polling task is owed a wake.
            state.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 21 * 2 }), 42);
    }

    #[test]
    fn oneshot_send_then_await() {
        let (tx, rx) = oneshot::channel();
        tx.send(7u32).unwrap();
        assert_eq!(block_on(rx), Ok(7));
    }

    #[test]
    fn oneshot_cross_thread_wakeup() {
        let (tx, rx) = oneshot::channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send("late").unwrap();
        });
        assert_eq!(block_on(rx), Ok("late"));
        sender.join().unwrap();
    }

    #[test]
    fn oneshot_wait_blocking() {
        let (tx, rx) = oneshot::channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(5u8).unwrap();
        });
        assert_eq!(rx.wait(), Ok(5));
        sender.join().unwrap();
    }

    #[test]
    fn oneshot_is_ready_peeks() {
        let (tx, rx) = oneshot::channel();
        assert!(!rx.is_ready());
        tx.send(3u8).unwrap();
        assert!(rx.is_ready());
        assert!(rx.is_ready(), "peeking must not consume the value");
        assert_eq!(rx.wait(), Ok(3));
        let (tx, rx) = oneshot::channel::<u8>();
        drop(tx);
        assert!(rx.is_ready(), "cancellation counts as ready");
    }

    #[test]
    fn oneshot_dropped_sender_cancels() {
        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        assert_eq!(block_on(rx), Err(oneshot::Canceled));
        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        assert_eq!(rx.wait(), Err(oneshot::Canceled));
    }

    #[test]
    fn oneshot_dropped_receiver_returns_value() {
        let (tx, rx) = oneshot::channel();
        drop(rx);
        assert_eq!(tx.send(9i64), Err(9));
    }

    #[test]
    fn deadline_expires() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(60));
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(59));
    }
}
