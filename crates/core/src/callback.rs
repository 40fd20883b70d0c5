//! Callback map: how completion notifications reach the invoker.
//!
//! When a collective is invoked, the invoker records a `(collective id,
//! callback)` pair in the callback map (step ❷ of Fig. 4). The poller step
//! drains the CQ; for each CQE it runs the callback tied to that collective
//! (steps ❻–❼), notifying the invoker in a user-defined way. Because the
//! same collective can be invoked repeatedly, callbacks are queued per
//! collective in FIFO order.
//!
//! The poller step runs on the rank's carrier (`daemon/world.rs`), a thread
//! that also steps the engines and pollers of other ranks. A callback
//! must therefore not block: see [`Callback`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// A user-supplied completion callback.
///
/// It runs on the rank's carrier thread, which also steps other ranks'
/// daemons and pollers, so it must not block: a callback that sleeps, joins
/// a thread or waits for another completion stalls every rank on that
/// carrier, its peers in the waited-for collective included. Record the
/// completion and return — set a flag, notify a condvar, or submit the next
/// invocation with `RankCtx::run`, which never waits. A callback that
/// panics is reported and skipped.
pub type Callback = Box<dyn FnOnce() + Send + 'static>;

/// Token identifying one bound callback, for targeted rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindToken(u64);

/// FIFO map from collective id to pending completion callbacks.
#[derive(Default)]
pub struct CallbackMap {
    inner: Mutex<HashMap<u64, VecDeque<(u64, Callback)>>>,
    next_token: AtomicU64,
}

impl CallbackMap {
    /// Create an empty map.
    pub fn new() -> Arc<Self> {
        Arc::new(CallbackMap::default())
    }

    /// Bind a callback to the next completion of `coll_id`. The returned
    /// token identifies this binding for [`CallbackMap::unbind`].
    pub fn bind(&self, coll_id: u64, cb: Callback) -> BindToken {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.inner
            .lock()
            .entry(coll_id)
            .or_default()
            .push_back((token, cb));
        BindToken(token)
    }

    /// Take the oldest pending callback for `coll_id`, if any.
    pub fn take(&self, coll_id: u64) -> Option<Callback> {
        let mut map = self.inner.lock();
        let queue = map.get_mut(&coll_id)?;
        let cb = queue.pop_front().map(|(_, cb)| cb);
        if queue.is_empty() {
            map.remove(&coll_id);
        }
        cb
    }

    /// Unbind exactly the callback `token` identifies — the rollback for a
    /// submission that failed right after binding. Targeting by token keeps
    /// concurrent submitters of the same collective id paired with their own
    /// callbacks: popping either end of the queue instead could steal another
    /// in-flight invocation's callback and mis-pair every later completion.
    pub fn unbind(&self, coll_id: u64, token: BindToken) -> Option<Callback> {
        let mut map = self.inner.lock();
        let queue = map.get_mut(&coll_id)?;
        let pos = queue.iter().position(|(t, _)| *t == token.0)?;
        let cb = queue.remove(pos).map(|(_, cb)| cb);
        if queue.is_empty() {
            map.remove(&coll_id);
        }
        cb
    }

    /// Whether any callback is still bound to `coll_id`: an invocation of
    /// it was submitted and its completion has not been delivered yet.
    pub fn is_bound(&self, coll_id: u64) -> bool {
        self.inner.lock().contains_key(&coll_id)
    }

    /// Number of callbacks currently pending across all collectives.
    pub fn pending(&self) -> usize {
        self.inner.lock().values().map(VecDeque::len).sum()
    }
}

/// A waitable completion handle, returned by the `run_*_awaitable` APIs.
/// Internally it is just a callback that flips a flag.
#[derive(Clone, Default)]
pub struct CompletionHandle {
    shared: Arc<(Mutex<u64>, Condvar)>,
}

impl CompletionHandle {
    /// Create a fresh handle with zero recorded completions.
    pub fn new() -> Self {
        CompletionHandle::default()
    }

    /// Produce the callback that marks one completion on this handle.
    pub fn completion_callback(&self) -> Callback {
        let shared = Arc::clone(&self.shared);
        Box::new(move || {
            let (count, cv) = &*shared;
            *count.lock() += 1;
            cv.notify_all();
        })
    }

    /// Number of completions recorded so far.
    pub fn completions(&self) -> u64 {
        *self.shared.0.lock()
    }

    /// Wait until at least `n` completions have been recorded.
    pub fn wait_for(&self, n: u64) {
        let (count, cv) = &*self.shared;
        let mut c = count.lock();
        while *c < n {
            cv.wait(&mut c);
        }
    }

    /// Wait until at least `n` completions have been recorded or `timeout`
    /// expires. Returns `true` if the target was reached.
    pub fn wait_for_timeout(&self, n: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let (count, cv) = &*self.shared;
        let mut c = count.lock();
        while *c < n {
            if cv.wait_until(&mut c, deadline).timed_out() {
                return *c >= n;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn callbacks_fire_in_fifo_order_per_collective() {
        let map = CallbackMap::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = Arc::clone(&order);
            map.bind(7, Box::new(move || order.lock().push(i)));
        }
        assert_eq!(map.pending(), 3);
        for _ in 0..3 {
            (map.take(7).unwrap())();
        }
        assert!(map.take(7).is_none());
        assert_eq!(*order.lock(), vec![0, 1, 2]);
        assert_eq!(map.pending(), 0);
    }

    #[test]
    fn unbind_removes_exactly_the_tokened_callback() {
        // The submission-rollback path: invocations 0 and 2 are in flight
        // when invocation 1 fails to submit. The rollback must remove
        // invocation 1's callback only, whatever its queue position, so the
        // surviving invocations stay paired with their own callbacks.
        let map = CallbackMap::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut tokens = Vec::new();
        for i in 0..3 {
            let order = Arc::clone(&order);
            tokens.push(map.bind(7, Box::new(move || order.lock().push(i))));
        }
        (map.unbind(7, tokens[1]).unwrap())();
        assert_eq!(*order.lock(), vec![1], "rollback must pop its own bind");
        // A second rollback with the same token finds nothing.
        assert!(map.unbind(7, tokens[1]).is_none());
        (map.take(7).unwrap())();
        (map.take(7).unwrap())();
        assert_eq!(*order.lock(), vec![1, 0, 2]);
        assert!(map.unbind(7, tokens[0]).is_none(), "already consumed");
        assert_eq!(map.pending(), 0);
    }

    #[test]
    fn callbacks_are_keyed_by_collective() {
        let map = CallbackMap::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        map.bind(
            1,
            Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(map.take(2).is_none());
        (map.take(1).unwrap())();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn completion_handle_counts_and_waits() {
        let handle = CompletionHandle::new();
        assert_eq!(handle.completions(), 0);
        let cb = handle.completion_callback();
        cb();
        assert_eq!(handle.completions(), 1);
        assert!(handle.wait_for_timeout(1, Duration::from_millis(1)));
        assert!(!handle.wait_for_timeout(2, Duration::from_millis(10)));
    }

    #[test]
    fn completion_handle_wakes_waiting_thread() {
        let handle = CompletionHandle::new();
        let waiter = handle.clone();
        let t = std::thread::spawn(move || {
            waiter.wait_for(2);
            waiter.completions()
        });
        std::thread::sleep(Duration::from_millis(10));
        (handle.completion_callback())();
        (handle.completion_callback())();
        assert_eq!(t.join().unwrap(), 2);
    }
}
