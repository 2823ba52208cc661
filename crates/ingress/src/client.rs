//! Client-side submission: handles, tickets, and replies.
//!
//! A [`ClientHandle`] is a cheap, cloneable sender onto the broker's bounded
//! queue. Submission never blocks unboundedly: the non-blocking
//! [`submit`](ClientHandle::submit) surfaces a full queue as
//! [`IngressError::QueueFull`], and the blocking
//! [`submit_blocking`](ClientHandle::submit_blocking) runs a broker pass
//! itself (or backs off with jitter while another thread runs one) only
//! until the request's own deadline. Every accepted submission yields a
//! [`Ticket`] that resolves to exactly one [`Reply`].
//!
//! The thread that waits runs the batch: [`Ticket::wait`], the `call`
//! shapes and a blocked `submit_blocking` run the broker pass on the
//! calling thread when no other thread is running one, and only `submit`
//! wakes the broker thread, since its ticket may be reaped late.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use simt::telemetry::{RequestSpan, SpanReport};
use slab_hash::{Backoff, OpKind, OpResult, Request};

use crate::broker::{Core, Envelope};
use crate::error::IngressError;

/// Distinct jitter seed per handle, so blocked clients decorrelate.
static NEXT_CLIENT: AtomicU64 = AtomicU64::new(1);

/// The broker's answer to one request: the table's result (or a typed
/// ingress error) plus the broker-measured latency from submission to
/// disposition. Using the broker's timestamp keeps open-loop latency honest
/// even when the reply is reaped long after it was produced.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The outcome: a table result, or why the ingress layer refused.
    pub result: Result<OpResult, IngressError>,
    /// Submission-to-disposition latency, measured broker-side.
    pub latency: Duration,
    /// Per-stage latency decomposition for this request: the span minted at
    /// submission, marked at every pipeline stage the request reached, and
    /// closed at reply. Consecutive stage durations telescope, so
    /// [`SpanReport::stage_sum_ns`] equals `total_ns` exactly.
    pub span: SpanReport,
}

impl Reply {
    pub(crate) fn gone() -> Self {
        Reply {
            result: Err(IngressError::BrokerGone),
            latency: Duration::ZERO,
            span: SpanReport::none(),
        }
    }
}

/// A claim on one future [`Reply`].
///
/// Waiting on a ticket runs broker passes on the waiting thread when no
/// other thread is running one, so the thread that waits is usually the
/// thread that executes the batch.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Reply>,
    core: Arc<dyn Core>,
}

impl Ticket {
    /// Blocks until the reply arrives, running broker passes meanwhile if no
    /// other thread is. A broker that died without answering resolves to
    /// [`IngressError::BrokerGone`] — the ticket always yields exactly one
    /// reply.
    pub fn wait(self) -> Reply {
        loop {
            if let Some(reply) = self.poll() {
                return reply;
            }
            if !self.core.help() {
                // The pass-lock holder re-checks the queue on release, so
                // this envelope will be served: block until it is.
                return self.rx.recv().unwrap_or_else(|_| Reply::gone());
            }
        }
    }

    /// Blocks until the reply arrives or `deadline` passes, running broker
    /// passes meanwhile as [`wait`](Self::wait) does; `None` means the
    /// reply is still pending (it will still be produced — the broker's
    /// deadline machinery turns it into a timeout error if the budget runs
    /// out).
    pub fn wait_deadline(&self, deadline: Instant) -> Option<Reply> {
        loop {
            if let Some(reply) = self.poll() {
                return Some(reply);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if !self.core.help() {
                return match self.rx.recv_timeout(deadline - now) {
                    Ok(reply) => Some(reply),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => Some(Reply::gone()),
                };
            }
        }
    }

    /// Non-blocking attempt: runs one broker pass on this thread if no
    /// other thread is running one, then polls for the reply.
    pub fn try_reply(&self) -> Option<Reply> {
        self.poll().or_else(|| {
            self.core.help();
            self.poll()
        })
    }

    fn poll(&self) -> Option<Reply> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Reply::gone()),
        }
    }
}

/// A cloneable submission handle onto a running broker's bounded queue.
///
/// Dropping every handle (and the [`Broker`](crate::Broker)'s own sender)
/// is what lets the broker drain and exit.
#[derive(Debug)]
pub struct ClientHandle {
    tx: mpsc::SyncSender<Envelope>,
    core: Link,
    default_deadline: Duration,
    capacity: usize,
    client_id: u64,
}

/// A handle's link to the broker core. Declared after the sender, so it
/// drops after it and wakes the broker thread, which exits once the last
/// sender is gone.
#[derive(Debug)]
struct Link(Arc<dyn Core>);

impl Drop for Link {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl Clone for ClientHandle {
    fn clone(&self) -> Self {
        Self::new(
            self.tx.clone(),
            Arc::clone(&self.core.0),
            self.default_deadline,
            self.capacity,
        )
    }
}

impl ClientHandle {
    pub(crate) fn new(
        tx: mpsc::SyncSender<Envelope>,
        core: Arc<dyn Core>,
        default_deadline: Duration,
        capacity: usize,
    ) -> Self {
        Self {
            tx,
            core: Link(core),
            default_deadline,
            capacity,
            client_id: NEXT_CLIENT.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The deadline budget used when the caller does not pass one.
    pub fn default_deadline(&self) -> Duration {
        self.default_deadline
    }

    /// The bounded queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently sitting in the submission queue (approximate).
    pub fn queue_depth(&self) -> usize {
        self.core.0.depth().load(Ordering::Relaxed)
    }

    fn envelope(
        &self,
        req: Request,
        budget: Duration,
    ) -> Result<(Envelope, mpsc::Receiver<Reply>), IngressError> {
        if req.op == OpKind::None {
            return Err(IngressError::EmptyRequest);
        }
        // The span is minted here, at submission: its correlation id and
        // submit timestamp ride the envelope through the whole pipeline.
        let span = RequestSpan::begin();
        let submitted = span.submitted();
        let (reply_tx, reply_rx) = mpsc::channel();
        Ok((
            Envelope {
                req,
                submitted,
                deadline: submitted + budget,
                reply: reply_tx,
                span,
            },
            reply_rx,
        ))
    }

    fn ticket(&self, rx: mpsc::Receiver<Reply>) -> Ticket {
        Ticket {
            rx,
            core: Arc::clone(&self.core.0),
        }
    }

    /// One non-blocking send of the envelope in `env`, without waking the
    /// broker thread; on a full queue the envelope stays in `env` for a
    /// retry. The depth gauge is incremented *before* the send: a drain
    /// can only follow the send, so the gauge never goes negative, and a
    /// waiter's SeqCst increment is what a releasing pass-lock holder
    /// re-checks. A failed send undoes the increment.
    fn try_enqueue(&self, env: &mut Option<Envelope>) -> Result<(), IngressError> {
        let depth = self.core.0.depth();
        depth.fetch_add(1, Ordering::SeqCst);
        let sent = self.tx.try_send(env.take().expect("an envelope to send"));
        sent.map_err(|e| {
            depth.fetch_sub(1, Ordering::SeqCst);
            match e {
                mpsc::TrySendError::Full(back) => {
                    *env = Some(back);
                    IngressError::QueueFull {
                        capacity: self.capacity,
                    }
                }
                mpsc::TrySendError::Disconnected(_) => IngressError::BrokerGone,
            }
        })
    }

    /// Non-blocking submit without waking the broker thread, for a caller
    /// that will wait on the ticket and so run the pass itself.
    pub(crate) fn enqueue(&self, req: Request, budget: Duration) -> Result<Ticket, IngressError> {
        let (env, rx) = self.envelope(req, budget)?;
        self.try_enqueue(&mut Some(env))?;
        Ok(self.ticket(rx))
    }

    /// Non-blocking submit with the default deadline budget: enqueue or fail
    /// fast with [`IngressError::QueueFull`].
    pub fn submit(&self, req: Request) -> Result<Ticket, IngressError> {
        self.submit_with_deadline(req, self.default_deadline)
    }

    /// Non-blocking submit with an explicit deadline budget. The ticket may
    /// be reaped late, so this wakes the broker thread to serve it.
    pub fn submit_with_deadline(
        &self,
        req: Request,
        budget: Duration,
    ) -> Result<Ticket, IngressError> {
        let ticket = self.enqueue(req, budget)?;
        self.core.0.wake();
        Ok(ticket)
    }

    /// Blocking submit: a full queue is work this thread can do, so it runs
    /// a broker pass itself, and backs off with jitter only while another
    /// thread is running one — until the request's own deadline budget runs
    /// out. The closed-loop client's natural backpressure; never blocks past
    /// the deadline. Does not wake the broker thread: the caller is
    /// expected to wait on the ticket.
    pub fn submit_blocking(&self, req: Request, budget: Duration) -> Result<Ticket, IngressError> {
        let (env, rx) = self.envelope(req, budget)?;
        let deadline = env.deadline;
        let mut env = Some(env);
        let mut backoff = Backoff::new(self.client_id);
        loop {
            match self.try_enqueue(&mut env) {
                Ok(()) => return Ok(self.ticket(rx)),
                Err(IngressError::QueueFull { .. }) => {
                    if Instant::now() >= deadline {
                        return Err(IngressError::DeadlineExceeded { budget });
                    }
                    if !self.core.0.help() {
                        backoff.wait();
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submit (blocking, bounded by the budget) and wait for the reply
    /// within the same budget — running the broker pass on this thread when
    /// no other thread is. The closed-loop call shape.
    pub fn call_with_deadline(
        &self,
        req: Request,
        budget: Duration,
    ) -> Result<OpResult, IngressError> {
        let deadline = Instant::now() + budget;
        let ticket = self.submit_blocking(req, budget)?;
        match ticket.wait_deadline(deadline) {
            Some(reply) => reply.result,
            None => Err(IngressError::DeadlineExceeded { budget }),
        }
    }

    /// [`call_with_deadline`](Self::call_with_deadline) with the default
    /// budget.
    pub fn call(&self, req: Request) -> Result<OpResult, IngressError> {
        self.call_with_deadline(req, self.default_deadline)
    }

    /// Convenience SEARCH: `Ok(Some(value))` on a hit, `Ok(None)` on a miss.
    pub fn get(&self, key: u32) -> Result<Option<u32>, IngressError> {
        match self.call(Request::search(key))? {
            OpResult::Found(v) => Ok(Some(v)),
            _ => Ok(None),
        }
    }

    /// Convenience REPLACE: the previous value if the key was present.
    pub fn put(&self, key: u32, value: u32) -> Result<Option<u32>, IngressError> {
        match self.call(Request::replace(key, value))? {
            OpResult::Replaced(old) => Ok(Some(old)),
            _ => Ok(None),
        }
    }

    /// Convenience DELETE: the removed value if the key was present.
    pub fn remove(&self, key: u32) -> Result<Option<u32>, IngressError> {
        match self.call(Request::delete(key))? {
            OpResult::Deleted(old) => Ok(Some(old)),
            _ => Ok(None),
        }
    }
}
