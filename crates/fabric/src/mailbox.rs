//! The dedicated mailbox in iHub (§III-C, Fig. 3).
//!
//! "CS can send enclave primitive requests to EMS through a dedicated
//! mailbox in iHub… Each primitive request is bound with its response
//! exclusively through a unique identification, and a request cannot access
//! the other response packets."
//!
//! The mailbox hands out [`RequestTicket`]s on submission; collecting a
//! response requires presenting the ticket, so reading someone else's
//! response is unrepresentable. Only EMCall can submit (enforced by the
//! EMCall layer owning the CS port), and only EMS can fetch/respond
//! (enforced by [`crate::ihub::EmsCapability`]).
//!
//! # Fault injection
//!
//! The mailbox is the fabric's primary injection point: an armed
//! [`FaultInjector`] can drop a request before it queues, and drop,
//! duplicate, delay, or corrupt a response in flight. Corrupted packets are
//! caught by the [`Response`] checksum at poll time and discarded like a
//! miss; EMCall's bounded retry plus EMS's idempotent response cache
//! recover every such loss.

use crate::message::{Request, Response};
use hypertee_faults::{FaultInjector, FaultKind, FaultStats};
use std::collections::{HashMap, VecDeque};

/// Proof that a specific request was submitted; required to poll its
/// response. Not cloneable — one request, one collector.
#[derive(Debug, PartialEq, Eq)]
pub struct RequestTicket {
    req_id: u64,
}

impl RequestTicket {
    /// The bound request identification.
    pub fn req_id(&self) -> u64 {
        self.req_id
    }
}

/// Mailbox traffic counters (timing-model input and fault observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Requests submitted by EMCall (including resubmissions).
    pub requests: u64,
    /// Responses pushed by EMS.
    pub responses: u64,
    /// Poll attempts that found no response yet (EMCall polls, §III-C).
    pub empty_polls: u64,
    /// Requests lost on the fabric (injected).
    pub dropped_requests: u64,
    /// Responses lost on the fabric (injected).
    pub dropped_responses: u64,
    /// Responses duplicated on the fabric (injected). The copy never
    /// reaches a ticket: a response is delivered at most once, by the poll
    /// that consumes it.
    pub duplicated_responses: u64,
    /// Responses held back for a number of polls (injected).
    pub delayed_responses: u64,
    /// Responses discarded at poll time because their checksum failed.
    pub corrupt_dropped: u64,
}

/// The request/response mailbox.
#[derive(Debug, Default)]
pub struct Mailbox {
    next_req_id: u64,
    requests: VecDeque<Request>,
    responses: HashMap<u64, Response>,
    /// Responses held in flight for `u32` more polls (injected delay).
    delayed: Vec<(u32, Response)>,
    injector: FaultInjector,
    /// Counters.
    pub stats: MailboxStats,
}

impl Mailbox {
    /// Creates an empty mailbox with fault injection disarmed.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Installs an armed fault injector (replay a campaign from its seed).
    pub fn arm_faults(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// Faults injected at this site so far.
    pub fn fault_stats(&self) -> &FaultStats {
        self.injector.stats()
    }

    /// Submits a request (EMCall side). The mailbox assigns the unique
    /// request identification and returns the binding ticket. An injected
    /// fabric fault may lose the packet after the identification is
    /// assigned — exactly like real hardware, the sender still holds a
    /// valid ticket and recovers by resubmission after a poll timeout.
    ///
    /// Identifications start at 1: `req_id == 0` is reserved for requests
    /// that never crossed a mailbox (direct EMS calls), which the EMS does
    /// not cache for replay.
    pub fn submit(&mut self, mut request: Request) -> RequestTicket {
        self.next_req_id += 1;
        let req_id = self.next_req_id;
        request.req_id = req_id;
        self.stats.requests += 1;
        if self.injector.roll(FaultKind::MailboxDropRequest) {
            self.stats.dropped_requests += 1;
        } else {
            self.requests.push_back(request);
        }
        RequestTicket { req_id }
    }

    /// Re-submits a request under an existing ticket's identification
    /// (EMCall's idempotent retry after a poll timeout). The packet crosses
    /// the same fabric, so it rolls the same drop fault.
    pub fn resubmit(&mut self, ticket: &RequestTicket, mut request: Request) {
        request.req_id = ticket.req_id;
        self.stats.requests += 1;
        if self.injector.roll(FaultKind::MailboxDropRequest) {
            self.stats.dropped_requests += 1;
        } else {
            self.requests.push_back(request);
        }
    }

    /// Fetches the oldest pending request (EMS side; gated by the iHub).
    pub(crate) fn fetch_request(&mut self) -> Option<Request> {
        self.requests.pop_front()
    }

    /// Pushes a response (EMS side; gated by the iHub). Injected faults may
    /// drop, corrupt, duplicate, or delay the packet here.
    pub(crate) fn push_response(&mut self, mut response: Response) {
        self.stats.responses += 1;
        if self.injector.roll(FaultKind::MailboxDropResponse) {
            self.stats.dropped_responses += 1;
            return;
        }
        if self.injector.roll(FaultKind::MailboxCorruptResponse) {
            // A fabric bit-flip: any field past the header; the sealed
            // checksum no longer matches and poll will discard the packet.
            if let Some(v) = response.vals.first_mut() {
                *v ^= 1;
            } else {
                response.crc ^= 1 << 17;
            }
        }
        if self.injector.roll(FaultKind::MailboxDuplicateResponse) {
            self.stats.duplicated_responses += 1;
        }
        if self.injector.roll(FaultKind::MailboxDelayResponse) {
            self.stats.delayed_responses += 1;
            let polls = self.injector.delay_polls();
            self.delayed.push((polls, response));
            return;
        }
        self.responses.insert(response.req_id, response);
    }

    /// Advances the mailbox's notion of time by one scheduler round,
    /// releasing delayed responses whose hold-down expired. Returns the
    /// request identifications that just became pollable so an event-driven
    /// scheduler can wake exactly those callers (release order is the
    /// injection order, which is deterministic under a seeded plan).
    pub fn advance_round(&mut self) -> Vec<u64> {
        let mut ready = Vec::new();
        self.delayed.retain_mut(|(polls, resp)| {
            if *polls <= 1 {
                ready.push(std::mem::replace(
                    resp,
                    Response::err(0, crate::message::Status::Ok),
                ));
                false
            } else {
                *polls -= 1;
                true
            }
        });
        let mut released = Vec::with_capacity(ready.len());
        for resp in ready {
            released.push(resp.req_id);
            self.responses.insert(resp.req_id, resp);
        }
        released
    }

    /// Whether a response for `req_id` is sitting in the delivery slot
    /// (delayed packets don't count until [`Mailbox::advance_round`]
    /// releases them). Lets a poller skip guaranteed-empty polls without
    /// consuming or even inspecting the packet.
    pub fn has_response(&self, req_id: u64) -> bool {
        self.responses.contains_key(&req_id)
    }

    /// Polls for the response bound to `ticket`; `None` is a miss and the
    /// caller polls again — the polling loop EMCall uses instead of
    /// trusting CS interrupt handlers. A response that fails its integrity
    /// check is discarded and reported as a miss: the caller's retry path
    /// treats it exactly like a lost packet.
    pub fn poll(&mut self, ticket: &RequestTicket) -> Option<Response> {
        match self.responses.remove(&ticket.req_id) {
            Some(r) if r.intact() => Some(r),
            Some(_) => {
                self.stats.corrupt_dropped += 1;
                self.stats.empty_polls += 1;
                None
            }
            None => {
                self.stats.empty_polls += 1;
                None
            }
        }
    }

    /// Number of requests waiting for EMS.
    pub fn pending_requests(&self) -> usize {
        self.requests.len()
    }

    /// Number of responses waiting for collection (delivered or delayed).
    pub fn pending_responses(&self) -> usize {
        self.responses.len() + self.delayed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CallerIdentity, Primitive, Privilege, Status};
    use hypertee_faults::{FaultConfig, FaultPlan};

    fn request() -> Request {
        Request {
            req_id: 0,
            primitive: Primitive::Ealloc,
            caller: CallerIdentity {
                privilege: Privilege::User,
                enclave: None,
            },
            args: vec![4096],
            payload: Vec::new(),
        }
    }

    #[test]
    fn submit_fetch_respond_poll() {
        let mut mb = Mailbox::new();
        let ticket = mb.submit(request());
        let req = mb.fetch_request().unwrap();
        assert_eq!(req.req_id, ticket.req_id());
        mb.push_response(Response::ok(req.req_id, vec![42]));
        let resp = mb.poll(&ticket).unwrap();
        assert_eq!(resp.vals, vec![42]);
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn poll_before_response_misses() {
        let mut mb = Mailbox::new();
        let ticket = mb.submit(request());
        assert!(mb.poll(&ticket).is_none());
        assert_eq!(mb.stats.empty_polls, 1);
        let req = mb.fetch_request().unwrap();
        mb.push_response(Response::ok(req.req_id, vec![]));
        assert!(mb.poll(&ticket).is_some());
    }

    #[test]
    fn responses_bound_exclusively() {
        // Two in-flight requests: each ticket only ever sees its own
        // response, regardless of completion order.
        let mut mb = Mailbox::new();
        let t1 = mb.submit(request());
        let t2 = mb.submit(request());
        let r1 = mb.fetch_request().unwrap();
        let r2 = mb.fetch_request().unwrap();
        // EMS completes the *second* request first.
        mb.push_response(Response::ok(r2.req_id, vec![2]));
        mb.push_response(Response::ok(r1.req_id, vec![1]));
        assert_eq!(mb.poll(&t1).unwrap().vals, vec![1]);
        assert_eq!(mb.poll(&t2).unwrap().vals, vec![2]);
    }

    #[test]
    fn request_ids_are_unique() {
        let mut mb = Mailbox::new();
        let t1 = mb.submit(request());
        let t2 = mb.submit(request());
        let t3 = mb.submit(request());
        assert_ne!(t1.req_id(), t2.req_id());
        assert_ne!(t2.req_id(), t3.req_id());
        assert_ne!(t1.req_id(), 0, "0 is the direct-call sentinel");
    }

    #[test]
    fn fifo_request_delivery() {
        let mut mb = Mailbox::new();
        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(mb.submit(request()).req_id());
        }
        for expected in ids {
            assert_eq!(mb.fetch_request().unwrap().req_id, expected);
        }
    }

    #[test]
    fn resubmission_reuses_the_ticket_id() {
        let mut mb = Mailbox::new();
        let ticket = mb.submit(request());
        let first = mb.fetch_request().unwrap();
        mb.resubmit(&ticket, request());
        let second = mb.fetch_request().unwrap();
        assert_eq!(first.req_id, second.req_id);
        assert_eq!(second.req_id, ticket.req_id());
    }

    #[test]
    fn corrupt_response_is_discarded_not_delivered() {
        let mut mb = Mailbox::new();
        let ticket = mb.submit(request());
        let req = mb.fetch_request().unwrap();
        let mut resp = Response::ok(req.req_id, vec![42]);
        resp.vals[0] ^= 1; // corrupted in flight, checksum now stale
        mb.push_response(resp);
        assert!(mb.poll(&ticket).is_none());
        assert_eq!(mb.stats.corrupt_dropped, 1);
        // Recovery: resubmit and answer cleanly.
        mb.resubmit(&ticket, request());
        let req = mb.fetch_request().unwrap();
        mb.push_response(Response::ok(req.req_id, vec![42]));
        assert_eq!(mb.poll(&ticket).unwrap().vals, vec![42]);
    }

    #[test]
    fn delayed_responses_arrive_after_enough_polls() {
        let plan = FaultPlan::new(
            11,
            FaultConfig {
                delay_response_pm: 1000,
                delay_polls_max: 3,
                ..FaultConfig::disabled()
            },
        );
        let mut mb = Mailbox::new();
        mb.arm_faults(plan.injector("mailbox"));
        let ticket = mb.submit(request());
        let req = mb.fetch_request().unwrap();
        mb.push_response(Response::ok(req.req_id, vec![7]));
        assert_eq!(mb.pending_responses(), 1, "response must be held, not lost");
        assert!(
            !mb.has_response(req.req_id),
            "delayed packet is not pollable"
        );
        let mut rounds = 0;
        let resp = loop {
            if let Some(resp) = mb.poll(&ticket) {
                break resp;
            }
            rounds += 1;
            assert!(rounds <= 4, "delay must expire within delay_polls_max + 1");
            let released = mb.advance_round();
            if !released.is_empty() {
                assert_eq!(released, vec![req.req_id]);
                assert!(mb.has_response(req.req_id));
            }
        };
        assert_eq!(resp.vals, vec![7]);
        assert!(rounds >= 1, "a delayed response cannot arrive instantly");
    }

    #[test]
    fn a_duplicated_response_is_counted_once_and_delivered_once() {
        let plan = FaultPlan::new(
            5,
            FaultConfig {
                duplicate_response_pm: 1000,
                ..FaultConfig::disabled()
            },
        );
        let mut mb = Mailbox::new();
        mb.arm_faults(plan.injector("mailbox"));
        let ticket = mb.submit(request());
        let req = mb.fetch_request().unwrap();
        mb.push_response(Response::ok(req.req_id, vec![9]));
        assert_eq!(mb.stats.duplicated_responses, 1);
        assert_eq!(mb.poll(&ticket).unwrap().vals, vec![9]);
        // The duplicate never reaches the ticket a second time.
        assert!(mb.poll(&ticket).is_none());
        assert_eq!(mb.pending_responses(), 0);
    }
}
