//! Client-side spans and per-session samples.
//!
//! [`SpanTransport`] wraps the pooled TCP transport the crypto
//! `Client` speaks through. For a traced op it stamps each
//! `Transport::call`, which splits the client-observed latency into:
//!
//! * `client.request_ms`: op start to the first call (query or tuple
//!   encryption, message encoding);
//! * `net.call_ms`: time inside calls (framing, TCP both ways, the
//!   server's front-end and `Server::handle`);
//! * `client.response_ms`: end of the last call to op end (response
//!   decoding, decryption, false-positive filtering).
//!
//! An untraced op goes straight to the pool: no clock reads, no copies.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use dbph_core::protocol::ServerResponse;
use dbph_core::wire::WireDecode;
use dbph_core::{PhError, PooledClient, Transport};

/// The calls a traced op made (one for every op the workloads issue;
/// time between two calls is client work no span accounts for).
pub struct CallSpan {
    /// Start of the first call.
    start: Instant,
    /// End of the last call.
    end: Instant,
    /// Time spent inside calls.
    call_nanos: u128,
    /// The responses, kept so candidate counts are decoded after the
    /// op ends, outside every timed span.
    responses: Vec<Vec<u8>>,
}

impl CallSpan {
    /// Documents the server returned as candidates (true matches plus
    /// false positives) in query responses.
    fn candidates(&self) -> usize {
        self.responses
            .iter()
            .map(|r| match ServerResponse::from_wire(r) {
                Ok(ServerResponse::Table(t)) => t.docs.len(),
                Ok(ServerResponse::Tables(ts)) => ts.iter().map(|t| t.docs.len()).sum(),
                _ => 0,
            })
            .sum()
    }
}

/// A [`Transport`] that records the spans of the calls of traced ops.
pub struct SpanTransport {
    inner: PooledClient,
    tracing: Cell<bool>,
    span: RefCell<Option<CallSpan>>,
}

impl SpanTransport {
    pub fn new(inner: PooledClient) -> Self {
        SpanTransport {
            inner,
            tracing: Cell::new(false),
            span: RefCell::new(None),
        }
    }

    /// Turns span recording on or off for the next op.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.set(on);
    }

    /// The calls recorded since the previous take, if any.
    pub fn take_span(&self) -> Option<CallSpan> {
        self.span.borrow_mut().take()
    }
}

impl Transport for SpanTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        if !self.tracing.get() {
            return self.inner.call(request);
        }
        let start = Instant::now();
        let response = self.inner.call(request)?;
        let end = Instant::now();
        let mut span = self.span.borrow_mut();
        let span = span.get_or_insert_with(|| CallSpan {
            start,
            end,
            call_nanos: 0,
            responses: Vec::new(),
        });
        span.end = end;
        span.call_nanos += (end - start).as_nanos();
        span.responses.push(response.clone());
        Ok(response)
    }
}

/// Which class an op belongs to; each class has its own latency
/// distribution.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
}

/// Sums of the spans of the traced ops that succeeded.
#[derive(Default)]
pub struct SpanTotals {
    pub ops: u64,
    pub op_nanos: u128,
    pub request_nanos: u128,
    pub call_nanos: u128,
    pub response_nanos: u128,
    pub candidates: u64,
    pub rows: u64,
}

impl SpanTotals {
    pub fn merge(&mut self, o: &SpanTotals) {
        self.ops += o.ops;
        self.op_nanos += o.op_nanos;
        self.request_nanos += o.request_nanos;
        self.call_nanos += o.call_nanos;
        self.response_nanos += o.response_nanos;
        self.candidates += o.candidates;
        self.rows += o.rows;
    }
}

/// One finished op.
#[derive(Clone)]
pub struct Op {
    pub kind: OpKind,
    pub traced: bool,
    /// When it ended, in seconds of measured time.
    pub end_s: f64,
    /// Client-observed latency in ms; `f64::INFINITY` for an op that
    /// failed or returned a wrong result, so it misses every latency
    /// limit.
    pub ms: f64,
    /// Rows it read or wrote; 0 when it failed.
    pub rows: usize,
}

impl Op {
    pub fn failed(&self) -> bool {
        !self.ms.is_finite()
    }
}

/// Everything one session (or one load-generator stream) measured.
#[derive(Default)]
pub struct Samples {
    pub ops: Vec<Op>,
    /// How late an open-loop generator sent each op (ms).
    pub late_ms: Vec<f64>,
    pub spans: SpanTotals,
}

impl Samples {
    pub fn merge(&mut self, o: &Samples) {
        self.ops.extend_from_slice(&o.ops);
        self.late_ms.extend_from_slice(&o.late_ms);
        self.spans.merge(&o.spans);
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|op| op.failed()).count()
    }

    /// Records one finished op, and the spans of its calls when it was
    /// traced and succeeded. `op_start` and `op_end` bound the client's
    /// work on it: the span split covers exactly that interval.
    pub fn record(&mut self, op: Op, op_start: Instant, op_end: Instant, span: Option<CallSpan>) {
        let (kind, rows, ok) = (op.kind, op.rows, !op.failed());
        self.ops.push(op);
        if let Some(span) = span.filter(|_| ok) {
            let s = &mut self.spans;
            s.ops += 1;
            s.op_nanos += (op_end - op_start).as_nanos();
            s.request_nanos += span.start.saturating_duration_since(op_start).as_nanos();
            s.call_nanos += span.call_nanos;
            s.response_nanos += op_end.saturating_duration_since(span.end).as_nanos();
            if kind == OpKind::Read {
                s.candidates += span.candidates() as u64;
                s.rows += rows as u64;
            }
        }
    }
}
