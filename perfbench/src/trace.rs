//! Bench-owned spans and the timing wrappers that record them.
//!
//! Every wrapper sits on a public boundary of the stack — `Transport`,
//! `RequestHandler` — or around a public client call (generated stub
//! calls, `Batch::flush`, `BatchFuture::get`), and forwards to the wrapped
//! item unchanged: `handle_ref` goes to `handle_ref` and `handle` to
//! `handle`, so tracing never moves a tier onto another dispatch path.
//!
//! A span has a name, a start, an end, a parent (the span open on the same
//! thread when it began) and a request id (the frame's `IdemKey` where one
//! exists, else 0). Spans are kept in memory, the first bounded number
//! per thread that start after the measured window opens, and written out
//! when the run ends. Aggregates are kept for *every*
//! span: count, total time and self time (the span minus its children on
//! the same thread), so the per-layer figures never depend on the bound.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use brmi_transport::{RequestHandler, Transport};
use brmi_wire::invocation::BatchRequest;
use brmi_wire::protocol::{Frame, FrameRef, IdemKey, KeyedBatch, KeyedBatchRef};
use brmi_wire::{MethodRegistry, RemoteError};

/// The boundaries the traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Generated batch stub construction plus the stub calls of one batch.
    CoreRecord,
    /// `Batch::flush`.
    CoreFlush,
    /// Every `BatchFuture::get` of one batch.
    CoreGet,
    /// The client's `Transport::request` (in-proc: codec + handler).
    ClientRequest,
    /// The origin's `RequestHandler`, on a read frame.
    OriginRead,
    /// The origin's `RequestHandler`, on any other frame.
    OriginWrite,
    /// The edge tier's `RequestHandler` (the fetcher), on a read frame.
    EdgeRead,
    /// The edge tier's `RequestHandler` (the fetcher), on any other frame.
    EdgeWrite,
    /// The relay's `RequestHandler`, called by the fetcher.
    RelayHandle,
    /// The relay's upstream `Transport::request`.
    UpstreamRequest,
}

impl Span {
    /// The name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Span::CoreRecord => "core.record",
            Span::CoreFlush => "core.flush",
            Span::CoreGet => "core.get",
            Span::ClientRequest => "transport.request",
            Span::OriginRead => "rmi.handle.read",
            Span::OriginWrite => "rmi.handle.write",
            Span::EdgeRead => "fetcher.handle.read",
            Span::EdgeWrite => "fetcher.handle.write",
            Span::RelayHandle => "relay.handle",
            Span::UpstreamRequest => "relay.upstream_request",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Number of [`Span`] variants.
pub const SPANS: usize = 10;
const _: () = assert!(Span::UpstreamRequest as usize + 1 == SPANS);

/// Spans kept per thread for the span file; aggregates cover all spans.
const KEPT_PER_THREAD: usize = 4096;

/// One recorded span. `parent` indexes the same thread's kept spans.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    span: Span,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u64,
}

#[derive(Default)]
struct Agg {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    /// Calls carried by the spanned frames or batches.
    calls: AtomicU64,
    /// Batches carried (a super-batch carries several).
    batches: AtomicU64,
    /// Σ duration × batches: each batch of a shared upstream flush waits
    /// for the whole flush.
    batch_weighted_ns: AtomicU64,
}

/// One thread's aggregates (written by that thread only) and kept spans.
struct ThreadLog {
    thread: u32,
    aggs: [Agg; SPANS],
    kept: Mutex<Vec<SpanRec>>,
}

struct Open {
    span: Span,
    start: Instant,
    child_ns: u64,
    kept: Option<u32>,
}

/// Sums of one span over every thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − same-thread child spans), ns.
    pub self_ns: u64,
    /// Calls carried.
    pub calls: u64,
    /// Batches carried.
    pub batches: u64,
    /// Σ duration × batches carried, ns.
    pub batch_weighted_ns: u64,
}

impl SpanTotals {
    /// Mean duration per span, ns.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }

    /// Mean self time per span, ns.
    pub fn mean_self_ns(&self) -> f64 {
        ratio(self.self_ns as f64, self.count as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process-wide span recorder. Only the traced binary's traced phase
/// creates wrappers, so untraced code paths never touch it.
pub struct Tracer {
    epoch: Instant,
    threads: Mutex<Vec<Arc<ThreadLog>>>,
    /// Spans that start while set are kept for the span file.
    keeping: AtomicBool,
    /// Origin handler time per keyed request, for per-request hop times.
    linked: Mutex<HashMap<u64, u64>>,
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadLog>>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// The recorder (created on first use).
    pub fn global() -> &'static Tracer {
        static TRACER: OnceLock<Tracer> = OnceLock::new();
        TRACER.get_or_init(|| Tracer {
            epoch: Instant::now(),
            threads: Mutex::new(Vec::new()),
            keeping: AtomicBool::new(false),
            linked: Mutex::new(HashMap::new()),
        })
    }

    fn local(&self) -> Arc<ThreadLog> {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            Arc::clone(local.get_or_insert_with(|| {
                let mut threads = self.threads.lock().expect("tracer threads lock");
                let log = Arc::new(ThreadLog {
                    thread: threads.len() as u32,
                    aggs: Default::default(),
                    kept: Mutex::new(Vec::with_capacity(KEPT_PER_THREAD)),
                });
                threads.push(Arc::clone(&log));
                log
            }))
        })
    }

    /// Runs `f` inside a span. `calls` and `batches` are what the span
    /// carries; `request` is the frame's request id (0 when it has none).
    pub fn span<R>(
        &self,
        span: Span,
        request: u64,
        calls: u64,
        batches: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let log = self.local();
        let start = Instant::now();
        let parent = STACK.with(|stack| stack.borrow().last().and_then(|open| open.kept));
        let kept = self.keeping.load(Ordering::Relaxed).then(|| {
            let mut kept = log.kept.lock().expect("span buffer lock");
            (kept.len() < KEPT_PER_THREAD).then(|| {
                kept.push(SpanRec {
                    span,
                    start_ns: self.nanos(start),
                    end_ns: 0,
                    parent,
                    request,
                });
                (kept.len() - 1) as u32
            })
        });
        let kept = kept.flatten();
        STACK.with(|stack| {
            stack.borrow_mut().push(Open {
                span,
                start,
                child_ns: 0,
                kept,
            })
        });
        let result = f();
        let end = Instant::now();
        let open = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let open = stack.pop().expect("span stack underflow");
            let duration = (end - open.start).as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += duration;
            }
            open
        });
        debug_assert_eq!(open.span, span);
        let duration = (end - open.start).as_nanos() as u64;
        let agg = &log.aggs[span.index()];
        agg.count.fetch_add(1, Ordering::Relaxed);
        agg.total_ns.fetch_add(duration, Ordering::Relaxed);
        agg.self_ns
            .fetch_add(duration.saturating_sub(open.child_ns), Ordering::Relaxed);
        agg.calls.fetch_add(calls, Ordering::Relaxed);
        agg.batches.fetch_add(batches, Ordering::Relaxed);
        agg.batch_weighted_ns
            .fetch_add(duration * batches, Ordering::Relaxed);
        if let Some(index) = open.kept {
            log.kept.lock().expect("span buffer lock")[index as usize].end_ns = self.nanos(end);
        }
        if request != 0 && matches!(span, Span::OriginWrite | Span::OriginRead) {
            self.linked
                .lock()
                .expect("linked spans lock")
                .insert(request, duration);
        }
        result
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Takes the origin handler time recorded for `request`, if any.
    pub fn take_linked(&self, request: u64) -> Option<u64> {
        self.linked
            .lock()
            .expect("linked spans lock")
            .remove(&request)
    }

    /// Sums over every thread.
    pub fn totals(&self) -> [SpanTotals; SPANS] {
        let mut out = [SpanTotals::default(); SPANS];
        for log in self.threads.lock().expect("tracer threads lock").iter() {
            for (sum, agg) in out.iter_mut().zip(&log.aggs) {
                sum.count += agg.count.load(Ordering::Relaxed);
                sum.total_ns += agg.total_ns.load(Ordering::Relaxed);
                sum.self_ns += agg.self_ns.load(Ordering::Relaxed);
                sum.calls += agg.calls.load(Ordering::Relaxed);
                sum.batches += agg.batches.load(Ordering::Relaxed);
                sum.batch_weighted_ns += agg.batch_weighted_ns.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Starts keeping spans for the span file (when the window opens).
    pub fn keep_spans(&self) {
        self.keeping.store(true, Ordering::Relaxed);
    }

    /// Clears aggregates, kept spans and links, and stops keeping spans.
    pub fn reset(&self) {
        self.keeping.store(false, Ordering::Relaxed);
        for log in self.threads.lock().expect("tracer threads lock").iter() {
            for agg in &log.aggs {
                for cell in [
                    &agg.count,
                    &agg.total_ns,
                    &agg.self_ns,
                    &agg.calls,
                    &agg.batches,
                    &agg.batch_weighted_ns,
                ] {
                    cell.store(0, Ordering::Relaxed);
                }
            }
            log.kept.lock().expect("span buffer lock").clear();
        }
        self.linked.lock().expect("linked spans lock").clear();
    }

    /// The kept spans as JSON lines: name, thread, start, end (ns since
    /// the recorder's epoch), parent (`thread:index`) and request id.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for log in self.threads.lock().expect("tracer threads lock").iter() {
            for (index, rec) in log
                .kept
                .lock()
                .expect("span buffer lock")
                .iter()
                .enumerate()
            {
                if rec.end_ns == 0 {
                    continue;
                }
                let parent = rec
                    .parent
                    .map_or("null".to_owned(), |p| format!("\"{}:{p}\"", log.thread));
                let _ = writeln!(
                    out,
                    "{{\"id\":\"{}:{index}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                    log.thread,
                    rec.span.name(),
                    rec.start_ns,
                    rec.end_ns,
                    rec.request
                );
            }
        }
        out
    }
}

/// The request id a keyed frame carries: its `IdemKey`, folded to 64 bits.
pub fn request_id(key: &IdemKey) -> u64 {
    (key.client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key.seq) | 1
}

/// What a request frame carries, as the wrappers classify it.
#[derive(Default)]
struct FrameShape {
    calls: u64,
    batches: u64,
    read: bool,
    request: u64,
}

fn all_read(methods: &MethodRegistry, names: &mut dyn Iterator<Item = &str>) -> bool {
    for name in names {
        if !methods.is_read_only(name) {
            return false;
        }
    }
    true
}

fn shape_ref(frame: &FrameRef<'_>, methods: &MethodRegistry) -> FrameShape {
    let reads = |names: &mut dyn Iterator<Item = &str>| all_read(methods, names);
    match frame {
        FrameRef::BatchCall(b) => FrameShape {
            calls: b.calls.len() as u64,
            batches: 1,
            read: reads(&mut b.calls.iter().map(|c| c.method)),
            request: 0,
        },
        FrameRef::KeyedBatchCall(k) => FrameShape {
            calls: k.request.calls.len() as u64,
            batches: 1,
            read: reads(&mut k.request.calls.iter().map(|c| c.method)),
            request: request_id(&k.key),
        },
        FrameRef::SuperBatchCall(bs) => FrameShape {
            calls: bs.iter().map(|b| b.calls.len() as u64).sum(),
            batches: bs.len() as u64,
            read: reads(&mut bs.iter().flat_map(|b| b.calls.iter().map(|c| c.method))),
            request: 0,
        },
        FrameRef::KeyedSuperBatchCall(ks) => FrameShape {
            calls: ks.iter().map(|k| k.request.calls.len() as u64).sum(),
            batches: ks.len() as u64,
            read: false,
            request: 0,
        },
        FrameRef::Traced { inner, .. } => shape_ref(inner, methods),
        FrameRef::Call { method, .. } | FrameRef::KeyedCall { method, .. } => {
            call_shape(method, methods)
        }
        FrameRef::Other(_) => FrameShape::default(),
    }
}

fn call_shape(method: &str, methods: &MethodRegistry) -> FrameShape {
    FrameShape {
        calls: 1,
        batches: 0,
        read: methods.is_read_only(method),
        request: 0,
    }
}

/// Classifies an owned frame through the borrowed view of its batches.
fn shape(frame: &Frame, methods: &MethodRegistry) -> FrameShape {
    fn keyed(k: &KeyedBatch) -> KeyedBatchRef<'_> {
        KeyedBatchRef {
            key: k.key,
            request: k.request.to_ref(),
        }
    }
    let view = match frame {
        Frame::BatchCall(b) => FrameRef::BatchCall(b.to_ref()),
        Frame::KeyedBatchCall(k) => FrameRef::KeyedBatchCall(keyed(k)),
        Frame::SuperBatchCall(bs) => {
            FrameRef::SuperBatchCall(bs.iter().map(BatchRequest::to_ref).collect())
        }
        Frame::KeyedSuperBatchCall(ks) => {
            FrameRef::KeyedSuperBatchCall(ks.iter().map(keyed).collect())
        }
        Frame::Traced { inner, .. } => return shape(inner, methods),
        Frame::Call { method, .. } | Frame::KeyedCall { method, .. } => {
            return call_shape(method, methods)
        }
        _ => return FrameShape::default(),
    };
    shape_ref(&view, methods)
}

/// Times a `RequestHandler`, recording a read or write span per frame.
pub struct TimedHandler {
    inner: Arc<dyn RequestHandler>,
    methods: Arc<MethodRegistry>,
    read: Span,
    write: Span,
}

impl TimedHandler {
    /// Wraps `inner`; frames whose every call is read-only per `methods`
    /// record `read`, all others `write`.
    pub fn wrap(
        inner: Arc<dyn RequestHandler>,
        methods: Arc<MethodRegistry>,
        read: Span,
        write: Span,
    ) -> Arc<dyn RequestHandler> {
        Arc::new(TimedHandler {
            inner,
            methods,
            read,
            write,
        })
    }

    fn pick(&self, shape: &FrameShape) -> Span {
        if shape.read {
            self.read
        } else {
            self.write
        }
    }
}

impl RequestHandler for TimedHandler {
    fn handle(&self, frame: Frame) -> Frame {
        let s = shape(&frame, &self.methods);
        Tracer::global().span(self.pick(&s), s.request, s.calls, s.batches, || {
            self.inner.handle(frame)
        })
    }

    fn handle_ref(&self, frame: FrameRef<'_>) -> Frame {
        let s = shape_ref(&frame, &self.methods);
        Tracer::global().span(self.pick(&s), s.request, s.calls, s.batches, || {
            self.inner.handle_ref(frame)
        })
    }
}

/// Times a `Transport`, recording one span per request.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    methods: Arc<MethodRegistry>,
    span: Span,
}

impl TimedTransport {
    /// Wraps `inner`, recording `span` around every request.
    pub fn wrap(
        inner: Arc<dyn Transport>,
        methods: Arc<MethodRegistry>,
        span: Span,
    ) -> Arc<dyn Transport> {
        Arc::new(TimedTransport {
            inner,
            methods,
            span,
        })
    }
}

impl Transport for TimedTransport {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let s = shape(&frame, &self.methods);
        Tracer::global().span(self.span, s.request, s.calls, s.batches, || {
            self.inner.request(frame)
        })
    }
}
