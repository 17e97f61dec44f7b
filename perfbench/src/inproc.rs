//! `inproc_noop`: the paper's Fig. 5 middleware floor. Two generator
//! threads, each with its own `Connection` over an `InProcTransport` with
//! the codec on, record `BNoop` batches of a seeded size from
//! {1, 4, 16, 64}, flush them and `get` every future, against an
//! `RmiServer` + `BatchExecutor` running `apps::noop`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor, BatchFuture};
use brmi_apps::noop::{BNoop, NoopServer, NoopSkeleton};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::inproc::InProcTransport;
use brmi_transport::{RequestHandler, Transport, TransportStats};
use brmi_wire::RemoteError;

use crate::gen::{Class, PhaseStats, Rng, Window};
use crate::trace::{Span, TimedHandler, TimedTransport, Tracer};
use crate::{method_registry, Counters, Topology};

const SIZES: [u64; 4] = [1, 4, 16, 64];

/// The in-process topology.
pub struct InprocNoop {
    seed: u64,
    traced: bool,
    noop: Arc<NoopServer>,
    server: Arc<RmiServer>,
    clients: Vec<(Connection, RemoteRef, Arc<TransportStats>)>,
    /// Calls recorded by the generators, warm-up included.
    recorded: AtomicU64,
    /// Futures that did not resolve `Ok`.
    bad_futures: AtomicU64,
}

impl InprocNoop {
    /// Builds the topology; `traced` puts the timing wrappers in.
    ///
    /// # Errors
    ///
    /// Returns the registry lookup's error.
    pub fn setup(seed: u64, traced: bool, threads: usize) -> Result<InprocNoop, RemoteError> {
        let server = RmiServer::new();
        BatchExecutor::install(&server);
        let noop = NoopServer::new();
        server
            .bind("noop", NoopSkeleton::remote_arc(noop.clone()))
            .map_err(|err| RemoteError::transport(format!("bind noop: {err}")))?;
        let methods = method_registry();
        let handler: Arc<dyn RequestHandler> = if traced {
            TimedHandler::wrap(
                server.clone(),
                Arc::clone(&methods),
                Span::OriginRead,
                Span::OriginWrite,
            )
        } else {
            server.clone()
        };
        let clients = (0..threads)
            .map(|_| {
                let inproc = Arc::new(InProcTransport::new(Arc::clone(&handler)));
                let stats = inproc.stats();
                let transport: Arc<dyn Transport> = if traced {
                    TimedTransport::wrap(inproc, Arc::clone(&methods), Span::ClientRequest)
                } else {
                    inproc
                };
                let conn = Connection::new(transport);
                let root = conn.lookup("noop")?;
                Ok((conn, root, stats))
            })
            .collect::<Result<_, RemoteError>>()?;
        Ok(InprocNoop {
            seed,
            traced,
            noop,
            server,
            clients,
            recorded: AtomicU64::new(0),
            bad_futures: AtomicU64::new(0),
        })
    }

    /// One batch: record `n` no-op calls, flush, `get` every future.
    /// Returns the number of futures that did not resolve `Ok`.
    fn batch(&self, conn: &Connection, root: &RemoteRef, n: u64) -> Result<u64, RemoteError> {
        let batch = Batch::new(conn.clone(), AbortPolicy);
        let record = || -> Vec<BatchFuture<()>> {
            let stub = BNoop::new(&batch, root);
            (0..n).map(|_| stub.noop()).collect()
        };
        let get = |futures: &[BatchFuture<()>]| -> u64 {
            futures.iter().filter(|f| f.get().is_err()).count() as u64
        };
        if !self.traced {
            let futures = record();
            self.recorded.fetch_add(n, Ordering::Relaxed);
            batch.flush()?;
            return Ok(get(&futures));
        }
        let tracer = Tracer::global();
        let futures = tracer.span(Span::CoreRecord, 0, n, 1, record);
        self.recorded.fetch_add(n, Ordering::Relaxed);
        tracer.span(Span::CoreFlush, 0, n, 1, || batch.flush())?;
        Ok(tracer.span(Span::CoreGet, 0, n, 1, || get(&futures)))
    }
}

impl Topology for InprocNoop {
    fn generate(&self, thread: usize, window: &Window) -> PhaseStats {
        let (conn, root, _) = &self.clients[thread];
        let mut rng = Rng::new(self.seed, 0x100 + thread as u64);
        let mut stats = PhaseStats::new(window, thread);
        while !window.stopped() {
            let n = SIZES[rng.below(SIZES.len() as u64) as usize];
            let submitted = Instant::now();
            let outcome = self.batch(conn, root, n);
            let done = Instant::now();
            match outcome {
                Ok(0) => {
                    if let Some(slice) = window.slice(done) {
                        stats.ok(Class::Write, n, (done - submitted).as_nanos() as u64, slice);
                    }
                }
                Ok(bad) => {
                    self.bad_futures.fetch_add(bad, Ordering::Relaxed);
                    stats.fail(format!("{bad} of {n} futures did not resolve Ok"));
                }
                Err(err) => stats.fail(format!("flush failed: {err}")),
            }
        }
        stats
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        let bytes: u64 = self
            .clients
            .iter()
            .map(|(_, _, s)| s.bytes_sent() + s.bytes_received())
            .sum();
        c.insert("client.bytes", bytes as f64);
        c.insert("rmi.replays", self.server.reply_cache().replays() as f64);
        c
    }

    fn verify(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let (executed, recorded) = (self.noop.calls(), self.recorded.load(Ordering::Relaxed));
        if executed != recorded {
            errors.push(format!(
                "noop executions {executed} != recorded calls {recorded}"
            ));
        }
        let bad = self.bad_futures.load(Ordering::Relaxed);
        if bad > 0 {
            errors.push(format!("{bad} futures did not resolve Ok"));
        }
        errors
    }

    fn settings(&self) -> String {
        format!(
            "{} threads x Connection over InProcTransport::new (codec on); RmiServer::new + BatchExecutor::install; apps::noop; batch sizes {SIZES:?}",
            self.clients.len()
        )
    }
}
