//! The two socket workloads over `apps::bank`, driven by one generator:
//! 2 `MuxClient` sockets with 16 logical clients each. Every logical
//! client keeps one frame in flight, so each socket keeps 16 frames in
//! flight, and a client's next frame is submitted as its reply lands
//! (the oldest in flight is always claimed first).
//!
//! * `edge_read_mostly`: generator → edge (`BatchFetcher` over
//!   `BatchRelay` over one upstream `MuxClient`) → origin. 4096 accounts
//!   drawn Zipf(0.99); 90 % read batches of 1–16 `get_balance`, 10 %
//!   write batches of 1–4 `make_purchase`.
//! * `durable_write_heavy`: generator → origin whose `RmiServer` journals
//!   through `attach_durable`. 1024 accounts; 80 % keyed write batches of
//!   1–4 `make_purchase` (one `KeySource` per logical client, acked
//!   watermarks), 20 % unkeyed read batches of 1–16 `get_balance`.
//!
//! Purchases are whole numbers, so balances are exact in `f64` and the
//! final origin balances must equal the generator's model exactly, since
//! purchases commute. A read must return a whole number no larger than
//! everything submitted to that account so far.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use brmi::BatchExecutor;
use brmi_apps::bank::{Account, Bank, CreditCard, CreditCardSkeleton, CreditManagerSkeleton};
use brmi_obs::{MetricsSnapshot, Snapshot};
use brmi_rmi::{DurableOptions, KeySource, RmiServer};
use brmi_transport::fetcher::BatchFetcher;
use brmi_transport::mux::{MuxClient, MuxPending};
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_transport::relay::{AdaptivePolicy, BatchRelay, ReadCachePolicy, RelayPolicy};
use brmi_transport::{RequestHandler, Transport};
use brmi_wire::invocation::{
    Arg, BatchRequest, CallSeq, InvocationData, PolicySpec, SlotOutcome, Target,
};
use brmi_wire::protocol::{Frame, IdemKey, KeyedBatch};
use brmi_wire::{MethodRegistry, ObjectId, RemoteError, Value};

use crate::gen::{Class, PhaseStats, Rng, Window, Zipf};
use crate::trace::{request_id, Span, TimedHandler, TimedTransport, Tracer};
use crate::{method_registry, Counters, Topology};

/// Logical clients per generator socket.
pub const CLIENTS_PER_SOCKET: usize = 16;
/// Dispatch workers on every tier whose handler blocks.
pub const DISPATCH_WORKERS: usize = 32;
/// Pre-built frames per logical client, replayed in a ring.
const PLANS_PER_CLIENT: usize = 512;
/// Credit limit high enough that no purchase is ever refused.
const CREDIT_LIMIT: f64 = 1e15;

/// The traffic mix of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Accounts at the origin.
    pub accounts: usize,
    /// Zipf exponent of account popularity (0 = uniform).
    pub zipf: f64,
    /// Share of write batches.
    pub write_frac: f64,
    /// Write batches carry an `IdemKey`.
    pub keyed_writes: bool,
}

/// One pre-built batch frame and what it does to the model.
struct Plan {
    class: Class,
    /// A keyed write carries a placeholder key, overwritten in place when
    /// the frame is sent.
    frame: Frame,
    /// `(account index, amount)` per call; amount 0 for reads.
    calls: Vec<(usize, u64)>,
}

fn build_plan(rng: &mut Rng, zipf: &Zipf, mix: &Mix, ids: &[ObjectId]) -> Plan {
    let write = rng.unit() < mix.write_frac;
    let (class, n, method) = if write {
        let m = CreditCardSkeleton::METHOD_MAKE_PURCHASE.name;
        (Class::Write, rng.range(1, 4), m)
    } else {
        let m = CreditCardSkeleton::METHOD_GET_BALANCE.name;
        (Class::Read, rng.range(1, 16), m)
    };
    let calls: Vec<(usize, u64)> = (0..n)
        .map(|_| {
            let account = zipf.sample(rng);
            (account, if write { rng.range(1, 9) } else { 0 })
        })
        .collect();
    let request = BatchRequest {
        session: None,
        calls: calls
            .iter()
            .enumerate()
            .map(|(i, &(account, amount))| InvocationData {
                seq: CallSeq(i as u32),
                target: Target::Remote(ids[account]),
                method: method.to_owned(),
                args: if write {
                    vec![Arg::Value(Value::F64(amount as f64))]
                } else {
                    vec![]
                },
                cursor: None,
                opens_cursor: false,
            })
            .collect(),
        policy: PolicySpec::Abort,
        keep_session: false,
    };
    let frame = if write && mix.keyed_writes {
        Frame::KeyedBatchCall(KeyedBatch {
            key: IdemKey {
                client_id: 0,
                seq: 0,
                acked: 0,
            },
            request,
        })
    } else {
        Frame::BatchCall(request)
    };
    Plan {
        class,
        frame,
        calls,
    }
}

/// One generator thread's logical clients: their pre-built frames,
/// replayed in a ring, and their key sources.
#[derive(Default)]
struct Clients {
    plans: Vec<Vec<Plan>>,
    keys: Vec<Arc<KeySource>>,
    cursors: Vec<usize>,
}

/// The origin's bank, the generator's inputs and the balance model.
struct BankState {
    mix: Mix,
    accounts: Vec<Arc<Account>>,
    ids: Vec<ObjectId>,
    /// Per generator thread, filled by [`BankState::prepare`].
    clients: Vec<Mutex<Clients>>,
    /// Units submitted per account (an upper bound for any read).
    submitted: Vec<AtomicU64>,
    /// Units whose purchase was acknowledged `Ok`.
    acked: Vec<AtomicU64>,
    /// Keyed write batches sent.
    keyed_sent: AtomicU64,
}

impl BankState {
    /// A bank origin server with `mix.accounts` exported accounts.
    fn new(mix: Mix) -> (Arc<RmiServer>, BankState) {
        let server = RmiServer::new();
        BatchExecutor::install(&server);
        let bank = Bank::new();
        let mut accounts = Vec::with_capacity(mix.accounts);
        let mut ids = Vec::with_capacity(mix.accounts);
        for i in 0..mix.accounts {
            let account = bank.open_account(&format!("acct-{i}"), CREDIT_LIMIT);
            ids.push(server.export(CreditCardSkeleton::remote_arc(account.clone())));
            accounts.push(account);
        }
        server
            .bind("bank", CreditManagerSkeleton::remote_arc(bank))
            .expect("fresh origin bind");
        let state = BankState {
            mix,
            accounts,
            ids,
            clients: (0..crate::GENERATOR_THREADS)
                .map(|_| Mutex::default())
                .collect(),
            submitted: (0..mix.accounts).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..mix.accounts).map(|_| AtomicU64::new(0)).collect(),
            keyed_sent: AtomicU64::new(0),
        };
        (server, state)
    }

    /// Builds the seeded frames and key sources of every logical client.
    fn prepare(&mut self, seed: u64) {
        let zipf = Zipf::new(self.mix.accounts, self.mix.zipf);
        for (thread, clients) in self.clients.iter_mut().enumerate() {
            let clients = clients.get_mut().expect("generator clients lock");
            for local in 0..CLIENTS_PER_SOCKET {
                let client = (thread * CLIENTS_PER_SOCKET + local) as u64;
                let mut rng = Rng::new(seed, 0x200 + client);
                clients.plans.push(
                    (0..PLANS_PER_CLIENT)
                        .map(|_| build_plan(&mut rng, &zipf, &self.mix, &self.ids))
                        .collect(),
                );
                clients.keys.push(KeySource::with_client_id(
                    (seed << 8) ^ (0xB0_0000 + client),
                ));
                clients.cursors.push(0);
            }
        }
    }

    /// Checks one reply against its plan; on success credits the model.
    fn check(&self, plan: &Plan, reply: Result<Frame, RemoteError>) -> Result<(), String> {
        let response = match reply {
            Ok(Frame::BatchReturn(response)) => response,
            Ok(Frame::Error(env)) => return Err(format!("{}: {}", env.kind, env.message)),
            Ok(other) => return Err(format!("unexpected reply {}", other.kind_name())),
            Err(err) => return Err(format!("transport: {err}")),
        };
        if response.slots.len() != plan.calls.len() {
            return Err(format!(
                "{} reply slots for {} calls",
                response.slots.len(),
                plan.calls.len()
            ));
        }
        for ((_, outcome), &(account, _)) in response.slots.iter().zip(&plan.calls) {
            match (plan.class, outcome) {
                (Class::Write, SlotOutcome::Ok(_)) => {}
                (Class::Read, SlotOutcome::Ok(Value::F64(balance))) => {
                    let bound = self.submitted[account].load(Ordering::SeqCst) as f64;
                    if balance.fract() != 0.0 || *balance < 0.0 || *balance > bound {
                        return Err(format!(
                            "account {account}: read {balance}, at most {bound} was submitted"
                        ));
                    }
                }
                (_, other) => return Err(format!("account {account}: slot {other:?}")),
            }
        }
        for &(account, amount) in &plan.calls {
            self.acked[account].fetch_add(amount, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Final balances equal the model, and every submitted unit was acked.
    fn verify(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (i, account) in self.accounts.iter().enumerate() {
            let balance = account.get_balance().unwrap_or(f64::NAN);
            let (acked, submitted) = (
                self.acked[i].load(Ordering::SeqCst),
                self.submitted[i].load(Ordering::SeqCst),
            );
            if balance != acked as f64 || acked != submitted {
                errors.push(format!(
                    "account {i}: origin balance {balance}, model {acked}, submitted {submitted}"
                ));
            }
            if errors.len() >= 8 {
                break;
            }
        }
        errors
    }
}

struct InFlight {
    local: usize,
    plan: usize,
    key: Option<IdemKey>,
    submitted: Instant,
    pending: Result<MuxPending, RemoteError>,
}

/// Sends logical client `local`'s next frame; a keyed write gets its key
/// written into the pre-built frame.
fn submit(state: &BankState, mux: &MuxClient, clients: &mut Clients, local: usize) -> InFlight {
    let index = clients.cursors[local] % PLANS_PER_CLIENT;
    clients.cursors[local] += 1;
    let plan = &mut clients.plans[local][index];
    for &(account, amount) in &plan.calls {
        state.submitted[account].fetch_add(amount, Ordering::SeqCst);
    }
    let key = match &mut plan.frame {
        Frame::KeyedBatchCall(keyed) => {
            keyed.key = clients.keys[local].next();
            state.keyed_sent.fetch_add(1, Ordering::SeqCst);
            Some(keyed.key)
        }
        _ => None,
    };
    let submitted = Instant::now();
    let pending = mux.call(&plan.frame);
    InFlight {
        local,
        plan: index,
        key,
        submitted,
        pending,
    }
}

/// Drives generator socket `thread` closed-loop until the window stops.
fn drive(
    state: &BankState,
    mux: &MuxClient,
    thread: usize,
    traced: bool,
    window: &Window,
) -> PhaseStats {
    let mut stats = PhaseStats::new(window, thread);
    let mut clients = state.clients[thread]
        .lock()
        .expect("generator clients lock");
    let clients = &mut *clients;
    let mut inflight = VecDeque::with_capacity(CLIENTS_PER_SOCKET);
    for local in 0..CLIENTS_PER_SOCKET {
        inflight.push_back(submit(state, mux, clients, local));
    }
    while let Some(call) = inflight.pop_front() {
        let plan = &clients.plans[call.local][call.plan];
        let reply = call.pending.and_then(MuxPending::wait);
        let checked = state.check(plan, reply);
        let done = Instant::now();
        let latency = (done - call.submitted).as_nanos() as u64;
        if let Some(key) = call.key {
            clients.keys[call.local].acknowledge(key.seq);
        }
        match checked {
            Ok(()) => {
                if let Some(slice) = window.slice(done) {
                    stats.ok(plan.class, plan.calls.len() as u64, latency, slice);
                    if let (true, Some(key)) = (traced, call.key) {
                        if let Some(handler) = Tracer::global().take_linked(request_id(&key)) {
                            stats
                                .linked_hop
                                .push(latency.saturating_sub(handler) as f64);
                        }
                    }
                }
            }
            Err(err) => stats.fail(err),
        }
        if !window.stopped() {
            inflight.push_back(submit(state, mux, clients, call.local));
        }
    }
    stats
}

fn bank_methods() -> Arc<MethodRegistry> {
    Arc::new(MethodRegistry::of(&[
        CreditCardSkeleton::INTERFACE_META,
        CreditManagerSkeleton::INTERFACE_META,
    ]))
}

fn mux_counters(c: &mut Counters, prefix: &str, muxes: &[&Arc<MuxClient>]) {
    let (mut frames, mut writes, mut bytes) = (0, 0, 0);
    for mux in muxes {
        let snap = mux.snapshot();
        frames += snap.counter("mux_frames_sent");
        writes += snap.counter("mux_write_syscalls");
        bytes += snap.counter("transport_bytes_sent{tier=\"mux\"}")
            + snap.counter("transport_bytes_received{tier=\"mux\"}");
    }
    c.insert(format!("{prefix}.frames"), frames as f64);
    c.insert(format!("{prefix}.writes"), writes as f64);
    c.insert(format!("{prefix}.bytes"), bytes as f64);
}

fn reactor_counters(c: &mut Counters, reactors: &[&ReactorServer]) {
    let (mut pauses, mut shed) = (0, 0);
    for reactor in reactors {
        let snap = reactor.stats().snapshot();
        pauses += snap.counter("reactor_backpressure_pauses");
        shed += snap.counter("reactor_requests_shed");
    }
    c.insert("reactor.pauses", pauses as f64);
    c.insert("reactor.shed", shed as f64);
}

fn queue_depth(reactor: &ReactorServer) -> f64 {
    reactor
        .stats()
        .snapshot()
        .gauge("reactor_worker_queue_depth") as f64
}

fn replays(server: &RmiServer) -> f64 {
    server.reply_cache().snapshot().counter("replay_replays") as f64
}

fn connect_generators(edge: &ReactorServer) -> Result<Vec<Arc<MuxClient>>, RemoteError> {
    (0..crate::GENERATOR_THREADS)
        .map(|_| MuxClient::connect(edge.local_addr()))
        .collect()
}

/// `edge_read_mostly`.
pub struct EdgeReadMostly {
    traced: bool,
    state: BankState,
    origin_server: Arc<RmiServer>,
    muxes: Vec<Arc<MuxClient>>,
    edge: ReactorServer,
    fetcher: Arc<BatchFetcher>,
    relay: Arc<BatchRelay>,
    upstream: Arc<MuxClient>,
    origin: ReactorServer,
}

/// The edge workload's traffic mix.
pub const EDGE_MIX: Mix = Mix {
    accounts: 4096,
    zipf: 0.99,
    write_frac: 0.10,
    keyed_writes: false,
};

impl EdgeReadMostly {
    /// Builds origin, edge and generator sockets.
    ///
    /// # Errors
    ///
    /// Socket set-up failures.
    pub fn setup(traced: bool) -> Result<EdgeReadMostly, RemoteError> {
        let (origin_server, state) = BankState::new(EDGE_MIX);
        let methods = method_registry();
        let wrap_handler = |inner: Arc<dyn RequestHandler>, read, write| {
            if traced {
                TimedHandler::wrap(inner, Arc::clone(&methods), read, write)
            } else {
                inner
            }
        };
        let origin = ReactorServer::bind_with(
            "127.0.0.1:0",
            wrap_handler(origin_server.clone(), Span::OriginRead, Span::OriginWrite),
            ReactorConfig::default(),
        )?;
        let upstream = MuxClient::connect(origin.local_addr())?;
        let upstream_transport: Arc<dyn Transport> = if traced {
            TimedTransport::wrap(
                upstream.clone(),
                Arc::clone(&methods),
                Span::UpstreamRequest,
            )
        } else {
            upstream.clone()
        };
        let relay = BatchRelay::new(
            upstream_transport,
            RelayPolicy::builder()
                .adaptive(AdaptivePolicy::default())
                .build(),
        );
        let fetcher = BatchFetcher::new(
            wrap_handler(relay.clone(), Span::RelayHandle, Span::RelayHandle),
            bank_methods(),
            ReadCachePolicy::default(),
        );
        let edge = ReactorServer::bind_with(
            "127.0.0.1:0",
            wrap_handler(fetcher.clone(), Span::EdgeRead, Span::EdgeWrite),
            ReactorConfig {
                dispatch_workers: DISPATCH_WORKERS,
                ..ReactorConfig::default()
            },
        )?;
        let muxes = connect_generators(&edge)?;
        Ok(EdgeReadMostly {
            traced,
            state,
            origin_server,
            muxes,
            edge,
            fetcher,
            relay,
            upstream,
            origin,
        })
    }
}

impl Topology for EdgeReadMostly {
    fn prepare(&mut self, seed: u64) {
        self.state.prepare(seed);
    }

    fn generate(&self, thread: usize, window: &Window) -> PhaseStats {
        drive(
            &self.state,
            &self.muxes[thread],
            thread,
            self.traced,
            window,
        )
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        mux_counters(&mut c, "mux.client", &self.muxes.iter().collect::<Vec<_>>());
        mux_counters(&mut c, "mux.upstream", &[&self.upstream]);
        reactor_counters(&mut c, &[&self.edge, &self.origin]);
        let fetcher: MetricsSnapshot = self.fetcher.stats().snapshot();
        for (name, key) in [
            ("fetcher.lookups", "fetcher_lookups"),
            ("fetcher.hits", "fetcher_hits"),
            ("fetcher.probes", "fetcher_probe_batches"),
            (
                "fetcher.invalidations",
                "fetcher_drops{reason=\"invalidated\"}",
            ),
            ("fetcher.evictions", "fetcher_drops{reason=\"evicted\"}"),
            ("fetcher.expirations", "fetcher_drops{reason=\"expired\"}"),
        ] {
            c.insert(name, fetcher.counter(key) as f64);
        }
        let relay = self.relay.stats().snapshot();
        c.insert("relay.batches", relay.counter("relay_batches") as f64);
        c.insert(
            "relay.flushes",
            relay.counter("relay_upstream_flushes") as f64,
        );
        let wait = relay.histogram("relay_coalesce_wait_nanos");
        c.insert("relay.wait_count", wait.count as f64);
        c.insert("relay.wait_sum_ns", wait.sum as f64);
        for (bucket, count) in &wait.buckets {
            c.insert(format!("relay.wait_bucket.{bucket:03}"), *count as f64);
        }
        c.insert("rmi.replays", replays(&self.origin_server));
        c
    }

    fn gauges(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("reactor.edge.queue_depth", queue_depth(&self.edge)),
            ("reactor.origin.queue_depth", queue_depth(&self.origin)),
            (
                "relay.adaptive_delay_ns",
                self.relay
                    .stats()
                    .snapshot()
                    .gauge("relay_adaptive_delay_nanos") as f64,
            ),
        ]
    }

    fn verify(&self) -> Vec<String> {
        self.state.verify()
    }

    fn shutdown(&mut self) -> Vec<String> {
        self.muxes.clear();
        self.edge.shutdown();
        self.relay.shutdown();
        self.origin.shutdown();
        Vec::new()
    }

    fn settings(&self) -> String {
        format!(
            "generator: {} MuxClient sockets x {CLIENTS_PER_SOCKET} logical clients; edge: ReactorServer dispatch_workers={DISPATCH_WORKERS} serving BatchFetcher(ReadCachePolicy::default()) over BatchRelay(RelayPolicy::default() + AdaptivePolicy::default()) over one MuxClient; origin: ReactorServer default config, in-memory RmiServer + BatchExecutor, apps::bank; {:?}",
            self.muxes.len().max(crate::GENERATOR_THREADS),
            EDGE_MIX
        )
    }
}

/// `durable_write_heavy`.
pub struct DurableWriteHeavy {
    traced: bool,
    state: BankState,
    origin_server: Arc<RmiServer>,
    muxes: Vec<Arc<MuxClient>>,
    origin: ReactorServer,
    dir: PathBuf,
}

/// The durable workload's traffic mix.
pub const DURABLE_MIX: Mix = Mix {
    accounts: 1024,
    zipf: 0.0,
    write_frac: 0.80,
    keyed_writes: true,
};

impl DurableWriteHeavy {
    /// Builds the journaled origin in `dir` (which must not exist yet)
    /// and the generator sockets.
    ///
    /// # Errors
    ///
    /// Journal or socket set-up failures.
    pub fn setup(traced: bool, dir: PathBuf) -> Result<DurableWriteHeavy, RemoteError> {
        let (origin_server, state) = BankState::new(DURABLE_MIX);
        std::fs::create_dir_all(&dir)
            .map_err(|err| RemoteError::transport(format!("create {}: {err}", dir.display())))?;
        origin_server
            .attach_durable(&dir, DurableOptions::default())
            .map_err(|err| RemoteError::transport(format!("attach durable journal: {err}")))?;
        let handler: Arc<dyn RequestHandler> = if traced {
            TimedHandler::wrap(
                origin_server.clone(),
                method_registry(),
                Span::OriginRead,
                Span::OriginWrite,
            )
        } else {
            origin_server.clone()
        };
        let origin = ReactorServer::bind_with(
            "127.0.0.1:0",
            handler,
            ReactorConfig {
                dispatch_workers: DISPATCH_WORKERS,
                ..ReactorConfig::default()
            },
        )?;
        let muxes = connect_generators(&origin)?;
        Ok(DurableWriteHeavy {
            traced,
            state,
            origin_server,
            muxes,
            origin,
            dir,
        })
    }
}

impl Topology for DurableWriteHeavy {
    fn prepare(&mut self, seed: u64) {
        self.state.prepare(seed);
    }

    fn generate(&self, thread: usize, window: &Window) -> PhaseStats {
        drive(
            &self.state,
            &self.muxes[thread],
            thread,
            self.traced,
            window,
        )
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        mux_counters(&mut c, "mux.client", &self.muxes.iter().collect::<Vec<_>>());
        reactor_counters(&mut c, &[&self.origin]);
        c.insert("rmi.replays", replays(&self.origin_server));
        if let Some(journal) = self.origin_server.journal() {
            let registry = brmi_obs::Registry::new();
            journal.register_metrics(&registry);
            let snap = registry.snapshot();
            for (name, key) in [
                ("durable.appends", "durable_appends"),
                ("durable.fsyncs", "durable_fsyncs"),
                ("durable.bytes", "durable_bytes"),
                ("durable.snapshots", "durable_snapshots"),
            ] {
                c.insert(name, snap.counter(key) as f64);
            }
        }
        c
    }

    fn gauges(&self) -> Vec<(&'static str, f64)> {
        vec![("reactor.origin.queue_depth", queue_depth(&self.origin))]
    }

    fn verify(&self) -> Vec<String> {
        let mut errors = self.state.verify();
        let c = self.counters();
        let keyed = self.state.keyed_sent.load(Ordering::SeqCst) as f64;
        if c["durable.appends"] != keyed {
            errors.push(format!(
                "durable appends {} != keyed write batches {keyed}",
                c["durable.appends"]
            ));
        }
        if c["rmi.replays"] != 0.0 {
            errors.push(format!("reply cache replayed {} replies", c["rmi.replays"]));
        }
        errors
    }

    fn shutdown(&mut self) -> Vec<String> {
        self.muxes.clear();
        self.origin.shutdown();
        let mut errors = Vec::new();
        if let Err(err) = std::fs::remove_dir_all(&self.dir) {
            errors.push(format!("remove journal {}: {err}", self.dir.display()));
        }
        if self.dir.exists() {
            errors.push(format!("journal {} still exists", self.dir.display()));
        }
        errors
    }

    fn settings(&self) -> String {
        format!(
            "generator: {} MuxClient sockets x {CLIENTS_PER_SOCKET} logical clients, one KeySource each; origin: ReactorServer dispatch_workers={DISPATCH_WORKERS}, RmiServer + BatchExecutor + attach_durable(DurableOptions::default()), apps::bank; {:?}",
            crate::GENERATOR_THREADS,
            DURABLE_MIX
        )
    }
}
