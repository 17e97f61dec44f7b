//! Criterion benchmarks of real middleware CPU cost (no simulated
//! latency): recording, wire encoding, batch execution and end-to-end
//! in-process round trips. These complement the figure harness, which
//! measures simulated network time.

use std::sync::Arc;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchFuture};
use brmi_apps::fileserver::{DirectorySkeleton, InMemoryDirectory};
use brmi_apps::list::{
    brmi_nth_value, rmi_nth_value, ListNode, RemoteListSkeleton, RemoteListStub,
};
use brmi_apps::noop::{brmi_noops, rmi_noops, BNoop, NoopServer, NoopSkeleton, NoopStub};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::inproc::InProcTransport;
use brmi_wire::codec::WireCodec;
use brmi_wire::invocation::{
    Arg, BatchRequest, BatchRequestRef, CallSeq, InvocationData, PolicySpec, Target,
};
use brmi_wire::{ObjectId, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn noop_rig() -> (Arc<RmiServer>, Connection, brmi_rmi::RemoteRef) {
    let server = RmiServer::new();
    brmi::BatchExecutor::install(&server);
    let id = server
        .bind("noop", NoopSkeleton::remote_arc(NoopServer::new()))
        .unwrap();
    let conn = Connection::new(Arc::new(InProcTransport::new(server.clone())));
    let reference = conn.reference(id);
    (server, conn, reference)
}

fn bench_recording(c: &mut Criterion) {
    let (_server, conn, reference) = noop_rig();
    let mut group = c.benchmark_group("recording");
    for n in [10usize, 100] {
        group.bench_with_input(BenchmarkId::new("record_calls", n), &n, |b, &n| {
            b.iter(|| {
                let batch = Batch::new(conn.clone(), AbortPolicy);
                let noop = BNoop::new(&batch, &reference);
                let futures: Vec<BatchFuture<()>> = (0..n).map(|_| noop.noop()).collect();
                std::hint::black_box(futures);
                // Never flushed: this measures pure invocation monitoring.
            });
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let request = BatchRequest {
        session: None,
        calls: (0..100)
            .map(|i| InvocationData {
                seq: CallSeq(i),
                target: Target::Remote(ObjectId(1)),
                method: "get_name".into(),
                args: vec![Arg::Value(Value::Str(format!("file{i}")))],
                cursor: None,
                opens_cursor: false,
            })
            .collect(),
        policy: PolicySpec::Abort,
        keep_session: false,
    };
    let bytes = request.to_wire_bytes();
    let mut group = c.benchmark_group("codec");
    // The production paths: every transport encodes into a reused scratch
    // buffer and the server decodes a borrowed view of the frame.
    group.bench_function("encode_100_call_batch", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            request.encode_into(&mut buf);
            std::hint::black_box(buf.len())
        });
    });
    group.bench_function("decode_100_call_batch", |b| {
        b.iter(|| std::hint::black_box(BatchRequestRef::from_wire_bytes(&bytes).unwrap()));
    });
    // Reference points: the allocating encode and the owned decode, which
    // the application boundary (client side) still uses.
    group.bench_function("encode_100_call_batch_alloc", |b| {
        b.iter(|| std::hint::black_box(request.to_wire_bytes()));
    });
    group.bench_function("decode_100_call_batch_owned", |b| {
        b.iter(|| std::hint::black_box(BatchRequest::from_wire_bytes(&bytes).unwrap()));
    });
    group.finish();
}

fn bench_table(c: &mut Criterion) {
    use brmi_rmi::ObjectTable;
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut group = c.benchmark_group("table");
    // N reader threads hammer lookups while one thread keeps exporting and
    // unexporting — the mixed read/write load a busy server sees. With the
    // old single-`RwLock` table the writer serialized every reader; the
    // 64-way sharded table keeps them on disjoint locks almost always.
    group.bench_function("contended_lookup", |b| {
        let table = Arc::new(ObjectTable::new());
        let ids: Vec<ObjectId> = (0..1024)
            .map(|_| table.export(NoopSkeleton::remote_arc(NoopServer::new())))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let mut contenders = Vec::new();
        for reader in 0..3 {
            let table = Arc::clone(&table);
            let ids = ids.clone();
            let stop = Arc::clone(&stop);
            contenders.push(std::thread::spawn(move || {
                let mut i = reader;
                while !stop.load(Ordering::Relaxed) {
                    i = (i + 7) % ids.len();
                    std::hint::black_box(table.get(ids[i]));
                }
            }));
        }
        {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            contenders.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let id = table.export(NoopSkeleton::remote_arc(NoopServer::new()));
                    std::hint::black_box(table.unexport(id));
                }
            }));
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % ids.len();
            std::hint::black_box(table.get(ids[i]))
        });
        stop.store(true, Ordering::Relaxed);
        for handle in contenders {
            handle.join().unwrap();
        }
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (server, conn, reference) = noop_rig();
    let stub = NoopStub::new(reference.clone());
    let mut group = c.benchmark_group("end_to_end_inproc");
    for n in [1usize, 10, 50] {
        group.bench_with_input(BenchmarkId::new("rmi_noops", n), &n, |b, &n| {
            b.iter(|| rmi_noops(&stub, n).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("brmi_noops", n), &n, |b, &n| {
            b.iter(|| brmi_noops(&conn, &reference, n).unwrap());
        });
    }
    // A second thread, on its own connection, batches against the same
    // receiver throughout: every cache line the dispatch path writes per
    // call or per batch ping-pongs between the two. `table/contended_lookup`
    // spreads its lookups over 1024 ids, so it cannot show this.
    for n in [1usize, 64] {
        group.bench_with_input(BenchmarkId::new("brmi_noops_2threads", n), &n, |b, &n| {
            let stop = Arc::new(AtomicBool::new(false));
            let peer = {
                let stop = Arc::clone(&stop);
                let conn = Connection::new(Arc::new(InProcTransport::new(server.clone())));
                let reference = conn.reference(reference.id());
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        brmi_noops(&conn, &reference, n).unwrap();
                    }
                })
            };
            b.iter(|| brmi_noops(&conn, &reference, n).unwrap());
            stop.store(true, Ordering::Relaxed);
            peer.join().unwrap();
        });
    }
    group.finish();
}

fn bench_traversal(c: &mut Criterion) {
    let server = RmiServer::new();
    brmi::BatchExecutor::install(&server);
    let values: Vec<i32> = (0..12).collect();
    let id = server
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
        )
        .unwrap();
    let conn = Connection::new(Arc::new(InProcTransport::new(server)));
    let reference = conn.reference(id);
    let stub = RemoteListStub::new(reference.clone());

    let mut group = c.benchmark_group("traversal_inproc");
    group.bench_function("rmi_10_hops", |b| {
        b.iter(|| rmi_nth_value(&stub, 10).unwrap());
    });
    group.bench_function("brmi_10_hops", |b| {
        b.iter(|| brmi_nth_value(&conn, &reference, 10).unwrap());
    });
    group.finish();
}

fn bench_cursor_listing(c: &mut Criterion) {
    let server = RmiServer::new();
    brmi::BatchExecutor::install(&server);
    let dir = InMemoryDirectory::new();
    dir.populate(50, 256);
    let id = server
        .bind("files", DirectorySkeleton::remote_arc(dir))
        .unwrap();
    let conn = Connection::new(Arc::new(InProcTransport::new(server)));
    let reference = conn.reference(id);

    c.bench_function("cursor_listing_50_files", |b| {
        b.iter(|| brmi_apps::fileserver::brmi_listing(&conn, &reference).unwrap());
    });
}

fn bench_implicit(c: &mut Criterion) {
    let (_server, conn, reference) = noop_rig();
    let mut group = c.benchmark_group("implicit_inproc");
    for n in [10usize, 50] {
        group.bench_with_input(BenchmarkId::new("implicit_noops", n), &n, |b, &n| {
            b.iter(|| brmi_apps::implicit_clients::implicit_noops(&conn, &reference, n).unwrap());
        });
        // The explicit equivalent, for the overhead comparison.
        group.bench_with_input(BenchmarkId::new("explicit_noops", n), &n, |b, &n| {
            b.iter(|| brmi_noops(&conn, &reference, n).unwrap());
        });
    }
    group.finish();
}

fn bench_dgc(c: &mut Criterion) {
    use brmi_rmi::{DgcConfig, DgcServer};
    use brmi_transport::clock::VirtualClock;
    use std::time::Duration;

    let mut group = c.benchmark_group("dgc");
    group.bench_function("grant_renew_clean_100", |b| {
        b.iter(|| {
            let clock = VirtualClock::new();
            let dgc = DgcServer::new(clock, DgcConfig::default());
            let ids: Vec<ObjectId> = (1..=100).map(ObjectId).collect();
            for id in &ids {
                // Exercised through the server in production; here the
                // table is driven directly to isolate its cost.
                dgc.dirty(std::slice::from_ref(id), Duration::from_secs(600));
            }
            dgc.dirty(&ids, Duration::from_secs(600));
            dgc.clean(&ids);
            std::hint::black_box(dgc.stats());
        });
    });
    group.bench_function("sweep_1000_leases", |b| {
        use brmi_transport::clock::Clock;
        b.iter_batched(
            || {
                let clock = VirtualClock::new();
                let server = RmiServer::new();
                server.enable_dgc(
                    clock.clone(),
                    DgcConfig {
                        max_lease: Duration::from_secs(1),
                    },
                );
                let id = server
                    .bind(
                        "list",
                        RemoteListSkeleton::remote_arc(ListNode::chain(&[1, 2])),
                    )
                    .unwrap();
                for _ in 0..1000 {
                    // Each RMI-style call marshals the next node out,
                    // granting one lease.
                    server.dispatch_call(id, "next", vec![]).unwrap();
                }
                clock.advance(Duration::from_secs(2));
                server
            },
            |server| std::hint::black_box(server.dgc_sweep()),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_recording,
    bench_codec,
    bench_table,
    bench_end_to_end,
    bench_traversal,
    bench_cursor_listing,
    bench_implicit,
    bench_dgc
);
criterion_main!(benches);
