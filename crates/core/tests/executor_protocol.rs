//! Protocol-level executor tests: hand-built `BatchRequest`s exercise the
//! server runtime's handling of malformed input that the typed client can
//! never produce — forward references, unknown calls, bogus cursor
//! elements, session misuse.

mod common;

use std::any::Any;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use brmi_rmi::{no_such_method, CallCtx, InArg, OutValue, RemoteObject, RmiServer};
use brmi_wire::invocation::{
    Arg, BatchRequest, CallSeq, InvocationData, PolicySpec, SessionId, SlotOutcome, Target,
};
use brmi_wire::{ObjectId, RemoteError, Value};
use common::Rig;

fn call(seq: u32, target: Target, method: &str, args: Vec<Arg>) -> InvocationData {
    InvocationData {
        seq: CallSeq(seq),
        target,
        method: method.into(),
        args,
        cursor: None,
        opens_cursor: false,
    }
}

fn send(rig: &Rig, calls: Vec<InvocationData>, policy: PolicySpec) -> Vec<(CallSeq, SlotOutcome)> {
    rig.conn
        .invoke_batch(BatchRequest {
            session: None,
            calls,
            policy,
            keep_session: false,
        })
        .expect("batch executes")
        .slots
}

fn root_target(rig: &Rig) -> Target {
    Target::Remote(rig.root_ref.id())
}

#[test]
fn forward_reference_is_a_protocol_fault() {
    let rig = Rig::chain(&[1]);
    // Call 0 targets the result of call 5, which never exists.
    let slots = send(
        &rig,
        vec![call(0, Target::Result(CallSeq(5)), "value", vec![])],
        PolicySpec::Continue,
    );
    match &slots[0].1 {
        SlotOutcome::Err(env) => {
            assert_eq!(env.kind, "protocol");
            assert!(env.message.contains("unknown call"));
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn reference_to_value_returning_call_is_rejected() {
    let rig = Rig::chain(&[1]);
    let slots = send(
        &rig,
        vec![
            call(0, root_target(&rig), "value", vec![]),
            call(1, Target::Result(CallSeq(0)), "value", vec![]),
        ],
        PolicySpec::Continue,
    );
    assert!(matches!(slots[0].1, SlotOutcome::Ok(Value::I32(1))));
    match &slots[1].1 {
        SlotOutcome::Err(env) => {
            assert!(env.message.contains("did not produce a remote object"));
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn unknown_cursor_element_is_rejected() {
    let rig = Rig::chain(&[1]);
    let slots = send(
        &rig,
        vec![call(
            0,
            Target::CursorElement(CallSeq(9), 3),
            "value",
            vec![],
        )],
        PolicySpec::Continue,
    );
    match &slots[0].1 {
        SlotOutcome::Err(env) => {
            assert!(env.message.contains("unknown cursor element"));
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn unknown_target_object_is_no_such_object() {
    let rig = Rig::chain(&[1]);
    let slots = send(
        &rig,
        vec![call(0, Target::Remote(ObjectId(4040)), "value", vec![])],
        PolicySpec::Continue,
    );
    match &slots[0].1 {
        SlotOutcome::Err(env) => assert_eq!(env.kind, "no-such-object"),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn unknown_remote_ref_argument_is_no_such_object() {
    let rig = Rig::chain(&[1]);
    let slots = send(
        &rig,
        vec![call(
            0,
            root_target(&rig),
            "add",
            vec![Arg::Value(Value::RemoteRef(ObjectId(4040)))],
        )],
        PolicySpec::Continue,
    );
    match &slots[0].1 {
        SlotOutcome::Err(env) => assert_eq!(env.kind, "no-such-object"),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn unknown_method_is_reported_per_call() {
    let rig = Rig::chain(&[1]);
    let slots = send(
        &rig,
        vec![
            call(0, root_target(&rig), "no_such", vec![]),
            call(1, root_target(&rig), "value", vec![]),
        ],
        PolicySpec::Continue,
    );
    match &slots[0].1 {
        SlotOutcome::Err(env) => assert_eq!(env.kind, "no-such-method"),
        other => panic!("expected error, got {other:?}"),
    }
    assert!(matches!(slots[1].1, SlotOutcome::Ok(Value::I32(1))));
}

#[test]
fn arity_mismatch_is_bad_arguments() {
    let rig = Rig::chain(&[1]);
    let slots = send(
        &rig,
        vec![call(
            0,
            root_target(&rig),
            "value",
            vec![Arg::Value(Value::I32(3))],
        )],
        PolicySpec::Continue,
    );
    match &slots[0].1 {
        SlotOutcome::Err(env) => assert_eq!(env.kind, "bad-arguments"),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn type_mismatch_is_bad_arguments() {
    let rig = Rig::chain(&[1]);
    let slots = send(
        &rig,
        vec![call(
            0,
            root_target(&rig),
            "set_value",
            vec![Arg::Value(Value::Str("not an int".into()))],
        )],
        PolicySpec::Continue,
    );
    match &slots[0].1 {
        SlotOutcome::Err(env) => assert_eq!(env.kind, "bad-arguments"),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn remote_arg_of_wrong_interface_is_bad_arguments() {
    // Export a second object of a different interface and pass it where a
    // Node is expected.
    use brmi::remote_interface;

    remote_interface! {
        pub interface Other {
            fn poke() -> i32;
        }
    }
    struct OtherImpl;
    impl Other for OtherImpl {
        fn poke(&self) -> Result<i32, brmi_wire::RemoteError> {
            Ok(1)
        }
    }
    let rig = Rig::chain(&[1]);
    let other_id = rig
        .server
        .export(OtherSkeleton::remote_arc(Arc::new(OtherImpl)));
    let slots = send(
        &rig,
        vec![
            call(0, Target::Remote(other_id), "poke", vec![]),
            // add expects a Node; hand it the Other result.
            call(
                1,
                root_target(&rig),
                "add",
                vec![Arg::Value(Value::RemoteRef(other_id))],
            ),
        ],
        PolicySpec::Continue,
    );
    assert!(matches!(slots[0].1, SlotOutcome::Ok(Value::I32(1))));
    match &slots[1].1 {
        SlotOutcome::Err(env) => {
            assert_eq!(env.kind, "bad-arguments");
            assert!(env.message.contains("expected a remote Node"));
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn empty_batch_returns_empty_response() {
    let rig = Rig::chain(&[1]);
    let response = rig
        .conn
        .invoke_batch(BatchRequest {
            session: None,
            calls: vec![],
            policy: PolicySpec::Abort,
            keep_session: false,
        })
        .unwrap();
    assert!(response.slots.is_empty());
    assert!(response.cursors.is_empty());
    assert_eq!(response.session, None);
}

#[test]
fn empty_keep_session_batch_creates_a_session() {
    let rig = Rig::chain(&[1]);
    let response = rig
        .conn
        .invoke_batch(BatchRequest {
            session: None,
            calls: vec![],
            policy: PolicySpec::Abort,
            keep_session: true,
        })
        .unwrap();
    let session = response.session.expect("session created");
    assert_eq!(rig.executor.session_count(), 1);
    rig.conn.release_session(session).unwrap();
    assert_eq!(rig.executor.session_count(), 0);
}

#[test]
fn session_ids_are_stable_across_a_chain() {
    let rig = Rig::chain(&[1]);
    let first = rig
        .conn
        .invoke_batch(BatchRequest {
            session: None,
            calls: vec![call(0, root_target(&rig), "value", vec![])],
            policy: PolicySpec::Abort,
            keep_session: true,
        })
        .unwrap();
    let session = first.session.unwrap();
    let second = rig
        .conn
        .invoke_batch(BatchRequest {
            session: Some(session),
            calls: vec![call(1, root_target(&rig), "value", vec![])],
            policy: PolicySpec::Abort,
            keep_session: true,
        })
        .unwrap();
    assert_eq!(second.session, Some(session), "chain keeps its id");
    rig.conn.release_session(session).unwrap();
}

#[test]
fn releasing_unknown_session_is_harmless() {
    let rig = Rig::chain(&[1]);
    rig.conn.release_session(SessionId(777)).unwrap();
    assert_eq!(rig.executor.session_count(), 0);
}

#[test]
fn slots_preserve_request_order() {
    let rig = Rig::chain(&[5]);
    let slots = send(
        &rig,
        vec![
            call(10, root_target(&rig), "value", vec![]),
            call(3, root_target(&rig), "name", vec![]),
            call(7, root_target(&rig), "value", vec![]),
        ],
        PolicySpec::Abort,
    );
    let seqs: Vec<u32> = slots.iter().map(|(seq, _)| seq.0).collect();
    assert_eq!(seqs, vec![10, 3, 7], "response order mirrors request order");
}

/// A receiver that mutates its server's export table mid-batch, through a
/// weak handle so it never keeps the server alive: `unexport_self` removes
/// its own export, `export_many` exports 64 fresh objects (so at least one
/// lands in every table shard), `ping` counts.
struct TableMutator {
    server: Weak<RmiServer>,
    id: OnceLock<ObjectId>,
    pings: AtomicI32,
}

impl TableMutator {
    fn export(server: &Arc<RmiServer>) -> ObjectId {
        let mutator = Arc::new(TableMutator {
            server: Arc::downgrade(server),
            id: OnceLock::new(),
            pings: AtomicI32::new(0),
        });
        let id = server.export(mutator.clone());
        mutator.id.set(id).expect("exported once");
        id
    }
}

impl RemoteObject for TableMutator {
    fn interface_name(&self) -> &'static str {
        "TableMutator"
    }

    fn invoke(
        &self,
        method: &str,
        _args: Vec<InArg>,
        _ctx: &CallCtx,
    ) -> Result<OutValue, RemoteError> {
        let server = self.server.upgrade().expect("server alive during a call");
        let value = match method {
            "ping" => Value::I32(self.pings.fetch_add(1, Ordering::Relaxed) + 1),
            "unexport_self" => {
                Value::Bool(server.table().unexport(self.id.get().copied().unwrap()))
            }
            "export_many" => {
                for _ in 0..64 {
                    TableMutator::export(&server);
                }
                Value::Null
            }
            other => return Err(no_such_method("TableMutator", other)),
        };
        Ok(OutValue::Data(value))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn call_after_receiver_unexports_itself_is_no_such_object() {
    let rig = Rig::chain(&[1]);
    let a = Target::Remote(TableMutator::export(&rig.server));
    let slots = send(
        &rig,
        vec![
            call(0, a, "ping", vec![]),
            call(1, a, "unexport_self", vec![]),
            call(2, a, "ping", vec![]),
        ],
        PolicySpec::Continue,
    );
    assert!(matches!(slots[0].1, SlotOutcome::Ok(Value::I32(1))));
    assert!(matches!(slots[1].1, SlotOutcome::Ok(Value::Bool(true))));
    match &slots[2].1 {
        SlotOutcome::Err(env) => assert_eq!(env.kind, "no-such-object"),
        other => panic!("a call on an unexported receiver must fail, got {other:?}"),
    }
}

#[test]
fn alternating_receivers_each_get_their_own_calls() {
    let rig = Rig::chain(&[1]);
    let b = Target::Remote(TableMutator::export(&rig.server));
    let slots = send(
        &rig,
        vec![
            call(0, root_target(&rig), "value", vec![]),
            call(1, b, "ping", vec![]),
            call(2, root_target(&rig), "name", vec![]),
            call(3, b, "ping", vec![]),
            call(4, root_target(&rig), "value", vec![]),
        ],
        PolicySpec::Continue,
    );
    assert!(matches!(slots[0].1, SlotOutcome::Ok(Value::I32(1))));
    assert!(matches!(slots[1].1, SlotOutcome::Ok(Value::I32(1))));
    assert!(matches!(&slots[2].1, SlotOutcome::Ok(Value::Str(name)) if name == "n0"));
    assert!(matches!(slots[3].1, SlotOutcome::Ok(Value::I32(2))));
    assert!(matches!(slots[4].1, SlotOutcome::Ok(Value::I32(1))));
}

#[test]
fn exports_midway_keep_the_receiver_reachable() {
    let rig = Rig::chain(&[1]);
    let a = Target::Remote(TableMutator::export(&rig.server));
    let before = rig.server.table().len();
    let slots = send(
        &rig,
        vec![
            call(0, a, "ping", vec![]),
            call(1, a, "export_many", vec![]),
            call(2, a, "ping", vec![]),
            call(3, root_target(&rig), "value", vec![]),
            call(4, a, "ping", vec![]),
        ],
        PolicySpec::Continue,
    );
    assert_eq!(rig.server.table().len(), before + 64);
    assert!(matches!(slots[0].1, SlotOutcome::Ok(Value::I32(1))));
    assert!(matches!(slots[1].1, SlotOutcome::Ok(Value::Null)));
    assert!(matches!(slots[2].1, SlotOutcome::Ok(Value::I32(2))));
    assert!(matches!(slots[3].1, SlotOutcome::Ok(Value::I32(1))));
    assert!(matches!(slots[4].1, SlotOutcome::Ok(Value::I32(3))));
}
