//! Generated loopback-proxy behaviour (paper Section 4.4, RMI side): a
//! stub marshalled back to its own server becomes a proxy that re-enters
//! the middleware for every call, chains through remote returns, and walks
//! remote arrays as arrays of proxies.

mod common;

use std::sync::Arc;

use brmi::policy::AbortPolicy;
use common::{Rig, TestNode};

#[test]
fn loopback_proxy_chains_remote_returns() {
    // Server-side: other.next().value() where `other` is a proxy —
    // each hop is one loopback call (next, then value on the new proxy).
    let rig = Rig::chain(&[1, 2, 30]);
    let root = rig.rmi_root();
    let n1 = root.next().unwrap();
    let before = rig.server.loopback_calls();
    let value = root.next_value_of(&n1).unwrap();
    assert_eq!(value, 30);
    assert_eq!(
        rig.server.loopback_calls(),
        before + 2,
        "next() through the proxy, then value() through the derived proxy"
    );
}

#[test]
fn loopback_proxy_walks_remote_arrays() {
    let rig = Rig::with_children(&[5, 6, 7]);
    // Export a second node pointing at the same root to act as the arg.
    let root_as_arg = rig.rmi_root();
    let before = rig.server.loopback_calls();
    let sum = root_as_arg.sum_children_of(&root_as_arg.clone()).unwrap();
    assert_eq!(sum, 18);
    // children() via the proxy (1) + value() on three element proxies (3).
    assert_eq!(rig.server.loopback_calls(), before + 4);
}

#[test]
fn brmi_avoids_all_loopback_for_the_same_scenarios() {
    let rig = Rig::chain(&[1, 2, 30]);
    *rig.root.children.lock() = vec![TestNode::new("c0", 5), TestNode::new("c1", 6)];
    let (batch, root) = rig.batch(AbortPolicy);
    let n1 = root.next();
    let deep = root.next_value_of(&n1);
    let sum = root.sum_children_of(&root.clone());
    batch.flush().unwrap();
    assert_eq!(deep.get().unwrap(), 30);
    assert_eq!(sum.get().unwrap(), 11);
    assert_eq!(rig.server.loopback_calls(), 0);
}

#[test]
fn loopback_errors_propagate_to_the_rmi_caller() {
    // other.next() fails at the tail; the proxy surfaces the application
    // exception through the outer call.
    let rig = Rig::chain(&[1, 2]);
    let root = rig.rmi_root();
    let n1 = root.next().unwrap();
    let err = root.next_value_of(&n1).unwrap_err();
    common::assert_app_error(&err, "NoNextNode");
}

#[test]
fn loopback_proxy_value_args_round_trip() {
    // add(other) passes a value-returning call through the proxy; the
    // result must match BRMI's and direct execution.
    let rig = Rig::chain(&[40, 2]);
    let root = rig.rmi_root();
    let n1 = root.next().unwrap();
    assert_eq!(root.add(&n1).unwrap(), 42);

    let (batch, broot) = rig.batch(AbortPolicy);
    let bn1 = broot.next();
    let sum = broot.add(&bn1);
    batch.flush().unwrap();
    assert_eq!(sum.get().unwrap(), 42);
}

#[test]
fn server_is_freed_after_serving_calls_batches_and_loopback() {
    // The server lends its call context to every call and holds itself
    // only weakly inside it; a strong self-reference would keep it alive
    // forever once the last outside handle is dropped.
    let rig = Rig::chain(&[1, 2, 30]);
    let server = Arc::downgrade(&rig.server);

    let root = rig.rmi_root();
    assert_eq!(root.value().unwrap(), 1);
    let n1 = root.next().unwrap();
    assert_eq!(root.next_value_of(&n1).unwrap(), 30);
    assert_eq!(rig.server.loopback_calls(), 2);

    let (batch, broot) = rig.batch(AbortPolicy);
    let value = broot.value();
    let deep = broot.next_value_of(&broot.next());
    batch.flush().unwrap();
    assert_eq!(value.get().unwrap(), 1);
    assert_eq!(deep.get().unwrap(), 30);

    // Stubs and batches hold the connection, whose transport holds the
    // server: drop them all with the rig.
    drop((root, n1, batch, broot, value, deep));
    drop(rig);
    assert!(
        server.upgrade().is_none(),
        "the server must be freed once its last Arc is dropped"
    );
}
