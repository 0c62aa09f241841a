//! The I/O server's disk tier exercised over a real fabric: a client thread
//! speaking the SIP protocol against a server thread through forced
//! write-behind, shutdown flush, restart over the same directory, and
//! `DeleteArray`. (What each `Store`/`Fetch` does to the store is pinned by
//! the protocol table in `src/msg.rs`.)

use sia_blocks::{Block, Shape};
use sia_bytecode::{
    ArrayDecl, ArrayId, ArrayKind, ConstBindings, IndexDecl, IndexId, IndexKind, Program, PutMode,
    Value,
};
use sia_fabric::ReqId;
use sia_runtime::ioserver::IoServer;
use sia_runtime::{BlockKey, Layout, OpId, Payload, SegmentConfig, SipMsg, Topology};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn layout() -> Arc<Layout> {
    let program = Program {
        indices: vec![IndexDecl {
            name: "i".into(),
            kind: IndexKind::AoIndex,
            low: Value::Lit(1),
            high: Value::Lit(8),
        }],
        arrays: vec![ArrayDecl {
            name: "S".into(),
            kind: ArrayKind::Served,
            dims: vec![IndexId(0), IndexId(0)],
            sparse: false,
        }],
        ..Default::default()
    };
    Arc::new(
        Layout::new(
            Arc::new(program),
            &ConstBindings::new(),
            SegmentConfig {
                default: 4,
                ..Default::default()
            },
            Topology::new(1, 1),
        )
        .unwrap(),
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sia-ioproto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn full_protocol_over_fabric() {
    // Topology: rank 0 plays the worker/client, rank 1 is the I/O server.
    let (mut eps, _stats) = sia_fabric::build::<SipMsg>(2);
    let server_ep = eps.pop().unwrap();
    let client = eps.pop().unwrap();
    let dir = tmpdir("full");
    let l1 = layout();

    let server_dir = dir.clone();
    let server = std::thread::spawn(move || {
        let mut s = IoServer::new(l1, server_ep, server_dir, 2).unwrap();
        s.run().unwrap()
    });

    let io = sia_fabric::Rank(1);
    let blk = |v: f64| Block::filled(Shape::new(&[4, 4]), v);

    // Prepare 5 blocks (capacity 2 → forced write-behind), await acks.
    for i in 1..=5i64 {
        client
            .send(
                io,
                SipMsg::Store {
                    key: BlockKey::new(ArrayId(0), &[i, i]),
                    payload: Payload::Data(blk(i as f64).into()),
                    mode: PutMode::Replace,
                    op: OpId::NONE,
                    epoch: None,
                },
            )
            .unwrap();
    }
    let mut acks = 0;
    while acks < 5 {
        match client.recv_timeout(Duration::from_secs(5)).unwrap().msg {
            SipMsg::StoreAck { .. } => acks += 1,
            other => panic!("unexpected {other:?}"),
        }
    }

    // Accumulate into one of them.
    client
        .send(
            io,
            SipMsg::Store {
                key: BlockKey::new(ArrayId(0), &[3, 3]),
                payload: Payload::Data(blk(10.0).into()),
                mode: PutMode::Accumulate,
                op: OpId::NONE,
                epoch: None,
            },
        )
        .unwrap();
    assert!(matches!(
        client.recv_timeout(Duration::from_secs(5)).unwrap().msg,
        SipMsg::StoreAck { .. }
    ));

    // Request everything back (mix of cache and disk paths).
    for i in 1..=5i64 {
        client
            .send(
                io,
                SipMsg::Fetch {
                    key: BlockKey::new(ArrayId(0), &[i, i]),
                    req: ReqId::NONE,
                    epoch: 0,
                },
            )
            .unwrap();
        match client.recv_timeout(Duration::from_secs(5)).unwrap().msg {
            SipMsg::Block {
                key,
                payload: Payload::Data(data),
                ..
            } => {
                assert_eq!(key, BlockKey::new(ArrayId(0), &[i, i]));
                let want = if i == 3 { 13.0 } else { i as f64 };
                assert!(
                    data.data().iter().all(|&x| (x - want).abs() < 1e-12),
                    "block {i}: got {:?}, want {want}",
                    &data.data()[..2]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Shutdown flushes everything to disk.
    client.send(io, SipMsg::Shutdown).unwrap();
    let stats = server.join().unwrap();
    assert_eq!(stats.prepares, 6);
    assert!(
        stats.disk_writes >= 5,
        "all dirty blocks flushed: {stats:?}"
    );

    // The files are complete: a fresh server over the same directory serves
    // the accumulated value from disk alone.
    let (mut eps2, _s2) = sia_fabric::build::<SipMsg>(2);
    let server_ep2 = eps2.pop().unwrap();
    let client2 = eps2.pop().unwrap();
    let layout2 = layout();
    let dir2 = dir.clone();
    let server2 = std::thread::spawn(move || {
        let mut s = IoServer::new(layout2, server_ep2, dir2, 2).unwrap();
        s.run().unwrap()
    });
    client2
        .send(
            sia_fabric::Rank(1),
            SipMsg::Fetch {
                key: BlockKey::new(ArrayId(0), &[3, 3]),
                req: ReqId::NONE,
                epoch: 0,
            },
        )
        .unwrap();
    match client2.recv_timeout(Duration::from_secs(5)).unwrap().msg {
        SipMsg::Block {
            payload: Payload::Data(data),
            ..
        } => {
            assert!(data.data().iter().all(|&x| (x - 13.0).abs() < 1e-12));
        }
        other => panic!("unexpected {other:?}"),
    }
    client2.send(sia_fabric::Rank(1), SipMsg::Shutdown).unwrap();
    server2.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_array_over_fabric() {
    let (mut eps, _stats) = sia_fabric::build::<SipMsg>(2);
    let server_ep = eps.pop().unwrap();
    let client = eps.pop().unwrap();
    let dir = tmpdir("del");
    let l = layout();
    let server_dir = dir.clone();
    let server = std::thread::spawn(move || {
        let mut s = IoServer::new(l, server_ep, server_dir, 4).unwrap();
        s.run().unwrap()
    });
    let io = sia_fabric::Rank(1);
    client
        .send(
            io,
            SipMsg::Store {
                key: BlockKey::new(ArrayId(0), &[1, 1]),
                payload: Payload::Data(Block::filled(Shape::new(&[4, 4]), 7.0).into()),
                mode: PutMode::Replace,
                op: OpId::NONE,
                epoch: None,
            },
        )
        .unwrap();
    let _ = client.recv_timeout(Duration::from_secs(5)).unwrap();
    client
        .send(io, SipMsg::DeleteArray { array: ArrayId(0) })
        .unwrap();
    // After deletion the block reads back as zeros.
    client
        .send(
            io,
            SipMsg::Fetch {
                key: BlockKey::new(ArrayId(0), &[1, 1]),
                req: ReqId::NONE,
                epoch: 0,
            },
        )
        .unwrap();
    match client.recv_timeout(Duration::from_secs(5)).unwrap().msg {
        SipMsg::Block {
            payload: Payload::Data(data),
            ..
        } => {
            assert!(data.data().iter().all(|&x| x == 0.0));
        }
        other => panic!("unexpected {other:?}"),
    }
    client.send(io, SipMsg::Shutdown).unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
