//! `MuxServer` behaviour at its limits: the live-connection cap, hostile
//! frame lengths, per-connection tenant sessions under a session cap,
//! and provider panics.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_obs::Collector;
use vcad_rmi::{
    AdmissionControl, Client, Dispatcher, MuxServer, MuxServerConfig, ObjectRegistry,
    RemoteErrorKind, RemoteObject, RmiError, ServerCtx, TcpTimeouts, TcpTransport, TenantQuota,
    Value,
};

/// Far above any loopback latency, far below a CI job timeout.
const BUDGET: Duration = Duration::from_secs(5);

struct Ping;
impl RemoteObject for Ping {
    fn invoke(&self, method: &str, args: &[Value], _ctx: &ServerCtx) -> Result<Value, RmiError> {
        match method {
            "ping" => Ok(args.first().cloned().unwrap_or(Value::Null)),
            "boom" => panic!("provider bug"),
            _ => Err(RmiError::unknown_method("Ping", method)),
        }
    }
}

fn registry() -> Arc<ObjectRegistry> {
    let reg = Arc::new(ObjectRegistry::new());
    reg.register_root(Arc::new(Ping));
    reg
}

fn client(addr: SocketAddr) -> Client {
    Client::new(Arc::new(
        TcpTransport::connect_with_timeouts(addr, TcpTimeouts::all(BUDGET)).expect("connect"),
    ))
}

fn ping(client: &Client, n: i64) -> Result<Value, RmiError> {
    client.root().invoke("ping", vec![Value::I64(n)])
}

/// Polls `done` until it holds, failing the test after [`BUDGET`].
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < BUDGET, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn live_connections(obs: &Collector) -> Option<u64> {
    obs.metrics()
        .snapshot()
        .gauges
        .get("server.connections")
        .map(|g| g.value)
}

#[test]
fn connection_cap_counts_live_connections() {
    let server = MuxServer::bind(
        "127.0.0.1:0",
        Arc::new(Dispatcher::new(registry())),
        MuxServerConfig {
            workers: 2,
            queue_capacity: 16,
            max_connections: 2,
        },
    )
    .expect("bind");
    let a = client(server.addr());
    let b = client(server.addr());
    assert_eq!(ping(&a, 1).unwrap(), Value::I64(1));
    assert_eq!(ping(&b, 2).unwrap(), Value::I64(2));

    // A third concurrent connection is closed at accept.
    let c = client(server.addr());
    let err = ping(&c, 3).unwrap_err();
    assert!(matches!(err, RmiError::Transport(_)), "{err}");
    assert!(err.is_retryable());
    let stats = server.stats();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.rejected_connections, 1);

    // Once a client leaves, its slot is free again: the cap counts live
    // connections, not accepts.
    drop(a);
    let started = Instant::now();
    let d = loop {
        let d = client(server.addr());
        if ping(&d, 4).is_ok() {
            break d;
        }
        assert!(started.elapsed() < BUDGET, "freed slot never reused");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(ping(&d, 5).unwrap(), Value::I64(5));
    assert_eq!(ping(&b, 6).unwrap(), Value::I64(6));
    assert_eq!(server.stats().accepted, 3);
}

#[test]
fn oversized_frame_length_closes_only_that_connection() {
    let server = MuxServer::bind(
        "127.0.0.1:0",
        Arc::new(Dispatcher::new(registry())),
        MuxServerConfig::default(),
    )
    .expect("bind");

    // A 4-byte header asking for 4 GiB: the server must refuse it
    // without allocating, and close the connection.
    let mut hostile = TcpStream::connect(server.addr()).expect("connect");
    hostile.write_all(&u32::MAX.to_le_bytes()).unwrap();
    hostile.set_read_timeout(Some(BUDGET)).unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 16];
    match hostile.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("{n} unexpected bytes in reply to a hostile header"),
        Err(e) => assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "hostile connection still open after {:?}: {e}",
            started.elapsed()
        ),
    }

    // Everyone else is still served.
    let good = client(server.addr());
    assert_eq!(ping(&good, 7).unwrap(), Value::I64(7));
}

#[test]
fn refused_session_does_not_free_a_slot_it_never_held() {
    let admission = Arc::new(AdmissionControl::new());
    admission.set_quota("acme", TenantQuota::unlimited().with_max_sessions(1));
    let dispatcher = Dispatcher::new(registry()).with_admission(Arc::clone(&admission));
    let obs = Collector::enabled();
    let server = MuxServer::bind_with_collector(
        "127.0.0.1:0",
        Arc::new(dispatcher),
        MuxServerConfig::default(),
        &obs,
    )
    .expect("bind");

    let a = client(server.addr()).with_tenant("acme");
    ping(&a, 1).unwrap();
    assert_eq!(admission.tenant_stats("acme").sessions, 1);

    // B is over the session cap: it is refused a session but still
    // served, since per-call admission admits it.
    let b = client(server.addr()).with_tenant("acme");
    ping(&b, 2).unwrap();
    assert_eq!(admission.tenant_stats("acme").sessions, 1);

    // B leaves. The server releases B's connection — but not A's
    // session, which is still live.
    drop(b);
    wait_for("B's connection to close", || {
        live_connections(&obs) == Some(1)
    });
    assert_eq!(admission.tenant_stats("acme").sessions, 1);

    drop(a);
    wait_for("A's connection to close", || {
        live_connections(&obs) == Some(0)
    });
    assert_eq!(admission.tenant_stats("acme").sessions, 0);
}

#[test]
fn provider_panic_is_a_typed_error_and_the_worker_survives() {
    let obs = Collector::enabled();
    let server = MuxServer::bind(
        "127.0.0.1:0",
        Arc::new(Dispatcher::new(registry()).with_collector(obs.clone())),
        MuxServerConfig {
            workers: 1,
            queue_capacity: 16,
            max_connections: 4,
        },
    )
    .expect("bind");
    let c = client(server.addr());

    let err = c.root().invoke("boom", vec![]).unwrap_err();
    assert!(
        matches!(
            err,
            RmiError::Remote {
                kind: RemoteErrorKind::Internal,
                ..
            }
        ),
        "{err}"
    );
    // The only worker is still alive to serve the next call.
    assert_eq!(ping(&c, 8).unwrap(), Value::I64(8));
    assert_eq!(obs.metrics().snapshot().counter("rmi.dispatch.panics"), 1);
}
