//! The provider's TCP server: one blocking accept thread, one blocking
//! reader thread per live connection, a bounded frame queue, and a
//! fixed worker pool.
//!
//! JavaCAD providers serve the paper's "many simultaneous fee-paying
//! users" through one RMI server; [`MuxServer`] is that server:
//!
//! * the accept thread blocks in `accept` and refuses sockets beyond
//!   `max_connections` by closing them (clients see a retryable
//!   transport error). The cap counts *live* connections, so a slot
//!   frees as soon as its client disconnects;
//! * each live connection has one reader thread blocked in a frame
//!   read. A length prefix beyond the frame cap closes the connection.
//!   The first tenant-stamped frame registers the connection's session
//!   with the dispatcher's admission gate;
//! * complete frames enter a *bounded* queue. When the queue is full the
//!   reader sheds the frame right there with a typed, retryable
//!   [`RemoteErrorKind::Overloaded`](crate::RemoteErrorKind) response —
//!   backpressure costs one small write, never a blocked reader;
//! * `workers` threads drain the queue through the shared
//!   [`Dispatcher`] (which applies per-tenant admission when configured)
//!   and write responses back through per-connection write halves.
//!
//! The server runs accept + `workers` + live-connection threads, so
//! `max_connections` also caps its thread count. Dropping it shuts
//! every connection socket down and joins every thread.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use vcad_obs::Collector;

use crate::dispatch::Dispatcher;
use crate::error::{RemoteErrorKind, RmiError};
use crate::frame::{Frame, ResponseFrame};
use crate::resilience::{decode_tracked_call, encode_tracked_resp_ok, TAG_TRACKED_CALL};
use crate::transport::{read_frame, write_frame};

/// Tuning knobs for a [`MuxServer`].
#[derive(Clone, Debug)]
pub struct MuxServerConfig {
    /// Worker threads draining the frame queue.
    pub workers: usize,
    /// Bounded queue depth; frames arriving beyond it are shed with a
    /// retryable `Overloaded` response.
    pub queue_capacity: usize,
    /// Concurrent connection cap; sockets beyond it are closed at
    /// accept (clients see a retryable transport error).
    pub max_connections: usize,
}

impl Default for MuxServerConfig {
    fn default() -> MuxServerConfig {
        MuxServerConfig {
            workers: 4,
            queue_capacity: 256,
            max_connections: 1024,
        }
    }
}

/// One queued request: the raw frame plus the write half to answer on.
struct Job {
    bytes: Vec<u8>,
    write: Arc<Mutex<TcpStream>>,
}

/// Aggregate counters the load generator reads after a run.
#[derive(Clone, Debug, Default)]
pub struct MuxServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the cap.
    pub rejected_connections: u64,
    /// Frames shed because the queue was full.
    pub queue_shed: u64,
    /// Frames handed to the worker pool.
    pub enqueued: u64,
}

/// Live connections by id: a handle on the socket (to shut it down)
/// and the reader thread serving it (to join it).
type Conns = HashMap<u64, (TcpStream, JoinHandle<()>)>;

struct Shared {
    dispatcher: Arc<Dispatcher>,
    obs: Collector,
    shutdown: AtomicBool,
    queue_depth: AtomicUsize,
    stats: Mutex<MuxServerStats>,
    conns: Mutex<Conns>,
}

/// The multiplexing TCP server. Stops — closing every connection and
/// joining every thread — when dropped.
pub struct MuxServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl MuxServer {
    /// Binds to `addr` (port `0` for ephemeral) and starts the accept
    /// thread plus worker pool, all serving `dispatcher`.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] when binding fails.
    pub fn bind(
        addr: &str,
        dispatcher: Arc<Dispatcher>,
        config: MuxServerConfig,
    ) -> Result<MuxServer, RmiError> {
        MuxServer::bind_with_collector(addr, dispatcher, config, &Collector::disabled())
    }

    /// [`MuxServer::bind`], routing `server.*` metrics (connection and
    /// queue-depth gauges, accept/shed counters) into `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] when binding fails.
    pub fn bind_with_collector(
        addr: &str,
        dispatcher: Arc<Dispatcher>,
        config: MuxServerConfig,
        obs: &Collector,
    ) -> Result<MuxServer, RmiError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| RmiError::Transport(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| RmiError::Transport(format!("local_addr: {e}")))?;

        let shared = Arc::new(Shared {
            dispatcher,
            obs: obs.clone(),
            shutdown: AtomicBool::new(false),
            queue_depth: AtomicUsize::new(0),
            stats: Mutex::new(MuxServerStats::default()),
            conns: Mutex::new(HashMap::new()),
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("vcad-rmi-mux-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn mux worker"),
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("vcad-rmi-mux-accept".into())
            .spawn(move || accept_loop(&listener, &tx, &accept_shared, config.max_connections))
            .expect("spawn mux accept thread");

        Ok(MuxServer {
            addr: local,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address, including the actual ephemeral port.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters accumulated since bind.
    #[must_use]
    pub fn stats(&self) -> MuxServerStats {
        self.shared.stats.lock().unwrap().clone()
    }
}

impl Drop for MuxServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept thread with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Shut every live socket down — each reader's blocking read
        // returns at once — then join the readers.
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for (stream, _) in conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, reader) in conns.into_values() {
            let _ = reader.join();
        }
        // The accept thread and the readers held every queue sender;
        // workers drain what is left and exit on the closed channel.
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, shared: &Arc<Shared>) {
    loop {
        let job = {
            let rx = rx.lock().unwrap();
            rx.recv()
        };
        let Ok(job) = job else { break };
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let response = shared.dispatcher.handle_bytes(&job.bytes);
        let mut stream = job.write.lock().unwrap();
        let _ = write_frame(&mut stream, &response);
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<Job>,
    shared: &Arc<Shared>,
    max_connections: usize,
) {
    let metrics = shared.obs.metrics();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mut conns = shared.conns.lock().unwrap();
        if conns.len() >= max_connections {
            drop(conns);
            // Refuse by closing (when `stream` drops): the client
            // surfaces a retryable transport error.
            shared.stats.lock().unwrap().rejected_connections += 1;
            metrics.counter("server.conn_rejected").inc();
            continue;
        }
        // Responses are small frames written one at a time; without
        // nodelay, Nagle against the client's delayed ACK costs tens of
        // milliseconds per call.
        let _ = stream.set_nodelay(true);
        let (Ok(handle), Ok(write)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let (tx, reader_shared) = (tx.clone(), Arc::clone(shared));
        // Spawned under the `conns` lock, so the reader's own removal
        // on disconnect always finds its entry.
        let Ok(reader) = std::thread::Builder::new()
            .name(format!("vcad-rmi-mux-conn-{id}"))
            .spawn(move || serve_connection(id, stream, write, &tx, &reader_shared))
        else {
            continue;
        };
        conns.insert(id, (handle, reader));
        metrics.gauge("server.connections").set(conns.len() as u64);
        shared.stats.lock().unwrap().accepted += 1;
        metrics.counter("server.accepted").inc();
    }
    // Returning drops this thread's queue sender.
}

/// Reads frames off one connection until it closes, queueing each for
/// the worker pool (or shedding it when the queue is full), then
/// releases the connection's tenant session and its slot.
fn serve_connection(
    id: u64,
    mut stream: TcpStream,
    write: TcpStream,
    tx: &SyncSender<Job>,
    shared: &Arc<Shared>,
) {
    let write = Arc::new(Mutex::new(write));
    let metrics = shared.obs.metrics();
    // Set by the first tenant-stamped frame; see `open_session`.
    let mut session = None;
    while let Ok(bytes) = read_frame(&mut stream) {
        if session.is_none() {
            session = open_session(shared, &bytes);
        }
        let job = Job {
            bytes,
            write: Arc::clone(&write),
        };
        // Counted before the send: a worker may dequeue (and decrement)
        // the job before `try_send` even returns.
        let depth = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        match tx.try_send(job) {
            Ok(()) => {
                shared.stats.lock().unwrap().enqueued += 1;
                metrics.gauge("server.queue_depth").set(depth as u64);
            }
            Err(TrySendError::Full(job)) => {
                shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                shared.stats.lock().unwrap().queue_shed += 1;
                metrics.counter("server.queue_shed").inc();
                shed_job(&job);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    if let (Some(Some(tenant)), Some(admission)) = (session, shared.dispatcher.admission()) {
        admission.close_session(&tenant);
    }
    let mut conns = shared.conns.lock().unwrap();
    conns.remove(&id);
    metrics.gauge("server.connections").set(conns.len() as u64);
}

/// Registers the connection's tenant session on the first stamped frame
/// seen. Returns `None` while there is nothing to register (no admission
/// gate, or an unstamped frame); otherwise `Some` of the tenant whose
/// session is now open, or `Some(None)` when the session cap refused it.
/// A refused connection stays usable, only unregistered — per-call
/// admission still applies — and must not close a session it never held.
fn open_session(shared: &Shared, frame: &[u8]) -> Option<Option<String>> {
    let admission = shared.dispatcher.admission()?;
    let tenant = peek_tenant(frame)?;
    Some(admission.open_session(&tenant).then_some(tenant))
}

/// Decodes just far enough to find the tenant stamp, unwrapping a
/// tracked envelope first. Returns `None` for v1/v2 (tenant-free)
/// frames and undecodable bytes.
fn peek_tenant(frame: &[u8]) -> Option<String> {
    let unwrapped;
    let payload: &[u8] = if frame.first() == Some(&TAG_TRACKED_CALL) {
        unwrapped = decode_tracked_call(frame).ok()?.1;
        &unwrapped
    } else {
        frame
    };
    match Frame::decode(payload) {
        Ok(Frame::Call(call)) => call.tenant,
        _ => None,
    }
}

/// Answers a frame the queue had no room for: a typed, retryable
/// `Overloaded` response, tracked-wrapped when the request was tracked
/// (and deliberately not entered into the reply cache, so the retry is
/// re-admitted).
fn shed_job(job: &Job) {
    let unwrapped;
    let (tracked, payload): (bool, &[u8]) = if job.bytes.first() == Some(&TAG_TRACKED_CALL) {
        match decode_tracked_call(&job.bytes) {
            Ok((_, payload)) => {
                unwrapped = payload;
                (true, &unwrapped)
            }
            Err(_) => return, // corrupt: let the client's checksum retry handle it
        }
    } else {
        (false, &job.bytes[..])
    };
    let call_id = match Frame::decode(payload) {
        Ok(Frame::Call(call)) => call.call_id,
        _ => 0,
    };
    let response = Frame::Response(ResponseFrame {
        call_id,
        result: Err((
            RemoteErrorKind::Overloaded,
            "server queue full: retry after backoff".into(),
        )),
    })
    .encode();
    let response = if tracked {
        encode_tracked_resp_ok(&response)
    } else {
        response
    };
    let mut stream = job.write.lock().unwrap();
    let _ = write_frame(&mut stream, &response);
}
