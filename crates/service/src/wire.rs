//! The wire protocol: line-delimited JSON over TCP or Unix-domain sockets,
//! served by [`WireServer`] and spoken by [`WireClient`].
//!
//! Framing is one JSON object per `\n`-terminated line, both directions,
//! and every frame — server or client, TCP or Unix — leaves in **one
//! `write`**, its newline already appended; TCP sockets get `TCP_NODELAY` on
//! both ends. (A reply written as line-then-newline is two segments, and
//! Nagle's algorithm holds the second until the peer ACKs the first: a
//! delayed ACK, ≈ 40 ms on Linux, on every reply.) A request frame:
//!
//! ```json
//! {"id": 7, "kind": "boolean", "query": {"name": "q1", "prefer": [...]},
//!  "class": "batch", "database": "polls", "deadline_ms": 250}
//! ```
//!
//! and its response, `ok` or `err`:
//!
//! ```json
//! {"id": 7, "ok": {"kind": "boolean", "value": 0.21568627450980393}}
//! {"id": 7, "err": {"kind": "overloaded", "depth": 64}}
//! ```
//!
//! `id` is chosen by the client and echoed verbatim; responses may arrive
//! **out of submission order** because the service streams each answer as
//! soon as its work units finish. [`WireClient`] reorders by id.
//!
//! Databases are live over the wire too. An update frame:
//!
//! ```json
//! {"id": 9, "kind": "update", "op": "insert", "prelation": "Polls",
//!  "session": {"attrs": ["v9"], "ranking": [2, 0, 1], "phi": 0.3}}
//! ```
//!
//! is admitted like a query (same class lanes and deadlines) but applied
//! between waves; its response is an `{"kind": "updated", ...}` receipt.
//! Response frames carry a top-level `"version"` — the database version the
//! answer was computed against — whenever the request reached a versioned
//! snapshot, and a top-level `"trace"` — the submission's trace id, the
//! handle for the `trace` control verb.
//!
//! Three control verbs are answered synchronously, outside the admission
//! path: `{"kind": "stats"}` (the [`ServiceStats`] snapshot plus per-tenant
//! cache counters), `{"kind": "metrics"}` (the Prometheus-style text
//! exposition of every registered instrument), and
//! `{"kind": "trace", "trace": t}` (one submission's span timeline).
//!
//! **Bit-exactness over the wire.** Probabilities are serialized with
//! Rust's shortest-round-trip float formatting and parsed back with
//! `str::parse::<f64>()`, so every `f64` crosses the socket bit-identically
//! — the `service_determinism` test compares wire answers to direct engine
//! calls with `to_bits()`. Everything here is `std::net` + `std::thread`;
//! no async runtime.

use crate::request::{
    AdmissionClass, Answer, Delivery, Outcome, Request, ServiceError, SubmitOptions,
};
use crate::service::{Service, Work};
use crate::stats::ServiceStats;
use ppd_core::{
    CacheStats, CompareOp, Comparison, ConjunctiveQuery, ErrorBudget, MallowsModel, PpdError,
    PreferenceAtom, Ranking, RelationAtom, Session, SessionScore, Term, TopKStrategy, Update,
    Value as PpdValue,
};
use ppd_obs::{SpanEvent, SpanRecord};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked connection read waits before re-checking the server's
/// stop flag (bounds shutdown latency; invisible to clients).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a reply may sit in `write` making no progress before the server
/// gives the connection up. Replies are written on the dispatcher thread, so
/// a peer that stops reading would otherwise stall every tenant's next wave
/// once its socket buffer fills; a live reader frees buffer space
/// continuously and never comes near this.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The longest inbound frame, newline included. A real request or update
/// frame is a few kilobytes at most; a longer line is answered with a
/// protocol error (id 0) and its connection closed, so a peer cannot make
/// the server buffer without bound.
const MAX_FRAME_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Stream + listener abstraction (TCP and Unix sockets share one code path)
// ---------------------------------------------------------------------------

trait WireStream: Read + Write + Send + Sized + 'static {
    /// A second handle to the same socket (reader and writer sides live on
    /// different threads).
    fn duplicate(&self) -> io::Result<Self>;
    /// Puts an accepted socket into the mode `serve_connection` wants:
    /// blocking (it may inherit the listener's nonblocking flag on some
    /// platforms), reads that return every [`POLL_INTERVAL`], writes that
    /// give up after [`WRITE_TIMEOUT`], and — over TCP — `TCP_NODELAY`.
    fn configure_accepted(&self) -> io::Result<()>;
    /// Closes both directions; the connection's blocked read returns EOF.
    fn close(&self);
}

/// TCP and Unix sockets differ in `TCP_NODELAY` alone.
macro_rules! wire_stream {
    ($(#[$cfg:meta])* $ty:ty $(, $nodelay:ident)?) => {
        $(#[$cfg])*
        impl WireStream for $ty {
            fn duplicate(&self) -> io::Result<Self> {
                self.try_clone()
            }
            fn configure_accepted(&self) -> io::Result<()> {
                self.set_nonblocking(false)?;
                self.set_read_timeout(Some(POLL_INTERVAL))?;
                self.set_write_timeout(Some(WRITE_TIMEOUT))?;
                $(self.$nodelay(true)?;)?
                Ok(())
            }
            fn close(&self) {
                let _ = self.shutdown(Shutdown::Both);
            }
        }
    };
}

wire_stream!(TcpStream, set_nodelay);
wire_stream!(
    #[cfg(unix)]
    UnixStream
);

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A socket front end over a [`Service`]: accepts connections on a
/// dedicated thread, reads request frames line by line, submits them
/// through the service's normal admission path (routing, class lanes,
/// deadlines — everything in-process clients get), and writes each response
/// frame the moment the service delivers it.
///
/// Dropping the server (or calling [`WireServer::shutdown`]) stops
/// accepting, disconnects the connection threads, and cancels any requests
/// still in flight on their behalf — the same claim-release a dropped
/// in-process [`Ticket`](crate::Ticket) performs. The underlying service is
/// shared via `Arc` and survives the server.
pub struct WireServer {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl WireServer {
    /// Binds a TCP listener (use port 0 to let the OS pick; see
    /// [`WireServer::local_addr`]) and starts serving `service` over it.
    pub fn bind_tcp(addr: impl ToSocketAddrs, service: Arc<Service>) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let tcp_addr = Some(listener.local_addr()?);
        listener.set_nonblocking(true)?;
        let mut server = WireServer::start(move || listener.accept().map(|(s, _)| s), service);
        server.tcp_addr = tcp_addr;
        Ok(server)
    }

    /// Binds a Unix-domain socket at `path` (unlinked again on shutdown)
    /// and starts serving `service` over it.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>, service: Arc<Service>) -> io::Result<WireServer> {
        let path = path.into();
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let mut server = WireServer::start(move || listener.accept().map(|(s, _)| s), service);
        server.unix_path = Some(path);
        Ok(server)
    }

    /// The TCP address actually bound, for clients of a port-0 listener.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Starts the accept loop over `accept`, a nonblocking listener's accept:
    /// it returns `WouldBlock` instead of parking the thread forever, which
    /// is what keeps the loop joinable.
    fn start<S: WireStream>(
        accept: impl FnMut() -> io::Result<S> + Send + 'static,
        service: Arc<Service>,
    ) -> WireServer {
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("ppd-wire-accept".into())
                .spawn(move || accept_loop(accept, service, stop, connections))
                .expect("spawn wire accept thread")
        };
        WireServer {
            stop,
            accept: Some(accept),
            connections,
            tcp_addr: None,
            unix_path: None,
        }
    }

    /// Stops accepting, joins every connection thread (each notices the
    /// stop flag within one poll interval), and unlinks a Unix socket path.
    /// Requests still in flight are cancelled, not waited for.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop: it polls with nonblocking accepts, so
        // joining it needs no connect-to-self nudge.
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(&mut *self.connections.lock().expect("wire server poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<S: WireStream>(
    mut accept: impl FnMut() -> io::Result<S>,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // Nonblocking accept + sleep keeps shutdown bounded without signals.
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match accept() {
            Ok(stream) => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let handle = std::thread::Builder::new()
                    .name("ppd-wire-conn".into())
                    .spawn(move || serve_connection(stream, &service, &stop))
                    .expect("spawn wire connection thread");
                connections
                    .lock()
                    .expect("wire server poisoned")
                    .push(handle);
            }
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                std::thread::sleep(POLL_INTERVAL)
            }
            Err(_) => return,
        }
    }
}

/// One connection: read frames until EOF or server shutdown, submit each
/// through the service, and let the per-request callbacks write responses
/// through the shared (mutexed) writer — no thread per request.
fn serve_connection<S: WireStream>(stream: S, service: &Arc<Service>, stop: &AtomicBool) {
    if stream.configure_accepted().is_err() {
        return;
    }
    let Ok(write_half) = stream.duplicate() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    // Requests this connection has in flight, so a disconnect releases
    // their claim (like dropping a ticket). Callbacks prune their own entry
    // after writing; the (benign) race where a callback fires before its
    // token is inserted just leaves a spent token behind until disconnect.
    let in_flight: InFlight = Arc::new(Mutex::new(HashMap::new()));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // Never more than one byte past the cap is kept.
        let room = (MAX_FRAME_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF: client hung up.
            Ok(_) if line.ends_with(b"\n") => {
                let Ok(frame) = String::from_utf8(std::mem::take(&mut line)) else {
                    break;
                };
                if !frame.trim().is_empty() {
                    handle_frame(&frame, service, &writer, &in_flight);
                }
            }
            Ok(_) if line.len() > MAX_FRAME_BYTES => {
                let message = format!("frame exceeds {MAX_FRAME_BYTES} bytes");
                write_line(&writer, protocol_error_frame(None, message));
                writer.lock().expect("wire writer poisoned").close();
                break;
            }
            // Timed out mid-line (a read timeout surfaces as WouldBlock on
            // Unix, TimedOut elsewhere): the partial read stays in `line`.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(_) => break,
        }
    }
    for (_, token) in in_flight.lock().expect("wire connection poisoned").drain() {
        token.cancel();
    }
}

/// Requests a connection has in flight, by frame id.
type InFlight = Arc<Mutex<HashMap<u64, crate::deadline::CancelToken>>>;

fn handle_frame<S: WireStream>(
    frame: &str,
    service: &Arc<Service>,
    writer: &Arc<Mutex<S>>,
    in_flight: &InFlight,
) {
    match decode_frame(frame) {
        // The three control verbs are answered synchronously from the
        // service's own state, outside the admission path.
        Inbound::Control(id, control) => {
            write_line(writer, encode_reply(id, &control_payload(control, service)))
        }
        Inbound::Submit(decoded) => submit_frame(decoded, service, writer, in_flight),
    }
}

/// Answers a control verb from the service's own state.
fn control_payload(control: Control, service: &Service) -> Payload {
    match control {
        Control::Stats => Payload::Stats {
            service: service.stats(),
            tenants: (service.database_ids().iter())
                .map(|id| Tenant {
                    database: id.to_string(),
                    version: (service.database_version(id)).expect("listed database resolves"),
                    cache: (service.engine_for(id))
                        .expect("listed database resolves")
                        .cache_stats(),
                })
                .collect(),
        },
        Control::Metrics => Payload::Metrics(service.metrics_text()),
        Control::Trace { trace } => Payload::Trace {
            trace,
            events: service.trace_events(trace),
        },
    }
}

/// Submits one decoded query or update frame; the reply callback writes the
/// response frame when the service delivers. A frame that failed to decode,
/// or was refused at admission, is answered here.
fn submit_frame<S: WireStream>(
    decoded: DecodedFrame<Work>,
    service: &Arc<Service>,
    writer: &Arc<Mutex<S>>,
    in_flight: &InFlight,
) {
    let (id, work, options) = match decoded {
        Ok(decoded) => decoded,
        Err((id, message)) => return write_line(writer, protocol_error_frame(id, message)),
    };
    let reply_writer = Arc::clone(writer);
    let reply_in_flight = Arc::clone(in_flight);
    let reply = Box::new(move |outcome: Outcome| {
        write_line(
            &reply_writer,
            encode_response(id, &outcome.delivery, outcome.version, outcome.trace),
        );
        reply_in_flight
            .lock()
            .expect("wire connection poisoned")
            .remove(&id);
    });
    match service.submit_callback(work, options, reply) {
        Ok((token, _trace)) => {
            in_flight
                .lock()
                .expect("wire connection poisoned")
                .insert(id, token);
        }
        Err(e) => write_line(writer, encode_response(id, &Err(e), 0, 0)),
    }
}

/// The response to a frame that could not be decoded; id 0 when not even the
/// id could be read.
fn protocol_error_frame(id: Option<u64>, message: String) -> String {
    let err = Err(ServiceError::Protocol(message));
    encode_response(id.unwrap_or(0), &err, 0, 0)
}

/// Sends one frame as a single `write`, newline included (the framing rule
/// of the module docs).
fn write_frame(writer: &mut impl Write, mut frame: String) -> io::Result<()> {
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// Writes one response line. A failed write — the client left, or stopped
/// reading for [`WRITE_TIMEOUT`] — may have left half a frame on the socket,
/// so the connection is closed: its read loop sees EOF and cancels whatever
/// it still has in flight.
fn write_line<S: WireStream>(writer: &Arc<Mutex<S>>, line: String) {
    let mut guard = writer.lock().expect("wire writer poisoned");
    if write_frame(&mut *guard, line).is_err() {
        guard.close();
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client for the wire protocol.
///
/// [`WireClient::call`] is the simple path: send one request, block for its
/// answer. [`WireClient::send`] / [`WireClient::recv`] split the two halves
/// so many requests can be pipelined on one connection; `recv` reorders
/// out-of-order responses by id. The client is single-threaded by design —
/// open one connection per client thread.
pub struct WireClient {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
    pending: HashMap<u64, (Delivery, Stamp)>,
}

impl WireClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        Ok(WireClient::from_halves(read_half, stream))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> io::Result<WireClient> {
        let stream = UnixStream::connect(path)?;
        let read_half = stream.try_clone()?;
        Ok(WireClient::from_halves(read_half, stream))
    }

    fn from_halves(
        read: impl Read + Send + 'static,
        write: impl Write + Send + 'static,
    ) -> WireClient {
        WireClient {
            reader: BufReader::new(Box::new(read)),
            writer: Box::new(write),
            next_id: 1,
            pending: HashMap::new(),
        }
    }

    /// Sends the frame `encode` builds for the next id; returns that id.
    fn send_frame(&mut self, encode: impl FnOnce(u64) -> String) -> Result<u64, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, encode(id))
            .map_err(|e| ServiceError::Protocol(format!("send failed: {e}")))?;
        Ok(id)
    }

    /// Sends one request frame without waiting; returns the frame id to
    /// pass to [`WireClient::recv`].
    pub fn send(
        &mut self,
        request: &Request,
        options: &SubmitOptions,
    ) -> Result<u64, ServiceError> {
        self.send_frame(|id| encode_request(id, request, options))
    }

    /// Blocks until the response for `id` arrives (stashing any other
    /// pipelined responses that land first) and returns it.
    pub fn recv(&mut self, id: u64) -> Result<Answer, ServiceError> {
        self.recv_versioned(id).map(|(answer, _)| answer)
    }

    /// [`WireClient::recv`], also returning the database version the answer
    /// was computed against (`None` when the request never reached a
    /// versioned snapshot).
    pub fn recv_versioned(&mut self, id: u64) -> Result<(Answer, Option<u64>), ServiceError> {
        self.recv_traced(id)
            .map(|(answer, version, _)| (answer, version))
    }

    /// [`WireClient::recv_versioned`], also returning the server-assigned
    /// trace id (0 when the response carried none) — the handle to pass to
    /// [`WireClient::trace`] for the submission's span timeline.
    pub fn recv_traced(&mut self, id: u64) -> Result<(Answer, Option<u64>, u64), ServiceError> {
        let (delivery, stamp) = match self.pending.remove(&id) {
            Some(response) => response,
            None => decode_response(&self.read_response(id)?)?,
        };
        let version = (stamp.version > 0).then_some(stamp.version);
        delivery.map(|answer| (answer, version, stamp.trace))
    }

    /// Reads response frames until the one for `id` arrives and returns it
    /// parsed, stashing every other pipelined response for its own `recv`.
    fn read_response(&mut self, id: u64) -> Result<Value, ServiceError> {
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(ServiceError::Disconnected),
                Ok(_) => {
                    let frame: Value = serde_json::from_str(&line)
                        .map_err(|e| ServiceError::Protocol(e.to_string()))?;
                    let got = frame.get(ID).and_then(Value::as_u64).ok_or_else(|| {
                        ServiceError::Protocol("response missing numeric `id`".to_string())
                    })?;
                    if got == id {
                        return Ok(frame);
                    }
                    let response = decode_response(&frame)?;
                    self.pending.insert(got, response);
                }
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(ServiceError::Protocol(format!("recv failed: {e}"))),
            }
        }
    }

    /// Sends one request and blocks for its answer.
    pub fn call(
        &mut self,
        request: &Request,
        options: &SubmitOptions,
    ) -> Result<Answer, ServiceError> {
        let id = self.send(request, options)?;
        self.recv(id)
    }

    /// Sends one database update and blocks for its receipt, returning the
    /// new version id and the number of cached work units the server
    /// invalidated.
    pub fn apply_update(
        &mut self,
        update: &Update,
        options: &SubmitOptions,
    ) -> Result<(u64, u64), ServiceError> {
        let id = self.send_frame(|id| encode_update_request(id, update, options))?;
        match self.recv(id)? {
            Answer::Updated {
                version,
                invalidated,
            } => Ok((version, invalidated)),
            other => Err(ServiceError::Protocol(format!(
                "expected an update receipt, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's activity counters: the [`ServiceStats`]
    /// snapshot plus each tenant's own [`CacheStats`]. Pipelined responses
    /// for other in-flight requests that land first are stashed for their
    /// own `recv` calls.
    pub fn stats(&mut self) -> Result<WireStatsReport, ServiceError> {
        match self.control_call(Control::Stats)? {
            Payload::Stats { service, tenants } => Ok(WireStatsReport {
                service,
                tenants: (tenants.into_iter())
                    .map(|t| (t.database, t.version, t.cache))
                    .collect(),
            }),
            _ => Err(Bad::Shape.into()),
        }
    }

    /// Fetches the server's metrics exposition: one Prometheus-style text
    /// block covering every registered instrument — counters, gauges, and
    /// histogram buckets. Empty when the server runs with metrics disabled.
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        match self.control_call(Control::Metrics)? {
            Payload::Metrics(text) => Ok(text),
            _ => Err(Bad::Shape.into()),
        }
    }

    /// Fetches the still-buffered span timeline of one submission's trace
    /// (the `trace` id returned by [`WireClient::recv_traced`]). Empty for
    /// untraced ids — tracing off, unsampled, or already evicted from the
    /// server's bounded span ring.
    pub fn trace(&mut self, trace: u64) -> Result<Vec<SpanRecord>, ServiceError> {
        match self.control_call(Control::Trace { trace })? {
            Payload::Trace { trace, mut events } => {
                // The timeline names its trace once, not per event.
                events.iter_mut().for_each(|event| event.trace = trace);
                Ok(events)
            }
            _ => Err(Bad::Shape.into()),
        }
    }

    /// Sends one control frame and blocks for its `ok` payload, stashing
    /// pipelined query responses that land first for their own `recv` calls.
    fn control_call(&mut self, control: Control) -> Result<Payload, ServiceError> {
        let id = self.send_frame(|id| frame_line(id, [control.encode()]))?;
        let reply = self.read_response(id)?;
        let payload = reply
            .get(OK)
            .ok_or_else(|| ServiceError::Protocol("control request failed".to_string()))?;
        Ok(Payload::decode(payload)?)
    }
}

/// What [`WireClient::stats`] returns: the server-wide [`ServiceStats`]
/// snapshot plus each registered database's own cache counters, in
/// registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStatsReport {
    /// The service-wide activity snapshot (its `cache` field sums every
    /// tenant, base and budget engines alike).
    pub service: ServiceStats,
    /// Per-tenant `(database id, database version, base-engine cache
    /// counters)`, in registration order.
    pub tenants: Vec<(String, u64, CacheStats)>,
}

// ---------------------------------------------------------------------------
// Codec: one field table per wire type, both directions derived from it
// ---------------------------------------------------------------------------
//
// A table entry is `field [as "key"] [: Via] [[policy]] [| "message"]`: the
// field, its key if not the field's name, its spelling if not its type's own
// (a unit such as `Nanos`), when it may be absent, and the protocol error a
// missing or malformed value gets — the server's are wire bytes; an entry
// with none only ever fails on the client. Policies: none — required;
// `[opt]` — absent ⇄ `None`; `[or d]` — absent decodes as `d`; `[skip d]` —
// `d` is not sent either; `[if valid]` — required and checked; `[flat]` — a
// nested table whose keys sit in this object. Objects are `BTreeMap`s, so
// table order never reaches the socket; it is the order fields decode in,
// and so which error a frame with several faults is answered with.

/// The framing keys every frame shares.
const ID: &str = "id";
const KIND: &str = "kind";
const OK: &str = "ok";
const ERR: &str = "err";
/// The `kind` of an update frame.
const UPDATE: &str = "update";

type Map = BTreeMap<String, Value>;

/// Why a value did not decode: its shape was wrong — the field holding it
/// names the failure — or a nested table already said why.
#[derive(Debug)]
enum Bad {
    Shape,
    Said(String),
}

type Decoded<T> = Result<T, Bad>;

fn said(message: impl Into<String>) -> Bad {
    Bad::Said(message.into())
}

impl Bad {
    fn message(self) -> String {
        match self {
            Bad::Said(message) => message,
            Bad::Shape => "malformed frame".to_string(),
        }
    }
}

impl From<Bad> for ServiceError {
    fn from(bad: Bad) -> Self {
        ServiceError::Protocol(bad.message())
    }
}

/// A type that crosses the wire as one JSON value; a table type as an
/// object, which a `[flat]` entry merges into its own.
trait Wire: Sized {
    /// A table's keys (a `[flat]` entry counts by its field's name).
    const KEYS: &'static [&'static str] = &[];
    fn encode(&self) -> Value;
    fn decode(value: &Value) -> Decoded<Self>;
}

/// How a field's value is spelled: [`Plain`] through its type's [`Wire`]
/// impl, or an adapter such as a unit.
trait Via<T> {
    fn to(x: &T) -> Value;
    fn from(value: &Value) -> Decoded<T>;
}

struct Plain;

impl<T: Wire> Via<T> for Plain {
    fn to(x: &T) -> Value {
        x.encode()
    }
    fn from(value: &Value) -> Decoded<T> {
        T::decode(value)
    }
}

fn put<V: Via<T>, T>(map: &mut Map, key: &str, x: &T) {
    map.insert(key.to_string(), V::to(x));
}

fn merge(map: &mut Map, table: Value) {
    if let Value::Object(entries) = table {
        map.extend(entries);
    }
}

/// The failure of field `key`: its table's message, or a generic one.
fn named(key: &str, message: Option<&'static str>) -> Bad {
    said(message.map_or_else(|| format!("missing or malformed `{key}`"), String::from))
}

fn take_opt<V: Via<T>, T>(
    object: &Value,
    key: &str,
    message: Option<&'static str>,
) -> Decoded<Option<T>> {
    match object.get(key) {
        None => Ok(None),
        Some(value) => V::from(value).map(Some).map_err(|bad| match bad {
            Bad::Shape => named(key, message),
            other => other,
        }),
    }
}

fn take<V: Via<T>, T>(object: &Value, key: &str, message: Option<&'static str>) -> Decoded<T> {
    take_opt::<V, T>(object, key, message)?.ok_or_else(|| named(key, message))
}

/// An entry's optional part when given, else its default.
macro_rules! given_or {
    ([] $default:tt) => {
        $default
    };
    ([$($given:tt)+] $default:tt) => {
        $($given)+
    };
}

/// One table entry, in one direction.
macro_rules! field {
    (put [flat] $map:ident, $key:expr, $via:ty, $x:expr) => {
        merge(&mut $map, Wire::encode($x))
    };
    (put [opt] $map:ident, $key:expr, $via:ty, $x:expr) => {
        if let Some(x) = $x {
            put::<$via, _>(&mut $map, $key, x)
        }
    };
    (put [skip $default:expr] $map:ident, $key:expr, $via:ty, $x:expr) => {
        if *$x != $default {
            put::<$via, _>(&mut $map, $key, $x)
        }
    };
    (put [$($required:tt)*] $map:ident, $key:expr, $via:ty, $x:expr) => {
        put::<$via, _>(&mut $map, $key, $x)
    };
    (take [flat] $object:ident, $key:expr, $via:ty, $message:expr) => {
        Wire::decode($object)
    };
    (take [opt] $object:ident, $key:expr, $via:ty, $message:expr) => {
        take_opt::<$via, _>($object, $key, $message)
    };
    (take [skip $default:expr] $object:ident, $key:expr, $via:ty, $message:expr) => {
        field!(take [or $default] $object, $key, $via, $message)
    };
    (take [or $default:expr] $object:ident, $key:expr, $via:ty, $message:expr) => {
        take_opt::<$via, _>($object, $key, $message).map(|x| x.unwrap_or_else(|| $default))
    };
    (take [if $valid:expr] $object:ident, $key:expr, $via:ty, $message:expr) => {
        take::<$via, _>($object, $key, $message)
            .and_then(|x| Some(x).filter($valid).ok_or_else(|| named($key, $message)))
    };
    (take [] $object:ident, $key:expr, $via:ty, $message:expr) => {
        take::<$via, _>($object, $key, $message)
    };
}

/// A table's entries as statements over bound names: `put` writes each,
/// `take` binds each decoded value.
macro_rules! entries {
    (put $map:ident { $($field:ident $(as $key:literal)? $(: $via:ty)? $([$($policy:tt)*])? $(| $message:expr)?),* $(,)? }) => {
        $(field!(
            put [$($($policy)*)?] $map,
            given_or!([$($key)?] (stringify!($field))),
            given_or!([$($via)?] Plain),
            $field
        );)*
    };
    (take $object:ident { $($field:ident $(as $key:literal)? $(: $via:ty)? $([$($policy:tt)*])? $(| $message:expr)?),* $(,)? }) => {
        $(let $field = field!(
            take [$($($policy)*)?] $object,
            given_or!([$($key)?] (stringify!($field))),
            given_or!([$($via)?] Plain),
            given_or!([$(Some($message))?] None)
        )?;)*
    };
}

/// A struct's table; `else { field: value }` fills fields that never cross
/// the wire.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident $(as $key:literal)? $(: $via:ty)? $([$($policy:tt)*])? $(| $message:expr)?),* $(,)? }
     $(else { $($local:ident: $init:expr),* })?) => {
        impl Wire for $ty {
            const KEYS: &'static [&'static str] = &[$(given_or!([$($key)?] (stringify!($field)))),*];
            fn encode(&self) -> Value {
                let $ty { $($field,)* .. } = self;
                let mut map = Map::new();
                entries!(put map { $($field $(as $key)? $(: $via)? $([$($policy)*])?),* });
                Value::Object(map)
            }
            fn decode(object: &Value) -> Decoded<Self> {
                entries!(take object { $($field $(as $key)? $(: $via)? $([$($policy)*])? $(| $message)?),* });
                Ok($ty { $($field,)* $($($local: $init,)*)? })
            }
        }
    };
}

/// A tagged enum's table: the tag's key and the error for a missing or
/// unknown tag, the entries every variant shares (decoded before the tag),
/// then per variant its tag, its constructor — a pattern that is also an
/// expression — and its own entries.
macro_rules! wire_enum {
    ($ty:ident by $tag:expr, else $unknown:expr; shared $shared:tt
     $($name:literal => [$($ctor:tt)+] $table:tt),+ $(,)?) => {
        impl Wire for $ty {
            fn encode(&self) -> Value {
                let mut map = Map::new();
                match self {
                    $($($ctor)+ => {
                        map.insert($tag.to_string(), Value::from($name));
                        entries!(put map $shared);
                        entries!(put map $table);
                    })+
                }
                Value::Object(map)
            }
            fn decode(object: &Value) -> Decoded<Self> {
                entries!(take object $shared);
                match object.get($tag).and_then(Value::as_str) {
                    $(Some($name) => {
                        entries!(take object $table);
                        Ok($($ctor)+)
                    })+
                    other => Err(($unknown)(other)),
                }
            }
        }
    };
}

/// An enum whose variants are bare words or one-key objects, tried in table
/// order; `else` is the error when none fits.
macro_rules! wire_untagged {
    ($ty:ident, else $fail:expr; $($word:literal => $unit:path;)*
     $({$key:tt: $bind:ident} => [$($ctor:tt)+];)*) => {
        impl Wire for $ty {
            fn encode(&self) -> Value {
                match self {
                    $($unit => Value::from($word),)*
                    $($($ctor)+ => serde_json::json!({ $key: $bind.encode() }),)*
                }
            }
            fn decode(value: &Value) -> Decoded<Self> {
                $(if value.as_str() == Some($word) {
                    return Ok($unit);
                })*
                $(if let Some(x) = value.get($key) {
                    match Wire::decode(x) {
                        Ok($bind) => return Ok($($ctor)+),
                        Err(Bad::Shape) => {}
                        Err(other) => return Err(other),
                    }
                })*
                Err(said($fail))
            }
        }
    };
}

// Leaves: JSON scalars and arrays, no keys.

macro_rules! scalars {
    ($($ty:ty: $as:ident),*) => {$(
        impl Wire for $ty {
            fn encode(&self) -> Value {
                Value::from(<$ty>::clone(self))
            }
            fn decode(value: &Value) -> Decoded<Self> {
                value.$as().and_then(|x| x.try_into().ok()).ok_or(Bad::Shape)
            }
        }
    )*};
}

scalars!(u64: as_u64, usize: as_u64, f64: as_f64, String: as_str);

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(Wire::encode).collect())
    }
    fn decode(value: &Value) -> Decoded<Self> {
        let items = value.as_array().ok_or(Bad::Shape)?;
        items.iter().map(T::decode).collect()
    }
}

/// A pair is a two-element array.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self) -> Value {
        Value::Array(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(value: &Value) -> Decoded<Self> {
        match value.as_array() {
            Some([a, b]) => Ok((A::decode(a)?, B::decode(b)?)),
            _ => Err(Bad::Shape),
        }
    }
}

/// A table given whole or not at all — an error budget's two keys: absent
/// ⇄ `None` (encoded as no keys, for a `[flat]` entry), partial is an error.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref()
            .map_or_else(|| Value::Object(Map::new()), T::encode)
    }
    fn decode(object: &Value) -> Decoded<Self> {
        match T::KEYS.iter().filter(|k| object.get(k).is_some()).count() {
            0 => Ok(None),
            given if given == T::KEYS.len() => T::decode(object).map(Some),
            _ => Err(said(format!(
                "`{}` must be given together",
                T::KEYS.join("` and `")
            ))),
        }
    }
}

impl Wire for PpdValue {
    fn encode(&self) -> Value {
        match self {
            PpdValue::Str(s) => Value::from(s.as_str()),
            PpdValue::Int(i) => Value::from(*i),
            PpdValue::Null => Value::Null,
        }
    }
    fn decode(value: &Value) -> Decoded<Self> {
        match value {
            Value::Null => Ok(PpdValue::Null),
            Value::String(s) => Ok(PpdValue::Str(s.clone())),
            _ => (value.as_i64().map(PpdValue::Int))
                .ok_or_else(|| said("constants must be strings, integers, or null")),
        }
    }
}

/// An operator is its symbol.
impl Wire for CompareOp {
    fn encode(&self) -> Value {
        Value::from(self.symbol())
    }
    fn decode(value: &Value) -> Decoded<Self> {
        use CompareOp::*;
        let mut ops = [Eq, Ne, Lt, Le, Gt, Ge].into_iter();
        ops.find(|op| value.as_str() == Some(op.symbol()))
            .ok_or(Bad::Shape)
    }
}

/// A class is its name; anything but a string means interactive.
impl Wire for AdmissionClass {
    fn encode(&self) -> Value {
        Value::from(self.name())
    }
    fn decode(value: &Value) -> Decoded<Self> {
        let Some(name) = value.as_str() else {
            return Ok(AdmissionClass::Interactive);
        };
        let mut classes = [AdmissionClass::Interactive, AdmissionClass::Batch].into_iter();
        let class = classes.find(|class| class.name() == name);
        class.ok_or_else(|| said(format!("unknown admission class `{name}`")))
    }
}

/// A top-k entry is an `[index, probability]` pair.
impl Wire for SessionScore {
    fn encode(&self) -> Value {
        (self.session_index, self.probability).encode()
    }
    fn decode(value: &Value) -> Decoded<Self> {
        let (session_index, probability) = Wire::decode(value)?;
        Ok(SessionScore {
            session_index,
            probability,
        })
    }
}

/// A duration as a whole number of units, `PER_SECOND` to the second.
struct Units<const PER_SECOND: u64>;
type Nanos = Units<1_000_000_000>;
type Millis = Units<1_000>;

impl<const PER_SECOND: u64> Via<Duration> for Units<PER_SECOND> {
    fn to(x: &Duration) -> Value {
        Value::from((x.as_nanos() / u128::from(1_000_000_000 / PER_SECOND)) as u64)
    }
    fn from(value: &Value) -> Decoded<Duration> {
        let (n, nanos) = (u64::decode(value)?, 1_000_000_000 / PER_SECOND);
        Ok(Duration::new(
            n / PER_SECOND,
            ((n % PER_SECOND) * nanos) as u32,
        ))
    }
}

/// A ranking's items, in rank order.
struct Items;

impl Via<Vec<u32>> for Items {
    fn to(items: &Vec<u32>) -> Value {
        Value::from(items.clone())
    }
    fn from(value: &Value) -> Decoded<Vec<u32>> {
        let item = |v: &Value| v.as_u64().and_then(|i| u32::try_from(i).ok());
        let items = value.as_array().ok_or(Bad::Shape)?.iter().map(item);
        (items.collect::<Option<_>>()).ok_or_else(|| said("ranking entries are item ids"))
    }
}

/// A static label a span event carries: an admission class, a solver tag,
/// or an error kind (`PpdError`'s, then the service's own). The timeline is
/// diagnostic output, not an input to anything, so a string outside the
/// known set decodes as `"unknown"`.
struct Label;

impl Label {
    const KNOWN: &'static [&'static str] = &[
        "interactive",
        "batch",
        "exact",
        "general-exact",
        "mis-amp",
        "mis-amp-budgeted",
        "unknown-name",
        "malformed",
        "unsupported-query",
        "pattern",
        "rim",
        "solver",
        "persist",
        "cancelled",
        "overloaded",
        "shutting-down",
        "unknown-database",
        "deadline-exceeded",
        "protocol",
        "disconnected",
    ];
}

impl Via<&'static str> for Label {
    fn to(x: &&'static str) -> Value {
        Value::from(*x)
    }
    fn from(value: &Value) -> Decoded<&'static str> {
        let s = value.as_str().ok_or(Bad::Shape)?;
        let known = Label::KNOWN.iter().find(|k| **k == s);
        Ok(known.copied().unwrap_or("unknown"))
    }
}

// Queries.

wire_untagged! { Term, else "term must be \"_\", {\"var\": name}, or {\"val\": constant}";
    "_" => Term::Wildcard;
    {"var": name} => [Term::Var(name)];
    {"val": value} => [Term::Const(value)];
}

wire_untagged! { TopKStrategy, else "strategy must be \"naive\" or {\"upper_bound\": n}";
    "naive" => TopKStrategy::Naive;
    {"upper_bound": edges_per_pattern} => [TopKStrategy::UpperBound { edges_per_pattern }];
}

const NEEDS_RELATION: &str = "atom needs a string `relation`";

wire_struct! { PreferenceAtom {
    session_terms as "sessions" | "preference atom needs `sessions`",
    relation | NEEDS_RELATION,
    left | "preference atom needs `left`",
    right | "preference atom needs `right`",
} }

wire_struct! { RelationAtom {
    terms | "relation atom needs `terms`",
    relation | NEEDS_RELATION,
} }

wire_struct! { Comparison {
    var | "comparison needs a string `var`",
    op | "comparison `op` must be one of = != < <= > >=",
    value | "comparison needs `value`",
} }

/// The wire shape of a [`ConjunctiveQuery`], whose atoms sit behind a
/// builder.
struct QueryParts {
    name: String,
    prefer: Vec<PreferenceAtom>,
    atoms: Vec<RelationAtom>,
    compare: Vec<Comparison>,
}

wire_struct! { QueryParts {
    name | "query needs a string `name`",
    prefer [or Vec::new()] | "query `prefer` must be an array",
    atoms [or Vec::new()] | "query `atoms` must be an array",
    compare [or Vec::new()] | "query `compare` must be an array",
} }

impl Wire for ConjunctiveQuery {
    fn encode(&self) -> Value {
        QueryParts {
            name: self.name().to_string(),
            prefer: self.preference_atoms().to_vec(),
            atoms: self.relation_atoms().to_vec(),
            compare: self.comparisons().to_vec(),
        }
        .encode()
    }
    fn decode(value: &Value) -> Decoded<Self> {
        let parts = QueryParts::decode(value)?;
        let mut query = ConjunctiveQuery::new(parts.name);
        for a in parts.prefer {
            query = query.prefer(a.relation, a.session_terms, a.left, a.right);
        }
        for a in parts.atoms {
            query = query.atom(a.relation, a.terms);
        }
        for c in parts.compare {
            query = query.compare(c.var, c.op, c.value);
        }
        Ok(query)
    }
}

wire_enum! { Request by KIND, else |kind: Option<&str>| {
        said(format!("unknown request kind `{}`", kind.unwrap_or_default()))
    };
    shared { query | "missing `query`" }
    "boolean" => [Request::Boolean(query)] {},
    "count" => [Request::Count(query)] {},
    "session_probabilities" => [Request::SessionProbabilities(query)] {},
    "topk" => [Request::TopK { query, k, strategy }] {
        k | "topk requests need a numeric `k`",
        strategy [or TopKStrategy::Naive],
    },
}

// What request and update frames share. The error budget rides only on
// request frames (an update evaluates nothing).
wire_struct! { SubmitOptions {
    class [or AdmissionClass::Interactive],
    database [opt] | "`database` must be a string",
    deadline as "deadline_ms": Millis [opt] | "`deadline_ms` must be a non-negative integer",
} else { error_budget: None } }

wire_struct! { ErrorBudget {
    epsilon [if |e: &f64| e.is_finite() && *e > 0.0] | "`epsilon` must be a positive number",
    confidence [if |c: &f64| *c > 0.0 && *c < 1.0] | "`confidence` must be in (0, 1)",
} }

// Updates.

/// The wire shape of a [`Session`]: its attributes plus its Mallows model —
/// the reference ranking's items in rank order and the dispersion `phi`
/// (shortest-round-trip formatted, so the model hash survives the trip).
struct SessionParts {
    attrs: Vec<PpdValue>,
    ranking: Vec<u32>,
    phi: f64,
}

wire_struct! { SessionParts {
    attrs | "session needs an `attrs` array",
    ranking: Items | "session needs a `ranking` array",
    phi | "session needs a numeric `phi`",
} }

impl Wire for Session {
    fn encode(&self) -> Value {
        SessionParts {
            attrs: self.attrs().to_vec(),
            ranking: self.model().sigma().items().to_vec(),
            phi: self.model().phi(),
        }
        .encode()
    }
    fn decode(value: &Value) -> Decoded<Self> {
        let parts = SessionParts::decode(value)?;
        let ranking = Ranking::new(parts.ranking).map_err(|e| said(e.to_string()))?;
        let model = MallowsModel::new(ranking, parts.phi).map_err(|e| said(e.to_string()))?;
        Ok(Session::new(parts.attrs, model))
    }
}

const NEEDS_INDEX: &str = "this update op needs a numeric `index`";
const NEEDS_SESSION: &str = "this update op needs a `session`";

wire_enum! { Update by "op", else |_| said("update `op` must be insert, replace, or delete");
    shared { prelation | "updates need a string `prelation`" }
    "insert" => [Update::InsertSession { prelation, session }] { session | NEEDS_SESSION },
    "replace" => [Update::ReplaceSession { prelation, index, session }] {
        index | NEEDS_INDEX,
        session | NEEDS_SESSION,
    },
    "delete" => [Update::DeleteSession { prelation, index }] { index | NEEDS_INDEX },
}

// Responses.

wire_untagged! { Delivery, else "response carries neither `ok` nor `err`";
    {OK: answer} => [Ok(answer)];
    {ERR: error} => [Err(error)];
}

/// What a response frame carries besides its delivery: the database
/// version the answer was computed against (0: no versioned snapshot was
/// reached) and the submission's trace id for the `trace` verb (0: failed
/// before one was assigned). Zero omits the field.
struct Stamp {
    version: u64,
    trace: u64,
}

wire_struct! { Stamp { version [skip 0], trace [skip 0] } }

wire_enum! { Answer by KIND, else |_| said("unknown answer kind"); shared {}
    "boolean" => [Answer::Boolean(value)] { value },
    "count" => [Answer::Count(value)] { value },
    "session_probabilities" => [Answer::SessionProbabilities(sessions)] { sessions },
    "topk" => [Answer::TopK(sessions)] { sessions },
    "updated" => [Answer::Updated { version, invalidated }] { version, invalidated },
}

wire_enum! { ServiceError by KIND, else |_| said("unknown error kind"); shared {}
    "overloaded" => [ServiceError::Overloaded { depth }] { depth [or 0] },
    "shutting_down" => [ServiceError::ShuttingDown] {},
    "unknown_database" => [ServiceError::UnknownDatabase(detail)] { detail [or String::new()] },
    "deadline_exceeded" => [ServiceError::DeadlineExceeded] {},
    "eval" => [ServiceError::Eval(error)] { error [flat] },
    "protocol" => [ServiceError::Protocol(detail)] { detail [or String::new()] },
    "disconnected" => [ServiceError::Disconnected] {},
}

/// An evaluation error crosses the wire as its stable `error_kind` plus its
/// rendered text. The structured payload of a `PpdError` does not survive
/// the trip, but its kind — the label the error counters use — does.
struct EvalError {
    error_kind: String,
    detail: String,
}

wire_struct! { EvalError { error_kind [or String::new()], detail [or String::new()] } }

impl Wire for PpdError {
    fn encode(&self) -> Value {
        let (error_kind, detail) = (self.kind().to_string(), self.to_string());
        EvalError { error_kind, detail }.encode()
    }
    fn decode(object: &Value) -> Decoded<Self> {
        let EvalError { error_kind, detail } = EvalError::decode(object)?;
        // `error_kind` picks the variant back out, so `kind()` (and the
        // cancellation check in the service) survive the trip. Kinds whose
        // variants wrap a non-string payload flatten to `Malformed`.
        Ok(match error_kind.as_str() {
            "unknown-name" => PpdError::UnknownName(detail),
            "unsupported-query" => PpdError::UnsupportedQuery(detail),
            "persist" => PpdError::Persist(detail),
            "cancelled" => PpdError::Cancelled,
            _ => PpdError::Malformed(detail),
        })
    }
}

// Control verbs.

/// A control verb, answered synchronously outside the admission path.
#[derive(Debug)]
enum Control {
    Stats,
    Metrics,
    Trace { trace: u64 },
}

// Any other kind is not a control frame, and no error text is built for it.
wire_enum! { Control by KIND, else |_| Bad::Shape; shared {}
    "stats" => [Control::Stats] {},
    "metrics" => [Control::Metrics] {},
    "trace" => [Control::Trace { trace }] { trace },
}

/// The `ok` payload answering a control verb. The metrics text rides inside
/// a JSON string (newlines escaped), so the frame stays one line; a
/// timeline's events carry its trace id once, not per event.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // One per control reply, never stored.
enum Payload {
    Stats {
        service: ServiceStats,
        tenants: Vec<Tenant>,
    },
    Metrics(String),
    Trace {
        trace: u64,
        events: Vec<SpanRecord>,
    },
}

wire_enum! { Payload by KIND, else |_| said("unexpected control payload"); shared {}
    "stats" => [Payload::Stats { service, tenants }] { service, tenants },
    "metrics" => [Payload::Metrics(text)] { text },
    "trace" => [Payload::Trace { trace, events }] { trace, events },
}

/// One tenant's entry in the stats payload.
#[derive(Debug)]
struct Tenant {
    database: String,
    version: u64,
    cache: CacheStats,
}

wire_struct! { Tenant { database, version, cache } }

wire_struct! { ServiceStats {
    submitted, rejected, interactive_submitted, interactive_rejected, batch_submitted,
    batch_rejected, answered, failed, expired, updates_applied,
    queue_depth, interactive_queue_depth, batch_queue_depth,
    uptime as "uptime_ns": Nanos,
    in_flight_waves, waves, max_wave, wave_sizes,
    mean_latency as "mean_latency_ns": Nanos,
    max_latency as "max_latency_ns": Nanos,
    cache,
} }

wire_struct! { CacheStats {
    marginal_hits, marginal_misses, marginal_evictions, marginal_evicted_bytes,
    marginals_loaded, marginals_saved, models_prepared, units_invalidated,
    segment_live_bytes, segment_dead_bytes, compactions, pools_built, pool_hits,
} }

wire_struct! { SpanRecord { seq, at_micros, event [flat] } else { trace: 0 } }

wire_enum! { SpanEvent by "event", else |event| said(format!("unknown span event {event:?}"));
    shared {}
    "admitted" => [SpanEvent::Admitted { tenant, class, depth }] {
        tenant, class: Label, depth,
    },
    "wave-joined" => [SpanEvent::WaveJoined { wave_units, units, cached }] {
        wave_units, units, cached,
    },
    "unit-solved" => [SpanEvent::UnitSolved { unit_hash, solver, micros }] {
        unit_hash, solver: Label, micros,
    },
    "delivered" => [SpanEvent::Delivered { micros }] { micros },
    "expired" => [SpanEvent::Expired { micros }] { micros },
    "cancelled" => [SpanEvent::Cancelled { micros }] { micros },
    "failed" => [SpanEvent::Failed { error_kind, micros }] { error_kind: Label, micros },
}

// Frames.

/// One frame's line (no trailing newline): `{"id": id}` plus the tables
/// merged in.
fn frame_line(id: u64, tables: impl IntoIterator<Item = Value>) -> String {
    let mut map = Map::from([(ID.to_string(), Value::from(id))]);
    tables.into_iter().for_each(|table| merge(&mut map, table));
    serde_json::to_string(&Value::Object(map)).expect("frames always serialize")
}

/// Encodes one request frame (no trailing newline).
pub(crate) fn encode_request(id: u64, request: &Request, options: &SubmitOptions) -> String {
    let budget = options.error_budget.encode();
    frame_line(id, [request.encode(), options.encode(), budget])
}

/// Encodes one update frame (no trailing newline).
pub(crate) fn encode_update_request(id: u64, update: &Update, options: &SubmitOptions) -> String {
    frame_line(
        id,
        [json!({ KIND: UPDATE }), update.encode(), options.encode()],
    )
}

/// Encodes one response frame (no trailing newline); a zero `version` or
/// `trace` is omitted (see [`Stamp`]).
pub(crate) fn encode_response(id: u64, delivery: &Delivery, version: u64, trace: u64) -> String {
    frame_line(id, [Stamp { version, trace }.encode(), delivery.encode()])
}

/// Encodes the reply to a control frame.
fn encode_reply(id: u64, payload: &Payload) -> String {
    frame_line(id, [json!({ OK: payload.encode() })])
}

/// Decodes a parsed response frame's delivery and [`Stamp`].
fn decode_response(frame: &Value) -> Result<(Delivery, Stamp), ServiceError> {
    Ok((Delivery::decode(frame)?, Stamp::decode(frame)?))
}

/// A decoded inbound frame: id + payload + options on success; on failure
/// the frame id (when at least that much parsed, so the error response can
/// still be correlated) and a message.
type DecodedFrame<T> = Result<(u64, T, SubmitOptions), (Option<u64>, String)>;

/// One inbound frame, parsed once and classified by its `kind`.
enum Inbound {
    Control(u64, Control),
    /// A query or update frame on its way to admission — or the protocol
    /// error to answer it with (bad JSON and unknown kinds included).
    Submit(DecodedFrame<Work>),
}

/// Parses one inbound frame — the only `serde_json::from_str` a request
/// frame meets — and dispatches on `kind`. A control frame missing its
/// numeric `id` (or a trace frame its `trace`) falls through to the query
/// decoder, which reports what is missing.
fn decode_frame(frame: &str) -> Inbound {
    let value: Value = match serde_json::from_str(frame) {
        Ok(value) => value,
        Err(e) => return Inbound::Submit(Err((None, e.to_string()))),
    };
    match (
        value.get(ID).and_then(Value::as_u64),
        Control::decode(&value),
    ) {
        (Some(id), Ok(control)) => Inbound::Control(id, control),
        (None, _) => Inbound::Submit(Err((None, "missing numeric `id`".to_string()))),
        (Some(id), _) => Inbound::Submit(
            decode_work(&value)
                .map(|(work, options)| (id, work, options))
                .map_err(|bad| (Some(id), bad.message())),
        ),
    }
}

/// A query or update frame's payload, decoded in the order that decides
/// which error a frame with several faults is answered with: `kind`, the
/// work's own table, then the options.
fn decode_work(value: &Value) -> Decoded<(Work, SubmitOptions)> {
    let kind = value.get(KIND).and_then(Value::as_str);
    if kind.ok_or_else(|| said("missing `kind`"))? == UPDATE {
        let update = Update::decode(value)?;
        return Ok((Work::Update(update), SubmitOptions::decode(value)?));
    }
    let request = Request::decode(value)?;
    let mut options = SubmitOptions::decode(value)?;
    options.error_budget = Wire::decode(value)?;
    Ok((Work::Query(request), options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_core::Value as PpdValue;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::fmt::Debug;

    /// A frame through the server's one parse, expected to be a query or an
    /// update on its way to admission (or the protocol error answering it).
    fn decode_submission(frame: &str) -> DecodedFrame<Work> {
        match decode_frame(frame) {
            Inbound::Submit(decoded) => decoded,
            _ => panic!("a control frame: {frame}"),
        }
    }

    fn decode_query_frame(frame: &str) -> DecodedFrame<Request> {
        decode_submission(frame).map(|(id, work, options)| match work {
            Work::Query(request) => (id, request, options),
            Work::Update(_) => panic!("an update frame: {frame}"),
        })
    }

    fn decode_update_frame(frame: &str) -> DecodedFrame<Update> {
        decode_submission(frame).map(|(id, work, options)| match work {
            Work::Update(update) => (id, update, options),
            Work::Query(_) => panic!("a query frame: {frame}"),
        })
    }

    /// A response line as the client reads it: `(id, delivery, version,
    /// trace)`.
    fn read_response(line: &str) -> Result<(u64, Delivery, Option<u64>, u64), ServiceError> {
        let frame: Value = serde_json::from_str(line).unwrap();
        let id = frame.get(ID).and_then(Value::as_u64).expect("an id");
        let (delivery, stamp) = decode_response(&frame)?;
        Ok((
            id,
            delivery,
            (stamp.version > 0).then_some(stamp.version),
            stamp.trace,
        ))
    }

    /// A reply line's `ok` payload.
    fn read_payload(line: &str) -> Payload {
        let frame: Value = serde_json::from_str(line).unwrap();
        Payload::decode(frame.get(OK).expect("an ok payload")).expect("a payload")
    }

    /// Bit for bit: `Debug` prints every float shortest-round-trip, so equal
    /// renderings are equal bits (and `-0.0` is not `0.0`).
    fn assert_same<T: Debug>(decoded: T, expected: T) {
        assert_eq!(format!("{decoded:?}"), format!("{expected:?}"));
    }

    fn encode_stats_response(
        id: u64,
        service: &ServiceStats,
        tenants: &[(String, u64, CacheStats)],
    ) -> String {
        let tenants = (tenants.iter())
            .map(|(database, version, cache)| Tenant {
                database: database.clone(),
                version: *version,
                cache: *cache,
            })
            .collect();
        let service = service.clone();
        encode_reply(id, &Payload::Stats { service, tenants })
    }

    fn encode_metrics_response(id: u64, text: &str) -> String {
        encode_reply(id, &Payload::Metrics(text.to_string()))
    }

    fn encode_trace_response(id: u64, trace: u64, events: &[SpanRecord]) -> String {
        let events = events.to_vec();
        encode_reply(id, &Payload::Trace { trace, events })
    }

    fn demo_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new("demo")
            .prefer(
                "Polls",
                vec![Term::var("v"), Term::any()],
                Term::var("x"),
                Term::val("cand1"),
            )
            .atom("Candidates", vec![Term::var("x"), Term::var("party")])
            .compare("party", CompareOp::Eq, "blue")
            .compare("year", CompareOp::Ge, PpdValue::Int(1990))
    }

    #[test]
    fn request_frames_round_trip() {
        let requests = [
            Request::Boolean(demo_query()),
            Request::Count(demo_query()),
            Request::SessionProbabilities(demo_query()),
            Request::TopK {
                query: demo_query(),
                k: 5,
                strategy: TopKStrategy::UpperBound {
                    edges_per_pattern: 2,
                },
            },
        ];
        let options = SubmitOptions::batch()
            .on_database("polls")
            .with_deadline(Duration::from_millis(250))
            .with_error_budget(0.01, 0.95);
        for (i, request) in requests.iter().enumerate() {
            let frame = encode_request(i as u64 + 1, request, &options);
            assert!(!frame.contains('\n'), "frames are single lines: {frame}");
            let decoded = decode_query_frame(&frame).expect("round trip");
            assert_same(decoded, (i as u64 + 1, request.clone(), options.clone()));
        }
    }

    #[test]
    fn default_options_round_trip_as_defaults() {
        let frame = encode_request(
            9,
            &Request::Boolean(demo_query()),
            &SubmitOptions::default(),
        );
        let (_, _, options) = decode_query_frame(&frame).unwrap();
        assert_eq!(options.class, AdmissionClass::Interactive);
        assert_eq!(options.database, None);
        assert_eq!(options.deadline, None);
    }

    #[test]
    fn answers_round_trip_bit_exactly() {
        let delivery: Delivery = Ok(Answer::Boolean(0.1 + 0.2)); // shortest-round-trip matters
        let (id, decoded, version, trace) =
            read_response(&encode_response(42, &delivery, 0, 0)).expect("round trip");
        assert_eq!(
            (id, version, trace),
            (42, None, 0),
            "0 omits version and trace"
        );
        assert_eq!(decoded, delivery);
        // A versioned response carries the snapshot id back to the client,
        // and a traced one its trace id (the `trace` verb's handle).
        let frame = encode_response(42, &Ok(Answer::Boolean(0.5)), 3, 9);
        let (_, _, version, trace) = read_response(&frame).expect("round trip");
        assert_eq!((version, trace), (Some(3), 9));
    }

    #[test]
    fn update_frames_round_trip() {
        let session = Session::new(
            vec![PpdValue::Str("v9".into()), PpdValue::Int(4)],
            MallowsModel::new(Ranking::new(vec![2, 0, 1]).unwrap(), 0.3).unwrap(),
        );
        let update = Update::ReplaceSession {
            prelation: "Polls".into(),
            index: 5,
            session: session.clone(),
        };
        let frame = encode_update_request(9, &update, &SubmitOptions::default());
        let (_, decoded, _) = decode_update_frame(&frame).unwrap();
        let Update::ReplaceSession { session: back, .. } = &decoded else {
            panic!("update op changed across the wire: {decoded:?}");
        };
        assert_eq!(
            back.model_key_hash(),
            session.model_key_hash(),
            "the content hash — the cache key — survives the trip"
        );
        // Query frames are not update frames, and malformed updates keep
        // their id for error correlation.
        let (_, message) = decode_query_frame(r#"{"id": 1, "kind": "boolean"}"#)
            .expect_err("a query frame without a query");
        assert_eq!(message, "missing `query`");
        let (id, _) = decode_update_frame(
            r#"{"id": 3, "kind": "update", "op": "warp", "prelation": "Polls"}"#,
        )
        .expect_err("unknown op");
        assert_eq!(id, Some(3));
        assert!(
            decode_update_frame(
                r#"{"id": 4, "kind": "update", "op": "insert", "prelation": "Polls",
                    "session": {"attrs": [], "ranking": [0, 0], "phi": 0.5}}"#
            )
            .is_err(),
            "a duplicate-item ranking is rejected at decode time"
        );
        // An update frame carries no error budget, and ignores one.
        let frame = encode_update_request(
            5,
            &update,
            &SubmitOptions::default().with_error_budget(0.1, 0.9),
        );
        assert!(!frame.contains("epsilon"), "{frame}");
        let stray = r#"{"id": 6, "kind": "update", "op": "delete", "prelation": "Polls", "index": 0, "epsilon": -1}"#;
        assert!(decode_update_frame(stray).is_ok());
    }

    #[test]
    fn errors_round_trip_by_kind() {
        // Evaluation errors flatten to text plus the stable `error_kind`,
        // which picks the variant back out on the far side.
        let cases: Vec<(PpdError, &str)> = vec![
            (PpdError::UnknownName("R".into()), "unknown-name"),
            (
                PpdError::UnsupportedQuery("mixed".into()),
                "unsupported-query",
            ),
            (PpdError::Persist("bad magic".into()), "persist"),
            (PpdError::Cancelled, "cancelled"),
            (PpdError::Malformed("arity".into()), "malformed"),
        ];
        for (error, kind) in cases {
            let frame = encode_response(1, &Err(ServiceError::Eval(error)), 0, 0);
            assert!(frame.contains(kind), "{frame}");
            match read_response(&frame).unwrap().1 {
                Err(ServiceError::Eval(e)) => assert_eq!(e.kind(), kind, "{e:?}"),
                other => panic!("eval error changed class across the wire: {other:?}"),
            }
        }
        // Kinds wrapping structured payloads flatten to Malformed text but
        // still report an eval error, not a protocol failure.
        let frame = r#"{"id": 1, "err": {"kind": "eval", "error_kind": "solver", "detail": "s"}}"#;
        let decoded = read_response(frame).unwrap().1;
        assert!(
            matches!(decoded, Err(ServiceError::Eval(PpdError::Malformed(_)))),
            "{decoded:?}"
        );
        // Leniency kept from the hand-paired codec: no depth means 0, no
        // detail means "".
        let frame = r#"{"id": 1, "err": {"kind": "overloaded"}}"#;
        assert_eq!(
            read_response(frame).unwrap().1,
            Err(ServiceError::Overloaded { depth: 0 })
        );
        let frame = r#"{"id": 1, "err": {"kind": "protocol"}}"#;
        assert_eq!(
            read_response(frame).unwrap().1,
            Err(ServiceError::Protocol(String::new()))
        );
    }

    #[test]
    fn malformed_frames_fail_with_context() {
        assert!(decode_query_frame("not json").is_err());
        let (id, _) = decode_query_frame(r#"{"id": 3, "kind": "nope", "query": {"name": "q"}}"#)
            .expect_err("unknown kind");
        assert_eq!(id, Some(3), "id survives for error correlation");
        assert!(read_response(r#"{"id": 1}"#).is_err());
        // A lone half of an error budget is a protocol error, not a silent
        // fall-back to the tenant's configured solver.
        let lone = r#"{"id": 4, "kind": "boolean", "query": {"name": "q"}, "epsilon": 0.01}"#;
        assert!(decode_query_frame(lone).is_err());
        let bad_eps = r#"{"id": 5, "kind": "boolean", "query": {"name": "q"}, "epsilon": -1.0, "confidence": 0.9}"#;
        assert!(decode_query_frame(bad_eps).is_err());
    }

    #[test]
    fn stats_frames_round_trip() {
        assert!(matches!(
            decode_frame(r#"{"id": 6, "kind": "stats"}"#),
            Inbound::Control(6, Control::Stats)
        ));
        assert!(
            matches!(
                decode_frame(r#"{"id": 6, "kind": "boolean"}"#),
                Inbound::Submit(_)
            ),
            "query frames are not stats frames"
        );
        let stats = ServiceStats {
            wave_sizes: vec![(1, 2), (5, 2)],
            uptime: Duration::from_secs(90),
            ..ServiceStats::default()
        };
        let tenants = vec![("polls".to_string(), 3, CacheStats::default())];
        let frame = encode_stats_response(6, &stats, &tenants);
        assert!(!frame.contains('\n'), "frames are single lines: {frame}");
        let Payload::Stats { service, tenants } = read_payload(&frame) else {
            panic!("not a stats payload: {frame}");
        };
        assert_eq!(service, stats);
        assert_same(
            tenants,
            vec![Tenant {
                database: "polls".to_string(),
                version: 3,
                cache: CacheStats::default(),
            }],
        );
    }

    #[test]
    fn stats_replies_of_a_parent_version_server_decode_without_its_retired_keys() {
        // Servers from before the measured-cost store was removed send three
        // more counters in every cache table, sorted ahead of the others.
        // The decoder reads the keys it knows and ignores the rest, so such
        // a reply decodes to the report the same server sends today. (The
        // retired prefix is spelled in halves so that the removed store's
        // name is found only in history.)
        const RETIRED: &str = concat!("calib", "ration");
        let cache = CacheStats {
            marginal_hits: 23,
            models_prepared: 29,
            pool_hits: 38,
            ..CacheStats::default()
        };
        let stats = ServiceStats {
            answered: 7,
            cache,
            ..ServiceStats::default()
        };
        let tenants = vec![("polls".to_string(), 3, cache)];
        let current = encode_stats_response(16, &stats, &tenants);
        let parent = current.replace(
            r#""cache": {"#,
            &format!(
                r#""cache": {{"{RETIRED}_hits": 30, "{RETIRED}_misses": 31, "{RETIRED}_recorded": 32, "#
            ),
        );
        assert_eq!(parent.matches(&format!("{RETIRED}_hits")).count(), 2);
        let Payload::Stats { service, tenants } = read_payload(&parent) else {
            panic!("not a stats payload: {parent}");
        };
        assert_eq!(service, stats);
        assert_same(
            tenants,
            vec![Tenant {
                database: "polls".to_string(),
                version: 3,
                cache,
            }],
        );
    }

    #[test]
    fn metrics_frames_round_trip() {
        assert!(matches!(
            decode_frame(r#"{"id": 8, "kind": "metrics"}"#),
            Inbound::Control(8, Control::Metrics)
        ));
        // The exposition text is multi-line; the frame must still be one.
        let text = "# TYPE ppd_waves counter\nppd_waves 4\n";
        let frame = encode_metrics_response(8, text);
        assert!(!frame.contains('\n'), "frames are single lines: {frame}");
        assert!(matches!(read_payload(&frame), Payload::Metrics(back) if back == text));
    }

    #[test]
    fn trace_frames_round_trip() {
        assert!(matches!(
            decode_frame(r#"{"id": 2, "kind": "trace", "trace": 17}"#),
            Inbound::Control(2, Control::Trace { trace: 17 })
        ));
        assert!(
            matches!(
                decode_frame(r#"{"id": 2, "kind": "trace"}"#),
                Inbound::Submit(Err(_))
            ),
            "a trace frame without a trace id is not recognized"
        );
        // Labels outside their closed set come back as "unknown", not as an
        // error: the timeline is diagnostic output.
        let frame = r#"{"id": 2, "ok": {"kind": "trace", "trace": 17, "events": [
            {"seq": 1, "at_micros": 5, "event": "unit-solved", "unit_hash": 3,
             "solver": "oracle", "micros": 2}]}}"#;
        let Payload::Trace { events, .. } = read_payload(&frame.replace('\n', "")) else {
            panic!("not a trace payload");
        };
        assert!(matches!(
            events[0].event,
            SpanEvent::UnitSolved {
                solver: "unknown",
                ..
            }
        ));
    }

    /// An update with each session as `(attrs, items, φ)`: `Ranking`'s
    /// position map prints in hash order.
    fn plain(update: Update) -> impl Debug {
        let (prelation, index, session) = match update {
            Update::InsertSession { prelation, session } => (prelation, None, Some(session)),
            Update::ReplaceSession {
                prelation,
                index,
                session,
            } => (prelation, Some(index), Some(session)),
            Update::DeleteSession { prelation, index } => (prelation, Some(index), None),
        };
        let session = session.map(|s| {
            let model = s.model();
            (
                s.attrs().to_vec(),
                model.sigma().items().to_vec(),
                model.phi(),
            )
        });
        (prelation, index, session)
    }

    /// Values of a wire type drawn for the round-trip property.
    trait Draw: Sized {
        fn draw(rng: &mut TestRng) -> Self;
    }

    struct Any<T>(std::marker::PhantomData<T>);

    fn any<T: Draw>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Draw> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::draw(rng)
        }
    }

    fn pick<T: Clone>(rng: &mut TestRng, choices: &[T]) -> T {
        choices[rng.below(choices.len() as u64) as usize].clone()
    }

    /// Up to three of `T`.
    fn some<T: Draw>(rng: &mut TestRng) -> Vec<T> {
        (0..rng.below(4)).map(|_| T::draw(rng)).collect()
    }

    /// A probability-like float in `[0, 1)`, all 53 bits used.
    fn unit(rng: &mut TestRng) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    impl Draw for u64 {
        fn draw(rng: &mut TestRng) -> Self {
            match rng.below(3) {
                0 => rng.below(4),
                1 => u64::MAX - rng.below(2),
                _ => rng.next_u64(),
            }
        }
    }

    impl Draw for usize {
        fn draw(rng: &mut TestRng) -> Self {
            u64::draw(rng) as usize
        }
    }

    impl Draw for f64 {
        fn draw(rng: &mut TestRng) -> Self {
            loop {
                let x = match rng.below(3) {
                    0 => pick(rng, &[0.0, -0.0, 1.0, f64::MIN_POSITIVE, 0.1 + 0.2]),
                    1 => unit(rng),
                    _ => f64::from_bits(rng.next_u64()),
                };
                if x.is_finite() {
                    return x;
                }
            }
        }
    }

    impl Draw for String {
        fn draw(rng: &mut TestRng) -> Self {
            let palette = [
                'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '😀',
            ];
            (0..rng.below(6)).map(|_| pick(rng, &palette)).collect()
        }
    }

    impl<A: Draw, B: Draw> Draw for (A, B) {
        fn draw(rng: &mut TestRng) -> Self {
            (A::draw(rng), B::draw(rng))
        }
    }

    impl<T: Draw> Draw for Vec<T> {
        fn draw(rng: &mut TestRng) -> Self {
            some(rng)
        }
    }

    impl Draw for Duration {
        fn draw(rng: &mut TestRng) -> Self {
            Duration::from_nanos(u64::draw(rng))
        }
    }

    impl Draw for PpdValue {
        fn draw(rng: &mut TestRng) -> Self {
            match rng.below(3) {
                0 => PpdValue::Null,
                1 => PpdValue::Str(String::draw(rng)),
                _ => PpdValue::Int(rng.next_u64() as i64),
            }
        }
    }

    impl Draw for Term {
        fn draw(rng: &mut TestRng) -> Self {
            match rng.below(3) {
                0 => Term::Wildcard,
                1 => Term::Var(String::draw(rng)),
                _ => Term::Const(PpdValue::draw(rng)),
            }
        }
    }

    impl Draw for ConjunctiveQuery {
        fn draw(rng: &mut TestRng) -> Self {
            use CompareOp::*;
            let mut query = ConjunctiveQuery::new(String::draw(rng));
            for _ in 0..rng.below(3) {
                let sessions = some(rng);
                query = query.prefer(
                    String::draw(rng),
                    sessions,
                    Term::draw(rng),
                    Term::draw(rng),
                );
            }
            for _ in 0..rng.below(3) {
                query = query.atom(String::draw(rng), some(rng));
            }
            for _ in 0..rng.below(3) {
                let op = pick(rng, &[Eq, Ne, Lt, Le, Gt, Ge]);
                query = query.compare(String::draw(rng), op, PpdValue::draw(rng));
            }
            query
        }
    }

    impl Draw for Request {
        fn draw(rng: &mut TestRng) -> Self {
            let query = ConjunctiveQuery::draw(rng);
            match rng.below(4) {
                0 => Request::Boolean(query),
                1 => Request::Count(query),
                2 => Request::SessionProbabilities(query),
                _ => Request::TopK {
                    query,
                    k: usize::draw(rng),
                    strategy: match rng.below(2) {
                        0 => TopKStrategy::Naive,
                        _ => TopKStrategy::UpperBound {
                            edges_per_pattern: usize::draw(rng),
                        },
                    },
                },
            }
        }
    }

    impl Draw for SubmitOptions {
        fn draw(rng: &mut TestRng) -> Self {
            let mut options = pick(rng, &[SubmitOptions::interactive(), SubmitOptions::batch()]);
            if rng.below(2) == 0 {
                options = options.on_database(String::draw(rng));
            }
            if rng.below(2) == 0 {
                options = options.with_deadline(Duration::from_millis(u64::draw(rng)));
            }
            if rng.below(2) == 0 {
                // ε: any positive finite float; confidence: inside (0, 1).
                let epsilon = f64::from_bits(1 + rng.below(f64::INFINITY.to_bits() - 1));
                let confidence = (1 + rng.below((1 << 53) - 1)) as f64 / (1u64 << 53) as f64;
                options = options.with_error_budget(epsilon, confidence);
            }
            options
        }
    }

    impl Draw for Session {
        fn draw(rng: &mut TestRng) -> Self {
            let mut items: Vec<u32> = (0..1 + rng.below(6) as u32).collect();
            for i in (1..items.len()).rev() {
                items.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let model = MallowsModel::new(Ranking::new(items).unwrap(), unit(rng)).unwrap();
            Session::new(some(rng), model)
        }
    }

    impl Draw for Update {
        fn draw(rng: &mut TestRng) -> Self {
            let prelation = String::draw(rng);
            match rng.below(3) {
                0 => Update::InsertSession {
                    prelation,
                    session: Session::draw(rng),
                },
                1 => Update::ReplaceSession {
                    prelation,
                    index: usize::draw(rng),
                    session: Session::draw(rng),
                },
                _ => Update::DeleteSession {
                    prelation,
                    index: usize::draw(rng),
                },
            }
        }
    }

    impl Draw for SessionScore {
        fn draw(rng: &mut TestRng) -> Self {
            SessionScore {
                session_index: usize::draw(rng),
                probability: f64::draw(rng),
            }
        }
    }

    impl Draw for Delivery {
        fn draw(rng: &mut TestRng) -> Self {
            match rng.below(12) {
                0 => Ok(Answer::Boolean(f64::draw(rng))),
                1 => Ok(Answer::Count(f64::draw(rng))),
                2 => Ok(Answer::SessionProbabilities(some(rng))),
                3 => Ok(Answer::TopK(some(rng))),
                4 => Ok(Answer::Updated {
                    version: u64::draw(rng),
                    invalidated: u64::draw(rng),
                }),
                5 => Err(ServiceError::Overloaded {
                    depth: usize::draw(rng),
                }),
                6 => Err(ServiceError::UnknownDatabase(String::draw(rng))),
                7 => Err(ServiceError::Protocol(String::draw(rng))),
                // The one evaluation error whose text is not lossy.
                8 => Err(ServiceError::Eval(PpdError::Cancelled)),
                _ => Err(pick(
                    rng,
                    &[
                        ServiceError::ShuttingDown,
                        ServiceError::DeadlineExceeded,
                        ServiceError::Disconnected,
                    ],
                )),
            }
        }
    }

    impl Draw for CacheStats {
        fn draw(rng: &mut TestRng) -> Self {
            let mut n = || u64::draw(rng);
            CacheStats {
                marginal_hits: n(),
                marginal_misses: n(),
                marginal_evictions: n(),
                marginal_evicted_bytes: n(),
                marginals_loaded: n(),
                marginals_saved: n(),
                models_prepared: n(),
                units_invalidated: n(),
                segment_live_bytes: n(),
                segment_dead_bytes: n(),
                compactions: n(),
                pools_built: n(),
                pool_hits: n(),
            }
        }
    }

    impl Draw for ServiceStats {
        fn draw(rng: &mut TestRng) -> Self {
            ServiceStats {
                submitted: u64::draw(rng),
                rejected: u64::draw(rng),
                interactive_submitted: u64::draw(rng),
                interactive_rejected: u64::draw(rng),
                batch_submitted: u64::draw(rng),
                batch_rejected: u64::draw(rng),
                answered: u64::draw(rng),
                failed: u64::draw(rng),
                expired: u64::draw(rng),
                updates_applied: u64::draw(rng),
                queue_depth: usize::draw(rng),
                interactive_queue_depth: usize::draw(rng),
                batch_queue_depth: usize::draw(rng),
                uptime: Duration::draw(rng),
                in_flight_waves: u64::draw(rng),
                waves: u64::draw(rng),
                max_wave: usize::draw(rng),
                wave_sizes: some(rng),
                mean_latency: Duration::draw(rng),
                max_latency: Duration::draw(rng),
                cache: CacheStats::draw(rng),
            }
        }
    }

    impl Draw for SpanEvent {
        fn draw(rng: &mut TestRng) -> Self {
            let micros = u64::draw(rng);
            match rng.below(7) {
                0 => SpanEvent::Admitted {
                    tenant: String::draw(rng),
                    class: pick(rng, &["interactive", "batch"]),
                    depth: usize::draw(rng),
                },
                1 => SpanEvent::WaveJoined {
                    wave_units: usize::draw(rng),
                    units: usize::draw(rng),
                    cached: usize::draw(rng),
                },
                2 => SpanEvent::UnitSolved {
                    unit_hash: u64::draw(rng),
                    solver: pick(rng, &Label::KNOWN[2..6]),
                    micros,
                },
                3 => SpanEvent::Delivered { micros },
                4 => SpanEvent::Expired { micros },
                5 => SpanEvent::Cancelled { micros },
                _ => SpanEvent::Failed {
                    error_kind: pick(rng, &Label::KNOWN[6..]),
                    micros,
                },
            }
        }
    }

    impl Draw for SpanRecord {
        fn draw(rng: &mut TestRng) -> Self {
            SpanRecord {
                trace: 0,
                seq: u64::draw(rng),
                at_micros: u64::draw(rng),
                event: SpanEvent::draw(rng),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// decode(encode(x)) == x, bit for bit, for every wire type, through
        /// the frames that carry it and the same parse and decode the server
        /// and the client run.
        #[test]
        fn every_wire_type_round_trips_bit_for_bit(
            (id, request, options, update) in (any::<u64>(), any::<Request>(), any::<SubmitOptions>(), any::<Update>()),
            (delivery, version, trace) in (any::<Delivery>(), any::<u64>(), any::<u64>()),
            (service, tenants, text, events) in (any::<ServiceStats>(), any::<Vec<(String, (u64, CacheStats))>>(), any::<String>(), any::<Vec<SpanRecord>>()),
        ) {
            let frame = encode_request(id, &request, &options);
            assert_same(decode_query_frame(&frame).unwrap(), (id, request, options.clone()));

            // Update frames carry the options but never a budget.
            let frame = encode_update_request(id, &update, &options);
            let routed = SubmitOptions { error_budget: None, ..options };
            let (back_id, back, back_options) = decode_update_frame(&frame).unwrap();
            assert_same((back_id, plain(back), back_options), (id, plain(update), routed));

            let frame = encode_response(id, &delivery, version, trace);
            let stamp = ((version > 0).then_some(version), trace);
            assert_same(read_response(&frame).unwrap(), (id, delivery, stamp.0, stamp.1));

            let tenants = (tenants.into_iter())
                .map(|(database, (version, cache))| Tenant { database, version, cache })
                .collect();
            for payload in [
                Payload::Stats { service, tenants },
                Payload::Metrics(text),
                Payload::Trace { trace, events },
            ] {
                assert_same(read_payload(&encode_reply(id, &payload)), payload);
            }

            for control in [Control::Stats, Control::Metrics, Control::Trace { trace }] {
                let frame = frame_line(id, [control.encode()]);
                let Inbound::Control(back_id, back) = decode_frame(&frame) else {
                    panic!("not a control frame: {frame}");
                };
                assert_same((back_id, back), (id, control));
            }
        }
    }

    /// The replies to frames that never reach admission, captured from the
    /// server as it stood when every decoder re-parsed the frame itself
    /// (PR 11): the single parse must answer each one with the same bytes.
    #[test]
    fn malformed_frames_are_answered_with_the_same_bytes_as_before() {
        let golden = [
            (
                "not json",
                r#"{"err": {"detail": "json error: invalid literal at byte 0 (expected null)", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"id": 1"#,
                r#"{"err": {"detail": "json error: expected ',' or '}' at byte 9", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                "[1, 2]",
                r#"{"err": {"detail": "missing numeric `id`", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"kind": "boolean", "query": {"name": "q"}}"#,
                r#"{"err": {"detail": "missing numeric `id`", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"id": 3, "query": {"name": "q"}}"#,
                r#"{"err": {"detail": "missing `kind`", "kind": "protocol"}, "id": 3}"#,
            ),
            (
                r#"{"id": 3, "kind": "nope", "query": {"name": "q"}}"#,
                r#"{"err": {"detail": "unknown request kind `nope`", "kind": "protocol"}, "id": 3}"#,
            ),
            (
                r#"{"id": 12, "kind": 5, "query": {"name": "q"}}"#,
                r#"{"err": {"detail": "missing `kind`", "kind": "protocol"}, "id": 12}"#,
            ),
            (
                r#"{"id": 4, "kind": "boolean"}"#,
                r#"{"err": {"detail": "missing `query`", "kind": "protocol"}, "id": 4}"#,
            ),
            // Control frames without their id (or trace id) are not
            // recognized and fall through to the query decoder.
            (
                r#"{"kind": "stats"}"#,
                r#"{"err": {"detail": "missing numeric `id`", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"id": -1, "kind": "stats"}"#,
                r#"{"err": {"detail": "missing numeric `id`", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"kind": "metrics"}"#,
                r#"{"err": {"detail": "missing numeric `id`", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"id": 5, "kind": "trace"}"#,
                r#"{"err": {"detail": "missing `query`", "kind": "protocol"}, "id": 5}"#,
            ),
            (
                r#"{"kind": "trace", "trace": 3}"#,
                r#"{"err": {"detail": "missing numeric `id`", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"id": 7, "kind": "update", "op": "warp", "prelation": "Polls"}"#,
                r#"{"err": {"detail": "update `op` must be insert, replace, or delete", "kind": "protocol"}, "id": 7}"#,
            ),
            (
                r#"{"kind": "update", "op": "delete", "prelation": "Polls", "index": 0}"#,
                r#"{"err": {"detail": "missing numeric `id`", "kind": "protocol"}, "id": 0}"#,
            ),
            (
                r#"{"id": 8, "kind": "update"}"#,
                r#"{"err": {"detail": "updates need a string `prelation`", "kind": "protocol"}, "id": 8}"#,
            ),
            (
                r#"{"id": 9, "kind": "boolean", "query": {"name": "q"}, "epsilon": 0.01}"#,
                r#"{"err": {"detail": "`epsilon` and `confidence` must be given together", "kind": "protocol"}, "id": 9}"#,
            ),
            (
                r#"{"id": 10, "kind": "topk", "query": {"name": "q"}}"#,
                r#"{"err": {"detail": "topk requests need a numeric `k`", "kind": "protocol"}, "id": 10}"#,
            ),
            (
                r#"{"id": 11, "kind": "boolean", "query": {"name": "q"}, "class": "vip"}"#,
                r#"{"err": {"detail": "unknown admission class `vip`", "kind": "protocol"}, "id": 11}"#,
            ),
        ];
        for (frame, expected) in golden {
            // The read loop hands frames over with their newline on.
            let (id, message) = decode_submission(&format!("{frame}\n")).expect_err(frame);
            assert_eq!(protocol_error_frame(id, message), expected, "{frame}");
        }
        // 100,000 nested arrays on one line (≈ 100 kB): a protocol error, not
        // a parser recursing until the connection thread's stack overflows
        // and aborts the process (it did before the nesting cap).
        let bomb = format!("{}\n", "[".repeat(100_000));
        let (id, message) = decode_submission(&bomb).expect_err("nested too deep");
        assert_eq!(
            protocol_error_frame(id, message),
            r#"{"err": {"detail": "json error: recursion limit exceeded at byte 128", "kind": "protocol"}, "id": 0}"#
        );
        // A trace frame is a trace frame whatever else it carries.
        assert!(matches!(
            decode_frame(r#"{"id": 6, "kind": "trace", "trace": 3, "query": {"name": "q"}}"#),
            Inbound::Control(6, Control::Trace { trace: 3 })
        ));
    }

    /// The exact bytes of every encoded frame kind, captured from the codec
    /// as it stood at PR 24 (hand-paired `*_to_json` / `*_from_json`), before
    /// the field-table codec replaced it. The wire's bit pin: never edit an
    /// expected string here to make a codec change pass.
    #[test]
    fn encoded_frames_match_the_bytes_captured_before_the_table_codec() {
        let query = ConjunctiveQuery::new("golden")
            .prefer(
                "Polls",
                vec![Term::var("v"), Term::any(), Term::Const(PpdValue::Null)],
                Term::var("x"),
                Term::val("cand \"1\"\n"),
            )
            .prefer("Polls", vec![], Term::val(7i64), Term::var("y"))
            .atom(
                "Candidates",
                vec![Term::var("x"), Term::var("party"), Term::any()],
            )
            .atom("Empty", vec![])
            .compare("party", CompareOp::Eq, "blue")
            .compare("party", CompareOp::Ne, PpdValue::Null)
            .compare("year", CompareOp::Lt, PpdValue::Int(-3))
            .compare("year", CompareOp::Le, PpdValue::Int(1990))
            .compare("year", CompareOp::Gt, "1980")
            .compare("year", CompareOp::Ge, PpdValue::Int(i64::MAX));
        let every = SubmitOptions::batch()
            .on_database("polls")
            .with_deadline(Duration::from_millis(250))
            .with_error_budget(0.01, 0.95);
        let none = SubmitOptions::default();
        let upper = TopKStrategy::UpperBound {
            edges_per_pattern: 2,
        };
        let session = Session::new(
            vec![
                PpdValue::Str("v9".into()),
                PpdValue::Int(-4),
                PpdValue::Null,
            ],
            MallowsModel::new(Ranking::new(vec![2, 0, 1]).unwrap(), 0.3).unwrap(),
        );
        let insert = Update::InsertSession {
            prelation: "Polls".into(),
            session: session.clone(),
        };
        let replace = Update::ReplaceSession {
            prelation: "Polls".into(),
            index: 5,
            session,
        };
        let delete = Update::DeleteSession {
            prelation: "Polls".into(),
            index: 2,
        };
        let answers = [
            Answer::Boolean(0.1 + 0.2),
            Answer::Count(f64::MIN_POSITIVE),
            Answer::SessionProbabilities(vec![(0, 0.25), (7, 1e-300)]),
            Answer::SessionProbabilities(vec![]),
            Answer::TopK(vec![
                SessionScore {
                    session_index: 3,
                    probability: 2.0 / 3.0,
                },
                SessionScore {
                    session_index: 1,
                    probability: 1.0,
                },
            ]),
            Answer::Updated {
                version: 7,
                invalidated: 12,
            },
        ];
        let pattern = ppd_patterns::PatternError::CyclicPattern;
        let rim = ppd_rim::RimError::InvalidPhi(1.5);
        let solver = ppd_solvers::SolverError::Unsupported("wide".into());
        let errors = [
            ServiceError::Overloaded { depth: 17 },
            ServiceError::ShuttingDown,
            ServiceError::UnknownDatabase("polls".into()),
            ServiceError::DeadlineExceeded,
            ServiceError::Protocol("bad \"frame\"".into()),
            ServiceError::Disconnected,
            ServiceError::Eval(PpdError::UnknownName("R".into())),
            ServiceError::Eval(PpdError::Malformed("arity".into())),
            ServiceError::Eval(PpdError::UnsupportedQuery("mixed".into())),
            ServiceError::Eval(PpdError::Pattern(pattern)),
            ServiceError::Eval(PpdError::Rim(rim)),
            ServiceError::Eval(PpdError::Solver(solver)),
            ServiceError::Eval(PpdError::Persist("bad magic".into())),
            ServiceError::Eval(PpdError::Cancelled),
        ];
        let stats = ServiceStats {
            submitted: 1,
            rejected: 2,
            interactive_submitted: 3,
            interactive_rejected: 4,
            batch_submitted: 5,
            batch_rejected: 6,
            answered: 7,
            failed: 8,
            expired: 9,
            updates_applied: 10,
            queue_depth: 11,
            interactive_queue_depth: 12,
            batch_queue_depth: 13,
            uptime: Duration::from_nanos(14_000_000_015),
            in_flight_waves: 16,
            waves: 17,
            max_wave: 18,
            wave_sizes: vec![(1, 19), (18, 20)],
            mean_latency: Duration::from_nanos(21),
            max_latency: Duration::from_micros(22),
            cache: CacheStats {
                marginal_hits: 23,
                marginal_misses: 24,
                marginal_evictions: 25,
                marginal_evicted_bytes: 26,
                marginals_loaded: 27,
                marginals_saved: 28,
                models_prepared: 29,
                units_invalidated: 33,
                segment_live_bytes: 34,
                segment_dead_bytes: 35,
                compactions: 36,
                pools_built: 37,
                pool_hits: 38,
            },
        };
        let tenants = vec![
            ("polls".to_string(), 3, stats.cache),
            ("movies".to_string(), 1, CacheStats::default()),
        ];
        let span = |seq: u64, event: SpanEvent| SpanRecord {
            trace: 17,
            seq,
            at_micros: seq * 10,
            event,
        };
        let events = [
            span(
                1,
                SpanEvent::Admitted {
                    tenant: "polls".into(),
                    class: "batch",
                    depth: 2,
                },
            ),
            span(
                2,
                SpanEvent::WaveJoined {
                    wave_units: 6,
                    units: 3,
                    cached: 1,
                },
            ),
            span(
                3,
                SpanEvent::UnitSolved {
                    unit_hash: u64::MAX,
                    solver: "mis-amp",
                    micros: 15,
                },
            ),
            span(4, SpanEvent::Delivered { micros: 40 }),
            span(5, SpanEvent::Expired { micros: 50 }),
            span(6, SpanEvent::Cancelled { micros: 60 }),
            span(
                7,
                SpanEvent::Failed {
                    error_kind: "solver",
                    micros: 70,
                },
            ),
        ];
        let mut encoded = vec![
            encode_request(1, &Request::Boolean(query.clone()), &every),
            encode_request(2, &Request::Count(query.clone()), &every),
            encode_request(3, &Request::SessionProbabilities(query.clone()), &every),
            encode_request(
                4,
                &Request::TopK {
                    query: query.clone(),
                    k: 5,
                    strategy: upper,
                },
                &every,
            ),
            encode_request(5, &Request::Boolean(ConjunctiveQuery::new("q")), &none),
            encode_request(
                6,
                &Request::TopK {
                    query: ConjunctiveQuery::new("q"),
                    k: 1,
                    strategy: TopKStrategy::Naive,
                },
                &none,
            ),
            encode_update_request(7, &insert, &every),
            encode_update_request(8, &replace, &none),
            encode_update_request(9, &delete, &SubmitOptions::batch()),
        ];
        for answer in &answers {
            encoded.push(encode_response(10, &Ok(answer.clone()), 0, 0));
            encoded.push(encode_response(11, &Ok(answer.clone()), 3, 9));
        }
        encoded.push(encode_response(12, &Ok(Answer::Boolean(0.5)), 4, 0));
        encoded.push(encode_response(13, &Ok(Answer::Boolean(0.5)), 0, 5));
        for error in &errors {
            encoded.push(encode_response(14, &Err(error.clone()), 0, 0));
        }
        encoded.push(encode_response(15, &Err(ServiceError::ShuttingDown), 2, 8));
        encoded.push(encode_stats_response(16, &stats, &tenants));
        encoded.push(encode_stats_response(17, &ServiceStats::default(), &[]));
        encoded.push(encode_metrics_response(
            18,
            "# TYPE ppd_waves counter\nppd_waves 4\n",
        ));
        encoded.push(encode_trace_response(19, 17, &events));
        encoded.push(encode_trace_response(20, 99, &[]));
        let golden: &[&str] = &[
            r##"{"class": "batch", "confidence": 0.95, "database": "polls", "deadline_ms": 250, "epsilon": 0.01, "id": 1, "kind": "boolean", "query": {"atoms": [{"relation": "Candidates", "terms": [{"var": "x"}, {"var": "party"}, "_"]}, {"relation": "Empty", "terms": []}], "compare": [{"op": "=", "value": "blue", "var": "party"}, {"op": "!=", "value": null, "var": "party"}, {"op": "<", "value": -3, "var": "year"}, {"op": "<=", "value": 1990, "var": "year"}, {"op": ">", "value": "1980", "var": "year"}, {"op": ">=", "value": 9223372036854775807, "var": "year"}], "name": "golden", "prefer": [{"left": {"var": "x"}, "relation": "Polls", "right": {"val": "cand \"1\"\n"}, "sessions": [{"var": "v"}, "_", {"val": null}]}, {"left": {"val": 7}, "relation": "Polls", "right": {"var": "y"}, "sessions": []}]}}"##,
            r##"{"class": "batch", "confidence": 0.95, "database": "polls", "deadline_ms": 250, "epsilon": 0.01, "id": 2, "kind": "count", "query": {"atoms": [{"relation": "Candidates", "terms": [{"var": "x"}, {"var": "party"}, "_"]}, {"relation": "Empty", "terms": []}], "compare": [{"op": "=", "value": "blue", "var": "party"}, {"op": "!=", "value": null, "var": "party"}, {"op": "<", "value": -3, "var": "year"}, {"op": "<=", "value": 1990, "var": "year"}, {"op": ">", "value": "1980", "var": "year"}, {"op": ">=", "value": 9223372036854775807, "var": "year"}], "name": "golden", "prefer": [{"left": {"var": "x"}, "relation": "Polls", "right": {"val": "cand \"1\"\n"}, "sessions": [{"var": "v"}, "_", {"val": null}]}, {"left": {"val": 7}, "relation": "Polls", "right": {"var": "y"}, "sessions": []}]}}"##,
            r##"{"class": "batch", "confidence": 0.95, "database": "polls", "deadline_ms": 250, "epsilon": 0.01, "id": 3, "kind": "session_probabilities", "query": {"atoms": [{"relation": "Candidates", "terms": [{"var": "x"}, {"var": "party"}, "_"]}, {"relation": "Empty", "terms": []}], "compare": [{"op": "=", "value": "blue", "var": "party"}, {"op": "!=", "value": null, "var": "party"}, {"op": "<", "value": -3, "var": "year"}, {"op": "<=", "value": 1990, "var": "year"}, {"op": ">", "value": "1980", "var": "year"}, {"op": ">=", "value": 9223372036854775807, "var": "year"}], "name": "golden", "prefer": [{"left": {"var": "x"}, "relation": "Polls", "right": {"val": "cand \"1\"\n"}, "sessions": [{"var": "v"}, "_", {"val": null}]}, {"left": {"val": 7}, "relation": "Polls", "right": {"var": "y"}, "sessions": []}]}}"##,
            r##"{"class": "batch", "confidence": 0.95, "database": "polls", "deadline_ms": 250, "epsilon": 0.01, "id": 4, "k": 5, "kind": "topk", "query": {"atoms": [{"relation": "Candidates", "terms": [{"var": "x"}, {"var": "party"}, "_"]}, {"relation": "Empty", "terms": []}], "compare": [{"op": "=", "value": "blue", "var": "party"}, {"op": "!=", "value": null, "var": "party"}, {"op": "<", "value": -3, "var": "year"}, {"op": "<=", "value": 1990, "var": "year"}, {"op": ">", "value": "1980", "var": "year"}, {"op": ">=", "value": 9223372036854775807, "var": "year"}], "name": "golden", "prefer": [{"left": {"var": "x"}, "relation": "Polls", "right": {"val": "cand \"1\"\n"}, "sessions": [{"var": "v"}, "_", {"val": null}]}, {"left": {"val": 7}, "relation": "Polls", "right": {"var": "y"}, "sessions": []}]}, "strategy": {"upper_bound": 2}}"##,
            r##"{"class": "interactive", "id": 5, "kind": "boolean", "query": {"atoms": [], "compare": [], "name": "q", "prefer": []}}"##,
            r##"{"class": "interactive", "id": 6, "k": 1, "kind": "topk", "query": {"atoms": [], "compare": [], "name": "q", "prefer": []}, "strategy": "naive"}"##,
            r##"{"class": "batch", "database": "polls", "deadline_ms": 250, "id": 7, "kind": "update", "op": "insert", "prelation": "Polls", "session": {"attrs": ["v9", -4, null], "phi": 0.3, "ranking": [2, 0, 1]}}"##,
            r##"{"class": "interactive", "id": 8, "index": 5, "kind": "update", "op": "replace", "prelation": "Polls", "session": {"attrs": ["v9", -4, null], "phi": 0.3, "ranking": [2, 0, 1]}}"##,
            r##"{"class": "batch", "id": 9, "index": 2, "kind": "update", "op": "delete", "prelation": "Polls"}"##,
            r##"{"id": 10, "ok": {"kind": "boolean", "value": 0.30000000000000004}}"##,
            r##"{"id": 11, "ok": {"kind": "boolean", "value": 0.30000000000000004}, "trace": 9, "version": 3}"##,
            r##"{"id": 10, "ok": {"kind": "count", "value": 2.2250738585072014e-308}}"##,
            r##"{"id": 11, "ok": {"kind": "count", "value": 2.2250738585072014e-308}, "trace": 9, "version": 3}"##,
            r##"{"id": 10, "ok": {"kind": "session_probabilities", "sessions": [[0, 0.25], [7, 1e-300]]}}"##,
            r##"{"id": 11, "ok": {"kind": "session_probabilities", "sessions": [[0, 0.25], [7, 1e-300]]}, "trace": 9, "version": 3}"##,
            r##"{"id": 10, "ok": {"kind": "session_probabilities", "sessions": []}}"##,
            r##"{"id": 11, "ok": {"kind": "session_probabilities", "sessions": []}, "trace": 9, "version": 3}"##,
            r##"{"id": 10, "ok": {"kind": "topk", "sessions": [[3, 0.6666666666666666], [1, 1.0]]}}"##,
            r##"{"id": 11, "ok": {"kind": "topk", "sessions": [[3, 0.6666666666666666], [1, 1.0]]}, "trace": 9, "version": 3}"##,
            r##"{"id": 10, "ok": {"invalidated": 12, "kind": "updated", "version": 7}}"##,
            r##"{"id": 11, "ok": {"invalidated": 12, "kind": "updated", "version": 7}, "trace": 9, "version": 3}"##,
            r##"{"id": 12, "ok": {"kind": "boolean", "value": 0.5}, "version": 4}"##,
            r##"{"id": 13, "ok": {"kind": "boolean", "value": 0.5}, "trace": 5}"##,
            r##"{"err": {"depth": 17, "kind": "overloaded"}, "id": 14}"##,
            r##"{"err": {"kind": "shutting_down"}, "id": 14}"##,
            r##"{"err": {"detail": "polls", "kind": "unknown_database"}, "id": 14}"##,
            r##"{"err": {"kind": "deadline_exceeded"}, "id": 14}"##,
            r##"{"err": {"detail": "bad \"frame\"", "kind": "protocol"}, "id": 14}"##,
            r##"{"err": {"kind": "disconnected"}, "id": 14}"##,
            r##"{"err": {"detail": "unknown name: R", "error_kind": "unknown-name", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"detail": "malformed input: arity", "error_kind": "malformed", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"detail": "unsupported query: mixed", "error_kind": "unsupported-query", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"detail": "pattern error: pattern graph contains a cycle", "error_kind": "pattern", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"detail": "ranking-model error: Mallows dispersion must be in [0, 1], got 1.5", "error_kind": "rim", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"detail": "solver error: unsupported input: wide", "error_kind": "solver", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"detail": "cache persistence error: bad magic", "error_kind": "persist", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"detail": "query cancelled before evaluation completed", "error_kind": "cancelled", "kind": "eval"}, "id": 14}"##,
            r##"{"err": {"kind": "shutting_down"}, "id": 15, "trace": 8, "version": 2}"##,
            r##"{"id": 16, "ok": {"kind": "stats", "service": {"answered": 7, "batch_queue_depth": 13, "batch_rejected": 6, "batch_submitted": 5, "cache": {"compactions": 36, "marginal_evicted_bytes": 26, "marginal_evictions": 25, "marginal_hits": 23, "marginal_misses": 24, "marginals_loaded": 27, "marginals_saved": 28, "models_prepared": 29, "pool_hits": 38, "pools_built": 37, "segment_dead_bytes": 35, "segment_live_bytes": 34, "units_invalidated": 33}, "expired": 9, "failed": 8, "in_flight_waves": 16, "interactive_queue_depth": 12, "interactive_rejected": 4, "interactive_submitted": 3, "max_latency_ns": 22000, "max_wave": 18, "mean_latency_ns": 21, "queue_depth": 11, "rejected": 2, "submitted": 1, "updates_applied": 10, "uptime_ns": 14000000015, "wave_sizes": [[1, 19], [18, 20]], "waves": 17}, "tenants": [{"cache": {"compactions": 36, "marginal_evicted_bytes": 26, "marginal_evictions": 25, "marginal_hits": 23, "marginal_misses": 24, "marginals_loaded": 27, "marginals_saved": 28, "models_prepared": 29, "pool_hits": 38, "pools_built": 37, "segment_dead_bytes": 35, "segment_live_bytes": 34, "units_invalidated": 33}, "database": "polls", "version": 3}, {"cache": {"compactions": 0, "marginal_evicted_bytes": 0, "marginal_evictions": 0, "marginal_hits": 0, "marginal_misses": 0, "marginals_loaded": 0, "marginals_saved": 0, "models_prepared": 0, "pool_hits": 0, "pools_built": 0, "segment_dead_bytes": 0, "segment_live_bytes": 0, "units_invalidated": 0}, "database": "movies", "version": 1}]}}"##,
            r##"{"id": 17, "ok": {"kind": "stats", "service": {"answered": 0, "batch_queue_depth": 0, "batch_rejected": 0, "batch_submitted": 0, "cache": {"compactions": 0, "marginal_evicted_bytes": 0, "marginal_evictions": 0, "marginal_hits": 0, "marginal_misses": 0, "marginals_loaded": 0, "marginals_saved": 0, "models_prepared": 0, "pool_hits": 0, "pools_built": 0, "segment_dead_bytes": 0, "segment_live_bytes": 0, "units_invalidated": 0}, "expired": 0, "failed": 0, "in_flight_waves": 0, "interactive_queue_depth": 0, "interactive_rejected": 0, "interactive_submitted": 0, "max_latency_ns": 0, "max_wave": 0, "mean_latency_ns": 0, "queue_depth": 0, "rejected": 0, "submitted": 0, "updates_applied": 0, "uptime_ns": 0, "wave_sizes": [], "waves": 0}, "tenants": []}}"##,
            r##"{"id": 18, "ok": {"kind": "metrics", "text": "# TYPE ppd_waves counter\nppd_waves 4\n"}}"##,
            r##"{"id": 19, "ok": {"events": [{"at_micros": 10, "class": "batch", "depth": 2, "event": "admitted", "seq": 1, "tenant": "polls"}, {"at_micros": 20, "cached": 1, "event": "wave-joined", "seq": 2, "units": 3, "wave_units": 6}, {"at_micros": 30, "event": "unit-solved", "micros": 15, "seq": 3, "solver": "mis-amp", "unit_hash": 18446744073709551615}, {"at_micros": 40, "event": "delivered", "micros": 40, "seq": 4}, {"at_micros": 50, "event": "expired", "micros": 50, "seq": 5}, {"at_micros": 60, "event": "cancelled", "micros": 60, "seq": 6}, {"at_micros": 70, "error_kind": "solver", "event": "failed", "micros": 70, "seq": 7}], "kind": "trace", "trace": 17}}"##,
            r##"{"id": 20, "ok": {"events": [], "kind": "trace", "trace": 99}}"##,
        ];
        assert_eq!(encoded.len(), golden.len());
        for (frame, expected) in encoded.iter().zip(golden) {
            assert_eq!(frame, expected);
        }
    }

    /// Counts `write` calls and keeps what they carried.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WireStream for CountingWriter {
        fn duplicate(&self) -> io::Result<Self> {
            unreachable!("the double is only written to")
        }
        fn configure_accepted(&self) -> io::Result<()> {
            Ok(())
        }
        fn close(&self) {}
    }

    impl Read for CountingWriter {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write_newline_included() {
        // Server side: a response line.
        let response = encode_response(7, &Ok(Answer::Boolean(0.25)), 2, 0);
        let writer = Arc::new(Mutex::new(CountingWriter::default()));
        write_line(&writer, response.clone());
        let sent = writer.lock().unwrap();
        assert_eq!(sent.writes, 1, "a reply and its newline are one segment");
        assert_eq!(sent.bytes, format!("{response}\n").into_bytes());
        drop(sent);

        // Client side: a request frame, through the writer `send` uses.
        let shared = Arc::new(Mutex::new(CountingWriter::default()));
        struct Shared(Arc<Mutex<CountingWriter>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut client = WireClient::from_halves(io::empty(), Shared(Arc::clone(&shared)));
        let request = Request::Boolean(demo_query());
        let id = client.send(&request, &SubmitOptions::default()).unwrap();
        let sent = shared.lock().unwrap();
        assert_eq!(sent.writes, 1, "a request and its newline are one segment");
        assert_eq!(
            sent.bytes,
            format!(
                "{}\n",
                encode_request(id, &request, &SubmitOptions::default())
            )
            .into_bytes()
        );
    }

    #[test]
    fn accepted_tcp_sockets_get_nodelay_and_a_write_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "the OS default is Nagle on");
        accepted.configure_accepted().unwrap();
        assert!(accepted.nodelay().unwrap());
        // (The kernel rounds timeouts to its tick, so only presence is checked.)
        assert!(accepted.write_timeout().unwrap().is_some());
    }
}
