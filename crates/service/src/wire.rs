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
    CacheStats, CompareOp, ConjunctiveQuery, MallowsModel, PpdError, Ranking, Session,
    SessionScore, Term, TopKStrategy, Update, Value as PpdValue,
};
use ppd_obs::{SpanEvent, SpanRecord};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
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

impl WireStream for TcpStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn configure_accepted(&self) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(POLL_INTERVAL))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))?;
        self.set_nodelay(true)
    }
    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

#[cfg(unix)]
impl WireStream for UnixStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn configure_accepted(&self) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(POLL_INTERVAL))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))
    }
    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

trait WireListener: Send + 'static {
    type Stream: WireStream;
    fn accept_stream(&self) -> io::Result<Self::Stream>;
    /// Nonblocking mode is what keeps the accept loop joinable: accepts
    /// return `WouldBlock` instead of parking the thread forever.
    fn set_nonblocking_mode(&self) -> io::Result<()>;
}

impl WireListener for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }
    fn set_nonblocking_mode(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }
}

#[cfg(unix)]
impl WireListener for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.accept().map(|(stream, _)| stream)
    }
    fn set_nonblocking_mode(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }
}

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
        let mut server = WireServer::start(listener, service);
        server.tcp_addr = tcp_addr;
        Ok(server)
    }

    /// Binds a Unix-domain socket at `path` (unlinked again on shutdown)
    /// and starts serving `service` over it.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>, service: Arc<Service>) -> io::Result<WireServer> {
        let path = path.into();
        let listener = UnixListener::bind(&path)?;
        let mut server = WireServer::start(listener, service);
        server.unix_path = Some(path);
        Ok(server)
    }

    /// The TCP address actually bound, for clients of a port-0 listener.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    fn start<L: WireListener>(listener: L, service: Arc<Service>) -> WireServer {
        listener
            .set_nonblocking_mode()
            .expect("set wire listener nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("ppd-wire-accept".into())
                .spawn(move || accept_loop(listener, service, stop, connections))
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

fn accept_loop<L: WireListener>(
    listener: L,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // Nonblocking accept + sleep keeps shutdown bounded without signals.
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept_stream() {
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
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(POLL_INTERVAL);
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
    let mut line = String::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: client hung up.
            Ok(_) => {
                if !line.ends_with('\n') {
                    continue; // Timed out mid-line; keep the partial read.
                }
                let frame = std::mem::take(&mut line);
                if !frame.trim().is_empty() {
                    handle_frame(&frame, service, &writer, &in_flight);
                }
            }
            // A read timeout surfaces as WouldBlock (Unix) or TimedOut;
            // partial bytes, if any, are already appended to `line`.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
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
        Inbound::Stats { id } => {
            let tenants: Vec<(String, u64, CacheStats)> = service
                .database_ids()
                .iter()
                .map(|id| {
                    let stats = service
                        .engine_for(id)
                        .expect("listed database resolves")
                        .cache_stats();
                    let version = service
                        .database_version(id)
                        .expect("listed database resolves");
                    (id.to_string(), version, stats)
                })
                .collect();
            write_line(
                writer,
                encode_stats_response(id, &service.stats(), &tenants),
            );
        }
        Inbound::Metrics { id } => {
            write_line(writer, encode_metrics_response(id, &service.metrics_text()));
        }
        Inbound::Trace { id, trace } => write_line(
            writer,
            encode_trace_response(id, trace, &service.trace_events(trace)),
        ),
        Inbound::Submit(decoded) => submit_frame(decoded, service, writer, in_flight),
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
    pending: HashMap<u64, (Delivery, Option<u64>, u64)>,
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

    fn write_frame(&mut self, frame: String) -> Result<(), ServiceError> {
        write_frame(&mut self.writer, frame)
            .map_err(|e| ServiceError::Protocol(format!("send failed: {e}")))
    }

    /// Sends one request frame without waiting; returns the frame id to
    /// pass to [`WireClient::recv`].
    pub fn send(
        &mut self,
        request: &Request,
        options: &SubmitOptions,
    ) -> Result<u64, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(id, request, options);
        self.write_frame(frame)?;
        Ok(id)
    }

    /// Sends one update frame without waiting; returns the frame id to
    /// pass to [`WireClient::recv`]. The answer is an [`Answer::Updated`]
    /// receipt ([`WireClient::apply_update`] unwraps it).
    fn send_update(
        &mut self,
        update: &Update,
        options: &SubmitOptions,
    ) -> Result<u64, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_update_request(id, update, options);
        self.write_frame(frame)?;
        Ok(id)
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
        loop {
            if let Some((delivery, version, trace)) = self.pending.remove(&id) {
                return delivery.map(|answer| (answer, version, trace));
            }
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(ServiceError::Disconnected),
                Ok(_) => {
                    let (got, delivery, version, trace) =
                        decode_response(&line).map_err(ServiceError::Protocol)?;
                    self.pending.insert(got, (delivery, version, trace));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
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
        let id = self.send_update(update, options)?;
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
    /// snapshot plus each tenant's own [`CacheStats`] (including the
    /// calibration counters). Pipelined responses for other in-flight
    /// requests that land first are stashed for their own `recv` calls.
    pub fn stats(&mut self) -> Result<WireStatsReport, ServiceError> {
        let payload = self.control_call(vec![("kind", Value::from("stats"))])?;
        decode_stats_payload(&payload).map_err(ServiceError::Protocol)
    }

    /// Fetches the server's metrics exposition: one Prometheus-style text
    /// block covering every registered instrument — counters, gauges, and
    /// histogram buckets. Empty when the server runs with metrics disabled.
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        let payload = self.control_call(vec![("kind", Value::from("metrics"))])?;
        decode_metrics_payload(&payload).map_err(ServiceError::Protocol)
    }

    /// Fetches the still-buffered span timeline of one submission's trace
    /// (the `trace` id returned by [`WireClient::recv_traced`]). Empty for
    /// untraced ids — tracing off, unsampled, or already evicted from the
    /// server's bounded span ring.
    pub fn trace(&mut self, trace: u64) -> Result<Vec<SpanRecord>, ServiceError> {
        let payload = self.control_call(vec![
            ("kind", Value::from("trace")),
            ("trace", Value::from(trace)),
        ])?;
        decode_trace_payload(&payload).map_err(ServiceError::Protocol)
    }

    /// Sends one control frame (`entries` plus the assigned id) and blocks
    /// for its `ok` payload, stashing pipelined query responses that land
    /// first for their own `recv` calls.
    fn control_call(&mut self, mut entries: Vec<(&str, Value)>) -> Result<Value, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        entries.insert(0, ("id", Value::from(id)));
        let frame =
            serde_json::to_string(&object(entries)).expect("control frames always serialize");
        self.write_frame(frame)?;
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(ServiceError::Disconnected),
                Ok(_) => {
                    let value: Value = serde_json::from_str(&line)
                        .map_err(|e| ServiceError::Protocol(e.to_string()))?;
                    if value.get("id").and_then(Value::as_u64) == Some(id) {
                        return value.get("ok").cloned().ok_or_else(|| {
                            ServiceError::Protocol("control request failed".to_string())
                        });
                    }
                    let (got, delivery, version, trace) =
                        decode_response(&line).map_err(ServiceError::Protocol)?;
                    self.pending.insert(got, (delivery, version, trace));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServiceError::Protocol(format!("recv failed: {e}"))),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Codec: frames ⇄ service types
// ---------------------------------------------------------------------------

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Encodes one request frame (no trailing newline).
pub(crate) fn encode_request(id: u64, request: &Request, options: &SubmitOptions) -> String {
    let mut entries = vec![
        ("id", Value::from(id)),
        ("kind", Value::from(request_kind(request))),
        ("query", query_to_json(request.query())),
        ("class", Value::from(options.class.name())),
    ];
    if let Request::TopK { k, strategy, .. } = request {
        entries.push(("k", Value::from(*k as u64)));
        entries.push(("strategy", strategy_to_json(*strategy)));
    }
    if let Some(db) = &options.database {
        entries.push(("database", Value::from(db.as_str())));
    }
    if let Some(deadline) = options.deadline {
        entries.push(("deadline_ms", Value::from(deadline.as_millis() as u64)));
    }
    if let Some(budget) = options.error_budget {
        entries.push(("epsilon", Value::from(budget.epsilon)));
        entries.push(("confidence", Value::from(budget.confidence)));
    }
    serde_json::to_string(&object(entries)).expect("request frames always serialize")
}

/// A decoded inbound frame: id + payload + options on success; on failure
/// the frame id (when at least that much parsed, so the error response can
/// still be correlated) and a message.
type DecodedFrame<T> = Result<(u64, T, SubmitOptions), (Option<u64>, String)>;

/// One inbound frame, parsed once and classified by its `kind`.
enum Inbound {
    /// `{"kind": "stats"}`: the service counters, answered synchronously.
    Stats { id: u64 },
    /// `{"kind": "metrics"}`: the text exposition, answered synchronously.
    Metrics { id: u64 },
    /// `{"kind": "trace", "trace": t}`: one submission's span timeline.
    Trace { id: u64, trace: u64 },
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
    let id = value.get("id").and_then(Value::as_u64);
    let trace = value.get("trace").and_then(Value::as_u64);
    match (value.get("kind").and_then(Value::as_str), id, trace) {
        (Some("stats"), Some(id), _) => Inbound::Stats { id },
        (Some("metrics"), Some(id), _) => Inbound::Metrics { id },
        (Some("trace"), Some(id), Some(trace)) => Inbound::Trace { id, trace },
        (Some("update"), _, _) => Inbound::Submit(
            decode_update(&value).map(|(id, update, options)| (id, Work::Update(update), options)),
        ),
        _ => Inbound::Submit(
            decode_request(&value)
                .map(|(id, request, options)| (id, Work::Query(request), options)),
        ),
    }
}

/// Decodes the fields of one parsed request frame. On failure, returns the
/// frame id when at least that much is there, so the error response can
/// still be correlated.
pub(crate) fn decode_request(value: &Value) -> DecodedFrame<Request> {
    let id = value.get("id").and_then(Value::as_u64);
    let fail = |message: String| (id, message);
    let id = id.ok_or_else(|| (None, "missing numeric `id`".to_string()))?;
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("missing `kind`".to_string()))?;
    let query = query_from_json(
        value
            .get("query")
            .ok_or_else(|| fail("missing `query`".to_string()))?,
    )
    .map_err(&fail)?;
    let request = match kind {
        "boolean" => Request::Boolean(query),
        "count" => Request::Count(query),
        "session_probabilities" => Request::SessionProbabilities(query),
        "topk" => Request::TopK {
            query,
            k: value
                .get("k")
                .and_then(Value::as_u64)
                .ok_or_else(|| fail("topk requests need a numeric `k`".to_string()))?
                as usize,
            strategy: match value.get("strategy") {
                None => TopKStrategy::Naive,
                Some(s) => strategy_from_json(s).map_err(&fail)?,
            },
        },
        other => return Err(fail(format!("unknown request kind `{other}`"))),
    };
    let mut options = SubmitOptions::default();
    match value.get("class").and_then(Value::as_str) {
        None | Some("interactive") => {}
        Some("batch") => options.class = AdmissionClass::Batch,
        Some(other) => return Err(fail(format!("unknown admission class `{other}`"))),
    }
    if let Some(db) = value.get("database") {
        options.database = Some(
            db.as_str()
                .ok_or_else(|| fail("`database` must be a string".to_string()))?
                .to_string(),
        );
    }
    if let Some(ms) = value.get("deadline_ms") {
        options.deadline = Some(Duration::from_millis(ms.as_u64().ok_or_else(|| {
            fail("`deadline_ms` must be a non-negative integer".to_string())
        })?));
    }
    match (value.get("epsilon"), value.get("confidence")) {
        (None, None) => {}
        (Some(eps), Some(conf)) => {
            let epsilon = eps
                .as_f64()
                .filter(|e| e.is_finite() && *e > 0.0)
                .ok_or_else(|| fail("`epsilon` must be a positive number".to_string()))?;
            let confidence = conf
                .as_f64()
                .filter(|c| *c > 0.0 && *c < 1.0)
                .ok_or_else(|| fail("`confidence` must be in (0, 1)".to_string()))?;
            options = options.with_error_budget(epsilon, confidence);
        }
        _ => {
            return Err(fail(
                "`epsilon` and `confidence` must be given together".to_string(),
            ))
        }
    }
    Ok((id, request, options))
}

fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Boolean(_) => "boolean",
        Request::Count(_) => "count",
        Request::SessionProbabilities(_) => "session_probabilities",
        Request::TopK { .. } => "topk",
    }
}

fn strategy_to_json(strategy: TopKStrategy) -> Value {
    match strategy {
        TopKStrategy::Naive => Value::from("naive"),
        TopKStrategy::UpperBound { edges_per_pattern } => {
            object(vec![("upper_bound", Value::from(edges_per_pattern as u64))])
        }
    }
}

fn strategy_from_json(value: &Value) -> Result<TopKStrategy, String> {
    if value.as_str() == Some("naive") {
        return Ok(TopKStrategy::Naive);
    }
    if let Some(edges) = value.get("upper_bound").and_then(Value::as_u64) {
        return Ok(TopKStrategy::UpperBound {
            edges_per_pattern: edges as usize,
        });
    }
    Err("strategy must be \"naive\" or {\"upper_bound\": n}".to_string())
}

fn query_to_json(query: &ConjunctiveQuery) -> Value {
    object(vec![
        ("name", Value::from(query.name())),
        (
            "prefer",
            Value::Array(
                query
                    .preference_atoms()
                    .iter()
                    .map(|atom| {
                        object(vec![
                            ("relation", Value::from(atom.relation.as_str())),
                            (
                                "sessions",
                                Value::Array(atom.session_terms.iter().map(term_to_json).collect()),
                            ),
                            ("left", term_to_json(&atom.left)),
                            ("right", term_to_json(&atom.right)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "atoms",
            Value::Array(
                query
                    .relation_atoms()
                    .iter()
                    .map(|atom| {
                        object(vec![
                            ("relation", Value::from(atom.relation.as_str())),
                            (
                                "terms",
                                Value::Array(atom.terms.iter().map(term_to_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "compare",
            Value::Array(
                query
                    .comparisons()
                    .iter()
                    .map(|cmp| {
                        object(vec![
                            ("var", Value::from(cmp.var.as_str())),
                            ("op", Value::from(cmp.op.symbol())),
                            ("value", value_to_json(&cmp.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn query_from_json(value: &Value) -> Result<ConjunctiveQuery, String> {
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or("query needs a string `name`")?;
    let mut query = ConjunctiveQuery::new(name);
    for atom in list(value, "prefer")? {
        let sessions = atom
            .get("sessions")
            .and_then(Value::as_array)
            .ok_or("preference atom needs `sessions`")?
            .iter()
            .map(term_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        query = query.prefer(
            relation_of(atom)?,
            sessions,
            term_from_json(atom.get("left").ok_or("preference atom needs `left`")?)?,
            term_from_json(atom.get("right").ok_or("preference atom needs `right`")?)?,
        );
    }
    for atom in list(value, "atoms")? {
        let terms = atom
            .get("terms")
            .and_then(Value::as_array)
            .ok_or("relation atom needs `terms`")?
            .iter()
            .map(term_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        query = query.atom(relation_of(atom)?, terms);
    }
    for cmp in list(value, "compare")? {
        let var = cmp
            .get("var")
            .and_then(Value::as_str)
            .ok_or("comparison needs a string `var`")?;
        let op = match cmp.get("op").and_then(Value::as_str) {
            Some("=") => CompareOp::Eq,
            Some("!=") => CompareOp::Ne,
            Some("<") => CompareOp::Lt,
            Some("<=") => CompareOp::Le,
            Some(">") => CompareOp::Gt,
            Some(">=") => CompareOp::Ge,
            _ => return Err("comparison `op` must be one of = != < <= > >=".to_string()),
        };
        let constant = value_from_json(cmp.get("value").ok_or("comparison needs `value`")?)?;
        query = query.compare(var, op, constant);
    }
    Ok(query)
}

fn list<'v>(value: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match value.get(key) {
        None => Ok(&[]),
        Some(entry) => entry
            .as_array()
            .ok_or_else(|| format!("query `{key}` must be an array")),
    }
}

fn relation_of(atom: &Value) -> Result<&str, String> {
    atom.get("relation")
        .and_then(Value::as_str)
        .ok_or_else(|| "atom needs a string `relation`".to_string())
}

fn term_to_json(term: &Term) -> Value {
    match term {
        Term::Var(name) => object(vec![("var", Value::from(name.as_str()))]),
        Term::Const(value) => object(vec![("val", value_to_json(value))]),
        Term::Wildcard => Value::from("_"),
    }
}

fn term_from_json(value: &Value) -> Result<Term, String> {
    if value.as_str() == Some("_") {
        return Ok(Term::Wildcard);
    }
    if let Some(name) = value.get("var").and_then(Value::as_str) {
        return Ok(Term::var(name));
    }
    if let Some(constant) = value.get("val") {
        return Ok(Term::Const(value_from_json(constant)?));
    }
    Err("term must be \"_\", {\"var\": name}, or {\"val\": constant}".to_string())
}

fn value_to_json(value: &PpdValue) -> Value {
    match value {
        PpdValue::Str(s) => Value::from(s.as_str()),
        PpdValue::Int(i) => Value::from(*i),
        PpdValue::Null => Value::Null,
    }
}

fn value_from_json(value: &Value) -> Result<PpdValue, String> {
    if value.is_null() {
        return Ok(PpdValue::Null);
    }
    if let Some(s) = value.as_str() {
        return Ok(PpdValue::Str(s.to_string()));
    }
    if let Some(i) = value.as_i64() {
        return Ok(PpdValue::Int(i));
    }
    Err("constants must be strings, integers, or null".to_string())
}

/// Encodes one update frame (no trailing newline). Updates never carry an
/// error budget — they mutate the database, they do not evaluate anything.
pub(crate) fn encode_update_request(id: u64, update: &Update, options: &SubmitOptions) -> String {
    let mut entries = vec![
        ("id", Value::from(id)),
        ("kind", Value::from("update")),
        ("class", Value::from(options.class.name())),
    ];
    match update {
        Update::InsertSession { prelation, session } => {
            entries.push(("op", Value::from("insert")));
            entries.push(("prelation", Value::from(prelation.as_str())));
            entries.push(("session", session_to_json(session)));
        }
        Update::ReplaceSession {
            prelation,
            index,
            session,
        } => {
            entries.push(("op", Value::from("replace")));
            entries.push(("prelation", Value::from(prelation.as_str())));
            entries.push(("index", Value::from(*index as u64)));
            entries.push(("session", session_to_json(session)));
        }
        Update::DeleteSession { prelation, index } => {
            entries.push(("op", Value::from("delete")));
            entries.push(("prelation", Value::from(prelation.as_str())));
            entries.push(("index", Value::from(*index as u64)));
        }
    }
    if let Some(db) = &options.database {
        entries.push(("database", Value::from(db.as_str())));
    }
    if let Some(deadline) = options.deadline {
        entries.push(("deadline_ms", Value::from(deadline.as_millis() as u64)));
    }
    serde_json::to_string(&object(entries)).expect("update frames always serialize")
}

/// Decodes the fields of one parsed update frame (`kind == "update"`). On
/// failure, returns the frame id when at least that much is there, so the
/// error response can still be correlated.
pub(crate) fn decode_update(value: &Value) -> DecodedFrame<Update> {
    let id = value.get("id").and_then(Value::as_u64);
    let fail = |message: String| (id, message);
    let id = id.ok_or((None, "missing numeric `id`".to_string()))?;
    let prelation = value
        .get("prelation")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("updates need a string `prelation`".to_string()))?
        .to_string();
    let index = || {
        value
            .get("index")
            .and_then(Value::as_u64)
            .map(|i| i as usize)
            .ok_or_else(|| fail("this update op needs a numeric `index`".to_string()))
    };
    let session = || {
        value
            .get("session")
            .ok_or_else(|| fail("this update op needs a `session`".to_string()))
            .and_then(|s| session_from_json(s).map_err(&fail))
    };
    let update = match value.get("op").and_then(Value::as_str) {
        Some("insert") => Update::InsertSession {
            prelation,
            session: session()?,
        },
        Some("replace") => Update::ReplaceSession {
            prelation,
            index: index()?,
            session: session()?,
        },
        Some("delete") => Update::DeleteSession {
            prelation,
            index: index()?,
        },
        _ => {
            return Err(fail(
                "update `op` must be insert, replace, or delete".to_string(),
            ))
        }
    };
    let mut options = SubmitOptions::default();
    match value.get("class").and_then(Value::as_str) {
        None | Some("interactive") => {}
        Some("batch") => options.class = AdmissionClass::Batch,
        Some(other) => return Err(fail(format!("unknown admission class `{other}`"))),
    }
    if let Some(db) = value.get("database") {
        options.database = Some(
            db.as_str()
                .ok_or_else(|| fail("`database` must be a string".to_string()))?
                .to_string(),
        );
    }
    if let Some(ms) = value.get("deadline_ms") {
        options.deadline = Some(Duration::from_millis(ms.as_u64().ok_or_else(|| {
            fail("`deadline_ms` must be a non-negative integer".to_string())
        })?));
    }
    Ok((id, update, options))
}

/// A session crosses the wire as its attributes plus its Mallows model:
/// the reference ranking's items in rank order and the dispersion `phi`
/// (shortest-round-trip formatted, so the model hash survives the trip).
fn session_to_json(session: &Session) -> Value {
    object(vec![
        (
            "attrs",
            Value::Array(session.attrs().iter().map(value_to_json).collect()),
        ),
        (
            "ranking",
            Value::Array(
                session
                    .model()
                    .sigma()
                    .items()
                    .iter()
                    .map(|&item| Value::from(u64::from(item)))
                    .collect(),
            ),
        ),
        ("phi", Value::from(session.model().phi())),
    ])
}

fn session_from_json(value: &Value) -> Result<Session, String> {
    let attrs = value
        .get("attrs")
        .and_then(Value::as_array)
        .ok_or("session needs an `attrs` array")?
        .iter()
        .map(value_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let items = value
        .get("ranking")
        .and_then(Value::as_array)
        .ok_or("session needs a `ranking` array")?
        .iter()
        .map(|item| {
            item.as_u64()
                .and_then(|i| u32::try_from(i).ok())
                .ok_or_else(|| "ranking entries are item ids".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let phi = value
        .get("phi")
        .and_then(Value::as_f64)
        .ok_or("session needs a numeric `phi`")?;
    let ranking = Ranking::new(items).map_err(|e| e.to_string())?;
    let model = MallowsModel::new(ranking, phi).map_err(|e| e.to_string())?;
    Ok(Session::new(attrs, model))
}

/// Encodes one response frame (no trailing newline). `version` is the
/// database version the delivery was computed against; `0` (never reached
/// a versioned snapshot) omits the field. `trace` is the submission's trace
/// id for the `trace` control verb; `0` (failed before assignment) omits
/// the field.
pub(crate) fn encode_response(id: u64, delivery: &Delivery, version: u64, trace: u64) -> String {
    let mut entries = vec![("id", Value::from(id))];
    if version > 0 {
        entries.push(("version", Value::from(version)));
    }
    if trace > 0 {
        entries.push(("trace", Value::from(trace)));
    }
    entries.push(match delivery {
        Ok(answer) => ("ok", answer_to_json(answer)),
        Err(error) => ("err", error_to_json(error)),
    });
    serde_json::to_string(&object(entries)).expect("response frames always serialize")
}

/// Decodes one response frame into `(id, delivery, computed version,
/// trace id)` — trace 0 when the frame carried none.
pub(crate) fn decode_response(frame: &str) -> Result<(u64, Delivery, Option<u64>, u64), String> {
    let value = serde_json::from_str(frame).map_err(|e| e.to_string())?;
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("response missing numeric `id`")?;
    let version = value.get("version").and_then(Value::as_u64);
    let trace = value.get("trace").and_then(Value::as_u64).unwrap_or(0);
    if let Some(ok) = value.get("ok") {
        return Ok((id, Ok(answer_from_json(ok)?), version, trace));
    }
    if let Some(err) = value.get("err") {
        return Ok((id, Err(error_from_json(err)?), version, trace));
    }
    Err("response carries neither `ok` nor `err`".to_string())
}

// ---------------------------------------------------------------------------
// Stats verb: `{"id": n, "kind": "stats"}` ⇄ counters snapshot
// ---------------------------------------------------------------------------

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

fn cache_to_json(cache: &CacheStats) -> Value {
    object(vec![
        ("marginal_hits", Value::from(cache.marginal_hits)),
        ("marginal_misses", Value::from(cache.marginal_misses)),
        ("marginal_evictions", Value::from(cache.marginal_evictions)),
        (
            "marginal_evicted_bytes",
            Value::from(cache.marginal_evicted_bytes),
        ),
        ("marginals_loaded", Value::from(cache.marginals_loaded)),
        ("marginals_saved", Value::from(cache.marginals_saved)),
        ("models_prepared", Value::from(cache.models_prepared)),
        ("calibration_hits", Value::from(cache.calibration_hits)),
        ("calibration_misses", Value::from(cache.calibration_misses)),
        (
            "calibration_recorded",
            Value::from(cache.calibration_recorded),
        ),
        ("units_invalidated", Value::from(cache.units_invalidated)),
        ("segment_live_bytes", Value::from(cache.segment_live_bytes)),
        ("segment_dead_bytes", Value::from(cache.segment_dead_bytes)),
        ("compactions", Value::from(cache.compactions)),
        ("pools_built", Value::from(cache.pools_built)),
        ("pool_hits", Value::from(cache.pool_hits)),
    ])
}

fn cache_from_json(value: &Value) -> Result<CacheStats, String> {
    let field = |name: &str| -> Result<u64, String> {
        value
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("cache stats need a numeric `{name}`"))
    };
    Ok(CacheStats {
        marginal_hits: field("marginal_hits")?,
        marginal_misses: field("marginal_misses")?,
        marginal_evictions: field("marginal_evictions")?,
        marginal_evicted_bytes: field("marginal_evicted_bytes")?,
        marginals_loaded: field("marginals_loaded")?,
        marginals_saved: field("marginals_saved")?,
        models_prepared: field("models_prepared")?,
        calibration_hits: field("calibration_hits")?,
        calibration_misses: field("calibration_misses")?,
        calibration_recorded: field("calibration_recorded")?,
        units_invalidated: field("units_invalidated")?,
        segment_live_bytes: field("segment_live_bytes")?,
        segment_dead_bytes: field("segment_dead_bytes")?,
        compactions: field("compactions")?,
        pools_built: field("pools_built")?,
        pool_hits: field("pool_hits")?,
    })
}

/// Encodes the response to a stats control frame.
pub(crate) fn encode_stats_response(
    id: u64,
    stats: &ServiceStats,
    tenants: &[(String, u64, CacheStats)],
) -> String {
    let service = object(vec![
        ("submitted", Value::from(stats.submitted)),
        ("rejected", Value::from(stats.rejected)),
        (
            "interactive_submitted",
            Value::from(stats.interactive_submitted),
        ),
        (
            "interactive_rejected",
            Value::from(stats.interactive_rejected),
        ),
        ("batch_submitted", Value::from(stats.batch_submitted)),
        ("batch_rejected", Value::from(stats.batch_rejected)),
        ("answered", Value::from(stats.answered)),
        ("failed", Value::from(stats.failed)),
        ("expired", Value::from(stats.expired)),
        ("updates_applied", Value::from(stats.updates_applied)),
        ("queue_depth", Value::from(stats.queue_depth as u64)),
        (
            "interactive_queue_depth",
            Value::from(stats.interactive_queue_depth as u64),
        ),
        (
            "batch_queue_depth",
            Value::from(stats.batch_queue_depth as u64),
        ),
        ("uptime_ns", Value::from(stats.uptime.as_nanos() as u64)),
        ("in_flight_waves", Value::from(stats.in_flight_waves)),
        ("waves", Value::from(stats.waves)),
        ("max_wave", Value::from(stats.max_wave as u64)),
        (
            "wave_sizes",
            Value::Array(
                stats
                    .wave_sizes
                    .iter()
                    .map(|&(size, count)| {
                        Value::Array(vec![Value::from(size as u64), Value::from(count)])
                    })
                    .collect(),
            ),
        ),
        (
            "mean_latency_ns",
            Value::from(stats.mean_latency.as_nanos() as u64),
        ),
        (
            "max_latency_ns",
            Value::from(stats.max_latency.as_nanos() as u64),
        ),
        ("cache", cache_to_json(&stats.cache)),
    ]);
    let tenants = Value::Array(
        tenants
            .iter()
            .map(|(id, version, cache)| {
                object(vec![
                    ("database", Value::from(id.as_str())),
                    ("version", Value::from(*version)),
                    ("cache", cache_to_json(cache)),
                ])
            })
            .collect(),
    );
    let payload = object(vec![
        ("kind", Value::from("stats")),
        ("service", service),
        ("tenants", tenants),
    ]);
    serde_json::to_string(&object(vec![("id", Value::from(id)), ("ok", payload)]))
        .expect("stats responses always serialize")
}

/// Decodes the `ok` payload of a stats response.
fn decode_stats_payload(value: &Value) -> Result<WireStatsReport, String> {
    if value.get("kind").and_then(Value::as_str) != Some("stats") {
        return Err("expected a stats payload".to_string());
    }
    let service = value
        .get("service")
        .ok_or("stats payload needs `service`")?;
    let field = |name: &str| -> Result<u64, String> {
        service
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("stats need a numeric `{name}`"))
    };
    let wave_sizes = service
        .get("wave_sizes")
        .and_then(Value::as_array)
        .ok_or("stats need a `wave_sizes` array")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .ok_or("wave sizes are [size, count] pairs")?;
            match (
                pair.first().and_then(Value::as_u64),
                pair.get(1).and_then(Value::as_u64),
            ) {
                (Some(size), Some(count)) if pair.len() == 2 => Ok((size as usize, count)),
                _ => Err("wave sizes are [size, count] pairs".to_string()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let stats = ServiceStats {
        submitted: field("submitted")?,
        rejected: field("rejected")?,
        interactive_submitted: field("interactive_submitted")?,
        interactive_rejected: field("interactive_rejected")?,
        batch_submitted: field("batch_submitted")?,
        batch_rejected: field("batch_rejected")?,
        answered: field("answered")?,
        failed: field("failed")?,
        expired: field("expired")?,
        updates_applied: field("updates_applied")?,
        queue_depth: field("queue_depth")? as usize,
        interactive_queue_depth: field("interactive_queue_depth")? as usize,
        batch_queue_depth: field("batch_queue_depth")? as usize,
        uptime: Duration::from_nanos(field("uptime_ns")?),
        in_flight_waves: field("in_flight_waves")?,
        waves: field("waves")?,
        max_wave: field("max_wave")? as usize,
        wave_sizes,
        mean_latency: Duration::from_nanos(field("mean_latency_ns")?),
        max_latency: Duration::from_nanos(field("max_latency_ns")?),
        cache: cache_from_json(service.get("cache").ok_or("stats need `cache`")?)?,
    };
    let tenants = value
        .get("tenants")
        .and_then(Value::as_array)
        .ok_or("stats payload needs `tenants`")?
        .iter()
        .map(|tenant| {
            let id = tenant
                .get("database")
                .and_then(Value::as_str)
                .ok_or("tenant entries need a string `database`")?
                .to_string();
            let version = tenant
                .get("version")
                .and_then(Value::as_u64)
                .ok_or("tenant entries need a numeric `version`")?;
            let cache = cache_from_json(tenant.get("cache").ok_or("tenant entries need `cache`")?)?;
            Ok((id, version, cache))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(WireStatsReport {
        service: stats,
        tenants,
    })
}

// ---------------------------------------------------------------------------
// Metrics verb: `{"id": n, "kind": "metrics"}` ⇄ text exposition
// ---------------------------------------------------------------------------

/// Encodes the response to a metrics control frame. The exposition text
/// rides inside the JSON string (newlines escaped), so the frame stays one
/// line like every other response.
pub(crate) fn encode_metrics_response(id: u64, text: &str) -> String {
    let payload = object(vec![
        ("kind", Value::from("metrics")),
        ("text", Value::from(text)),
    ]);
    serde_json::to_string(&object(vec![("id", Value::from(id)), ("ok", payload)]))
        .expect("metrics responses always serialize")
}

/// Decodes the `ok` payload of a metrics response.
fn decode_metrics_payload(value: &Value) -> Result<String, String> {
    if value.get("kind").and_then(Value::as_str) != Some("metrics") {
        return Err("expected a metrics payload".to_string());
    }
    value
        .get("text")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "metrics payload needs a string `text`".to_string())
}

// ---------------------------------------------------------------------------
// Trace verb: `{"id": n, "kind": "trace", "trace": t}` ⇄ span timeline
// ---------------------------------------------------------------------------

fn span_to_json(record: &SpanRecord) -> Value {
    let mut entries = vec![
        ("seq", Value::from(record.seq)),
        ("at_micros", Value::from(record.at_micros)),
        ("event", Value::from(record.event.name())),
    ];
    match &record.event {
        SpanEvent::Admitted {
            tenant,
            class,
            depth,
        } => {
            entries.push(("tenant", Value::from(tenant.as_str())));
            entries.push(("class", Value::from(*class)));
            entries.push(("depth", Value::from(*depth as u64)));
        }
        SpanEvent::WaveJoined {
            wave_units,
            units,
            cached,
        } => {
            entries.push(("wave_units", Value::from(*wave_units as u64)));
            entries.push(("units", Value::from(*units as u64)));
            entries.push(("cached", Value::from(*cached as u64)));
        }
        SpanEvent::UnitSolved {
            unit_hash,
            solver,
            micros,
        } => {
            entries.push(("unit_hash", Value::from(*unit_hash)));
            entries.push(("solver", Value::from(*solver)));
            entries.push(("micros", Value::from(*micros)));
        }
        SpanEvent::Delivered { micros }
        | SpanEvent::Expired { micros }
        | SpanEvent::Cancelled { micros } => {
            entries.push(("micros", Value::from(*micros)));
        }
        SpanEvent::Failed { error_kind, micros } => {
            entries.push(("error_kind", Value::from(*error_kind)));
            entries.push(("micros", Value::from(*micros)));
        }
    }
    object(entries)
}

/// Interns a wire string back into the static label space the span events
/// carry. The label sets are closed (admission classes, solver tags, error
/// kinds), so an unknown string is a protocol mismatch — reported as the
/// `"unknown"` sentinel rather than an error, since the timeline is
/// diagnostic output, not an input to anything.
fn intern_label(s: &str, known: &[&'static str]) -> &'static str {
    known
        .iter()
        .find(|k| **k == s)
        .copied()
        .unwrap_or("unknown")
}

const CLASS_LABELS: &[&str] = &["interactive", "batch"];
const SOLVER_LABELS: &[&str] = &["exact", "general-exact", "mis-amp", "mis-amp-budgeted"];
const ERROR_KIND_LABELS: &[&str] = &[
    // PpdError kinds…
    "unknown-name",
    "malformed",
    "unsupported-query",
    "pattern",
    "rim",
    "solver",
    "persist",
    "cancelled",
    // …and the service-level ones.
    "overloaded",
    "shutting-down",
    "unknown-database",
    "deadline-exceeded",
    "protocol",
    "disconnected",
];

fn span_from_json(trace: u64, value: &Value) -> Result<SpanRecord, String> {
    let number = |name: &str| -> Result<u64, String> {
        value
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("span events need a numeric `{name}`"))
    };
    let string = |name: &str| -> Result<&str, String> {
        value
            .get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("span events need a string `{name}`"))
    };
    let event = match string("event")? {
        "admitted" => SpanEvent::Admitted {
            tenant: string("tenant")?.to_string(),
            class: intern_label(string("class")?, CLASS_LABELS),
            depth: number("depth")? as usize,
        },
        "wave-joined" => SpanEvent::WaveJoined {
            wave_units: number("wave_units")? as usize,
            units: number("units")? as usize,
            cached: number("cached")? as usize,
        },
        "unit-solved" => SpanEvent::UnitSolved {
            unit_hash: number("unit_hash")?,
            solver: intern_label(string("solver")?, SOLVER_LABELS),
            micros: number("micros")?,
        },
        "delivered" => SpanEvent::Delivered {
            micros: number("micros")?,
        },
        "expired" => SpanEvent::Expired {
            micros: number("micros")?,
        },
        "cancelled" => SpanEvent::Cancelled {
            micros: number("micros")?,
        },
        "failed" => SpanEvent::Failed {
            error_kind: intern_label(string("error_kind")?, ERROR_KIND_LABELS),
            micros: number("micros")?,
        },
        other => return Err(format!("unknown span event `{other}`")),
    };
    Ok(SpanRecord {
        trace,
        seq: number("seq")?,
        at_micros: number("at_micros")?,
        event,
    })
}

/// Encodes the response to a trace control frame: the submission's span
/// timeline in recording order.
pub(crate) fn encode_trace_response(id: u64, trace: u64, events: &[SpanRecord]) -> String {
    let payload = object(vec![
        ("kind", Value::from("trace")),
        ("trace", Value::from(trace)),
        (
            "events",
            Value::Array(events.iter().map(span_to_json).collect()),
        ),
    ]);
    serde_json::to_string(&object(vec![("id", Value::from(id)), ("ok", payload)]))
        .expect("trace responses always serialize")
}

/// Decodes the `ok` payload of a trace response.
fn decode_trace_payload(value: &Value) -> Result<Vec<SpanRecord>, String> {
    if value.get("kind").and_then(Value::as_str) != Some("trace") {
        return Err("expected a trace payload".to_string());
    }
    let trace = value
        .get("trace")
        .and_then(Value::as_u64)
        .ok_or("trace payload needs a numeric `trace`")?;
    value
        .get("events")
        .and_then(Value::as_array)
        .ok_or("trace payload needs an `events` array")?
        .iter()
        .map(|event| span_from_json(trace, event))
        .collect()
}

fn answer_to_json(answer: &Answer) -> Value {
    let scored = |pairs: Vec<(u64, f64)>| {
        Value::Array(
            pairs
                .into_iter()
                .map(|(i, p)| Value::Array(vec![Value::from(i), Value::from(p)]))
                .collect(),
        )
    };
    match answer {
        Answer::Boolean(p) => object(vec![
            ("kind", Value::from("boolean")),
            ("value", Value::from(*p)),
        ]),
        Answer::Count(c) => object(vec![
            ("kind", Value::from("count")),
            ("value", Value::from(*c)),
        ]),
        Answer::SessionProbabilities(sessions) => object(vec![
            ("kind", Value::from("session_probabilities")),
            (
                "sessions",
                scored(sessions.iter().map(|&(i, p)| (i as u64, p)).collect()),
            ),
        ]),
        Answer::TopK(scores) => object(vec![
            ("kind", Value::from("topk")),
            (
                "sessions",
                scored(
                    scores
                        .iter()
                        .map(|s| (s.session_index as u64, s.probability))
                        .collect(),
                ),
            ),
        ]),
        Answer::Updated {
            version,
            invalidated,
        } => object(vec![
            ("kind", Value::from("updated")),
            ("version", Value::from(*version)),
            ("invalidated", Value::from(*invalidated)),
        ]),
    }
}

fn answer_from_json(value: &Value) -> Result<Answer, String> {
    let sessions = |value: &Value| -> Result<Vec<(usize, f64)>, String> {
        value
            .get("sessions")
            .and_then(Value::as_array)
            .ok_or("answer needs a `sessions` array")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_array()
                    .ok_or("session entries are [index, p] pairs")?;
                match (
                    pair.first().and_then(Value::as_u64),
                    pair.get(1).and_then(Value::as_f64),
                ) {
                    (Some(i), Some(p)) if pair.len() == 2 => Ok((i as usize, p)),
                    _ => Err("session entries are [index, p] pairs".to_string()),
                }
            })
            .collect()
    };
    let scalar = || {
        value
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| "answer needs a numeric `value`".to_string())
    };
    match value.get("kind").and_then(Value::as_str) {
        Some("boolean") => Ok(Answer::Boolean(scalar()?)),
        Some("count") => Ok(Answer::Count(scalar()?)),
        Some("session_probabilities") => Ok(Answer::SessionProbabilities(sessions(value)?)),
        Some("topk") => Ok(Answer::TopK(
            sessions(value)?
                .into_iter()
                .map(|(session_index, probability)| SessionScore {
                    session_index,
                    probability,
                })
                .collect(),
        )),
        Some("updated") => {
            let number = |name: &str| {
                value
                    .get(name)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("updated answers need a numeric `{name}`"))
            };
            Ok(Answer::Updated {
                version: number("version")?,
                invalidated: number("invalidated")?,
            })
        }
        _ => Err("unknown answer kind".to_string()),
    }
}

fn error_to_json(error: &ServiceError) -> Value {
    let kinded = |kind: &str| vec![("kind", Value::from(kind))];
    let with_detail = |kind: &str, detail: String| {
        vec![("kind", Value::from(kind)), ("detail", Value::from(detail))]
    };
    object(match error {
        ServiceError::Overloaded { depth } => vec![
            ("kind", Value::from("overloaded")),
            ("depth", Value::from(*depth as u64)),
        ],
        ServiceError::ShuttingDown => kinded("shutting_down"),
        ServiceError::UnknownDatabase(id) => with_detail("unknown_database", id.clone()),
        ServiceError::DeadlineExceeded => kinded("deadline_exceeded"),
        // Evaluation errors cross the wire as rendered text plus the stable
        // per-variant `error_kind`; the structured payload of a `PpdError`
        // does not survive the trip (see `error_from_json`), but its kind —
        // the label the error counters use — does.
        ServiceError::Eval(e) => vec![
            ("kind", Value::from("eval")),
            ("error_kind", Value::from(e.kind())),
            ("detail", Value::from(e.to_string())),
        ],
        ServiceError::Protocol(m) => with_detail("protocol", m.clone()),
        ServiceError::Disconnected => kinded("disconnected"),
    })
}

fn error_from_json(value: &Value) -> Result<ServiceError, String> {
    let detail = || {
        value
            .get("detail")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    match value.get("kind").and_then(Value::as_str) {
        Some("overloaded") => Ok(ServiceError::Overloaded {
            depth: value.get("depth").and_then(Value::as_u64).unwrap_or(0) as usize,
        }),
        Some("shutting_down") => Ok(ServiceError::ShuttingDown),
        Some("unknown_database") => Ok(ServiceError::UnknownDatabase(detail())),
        Some("deadline_exceeded") => Ok(ServiceError::DeadlineExceeded),
        // Lossy by design: the remote evaluation error arrives as text, but
        // `error_kind` picks the right variant back out, so `kind()` (and
        // the cancellation check in the service) survive the trip. Kinds
        // whose variants wrap a non-string payload flatten to `Malformed`.
        Some("eval") => Ok(ServiceError::Eval(
            match value.get("error_kind").and_then(Value::as_str) {
                Some("unknown-name") => PpdError::UnknownName(detail()),
                Some("unsupported-query") => PpdError::UnsupportedQuery(detail()),
                Some("persist") => PpdError::Persist(detail()),
                Some("cancelled") => PpdError::Cancelled,
                _ => PpdError::Malformed(detail()),
            },
        )),
        Some("protocol") => Ok(ServiceError::Protocol(detail())),
        Some("disconnected") => Ok(ServiceError::Disconnected),
        _ => Err("unknown error kind".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_core::Value as PpdValue;

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
            let (id, decoded, decoded_options) = decode_query_frame(&frame).expect("round trip");
            assert_eq!(id, i as u64 + 1);
            assert_eq!(decoded.query(), request.query());
            assert_eq!(request_kind(&decoded), request_kind(request));
            if let (
                Request::TopK { k, strategy, .. },
                Request::TopK {
                    k: k2,
                    strategy: s2,
                    ..
                },
            ) = (request, &decoded)
            {
                assert_eq!(k, k2);
                assert_eq!(strategy, s2);
            }
            assert_eq!(decoded_options.class, AdmissionClass::Batch);
            assert_eq!(decoded_options.database.as_deref(), Some("polls"));
            assert_eq!(decoded_options.deadline, Some(Duration::from_millis(250)));
            let budget = decoded_options.error_budget.expect("budget survives");
            assert_eq!(budget.epsilon.to_bits(), 0.01f64.to_bits());
            assert_eq!(budget.confidence.to_bits(), 0.95f64.to_bits());
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
        let deliveries: Vec<Delivery> = vec![
            Ok(Answer::Boolean(0.1 + 0.2)), // 0.30000000000000004: shortest-round-trip matters
            Ok(Answer::Count(f64::MIN_POSITIVE)),
            Ok(Answer::SessionProbabilities(vec![(0, 0.25), (7, 1e-300)])),
            Ok(Answer::TopK(vec![
                SessionScore {
                    session_index: 3,
                    probability: 2.0 / 3.0,
                },
                SessionScore {
                    session_index: 1,
                    probability: 1.0 / 3.0,
                },
            ])),
            Ok(Answer::Updated {
                version: 7,
                invalidated: 12,
            }),
        ];
        for delivery in &deliveries {
            let frame = encode_response(42, delivery, 0, 0);
            let (id, decoded, version, trace) = decode_response(&frame).expect("round trip");
            assert_eq!(id, 42);
            assert_eq!(version, None, "version 0 omits the field");
            assert_eq!(trace, 0, "trace 0 omits the field");
            assert!(!frame.contains("trace"), "{frame}");
            // PartialEq on f64 is bitwise here: every probability above is a
            // normal number (no NaN / ±0 aliasing in play).
            assert_eq!(&decoded, delivery);
        }
        // A versioned response carries the snapshot id back to the client,
        // and a traced one its trace id (the `trace` verb's handle).
        let frame = encode_response(42, &Ok(Answer::Boolean(0.5)), 3, 9);
        let (_, _, version, trace) = decode_response(&frame).expect("round trip");
        assert_eq!(version, Some(3));
        assert_eq!(trace, 9);
    }

    #[test]
    fn update_frames_round_trip() {
        let session = Session::new(
            vec![PpdValue::Str("v9".into()), PpdValue::Int(4)],
            MallowsModel::new(Ranking::new(vec![2, 0, 1]).unwrap(), 0.3).unwrap(),
        );
        let updates = [
            Update::InsertSession {
                prelation: "Polls".into(),
                session: session.clone(),
            },
            Update::ReplaceSession {
                prelation: "Polls".into(),
                index: 5,
                session: session.clone(),
            },
            Update::DeleteSession {
                prelation: "Polls".into(),
                index: 2,
            },
        ];
        let options = SubmitOptions::batch()
            .on_database("polls")
            .with_deadline(Duration::from_millis(250));
        for (i, update) in updates.iter().enumerate() {
            let frame = encode_update_request(i as u64 + 1, update, &options);
            assert!(!frame.contains('\n'), "frames are single lines: {frame}");
            let (id, decoded, decoded_options) = decode_update_frame(&frame).expect("round trip");
            assert_eq!(id, i as u64 + 1);
            assert_eq!(decoded_options.class, AdmissionClass::Batch);
            assert_eq!(decoded_options.database.as_deref(), Some("polls"));
            assert_eq!(decoded_options.deadline, Some(Duration::from_millis(250)));
            match (update, &decoded) {
                (
                    Update::InsertSession { session: a, .. },
                    Update::InsertSession {
                        prelation,
                        session: b,
                    },
                )
                | (
                    Update::ReplaceSession { session: a, .. },
                    Update::ReplaceSession {
                        prelation,
                        session: b,
                        ..
                    },
                ) => {
                    assert_eq!(prelation, "Polls");
                    assert_eq!(a.attrs(), b.attrs());
                    assert_eq!(a.model().sigma().items(), b.model().sigma().items());
                    assert_eq!(a.model().phi().to_bits(), b.model().phi().to_bits());
                    assert_eq!(
                        a.model_key_hash(),
                        b.model_key_hash(),
                        "the content hash — the cache key — survives the trip"
                    );
                }
                (
                    Update::DeleteSession { index: a, .. },
                    Update::DeleteSession {
                        prelation,
                        index: b,
                    },
                ) => {
                    assert_eq!(prelation, "Polls");
                    assert_eq!(a, b);
                }
                other => panic!("update op changed across the wire: {other:?}"),
            }
        }
        // Replace keeps its index too.
        let frame = encode_update_request(9, &updates[1], &SubmitOptions::default());
        let (_, decoded, options) = decode_update_frame(&frame).unwrap();
        assert!(matches!(decoded, Update::ReplaceSession { index: 5, .. }));
        assert_eq!(options.class, AdmissionClass::Interactive);
        assert_eq!(options.database, None);
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
    }

    #[test]
    fn errors_round_trip_by_kind() {
        let errors = vec![
            ServiceError::Overloaded { depth: 17 },
            ServiceError::ShuttingDown,
            ServiceError::UnknownDatabase("polls".into()),
            ServiceError::DeadlineExceeded,
            ServiceError::Protocol("bad frame".into()),
            ServiceError::Disconnected,
        ];
        for error in errors {
            let frame = encode_response(1, &Err(error.clone()), 0, 0);
            let (_, decoded, _, _) = decode_response(&frame).unwrap();
            assert_eq!(decoded, Err(error));
        }
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
            let (_, decoded, _, _) = decode_response(&frame).unwrap();
            match decoded {
                Err(ServiceError::Eval(e)) => assert_eq!(e.kind(), kind, "{e:?}"),
                other => panic!("eval error changed class across the wire: {other:?}"),
            }
        }
        // Kinds wrapping structured payloads flatten to Malformed text but
        // still report an eval error, not a protocol failure.
        let frame = r#"{"id": 1, "err": {"kind": "eval", "error_kind": "solver", "detail": "s"}}"#;
        let (_, decoded, _, _) = decode_response(frame).unwrap();
        assert!(
            matches!(decoded, Err(ServiceError::Eval(PpdError::Malformed(_)))),
            "{decoded:?}"
        );
    }

    #[test]
    fn malformed_frames_fail_with_context() {
        assert!(decode_query_frame("not json").is_err());
        let (id, _) = decode_query_frame(r#"{"id": 3, "kind": "nope", "query": {"name": "q"}}"#)
            .expect_err("unknown kind");
        assert_eq!(id, Some(3), "id survives for error correlation");
        assert!(decode_response(r#"{"id": 1}"#).is_err());
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
            Inbound::Stats { id: 6 }
        ));
        assert!(
            matches!(
                decode_frame(r#"{"id": 6, "kind": "boolean"}"#),
                Inbound::Submit(_)
            ),
            "query frames are not stats frames"
        );
        let stats = ServiceStats {
            submitted: 12,
            rejected: 1,
            interactive_submitted: 9,
            interactive_rejected: 0,
            batch_submitted: 3,
            batch_rejected: 1,
            answered: 10,
            failed: 1,
            expired: 1,
            updates_applied: 2,
            queue_depth: 2,
            interactive_queue_depth: 2,
            batch_queue_depth: 0,
            uptime: Duration::from_secs(90),
            in_flight_waves: 1,
            waves: 4,
            max_wave: 5,
            wave_sizes: vec![(1, 2), (5, 2)],
            mean_latency: Duration::from_micros(1500),
            max_latency: Duration::from_millis(7),
            cache: CacheStats {
                marginal_hits: 100,
                marginal_misses: 40,
                marginal_evictions: 3,
                marginal_evicted_bytes: 4096,
                marginals_loaded: 0,
                marginals_saved: 0,
                models_prepared: 6,
                calibration_hits: 20,
                calibration_misses: 20,
                calibration_recorded: 40,
                units_invalidated: 5,
                segment_live_bytes: 1000,
                segment_dead_bytes: 250,
                compactions: 2,
                pools_built: 4,
                pool_hits: 9,
            },
        };
        let tenants = vec![
            ("polls".to_string(), 3, stats.cache),
            ("movies".to_string(), 1, CacheStats::default()),
        ];
        let frame = encode_stats_response(6, &stats, &tenants);
        assert!(!frame.contains('\n'), "frames are single lines: {frame}");
        let value: Value = serde_json::from_str(&frame).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(6));
        let report = decode_stats_payload(value.get("ok").unwrap()).expect("round trip");
        assert_eq!(report.service, stats);
        assert_eq!(report.tenants, tenants);
    }

    #[test]
    fn metrics_frames_round_trip() {
        assert!(matches!(
            decode_frame(r#"{"id": 8, "kind": "metrics"}"#),
            Inbound::Metrics { id: 8 }
        ));
        assert!(
            matches!(
                decode_frame(r#"{"id": 8, "kind": "stats"}"#),
                Inbound::Stats { id: 8 }
            ),
            "stats frames are not metrics frames"
        );
        // The exposition text is multi-line; the frame must still be one.
        let text = "# TYPE ppd_waves counter\nppd_waves 4\n";
        let frame = encode_metrics_response(8, text);
        assert!(!frame.contains('\n'), "frames are single lines: {frame}");
        let value: Value = serde_json::from_str(&frame).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(8));
        let decoded = decode_metrics_payload(value.get("ok").unwrap()).expect("round trip");
        assert_eq!(decoded, text);
    }

    #[test]
    fn trace_frames_round_trip() {
        assert!(matches!(
            decode_frame(r#"{"id": 2, "kind": "trace", "trace": 17}"#),
            Inbound::Trace { id: 2, trace: 17 }
        ));
        assert!(
            matches!(
                decode_frame(r#"{"id": 2, "kind": "trace"}"#),
                Inbound::Submit(Err(_))
            ),
            "a trace frame without a trace id is not recognized"
        );
        let events = vec![
            SpanRecord {
                trace: 17,
                seq: 1,
                at_micros: 10,
                event: SpanEvent::Admitted {
                    tenant: "polls".into(),
                    class: "interactive",
                    depth: 2,
                },
            },
            SpanRecord {
                trace: 17,
                seq: 2,
                at_micros: 20,
                event: SpanEvent::WaveJoined {
                    wave_units: 6,
                    units: 3,
                    cached: 1,
                },
            },
            SpanRecord {
                trace: 17,
                seq: 3,
                at_micros: 40,
                event: SpanEvent::UnitSolved {
                    unit_hash: 0xDEAD_BEEF,
                    solver: "mis-amp",
                    micros: 15,
                },
            },
            SpanRecord {
                trace: 17,
                seq: 4,
                at_micros: 55,
                event: SpanEvent::Failed {
                    error_kind: "solver",
                    micros: 45,
                },
            },
            SpanRecord {
                trace: 17,
                seq: 5,
                at_micros: 60,
                event: SpanEvent::Delivered { micros: 50 },
            },
        ];
        let frame = encode_trace_response(2, 17, &events);
        assert!(!frame.contains('\n'), "frames are single lines: {frame}");
        let value: Value = serde_json::from_str(&frame).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(2));
        let decoded = decode_trace_payload(value.get("ok").unwrap()).expect("round trip");
        assert_eq!(decoded, events, "static labels intern back bit-for-bit");
        // An empty timeline (untraced or evicted id) round-trips too.
        let frame = encode_trace_response(3, 99, &[]);
        let value: Value = serde_json::from_str(&frame).unwrap();
        assert!(decode_trace_payload(value.get("ok").unwrap())
            .unwrap()
            .is_empty());
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
        // A trace frame is a trace frame whatever else it carries.
        assert!(matches!(
            decode_frame(r#"{"id": 6, "kind": "trace", "trace": 3, "query": {"name": "q"}}"#),
            Inbound::Trace { id: 6, trace: 3 }
        ));
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
