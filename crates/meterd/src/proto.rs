//! The controller ↔ meterdaemon communication protocol.
//!
//! "The cooperation between the controller and the meterdaemons
//! implies a need for a communication protocol. This protocol defines
//! the information to be exchanged, the synchronization of the
//! exchange, and the procedure for establishing communication
//! connections. … This format includes a message type and a message
//! body. The type field identifies the purpose of the message. … The
//! exchange is structured as a remote procedure call." (§3.5.1,
//! Fig. 3.6)
//!
//! Fig. 3.6 gives two concrete type numbers — `11: create request`
//! (filename, parameter count, parameter list, filter port, filter
//! host, meter flags, control port, control host) and `18: create
//! reply` (pid, status) — reproduced here verbatim; the remaining
//! numbers fill the obvious gaps.
//!
//! Wire form: `u32 total-length, u32 type, body`, strings as
//! `u32 length + bytes`, all little-endian (VAX order).

use dpm_filter::{FilterArgs, FilterRole};
use dpm_meter::MeterFlags;
use dpm_simos::Pid;
use std::fmt;

/// Message type numbers. `CREATE_REQUEST` and `CREATE_REPLY` are the
/// two the paper shows.
pub mod msg_type {
    /// Create a metered process (Fig. 3.6).
    pub const CREATE_REQUEST: u32 = 11;
    /// Create a filter process.
    pub const CREATE_FILTER: u32 = 12;
    /// Change a process's meter flags.
    pub const SET_FLAGS: u32 = 13;
    /// Start (or resume) a process.
    pub const START: u32 = 14;
    /// Stop a process.
    pub const STOP: u32 = 15;
    /// Kill a process.
    pub const KILL: u32 = 16;
    /// Acquire (begin metering) an already-running process.
    pub const ACQUIRE: u32 = 17;
    /// Reply to `CREATE_REQUEST`/`CREATE_FILTER` (Fig. 3.6).
    pub const CREATE_REPLY: u32 = 18;
    /// Fetch a file (a filter's log).
    pub const GET_FILE: u32 = 19;
    /// Stop metering a process (used when removing an acquired
    /// process: the filter connection is taken down but the process
    /// keeps running, §4.3 `removejob`).
    pub const CLEAR_METER: u32 = 20;
    /// Generic acknowledgement reply.
    pub const ACK: u32 = 21;
    /// Reply carrying file contents.
    pub const FILE_REPLY: u32 = 22;
    /// Daemon → controller: a process changed state (§3.5.1's one
    /// exception, where the daemon initiates the connection).
    pub const STATE_CHANGE: u32 = 23;
    /// Daemon → controller: bytes a process wrote to its redirected
    /// standard output (§3.5.2).
    pub const IO_DATA: u32 = 24;
    /// Write a file on the daemon's machine — the simulation's `rcp`
    /// (§3.5.3).
    pub const WRITE_FILE: u32 = 25;
    /// Feed bytes to a process's redirected standard input.
    pub const SEND_INPUT: u32 = 26;
    /// An idempotency wrapper: a request id plus a nested request.
    /// Retried calls reuse the id; the daemon replays the cached
    /// reply instead of re-executing.
    pub const TAGGED: u32 = 27;
    /// Query the state of a process (controller resync after a daemon
    /// restart).
    pub const QUERY_PROC: u32 = 28;
    /// Reply to `QUERY_PROC`.
    pub const PROC_STATUS: u32 = 29;
    /// List files under a prefix on the daemon's machine (segment
    /// enumeration for store-backed logs).
    pub const LIST_FILES: u32 = 30;
    /// Reply to `LIST_FILES`.
    pub const FILE_LIST: u32 = 31;
    /// Acquire a batch of already-running processes in one
    /// round-trip (controller takeover / acquire-at-scale).
    pub const ACQUIRE_MANY: u32 = 32;
    /// Reply to `ACQUIRE_MANY`: per-pid outcomes.
    pub const ACQUIRE_MANY_REPLY: u32 = 33;
}

/// Status code carried in replies. On the wire this is a bare `u32`
/// (0 is success, as tradition demands); in the API it is a typed
/// enum so callers match on `RpcStatus::Ok` instead of a magic `0`.
///
/// Unknown wire values decode to [`RpcStatus::Other`] instead of
/// failing, so a newer daemon can add codes without breaking an older
/// controller; `#[non_exhaustive]` keeps downstream matches honest
/// about that possibility.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcStatus {
    /// Operation succeeded (wire code 0).
    Ok,
    /// No such file (wire code 1).
    NoEnt,
    /// No such process (wire code 2).
    Srch,
    /// Permission denied (wire code 3).
    Perm,
    /// Anything else that went wrong (wire code 4).
    Fail,
    /// The caller gave up waiting for a reply (wire code 5). Produced
    /// locally by the RPC timeout path, never sent by a daemon.
    Timeout,
    /// The daemon could not be reached after retries (wire code 6).
    /// Produced locally by the RPC retry path.
    Unavailable,
    /// A wire code this build does not know about.
    Other(u32),
}

impl RpcStatus {
    /// Whether this is the success code.
    pub fn is_ok(self) -> bool {
        self == RpcStatus::Ok
    }

    /// The wire code.
    pub fn code(self) -> u32 {
        self.into()
    }
}

impl From<u32> for RpcStatus {
    fn from(code: u32) -> RpcStatus {
        match code {
            0 => RpcStatus::Ok,
            1 => RpcStatus::NoEnt,
            2 => RpcStatus::Srch,
            3 => RpcStatus::Perm,
            4 => RpcStatus::Fail,
            5 => RpcStatus::Timeout,
            6 => RpcStatus::Unavailable,
            other => RpcStatus::Other(other),
        }
    }
}

impl From<RpcStatus> for u32 {
    fn from(s: RpcStatus) -> u32 {
        match s {
            RpcStatus::Ok => 0,
            RpcStatus::NoEnt => 1,
            RpcStatus::Srch => 2,
            RpcStatus::Perm => 3,
            RpcStatus::Fail => 4,
            RpcStatus::Timeout => 5,
            RpcStatus::Unavailable => 6,
            RpcStatus::Other(code) => code,
        }
    }
}

impl fmt::Display for RpcStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcStatus::Ok => write!(f, "ok"),
            RpcStatus::NoEnt => write!(f, "no such file"),
            RpcStatus::Srch => write!(f, "no such process"),
            RpcStatus::Perm => write!(f, "permission denied"),
            RpcStatus::Fail => write!(f, "request failed"),
            RpcStatus::Timeout => write!(f, "request timed out"),
            RpcStatus::Unavailable => write!(f, "daemon unavailable"),
            RpcStatus::Other(code) => write!(f, "unknown status {code}"),
        }
    }
}

/// How a filter should record its accepted records — carried in
/// [`Request::CreateFilter`] and threaded down to the filter program.
///
/// On the wire this is a bare `u32` (0 = text, 1 = store); unknown
/// values are rejected at decode time since silently mis-choosing a
/// log format would corrupt a measurement session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LogSinkMode {
    /// The paper's §3.4 log: one rendered text line per record.
    #[default]
    Text,
    /// The binary log store: raw records in segment files under the
    /// logfile prefix (crate `dpm-logstore`).
    Store,
}

impl LogSinkMode {
    /// The wire code.
    pub fn code(self) -> u32 {
        match self {
            LogSinkMode::Text => 0,
            LogSinkMode::Store => 1,
        }
    }

    /// Decodes a wire code.
    fn from_code(code: u32) -> Result<LogSinkMode, ProtoError> {
        match code {
            0 => Ok(LogSinkMode::Text),
            1 => Ok(LogSinkMode::Store),
            other => Err(ProtoError::new(format!("unknown log sink mode {other}"))),
        }
    }

    /// The filter program's `logmode` argument string.
    pub fn as_arg(self) -> &'static str {
        match self {
            LogSinkMode::Text => "text",
            LogSinkMode::Store => "store",
        }
    }
}

impl fmt::Display for LogSinkMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_arg())
    }
}

/// [`FilterRole`]'s wire code (`0` = leaf keeps the pre-tree default).
fn role_code(role: FilterRole) -> u32 {
    match role {
        FilterRole::Leaf => 0,
        FilterRole::Edge => 1,
        FilterRole::Aggregate => 2,
    }
}

/// Decodes a [`FilterRole`] wire code; unknown values are rejected
/// like [`LogSinkMode`]'s — silently mis-placing a filter in the tree
/// would corrupt a measurement session.
fn role_from_code(code: u32) -> Result<FilterRole, ProtoError> {
    match code {
        0 => Ok(FilterRole::Leaf),
        1 => Ok(FilterRole::Edge),
        2 => Ok(FilterRole::Aggregate),
        other => Err(ProtoError::new(format!("unknown filter role {other}"))),
    }
}

/// Marks a [`FilterSpec`] body as versioned; a body that does not
/// start with it is refused.
const SPEC_TAG: u32 = 0xFFFF_FFFF;

/// The current [`FilterSpec`] wire version.
pub const FILTER_SPEC_VERSION: u32 = 1;

/// Everything a meterdaemon needs to spawn a filter — the structured,
/// versioned replacement for `CreateFilter`'s seven positional wire
/// fields.
///
/// Construct specs with [`FilterSpec::builder`], which validates the
/// cross-field rules (an edge needs an upstream, a leaf/aggregate
/// needs a log, addresses must parse) before anything hits the wire.
///
/// On the wire the body is `SPEC_TAG, version, fields…`; decoding
/// rejects a body without the tag, and unknown versions, log-sink
/// modes, and roles, outright (like [`LogSinkMode`] always has).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Executable file of the filter on the daemon's machine.
    pub filterfile: String,
    /// Port the filter will listen on for meter/record connections.
    pub port: u16,
    /// Log file path (text) or store prefix (store) on the filter's
    /// machine; empty for edges, which keep no log.
    pub logfile: String,
    /// Descriptions file path.
    pub descriptions: String,
    /// Templates (selection rules) file path.
    pub templates: String,
    /// How many selection shards the filter should run (≥ 1). One
    /// shard reproduces the classic single-engine filter.
    pub shards: u32,
    /// Where accepted records go: the text log or the binary store.
    pub log_mode: LogSinkMode,
    /// The filter's place in the tree.
    pub role: FilterRole,
    /// Upstream `host:port` (edges always, aggregates optionally);
    /// empty when there is no upstream.
    pub upstream: String,
}

impl FilterSpec {
    /// Starts building a spec for `filterfile` listening on `port`.
    #[must_use]
    pub fn builder(filterfile: impl Into<String>, port: u16) -> FilterSpecBuilder {
        FilterSpecBuilder {
            spec: FilterSpec {
                filterfile: filterfile.into(),
                port,
                logfile: String::new(),
                descriptions: "descriptions".to_owned(),
                templates: "templates".to_owned(),
                shards: 1,
                log_mode: LogSinkMode::Text,
                role: FilterRole::Leaf,
                upstream: String::new(),
            },
        }
    }

    /// The spec as the shared [`FilterArgs`] the filter program
    /// parses. Shard counts are clamped to ≥ 1 here because a spec
    /// decoded from the wire did not pass the builder's check.
    #[must_use]
    pub fn to_filter_args(&self) -> FilterArgs {
        FilterArgs {
            port: self.port,
            logfile: self.logfile.clone(),
            descriptions: self.descriptions.clone(),
            templates: self.templates.clone(),
            shards: self.shards.max(1),
            store_log: self.log_mode == LogSinkMode::Store,
            role: self.role,
            upstream: self.upstream.clone(),
        }
    }

    /// The argument vector the daemon passes when spawning the filter
    /// program.
    ///
    /// Plain leaf filters keep the pre-tree positional argv — §3.4
    /// lets users substitute their own filter program, and existing
    /// ones parse their arguments by position. Tree roles (and leaves
    /// with an upstream) get the keyword form, which only the shared
    /// [`FilterArgs`] parser understands.
    #[must_use]
    pub fn to_program_args(&self) -> Vec<String> {
        let fa = self.to_filter_args();
        if fa.role == FilterRole::Leaf && fa.upstream.is_empty() {
            return vec![
                fa.port.to_string(),
                fa.logfile.clone(),
                fa.descriptions.clone(),
                fa.templates.clone(),
                fa.shards.to_string(),
                if fa.store_log { "store" } else { "text" }.to_owned(),
            ];
        }
        fa.to_args()
    }

    /// The upstream address parsed, when one is set.
    #[must_use]
    pub fn upstream_addr(&self) -> Option<(String, u16)> {
        self.to_filter_args().upstream_addr()
    }

    fn encode_body(&self, w: &mut W) {
        w.u32(SPEC_TAG);
        w.u32(FILTER_SPEC_VERSION);
        w.str(&self.filterfile);
        w.u32(self.port as u32);
        w.str(&self.logfile);
        w.str(&self.descriptions);
        w.str(&self.templates);
        w.u32(self.shards);
        w.u32(self.log_mode.code());
        w.u32(role_code(self.role));
        w.str(&self.upstream);
    }

    fn decode_body(r: &mut R<'_>) -> Result<FilterSpec, ProtoError> {
        if r.u32()? != SPEC_TAG {
            return Err(ProtoError::new("filter spec without its version tag"));
        }
        let version = r.u32()?;
        if version != FILTER_SPEC_VERSION {
            return Err(ProtoError::new(format!(
                "unknown filter spec version {version}"
            )));
        }
        Ok(FilterSpec {
            filterfile: r.str()?,
            port: r.u32()? as u16,
            logfile: r.str()?,
            descriptions: r.str()?,
            templates: r.str()?,
            shards: r.u32()?,
            log_mode: LogSinkMode::from_code(r.u32()?)?,
            role: role_from_code(r.u32()?)?,
            upstream: r.str()?,
        })
    }
}

/// Builds a [`FilterSpec`], validating at [`FilterSpecBuilder::build`].
#[derive(Debug, Clone)]
pub struct FilterSpecBuilder {
    spec: FilterSpec,
}

impl FilterSpecBuilder {
    /// Log file path (text) or store prefix (store).
    #[must_use]
    pub fn logfile(mut self, path: impl Into<String>) -> Self {
        self.spec.logfile = path.into();
        self
    }

    /// Descriptions file path (default `descriptions`).
    #[must_use]
    pub fn descriptions(mut self, path: impl Into<String>) -> Self {
        self.spec.descriptions = path.into();
        self
    }

    /// Templates file path (default `templates`).
    #[must_use]
    pub fn templates(mut self, path: impl Into<String>) -> Self {
        self.spec.templates = path.into();
        self
    }

    /// Shard count (default 1).
    #[must_use]
    pub fn shards(mut self, n: u32) -> Self {
        self.spec.shards = n;
        self
    }

    /// Log sink mode (default text).
    #[must_use]
    pub fn log_mode(mut self, mode: LogSinkMode) -> Self {
        self.spec.log_mode = mode;
        self
    }

    /// Tree role (default leaf).
    #[must_use]
    pub fn role(mut self, role: FilterRole) -> Self {
        self.spec.role = role;
        self
    }

    /// Upstream `host:port`.
    #[must_use]
    pub fn upstream(mut self, addr: impl Into<String>) -> Self {
        self.spec.upstream = addr.into();
        self
    }

    /// Validates the cross-field rules and yields the spec.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the missing/bad field: a zero port or
    /// shard count, an edge without an upstream, a leaf or aggregate
    /// without a log, or an unparseable upstream address.
    pub fn build(self) -> Result<FilterSpec, ProtoError> {
        if self.spec.shards == 0 {
            return Err(ProtoError::new("filter spec: shard count must be >= 1"));
        }
        self.spec
            .to_filter_args()
            .validate()
            .map_err(|e| ProtoError::new(format!("filter spec: {e}")))?;
        Ok(self.spec)
    }
}

/// A request sent from the controller to a meterdaemon (or, for the
/// last two variants, from a daemon to a controller).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `11`: create a metered process, suspended.
    Create {
        /// Executable file on the daemon's machine.
        filename: String,
        /// Program parameters.
        params: Vec<String>,
        /// Filter's port for the meter connection.
        filter_port: u16,
        /// Filter's host (literal name, §3.5.4).
        filter_host: String,
        /// Initial meter flags.
        meter_flags: MeterFlags,
        /// Controller's notification port.
        control_port: u16,
        /// Controller's host.
        control_host: String,
        /// Whether to redirect the process's stdio through the daemon
        /// gateway (§3.5.2).
        redirect_io: bool,
        /// A file on the daemon's machine whose contents become the
        /// process's standard input, followed by end-of-file ("the
        /// file is copied to the machine on which the specified
        /// process is executing. The file is then opened by the
        /// meterdaemon, which redirects to it the standard input of
        /// the process", §3.5.2). Requires `redirect_io`.
        stdin_file: Option<String>,
    },
    /// `12`: create a filter process (runs immediately).
    CreateFilter {
        /// What to spawn, where it listens, where its records go, and
        /// its place in the filter tree — see [`FilterSpec`].
        spec: FilterSpec,
    },
    /// `13`: replace a process's meter flags.
    SetFlags {
        /// The process.
        pid: Pid,
        /// The new mask.
        flags: MeterFlags,
    },
    /// `14`: start or resume.
    Start {
        /// The process.
        pid: Pid,
    },
    /// `15`: stop.
    Stop {
        /// The process.
        pid: Pid,
    },
    /// `16`: kill.
    Kill {
        /// The process.
        pid: Pid,
    },
    /// `17`: meter an already-running process.
    Acquire {
        /// The process.
        pid: Pid,
        /// Filter's meter port.
        filter_port: u16,
        /// Filter's host.
        filter_host: String,
        /// Meter flags to set.
        meter_flags: MeterFlags,
        /// Controller notification port.
        control_port: u16,
        /// Controller host.
        control_host: String,
    },
    /// `32`: meter (or re-bind) a batch of already-running processes
    /// in one round-trip. With `rebind_only` false this is `Acquire`
    /// over each pid, but the daemon opens a *single* connection to
    /// the filter and shares it across the whole batch — the
    /// acquire-at-scale path. With `rebind_only` true the processes
    /// are already metered and only the daemon's notion of the owning
    /// controller changes — the takeover path, which must not disturb
    /// the live meter stream.
    AcquireMany {
        /// The processes.
        pids: Vec<Pid>,
        /// Filter's meter port (ignored when `rebind_only`).
        filter_port: u16,
        /// Filter's host (ignored when `rebind_only`).
        filter_host: String,
        /// Meter flags to set (ignored when `rebind_only`).
        meter_flags: MeterFlags,
        /// Controller notification port.
        control_port: u16,
        /// Controller host.
        control_host: String,
        /// True to only re-point state-change notifications at the
        /// new controller, leaving meter connections untouched.
        rebind_only: bool,
    },
    /// `19`: fetch a file from the daemon's machine.
    GetFile {
        /// Path on the daemon's machine.
        path: String,
    },
    /// `20`: take down a process's meter connection and flags.
    ClearMeter {
        /// The process.
        pid: Pid,
    },
    /// `25`: write a file on the daemon's machine (`rcp`).
    WriteFile {
        /// Destination path.
        path: String,
        /// File contents.
        data: Vec<u8>,
    },
    /// `26`: feed a process's redirected standard input.
    SendInput {
        /// The process.
        pid: Pid,
        /// The bytes.
        data: Vec<u8>,
    },
    /// `23` (daemon → controller): process state change.
    StateChange {
        /// The process.
        pid: Pid,
        /// 0 = terminated normally, 1 = killed, 2 = stopped.
        state: u32,
    },
    /// `24` (daemon → controller): redirected process output.
    IoData {
        /// The process.
        pid: Pid,
        /// What it wrote.
        data: Vec<u8>,
    },
    /// `27`: an idempotency wrapper around another request. The id is
    /// chosen by the caller and reused verbatim on every retry of the
    /// same logical call; the daemon caches the reply it sent for each
    /// id and replays it for duplicates, so a retried `CreateFilter`
    /// or `Start` is applied exactly once.
    Tagged {
        /// Caller-chosen request id, unique per logical call.
        req_id: u64,
        /// The wrapped request.
        inner: Box<Request>,
    },
    /// `28`: query a process's current state (controller resync after
    /// a daemon restart loses in-flight state-change notifications).
    QueryProc {
        /// The process.
        pid: Pid,
    },
    /// `30`: list files on the daemon's machine whose names start with
    /// a prefix — segment enumeration for store-backed filter logs.
    ListFiles {
        /// The name prefix.
        prefix: String,
    },
}

/// A reply to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `18`: result of `Create`/`CreateFilter`/`Acquire`.
    Create {
        /// New (or acquired) process id; 0 on failure.
        pid: Pid,
        /// Outcome of the request.
        status: RpcStatus,
    },
    /// `21`: plain acknowledgement.
    Ack {
        /// Outcome of the request.
        status: RpcStatus,
    },
    /// `22`: file contents.
    File {
        /// Outcome of the request.
        status: RpcStatus,
        /// The bytes (empty on failure).
        data: Vec<u8>,
    },
    /// `29`: a process's current state, answering `QueryProc`.
    ProcStatus {
        /// Outcome of the query ([`RpcStatus::Srch`] if the daemon
        /// does not know the process).
        status: RpcStatus,
        /// Same codes as [`Request::StateChange`]: 0 = terminated
        /// normally, 1 = killed, 2 = stopped, 3 = running.
        state: u32,
    },
    /// `31`: file names, answering `ListFiles`.
    FileList {
        /// Outcome of the request.
        status: RpcStatus,
        /// Matching names, sorted (empty on failure).
        names: Vec<String>,
    },
    /// `33`: per-pid outcomes, answering `AcquireMany`.
    AcquireMany {
        /// Overall outcome: `Ok` when the daemon processed the batch
        /// (individual pids may still have failed), a failure code
        /// when it could not (e.g. the filter was unreachable).
        status: RpcStatus,
        /// One `(pid, outcome)` per requested pid, in request order.
        results: Vec<(Pid, RpcStatus)>,
    },
}

impl Reply {
    /// The reply's status code.
    pub fn status(&self) -> RpcStatus {
        match self {
            Reply::Create { status, .. }
            | Reply::Ack { status }
            | Reply::File { status, .. }
            | Reply::ProcStatus { status, .. }
            | Reply::FileList { status, .. }
            | Reply::AcquireMany { status, .. } => *status,
        }
    }
}

/// Error decoding a protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    what: String,
}

impl ProtoError {
    fn new(what: impl Into<String>) -> ProtoError {
        ProtoError { what: what.into() }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.what)
    }
}

impl std::error::Error for ProtoError {}

// --- wire helpers -----------------------------------------------------

struct W(Vec<u8>);

impl W {
    fn new(ty: u32) -> W {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(&0u32.to_le_bytes()); // length placeholder
        v.extend_from_slice(&ty.to_le_bytes());
        W(v)
    }
    fn u32(&mut self, v: u32) -> &mut W {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(&mut self, v: u64) -> &mut W {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn str(&mut self, s: &str) -> &mut W {
        self.bytes(s.as_bytes())
    }
    fn bytes(&mut self, b: &[u8]) -> &mut W {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
        self
    }
    fn finish(mut self) -> Vec<u8> {
        let len = self.0.len() as u32;
        self.0[0..4].copy_from_slice(&len.to_le_bytes());
        self.0
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| ProtoError::new("truncated u32"))?;
        self.pos += 4;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| ProtoError::new("truncated u64"))?;
        self.pos += 8;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32()? as usize;
        let b = self
            .buf
            .get(self.pos..self.pos + len)
            .ok_or_else(|| ProtoError::new("truncated bytes"))?;
        self.pos += len;
        Ok(b.to_vec())
    }
    fn str(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtoError::new("non-utf8 string"))
    }
}

impl Request {
    /// The message's type number.
    pub fn msg_type(&self) -> u32 {
        match self {
            Request::Create { .. } => msg_type::CREATE_REQUEST,
            Request::CreateFilter { .. } => msg_type::CREATE_FILTER,
            Request::SetFlags { .. } => msg_type::SET_FLAGS,
            Request::Start { .. } => msg_type::START,
            Request::Stop { .. } => msg_type::STOP,
            Request::Kill { .. } => msg_type::KILL,
            Request::Acquire { .. } => msg_type::ACQUIRE,
            Request::AcquireMany { .. } => msg_type::ACQUIRE_MANY,
            Request::GetFile { .. } => msg_type::GET_FILE,
            Request::ClearMeter { .. } => msg_type::CLEAR_METER,
            Request::WriteFile { .. } => msg_type::WRITE_FILE,
            Request::SendInput { .. } => msg_type::SEND_INPUT,
            Request::StateChange { .. } => msg_type::STATE_CHANGE,
            Request::IoData { .. } => msg_type::IO_DATA,
            Request::Tagged { .. } => msg_type::TAGGED,
            Request::QueryProc { .. } => msg_type::QUERY_PROC,
            Request::ListFiles { .. } => msg_type::LIST_FILES,
        }
    }

    /// Encodes to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(self.msg_type());
        match self {
            Request::Create {
                filename,
                params,
                filter_port,
                filter_host,
                meter_flags,
                control_port,
                control_host,
                redirect_io,
                stdin_file,
            } => {
                w.str(filename);
                w.u32(params.len() as u32);
                for p in params {
                    w.str(p);
                }
                w.u32(*filter_port as u32);
                w.str(filter_host);
                w.u32(meter_flags.bits());
                w.u32(*control_port as u32);
                w.str(control_host);
                w.u32(*redirect_io as u32);
                w.str(stdin_file.as_deref().unwrap_or(""));
            }
            Request::CreateFilter { spec } => {
                spec.encode_body(&mut w);
            }
            Request::SetFlags { pid, flags } => {
                w.u32(pid.0);
                w.u32(flags.bits());
            }
            Request::Start { pid } | Request::Stop { pid } | Request::Kill { pid } => {
                w.u32(pid.0);
            }
            Request::Acquire {
                pid,
                filter_port,
                filter_host,
                meter_flags,
                control_port,
                control_host,
            } => {
                w.u32(pid.0);
                w.u32(*filter_port as u32);
                w.str(filter_host);
                w.u32(meter_flags.bits());
                w.u32(*control_port as u32);
                w.str(control_host);
            }
            Request::AcquireMany {
                pids,
                filter_port,
                filter_host,
                meter_flags,
                control_port,
                control_host,
                rebind_only,
            } => {
                w.u32(pids.len() as u32);
                for pid in pids {
                    w.u32(pid.0);
                }
                w.u32(*filter_port as u32);
                w.str(filter_host);
                w.u32(meter_flags.bits());
                w.u32(*control_port as u32);
                w.str(control_host);
                w.u32(*rebind_only as u32);
            }
            Request::GetFile { path } => {
                w.str(path);
            }
            Request::ClearMeter { pid } => {
                w.u32(pid.0);
            }
            Request::WriteFile { path, data } => {
                w.str(path);
                w.bytes(data);
            }
            Request::SendInput { pid, data } => {
                w.u32(pid.0);
                w.bytes(data);
            }
            Request::StateChange { pid, state } => {
                w.u32(pid.0);
                w.u32(*state);
            }
            Request::IoData { pid, data } => {
                w.u32(pid.0);
                w.bytes(data);
            }
            Request::Tagged { req_id, inner } => {
                w.u64(*req_id);
                w.bytes(&inner.encode());
            }
            Request::QueryProc { pid } => {
                w.u32(pid.0);
            }
            Request::ListFiles { prefix } => {
                w.str(prefix);
            }
        }
        w.finish()
    }

    /// Decodes a complete message (including its length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation or an unknown type number.
    pub fn decode(buf: &[u8]) -> Result<Request, ProtoError> {
        let mut r = R { buf, pos: 0 };
        let _len = r.u32()?;
        let ty = r.u32()?;
        Ok(match ty {
            msg_type::CREATE_REQUEST => {
                let filename = r.str()?;
                let n = r.u32()? as usize;
                if n > 4096 {
                    return Err(ProtoError::new("absurd parameter count"));
                }
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(r.str()?);
                }
                Request::Create {
                    filename,
                    params,
                    filter_port: r.u32()? as u16,
                    filter_host: r.str()?,
                    meter_flags: MeterFlags::from_bits(r.u32()?),
                    control_port: r.u32()? as u16,
                    control_host: r.str()?,
                    redirect_io: r.u32()? != 0,
                    stdin_file: {
                        let s = r.str()?;
                        if s.is_empty() {
                            None
                        } else {
                            Some(s)
                        }
                    },
                }
            }
            msg_type::CREATE_FILTER => Request::CreateFilter {
                spec: FilterSpec::decode_body(&mut r)?,
            },
            msg_type::SET_FLAGS => Request::SetFlags {
                pid: Pid(r.u32()?),
                flags: MeterFlags::from_bits(r.u32()?),
            },
            msg_type::START => Request::Start { pid: Pid(r.u32()?) },
            msg_type::STOP => Request::Stop { pid: Pid(r.u32()?) },
            msg_type::KILL => Request::Kill { pid: Pid(r.u32()?) },
            msg_type::ACQUIRE => Request::Acquire {
                pid: Pid(r.u32()?),
                filter_port: r.u32()? as u16,
                filter_host: r.str()?,
                meter_flags: MeterFlags::from_bits(r.u32()?),
                control_port: r.u32()? as u16,
                control_host: r.str()?,
            },
            msg_type::ACQUIRE_MANY => {
                let n = r.u32()? as usize;
                if n > 65536 {
                    return Err(ProtoError::new("absurd pid count"));
                }
                let mut pids = Vec::with_capacity(n);
                for _ in 0..n {
                    pids.push(Pid(r.u32()?));
                }
                Request::AcquireMany {
                    pids,
                    filter_port: r.u32()? as u16,
                    filter_host: r.str()?,
                    meter_flags: MeterFlags::from_bits(r.u32()?),
                    control_port: r.u32()? as u16,
                    control_host: r.str()?,
                    rebind_only: r.u32()? != 0,
                }
            }
            msg_type::GET_FILE => Request::GetFile { path: r.str()? },
            msg_type::CLEAR_METER => Request::ClearMeter { pid: Pid(r.u32()?) },
            msg_type::WRITE_FILE => Request::WriteFile {
                path: r.str()?,
                data: r.bytes()?,
            },
            msg_type::SEND_INPUT => Request::SendInput {
                pid: Pid(r.u32()?),
                data: r.bytes()?,
            },
            msg_type::STATE_CHANGE => Request::StateChange {
                pid: Pid(r.u32()?),
                state: r.u32()?,
            },
            msg_type::IO_DATA => Request::IoData {
                pid: Pid(r.u32()?),
                data: r.bytes()?,
            },
            msg_type::TAGGED => {
                let req_id = r.u64()?;
                let inner = Request::decode(&r.bytes()?)?;
                if matches!(inner, Request::Tagged { .. }) {
                    return Err(ProtoError::new("nested tagged request"));
                }
                Request::Tagged {
                    req_id,
                    inner: Box::new(inner),
                }
            }
            msg_type::QUERY_PROC => Request::QueryProc { pid: Pid(r.u32()?) },
            msg_type::LIST_FILES => Request::ListFiles { prefix: r.str()? },
            other => return Err(ProtoError::new(format!("unknown request type {other}"))),
        })
    }
}

impl Reply {
    /// The message's type number.
    pub fn msg_type(&self) -> u32 {
        match self {
            Reply::Create { .. } => msg_type::CREATE_REPLY,
            Reply::Ack { .. } => msg_type::ACK,
            Reply::File { .. } => msg_type::FILE_REPLY,
            Reply::ProcStatus { .. } => msg_type::PROC_STATUS,
            Reply::FileList { .. } => msg_type::FILE_LIST,
            Reply::AcquireMany { .. } => msg_type::ACQUIRE_MANY_REPLY,
        }
    }

    /// Encodes to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new(self.msg_type());
        match self {
            Reply::Create { pid, status } => {
                w.u32(pid.0);
                w.u32(status.code());
            }
            Reply::Ack { status } => {
                w.u32(status.code());
            }
            Reply::File { status, data } => {
                w.u32(status.code());
                w.bytes(data);
            }
            Reply::ProcStatus { status, state } => {
                w.u32(status.code());
                w.u32(*state);
            }
            Reply::FileList { status, names } => {
                w.u32(status.code());
                w.u32(names.len() as u32);
                for n in names {
                    w.str(n);
                }
            }
            Reply::AcquireMany { status, results } => {
                w.u32(status.code());
                w.u32(results.len() as u32);
                for (pid, st) in results {
                    w.u32(pid.0);
                    w.u32(st.code());
                }
            }
        }
        w.finish()
    }

    /// Decodes a complete message.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation or an unknown type number.
    pub fn decode(buf: &[u8]) -> Result<Reply, ProtoError> {
        let mut r = R { buf, pos: 0 };
        let _len = r.u32()?;
        let ty = r.u32()?;
        Ok(match ty {
            msg_type::CREATE_REPLY => Reply::Create {
                pid: Pid(r.u32()?),
                status: RpcStatus::from(r.u32()?),
            },
            msg_type::ACK => Reply::Ack {
                status: RpcStatus::from(r.u32()?),
            },
            msg_type::FILE_REPLY => Reply::File {
                status: RpcStatus::from(r.u32()?),
                data: r.bytes()?,
            },
            msg_type::PROC_STATUS => Reply::ProcStatus {
                status: RpcStatus::from(r.u32()?),
                state: r.u32()?,
            },
            msg_type::FILE_LIST => {
                let status = RpcStatus::from(r.u32()?);
                let n = r.u32()? as usize;
                if n > 65536 {
                    return Err(ProtoError::new("absurd file count"));
                }
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(r.str()?);
                }
                Reply::FileList { status, names }
            }
            msg_type::ACQUIRE_MANY_REPLY => {
                let status = RpcStatus::from(r.u32()?);
                let n = r.u32()? as usize;
                if n > 65536 {
                    return Err(ProtoError::new("absurd pid count"));
                }
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push((Pid(r.u32()?), RpcStatus::from(r.u32()?)));
                }
                Reply::AcquireMany { status, results }
            }
            other => return Err(ProtoError::new(format!("unknown reply type {other}"))),
        })
    }
}

/// Reads the total length from a message's first four bytes, so stream
/// readers know how much to collect.
pub fn frame_len(prefix: &[u8]) -> Option<usize> {
    if prefix.len() < 4 {
        return None;
    }
    Some(u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_request_matches_figure_3_6_shape() {
        // Fig. 3.6: type 11 with filename, parameter count, parameter
        // list, filter port, filter host, meter flags, control port,
        // control host.
        let req = Request::Create {
            filename: "/bin/A".into(),
            params: vec!["x".into(), "y".into()],
            filter_port: 4000,
            filter_host: "blue".into(),
            meter_flags: MeterFlags::SEND | MeterFlags::RECEIVE,
            control_port: 5000,
            control_host: "yellow".into(),
            redirect_io: true,
            stdin_file: Some("/tmp/in".into()),
        };
        let wire = req.encode();
        assert_eq!(frame_len(&wire), Some(wire.len()));
        let ty = u32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
        assert_eq!(ty, 11, "create request is type 11");
        assert_eq!(Request::decode(&wire).unwrap(), req);
    }

    #[test]
    fn create_reply_matches_figure_3_6_shape() {
        let rep = Reply::Create {
            pid: Pid(2120),
            status: RpcStatus::Ok,
        };
        let wire = rep.encode();
        let ty = u32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
        assert_eq!(ty, 18, "create reply is type 18");
        // Body: pid then status, directly after the 8-byte prefix.
        assert_eq!(
            u32::from_le_bytes([wire[8], wire[9], wire[10], wire[11]]),
            2120
        );
        assert_eq!(Reply::decode(&wire).unwrap(), rep);
    }

    #[test]
    fn every_request_round_trips() {
        let f = MeterFlags::ALL;
        let reqs = vec![
            Request::CreateFilter {
                spec: FilterSpec::builder("/bin/filter", 4001)
                    .logfile("/usr/tmp/f1")
                    .shards(4)
                    .build()
                    .unwrap(),
            },
            Request::CreateFilter {
                spec: FilterSpec::builder("/bin/filter", 4002)
                    .logfile("/usr/tmp/f2")
                    .shards(2)
                    .log_mode(LogSinkMode::Store)
                    .role(FilterRole::Aggregate)
                    .build()
                    .unwrap(),
            },
            Request::CreateFilter {
                spec: FilterSpec::builder("/bin/filter", 4003)
                    .role(FilterRole::Edge)
                    .upstream("blue:4002")
                    .build()
                    .unwrap(),
            },
            Request::SetFlags {
                pid: Pid(7),
                flags: f,
            },
            Request::Start { pid: Pid(7) },
            Request::Stop { pid: Pid(7) },
            Request::Kill { pid: Pid(7) },
            Request::Acquire {
                pid: Pid(9),
                filter_port: 1,
                filter_host: "h".into(),
                meter_flags: f,
                control_port: 2,
                control_host: "c".into(),
            },
            Request::AcquireMany {
                pids: vec![Pid(9), Pid(10), Pid(11)],
                filter_port: 1,
                filter_host: "h".into(),
                meter_flags: f,
                control_port: 2,
                control_host: "c".into(),
                rebind_only: false,
            },
            Request::AcquireMany {
                pids: vec![],
                filter_port: 0,
                filter_host: String::new(),
                meter_flags: MeterFlags::from_bits(0),
                control_port: 2,
                control_host: "c".into(),
                rebind_only: true,
            },
            Request::GetFile {
                path: "/usr/tmp/f1".into(),
            },
            Request::ClearMeter { pid: Pid(9) },
            Request::WriteFile {
                path: "/bin/A".into(),
                data: vec![1, 2, 3],
            },
            Request::SendInput {
                pid: Pid(9),
                data: b"hello\n".to_vec(),
            },
            Request::StateChange {
                pid: Pid(9),
                state: 0,
            },
            Request::IoData {
                pid: Pid(9),
                data: b"output".to_vec(),
            },
            Request::QueryProc { pid: Pid(2120) },
            Request::ListFiles {
                prefix: "/usr/tmp/f1-segments/".into(),
            },
            Request::Tagged {
                req_id: 0xDEAD_BEEF_0000_0001,
                inner: Box::new(Request::Start { pid: Pid(7) }),
            },
        ];
        for req in reqs {
            let wire = req.encode();
            assert_eq!(Request::decode(&wire).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn every_reply_round_trips() {
        for rep in [
            Reply::Create {
                pid: Pid(1),
                status: RpcStatus::Ok,
            },
            Reply::Ack {
                status: RpcStatus::Perm,
            },
            Reply::File {
                status: RpcStatus::Ok,
                data: vec![9; 100],
            },
            Reply::Ack {
                status: RpcStatus::Other(77),
            },
            Reply::ProcStatus {
                status: RpcStatus::Ok,
                state: 3,
            },
            Reply::ProcStatus {
                status: RpcStatus::Srch,
                state: 0,
            },
            Reply::FileList {
                status: RpcStatus::Ok,
                names: vec!["a-0.seg".into(), "a-1.seg".into()],
            },
            Reply::FileList {
                status: RpcStatus::NoEnt,
                names: vec![],
            },
            Reply::AcquireMany {
                status: RpcStatus::Ok,
                results: vec![
                    (Pid(9), RpcStatus::Ok),
                    (Pid(10), RpcStatus::Srch),
                    (Pid(11), RpcStatus::Ok),
                ],
            },
            Reply::AcquireMany {
                status: RpcStatus::Unavailable,
                results: vec![],
            },
        ] {
            assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn acquire_many_rejects_garbage() {
        // An absurd pid count (a corrupted or hostile length prefix)
        // is named, not allocated.
        let req = Request::AcquireMany {
            pids: vec![Pid(1)],
            filter_port: 4000,
            filter_host: "green".into(),
            meter_flags: MeterFlags::ALL,
            control_port: 5000,
            control_host: "yellow".into(),
            rebind_only: false,
        };
        let mut wire = req.encode();
        wire[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Request::decode(&wire).unwrap_err();
        assert!(err.to_string().contains("absurd pid count"), "{err}");
        // Truncated mid-batch.
        let wire = req.encode();
        assert!(Request::decode(&wire[..wire.len() - 2]).is_err());
        // The reply-side count is capped the same way.
        let rep = Reply::AcquireMany {
            status: RpcStatus::Ok,
            results: vec![(Pid(1), RpcStatus::Ok)],
        };
        let mut wire = rep.encode();
        wire[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Reply::decode(&wire).unwrap_err();
        assert!(err.to_string().contains("absurd pid count"), "{err}");
    }

    #[test]
    fn tagged_requests_nest_and_reject_double_wrapping() {
        // A Tagged wrapper round-trips any plain request and keeps
        // the same id across re-encodes (the retry path depends on
        // byte-identical retransmissions).
        let inner = Request::CreateFilter {
            spec: FilterSpec::builder("/bin/filter", 4001)
                .logfile("/usr/tmp/f1")
                .log_mode(LogSinkMode::Store)
                .build()
                .unwrap(),
        };
        let tagged = Request::Tagged {
            req_id: 42,
            inner: Box::new(inner.clone()),
        };
        let wire = tagged.encode();
        assert_eq!(wire, tagged.encode(), "encoding is deterministic");
        let ty = u32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
        assert_eq!(ty, msg_type::TAGGED);
        match Request::decode(&wire).unwrap() {
            Request::Tagged { req_id, inner: got } => {
                assert_eq!(req_id, 42);
                assert_eq!(*got, inner);
            }
            other => panic!("decoded {other:?}"),
        }
        // Tagged-inside-Tagged is malformed, not silently unwrapped.
        let double = Request::Tagged {
            req_id: 1,
            inner: Box::new(tagged),
        };
        assert!(Request::decode(&double.encode())
            .unwrap_err()
            .to_string()
            .contains("nested tagged"));
    }

    #[test]
    fn retry_status_codes_round_trip_and_print() {
        // The retry/dedup additions: wire codes 5 and 6 are now typed
        // instead of falling into Other.
        assert_eq!(RpcStatus::from(5), RpcStatus::Timeout);
        assert_eq!(RpcStatus::from(6), RpcStatus::Unavailable);
        assert_eq!(RpcStatus::Timeout.code(), 5);
        assert_eq!(RpcStatus::Unavailable.code(), 6);
        assert!(!RpcStatus::Timeout.is_ok());
        assert!(!RpcStatus::Unavailable.is_ok());
        assert_eq!(RpcStatus::Timeout.to_string(), "request timed out");
        assert_eq!(RpcStatus::Unavailable.to_string(), "daemon unavailable");
        // They survive a trip through a reply frame too.
        for status in [RpcStatus::Timeout, RpcStatus::Unavailable] {
            let rep = Reply::Ack { status };
            assert_eq!(Reply::decode(&rep.encode()).unwrap().status(), status);
        }
    }

    #[test]
    fn rpc_status_round_trips_and_prints() {
        for code in 0..8u32 {
            assert_eq!(RpcStatus::from(code).code(), code);
        }
        assert!(RpcStatus::Ok.is_ok());
        assert!(!RpcStatus::Fail.is_ok());
        assert_eq!(RpcStatus::from(2), RpcStatus::Srch);
        assert_eq!(RpcStatus::from(9), RpcStatus::Other(9));
        assert_eq!(RpcStatus::NoEnt.to_string(), "no such file");
        assert_eq!(RpcStatus::Other(9).to_string(), "unknown status 9");
    }

    #[test]
    fn decode_errors_on_garbage() {
        assert!(Request::decode(&[1, 2]).is_err());
        let mut wire = Request::Start { pid: Pid(1) }.encode();
        wire[4..8].copy_from_slice(&999u32.to_le_bytes());
        assert!(Request::decode(&wire)
            .unwrap_err()
            .to_string()
            .contains("999"));
        let mut truncated = Request::GetFile { path: "abc".into() }.encode();
        truncated.truncate(10);
        assert!(Request::decode(&truncated).is_err());
        assert!(Reply::decode(&[0; 8]).is_err());
    }

    #[test]
    fn log_sink_mode_codes_and_args() {
        assert_eq!(LogSinkMode::Text.code(), 0);
        assert_eq!(LogSinkMode::Store.code(), 1);
        assert_eq!(LogSinkMode::from_code(0), Ok(LogSinkMode::Text));
        assert_eq!(LogSinkMode::from_code(1), Ok(LogSinkMode::Store));
        assert!(LogSinkMode::from_code(7).is_err());
        assert_eq!(LogSinkMode::default(), LogSinkMode::Text);
        assert_eq!(LogSinkMode::Store.as_arg(), "store");
        assert_eq!(LogSinkMode::Text.to_string(), "text");
        // A CreateFilter with a garbage mode is rejected, not guessed.
        // v1 body tail (empty upstream): …, mode, role, upstream-len.
        let mut wire = Request::CreateFilter {
            spec: FilterSpec::builder("f", 1)
                .logfile("l")
                .descriptions("d")
                .templates("t")
                .log_mode(LogSinkMode::Store)
                .build()
                .unwrap(),
        }
        .encode();
        let n = wire.len();
        wire[n - 12..n - 8].copy_from_slice(&9u32.to_le_bytes());
        assert!(Request::decode(&wire)
            .unwrap_err()
            .to_string()
            .contains("log sink mode"));
    }

    #[test]
    fn filter_spec_v1_round_trips_and_rejects_garbage() {
        let spec = FilterSpec::builder("/bin/filter", 4700)
            .logfile("/usr/tmp/log.root")
            .log_mode(LogSinkMode::Store)
            .role(FilterRole::Aggregate)
            .upstream("hub:4900")
            .shards(3)
            .build()
            .unwrap();
        let req = Request::CreateFilter { spec: spec.clone() };
        let wire = req.encode();
        assert_eq!(Request::decode(&wire).unwrap(), req);
        // Body layout: tag at 8..12, version at 12..16.
        assert_eq!(&wire[8..12], &SPEC_TAG.to_le_bytes());
        assert_eq!(&wire[12..16], &FILTER_SPEC_VERSION.to_le_bytes());

        // Unknown version: rejected with the version named.
        let mut bad = wire.clone();
        bad[12..16].copy_from_slice(&99u32.to_le_bytes());
        let err = Request::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("unknown filter spec version 99"), "{err}");

        // Garbage role: rejected, not guessed. Tail (upstream
        // "hub:4900", 8 bytes): …, role, upstream-len, upstream.
        let n = wire.len();
        let mut bad = wire.clone();
        bad[n - 16..n - 12].copy_from_slice(&7u32.to_le_bytes());
        let err = Request::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("unknown filter role 7"), "{err}");

        // No tag: the untagged positional body of the first wire
        // version is refused, not decoded.
        let mut w = W::new(msg_type::CREATE_FILTER);
        w.str("/bin/filter");
        w.u32(4001);
        w.str("/usr/tmp/f1");
        w.str("descriptions");
        w.str("templates");
        w.u32(1);
        w.u32(LogSinkMode::Store.code());
        let err = Request::decode(&w.finish()).unwrap_err().to_string();
        assert!(err.contains("without its version tag"), "{err}");
    }

    #[test]
    fn filter_spec_builder_validates() {
        // An edge without an upstream is unusable.
        let err = FilterSpec::builder("/bin/filter", 4000)
            .role(FilterRole::Edge)
            .build()
            .unwrap_err()
            .to_string();
        assert!(err.contains("upstream"), "{err}");
        // A leaf (or aggregate) without a log has nowhere to write.
        let err = FilterSpec::builder("/bin/filter", 4000)
            .build()
            .unwrap_err()
            .to_string();
        assert!(err.contains("log"), "{err}");
        // Upstream addresses must parse as host:port.
        let err = FilterSpec::builder("/bin/filter", 4000)
            .role(FilterRole::Edge)
            .upstream("nocolon")
            .build()
            .unwrap_err()
            .to_string();
        assert!(err.contains("upstream"), "{err}");
        // Zero shards never made sense; the builder says so now.
        let err = FilterSpec::builder("/bin/filter", 4000)
            .logfile("l")
            .shards(0)
            .build()
            .unwrap_err()
            .to_string();
        assert!(err.contains("shard"), "{err}");
        // Edges legitimately have no log.
        let spec = FilterSpec::builder("/bin/filter", 4000)
            .role(FilterRole::Edge)
            .upstream("blue:4001")
            .build()
            .unwrap();
        assert_eq!(spec.upstream_addr(), Some(("blue".to_owned(), 4001)));
        assert!(spec.logfile.is_empty());
        // The program args honor the keyword grammar end to end.
        let args = spec.to_program_args();
        assert!(args.contains(&"role=edge".to_owned()), "{args:?}");
        assert!(args.contains(&"upstream=blue:4001".to_owned()), "{args:?}");
    }

    #[test]
    fn leaf_specs_spawn_with_the_positional_argv() {
        // User-written filters (§3.4) parse their argv by position, so
        // plain leaves must keep the pre-tree layout.
        let spec = FilterSpec::builder("/bin/filter", 4000)
            .logfile("/usr/tmp/log.f1")
            .build()
            .unwrap();
        let args = spec.to_program_args();
        assert_eq!(args[0], "4000");
        assert_eq!(args[1], "/usr/tmp/log.f1");
        assert!(
            args.iter().all(|a| !a.contains('=')),
            "leaf argv stays positional: {args:?}"
        );
    }

    #[test]
    fn frame_len_reads_prefix() {
        assert_eq!(frame_len(&[5, 0, 0, 0, 9]), Some(5));
        assert_eq!(frame_len(&[1, 2]), None);
    }
}
