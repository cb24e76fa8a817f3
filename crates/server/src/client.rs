//! A blocking client for the wire protocol — what tests, `loadgen`, and
//! a future dashboard speak. One request in flight at a time; responses
//! are matched positionally (the protocol has no request ids yet).

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use itag_core::engine::RunSummary;
use itag_core::monitor::{MonitorSnapshot, ProjectListing};
use itag_core::project::ProjectSpec;
use itag_model::ids::{ProjectId, TagId, TaggerId};

use crate::frame::{decode_payload, write_frame, FrameError, FrameReader, ReadOutcome};
use crate::proto::{DatasetSpec, OpenTask, Request, Response, WireError, PROTOCOL_VERSION};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Frame(FrameError),
    /// The response payload did not decode.
    Decode(String),
    /// The server answered with a typed protocol error.
    Server(WireError),
    /// The server shed this session (accept queue full).
    Busy,
    /// Connection ended where a response was expected.
    Closed,
    /// The response decoded but was not the kind this call expects.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "framing: {e}"),
            ClientError::Decode(m) => write!(f, "undecodable response: {m}"),
            ClientError::Server(e) => write!(f, "server refused: {e}"),
            ClientError::Busy => write!(f, "server busy (session shed)"),
            ClientError::Closed => write!(f, "connection closed mid-call"),
            ClientError::Unexpected(kind) => write!(f, "unexpected response kind (wanted {kind})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// True for failures worth retrying a fresh connection over: the
    /// server shed us (`Busy`), the connection died before or during the
    /// handshake, or the socket hit a transient-looking I/O condition.
    /// Typed server refusals, decode failures, and protocol surprises
    /// are deterministic — retrying them only repeats the mistake.
    pub fn is_transient(&self) -> bool {
        fn transient_io(e: &std::io::Error) -> bool {
            matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::UnexpectedEof
            )
        }
        match self {
            ClientError::Busy | ClientError::Closed => true,
            ClientError::Io(e) => transient_io(e),
            // A connection dying mid-frame surfaces as a framing-layer
            // I/O error; it is as transient as the same error naked.
            ClientError::Frame(FrameError::Io(e)) => transient_io(e),
            ClientError::Frame(_)
            | ClientError::Decode(_)
            | ClientError::Server(_)
            | ClientError::Unexpected(_) => false,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

pub type Result<T> = std::result::Result<T, ClientError>;

/// Opt-in retry/backoff for connection establishment. The policy only
/// governs [`Client::connect_retrying`] — established sessions never
/// retry implicitly, because re-sending a non-idempotent request (fund a
/// project, submit a post) after an ambiguous failure could apply it
/// twice. Backoff is exponential with deterministic decorrelated jitter:
/// attempt `n` sleeps a duration drawn from `[d/2, d]` where
/// `d = min(cap, base * 2^n)`, using a splitmix64 stream seeded by
/// `seed` — reproducible in tests, spread out in a fleet.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total connection attempts (≥ 1); the last failure is returned.
    pub max_attempts: u32,
    /// First backoff step.
    pub base: Duration,
    /// Ceiling for a single backoff step.
    pub cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(20),
            cap: Duration::from_secs(1),
            seed: 0x17a6_5eed,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based: the delay after
    /// the first failure is `backoff(0)`). Pure — the caller advances
    /// `rng` between calls.
    pub fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.cap);
        let exp_ns = exp.as_nanos() as u64;
        if exp_ns == 0 {
            return Duration::ZERO;
        }
        // Jitter in [exp/2, exp] keeps a floor under the delay (pure
        // full-jitter can draw ~0 and hammer the server anyway).
        let half = exp_ns / 2;
        Duration::from_nanos(half + splitmix64(rng) % (exp_ns - half + 1))
    }
}

/// splitmix64: tiny, seedable, and good enough for jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A connected session. [`Client::connect`] performs the `Hello`
/// handshake, so a constructed client is ready for typed calls.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frames: FrameReader,
    max_frame: usize,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, 4 << 20, Duration::from_secs(30))
    }

    /// `timeout` bounds every blocking socket operation, so a wedged or
    /// shed session fails instead of hanging the caller forever.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        max_frame: usize,
        timeout: Duration,
    ) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // No Nagle: a request frame larger than the write buffer must not
        // wait for the server's delayed ACK of its length prefix.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let read_half = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            frames: FrameReader::new(max_frame),
            max_frame,
        };
        match client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { .. } => Ok(client),
            Response::Busy => Err(ClientError::Busy),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("HelloOk")),
        }
    }

    /// [`Client::connect_with`], retried under `policy` for transient
    /// failures — shed sessions (`Busy`), dropped connections, socket
    /// timeouts. Deterministic refusals (version mismatch, malformed
    /// traffic) fail immediately; the final attempt's error is returned
    /// when the budget runs out.
    pub fn connect_retrying(
        addr: impl ToSocketAddrs + Clone,
        max_frame: usize,
        timeout: Duration,
        policy: RetryPolicy,
    ) -> Result<Client> {
        let mut rng = policy.seed;
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match Client::connect_with(addr.clone(), max_frame, timeout) {
                Ok(client) => return Ok(client),
                Err(e) if e.is_transient() && attempt + 1 < attempts => {
                    std::thread::sleep(policy.backoff(attempt, &mut rng));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and reads one response.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.writer, req, self.max_frame)?;
        match self.frames.read(&mut self.reader)? {
            ReadOutcome::Frame(p) => decode_payload::<Response>(&p).map_err(ClientError::Decode),
            ReadOutcome::Eof => Err(ClientError::Closed),
            // The socket timeout is the deadline; a TimedOut here means
            // the server is still thinking past it.
            ReadOutcome::TimedOut => Err(ClientError::Closed),
        }
    }

    fn expect<T>(
        &mut self,
        req: &Request,
        kind: &'static str,
        pick: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T> {
        match self.call(req)? {
            Response::Busy => Err(ClientError::Busy),
            Response::Error(e) => Err(ClientError::Server(e)),
            resp => pick(resp).ok_or(ClientError::Unexpected(kind)),
        }
    }

    pub fn ping(&mut self) -> Result<()> {
        self.expect(&Request::Ping, "Pong", |r| {
            matches!(r, Response::Pong).then_some(())
        })
    }

    pub fn register_provider(&mut self, name: &str) -> Result<u32> {
        self.expect(
            &Request::RegisterProvider { name: name.into() },
            "Registered",
            |r| match r {
                Response::Registered { id } => Some(id),
                _ => None,
            },
        )
    }

    pub fn register_tagger(&mut self, name: &str) -> Result<u32> {
        self.expect(
            &Request::RegisterTagger { name: name.into() },
            "Registered",
            |r| match r {
                Response::Registered { id } => Some(id),
                _ => None,
            },
        )
    }

    pub fn create_project(
        &mut self,
        provider: u32,
        spec: ProjectSpec,
        dataset: DatasetSpec,
        audience: bool,
    ) -> Result<ProjectId> {
        self.expect(
            &Request::CreateProject {
                provider,
                spec,
                dataset,
                audience,
            },
            "ProjectCreated",
            |r| match r {
                Response::ProjectCreated { project } => Some(project),
                _ => None,
            },
        )
    }

    pub fn publish_batch(&mut self, project: ProjectId, want: u32) -> Result<u32> {
        self.expect(
            &Request::PublishBatch { project, want },
            "Published",
            |r| match r {
                Response::Published { tasks } => Some(tasks),
                _ => None,
            },
        )
    }

    pub fn run_round(&mut self, project: ProjectId, max_tasks: u32) -> Result<RunSummary> {
        self.expect(
            &Request::RunRound { project, max_tasks },
            "RunDone",
            |r| match r {
                Response::RunDone { summary } => Some(summary),
                _ => None,
            },
        )
    }

    pub fn collect(&mut self, project: ProjectId) -> Result<(u32, u32)> {
        self.expect(&Request::Collect { project }, "Collected", |r| match r {
            Response::Collected { approved, rejected } => Some((approved, rejected)),
            _ => None,
        })
    }

    pub fn monitor(&mut self, project: ProjectId) -> Result<MonitorSnapshot> {
        self.expect(&Request::Monitor { project }, "Snapshot", |r| match r {
            Response::Snapshot(s) => Some(s),
            _ => None,
        })
    }

    pub fn monitor_table(&mut self, project: ProjectId, limit: u32) -> Result<String> {
        self.expect(
            &Request::MonitorTable { project, limit },
            "Table",
            |r| match r {
                Response::Table { rendered } => Some(rendered),
                _ => None,
            },
        )
    }

    pub fn add_budget(&mut self, project: ProjectId, extra_tasks: u32) -> Result<()> {
        self.expect(
            &Request::AddBudget {
                project,
                extra_tasks,
            },
            "Done",
            |r| matches!(r, Response::Done).then_some(()),
        )
    }

    pub fn switch_strategy(
        &mut self,
        project: ProjectId,
        strategy: itag_strategy::StrategyKind,
    ) -> Result<()> {
        self.expect(
            &Request::SwitchStrategy { project, strategy },
            "Done",
            |r| matches!(r, Response::Done).then_some(()),
        )
    }

    pub fn stop_project(&mut self, project: ProjectId) -> Result<()> {
        self.expect(&Request::StopProject { project }, "Done", |r| {
            matches!(r, Response::Done).then_some(())
        })
    }

    pub fn export_csv(&mut self, project: ProjectId) -> Result<String> {
        self.expect(&Request::ExportCsv { project }, "Csv", |r| match r {
            Response::Csv { csv } => Some(csv),
            _ => None,
        })
    }

    pub fn export_download(&mut self, project: ProjectId) -> Result<Vec<u8>> {
        self.expect(
            &Request::ExportDownload { project },
            "Download",
            |r| match r {
                Response::Download { bytes } => Some(bytes),
                _ => None,
            },
        )
    }

    pub fn browse_projects(&mut self) -> Result<Vec<ProjectListing>> {
        self.expect(&Request::BrowseProjects, "Projects", |r| match r {
            Response::Projects { listings } => Some(listings),
            _ => None,
        })
    }

    pub fn pull_tasks(&mut self, project: ProjectId, limit: u32) -> Result<Vec<OpenTask>> {
        self.expect(
            &Request::PullTasks { project, limit },
            "Tasks",
            |r| match r {
                Response::Tasks { open } => Some(open),
                _ => None,
            },
        )
    }

    pub fn submit_post(
        &mut self,
        project: ProjectId,
        task: u64,
        tagger: TaggerId,
        tags: Vec<TagId>,
    ) -> Result<()> {
        self.expect(
            &Request::SubmitPost {
                project,
                task,
                tagger,
                tags,
            },
            "Done",
            |r| matches!(r, Response::Done).then_some(()),
        )
    }

    pub fn reputation(&mut self, tagger: u32) -> Result<(f64, bool)> {
        self.expect(
            &Request::Reputation { tagger },
            "ReputationReport",
            |r| match r {
                Response::ReputationReport {
                    approval_rate,
                    reliable,
                } => Some((approval_rate, reliable)),
                _ => None,
            },
        )
    }

    pub fn checksum(&mut self) -> Result<u64> {
        self.expect(&Request::Checksum, "Checksum", |r| match r {
            Response::Checksum { digest } => Some(digest),
            _ => None,
        })
    }

    /// Ends the session cleanly.
    pub fn quit(mut self) -> Result<()> {
        match self.call(&Request::Quit)? {
            Response::Bye => Ok(()),
            _ => Err(ClientError::Unexpected("Bye")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 42,
        };
        let (mut a, mut b) = (policy.seed, policy.seed);
        for attempt in 0..8 {
            let d1 = policy.backoff(attempt, &mut a);
            let d2 = policy.backoff(attempt, &mut b);
            assert_eq!(d1, d2, "same seed must give the same schedule");
            let exp = policy
                .base
                .saturating_mul(2u32.saturating_pow(attempt))
                .min(policy.cap);
            assert!(
                d1 >= exp / 2 && d1 <= exp,
                "attempt {attempt}: {d1:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
        // Deep attempts saturate at the cap, never overflow.
        let mut rng = 7;
        let deep = policy.backoff(1000, &mut rng);
        assert!(deep <= policy.cap && deep >= policy.cap / 2);
    }

    #[test]
    fn jitter_actually_varies_across_the_stream() {
        let policy = RetryPolicy::default();
        let mut rng = 1;
        let draws: Vec<Duration> = (0..6).map(|_| policy.backoff(3, &mut rng)).collect();
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "six draws at the same attempt all equal — jitter is dead: {draws:?}"
        );
    }

    #[test]
    fn transient_classification_splits_retryable_from_deterministic() {
        assert!(ClientError::Busy.is_transient());
        assert!(ClientError::Closed.is_transient());
        assert!(ClientError::Io(std::io::ErrorKind::TimedOut.into()).is_transient());
        assert!(ClientError::Io(std::io::ErrorKind::ConnectionReset.into()).is_transient());
        assert!(!ClientError::Io(std::io::ErrorKind::PermissionDenied.into()).is_transient());
        assert!(!ClientError::Decode("junk".into()).is_transient());
        assert!(!ClientError::Unexpected("Pong").is_transient());
        assert!(!ClientError::Server(WireError::new(
            crate::proto::ErrorCode::Degraded,
            "read-only"
        ))
        .is_transient());
    }
}
