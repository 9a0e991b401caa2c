//! The serve phase: an in-process `pra_serve::Server` on loopback, a
//! closed-loop warm-up pass, and an open-loop generator that sends on a
//! fixed schedule and times each request from when it was due.
//!
//! The client is one connection and two threads: the caller's thread
//! sends on schedule and keeps the books, a reader thread stamps each
//! arriving line. Every answer is checked against the sweep's rows for
//! the same network, representation, engine and seed.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pra_core::Fidelity;
use pra_serve::protocol::{engine_labels, repr_label, response_digest, ControlRequest};
use pra_serve::{Request, Response, ServeConfig, Server, StatsSnapshot};
use pra_workloads::cache::ArtifactStore;
use pra_workloads::{Network, Representation};

use crate::trace::now;

/// How long the client waits without any answer before it gives up.
const STALL: Duration = Duration::from_secs(60);

/// A running server.
pub struct Boot {
    /// Loopback address it listens on.
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Binds a server with the repository's serving defaults, full
/// fidelity, over `store`, and starts its event loop on a thread.
///
/// # Errors
///
/// When the socket cannot be bound or the thread cannot start.
pub fn boot(store: ArtifactStore) -> Result<Boot, String> {
    let cfg = ServeConfig { fidelity: Fidelity::Full, store, ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let handle = std::thread::Builder::new()
        .name("perfbench-server".to_string())
        .spawn(move || server.run_once())
        .map_err(|e| format!("spawn server: {e}"))?;
    Ok(Boot { addr, handle })
}

impl Boot {
    /// Asks the server to drain and waits for its event loop to return.
    ///
    /// # Errors
    ///
    /// When the drain cannot be sent or the server ended in error.
    pub fn stop(self) -> Result<(), String> {
        control(self.addr, ControlRequest::Drain)?;
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Sends one control line on a fresh connection and returns the reply.
fn control(addr: SocketAddr, ctl: ControlRequest) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.write_all((ctl.to_json_line() + "\n").as_bytes()).map_err(|e| format!("send ctl: {e}"))?;
    let mut line = String::new();
    BufReader::new(&s).read_line(&mut line).map_err(|e| format!("read ctl reply: {e}"))?;
    let _ = s.shutdown(std::net::Shutdown::Both);
    Ok(line)
}

/// The server's counters (`{"ctl": "stats"}`).
///
/// # Errors
///
/// When the exchange fails or the reply does not parse.
pub fn stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    let line = control(addr, ControlRequest::Stats)?;
    StatsSnapshot::parse(line.trim()).map_err(|e| format!("stats: {e}"))
}

/// The `hot` mix: the repository's own request mix at one seed,
/// every request on protocol v2. The warm-up pass sends it in this
/// order, which the serve golden pins.
pub fn hot_request(i: usize, seed: u64) -> Request {
    let mut r = pra_serve::bench::request_mix(i, seed);
    r.v = 2;
    r
}

/// The `hot` mix in open-loop order: the same requests, but each run of
/// 48 (six blocks of eight, one block per workload) is sent round-robin
/// over the six workloads. In `request_mix` order a block's eight VGG19
/// requests arrive together and pile more simulation onto two cores
/// than they finish before the next arrivals, so the tail would follow
/// that queue and amplify every change in the machine's speed.
pub fn hot_open_request(i: usize, seed: u64) -> Request {
    let r = i % 48;
    hot_request(i - r + (r % 6) * 8 + r / 6, seed)
}

/// The `churn` mix, on protocol v1. Consecutive requests rotate over
/// the six networks. Each network's own requests come in blocks of
/// five, one per engine, that share one workload; its blocks step
/// through both representations and the three `seeds`. So 6 × 2 × 3 =
/// 36 workloads cycle through the server's 16-entry artifact pool, and
/// a workload comes back only after all 36 have been used, long after
/// the pool dropped it. The mix repeats every 180 requests.
pub fn churn_request(i: usize, seeds: &[u64]) -> Request {
    let (net, k) = (i % 6, i / 6);
    let combo = (k / 5) % (2 * seeds.len());
    let repr =
        if combo.is_multiple_of(2) { Representation::Fixed16 } else { Representation::Quant8 };
    let labels = engine_labels(repr);
    Request {
        id: i as u64,
        network: Network::ALL[net],
        repr,
        engine: labels[k % labels.len()].clone(),
        seed: seeds[combo / 2],
        v: 1,
    }
}

/// One request's round trip.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// What was sent.
    pub req: Request,
    /// When it was due to be sent.
    pub due: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// First line back for this id: a v2 `layer_result` frame, or the
    /// v1 answer itself.
    pub first: Option<Instant>,
    /// When the terminal line arrived.
    pub done: Option<Instant>,
    /// `layer_result` frames received.
    pub frames: usize,
    /// The `layers` field those frames carried, if they all agreed.
    pub frame_layers: Option<usize>,
    /// The terminal line as received (a `done` frame under v2).
    pub terminal: Option<Response>,
}

impl Exchange {
    /// The answer inside the terminal line.
    pub fn answer(&self) -> Option<&Response> {
        match self.terminal.as_ref()? {
            Response::Done { inner, .. } => Some(inner),
            other => Some(other),
        }
    }
}

/// How requests are paced.
#[derive(Debug, Clone)]
pub enum Pace {
    /// At most `window` requests outstanding; each is due when a slot
    /// frees.
    Closed(usize),
    /// Request `k` is due at offset `k` (seconds after the start),
    /// whatever the server does.
    Open(Vec<f64>),
}

/// An arrival schedule: `n` send offsets in seconds at a mean `rate`
/// per second, each gap drawn uniformly from half to one and a half
/// mean gaps with `seed`, so the same seed always gives the same
/// schedule. The jitter keeps arrivals from marching in step with
/// anything periodic in the server; the bounded gaps keep the offered
/// load even across runs, which a Poisson process would not.
pub fn schedule(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let at = t;
            // splitmix64, then a uniform in [0, 1).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            t += (0.5 + u) / rate;
            at
        })
        .collect()
}

/// One client connection and its reader thread.
pub struct Client {
    out: TcpStream,
    rx: Receiver<Result<(Response, Instant), String>>,
    reader: JoinHandle<()>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// When the connection or the reader thread cannot be set up.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        out.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let read_half = out.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        let (tx, rx) = channel();
        let reader = std::thread::Builder::new()
            .name("perfbench-reader".to_string())
            .spawn(move || {
                for line in BufReader::new(read_half).lines() {
                    let msg = match line {
                        Ok(l) if l.trim().is_empty() => continue,
                        Ok(l) => Response::parse(&l)
                            .map(|r| (r, now()))
                            .map_err(|e| format!("parse response: {e}")),
                        Err(e) => Err(format!("read: {e}")),
                    };
                    if tx.send(msg).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawn reader: {e}"))?;
        Ok(Client { out, rx, reader })
    }

    /// Half-closes the connection and waits for the reader to see EOF.
    pub fn close(self) {
        let _ = self.out.shutdown(std::net::Shutdown::Write);
        let _ = self.reader.join();
    }

    /// Sends `reqs` paced by `pace` and collects every round trip, in
    /// request order. Request ids must be distinct.
    ///
    /// # Errors
    ///
    /// On a broken connection, an answer for an unknown id, or no answer
    /// at all for [`STALL`].
    pub fn drive(&mut self, reqs: &[Request], pace: &Pace) -> Result<Vec<Exchange>, String> {
        let index: BTreeMap<u64, usize> = reqs.iter().enumerate().map(|(k, r)| (r.id, k)).collect();
        let mut exs: Vec<Exchange> = Vec::with_capacity(reqs.len());
        let start = now();
        let (mut outstanding, mut finished) = (0usize, 0usize);
        let mut last_arrival = start;
        while finished < reqs.len() {
            // Send everything that is due.
            while exs.len() < reqs.len() {
                let k = exs.len();
                let due = match pace {
                    Pace::Open(at) => start + Duration::from_secs_f64(at[k]),
                    Pace::Closed(window) if outstanding < *window => now(),
                    Pace::Closed(_) => break,
                };
                if now() < due {
                    break;
                }
                let line = reqs[k].to_json_line() + "\n";
                let sent = now();
                self.out
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("send request {}: {e}", reqs[k].id))?;
                exs.push(Exchange {
                    req: reqs[k].clone(),
                    due,
                    sent,
                    first: None,
                    done: None,
                    frames: 0,
                    frame_layers: None,
                    terminal: None,
                });
                outstanding += 1;
            }
            // Wait for an answer, or until the next request is due.
            let wait = match pace {
                Pace::Open(at) if exs.len() < reqs.len() => {
                    let due = start + Duration::from_secs_f64(at[exs.len()]);
                    due.saturating_duration_since(now())
                }
                _ => STALL.saturating_sub(now().saturating_duration_since(last_arrival)),
            };
            let (resp, at) = match self.rx.recv_timeout(wait) {
                Ok(msg) => msg?,
                Err(RecvTimeoutError::Timeout) => {
                    if now().saturating_duration_since(last_arrival) >= STALL {
                        return Err(format!(
                            "no answer for {STALL:?}; {finished}/{} answered",
                            reqs.len()
                        ));
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("connection closed; {finished}/{} answered", reqs.len()))
                }
            };
            last_arrival = at;
            let k = index
                .get(&resp.id())
                .copied()
                .filter(|&k| k < exs.len() && exs[k].done.is_none())
                .ok_or_else(|| format!("answer for unexpected id {}", resp.id()))?;
            let ex = &mut exs[k];
            ex.first.get_or_insert(at);
            if let Response::LayerResult { layers, .. } = resp {
                ex.frames += 1;
                ex.frame_layers = match (ex.frames, ex.frame_layers) {
                    (1, _) => Some(layers),
                    (_, Some(l)) if l == layers => Some(l),
                    _ => None,
                };
                continue;
            }
            ex.done = Some(at);
            ex.terminal = Some(resp);
            outstanding -= 1;
            finished += 1;
        }
        Ok(exs)
    }
}

/// One swept result: `(cycles, terms, speedup)`, with the speedup as
/// the CSV prints it.
type Row = (u64, u64, String);

/// The rows every served answer must equal, keyed by network,
/// representation label, engine and seed.
#[derive(Debug, Default)]
pub struct Expect {
    rows: BTreeMap<(String, String, String, u64), Row>,
}

impl Expect {
    /// Adds the rows of one sweep CSV at `seed`.
    ///
    /// # Errors
    ///
    /// When a line does not have the sweep's six columns.
    pub fn add_csv(&mut self, seed: u64, csv: &str) -> Result<(), String> {
        for line in csv.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let [net, repr, engine, cycles, terms, speedup] = f[..] else {
                return Err(format!("bad sweep row: {line}"));
            };
            let num = |s: &str| s.parse::<u64>().map_err(|e| format!("bad row {line}: {e}"));
            self.rows.insert(
                (net.to_string(), repr.to_string(), engine.to_string(), seed),
                (num(cycles)?, num(terms)?, speedup.to_string()),
            );
        }
        Ok(())
    }

    /// Checks one round trip: the answer is `ok` and equals the swept
    /// row; under v2 the `done` frame wraps it after one frame per conv
    /// layer; under v1 there are no frames.
    pub fn check(&self, ex: &Exchange) -> Result<(), String> {
        let req = &ex.req;
        let layers = req.network.conv_layers().len();
        match (req.v, ex.terminal.as_ref()) {
            (_, None) => return Err("no answer".to_string()),
            (2, Some(Response::Done { frames, .. }))
                if *frames != layers || ex.frames != layers || ex.frame_layers != Some(layers) =>
            {
                return Err(format!(
                    "v2 exchange: {} frames received, done counts {frames}, \
                     expected {layers} (frames say {:?})",
                    ex.frames, ex.frame_layers
                ));
            }
            (2, Some(Response::Done { .. })) => {}
            (2, Some(other)) => return Err(format!("v2 terminal is not a done frame: {other:?}")),
            (_, Some(Response::Done { .. })) => return Err("v1 answer in a done frame".to_string()),
            (_, Some(_)) if ex.frames > 0 => return Err("v1 exchange carried frames".to_string()),
            _ => {}
        }
        let Some(Response::Ok {
            id,
            network,
            repr,
            engine,
            seed,
            cycles,
            terms,
            speedup,
            digest,
            ..
        }) = ex.answer()
        else {
            return Err(format!("not ok: {:?}", ex.answer()));
        };
        let key = (
            req.network.name().to_string(),
            repr_label(req.repr).to_string(),
            req.engine.clone(),
            req.seed,
        );
        let echoed = (network.clone(), repr.clone(), engine.clone(), *seed);
        if *id != req.id || echoed != key {
            return Err(format!("answer {id} {echoed:?} does not echo request {} {key:?}", req.id));
        }
        let Some((c, t, s)) = self.rows.get(&key) else {
            return Err(format!("no swept row for {key:?}"));
        };
        let want = response_digest(network, repr, engine, *seed, *c, *t, s.parse().unwrap_or(-1.0));
        if (cycles, terms, &format!("{speedup:.4}"), digest) != (c, t, s, &want) {
            return Err(format!(
                "{key:?}: served {cycles}/{terms}/{speedup:.4}/{digest}, swept {c}/{t}/{s}/{want}"
            ));
        }
        Ok(())
    }
}

/// The line a response contributes to the combined digest the serve
/// golden pins: its digest when `ok`, its status otherwise.
pub fn fingerprint_line(r: Option<&Response>) -> String {
    match r {
        Some(Response::Ok { digest, .. }) => digest.clone(),
        Some(Response::Shed { reason, .. }) => format!("shed:{}", reason.label()),
        Some(Response::Error { message, .. }) => format!("error:{message}"),
        _ => "error:no answer".to_string(),
    }
}
