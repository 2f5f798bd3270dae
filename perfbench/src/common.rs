//! What the workloads share: process hygiene, the peer-process fleet,
//! the HTTP client, the query-phase clock and the end-to-end metrics.

use crate::check::Answer;
use crate::stats::{median, percentile, tail_percentile};
use crate::sys;
use hdk_core::{WireRequest, WireResponse};
use hdk_p2p::wire::{read_frame, write_frame};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Top-k size of every query.
pub const K: usize = 10;

/// The environment every process of a run starts with: no `HDK_*`
/// switch, and one rayon worker per process.
pub fn hygienic(command: &mut Command) -> &mut Command {
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("HDK_") {
            command.env_remove(&name);
        }
    }
    command.env("RAYON_NUM_THREADS", "1")
}

/// Refuses to measure in an environment the figures would not hold in.
pub fn assert_hygienic() {
    let pool = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    assert_eq!(
        pool, "1",
        "run with RAYON_NUM_THREADS=1 (perfbench/run.py sets it)"
    );
    let switches: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HDK_"))
        .collect();
    assert!(switches.is_empty(), "HDK_* switches set: {switches:?}");
}

/// The `hdk-peer` processes of one serving tier. Dropping the fleet
/// kills and reaps every process still running, so a panic anywhere in
/// a run leaves no peer behind.
pub struct Fleet {
    children: Vec<Child>,
    pub addrs: Vec<String>,
}

impl Fleet {
    /// Starts `nprocs` peer processes hosting `peers` logical peers.
    pub fn spawn(peer_bin: &Path, nprocs: usize, peers: usize, dfmax: u32) -> Fleet {
        let mut fleet = Fleet {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for proc_index in 0..nprocs {
            let mut child = hygienic(Command::new(peer_bin).args([
                "--listen",
                "127.0.0.1:0",
                "--nprocs",
                &nprocs.to_string(),
                "--proc",
                &proc_index.to_string(),
                "--peers",
                &peers.to_string(),
                "--dfmax",
                &dfmax.to_string(),
            ]))
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", peer_bin.display()));
            let stdout = child.stdout.take().expect("piped stdout");
            fleet.children.push(child);
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read the peer's LISTEN line");
            let addr = line
                .trim()
                .strip_prefix("LISTEN ")
                .unwrap_or_else(|| panic!("unexpected peer banner {line:?}"))
                .to_string();
            fleet.addrs.push(addr);
        }
        fleet
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Graceful shutdown: every process acknowledges and exits 0.
    pub fn shutdown(mut self) {
        for (child, addr) in self.children.iter_mut().zip(&self.addrs) {
            let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
            write_frame(&mut stream, &WireRequest::Shutdown.encode()).expect("send Shutdown");
            let reply = read_frame(&mut stream).expect("read the shutdown ack");
            assert!(
                matches!(WireResponse::decode(&reply), Ok(WireResponse::ShuttingDown)),
                "peer at {addr} did not acknowledge shutdown"
            );
            let status = child.wait().expect("reap peer");
            assert!(status.success(), "peer at {addr} exited {status}");
        }
        self.children.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One keep-alive HTTP/1.1 connection with TCP_NODELAY.
pub struct HttpClient {
    stream: BufReader<TcpStream>,
    line: String,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the HTTP front-end");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        HttpClient {
            stream: BufReader::new(stream),
            line: String::new(),
        }
    }

    /// `GET target`: the status code and the body. The request goes out
    /// in one write, so Nagle and delayed ACKs never stall it.
    pub fn get(&mut self, target: &str) -> (u16, String) {
        let request = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.stream
            .get_mut()
            .write_all(request.as_bytes())
            .expect("send request");
        self.line.clear();
        self.stream
            .read_line(&mut self.line)
            .expect("read status line");
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line {:?}", self.line));
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            self.stream.read_line(&mut self.line).expect("read header");
            let header = self.line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("numeric content-length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body).expect("read body");
        (status, String::from_utf8(body).expect("UTF-8 body"))
    }
}

/// Parses a `/query` answer body: lookups, postings fetched, and the
/// results with their exact score bits.
pub fn parse_answer(body: &str) -> Answer {
    fn field<'a>(body: &'a str, name: &str) -> &'a str {
        let at = body
            .find(&format!("\"{name}\":"))
            .unwrap_or_else(|| panic!("answer lacks {name}: {body}"));
        let rest = &body[at + name.len() + 3..];
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        &rest[..end]
    }
    let lookups = field(body, "lookups").parse().expect("lookups");
    let postings = field(body, "postings_fetched")
        .parse()
        .expect("postings_fetched");
    let list = &body[body.find("\"results\":[").expect("results") + 11..];
    let mut results = Vec::new();
    for item in list.split("{\"doc\":").skip(1) {
        let (doc, rest) = item.split_once(",\"score\":").expect("score");
        let score = rest.split('}').next().expect("score value");
        let score: f64 = score.parse().expect("numeric score");
        results.push((doc.parse().expect("doc id"), score.to_bits()));
    }
    Answer {
        results,
        lookups,
        postings,
    }
}

/// One round of the closed-loop query phase.
struct RoundStat {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// The closed-loop query phase, kept per round: a round is one pass
/// over a workload's fixed query sequence, at least a thousand queries
/// long so that its p99 has ten samples beyond it. Throughput and latency percentiles are taken per round
/// and reported as the median over the rounds, so a burst of host CPU
/// steal moves one round and not the result; CPU time is summed over
/// the whole phase.
#[derive(Default)]
pub struct QueryClock {
    rounds: Vec<RoundStat>,
    queries: u64,
    cpu_s: f64,
}

impl QueryClock {
    /// Runs whole `round`s until `budget` has passed (at least one),
    /// charging the CPU seconds `cpu` reads. `round` records one latency
    /// per query into the vector it is handed.
    pub fn run_rounds(
        &mut self,
        budget: Duration,
        cpu: impl Fn() -> f64,
        mut round: impl FnMut(&mut Vec<u64>),
    ) {
        let cpu_before = cpu();
        let started = Instant::now();
        let mut latencies_ns = Vec::new();
        loop {
            latencies_ns.clear();
            let round_started = Instant::now();
            round(&mut latencies_ns);
            let wall = round_started.elapsed().as_secs_f64();
            let n = latencies_ns.len();
            assert!(
                tail_percentile(n).is_some_and(|p| p >= 99.0),
                "a round of {n} queries leaves fewer than ten samples beyond p99"
            );
            let mut sorted: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            sorted.sort_by(f64::total_cmp);
            self.rounds.push(RoundStat {
                qps: n as f64 / wall,
                p50_us: percentile(&sorted, 50.0),
                p99_us: percentile(&sorted, 99.0),
            });
            self.queries += n as u64;
            if started.elapsed() >= budget {
                break;
            }
        }
        self.cpu_s += cpu() - cpu_before;
    }

    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// qps, p50 and p99 (µs) as medians over the rounds, and CPU µs per
    /// query over the whole phase.
    pub fn metrics(&self, out: &mut Metrics) {
        let over_rounds =
            |f: fn(&RoundStat) -> f64| median(&self.rounds.iter().map(f).collect::<Vec<_>>());
        out.set("qps", over_rounds(|r| r.qps));
        out.set("query_p50_us", over_rounds(|r| r.p50_us));
        out.set("query_p99_us", over_rounds(|r| r.p99_us));
        out.set("cpu_us_per_query", self.cpu_s * 1e6 / self.queries as f64);
    }
}

/// Times `f` and returns its value with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Named metric values, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.0.iter().all(|(n, _)| *n != name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }
}

/// Peak resident set of `pids`, summed, in MiB.
pub fn peak_rss_mb(pids: &[u32]) -> f64 {
    pids.iter().map(|&p| sys::peak_rss_kib(p)).sum::<u64>() as f64 / 1024.0
}

/// Derives independent sub-seeds from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    hdk_p2p::hash_u64s(&[seed, stream])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_front_end_answers_bit_exactly() {
        let body = "{\"query\":[1,2],\"k\":10,\"peer\":3,\"lookups\":3,\"postings_fetched\":17,\
                    \"latency_us\":41,\"transport_errors\":0,\"results\":[{\"doc\":7,\"score\":2.5},\
                    {\"doc\":4,\"score\":0.30000000000000004}]}";
        let a = parse_answer(body);
        assert_eq!(a.lookups, 3);
        assert_eq!(a.postings, 17);
        assert_eq!(
            a.results,
            vec![(7, 2.5f64.to_bits()), (4, (0.1f64 + 0.2).to_bits())]
        );
        let empty = parse_answer("{\"lookups\":1,\"postings_fetched\":0,\"results\":[]}");
        assert!(empty.results.is_empty());
    }
}
