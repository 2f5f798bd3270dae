//! The three workloads: their inputs (all drawn from the run seed),
//! their set-up, their timed phase, and the checks on every answer.

use crate::check::{Answer, Limits, Reference};
use crate::common::{
    parse_answer, peak_rss_mb, sub_seed, timed, Fleet, HttpClient, Metrics, QueryClock, K,
};
use hdk_core::{
    spawn_http, BackendConfig, HdkConfig, HdkNetwork, HttpHandle, OverlayKind, QueryService,
    StoreConfig,
};
use hdk_corpus::{
    partition_documents, Collection, CollectionGenerator, Document, GeneratorConfig, QueryLog,
    QueryLogConfig,
};
use hdk_ir::Codec;
use hdk_p2p::{MsgKind, PeerId};
use hdk_text::TermId;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Set-ups per run for the workloads that set up once per run; the run
/// reports their median.
const SETUPS: usize = 5;

/// Queries per workload whose exhaustive answer is checked against the
/// brute-force window scan.
const BRUTE_SAMPLE: usize = 12;

/// What a run hands back to `main`.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Steal share of host CPU over the timed phase.
    pub steal: f64,
}

/// One query of a replay: the querying peer and its terms.
pub type Query = (PeerId, Vec<TermId>);

/// The model configuration every workload shares, apart from the store.
pub fn config(dfmax: u32, store: StoreConfig) -> HdkConfig {
    HdkConfig {
        dfmax,
        // No very-frequent-term exclusion: the stop set is fixed at the
        // first build, so with it a grown network could not equal a
        // static build over the grown collection.
        ff: u64::MAX,
        store,
        codec: Codec::Leb128,
        ..HdkConfig::default()
    }
}

pub fn limits(config: &HdkConfig) -> Limits {
    Limits {
        dfmax: config.dfmax,
        smax: config.smax,
        window: config.window,
        k: K,
    }
}

fn generate(num_docs: usize, vocab_size: usize, seed: u64) -> Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs,
        vocab_size,
        seed: sub_seed(seed, 1),
        ..GeneratorConfig::default()
    })
    .generate()
}

/// Checks every answer of a round and, on a sample, the exhaustive
/// answer against the window scan; panics on the first wrong one.
pub fn check_round(
    label: &str,
    reference: &Reference<'_>,
    service: &QueryService,
    queries: &[Query],
    answers: &[Answer],
) {
    assert_eq!(queries.len(), answers.len());
    for (i, ((_, terms), answer)) in queries.iter().zip(answers).enumerate() {
        if let Err(e) = reference.check(terms, answer) {
            panic!("{label}: query {i} {terms:?}: {e}");
        }
    }
    let mut seen = BTreeSet::new();
    for (from, terms) in queries
        .iter()
        .filter(|(_, t)| seen.insert(t.clone()))
        .take(BRUTE_SAMPLE)
    {
        let all = service.query(*from, terms, service.num_docs());
        let docs: BTreeSet<u32> = all.results.iter().map(|r| r.doc.0).collect();
        if let Err(e) = reference.check_exhaustive(terms, &docs) {
            panic!("{label}: exhaustive query {terms:?}: {e}");
        }
    }
}

/// Mean lookups and postings per query of a round.
fn per_query_counts(answers: &[Answer], out: &mut Metrics) {
    let n = answers.len() as f64;
    out.set(
        "lookups_per_query",
        answers.iter().map(|a| f64::from(a.lookups)).sum::<f64>() / n,
    );
    out.set(
        "postings_per_query",
        answers.iter().map(|a| a.postings as f64).sum::<f64>() / n,
    );
}

/// Index-size metrics of a built service over `docs` documents.
fn index_metrics(service: &QueryService, docs: usize, out: &mut Metrics) {
    let (counts, inserted, resident, sealed) = {
        let index = service.index();
        (
            index.index_counts(),
            index.snapshot().kind(MsgKind::IndexInsert).postings,
            index.resident_posting_bytes(),
            index.sealed_segment_bytes(),
        )
    };
    let postings = counts.total_postings() as f64;
    out.set("insert_postings_per_doc", inserted as f64 / docs as f64);
    out.set("index_postings_per_doc", postings / docs as f64);
    out.set(
        "store_bytes_per_posting",
        (resident + sealed) as f64 / postings,
    );
}

fn response_bytes(service: &QueryService) -> u64 {
    service.snapshot().kind(MsgKind::QueryResponse).bytes
}

fn replay(service: &QueryService, queries: &[Query], latencies: &mut Vec<u64>) -> Vec<Answer> {
    queries
        .iter()
        .map(|(from, terms)| {
            let started = std::time::Instant::now();
            let outcome = service.query(*from, terms, K);
            latencies.push(started.elapsed().as_nanos() as u64);
            Answer::from_outcome(&outcome)
        })
        .collect()
}

// ---------------------------------------------------------------------
// serve_zipf

pub mod serve {
    use super::*;

    pub const NPROCS: usize = 2;
    pub const PEERS: usize = 8;
    pub const DOCS: usize = 800;
    pub const VOCAB: usize = 6_000;
    pub const DFMAX: u32 = 12;
    pub const SKEW: f64 = 1.2;
    /// Independent query logs a round interleaves. One Zipf(1.2) log puts
    /// a quarter of its traffic on its top query, so the per-query counts
    /// of a single log would follow that one query from seed to seed;
    /// eighty logs average eighty such heads, in the counts and in the
    /// round's tail alike.
    pub const LOGS: usize = 80;
    /// Requests per log in a round.
    pub const PER_LOG: usize = 50;

    /// A running serving tier with its inputs.
    pub struct Tier {
        pub collection: Collection,
        pub config: HdkConfig,
        pub partitions: Vec<Vec<hdk_corpus::DocId>>,
        pub fleet: Fleet,
        pub service: QueryService,
        pub http: HttpHandle,
        pub queries: Vec<Query>,
        pub targets: Vec<String>,
        pub build_s: f64,
    }

    pub fn setup(peer_bin: &Path, seed: u64) -> Tier {
        let collection = generate(DOCS, VOCAB, seed);
        let partitions = partition_documents(collection.len(), PEERS, sub_seed(seed, 2));
        let config = config(DFMAX, StoreConfig::Memory);
        let fleet = Fleet::spawn(peer_bin, NPROCS, PEERS, DFMAX);
        let (network, build_s) = timed(|| {
            HdkNetwork::build_with(
                &collection,
                &partitions,
                config.clone(),
                OverlayKind::PGrid,
                BackendConfig::Tcp {
                    addrs: fleet.addrs.clone(),
                },
            )
        });
        let service = network.query_service();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind the front-end");
        let http = spawn_http(listener, service.clone()).expect("spawn the HTTP front-end");
        let streams: Vec<Vec<Vec<TermId>>> = (0..LOGS as u64)
            .map(|l| {
                let log = QueryLog::generate(
                    &collection,
                    &QueryLogConfig {
                        seed: sub_seed(seed, 10 + l),
                        ..QueryLogConfig::default()
                    },
                );
                assert!(!log.is_empty(), "empty query log");
                log.zipf_replay(SKEW, PER_LOG, sub_seed(seed, 100 + l))
                    .into_iter()
                    .map(|pos| log.queries[pos].terms.clone())
                    .collect()
            })
            .collect();
        let queries: Vec<Query> = (0..PER_LOG)
            .flat_map(|i| streams.iter().map(move |s| s[i].clone()))
            .enumerate()
            .map(|(i, terms)| (PeerId((i % PEERS) as u64), terms))
            .collect();
        let targets = queries
            .iter()
            .map(|(from, terms)| {
                let q: Vec<String> = terms.iter().map(|t| t.0.to_string()).collect();
                format!("/query?q={}&k={K}&peer={}", q.join(","), from.0)
            })
            .collect();
        Tier {
            collection,
            config,
            partitions,
            fleet,
            service,
            http,
            queries,
            targets,
            build_s,
        }
    }

    /// One pass over the replay on `client`; the answers, or the count
    /// of non-200 replies.
    pub fn http_round(
        tier: &Tier,
        client: &mut HttpClient,
        latencies: &mut Vec<u64>,
    ) -> (Vec<Answer>, u64) {
        let mut failed = 0;
        let mut answers = Vec::with_capacity(tier.targets.len());
        for target in &tier.targets {
            let started = std::time::Instant::now();
            let (status, body) = client.get(target);
            latencies.push(started.elapsed().as_nanos() as u64);
            if status == 200 {
                answers.push(parse_answer(&body));
            } else {
                failed += 1;
                answers.push(Answer {
                    results: Vec::new(),
                    lookups: 0,
                    postings: 0,
                });
            }
        }
        (answers, failed)
    }

    pub fn teardown(tier: Tier) {
        tier.http.stop();
        tier.fleet.shutdown();
    }

    pub fn run(peer_bin: &Path, seed: u64, seconds: u64) -> RunResult {
        let mut setups = Vec::new();
        let mut builds = Vec::new();
        let mut tier = None;
        for i in 0..SETUPS {
            let ((t, client, warm), setup_s) = timed(|| {
                let t = setup(peer_bin, seed);
                let mut client = HttpClient::connect(t.http.addr());
                let warm = http_round(&t, &mut client, &mut Vec::new());
                (t, client, warm)
            });
            setups.push(setup_s);
            builds.push(t.build_s);
            assert_eq!(warm.1, 0, "warm-up requests failed");
            if i + 1 < SETUPS {
                drop(client);
                teardown(t);
            } else {
                tier = Some((t, client, warm.0));
            }
        }
        let (tier, mut client, first) = tier.expect("at least one set-up");
        let mut pids = vec![std::process::id()];
        pids.extend(tier.fleet.pids());

        let bytes_before = response_bytes(&tier.service);
        let host_before = crate::sys::HostCpu::now();
        let mut clock = QueryClock::default();
        let mut failed = 0u64;
        let mut diverged = 0u64;
        clock.run_rounds(
            Duration::from_secs(seconds),
            || crate::sys::processes_cpu_seconds(&pids),
            |lat| {
                let (answers, bad) = http_round(&tier, &mut client, lat);
                failed += bad;
                diverged += answers.iter().zip(&first).filter(|(a, b)| a != b).count() as u64;
            },
        );
        let steal = crate::sys::HostCpu::now().steal_since(&host_before);
        // Before the checks build their in-process twin.
        let peak_rss = peak_rss_mb(&pids);
        let queries = clock.queries();
        let response_bytes = response_bytes(&tier.service) - bytes_before;
        assert_eq!(failed, 0, "{failed} of {queries} requests failed");
        assert_eq!(
            diverged, 0,
            "{diverged} answers differ from the first round's"
        );

        // Checks, outside the timed phase.
        let reference = Reference::new(&tier.collection, limits(&tier.config));
        check_round(
            "serve_zipf",
            &reference,
            &tier.service,
            &tier.queries,
            &first,
        );
        let twin = HdkNetwork::build(
            &tier.collection,
            &tier.partitions,
            tier.config.clone(),
            OverlayKind::PGrid,
        );
        assert_eq!(
            tier.service.index().index_counts(),
            twin.index().index_counts(),
            "the serving tier's index differs from an in-process build"
        );
        for (i, ((from, terms), answer)) in tier.queries.iter().zip(&first).enumerate() {
            let local = Answer::from_outcome(&twin.query(*from, terms, K));
            assert_eq!(
                answer, &local,
                "request {i} {terms:?}: HTTP answer differs from in-process"
            );
        }
        assert_eq!(
            tier.service.transport_errors(),
            0,
            "transport errors on loopback"
        );

        let mut m = Metrics::default();
        m.set("setup_s", crate::stats::median(&setups));
        clock.metrics(&mut m);
        m.set(
            "index_docs_per_s",
            DOCS as f64 / crate::stats::median(&builds),
        );
        per_query_counts(&first, &mut m);
        m.set("bytes_per_query", response_bytes as f64 / queries as f64);
        index_metrics(&tier.service, DOCS, &mut m);
        m.set("peak_rss_mb", peak_rss);
        drop(client);
        teardown(tier);
        RunResult {
            attempted: queries,
            failed,
            metrics: m,
            steal,
        }
    }
}

// ---------------------------------------------------------------------
// query_long

pub mod long {
    use super::*;

    pub const PEERS: usize = 16;
    pub const DOCS: usize = 2_000;
    pub const VOCAB: usize = 20_000;
    pub const DFMAX: u32 = 40;
    /// Distinct queries per round: the round's p99 is its fortieth
    /// costliest query, which moves little from seed to seed.
    pub const ROUND: usize = 4_000;

    pub struct Net {
        pub collection: Collection,
        pub config: HdkConfig,
        pub partitions: Vec<Vec<hdk_corpus::DocId>>,
        pub service: QueryService,
        pub queries: Vec<Query>,
        pub build_s: f64,
    }

    pub fn setup(seed: u64) -> Net {
        let collection = generate(DOCS, VOCAB, seed);
        let partitions = partition_documents(collection.len(), PEERS, sub_seed(seed, 2));
        let config = config(DFMAX, StoreConfig::Memory);
        let (network, build_s) = timed(|| {
            HdkNetwork::build(&collection, &partitions, config.clone(), OverlayKind::PGrid)
        });
        // 6..=8 co-occurring terms from seeded documents.
        let pick = sub_seed(seed, 3);
        let queries = (0..ROUND)
            .map(|i| {
                let h = hdk_p2p::hash_u64s(&[pick, i as u64]);
                let terms =
                    collection.long_query((h % DOCS as u64) as usize, 6 + (h >> 32) as usize % 3);
                (PeerId(i as u64 % PEERS as u64), terms)
            })
            .collect();
        Net {
            collection,
            config,
            partitions,
            service: network.query_service(),
            queries,
            build_s,
        }
    }

    pub fn run(seed: u64, seconds: u64) -> RunResult {
        let mut setups = Vec::new();
        let mut builds = Vec::new();
        let mut net = None;
        for _ in 0..SETUPS {
            // The previous set-up's network goes first, so that every
            // set-up, and `peak_rss_mb`, sees one network at a time.
            drop(net.take());
            let ((n, warm), setup_s) = timed(|| {
                let n = setup(seed);
                let warm = replay(&n.service, &n.queries, &mut Vec::new());
                (n, warm)
            });
            setups.push(setup_s);
            builds.push(n.build_s);
            net = Some((n, warm));
        }
        let (net, first) = net.expect("at least one set-up");
        let pids = [std::process::id()];
        let bytes_before = response_bytes(&net.service);
        let host_before = crate::sys::HostCpu::now();
        let mut clock = QueryClock::default();
        let mut diverged = 0u64;
        clock.run_rounds(
            Duration::from_secs(seconds),
            crate::sys::thread_cpu_seconds,
            |lat| {
                let answers = replay(&net.service, &net.queries, lat);
                diverged += answers.iter().zip(&first).filter(|(a, b)| a != b).count() as u64;
            },
        );
        let steal = crate::sys::HostCpu::now().steal_since(&host_before);
        let queries = clock.queries();
        let response_bytes = response_bytes(&net.service) - bytes_before;
        assert_eq!(
            diverged, 0,
            "{diverged} answers differ from the first round's"
        );

        let reference = Reference::new(&net.collection, limits(&net.config));
        check_round("query_long", &reference, &net.service, &net.queries, &first);

        let mut m = Metrics::default();
        m.set("setup_s", crate::stats::median(&setups));
        clock.metrics(&mut m);
        m.set(
            "index_docs_per_s",
            DOCS as f64 / crate::stats::median(&builds),
        );
        per_query_counts(&first, &mut m);
        m.set("bytes_per_query", response_bytes as f64 / queries as f64);
        index_metrics(&net.service, DOCS, &mut m);
        m.set("peak_rss_mb", peak_rss_mb(&pids));
        RunResult {
            attempted: queries,
            failed: 0,
            metrics: m,
            steal,
        }
    }
}

// ---------------------------------------------------------------------
// grow_segment

pub mod grow {
    use super::*;

    pub const INIT_PEERS: usize = 4;
    pub const INIT_DOCS: usize = 160;
    pub const WAVES: usize = 3;
    pub const WAVE_PEERS: usize = 4;
    pub const DOCS_PER_JOINER: usize = 10;
    pub const VOCAB: usize = 6_000;
    pub const DFMAX: u32 = 12;
    /// Hot-tier budget across all stripes: far below the index size, so
    /// most entries live in sealed segment frames.
    pub const HOT_BYTES: u64 = 16 * 1024;
    /// Distinct queries replayed after every wave: one replay is a round
    /// of the query clock.
    pub const QUERIES: usize = 1_000;

    pub const JOINED_DOCS: usize = WAVES * WAVE_PEERS * DOCS_PER_JOINER;
    pub const TOTAL_DOCS: usize = INIT_DOCS + JOINED_DOCS;

    /// The inputs of one growth experiment.
    pub struct Inputs {
        pub collection: Collection,
        pub config: HdkConfig,
        pub partitions: Vec<Vec<hdk_corpus::DocId>>,
        /// Per wave: the joining peers with their documents.
        pub waves: Vec<Vec<(PeerId, Vec<Document>)>>,
        pub queries: Vec<Query>,
    }

    pub fn inputs(seed: u64, dir: PathBuf) -> Inputs {
        let collection = generate(TOTAL_DOCS, VOCAB, seed);
        let partitions = partition_documents(INIT_DOCS, INIT_PEERS, sub_seed(seed, 2));
        let config = config(
            DFMAX,
            StoreConfig::Segment {
                dir: Some(dir),
                hot_bytes: HOT_BYTES,
            },
        );
        let mut next_doc = INIT_DOCS;
        let waves = (0..WAVES)
            .map(|w| {
                (0..WAVE_PEERS)
                    .map(|j| {
                        let docs = collection.docs()[next_doc..next_doc + DOCS_PER_JOINER].to_vec();
                        next_doc += DOCS_PER_JOINER;
                        (PeerId((INIT_PEERS + w * WAVE_PEERS + j) as u64), docs)
                    })
                    .collect()
            })
            .collect();
        let log = QueryLog::generate(
            &collection,
            &QueryLogConfig {
                num_queries: QUERIES,
                min_hits: 5,
                seed: sub_seed(seed, 3),
                ..QueryLogConfig::default()
            },
        );
        assert!(!log.is_empty(), "empty query log");
        let peers = (INIT_PEERS + WAVES * WAVE_PEERS) as u64;
        let queries = log
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| (PeerId(i as u64 % peers), q.terms.clone()))
            .collect();
        Inputs {
            collection,
            config,
            partitions,
            waves,
            queries,
        }
    }

    /// The peer → documents assignment after every wave joined.
    pub fn final_partitions(inputs: &Inputs) -> Vec<Vec<hdk_corpus::DocId>> {
        let mut parts = inputs.partitions.clone();
        for wave in &inputs.waves {
            for (_, docs) in wave {
                parts.push(docs.iter().map(|d| d.id).collect());
            }
        }
        parts
    }

    pub fn boot(inputs: &Inputs) -> HdkNetwork {
        HdkNetwork::build(
            &inputs.collection.prefix(INIT_DOCS),
            &inputs.partitions,
            inputs.config.clone(),
            OverlayKind::PGrid,
        )
    }

    /// The queries a wave's replay runs from: only peers that have
    /// joined so far.
    pub fn live_queries(inputs: &Inputs, peers: usize) -> Vec<Query> {
        inputs
            .queries
            .iter()
            .map(|(from, terms)| (PeerId(from.0 % peers as u64), terms.clone()))
            .collect()
    }

    struct Round {
        setup_s: f64,
        index_s: f64,
        answers: Vec<Answer>,
        response_bytes: u64,
        network: HdkNetwork,
    }

    fn round(inputs: &Inputs, clock: &mut QueryClock) -> Round {
        let (mut network, setup_s) = timed(|| boot(inputs));
        let mut index_s = 0.0;
        let mut answers = Vec::new();
        let mut replied = 0;
        for (w, wave) in inputs.waves.iter().enumerate() {
            let ((), s) = timed(|| {
                network.join_peers(wave.clone());
            });
            index_s += s;
            let queries = live_queries(inputs, INIT_PEERS + (w + 1) * WAVE_PEERS);
            let service = network.query_service();
            let before = response_bytes(&service);
            clock.run_rounds(Duration::ZERO, crate::sys::thread_cpu_seconds, |lat| {
                answers.extend(replay(&service, &queries, lat))
            });
            replied += response_bytes(&service) - before;
        }
        let ((), s) = timed(|| network.sync_storage());
        index_s += s;
        Round {
            setup_s,
            index_s,
            answers,
            response_bytes: replied,
            network,
        }
    }

    pub fn run(seed: u64, seconds: u64, work_dir: &Path) -> RunResult {
        let budget = Duration::from_secs(seconds);
        let started = std::time::Instant::now();
        let host_before = crate::sys::HostCpu::now();
        let mut clock = QueryClock::default();
        let mut setups = Vec::new();
        let mut index_rates = Vec::new();
        let mut rounds = 0usize;
        let mut first: Option<(Vec<Answer>, u64)> = None;
        let mut m = Metrics::default();
        loop {
            // Each round's logs stay until the run's work directory is
            // removed, so no round pays for deleting the previous one's.
            let inputs = inputs(seed, work_dir.join(format!("grow-{rounds}")));
            let r = round(&inputs, &mut clock);
            setups.push(r.setup_s);
            index_rates.push(JOINED_DOCS as f64 / r.index_s);
            rounds += 1;
            match &first {
                Some((answers, _)) => assert!(
                    r.answers == *answers,
                    "round {rounds} answers differ from round 1"
                ),
                None => {
                    // Before the checks build their static reference.
                    m.set("peak_rss_mb", peak_rss_mb(&[std::process::id()]));
                    verify(&inputs, &r.answers, r.network, &mut m);
                    first = Some((r.answers, r.response_bytes));
                }
            }
            if started.elapsed() >= budget {
                break;
            }
        }
        let steal = crate::sys::HostCpu::now().steal_since(&host_before);
        let (answers, response_bytes) = first.expect("one round");
        m.set("setup_s", crate::stats::median(&setups));
        clock.metrics(&mut m);
        m.set("index_docs_per_s", crate::stats::median(&index_rates));
        per_query_counts(&answers, &mut m);
        m.set(
            "bytes_per_query",
            response_bytes as f64 / answers.len() as f64,
        );
        RunResult {
            attempted: clock.queries(),
            failed: 0,
            metrics: m,
            steal,
        }
    }

    /// The grown network against a static build over the final
    /// assignment, then against itself after every peer restarts.
    fn verify(inputs: &Inputs, answers: &[Answer], mut network: HdkNetwork, m: &mut Metrics) {
        let service = network.query_service();
        let reference = Reference::new(&inputs.collection, limits(&inputs.config));
        let replayed: Vec<Query> = (0..WAVES)
            .flat_map(|w| live_queries(inputs, INIT_PEERS + (w + 1) * WAVE_PEERS))
            .collect();
        check_round("grow_segment", &reference, &service, &replayed, answers);
        index_metrics(&service, TOTAL_DOCS, m);

        let final_answers = &answers[answers.len() - inputs.queries.len()..];
        let reference_net = HdkNetwork::build(
            &inputs.collection,
            &final_partitions(inputs),
            config(DFMAX, StoreConfig::Memory),
            OverlayKind::PGrid,
        );
        let counts = service.index().index_counts();
        assert_eq!(
            counts,
            reference_net.index().index_counts(),
            "grown index differs from a static build"
        );
        let last = live_queries(inputs, INIT_PEERS + WAVES * WAVE_PEERS);
        for ((from, terms), answer) in last.iter().zip(final_answers) {
            let expect = Answer::from_outcome(&reference_net.query(*from, terms, K));
            assert_eq!(
                answer.results, expect.results,
                "{terms:?}: grown answer differs from a static build"
            );
        }

        let peers: Vec<PeerId> = (0..(INIT_PEERS + WAVES * WAVE_PEERS) as u64)
            .map(PeerId)
            .collect();
        network.restart_peers(&peers);
        assert_eq!(
            service.index().index_counts(),
            counts,
            "restart changed the index"
        );
        for ((from, terms), answer) in last.iter().zip(final_answers) {
            let after = Answer::from_outcome(&service.query(*from, terms, K));
            assert_eq!(&after, answer, "{terms:?}: answer changed across restart");
        }
    }
}
